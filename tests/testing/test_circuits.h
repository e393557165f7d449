#ifndef QKC_TESTS_TESTING_TEST_CIRCUITS_H
#define QKC_TESTS_TESTING_TEST_CIRCUITS_H

#include <cmath>
#include <vector>

#include "circuit/circuit.h"
#include "util/rng.h"

namespace qkc::testing {

/**
 * Random circuit generator for property tests: draws from the full gate
 * vocabulary (Clifford, rotations, diagonal, three-qubit, dense custom) so
 * every Bayesian-network encoding path is exercised.
 */
inline Circuit
randomCircuit(std::size_t numQubits, std::size_t numGates, Rng& rng,
              bool includeThreeQubit = true)
{
    Circuit c(numQubits);
    auto q = [&] { return rng.below(numQubits); };
    auto distinctPair = [&](std::size_t& a, std::size_t& b) {
        a = q();
        do {
            b = q();
        } while (b == a);
    };

    for (std::size_t i = 0; i < numGates; ++i) {
        std::size_t pick = rng.below(includeThreeQubit && numQubits >= 3 ? 14
                                                                         : 12);
        std::size_t a, b;
        switch (pick) {
          case 0: c.h(q()); break;
          case 1: c.x(q()); break;
          case 2: c.y(q()); break;
          case 3: c.z(q()); break;
          case 4: c.s(q()); break;
          case 5: c.t(q()); break;
          case 6: c.rx(q(), rng.uniform(0.1, 3.0)); break;
          case 7: c.ry(q(), rng.uniform(0.1, 3.0)); break;
          case 8: c.rz(q(), rng.uniform(0.1, 3.0)); break;
          case 9:
            distinctPair(a, b);
            c.cnot(a, b);
            break;
          case 10:
            distinctPair(a, b);
            c.cz(a, b);
            break;
          case 11:
            distinctPair(a, b);
            c.zz(a, b, rng.uniform(0.1, 3.0));
            break;
          case 12: {
            std::size_t x = rng.below(numQubits - 2);
            c.ccx(x, x + 1, x + 2);
            break;
          }
          default: {
            std::size_t x = rng.below(numQubits - 2);
            c.ccz(x, x + 1, x + 2);
            break;
          }
        }
    }
    return c;
}

/** Random circuit including SWAPs and dense custom 2q unitaries. */
inline Circuit
randomDenseCircuit(std::size_t numQubits, std::size_t numGates, Rng& rng)
{
    Circuit c(numQubits);
    for (std::size_t i = 0; i < numGates; ++i) {
        std::size_t a = rng.below(numQubits), b;
        do {
            b = rng.below(numQubits);
        } while (b == a);
        switch (rng.below(4)) {
          case 0:
            c.swap(a, b);
            break;
          case 1: {
            // Dense 2-qubit unitary: CNOT conjugated by single-qubit
            // rotations, built as an explicit matrix.
            Gate ra(GateKind::Ry, {0}, rng.uniform(0.2, 2.8));
            Gate rb(GateKind::Rx, {0}, rng.uniform(0.2, 2.8));
            Matrix u = ra.unitary().kron(rb.unitary()) *
                       Gate(GateKind::CNOT, {0, 1}).unitary();
            c.append(Gate::custom({a, b}, u, "dense2q"));
            break;
          }
          case 2:
            c.h(a);
            break;
          default:
            c.ry(a, rng.uniform(0.2, 2.8));
            break;
        }
    }
    return c;
}

/** A small QAOA-like parameterized circuit on a ring (for refresh tests). */
inline Circuit
ringQaoaCircuit(std::size_t numQubits, double gamma, double beta)
{
    Circuit c(numQubits);
    for (std::size_t i = 0; i < numQubits; ++i)
        c.h(i);
    for (std::size_t i = 0; i < numQubits; ++i)
        c.zz(i, (i + 1) % numQubits, gamma);
    for (std::size_t i = 0; i < numQubits; ++i)
        c.rx(i, 2.0 * beta);
    return c;
}

/** sum_k E_k (x) conj(E_k): the channel's action on flattened rho. */
inline Matrix
liouville(const std::vector<Matrix>& kraus)
{
    Matrix s = Matrix::zero(kraus[0].rows() * kraus[0].rows(),
                            kraus[0].cols() * kraus[0].cols());
    for (const Matrix& e : kraus) {
        Matrix conj(e.rows(), e.cols());
        for (std::size_t r = 0; r < e.rows(); ++r)
            for (std::size_t c = 0; c < e.cols(); ++c)
                conj(r, c) = std::conj(e(r, c));
        s = s + e.kron(conj);
    }
    return s;
}

/**
 * Four-bit kernel inputs, as a density matrix produces them for two-qubit
 * channels: a random dense 16x16 and the Liouville forms of two-qubit
 * depolarizing (generic), a two-qubit ZZ phase flip (diag) and an XY Pauli
 * conjugation (perm).
 */
inline std::vector<Matrix>
fourBitOperators()
{
    Rng rng(1616);
    Matrix random(16, 16);
    for (std::size_t r = 0; r < 16; ++r)
        for (std::size_t c = 0; c < 16; ++c)
            random(r, c) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const Matrix zz = Gate(GateKind::Z, {0}).unitary().kron(
        Gate(GateKind::Z, {0}).unitary());
    const Matrix xy = Gate(GateKind::X, {0}).unitary().kron(
        Gate(GateKind::Y, {0}).unitary());
    const double p = 0.15;
    return {random,
            liouville(NoiseChannel::twoQubitDepolarizing(0, 1, 0.2)
                          .krausOperators()),
            liouville({Matrix::identity(4) * Complex(std::sqrt(1 - p)),
                       zz * Complex(std::sqrt(p))}),
            liouville({xy})};
}

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_TEST_CIRCUITS_H
