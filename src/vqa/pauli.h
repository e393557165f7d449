#ifndef QKC_VQA_PAULI_H
#define QKC_VQA_PAULI_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "linalg/types.h"

namespace qkc {

/**
 * A Pauli string observable, e.g. "XZIY": one Pauli per qubit (I for
 * untouched qubits). Generalizes the diagonal Ising objectives the paper's
 * VQE uses. This is a pure observable library — how a value is *obtained*
 * (natively by a backend session's Expectation task, or estimated from
 * shots in a rotated basis) lives in the simulator API, not here.
 */
class PauliString {
  public:
    /**
     * Parses "XZIY"-style text (characters I, X, Y, Z), at most 63 of them
     * — the circuit qubit cap, and what fits the 64-bit masks below.
     */
    explicit PauliString(const std::string& text);

    std::size_t numQubits() const { return text_.size(); }
    const std::string& text() const { return text_; }

    /** The Pauli on `qubit` ('I', 'X', 'Y' or 'Z'). */
    char pauli(std::size_t qubit) const { return text_[qubit]; }

    /**
     * The compiled form, qubit 0 at the most significant bit: P|y> =
     * phase(y) |y ^ xMask()>, where xMask holds the X/Y positions and
     * zMask the Z/Y positions (the bits whose value flips the sign).
     */
    std::uint64_t xMask() const { return xMask_; }
    std::uint64_t zMask() const { return zMask_; }

    /** i^{#Y} (-1)^{popcount(y & zMask)}: the matrix entry P(y ^ xMask, y). */
    Complex phase(std::uint64_t y) const
    {
        return parity(y & zMask_) ? -yPhase_ : yPhase_;
    }

    /** True if the string is all I/Z (directly measurable). */
    bool isDiagonal() const { return xMask_ == 0; }

    /** True if the string is all I (a constant observable). */
    bool isIdentity() const { return (xMask_ | zMask_) == 0; }

    /**
     * Returns `circuit` extended with the basis-change gates that map this
     * observable's eigenbasis onto the computational basis (H for X,
     * Sdg then H for Y).
     */
    Circuit withMeasurementBasis(const Circuit& circuit) const;

    /** Eigenvalue (+1/-1) of a post-rotation measurement outcome. */
    int eigenvalue(std::uint64_t outcome) const
    {
        return parity(outcome & (xMask_ | zMask_)) ? -1 : 1;
    }

    /** Mean eigenvalue over post-rotation samples. */
    double expectationFromSamples(
        const std::vector<std::uint64_t>& samples) const;

    /**
     * Exact eigenvalue mean under a full outcome distribution (diagonal
     * strings only make sense here — callers check isDiagonal first).
     */
    double expectationFromDistribution(
        const std::vector<double>& distribution) const;

    /**
     * <psi|P|psi> over a full amplitude vector of `dim` = 2^numQubits()
     * entries: sum_x conj(psi[x]) psi[x ^ xMask] phase(x ^ xMask), one
     * sequential pass in index order.
     */
    double expectation(const Complex* amps, std::size_t dim) const;

  private:
    static bool parity(std::uint64_t bits)
    {
        return __builtin_parityll(bits) != 0;
    }

    std::string text_;
    std::uint64_t xMask_ = 0;
    std::uint64_t zMask_ = 0;
    Complex yPhase_{1.0, 0.0}; ///< i^{#Y}
};

/**
 * A weighted sum of Pauli strings H = sum_j c_j P_j — a general qubit
 * Hamiltonian, and the payload of the simulator API's Expectation task.
 * Backends that can evaluate <H> exactly (state vector, density matrix,
 * decision diagram, knowledge compilation on ideal circuits) do so
 * natively; the rest estimate it term by term from rotated-basis shots.
 */
struct PauliSum {
    std::vector<std::pair<double, PauliString>> terms;

    PauliSum& add(double coeff, PauliString pauli)
    {
        terms.emplace_back(coeff, std::move(pauli));
        return *this;
    }

    /** Qubit count of the first term (0 when empty; terms must agree). */
    std::size_t numQubits() const
    {
        return terms.empty() ? 0 : terms.front().second.numQubits();
    }

    /** True if every term is all I/Z (computational-basis measurable). */
    bool isDiagonal() const;
};

} // namespace qkc

#endif // QKC_VQA_PAULI_H
