/**
 * Expectation parity across backends (ISSUE 4 acceptance): exact
 * Expectation results agree across sv/dm/kc/dd to 1e-9 on analytically
 * known GHZ values and on the VQE Ising Hamiltonian — without sampling —
 * and sampled estimates converge to the exact values within CLT bounds.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "densitymatrix/densitymatrix_simulator.h"
#include "linalg/matrix.h"
#include "statevector/statevector_simulator.h"
#include "vqa/backends.h"
#include "vqa/driver.h"

namespace qkc {
namespace {

constexpr const char* kExactBackends[] = {"sv", "dm", "kc", "dd"};

double
exactExpectation(const char* name, const Circuit& c, const PauliSum& h)
{
    auto session = makeBackend(name)->open(c);
    Rng rng(1);
    Result r = session->run(Expectation{h, 0}, rng);
    EXPECT_TRUE(r.meta.exact) << name;
    EXPECT_EQ(r.meta.fallbackShots, 0u) << name;
    return r.expectation;
}

TEST(ExpectationParityTest, GhzStabilizersAreExactOnAllFourBackends)
{
    // |GHZ_4>: <Z_i Z_j> = 1, <X X X X> = 1, <Z_i> = 0, <X I I I> = 0.
    const Circuit c = ghzCircuit(4);
    PauliSum zz, xxxx, z1, x1;
    zz.add(1.0, PauliString("ZIIZ"));
    xxxx.add(1.0, PauliString("XXXX"));
    z1.add(1.0, PauliString("IZII"));
    x1.add(1.0, PauliString("XIII"));

    for (const char* name : kExactBackends) {
        EXPECT_NEAR(exactExpectation(name, c, zz), 1.0, 1e-9) << name;
        EXPECT_NEAR(exactExpectation(name, c, xxxx), 1.0, 1e-9) << name;
        EXPECT_NEAR(exactExpectation(name, c, z1), 0.0, 1e-9) << name;
        EXPECT_NEAR(exactExpectation(name, c, x1), 0.0, 1e-9) << name;
    }
}

TEST(ExpectationParityTest, AsymmetricObservablesPinQubitIndexing)
{
    // Qubit-asymmetric state and observables: Ry(0.8) on qubit 0 and
    // Rx(0.5) on qubit 1 give <XI> = sin 0.8, <IX> = 0, <IY> = -sin 0.5,
    // <YI> = 0, <ZI> = cos 0.8, <IZ> = cos 0.5. A swapped qubit index or
    // bit convention in any native expectation path cannot survive these
    // (the GHZ/Bell cases are permutation-invariant and would).
    Circuit c(2);
    c.ry(0, 0.8).rx(1, 0.5);
    const struct {
        const char* pauli;
        double value;
    } cases[] = {
        {"XI", std::sin(0.8)}, {"IX", 0.0},
        {"YI", 0.0},           {"IY", -std::sin(0.5)},
        {"ZI", std::cos(0.8)}, {"IZ", std::cos(0.5)},
    };
    for (const char* name : kExactBackends) {
        for (const auto&[text, value] : cases) {
            PauliSum h;
            h.add(1.0, PauliString(text));
            EXPECT_NEAR(exactExpectation(name, c, h), value, 1e-9)
                << name << " <" << text << ">";
        }
    }
}

TEST(ExpectationParityTest, VqeIsingHamiltonianAgreesAcrossBackends)
{
    // The full VQE Ising Hamiltonian on a mid-optimization ansatz state:
    // every exact backend must agree with the brute-force value from the
    // state-vector distribution to 1e-9.
    Rng modelRng(5);
    VqeIsing problem(2, 3, 1, modelRng);
    const Circuit c = problem.circuit({0.37, 0.81});
    const PauliSum h = problem.hamiltonian();

    Rng distRng(1);
    auto dist = makeBackend("sv")->open(c)->run(Probabilities{{}}, distRng);
    const double reference = problem.expectedEnergyExact(dist.probabilities);

    for (const char* name : kExactBackends)
        EXPECT_NEAR(exactExpectation(name, c, h), reference, 1e-9) << name;
}

/** Dense 2^n x 2^n P as the per-character Kronecker product (qubit 0 first). */
Matrix
densePauli(const std::string& text)
{
    const Matrix i = Matrix::identity(2);
    const Matrix x = Gate(GateKind::X, {0}).unitary();
    const Matrix y = Gate(GateKind::Y, {0}).unitary();
    const Matrix z = Gate(GateKind::Z, {0}).unitary();
    Matrix p = Matrix::identity(1);
    for (char c : text)
        p = p.kron(c == 'X' ? x : c == 'Y' ? y : c == 'Z' ? z : i);
    return p;
}

/** Seeded random 5-qubit strings, the first half carrying two or more Ys. */
std::vector<std::string>
randomPauliTexts(std::size_t count, std::uint64_t seed)
{
    const char alphabet[] = {'I', 'X', 'Y', 'Z'};
    Rng rng(seed);
    std::vector<std::string> texts;
    for (std::size_t k = 0; k < count; ++k) {
        std::string t(5, 'I');
        for (char& c : t)
            c = alphabet[rng.next() % 4];
        if (k < count / 2) {
            t[k % 5] = 'Y';
            t[(k + 2) % 5] = 'Y';
        }
        texts.push_back(t);
    }
    return texts;
}

/** Entangling, qubit-asymmetric 5-qubit circuit with distinct angles. */
Circuit
asymmetricFiveQubitCircuit()
{
    Circuit c(5);
    c.h(0).ry(1, 0.83).rx(2, 0.41).ry(3, 1.27).rz(4, 0.66).h(4);
    c.cnot(0, 1).cnot(1, 3).cz(2, 4).crz(3, 0, 0.9);
    c.rx(0, 0.35).ry(2, 1.9).t(1).s(3).cnot(4, 2).ry(4, 0.52);
    return c;
}

TEST(ExpectationParityTest, MultiYStringsMatchADenseOracle)
{
    // Terms with several Ys pin the i^{#Y} constant and the sign
    // convention of every native path; the oracle multiplies out the
    // per-character Kronecker product of P against the state.
    const Circuit c = asymmetricFiveQubitCircuit();
    const std::vector<std::string> texts = randomPauliTexts(20, 1234);
    std::size_t multiY = 0;
    for (const std::string& t : texts)
        multiY += std::count(t.begin(), t.end(), 'Y') >= 2;
    ASSERT_GE(multiY, texts.size() / 2);

    const StateVector psi = StateVectorSimulator().simulate(c);
    for (const char* name : kExactBackends) {
        auto session = makeBackend(name)->open(c);
        for (const std::string& text : texts) {
            const Matrix p = densePauli(text);
            Complex oracle{0.0, 0.0};
            for (std::size_t r = 0; r < p.rows(); ++r)
                for (std::size_t col = 0; col < p.cols(); ++col)
                    oracle += std::conj(psi.amplitude(r)) * p(r, col) *
                              psi.amplitude(col);
            PauliSum h;
            h.add(1.0, PauliString(text));
            Rng rng(1);
            const Result r = session->run(Expectation{h, 0}, rng);
            EXPECT_TRUE(r.meta.exact) << name << " <" << text << ">";
            EXPECT_NEAR(r.expectation, oracle.real(), 1e-9)
                << name << " <" << text << ">";
        }
    }

    // Noisy dm: tr(rho P) against the same dense P, under a non-unital
    // channel so the Y terms move away from their ideal values.
    const Circuit noisy =
        c.withNoiseAfterEachGate(NoiseKind::AmplitudeDamping, 0.05);
    const DensityMatrix rho = DensityMatrixSimulator().simulate(noisy);
    auto dm = makeBackend("dm")->open(noisy);
    for (const std::string& text : texts) {
        const Matrix p = densePauli(text);
        Complex oracle{0.0, 0.0};
        for (std::size_t r = 0; r < p.rows(); ++r)
            for (std::size_t col = 0; col < p.cols(); ++col)
                oracle += rho.at(r, col) * p(col, r);
        PauliSum h;
        h.add(1.0, PauliString(text));
        Rng rng(1);
        const Result r = dm->run(Expectation{h, 0}, rng);
        EXPECT_TRUE(r.meta.exact) << "<" << text << ">";
        EXPECT_NEAR(r.expectation, oracle.real(), 1e-9) << "<" << text << ">";
    }
}

TEST(ExpectationParityTest, NoisyDiagonalExpectationExactOnDmAndKc)
{
    // Channels included: dm via tr(rho P), kc via the noise-summed outcome
    // distribution (feasible here: two channels). Both must agree to 1e-9
    // on a diagonal observable.
    Circuit bell(2);
    bell.h(0).cnot(0, 1);
    const Circuit noisy =
        bell.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.03);
    PauliSum h;
    h.add(0.8, PauliString("ZZ")).add(-0.3, PauliString("ZI"));

    const double dm = exactExpectation("dm", noisy, h);
    const double kc = exactExpectation("kc", noisy, h);
    EXPECT_NEAR(dm, kc, 1e-9);

    // And the noise moves the value: it must differ from the ideal one.
    const double ideal = exactExpectation("dm", bell, h);
    EXPECT_GT(std::abs(dm - ideal), 1e-6);
}

TEST(ExpectationParityTest, KcFallsBackToGibbsBeyondTheFeasibilityLimit)
{
    // A heavily-noised VQE circuit has too many noise assignments for the
    // exact AC sweep: the kc session must degrade to Gibbs shots (flagged
    // non-exact) instead of hanging on the enumeration, and the estimate
    // must still land near the exact dm value.
    Rng modelRng(5);
    VqeIsing problem(2, 2, 1, modelRng);
    const Circuit noisy =
        problem.circuit({0.37, 0.81})
            .withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.01);
    const PauliSum h = problem.hamiltonian();

    auto session = makeBackend("kc:burnin=32")->open(noisy);
    Rng rng(31);
    Result r = session->run(Expectation{h, 2048}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_GT(r.meta.fallbackShots, 0u);

    const double reference = exactExpectation("dm", noisy, h);
    double coeffSum = 0.0;
    for (const auto& [coeff, pauli] : h.terms) {
        (void)pauli;
        coeffSum += std::abs(coeff);
    }
    EXPECT_NEAR(r.expectation, reference,
                5.0 * coeffSum / std::sqrt(2048.0) + 0.05);
}

TEST(ExpectationParityTest, SampledEstimatesConvergeWithinCltBounds)
{
    // tn (always sampled) and sv-under-noise (trajectory fallback for the
    // non-diagonal term) must land within 5 sigma of the exact value.
    Rng modelRng(5);
    VqeIsing problem(2, 2, 1, modelRng);
    const Circuit c = problem.circuit({0.37, 0.81});
    const PauliSum h = problem.hamiltonian();
    const double reference = exactExpectation("sv", c, h);

    double coeffSum = 0.0;
    for (const auto& [coeff, pauli] : h.terms) {
        (void)pauli;
        coeffSum += std::abs(coeff);
    }

    const std::size_t shots = 8192;
    // Each term's estimator has variance <= coeff^2 / shots; bound the sum
    // conservatively by (sum |coeff|)^2 / shots.
    const double bound = 5.0 * coeffSum / std::sqrt(double(shots));

    auto session = makeBackend("tn")->open(c);
    Rng rng(23);
    Result r = session->run(Expectation{h, shots}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_GT(r.meta.fallbackShots, 0u);
    EXPECT_NEAR(r.expectation, reference, bound);
}

TEST(ExpectationParityTest, NoisyNonDiagonalFallsBackToShotsOnSv)
{
    // Bell pair + depolarizing noise: <XX> is non-diagonal, so the noisy
    // sv session samples rotated trajectories; the estimate must still
    // track the exact dm value within CLT distance.
    Circuit bell(2);
    bell.h(0).cnot(0, 1);
    const Circuit noisy =
        bell.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.02);
    PauliSum h;
    h.add(1.0, PauliString("XX"));

    const double reference = exactExpectation("dm", noisy, h);

    auto session = makeBackend("sv")->open(noisy);
    Rng rng(29);
    const std::size_t shots = 8192;
    Result r = session->run(Expectation{h, shots}, rng);
    EXPECT_FALSE(r.meta.exact);
    EXPECT_EQ(r.meta.fallbackShots, shots);
    // The rotated-basis fallback runs one Kraus trajectory per shot, and
    // the metadata must account for them.
    EXPECT_EQ(r.meta.trajectories, shots);
    EXPECT_NEAR(r.expectation, reference,
                5.0 / std::sqrt(double(shots)));
}

} // namespace
} // namespace qkc
