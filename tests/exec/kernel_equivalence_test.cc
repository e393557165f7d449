/**
 * Kernel-equivalence suite (ISSUE 3): every specialized kernel class is
 * cross-checked against the generic dense reference path on randomized
 * states and circuits with fixed seeds, in both serial and forced-parallel
 * execution, and the classifier's verdicts for the gate vocabulary are
 * pinned down so a regression to the generic path is caught.
 */
#include "exec/gate_kernels.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.h"
#include "circuit/gate.h"
#include "circuit/noise.h"
#include "exec/simd.h"
#include "statevector/statevector_simulator.h"
#include "testing/test_circuits.h"
#include "util/rng.h"

namespace qkc {
namespace {

constexpr double kTol = 1e-12;

std::vector<Complex>
randomState(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> amps(std::size_t{1} << n);
    double norm = 0.0;
    for (auto& a : amps) {
        a = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        norm += norm2(a);
    }
    const double inv = 1.0 / std::sqrt(norm);
    for (auto& a : amps)
        a *= inv;
    return amps;
}

ExecPolicy
forcedParallel()
{
    ExecPolicy p;
    p.threads = 4;
    p.serialThreshold = 1;
    p.grain = 32;
    return p;
}

std::vector<std::uint32_t>
bitsFor(const std::vector<std::size_t>& qubits, std::size_t n)
{
    std::vector<std::uint32_t> bits;
    for (std::size_t q : qubits)
        bits.push_back(static_cast<std::uint32_t>(n - 1 - q));
    return bits;
}

void
expectMatchesReference(const Matrix& m, const std::vector<std::size_t>& qubits,
                       std::size_t n, std::uint64_t seed)
{
    const GateKernel kernel = compileKernel(m, bitsFor(qubits, n));
    auto specializedSerial = randomState(n, seed);
    auto specializedParallel = specializedSerial;
    auto reference = specializedSerial;
    const std::uint64_t dim = reference.size();

    applyKernel(kernel, specializedSerial.data(), dim, ExecPolicy{});
    applyKernel(kernel, specializedParallel.data(), dim, forcedParallel());
    applyKernelReference(kernel, reference.data(), dim);

    for (std::uint64_t i = 0; i < dim; ++i) {
        ASSERT_TRUE(approxEqual(specializedSerial[i], reference[i], kTol))
            << "serial kernel " << kernel.className() << " at index " << i;
        // Serial and parallel kernels must agree *bitwise*.
        ASSERT_EQ(specializedSerial[i].real(), specializedParallel[i].real());
        ASSERT_EQ(specializedSerial[i].imag(), specializedParallel[i].imag());
    }

    // And every SIMD dispatch level must agree bitwise with the default.
    for (SimdMode mode : {SimdMode::Off, SimdMode::Avx2, SimdMode::Avx512}) {
        ExecPolicy leveled;
        leveled.simd = mode;
        auto atLevel = randomState(n, seed);
        applyKernel(kernel, atLevel.data(), dim, leveled);
        for (std::uint64_t i = 0; i < dim; ++i) {
            ASSERT_EQ(specializedSerial[i].real(), atLevel[i].real())
                << kernel.className() << " simd="
                << simdLevelName(resolveSimdMode(mode)) << " index " << i;
            ASSERT_EQ(specializedSerial[i].imag(), atLevel[i].imag())
                << kernel.className() << " simd="
                << simdLevelName(resolveSimdMode(mode)) << " index " << i;
        }
    }
}

TEST(KernelClassificationTest, GateVocabularyLandsInSpecializedClasses)
{
    const std::size_t n = 4;
    auto classOf = [&](const Gate& g) {
        return std::string(
            compileKernel(g.unitary(), bitsFor(g.qubits(), n)).className());
    };
    EXPECT_EQ(classOf(Gate(GateKind::I, {0})), "identity");
    EXPECT_EQ(classOf(Gate(GateKind::X, {1})), "perm");
    EXPECT_EQ(classOf(Gate(GateKind::Y, {2})), "perm");
    EXPECT_EQ(classOf(Gate(GateKind::Z, {0})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::S, {0})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::T, {3})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::H, {0})), "generic");
    EXPECT_EQ(classOf(Gate(GateKind::Rx, {0}, 0.7)), "generic");
    EXPECT_EQ(classOf(Gate(GateKind::Rz, {0}, 0.7)), "diag");
    EXPECT_EQ(classOf(Gate(GateKind::PhaseZ, {0}, 0.7)), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::CNOT, {0, 1})), "ctrl-perm");
    EXPECT_EQ(classOf(Gate(GateKind::CZ, {1, 3})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::SWAP, {0, 2})), "perm");
    EXPECT_EQ(classOf(Gate(GateKind::CRz, {0, 1}, 0.4)), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::CPhase, {0, 1}, 0.4)), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::ZZ, {0, 1}, 0.4)), "diag");
    EXPECT_EQ(classOf(Gate(GateKind::CCX, {0, 1, 2})), "ctrl-perm");
    EXPECT_EQ(classOf(Gate(GateKind::CCZ, {0, 1, 2})), "ctrl-diag");
    EXPECT_EQ(classOf(Gate(GateKind::CSWAP, {0, 1, 2})), "ctrl-perm");
}

TEST(KernelClassificationTest, KrausOperatorsClassifyToo)
{
    const std::size_t n = 3;
    // Damping E0 = diag(1, sqrt(1-g)): one controlled diagonal entry.
    const auto damping = NoiseChannel::amplitudeDamping(0, 0.3);
    EXPECT_EQ(std::string(compileKernel(damping.krausOperators()[0],
                                        bitsFor({0}, n))
                              .className()),
              "ctrl-diag");
    // Bit-flip E0 = sqrt(1-p) I: a global phase sweep.
    const auto flip = NoiseChannel::bitFlip(1, 0.2);
    EXPECT_EQ(std::string(
                  compileKernel(flip.krausOperators()[0], bitsFor({1}, n))
                      .className()),
              "phase");
    EXPECT_EQ(std::string(
                  compileKernel(flip.krausOperators()[1], bitsFor({1}, n))
                      .className()),
              "perm");
}

TEST(KernelClassificationTest, ArityIsOneToFourBits)
{
    EXPECT_THROW(compileKernel(Matrix::identity(1), {}),
                 std::invalid_argument);
    EXPECT_THROW(compileKernel(Matrix::identity(32), {0, 1, 2, 3, 4}),
                 std::invalid_argument);
    EXPECT_EQ(compileKernel(Matrix::identity(16), {0, 1, 2, 3}).arity, 4u);

    const auto ops = testing::fourBitOperators();
    const std::vector<std::uint32_t> bits = {7, 2, 5, 0};
    EXPECT_EQ(std::string(compileKernel(ops[0], bits).className()),
              "generic");
    EXPECT_EQ(std::string(compileKernel(ops[1], bits).className()),
              "generic");
    EXPECT_EQ(std::string(compileKernel(ops[2], bits).className()), "diag");
    EXPECT_EQ(std::string(compileKernel(ops[3], bits).className()), "perm");
}

TEST(KernelEquivalenceTest, EveryGateKindMatchesReference)
{
    const std::size_t n = 6;
    std::uint64_t seed = 100;
    const std::vector<Gate> gates = {
        Gate(GateKind::I, {0}),
        Gate(GateKind::X, {1}),
        Gate(GateKind::Y, {5}),
        Gate(GateKind::Z, {2}),
        Gate(GateKind::H, {3}),
        Gate(GateKind::S, {4}),
        Gate(GateKind::Sdg, {0}),
        Gate(GateKind::T, {1}),
        Gate(GateKind::Tdg, {2}),
        Gate(GateKind::Rx, {3}, 0.81),
        Gate(GateKind::Ry, {4}, -1.2),
        Gate(GateKind::Rz, {5}, 2.7),
        Gate(GateKind::PhaseZ, {0}, 0.33),
        Gate(GateKind::CNOT, {0, 4}),
        Gate(GateKind::CNOT, {4, 0}),
        Gate(GateKind::CZ, {2, 5}),
        Gate(GateKind::SWAP, {1, 3}),
        Gate(GateKind::CRz, {5, 2}, 1.9),
        Gate(GateKind::CPhase, {3, 0}, -0.6),
        Gate(GateKind::ZZ, {2, 4}, 0.95),
        Gate(GateKind::CCX, {0, 2, 4}),
        Gate(GateKind::CCX, {5, 3, 1}),
        Gate(GateKind::CCZ, {1, 2, 3}),
        Gate(GateKind::CSWAP, {2, 0, 5}),
    };
    for (const Gate& g : gates) {
        SCOPED_TRACE(g.name());
        expectMatchesReference(g.unitary(), g.qubits(), n, seed++);
    }
}

TEST(KernelEquivalenceTest, RandomCustomUnitariesMatchReference)
{
    const std::size_t n = 5;
    Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        // Random 2x2 unitary from Euler angles.
        const double a = rng.uniform(0.0, 2.0 * M_PI);
        const double b = rng.uniform(0.0, 2.0 * M_PI);
        const double c = rng.uniform(0.0, 2.0 * M_PI);
        const Complex i{0.0, 1.0};
        Matrix u{{std::exp(i * a) * std::cos(c), std::exp(i * b) * std::sin(c)},
                 {-std::exp(-i * b) * std::sin(c),
                  std::exp(-i * a) * std::cos(c)}};
        const std::size_t q = rng.below(n);
        expectMatchesReference(u, {q}, n, 500 + trial);
    }
}

TEST(KernelEquivalenceTest, KrausOperatorsMatchReference)
{
    const std::size_t n = 5;
    std::uint64_t seed = 900;
    const std::vector<NoiseChannel> channels = {
        NoiseChannel::bitFlip(0, 0.25),
        NoiseChannel::phaseFlip(1, 0.1),
        NoiseChannel::depolarizing(2, 0.15),
        NoiseChannel::amplitudeDamping(3, 0.4),
        NoiseChannel::phaseDamping(4, 0.3),
        NoiseChannel::generalizedAmplitudeDamping(0, 0.35, 0.6),
        NoiseChannel::twoQubitDepolarizing(1, 3, 0.2),
    };
    for (const auto& ch : channels) {
        SCOPED_TRACE(ch.name());
        for (const Matrix& e : ch.krausOperators())
            expectMatchesReference(e, ch.qubits(), n, seed++);
    }
}

TEST(KernelEquivalenceTest, FourBitSuperoperatorsMatchReference)
{
    const std::size_t n = 7;
    std::uint64_t seed = 1300;
    const std::vector<std::vector<std::size_t>> placements = {
        {0, 3, 1, 5}, {6, 5, 4, 3}, {0, 1, 2, 3}, {4, 0, 6, 2}};
    for (const Matrix& m : testing::fourBitOperators())
        for (const auto& qubits : placements)
            expectMatchesReference(m, qubits, n, seed++);
}

TEST(KernelEquivalenceTest, PreScaleFoldsIntoOnePass)
{
    const std::size_t n = 5;
    const std::uint64_t dim = std::uint64_t{1} << n;
    const auto damping = NoiseChannel::amplitudeDamping(2, 0.37);
    for (const Matrix& e : damping.krausOperators()) {
        const GateKernel kernel = compileKernel(e, bitsFor({2}, n));
        auto scaled = randomState(n, 42);
        auto twoPass = scaled;

        const double w =
            normAfterKernel(kernel, scaled.data(), dim, ExecPolicy{});
        const Complex s{1.0 / std::sqrt(w), 0.0};
        applyKernel(kernel, scaled.data(), dim, ExecPolicy{}, s);

        applyKernel(kernel, twoPass.data(), dim, ExecPolicy{});
        for (auto& a : twoPass)
            a *= s;

        for (std::uint64_t idx = 0; idx < dim; ++idx)
            ASSERT_TRUE(approxEqual(scaled[idx], twoPass[idx], kTol));

        // And the hoisted application really lands on a unit-norm state.
        double norm = 0.0;
        for (const auto& a : scaled)
            norm += norm2(a);
        EXPECT_NEAR(norm, 1.0, 1e-9);
    }
}

TEST(KernelEquivalenceTest, NormAfterMatchesApplyThenNorm)
{
    const std::size_t n = 6;
    const std::uint64_t dim = std::uint64_t{1} << n;
    const auto ch = NoiseChannel::depolarizing(3, 0.2);
    auto state = randomState(n, 77);
    for (const Matrix& e : ch.krausOperators()) {
        const GateKernel kernel = compileKernel(e, bitsFor({3}, n));
        auto applied = state;
        applyKernel(kernel, applied.data(), dim, ExecPolicy{});
        double expected = 0.0;
        for (const auto& a : applied)
            expected += norm2(a);
        EXPECT_NEAR(normAfterKernel(kernel, state.data(), dim, ExecPolicy{}),
                    expected, 1e-12);
    }
}

TEST(KernelEquivalenceTest, RandomizedCircuitsMatchReferenceEndToEnd)
{
    // Whole random circuits: specialized+parallel execution against the
    // dense reference, amplitude for amplitude.
    const std::size_t n = 6;
    Rng rng(2024);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<GateKernel> kernels;
        for (int g = 0; g < 40; ++g) {
            const int pick = static_cast<int>(rng.below(8));
            std::size_t a = rng.below(n);
            std::size_t b = (a + 1 + rng.below(n - 1)) % n;
            std::size_t c = 0;
            do {
                c = rng.below(n);
            } while (c == a || c == b);
            Gate gate = [&]() {
                switch (pick) {
                  case 0: return Gate(GateKind::H, {a});
                  case 1: return Gate(GateKind::T, {a});
                  case 2: return Gate(GateKind::Rx, {a}, rng.uniform(-3, 3));
                  case 3: return Gate(GateKind::Rz, {a}, rng.uniform(-3, 3));
                  case 4: return Gate(GateKind::CNOT, {a, b});
                  case 5: return Gate(GateKind::CZ, {a, b});
                  case 6: return Gate(GateKind::ZZ, {a, b}, rng.uniform(-3, 3));
                  default: return Gate(GateKind::CCX, {a, b, c});
                }
            }();
            kernels.push_back(
                compileKernel(gate.unitary(), bitsFor(gate.qubits(), n)));
        }

        auto fast = randomState(n, 3000 + trial);
        auto reference = fast;
        const std::uint64_t dim = fast.size();
        for (const auto& k : kernels) {
            applyKernel(k, fast.data(), dim, forcedParallel());
            applyKernelReference(k, reference.data(), dim);
        }
        for (std::uint64_t i = 0; i < dim; ++i)
            ASSERT_TRUE(approxEqual(fast[i], reference[i], 1e-10))
                << "trial " << trial << " index " << i;
    }
}

TEST(KernelRefreshTest, RefreshedKernelMatchesRecompilation)
{
    // The variational fast path: refresh a kernel's payload with a new
    // parameter value and verify it applies identically to a recompiled
    // kernel — for a diag (Rz), a controlled-diag (CRz) and a generic (Rx).
    struct Case {
        GateKind kind;
        std::vector<std::size_t> qubits;
    };
    const Case cases[] = {
        {GateKind::Rz, {1}}, {GateKind::CRz, {0, 2}}, {GateKind::Rx, {2}}};
    for (const Case& c : cases) {
        std::vector<std::uint32_t> bits;
        for (std::size_t q : c.qubits)
            bits.push_back(static_cast<std::uint32_t>(2 - q));
        GateKernel k =
            compileKernel(Gate(c.kind, c.qubits, 0.4).unitary(), bits);
        const GateKernel fresh =
            compileKernel(Gate(c.kind, c.qubits, 1.7).unitary(), bits);
        ASSERT_TRUE(tryRefreshKernel(k, Gate(c.kind, c.qubits, 1.7).unitary()));
        EXPECT_EQ(k.op, fresh.op);
        EXPECT_EQ(k.ctrlMask, fresh.ctrlMask);

        auto state = randomState(3, 99);
        auto viaRefresh = state;
        auto viaCompile = state;
        ExecPolicy serial;
        serial.threads = 1;
        applyKernel(k, viaRefresh.data(), state.size(), serial);
        applyKernel(fresh, viaCompile.data(), state.size(), serial);
        for (std::size_t i = 0; i < state.size(); ++i)
            ASSERT_TRUE(approxEqual(viaRefresh[i], viaCompile[i], kTol));
    }
}

TEST(KernelRefreshTest, RefusesStructuralClassChanges)
{
    const std::vector<std::uint32_t> bit = {0};

    // Rx(2pi) = -I classifies as a global phase; Rx(0.3) is dense — the
    // stored class no longer fits and refresh must refuse.
    GateKernel phase = compileKernel(
        Gate(GateKind::Rx, {0}, 2.0 * 3.14159265358979323846).unitary(), bit);
    EXPECT_EQ(phase.op, GateKernel::Op::GlobalPhase);
    EXPECT_FALSE(
        tryRefreshKernel(phase, Gate(GateKind::Rx, {0}, 0.3).unitary()));

    // A diagonal kernel refuses a dense matrix.
    GateKernel diag =
        compileKernel(Gate(GateKind::Rz, {0}, 0.4).unitary(), bit);
    EXPECT_EQ(diag.op, GateKernel::Op::Diag);
    EXPECT_FALSE(
        tryRefreshKernel(diag, Gate(GateKind::H, {0}).unitary()));

    // A stripped control must still verify: CRz -> CNOT flips the residual
    // class behind the control, CRz -> SWAP breaks the control itself.
    const std::vector<std::uint32_t> pair = {1, 0};
    GateKernel crz =
        compileKernel(Gate(GateKind::CRz, {0, 1}, 0.4).unitary(), pair);
    EXPECT_NE(crz.ctrlMask, 0u);
    EXPECT_FALSE(
        tryRefreshKernel(crz, Gate(GateKind::SWAP, {0, 1}).unitary()));

    // Generic kernels accept anything (the dense fallback is universal).
    GateKernel generic =
        compileKernel(Gate(GateKind::Rx, {0}, 0.3).unitary(), bit);
    EXPECT_EQ(generic.op, GateKernel::Op::Generic);
    EXPECT_TRUE(
        tryRefreshKernel(generic, Gate(GateKind::H, {0}).unitary()));
}

} // namespace
} // namespace qkc
