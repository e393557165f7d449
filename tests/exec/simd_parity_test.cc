/**
 * Scalar-vs-SIMD bit-parity suite (ISSUE 8): the vectorized kernel sweeps
 * must produce *bitwise* identical amplitudes at every dispatch level and
 * thread count — the SIMD lanes evaluate the exact same four-product
 * complex arithmetic as the scalar path, with no FMA contraction. The
 * suite sweeps randomized circuits over every supported level, tail-sized
 * runs, odd control masks and stride-boundary targets, and pins the
 * blocked sweep against the gather-only path.
 */
#include "exec/gate_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuit/gate.h"
#include "exec/simd.h"
#include "linalg/aligned.h"
#include "testing/test_circuits.h"
#include "util/rng.h"

namespace qkc {
namespace {

AmpVector
randomState(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    AmpVector amps(std::size_t{1} << n);
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

std::vector<std::uint32_t>
bitsFor(const std::vector<std::size_t>& qubits, std::size_t n)
{
    std::vector<std::uint32_t> bits;
    for (std::size_t q : qubits)
        bits.push_back(static_cast<std::uint32_t>(n - 1 - q));
    return bits;
}

/** The SIMD modes whose resolved level is actually distinct on this host. */
std::vector<SimdMode>
distinctModes()
{
    std::vector<SimdMode> modes = {SimdMode::Off};
    if (activeSimdLevel() >= SimdLevel::Avx2)
        modes.push_back(SimdMode::Avx2);
    if (activeSimdLevel() >= SimdLevel::Avx512)
        modes.push_back(SimdMode::Avx512);
    return modes;
}

ExecPolicy
policyFor(SimdMode mode, int threads)
{
    ExecPolicy p;
    p.simd = mode;
    p.threads = threads;
    if (threads > 1) {
        p.serialThreshold = 1;
        p.grain = 32;
    }
    return p;
}

/**
 * Applies `kernel` under every distinct simd level at threads {1, 4} and
 * asserts every payload is bitwise identical to the scalar single-thread
 * result.
 */
void
expectBitParity(const GateKernel& kernel, std::size_t n, std::uint64_t seed)
{
    const AmpVector input = randomState(n, seed);
    const std::uint64_t dim = input.size();

    AmpVector baseline = input;
    applyKernel(kernel, baseline.data(), dim, policyFor(SimdMode::Off, 1));

    for (SimdMode mode : distinctModes()) {
        for (int threads : {1, 4}) {
            AmpVector out = input;
            applyKernel(kernel, out.data(), dim, policyFor(mode, threads));
            for (std::uint64_t i = 0; i < dim; ++i) {
                ASSERT_EQ(baseline[i].real(), out[i].real())
                    << kernel.className() << " simd="
                    << simdLevelName(resolveSimdMode(mode)) << " threads="
                    << threads << " index " << i;
                ASSERT_EQ(baseline[i].imag(), out[i].imag())
                    << kernel.className() << " simd="
                    << simdLevelName(resolveSimdMode(mode)) << " threads="
                    << threads << " index " << i;
            }
        }
    }
}

GateKernel
kernelFor(const Gate& g, std::size_t n)
{
    return compileKernel(g.unitary(), bitsFor(g.qubits(), n));
}

TEST(SimdDispatchTest, ResolutionClampsToHostCeiling)
{
    // Auto resolves to the active level; explicit requests never exceed it.
    EXPECT_EQ(resolveSimdMode(SimdMode::Auto), activeSimdLevel());
    EXPECT_EQ(resolveSimdMode(SimdMode::Off), SimdLevel::Scalar);
    EXPECT_LE(resolveSimdMode(SimdMode::Avx2), activeSimdLevel());
    EXPECT_LE(resolveSimdMode(SimdMode::Avx512), activeSimdLevel());
    if (activeSimdLevel() >= SimdLevel::Avx2) {
        EXPECT_EQ(resolveSimdMode(SimdMode::Avx2), SimdLevel::Avx2);
    }

    SimdMode mode = SimdMode::Auto;
    EXPECT_TRUE(parseSimdMode("off", &mode));
    EXPECT_EQ(mode, SimdMode::Off);
    EXPECT_TRUE(parseSimdMode("avx2", &mode));
    EXPECT_EQ(mode, SimdMode::Avx2);
    EXPECT_TRUE(parseSimdMode("avx512", &mode));
    EXPECT_EQ(mode, SimdMode::Avx512);
    EXPECT_TRUE(parseSimdMode("auto", &mode));
    EXPECT_EQ(mode, SimdMode::Auto);
    EXPECT_FALSE(parseSimdMode("sse9", &mode));
}

TEST(SimdParityTest, KernelClassesAreBitIdenticalAcrossLevels)
{
    const std::size_t n = 8;
    std::uint64_t seed = 4000;
    const std::vector<Gate> gates = {
        Gate(GateKind::Rz, {3}, 0.77),          // diag, 1 target
        Gate(GateKind::ZZ, {2, 5}, 1.3),        // diag, 2 targets
        Gate(GateKind::CZ, {1, 6}),             // ctrl-diag, 0 targets
        Gate(GateKind::X, {4}),                 // perm (swap)
        Gate(GateKind::Y, {2}),                 // perm with weights
        Gate(GateKind::SWAP, {1, 5}),           // perm, 2 targets
        Gate(GateKind::H, {3}),                 // generic, 1 target
        Gate(GateKind::Rx, {6}, -0.9),          // generic, 1 target
        Gate(GateKind::CNOT, {2, 4}),           // ctrl-perm
        Gate(GateKind::CRz, {5, 1}, 2.1),       // ctrl-diag, 1 target
        Gate(GateKind::CCX, {0, 3, 6}),         // ctrl-perm, 2 controls
        Gate(GateKind::CCZ, {1, 4, 7}),         // ctrl-diag, 0 targets
    };
    for (const Gate& g : gates) {
        SCOPED_TRACE(g.name());
        expectBitParity(kernelFor(g, n), n, seed++);
    }
}

TEST(SimdParityTest, TailRunsAndStrideBoundaryTargets)
{
    // Run length is 2^(lowest residual bit): bit 0 gives length-1 runs
    // (gather path), bit 1 gives length-2 runs (a pure tail for the 4-wide
    // AVX-512 loop), bit 2 length-4, and the top bit one maximal run. All
    // must agree bitwise with scalar.
    const std::size_t n = 7; // odd qubit count, dim 128
    std::uint64_t seed = 5000;
    for (std::size_t q = 0; q < n; ++q) {
        SCOPED_TRACE("H target " + std::to_string(q));
        expectBitParity(kernelFor(Gate(GateKind::H, {q}), n), n, seed++);
        SCOPED_TRACE("Rz target " + std::to_string(q));
        expectBitParity(kernelFor(Gate(GateKind::Rz, {q}, 0.31), n), n,
                        seed++);
        SCOPED_TRACE("X target " + std::to_string(q));
        expectBitParity(kernelFor(Gate(GateKind::X, {q}), n), n, seed++);
    }
}

TEST(SimdParityTest, OddControlMasksAreBitIdentical)
{
    // Controls scattered across the index word: the residual sweep walks a
    // strided subcube whose base expansion must not disturb parity.
    const std::size_t n = 9;
    std::uint64_t seed = 6000;
    const std::vector<Gate> gates = {
        Gate(GateKind::CNOT, {0, 8}),
        Gate(GateKind::CNOT, {8, 0}),
        Gate(GateKind::CCX, {1, 7, 4}),
        Gate(GateKind::CCX, {6, 2, 8}),
        Gate(GateKind::CCZ, {0, 4, 8}),
        Gate(GateKind::CRz, {3, 5}, -1.7),
        Gate(GateKind::CSWAP, {4, 1, 7}),
        Gate(GateKind::CPhase, {2, 6}, 0.55),
    };
    for (const Gate& g : gates) {
        SCOPED_TRACE(g.name());
        expectBitParity(kernelFor(g, n), n, seed++);
    }
}

TEST(SimdParityTest, FourBitSuperoperatorsAreBitIdentical)
{
    const std::size_t n = 9;
    std::uint64_t seed = 6500;
    const std::vector<std::vector<std::size_t>> placements = {
        {0, 4, 1, 5}, {8, 7, 6, 5}, {0, 1, 2, 3}, {6, 0, 8, 2}};
    for (const Matrix& m : testing::fourBitOperators())
        for (const auto& qubits : placements)
            expectBitParity(compileKernel(m, bitsFor(qubits, n)), n, seed++);
}

TEST(SimdParityTest, RandomizedCircuitsAreBitIdenticalEndToEnd)
{
    // Whole circuits: the accumulated state after dozens of kernels must
    // still be bitwise identical across levels and thread counts.
    const std::size_t n = 7;
    Rng rng(8123);
    for (int trial = 0; trial < 4; ++trial) {
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
            kernels.push_back(kernelFor(gate, n));
        }

        const AmpVector input = randomState(n, 9000 + trial);
        const std::uint64_t dim = input.size();
        AmpVector baseline = input;
        for (const auto& k : kernels)
            applyKernel(k, baseline.data(), dim, policyFor(SimdMode::Off, 1));

        for (SimdMode mode : distinctModes()) {
            for (int threads : {1, 4}) {
                AmpVector out = input;
                for (const auto& k : kernels)
                    applyKernel(k, out.data(), dim, policyFor(mode, threads));
                for (std::uint64_t i = 0; i < dim; ++i) {
                    ASSERT_EQ(baseline[i].real(), out[i].real())
                        << "trial " << trial << " simd="
                        << simdLevelName(resolveSimdMode(mode)) << " threads="
                        << threads << " index " << i;
                    ASSERT_EQ(baseline[i].imag(), out[i].imag())
                        << "trial " << trial << " index " << i;
                }
            }
        }
    }
}

TEST(SimdParityTest, BlockedSweepMatchesGatherSweepBitwise)
{
    // The cache-blocked run sweep and the PR 7 gather-only sweep evaluate
    // the same arithmetic in the same association — bitwise equal at every
    // level, including a pre-scale.
    const std::size_t n = 8;
    std::uint64_t seed = 7000;
    const std::vector<Gate> gates = {
        Gate(GateKind::H, {2}),
        Gate(GateKind::Rz, {5}, 0.9),
        Gate(GateKind::ZZ, {3, 6}, -0.4),
        Gate(GateKind::X, {4}),
        Gate(GateKind::CNOT, {1, 6}),
        Gate(GateKind::CZ, {2, 7}),
    };
    const Complex preScale{0.8, -0.15};
    for (const Gate& g : gates) {
        SCOPED_TRACE(g.name());
        const GateKernel kernel = kernelFor(g, n);
        const AmpVector input = randomState(n, seed++);
        const std::uint64_t dim = input.size();
        for (SimdMode mode : distinctModes()) {
            AmpVector blocked = input;
            AmpVector gathered = input;
            applyKernel(kernel, blocked.data(), dim, policyFor(mode, 1),
                        preScale);
            applyKernelUnblocked(kernel, gathered.data(), dim,
                                 policyFor(mode, 1), preScale);
            for (std::uint64_t i = 0; i < dim; ++i) {
                ASSERT_EQ(blocked[i].real(), gathered[i].real())
                    << g.name() << " simd="
                    << simdLevelName(resolveSimdMode(mode)) << " index " << i;
                ASSERT_EQ(blocked[i].imag(), gathered[i].imag())
                    << g.name() << " index " << i;
            }
        }
    }
}

} // namespace
} // namespace qkc
