/**
 * Memory-lifecycle tests for the QMDD package (ISSUE 6): reference counts,
 * protected roots, mark-and-sweep collection with free-list reuse,
 * compute-table coherence across sweeps, and the session-level guarantees —
 * aggressive GC never changes payloads, and long noisy runs keep the live
 * node count bounded.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "circuit/gate.h"
#include "dd/dd_package.h"
#include "vqa/simulator_api.h"

namespace qkc {
namespace {

/** Builds the n-qubit GHZ state with H + a CNOT ladder. */
VEdge
makeGhz(DdPackage& pkg, std::size_t n)
{
    VEdge state = pkg.makeZeroState();
    state = pkg.apply(
        pkg.makeGateDd(Gate(GateKind::H, {0}).unitary(), {0}), state);
    for (std::size_t q = 1; q < n; ++q) {
        state = pkg.apply(pkg.makeGateDd(
                              Gate(GateKind::CNOT, {q - 1, q}).unitary(),
                              {q - 1, q}),
                          state);
    }
    return state;
}

/** Collects every vector node reachable from `state`. */
std::unordered_set<const VNode*>
reachable(const VEdge& state)
{
    std::unordered_set<const VNode*> seen;
    std::vector<const VNode*> stack;
    if (state.node != nullptr)
        stack.push_back(state.node);
    while (!stack.empty()) {
        const VNode* n = stack.back();
        stack.pop_back();
        if (!seen.insert(n).second)
            continue;
        for (const VEdge& c : n->children)
            if (c.node != nullptr)
                stack.push_back(c.node);
    }
    return seen;
}

TEST(DdGcTest, UnreachableNodesAreCollectedAndReused)
{
    DdPackage pkg(6);
    VEdge ghz = makeGhz(pkg, 6);
    const auto deadNodes = reachable(ghz);
    const std::size_t liveBefore = pkg.stats().liveVNodes;
    const std::size_t allocatedBefore = pkg.stats().allocatedVNodes;
    ASSERT_GT(liveBefore, 0u);

    // Nothing is protected: a sweep evicts every node (vector and matrix).
    const std::size_t collected = pkg.garbageCollect();
    EXPECT_GE(collected, liveBefore);
    EXPECT_EQ(pkg.stats().liveVNodes, 0u);
    EXPECT_EQ(pkg.stats().liveMNodes, 0u);
    EXPECT_EQ(pkg.stats().gcRuns, 1u);
    EXPECT_EQ(pkg.stats().nodesCollected, collected);
    // Lifetime allocation counters never decrease.
    EXPECT_EQ(pkg.stats().allocatedVNodes, allocatedBefore);

    // Rebuilding recycles collected arena slots through the free list: at
    // least one new node must land on an address the dead diagram used,
    // and the arena must not have grown.
    VEdge again = makeGhz(pkg, 6);
    bool reused = false;
    for (const VNode* n : reachable(again))
        reused |= deadNodes.count(n) > 0;
    EXPECT_TRUE(reused);
    EXPECT_EQ(pkg.stats().liveVNodes, liveBefore);

    // Rebuilt contents are intact.
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(pkg.amplitude(again, 0).real(), r, 1e-12);
    EXPECT_NEAR(pkg.amplitude(again, 63).real(), r, 1e-12);
}

TEST(DdGcTest, ProtectedRootsAndDescendantsSurviveSweeps)
{
    DdPackage pkg(5);
    VEdge ghz = makeGhz(pkg, 5);
    pkg.protect(ghz);
    EXPECT_EQ(pkg.protectedRootCount(), 1u);

    // Everything NOT reachable from the root dies; the root's own chain —
    // all 2n-1 nodes — survives with its amplitudes intact.
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, pkg.nodeCount(ghz));
    EXPECT_EQ(pkg.stats().liveVNodes, 2u * 5u - 1u);
    const double r = 1.0 / std::sqrt(2.0);
    EXPECT_NEAR(pkg.amplitude(ghz, 0).real(), r, 1e-12);
    EXPECT_NEAR(pkg.amplitude(ghz, 31).real(), r, 1e-12);
    EXPECT_NEAR(pkg.normSquared(ghz), 1.0, 1e-12);

    // Double protection is multiset-like: two unprotects to release.
    pkg.protect(ghz);
    pkg.unprotect(ghz);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, 2u * 5u - 1u);
    pkg.unprotect(ghz);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, 0u);

    // Unprotecting an unregistered edge is a logic error, not a crash.
    EXPECT_THROW(pkg.unprotect(ghz), std::logic_error);
}

TEST(DdGcTest, ReferenceCountsKeepNodesAliveWithoutRoots)
{
    DdPackage pkg(4);
    VEdge state = makeGhz(pkg, 4);
    pkg.incRef(state);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, pkg.nodeCount(state));
    EXPECT_NEAR(pkg.normSquared(state), 1.0, 1e-12);

    pkg.decRef(state);
    pkg.garbageCollect();
    EXPECT_EQ(pkg.stats().liveVNodes, 0u);
    EXPECT_THROW(pkg.decRef(state), std::logic_error);
}

TEST(DdGcTest, ComputeTablesStayCoherentAcrossCollection)
{
    DdPackage pkg(5);
    VEdge state = makeGhz(pkg, 5);
    pkg.protect(state);
    MEdge h2 = pkg.makeGateDd(Gate(GateKind::H, {2}).unitary(), {2});
    pkg.protect(h2);

    VEdge before = pkg.apply(h2, state);
    std::vector<Complex> amps;
    for (std::uint64_t x = 0; x < 32; ++x)
        amps.push_back(pkg.amplitude(before, x));

    // The sweep drops the memo tables (they key on raw node pointers and
    // collected addresses get recycled). The same apply must recompute —
    // misses strictly up — and yield identical amplitudes.
    pkg.garbageCollect();
    const std::size_t missesAfterGc = pkg.stats().applyMisses;
    VEdge after = pkg.apply(h2, state);
    EXPECT_GT(pkg.stats().applyMisses, missesAfterGc);
    for (std::uint64_t x = 0; x < 32; ++x) {
        EXPECT_EQ(pkg.amplitude(after, x).real(), amps[x].real()) << x;
        EXPECT_EQ(pkg.amplitude(after, x).imag(), amps[x].imag()) << x;
    }
}

TEST(DdGcTest, SweepReclaimsInternedWeights)
{
    DdPackage pkg(4);
    VEdge state = pkg.makeZeroState();
    for (int k = 0; k < 8; ++k) {
        state = pkg.apply(pkg.makeGateDd(
                              Gate(GateKind::Ry, {static_cast<std::size_t>(
                                                     k % 4)},
                                   0.1 + 0.2 * k)
                                  .unitary(),
                              {static_cast<std::size_t>(k % 4)}),
                          state);
    }
    const std::size_t weightsBefore = pkg.internedWeightCount();
    pkg.garbageCollect();
    // Nothing was protected: only the table-independent residue (if any)
    // may remain, so the interned count must shrink.
    EXPECT_LT(pkg.internedWeightCount(), weightsBefore);
}

TEST(DdGcTest, ThresholdTriggerAndKnobValidation)
{
    DdPackage pkg(4);
    pkg.setGcThreshold(4);
    EXPECT_EQ(pkg.gcThreshold(), 4u);

    VEdge ghz = makeGhz(pkg, 4); // well past 4 live nodes
    EXPECT_TRUE(pkg.maybeGarbageCollect());
    EXPECT_EQ(pkg.stats().gcRuns, 1u);
    (void)ghz; // dead after the sweep by design

    EXPECT_THROW(pkg.setGcThreshold(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Session-level guarantees
// ---------------------------------------------------------------------------

Circuit
layeredAnsatz(std::size_t n, double theta)
{
    Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t q = 0; q + 1 < n; ++q) {
        c.cnot(q, q + 1);
        c.rz(q + 1, theta + 0.1 * static_cast<double>(q));
    }
    for (std::size_t q = 0; q < n; ++q)
        c.rx(q, 0.4 + 0.05 * static_cast<double>(q));
    return c;
}

/** A collection threshold (2^30 live nodes) these tests never reach. */
const char* const kNeverCollect = "dd:gcthreshold=1073741824";

/** Runs one task on a fresh session of `spec` with a fixed-seed RNG. */
Result
runOnce(const std::string& spec, const Circuit& c, const Task& task,
        std::uint64_t seed)
{
    auto backend = makeBackend(spec);
    auto session = backend->open(c);
    Rng rng(seed);
    return session->run(task, rng);
}

TEST(DdGcTest, AggressiveGcSamplingIsBitIdenticalToGcOff)
{
    // gcthreshold=1 collects at every safe point; payloads must not move a
    // bit relative to a threshold these runs never reach (no collection
    // but the per-bind sweep), ideal and noisy alike.
    const Circuit ideal = layeredAnsatz(5, 0.3);
    const Circuit noisy =
        layeredAnsatz(4, 0.7).withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                     0.02);
    for (std::uint64_t seed : {7u, 42u, 1234u}) {
        const Result aggressive =
            runOnce("dd:gcthreshold=1", ideal, Sample{256}, seed);
        const Result off = runOnce(kNeverCollect, ideal, Sample{256}, seed);
        EXPECT_EQ(aggressive.samples, off.samples) << "ideal seed=" << seed;

        const Result aggressiveNoisy =
            runOnce("dd:gcthreshold=1", noisy, Sample{128}, seed);
        const Result offNoisy =
            runOnce(kNeverCollect, noisy, Sample{128}, seed);
        EXPECT_EQ(aggressiveNoisy.samples, offNoisy.samples)
            << "noisy seed=" << seed;
        EXPECT_GT(aggressiveNoisy.meta.ddMemory.gcRuns, 0u);
        EXPECT_EQ(offNoisy.meta.ddMemory.gcRuns, 0u);
    }
}

TEST(DdGcTest, ExpectationMatchesAcrossLifecycles)
{
    const Circuit c = layeredAnsatz(5, 0.9);
    PauliSum h;
    h.add(0.5, PauliString("ZZIII"))
        .add(-0.25, PauliString("IXXII"))
        .add(1.5, PauliString("IIIYZ"));
    const Result a = runOnce("dd:gcthreshold=1", c, Expectation{h}, 3);
    const Result b = runOnce(kNeverCollect, c, Expectation{h}, 3);
    EXPECT_TRUE(a.meta.exact);
    EXPECT_NEAR(a.expectation, b.expectation, 1e-12);
}

TEST(DdGcTest, RebindKeepsOnePackageAndCollectsTheOldState)
{
    // The tentpole behavior: with GC on, a variational sweep reuses one
    // package — planReuses grows, live nodes stay bounded by one binding's
    // working set, and collections actually happen.
    auto backend = makeBackend("dd");
    auto session = backend->open(layeredAnsatz(5, 0.0));
    Rng rng(9);

    Result last;
    for (int i = 0; i < 12; ++i) {
        session->bind(layeredAnsatz(5, 0.1 * i));
        last = session->run(Probabilities{}, rng);
    }
    EXPECT_GT(last.meta.planReuses, 0u);
    EXPECT_GT(last.meta.ddMemory.gcRuns, 0u);
    EXPECT_GT(last.meta.ddMemory.nodesCollected, 0u);
    // Live nodes at rest reflect one binding, not twelve: the peak must be
    // far below 12x the final live count's order.
    EXPECT_LT(last.meta.ddMemory.liveVNodes + last.meta.ddMemory.liveMNodes,
              200u);

    // And the sweep is correct: last binding's distribution matches a
    // fresh session of the same circuit.
    const Result fresh =
        runOnce("dd", layeredAnsatz(5, 1.1), Probabilities{}, 9);
    ASSERT_EQ(last.probabilities.size(), fresh.probabilities.size());
    for (std::size_t k = 0; k < fresh.probabilities.size(); ++k)
        EXPECT_NEAR(last.probabilities[k], fresh.probabilities[k], 1e-12);
}

TEST(DdGcTest, LongNoisyRunKeepsLiveNodesBounded)
{
    // The regression the ISSUE names: >= 5k trajectories on a noisy circuit
    // must not grow the arena without bound. With a small threshold the
    // collector runs many times and the high-water mark stays near one
    // trajectory's working set — far below the no-GC node total.
    const Circuit noisy =
        layeredAnsatz(4, 0.5).withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                     0.01);
    auto backend = makeBackend("dd:gcthreshold=256");
    auto session = backend->open(noisy);
    Rng rng(21);
    const Result r = session->run(Sample{5000}, rng);

    EXPECT_EQ(r.samples.size(), 5000u);
    EXPECT_EQ(r.meta.trajectories, 5000u);
    EXPECT_GT(r.meta.ddMemory.gcRuns, 10u);
    EXPECT_GT(r.meta.ddMemory.nodesCollected, r.meta.ddMemory.peakLiveNodes);
    // Anti-thrash growth can raise the threshold past its floor, but the
    // peak must stay within a small multiple of it — bounded, not linear
    // in trajectories.
    EXPECT_LT(r.meta.ddMemory.peakLiveNodes, 2048u);
}

} // namespace
} // namespace qkc
