#include "densitymatrix/densitymatrix_simulator.h"

#include <gtest/gtest.h>

#include <cstring>

#include "algorithms/algorithms.h"
#include "statevector/statevector_simulator.h"
#include "util/stats.h"
#include "vqa/simulator_api.h"

namespace qkc {
namespace {

TEST(DensityMatrixSimulatorTest, IdealCircuitMatchesStateVector)
{
    // For noise-free circuits, diag(rho) must equal |psi|^2 elementwise.
    StateVectorSimulator svSim;
    DensityMatrixSimulator dmSim;
    std::vector<Circuit> circuits{bellCircuit(), ghzCircuit(4)};
    for (const Circuit& c : circuits) {
        auto svProbs = svSim.simulate(c).probabilities();
        auto dmProbs = dmSim.distribution(c);
        ASSERT_EQ(svProbs.size(), dmProbs.size());
        for (std::size_t i = 0; i < svProbs.size(); ++i)
            EXPECT_NEAR(svProbs[i], dmProbs[i], 1e-10);
    }
}

TEST(DensityMatrixSimulatorTest, MatchesExhaustiveEnumeration)
{
    // Density-matrix evolution and exhaustive Kraus enumeration are both
    // exact; they must agree on arbitrary noisy circuits.
    Circuit c = ghzCircuit(3).withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                     0.05);
    StateVectorSimulator svSim;
    DensityMatrixSimulator dmSim;
    auto enumerated = svSim.noisyDistributionExhaustive(c);
    auto viaRho = dmSim.distribution(c);
    for (std::size_t i = 0; i < enumerated.size(); ++i)
        EXPECT_NEAR(enumerated[i], viaRho[i], 1e-9);
}

TEST(DensityMatrixSimulatorTest, MatchesEnumerationOnDampingChannels)
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::amplitudeDamping(0, 0.3));
    c.cnot(0, 1);
    c.append(NoiseChannel::phaseDamping(1, 0.2));
    c.rx(1, 0.6);

    StateVectorSimulator svSim;
    DensityMatrixSimulator dmSim;
    auto enumerated = svSim.noisyDistributionExhaustive(c);
    auto viaRho = dmSim.distribution(c);
    for (std::size_t i = 0; i < enumerated.size(); ++i)
        EXPECT_NEAR(enumerated[i], viaRho[i], 1e-9);
}

TEST(DensityMatrixSimulatorTest, TraceStaysOneThroughDeepNoisyCircuit)
{
    Circuit c = ghzCircuit(4).withNoiseAfterEachGate(NoiseKind::BitFlip, 0.02);
    DensityMatrixSimulator sim;
    auto rho = sim.simulate(c);
    EXPECT_TRUE(approxEqual(rho.trace(), Complex{1.0}, 1e-9));
}

/** A parameterized noisy circuit for the plan rebind tests. */
Circuit
parameterized(double a, double b)
{
    Circuit c(3);
    c.h(0).rz(1, a).cnot(0, 1).zz(1, 2, b).rx(2, a + b);
    c.append(NoiseChannel::depolarizing(1, 0.03));
    return c;
}

void
expectSameRho(const DensityMatrix& x, const DensityMatrix& y)
{
    ASSERT_EQ(x.dimension(), y.dimension());
    for (std::uint64_t r = 0; r < x.dimension(); ++r)
        for (std::uint64_t cc = 0; cc < x.dimension(); ++cc) {
            EXPECT_EQ(x.at(r, cc).real(), y.at(r, cc).real());
            EXPECT_EQ(x.at(r, cc).imag(), y.at(r, cc).imag());
        }
}

TEST(DmExecutionPlanTest, PlannedExecutionMatchesDirectSimulation)
{
    const Circuit c = parameterized(0.4, -0.9);
    DensityMatrixSimulator sim;
    const DmExecutionPlan plan = planCircuitDm(c, sim.execPolicy());
    expectSameRho(sim.simulatePlanned(plan), sim.simulate(c));
}

TEST(DmExecutionPlanTest, RebindRefreshesValuesWithoutReclassification)
{
    // The ISSUE 5 dm fix: a same-structure rebind replays the fusion recipe
    // and refreshes the compiled superoperator kernels in place; executing
    // the rebound plan must be bit-identical to planning from scratch.
    DensityMatrixSimulator sim;
    DmExecutionPlan plan = planCircuitDm(parameterized(0.4, -0.9),
                                         sim.execPolicy());
    const Circuit next = parameterized(-1.3, 0.2);
    ASSERT_TRUE(tryRebindDmPlan(plan, next));
    expectSameRho(sim.simulatePlanned(plan), sim.simulate(next));
}

TEST(DmExecutionPlanTest, RebindRefusesStructureChange)
{
    DensityMatrixSimulator sim;
    DmExecutionPlan plan = planCircuitDm(parameterized(0.4, -0.9),
                                         sim.execPolicy());
    Circuit different(3);
    different.h(0).h(1).h(2);
    EXPECT_FALSE(tryRebindDmPlan(plan, different));
    Circuit wrongQubits(2);
    wrongQubits.h(0);
    EXPECT_FALSE(tryRebindDmPlan(plan, wrongQubits));
}

TEST(DmExecutionPlanTest, UnfusedPlanAlsoRebinds)
{
    ExecPolicy policy;
    policy.fuseGates = false;
    DensityMatrixSimulator sim(policy);
    DmExecutionPlan plan = planCircuitDm(parameterized(0.1, 0.2), policy);
    const Circuit next = parameterized(0.9, -0.4);
    ASSERT_TRUE(tryRebindDmPlan(plan, next));
    expectSameRho(sim.simulatePlanned(plan), sim.simulate(next));
}

TEST(DensityMatrixSessionTest, OneKernelPerChannelTwoPerGate)
{
    // A gate is a row and a column kernel; a channel is one Liouville
    // kernel however many Kraus operators it has (4 for depolarizing, 16
    // for two-qubit depolarizing). The kernel-class counters of the task
    // profile count every sweep.
    Circuit c(4);
    c.h(0).cnot(0, 1).rz(2, 0.4).zz(1, 3, 0.7).rx(3, 1.1);
    c.append(NoiseChannel::depolarizing(0, 0.05));
    c.append(NoiseChannel::amplitudeDamping(2, 0.1));
    c.append(NoiseChannel::twoQubitDepolarizing(1, 3, 0.02));
    c.cnot(2, 3);
    c.append(NoiseChannel::bitFlip(3, 0.03));
    std::uint64_t gates = 0;
    std::uint64_t channels = 0;
    for (const Operation& op : c.operations())
        ++(std::holds_alternative<Gate>(op) ? gates : channels);

    auto session = makeBackend("dm:fuse=0,obs=1,threads=1")->open(c);
    Rng rng(3);
    const Result r = session->run(Sample{8}, rng);
    std::uint64_t sweeps = 0;
    for (const obs::CounterDelta& d : r.meta.profile.counters)
        for (const char* cls : {"identity", "globalPhase", "diag", "perm",
                                "generic"})
            if (std::strcmp(d.name, (std::string("exec.kernel.") + cls)
                                        .c_str()) == 0)
                sweeps += d.delta;
    EXPECT_EQ(sweeps, 2 * gates + channels);
}

TEST(DensityMatrixSimulatorTest, SamplesFollowDiagonal)
{
    DensityMatrixSimulator sim;
    Rng rng(55);
    Circuit c = noisyBellCircuit(0.36);
    auto samples = sim.sample(c, 20000, rng);
    auto emp = empiricalDistribution(samples, 4);
    EXPECT_NEAR(emp[0], 0.5, 0.02);
    EXPECT_NEAR(emp[3], 0.5, 0.02);
}

} // namespace
} // namespace qkc
