#include "statevector/statevector_simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace qkc {

StateVector
StateVectorSimulator::simulate(const Circuit& circuit) const
{
    if (circuit.noiseCount() > 0) {
        throw std::invalid_argument(
            "StateVectorSimulator::simulate: circuit has noise; use "
            "simulateTrajectory");
    }
    return simulatePlanned(planCircuit(circuit, policy_));
}

StateVector
StateVectorSimulator::simulatePlanned(const ExecutionPlan& plan) const
{
    StateVector sv(plan.numQubits);
    simulatePlanned(plan, sv);
    return sv;
}

void
StateVectorSimulator::simulatePlanned(const ExecutionPlan& plan,
                                      StateVector& state) const
{
    if (state.numQubits() != plan.numQubits)
        throw std::invalid_argument(
            "StateVectorSimulator::simulatePlanned: state width differs "
            "from the plan");
    state.resetToZero();
    state.setExecPolicy(policy_);
    for (const auto& op : plan.ops) {
        if (op.isChannel) {
            throw std::invalid_argument(
                "StateVectorSimulator::simulatePlanned: plan has channels; "
                "use sampleNoisyPlanned");
        }
        state.apply(op.gate);
    }
}

StateVector
StateVectorSimulator::runTrajectory(const ExecutionPlan& plan, Rng& rng,
                                    const ExecPolicy& statePolicy) const
{
    StateVector sv(plan.numQubits);
    sv.setExecPolicy(statePolicy);
    std::vector<double> weights;
    for (const auto& op : plan.ops) {
        if (!op.isChannel) {
            sv.apply(op.gate);
            continue;
        }
        // Born-rule Kraus selection: p_k = ||E_k psi||^2, computed by a
        // read-only norm kernel (no state copies). The 1/sqrt(w) that used
        // to be a separate normalize() pass is folded into the selected
        // operator's application.
        weights.resize(op.kraus.size());
        for (std::size_t k = 0; k < op.kraus.size(); ++k)
            weights[k] = sv.normAfter(op.kraus[k]);
        const std::size_t pick = rng.categorical(weights);
        if (weights[pick] > 0.0)
            sv.apply(op.kraus[pick],
                     Complex{1.0 / std::sqrt(weights[pick]), 0.0});
        else
            sv.apply(op.kraus[pick]);
    }
    return sv;
}

StateVector
StateVectorSimulator::simulateTrajectory(const Circuit& circuit, Rng& rng) const
{
    const ExecutionPlan plan = planCircuit(circuit, policy_);
    return runTrajectory(plan, rng, policy_);
}

std::vector<std::uint64_t>
StateVectorSimulator::sample(const Circuit& circuit, std::size_t numSamples,
                             Rng& rng) const
{
    StateVector sv = simulate(circuit);
    return sampleFromDistribution(sv.probabilities(), numSamples, rng);
}

std::vector<std::uint64_t>
StateVectorSimulator::sampleNoisy(const Circuit& circuit,
                                  std::size_t numSamples, Rng& rng) const
{
    return sampleNoisyPlanned(planCircuit(circuit, policy_), numSamples, rng);
}

std::vector<std::uint64_t>
StateVectorSimulator::sampleNoisyPlanned(const ExecutionPlan& plan,
                                         std::size_t numSamples,
                                         Rng& rng) const
{
    if (numSamples == 0)
        return {};

    // Independent per-trajectory RNG streams, seeded from the caller's
    // generator *before* any parallel work: the seed sequence — and with it
    // every trajectory and sample — is identical for every thread count.
    std::vector<std::uint64_t> seeds(numSamples);
    for (auto& s : seeds)
        s = rng.next();

    // Parallelism lives at the trajectory level: each trajectory runs its
    // amplitude sweeps serially (statePolicy.threads = 1) and results land
    // at their trajectory index, i.e. merged in trajectory order.
    ExecPolicy statePolicy = policy_;
    if (numSamples > 1)
        statePolicy.threads = 1;
    ExecPolicy trajPolicy = policy_;
    trajPolicy.serialThreshold = 1;
    trajPolicy.grain = 1;

    std::vector<std::uint64_t> samples(numSamples);
    parallelFor(trajPolicy, numSamples,
                [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
            Rng trajectoryRng(seeds[i]);
            StateVector sv = runTrajectory(plan, trajectoryRng, statePolicy);
            auto one = sampleFromDistribution(sv.probabilities(), 1,
                                              trajectoryRng);
            samples[i] = one[0];
        }
    });
    return samples;
}

std::vector<double>
StateVectorSimulator::noisyDistributionExhaustive(const Circuit& circuit) const
{
    // Collect channel positions so we can enumerate Kraus-choice vectors.
    const ExecutionPlan plan = planCircuit(circuit, policy_);
    std::vector<std::size_t> channelOps;
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        if (plan.ops[i].isChannel)
            channelOps.push_back(i);
    }
    if (channelOps.size() > 20) {
        throw std::invalid_argument(
            "noisyDistributionExhaustive: too many channels to enumerate");
    }

    std::vector<double> dist(std::size_t{1} << circuit.numQubits(), 0.0);
    std::vector<std::size_t> choice(channelOps.size(), 0);

    // Odometer-style enumeration over all Kraus index combinations. Each
    // combination is one unnormalized branch; its squared amplitudes already
    // carry the branch probability, so plain accumulation is exact.
    for (;;) {
        StateVector sv(circuit.numQubits());
        sv.setExecPolicy(policy_);
        std::size_t chIdx = 0;
        for (const auto& op : plan.ops) {
            if (!op.isChannel) {
                sv.apply(op.gate);
            } else {
                sv.apply(op.kraus[choice[chIdx]]);
                ++chIdx;
            }
        }
        const auto probs = sv.probabilities();
        for (std::size_t i = 0; i < dist.size(); ++i)
            dist[i] += probs[i];

        // Advance the odometer.
        std::size_t pos = 0;
        for (; pos < choice.size(); ++pos) {
            if (++choice[pos] < plan.ops[channelOps[pos]].kraus.size())
                break;
            choice[pos] = 0;
        }
        if (pos == choice.size())
            break;
        if (choice.empty())
            break;
    }
    return dist;
}

std::vector<std::uint64_t>
StateVectorSimulator::sampleFromDistribution(const std::vector<double>& probs,
                                             std::size_t numSamples, Rng& rng)
{
    std::vector<double> cdf(probs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += probs[i];
        cdf[i] = acc;
    }
    assert(acc > 0.0);

    std::vector<std::uint64_t> samples;
    samples.reserve(numSamples);
    for (std::size_t s = 0; s < numSamples; ++s) {
        double r = rng.uniform() * acc;
        auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        std::size_t idx = static_cast<std::size_t>(it - cdf.begin());
        if (idx >= probs.size())
            idx = probs.size() - 1;
        samples.push_back(idx);
    }
    return samples;
}

} // namespace qkc
