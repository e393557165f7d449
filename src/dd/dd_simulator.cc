#include "dd/dd_simulator.h"

#include <stdexcept>

namespace qkc {

DdPackage&
DdSimulator::packageFor(const Circuit& circuit)
{
    if (!pkg_ || pkg_->numQubits() != circuit.numQubits()) {
        pkg_ = std::make_unique<DdPackage>(circuit.numQubits());
        pkg_->setGcThreshold(gcThreshold_);
        fixedGateDds_.clear(); // roots died with the old package
    }
    return *pkg_;
}

MEdge
DdSimulator::gateDd(const Gate& gate)
{
    if (gate.isParameterized())
        return pkg_->makeGateDd(gate.unitary(), gate.qubits());
    const auto key =
        std::make_pair(static_cast<int>(gate.kind()), gate.qubits());
    auto it = fixedGateDds_.find(key);
    if (it == fixedGateDds_.end()) {
        const MEdge dd = pkg_->makeGateDd(gate.unitary(), gate.qubits());
        pkg_->protect(dd);
        it = fixedGateDds_.emplace(key, dd).first;
    }
    return it->second;
}

/**
 * Lowers every operation once: gates become a single matrix DD, channels
 * one matrix DD per Kraus operator. Trajectories then only pay multiply
 * cost, and the shared unique table (plus the fixed-gate cache) dedups
 * identical gates across the whole circuit.
 */
std::vector<std::vector<MEdge>>
DdSimulator::lowerOperations(const Circuit& circuit)
{
    std::vector<std::vector<MEdge>> lowered;
    lowered.reserve(circuit.size());
    for (const auto& op : circuit.operations()) {
        if (const Gate* g = std::get_if<Gate>(&op)) {
            lowered.push_back({gateDd(*g)});
            continue;
        }
        const auto& ch = std::get<NoiseChannel>(op);
        std::vector<MEdge> kraus;
        kraus.reserve(ch.krausOperators().size());
        for (const Matrix& e : ch.krausOperators())
            kraus.push_back(pkg_->makeGateDd(e, ch.qubits()));
        lowered.push_back(std::move(kraus));
    }
    return lowered;
}

DdPackage&
DdSimulator::package()
{
    if (!pkg_)
        throw std::logic_error("DdSimulator::package: nothing simulated yet");
    return *pkg_;
}

VEdge
DdSimulator::simulate(const Circuit& circuit)
{
    DdPackage& pkg = packageFor(circuit);
    VEdge state = pkg.makeZeroState();
    for (const auto& op : circuit.operations()) {
        const Gate* g = std::get_if<Gate>(&op);
        if (!g) {
            throw std::invalid_argument(
                "DdSimulator::simulate: circuit has noise; use "
                "simulateTrajectory");
        }
        state = pkg.apply(gateDd(*g), state);
    }
    return state;
}

VEdge
DdSimulator::applyKrausSampled(const std::vector<MEdge>& krausDds, VEdge state,
                               Rng& rng)
{
    // Born-rule Kraus selection: p_k = ||E_k psi||^2, which the per-node
    // normalization invariant exposes as the squared root weight.
    std::vector<VEdge> candidates;
    std::vector<double> weights;
    candidates.reserve(krausDds.size());
    weights.reserve(krausDds.size());
    for (const MEdge& e : krausDds) {
        VEdge cand = pkg_->apply(e, state);
        weights.push_back(cand.isZero() ? 0.0 : pkg_->normSquared(cand));
        candidates.push_back(cand);
    }
    const std::size_t pick = rng.categorical(weights);
    if (weights[pick] <= 0.0)
        throw std::logic_error("DdSimulator: selected zero-probability Kraus "
                               "branch");
    return pkg_->normalized(candidates[pick]);
}

VEdge
DdSimulator::runTrajectory(const Circuit& circuit,
                           const std::vector<std::vector<MEdge>>& lowered,
                           Rng& rng)
{
    VEdge state = pkg_->makeZeroState();
    for (std::size_t i = 0; i < lowered.size(); ++i) {
        if (std::holds_alternative<Gate>(circuit.operations()[i]))
            state = pkg_->apply(lowered[i][0], state);
        else
            state = applyKrausSampled(lowered[i], state, rng);
    }
    return state;
}

VEdge
DdSimulator::simulateTrajectory(const Circuit& circuit, Rng& rng)
{
    packageFor(circuit);
    return runTrajectory(circuit, lowerOperations(circuit), rng);
}

std::vector<std::uint64_t>
DdSimulator::sample(const Circuit& circuit, std::size_t numSamples, Rng& rng)
{
    VEdge state = simulate(circuit);
    std::vector<std::uint64_t> samples;
    samples.reserve(numSamples);
    for (std::size_t s = 0; s < numSamples; ++s)
        samples.push_back(pkg_->sampleOutcome(state, rng));
    return samples;
}

namespace {

/** Keeps the lowered gate/Kraus DDs rooted across trajectory sweeps. */
class LoweredRoots {
  public:
    LoweredRoots(DdPackage& pkg,
                 const std::vector<std::vector<MEdge>>& lowered)
        : pkg_(pkg), lowered_(lowered)
    {
        for (const auto& op : lowered_)
            for (const MEdge& e : op)
                pkg_.protect(e);
    }

    ~LoweredRoots()
    {
        for (const auto& op : lowered_)
            for (const MEdge& e : op)
                pkg_.unprotect(e);
    }

    LoweredRoots(const LoweredRoots&) = delete;
    LoweredRoots& operator=(const LoweredRoots&) = delete;

  private:
    DdPackage& pkg_;
    const std::vector<std::vector<MEdge>>& lowered_;
};

} // namespace

std::vector<std::uint64_t>
DdSimulator::sampleNoisy(const Circuit& circuit, std::size_t numSamples,
                         Rng& rng)
{
    DdPackage& pkg = packageFor(circuit);
    const auto lowered = lowerOperations(circuit);
    // Each trajectory's state dies the moment its outcome is drawn; only
    // the lowered operation DDs must outlive the between-trajectory sweeps,
    // so a >= 5k-trajectory run holds a bounded live-node count instead of
    // growing linearly in trajectories.
    LoweredRoots roots(pkg, lowered);

    std::vector<std::uint64_t> samples;
    samples.reserve(numSamples);
    for (std::size_t s = 0; s < numSamples; ++s) {
        pkg.maybeGarbageCollect();
        VEdge state = runTrajectory(circuit, lowered, rng);
        samples.push_back(pkg.sampleOutcome(state, rng));
    }
    return samples;
}

std::vector<std::uint64_t>
DdSimulator::sampleNoisySeeded(const Circuit& circuit,
                               const std::vector<std::uint64_t>& seeds)
{
    DdPackage& pkg = packageFor(circuit);
    const auto lowered = lowerOperations(circuit);
    LoweredRoots roots(pkg, lowered);

    std::vector<std::uint64_t> samples;
    samples.reserve(seeds.size());
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        pkg.maybeGarbageCollect();
        Rng trajectoryRng(seeds[s]);
        VEdge state = runTrajectory(circuit, lowered, trajectoryRng);
        samples.push_back(pkg.sampleOutcome(state, trajectoryRng));
    }
    return samples;
}

std::vector<double>
DdSimulator::distribution(const Circuit& circuit)
{
    VEdge state = simulate(circuit);
    return pkg_->probabilities(state);
}

} // namespace qkc
