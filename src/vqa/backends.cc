#include "vqa/backends.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "ac/kc_simulator.h"
#include "dd/dd_simulator.h"
#include "densitymatrix/densitymatrix_simulator.h"
#include "exec/execution_plan.h"
#include "obs/trace.h"
#include "statevector/statevector_simulator.h"
#include "tensornet/tensornet_simulator.h"

namespace qkc {

namespace {

ExecPolicy
execPolicyFrom(const BackendOptions& options)
{
    ExecPolicy policy;
    policy.threads = options.threads;
    policy.fuseGates = options.fuse;
    policy.simd = options.simd;
    return policy;
}

// ---------------------------------------------------------------------------
// State vector
// ---------------------------------------------------------------------------

class SvSession final : public Session {
  public:
    SvSession(const BackendInfo& info, const Circuit& circuit,
              const BackendOptions& options)
        : Session(info, circuit, options), policy_(execPolicyFrom(options)),
          sim_(policy_), plan_(planCircuit(circuit, policy_))
    {
    }

  protected:
    std::unique_ptr<Session> cloneForBatch() const override
    {
        // The batch strategy ISSUE 5 names for sv: copy the compiled
        // ExecutionPlan into the lane (kernel classification is *not*
        // re-run) and let each lane rebind it per binding.
        auto lane = std::unique_ptr<SvSession>(new SvSession(*this));
        lane->clearInitialBuild();
        return lane;
    }

    std::size_t batchThreads() const override
    {
        return policy_.resolvedThreads();
    }

    void trimBatchLane() override
    {
        // Keep the plan (cheap, and the point of the lane); drop the 2^n
        // state and probability table the last binding left behind.
        state_.reset();
        probs_ = std::vector<double>(); // frees, unlike clear()
        stateFresh_ = probsFresh_ = false;
    }
    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        // Keep the buffers: the next task refills them in place.
        stateFresh_ = probsFresh_ = false;
        if (sameStructure && tryRebindPlan(plan_, circuit))
            return true;
        plan_ = planCircuit(circuit, policy_);
        return false;
    }

    void endTask(ResultMeta& meta) override { meta.fusion = plan_.fusion; }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0) {
            QKC_SPAN("sv.trajectories");
            meta.trajectories += shots;
            return sim_.sampleNoisyPlanned(plan_, shots, rng);
        }
        ensureProbs();
        QKC_SPAN("sv.sample");
        return StateVectorSimulator::sampleFromDistribution(probs_, shots,
                                                            rng);
    }

    const char* prepareExpectation() override
    {
        ensureState();
        return "sv.expectation";
    }

    double termExpectation(const PauliString& pauli) override
    {
        return pauli.expectation(state_->data(), state_->dimension());
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings) override
    {
        ensureState();
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(state_->amplitude(b));
        return out;
    }

    std::vector<double> doProbabilities(
        const std::vector<std::size_t>& qubits) override
    {
        ensureProbs();
        return marginalizeDistribution(probs_, circuit_.numQubits(), qubits);
    }

  private:
    /** Batch-lane clone: copies the compiled plan instead of re-planning. */
    SvSession(const SvSession& parent)
        : Session(parent.info_, parent.circuit_, parent.options_),
          policy_(parent.policy_), sim_(parent.policy_), plan_(parent.plan_)
    {
    }

    void ensureState()
    {
        if (stateFresh_)
            return;
        QKC_SPAN("sv.simulate");
        if (state_)
            sim_.simulatePlanned(plan_, *state_);
        else
            state_ = sim_.simulatePlanned(plan_);
        stateFresh_ = true;
    }

    /** Lazy |amp|^2 vector: only tasks that consume it pay the sweep. */
    void ensureProbs()
    {
        ensureState();
        if (probsFresh_)
            return;
        QKC_SPAN("sv.probs");
        state_->probabilities(probs_);
        probsFresh_ = true;
    }

    ExecPolicy policy_;
    StateVectorSimulator sim_;
    ExecutionPlan plan_;
    std::optional<StateVector> state_; ///< final ideal state buffer
    std::vector<double> probs_;        ///< |amp|^2 buffer
    bool stateFresh_ = false; ///< state_ is the bound circuit's final state
    bool probsFresh_ = false; ///< probs_ is state_'s |amp|^2
};

// ---------------------------------------------------------------------------
// Density matrix
// ---------------------------------------------------------------------------

class DmSession final : public Session {
  public:
    DmSession(const BackendInfo& info, const Circuit& circuit,
              const BackendOptions& options)
        : Session(info, circuit, options), policy_(execPolicyFrom(options)),
          sim_(policy_), plan_(planCircuitDm(circuit, policy_))
    {
    }

  protected:
    // cloneForBatch stays at the serializing default: a second 4^n rho in
    // flight per lane would multiply peak memory for sweeps that the dense
    // kernels already parallelize internally via the shared pool, so a
    // batched dm task gains little from lane fan-out. runBatch therefore
    // binds and runs on this session in batch order — still one plan,
    // rebound per binding.

    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        rho_.reset();
        probs_.reset();
        // Same structure: replay the recorded fusion recipe on the new
        // values and refresh each op's kernel list (a gate's row and column
        // kernels, a channel's Liouville kernel) in place — no greedy pass,
        // no re-classification; planReuses counts exactly these binds.
        if (sameStructure && tryRebindDmPlan(plan_, circuit))
            return true;
        plan_ = planCircuitDm(circuit, policy_);
        return false;
    }

    void endTask(ResultMeta& meta) override { meta.fusion = plan_.fusion; }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta&) override
    {
        ensureRho();
        QKC_SPAN("dm.sample");
        return StateVectorSimulator::sampleFromDistribution(*probs_, shots,
                                                            rng);
    }

    const char* prepareExpectation() override
    {
        ensureRho();
        return "dm.trace";
    }

    double termExpectation(const PauliString& pauli) override
    {
        // Row r meets P only in column r ^ xMask, where P holds phase(r):
        // one O(2^n) pass per term reads the trace off rho directly.
        const std::uint64_t flip = pauli.xMask();
        Complex total{0.0, 0.0};
        for (std::uint64_t r = 0; r < rho_->dimension(); ++r)
            total += rho_->at(r, r ^ flip) * pauli.phase(r);
        return total.real();
    }

    std::vector<double> doProbabilities(
        const std::vector<std::size_t>& qubits) override
    {
        ensureRho();
        QKC_SPAN("dm.marginal");
        return marginalizeDistribution(*probs_, circuit_.numQubits(), qubits);
    }

  private:
    void ensureRho()
    {
        if (rho_)
            return;
        QKC_SPAN("dm.simulate");
        rho_ = sim_.simulatePlanned(plan_);
        probs_ = rho_->diagonalProbabilities();
    }

    ExecPolicy policy_;
    DensityMatrixSimulator sim_;
    DmExecutionPlan plan_;
    std::optional<DensityMatrix> rho_;   ///< final state (per bind)
    std::optional<std::vector<double>> probs_;
};

// ---------------------------------------------------------------------------
// Tensor network
// ---------------------------------------------------------------------------

class TnSession final : public Session {
  public:
    TnSession(const BackendInfo& info, const Circuit& circuit,
              const BackendOptions& options)
        : Session(info, circuit, options), sampler_(circuit)
    {
    }

  protected:
    // cloneForBatch stays at the serializing default: the sampler's
    // per-prefix conditional-marginal plans are grown lazily *during*
    // sampling, so a lane clone would either deep-copy that mutable cache
    // or silently re-pay contraction planning per lane; contraction
    // arithmetic dominates tn runtime anyway, so runBatch binds and runs on
    // this session in batch order.

    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        if (sameStructure) {
            sampler_.rebind(circuit); // values only; contraction plans kept
            marginalStale_ = true;    // same for the subset plan: keep it,
                                      // refresh its tensor values on use
            return true;
        }
        sampler_ = TnSampler(circuit);
        marginal_.reset();
        return false;
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta&) override
    {
        QKC_SPAN("tn.sample");
        return sampler_.sample(shots, rng);
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings) override
    {
        QKC_SPAN("tn.amplitudes");
        TensorNetworkSimulator tn;
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(tn.amplitude(circuit_, b));
        return out;
    }

    std::vector<double> doProbabilities(
        const std::vector<std::size_t>& qubits) override
    {
        // Exact marginal over an arbitrary subset by doubled-network
        // contraction — never materializes the 2^n distribution. The plan
        // is cached per subset, so repeated queries (and assignments) only
        // re-pay contraction arithmetic.
        QKC_SPAN("tn.marginal");
        const std::size_t n = circuit_.numQubits();
        const std::vector<std::size_t> subset =
            qubits.empty() ? allQubits() : qubits;
        if (subset == allQubits()) {
            // The sampler already holds (and rebinds) exactly this plan:
            // the full-length prefix marginal.
            std::vector<double> out(std::size_t{1} << n);
            for (std::size_t a = 0; a < out.size(); ++a)
                out[a] = sampler_.prefixProbability(a, n);
            return out;
        }
        if (!marginal_ || marginalQubits_ != subset) {
            TnSampler::MarginalPlan mp =
                TnSampler::buildMarginalTensors(circuit_, subset);
            mp.plan = TnSampler::planContraction(mp.tensors);
            marginal_ = std::move(mp);
            marginalQubits_ = subset;
        } else if (marginalStale_) {
            // Same structure, new parameters: refresh the tensor values
            // but replay the cached contraction plan (edge wiring is
            // derived purely from the op sequence, so it is unchanged).
            TnSampler::MarginalPlan fresh =
                TnSampler::buildMarginalTensors(circuit_, subset);
            marginal_->tensors = std::move(fresh.tensors);
            marginal_->projectors = std::move(fresh.projectors);
        }
        marginalStale_ = false;
        std::vector<double> out(std::size_t{1} << subset.size());
        for (std::size_t a = 0; a < out.size(); ++a)
            out[a] = TnSampler::marginalProbability(*marginal_, a);
        return out;
    }

  private:
    std::vector<std::size_t> allQubits() const
    {
        std::vector<std::size_t> qs(circuit_.numQubits());
        for (std::size_t q = 0; q < qs.size(); ++q)
            qs[q] = q;
        return qs;
    }

    TnSampler sampler_;
    std::optional<TnSampler::MarginalPlan> marginal_; ///< last proper subset
    std::vector<std::size_t> marginalQubits_;
    bool marginalStale_ = false; ///< values need a refresh after a rebind
};

// ---------------------------------------------------------------------------
// Decision diagram
// ---------------------------------------------------------------------------

class DdSession final : public Session {
  public:
    DdSession(const BackendInfo& info, const Circuit& circuit,
              const BackendOptions& options)
        : Session(info, circuit, options), sim_(options.gcThreshold)
    {
    }

  protected:
    std::unique_ptr<Session> cloneForBatch() const override
    {
        // The batch strategy ISSUE 5 names for dd: a DdPackage per lane —
        // its own arena, unique tables and compute caches; nothing shared
        // across threads. The lane's package persists across bindings and
        // batches (GC bounds it), so gate DDs and unique tables amortize
        // within each lane exactly as they do in the parent session.
        auto lane = std::make_unique<DdSession>(info_, circuit_, options_);
        lane->clearInitialBuild(); // construction compiles nothing
        return lane;
    }

    void trimBatchLane() override
    {
        // Keep the lane package — the warm unique tables and gate DDs are
        // the point of a persistent lane — but drop the last binding's
        // state and collect it now: an idle lane pins only its live
        // diagram structure between batches, not a dead state per thread.
        releaseState();
        if (sim_.hasPackage())
            sim_.package().garbageCollect();
    }

    std::size_t batchThreads() const override { return trajectoryLanes(); }

    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        (void)circuit;
        // The package survives the bind — arena capacity, table
        // buckets, free lists and cached Pauli-term DDs all stay warm.
        // The old state is unrooted and collected NOW, not lazily: weight
        // interning snaps to existing entries within tolerance, so results
        // must not depend on which bindings this package saw before
        // (runBatch promises lane payloads bit-identical to a sequential
        // loop). A full sweep leaves only protected roots, giving every
        // binding the same deterministic starting table.
        releaseState();
        if (sim_.hasPackage())
            sim_.package().garbageCollect();
        return sameStructure;
    }

    /**
     * Snapshots the package counters at task entry so endTask can report
     * per-task compute-table deltas (hit rates undiluted by the session's
     * history). Zeros when no package exists yet — a first task then
     * deltas against a fresh package, which is also correct.
     */
    void beginTask() override
    {
        taskStart_ = sim_.hasPackage() ? sim_.package().stats() : DdStats{};
        laneMemory_.reset();
    }

    void endTask(ResultMeta& meta) override
    {
        if (laneMemory_)
            meta.ddMemory = *laneMemory_;
        else if (sim_.hasPackage())
            meta.ddMemory = packageMemory();
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta& meta) override
    {
        if (circuit_.noiseCount() > 0) {
            QKC_SPAN("dd.trajectories");
            meta.trajectories += shots;
            // Per-trajectory seed schedule, drawn in shot order before any
            // parallel work — the runBatch discipline applied one level
            // down. The payload is a pure function of (circuit, seeds), so
            // it is identical at every lane count and matches the serial
            // path bit for bit.
            std::vector<std::uint64_t> seeds(shots);
            for (auto& s : seeds)
                s = rng.next();
            const std::size_t lanes =
                std::min<std::size_t>(trajectoryLanes(), shots);
            if (lanes <= 1)
                return sim_.sampleNoisySeeded(circuit_, seeds);
            return sampleNoisyParallel(seeds, lanes);
        }
        ensureState();
        QKC_SPAN("dd.sample");
        std::vector<std::uint64_t> samples;
        samples.reserve(shots);
        for (std::size_t s = 0; s < shots; ++s)
            samples.push_back(sim_.package().sampleOutcome(state_, rng));
        return samples;
    }

    const char* prepareExpectation() override
    {
        ensureState();
        return "dd.expectation";
    }

    double termExpectation(const PauliString& pauli) override
    {
        // Native diagram walk: phi = P psi via ONE apply of the term's
        // n-qubit Pauli-string matrix DD (linear-size, cached across calls
        // and binds), then the memoized two-diagram inner product <psi|phi>.
        DdPackage& pkg = sim_.package();
        const VEdge phi = pkg.apply(termDd(pauli), state_);
        return pkg.innerProduct(state_, phi).real();
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings) override
    {
        ensureState();
        QKC_SPAN("dd.amplitudes");
        const DdPackage& pkg = sim_.package();
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(pkg.amplitude(state_, b));
        return out;
    }

    std::vector<double> doProbabilities(
        const std::vector<std::size_t>& qubits) override
    {
        ensureState();
        QKC_SPAN("dd.probabilities");
        return marginalizeDistribution(sim_.package().probabilities(state_),
                                       circuit_.numQubits(), qubits);
    }

  private:
    /** Worker lanes for runBatch and trajectory fan-out (threads option). */
    std::size_t trajectoryLanes() const
    {
        ExecPolicy p;
        p.threads = options_.threads;
        return p.resolvedThreads();
    }

    /**
     * Fans the seeded trajectories over per-lane simulators, each with a
     * private DdPackage (arena, unique and compute tables) — the runBatch
     * lane strategy applied inside one noisy Sample. Lanes claim contiguous
     * seed blocks as pool chunks (chunk index == lane index) and outcomes
     * land at their shot index, so the payload is independent of which
     * thread ran which block; the serial fallback inside parallelForChunks
     * replays the same chunk boundaries, so a task issued from within a
     * batch lane (nested region) reads the same bits. Lane simulators are
     * per-call: a trajectory's state is worthless between tasks — unlike a
     * batch lane's plan — so nothing is worth pinning per thread.
     */
    std::vector<std::uint64_t> sampleNoisyParallel(
        const std::vector<std::uint64_t>& seeds, std::size_t lanes)
    {
        const std::size_t shots = seeds.size();
        std::vector<std::uint64_t> samples(shots);
        std::vector<DdSimulator> laneSims;
        laneSims.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l)
            laneSims.emplace_back(options_.gcThreshold);

        // Same exception containment as runBatch: nothing may unwind
        // through the pool; the lowest chunk's error is rethrown.
        std::vector<std::exception_ptr> chunkErrors(lanes);
        ExecPolicy fanout;
        fanout.threads = lanes;
        fanout.serialThreshold = 1;
        fanout.grain = (shots + lanes - 1) / lanes;
        parallelForChunks(
            fanout, shots,
            [&](std::size_t chunk, std::uint64_t b, std::uint64_t e) {
                try {
                    const std::vector<std::uint64_t> laneSeeds(
                        seeds.begin() + static_cast<std::ptrdiff_t>(b),
                        seeds.begin() + static_cast<std::ptrdiff_t>(e));
                    const auto out =
                        laneSims[chunk].sampleNoisySeeded(circuit_,
                                                          laneSeeds);
                    std::copy(out.begin(), out.end(),
                              samples.begin() +
                                  static_cast<std::ptrdiff_t>(b));
                } catch (...) {
                    chunkErrors[chunk] = std::current_exception();
                }
            });
        for (const std::exception_ptr& err : chunkErrors)
            if (err)
                std::rethrow_exception(err);

        // The memory stats readers assert on (gc ran, live nodes bounded)
        // happened in the lane packages: sum the counters, take the peak
        // across arenas. Lane packages are fresh, so lifetime and per-task
        // tallies coincide.
        DdMemoryStats m;
        for (DdSimulator& laneSim : laneSims) {
            if (!laneSim.hasPackage())
                continue;
            const DdStats& s = laneSim.package().stats();
            m.liveVNodes += s.liveVNodes;
            m.liveMNodes += s.liveMNodes;
            m.gcRuns += s.gcRuns;
            m.nodesCollected += s.nodesCollected;
            m.peakLiveNodes = std::max(m.peakLiveNodes, s.peakLiveNodes);
            m.gcNanos += s.gcNanos;
            m.apply.hits += s.applyHits;
            m.apply.misses += s.applyMisses;
            m.add.hits += s.addHits;
            m.add.misses += s.addMisses;
        }
        m.taskApply = m.apply;
        m.taskAdd = m.add;
        laneMemory_ = m;
        return samples;
    }

    void ensureState()
    {
        if (built_)
            return;
        if (sim_.hasPackage())
            sim_.package().maybeGarbageCollect();
        QKC_SPAN("dd.build");
        state_ = sim_.simulate(circuit_);
        sim_.package().protect(state_);
        built_ = true;
    }

    /** Unroots the bound state; the next task rebuilds lazily. */
    void releaseState()
    {
        if (built_ && sim_.hasPackage())
            sim_.package().unprotect(state_);
        built_ = false;
    }

    /**
     * The cached matrix DD for a Pauli term. Pauli matrices carry no
     * parameters, so the cache survives rebinds as long as the package
     * does; each entry is protected so collections keep it (and its
     * chain) alive, with the unprotect implicit in the package teardown.
     */
    const MEdge& termDd(const PauliString& pauli)
    {
        const std::string& key = pauli.text();
        auto it = termDds_.find(key);
        if (it == termDds_.end()) {
            const MEdge dd = sim_.package().makePauliDd(key);
            sim_.package().protect(dd);
            it = termDds_.emplace(key, dd).first;
        }
        return it->second;
    }

    /** The session package's counters, with deltas since beginTask. */
    DdMemoryStats packageMemory()
    {
        const DdStats& s = sim_.package().stats();
        DdMemoryStats m;
        m.liveVNodes = s.liveVNodes;
        m.liveMNodes = s.liveMNodes;
        m.gcRuns = s.gcRuns;
        m.nodesCollected = s.nodesCollected;
        m.peakLiveNodes = s.peakLiveNodes;
        m.gcNanos = s.gcNanos;
        m.apply = {s.applyHits, s.applyMisses};
        m.add = {s.addHits, s.addMisses};
        m.taskApply = {s.applyHits - taskStart_.applyHits,
                       s.applyMisses - taskStart_.applyMisses};
        m.taskAdd = {s.addHits - taskStart_.addHits,
                     s.addMisses - taskStart_.addMisses};
        return m;
    }

    DdSimulator sim_;
    DdStats taskStart_{}; ///< package counters at task entry (per-task deltas)
    /** Summed lane-package stats of a trajectory-parallel noisy Sample. */
    std::optional<DdMemoryStats> laneMemory_;
    VEdge state_;
    bool built_ = false;
    std::map<std::string, MEdge> termDds_; ///< per-term Pauli-string DDs
};

// ---------------------------------------------------------------------------
// Knowledge compilation
// ---------------------------------------------------------------------------

class KcSession final : public Session {
  public:
    KcSession(const BackendInfo& info, const Circuit& circuit,
              const BackendOptions& options)
        : Session(info, circuit, options)
    {
        gibbs_.burnIn = options.burnIn;
        gibbs_.thin = options.thin;
        QKC_SPAN("kc.compile");
        sim_ = std::make_unique<KcSimulator>(circuit);
    }

  protected:
    std::unique_ptr<Session> cloneForBatch() const override
    {
        // The batch strategy ISSUE 5 names for kc: each worker lane holds
        // its own compiled AC and refreshes its parameter leaves per
        // binding. The compiled structure is pointer-rich (AC nodes,
        // evaluator tapes), so a lane pays one honest compile — counted as
        // a planBuild — and amortizes it across every batch this session
        // runs (lanes persist for the session lifetime).
        return std::make_unique<KcSession>(info_, circuit_, options_);
    }

    void trimBatchLane() override
    {
        // Keep the compiled AC (the expensive part); drop the 2^n query
        // caches the last binding materialized.
        dist_.reset();
        amps_.reset();
    }
    bool doBind(const Circuit& circuit, bool sameStructure) override
    {
        dist_.reset();
        amps_.reset();
        if (sameStructure) {
            try {
                QKC_SPAN("kc.refresh");
                sim_->refreshParams(circuit);
                return true;
            } catch (const std::invalid_argument&) {
                // Fall through: compile from scratch.
            }
        }
        QKC_SPAN("kc.compile");
        sim_ = std::make_unique<KcSimulator>(circuit);
        return false;
    }

    std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                        ResultMeta&) override
    {
        QKC_SPAN("kc.gibbs");
        return sim_->sample(shots, rng, gibbs_);
    }

    bool exactTerm(const PauliString& pauli) const override
    {
        // Within the query limit, AC queries serve diagonal terms from the
        // exact outcome distribution (noise included — probability() sums
        // noise events) and, on ideal circuits, arbitrary Paulis from the
        // amplitude vector.
        return pauli.isDiagonal() || circuit_.noiseCount() == 0;
    }

    double termExpectation(const PauliString& pauli) override
    {
        if (pauli.isDiagonal()) {
            ensureDistribution();
            return pauli.expectationFromDistribution(*dist_);
        }
        ensureAmplitudes();
        return pauli.expectation(amps_->data(), amps_->size());
    }

    std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings) override
    {
        // One upward AC pass per bitstring: no query limit applies.
        std::vector<Complex> out;
        out.reserve(bitstrings.size());
        for (std::uint64_t b : bitstrings)
            out.push_back(sim_->amplitude(b));
        return out;
    }

    std::vector<double> doProbabilities(
        const std::vector<std::size_t>& qubits) override
    {
        ensureDistribution();
        return marginalizeDistribution(*dist_, circuit_.numQubits(), qubits);
    }

  private:
    void ensureDistribution()
    {
        if (dist_)
            return;
        QKC_SPAN("kc.distribution");
        dist_ = sim_->outcomeDistribution();
    }

    void ensureAmplitudes()
    {
        if (amps_)
            return;
        QKC_SPAN("kc.amplitudes");
        const std::uint64_t dim = std::uint64_t{1} << circuit_.numQubits();
        std::vector<Complex> amps;
        amps.reserve(dim);
        for (std::uint64_t x = 0; x < dim; ++x)
            amps.push_back(sim_->amplitude(x));
        amps_ = std::move(amps);
    }

    GibbsOptions gibbs_;
    std::unique_ptr<KcSimulator> sim_;
    std::optional<std::vector<double>> dist_;
    std::optional<std::vector<Complex>> amps_;
};

template <class S>
std::unique_ptr<Session>
openSession(const BackendInfo& info, const Circuit& circuit,
            const BackendOptions& options)
{
    return std::make_unique<S>(info, circuit, options);
}

} // namespace

// ---------------------------------------------------------------------------
// The registry: every backend's capabilities, declared once
// ---------------------------------------------------------------------------

const std::vector<BackendInfo>&
backendRegistry()
{
    constexpr Support No = Support::No, Exact = Support::Exact,
                      Sampled = Support::Sampled, Limited = Support::Limited;
    // Cells per task, {ideal, noisy}, in Task order: sample, expectation,
    // amplitudes, probabilities. Then the dense-memory exponent, the
    // exact-query limit, the batch strategy and the session factory.
    static const std::vector<BackendInfo> registry = {
        {"statevector",
         {"sv"},
         {"threads", "fuse", "simd", "obs"},
         "dense 2^n state vector (qsim-style); Kraus trajectories when "
         "noise is present",
         {{{Exact, Sampled}, {Exact, Sampled}, {Exact, No}, {Exact, No}}},
         1, 0,
         "parallel lanes (threads option): each lane clones the compiled "
         "ExecutionPlan and rebinds it per binding",
         &openSession<SvSession>},
        {"densitymatrix",
         {"dm"},
         {"threads", "fuse", "simd", "obs"},
         "dense 4^n density matrix (Cirq-style); every channel exact",
         {{{Exact, Exact}, {Exact, Exact}, {No, No}, {Exact, Exact}}},
         2, 0,
         "serialized: a 4^n rho per lane would multiply peak memory and "
         "the kernel sweeps already parallelize internally",
         &openSession<DmSession>},
        {"tensornetwork",
         {"tn"},
         {"obs"},
         "qTorch-style tensor-network contraction (ideal circuits only); "
         "probabilities are exact marginals by doubled-network contraction",
         {{{Exact, No}, {Sampled, No}, {Exact, No}, {Exact, No}}},
         0, 0,
         "serialized: the sampler's per-prefix contraction caches mutate "
         "during sampling and do not clone cheaply",
         &openSession<TnSession>},
        {"decisiondiagram",
         {"dd"},
         {"threads", "gcthreshold", "obs"},
         "QMDD decision diagram (DDSIM-style); Kraus trajectories when "
         "noise is present; ref-counted mark-and-sweep node GC",
         {{{Exact, Sampled}, {Exact, Sampled}, {Exact, No}, {Exact, No}}},
         0, 0,
         "parallel lanes (threads option): a private DdPackage (arena, "
         "unique and compute tables) per lane, garbage-collected between "
         "batches; a noisy Sample fans its trajectories over per-lane "
         "packages the same way",
         &openSession<DdSession>},
        {"knowledgecompilation",
         {"kc"},
         {"burnin", "thin", "obs"},
         "knowledge compilation (this paper): compile once, refresh "
         "parameter leaves across a variational sweep; samples by Gibbs "
         "chains; exact queries count 2^n outcomes times noise "
         "assignments against the limit, and under noise only diagonal "
         "observables are exact (the rest are Gibbs-sampled)",
         {{{Sampled, Sampled}, {Limited, Limited}, {Exact, No},
           {Limited, Limited}}},
         0, 16,
         "parallel lanes (QKC_THREADS): one compiled AC per lane (one "
         "honest compile each, kept for the session), leaf refresh per "
         "binding",
         &openSession<KcSession>},
    };
    return registry;
}

std::unique_ptr<Backend>
makeBackend(const std::string& spec)
{
    const BackendSpec parsed = parseBackendSpec(spec);
    return std::make_unique<Backend>(backendInfo(parsed.name),
                                     parsed.options);
}

} // namespace qkc
