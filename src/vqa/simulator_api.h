#ifndef QKC_VQA_SIMULATOR_API_H
#define QKC_VQA_SIMULATOR_API_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "exec/simd.h"
#include "linalg/types.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "vqa/pauli.h"

namespace qkc {

// ---------------------------------------------------------------------------
// Typed backend options
// ---------------------------------------------------------------------------

/**
 * Every knob a backend accepts, in one typed struct. String specs like
 * "sv:threads=8,fuse=1" are parsed into this by parseBackendSpec with
 * per-backend key validation; programmatic callers fill it directly and
 * pass it to Backend::open. Keys a backend does not consult are ignored at
 * open time (validation is the parser's job, so typed callers can share one
 * options value across backends).
 */
struct BackendOptions {
    /**
     * Dense-sweep threads for sv/dm, and worker lanes for dd (runBatch
     * fan-out and the trajectory-parallel noisy Sample); total, including
     * the caller. 0 = machine default: the QKC_THREADS environment
     * variable when set (clamped to >= 1), otherwise
     * std::thread::hardware_concurrency(). An explicit value here always
     * wins over both.
     */
    std::size_t threads = 0;

    /** Run the greedy gate-fusion pass at plan time (sv/dm). */
    bool fuse = true;

    /**
     * Vector dispatch level for the dense kernel sweeps (sv/dm):
     * "auto" (the default — whatever QKC_SIMD and CPUID allow), "off",
     * "avx2", or "avx512". An explicit level can only lower the process
     * ceiling, never raise it past QKC_SIMD or the hardware. Purely a speed
     * knob: payloads are bit-identical at every level.
     */
    SimdMode simd = SimdMode::Auto;

    /** Gibbs sweeps discarded before the first recorded sample (kc). */
    std::size_t burnIn = 64;

    /** Gibbs sweeps between recorded samples, >= 1 (kc). */
    std::size_t thin = 1;

    /**
     * Live-node count that triggers a diagram collection, >= 1 (dd). The
     * session keeps one DdPackage across parameter binds and trajectories
     * and collects dead nodes at safe points once this many are live.
     */
    std::size_t gcThreshold = 1u << 16;

    /**
     * Per-task observability (all backends): phase spans around the
     * session's work and a TaskProfile in every ResultMeta. Off, a task
     * pays one thread-local branch per span site and ResultMeta.profile
     * stays empty; counters still follow the process-wide obs::enabled()
     * switch (QKC_OBS=0 rules those out too).
     */
    bool obs = true;
};

/** A parsed backend spec: canonical name plus its typed options. */
struct BackendSpec {
    std::string name;
    BackendOptions options;
};

/**
 * Parses "name[:k1=v1,k2=v2]" — name canonical or aliased — into a typed
 * spec. Unknown backends *and* unknown or malformed options throw
 * std::invalid_argument listing what is valid for that backend.
 */
BackendSpec parseBackendSpec(const std::string& spec);

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

/** Draw `shots` measurement outcomes from the bound circuit. */
struct Sample {
    std::size_t shots = 1024;
};

/**
 * Evaluate <H> for a Pauli-sum observable. Each term is read through its
 * compiled masks (PauliString::xMask/zMask/phase). When the backend can
 * evaluate every non-identity term exactly, the sum is exact — sv and kc:
 * one pass over the amplitude vector per term (kc serves diagonal terms
 * from its outcome distribution), dm: tr(rho P), dd: a diagram walk.
 * Otherwise the whole sum is estimated from `shots` samples (rotated-basis
 * ones for non-diagonal terms): tn always, sv/dd under noise, kc beyond its
 * query-feasibility limit. Result::meta.exact records which happened.
 */
struct Expectation {
    PauliSum observable;
    std::size_t shots = 4096; ///< only used by the sampling fallback
};

/** Read amplitudes <x|psi> for the given basis states (pure states only). */
struct Amplitudes {
    std::vector<std::uint64_t> bitstrings;
};

/**
 * Exact outcome probabilities, marginalized onto `qubits` (empty = all
 * qubits, i.e. the full 2^n distribution). Entry k of the payload is the
 * probability that the selected qubits read out the bits of k, with
 * qubits[0] the most significant bit — matching the circuit convention.
 */
struct Probabilities {
    std::vector<std::size_t> qubits;
};

/** One typed query against an open session. */
using Task = std::variant<Sample, Expectation, Amplitudes, Probabilities>;

/**
 * One entry of a batched run: a full set of gate parameters, expressed as a
 * same-structure circuit — the same currency Session::bind takes. (A
 * different structure on the same qubit count is legal but re-plans; a
 * different qubit count throws.)
 */
using ParamBinding = Circuit;

// ---------------------------------------------------------------------------
// Registry: each backend's capabilities, declared once
// ---------------------------------------------------------------------------

class Session;

/** How a backend serves one task, on ideal or on noisy circuits. */
enum class Support {
    No,      ///< refused: Session::run throws, admission answers 422
    Exact,   ///< no Monte-Carlo error
    Sampled, ///< estimated from samples (Gibbs chains, trajectories, shots)
    Limited, ///< exact within the backend's query limit (kc)
};

struct TaskSupport {
    Support ideal = Support::No;
    Support noisy = Support::No;
};

/** The task's wire name: "sample", "expectation", ... (Task order). */
const char* taskName(std::size_t taskIndex);

/**
 * One registry entry per simulator family: the single declaration that
 * parseBackendSpec, Session::run, admission and the registry listings
 * (qkc_cli --list-backends, /v1/backends) all read.
 */
struct BackendInfo {
    std::string name;                    ///< canonical registry name
    std::vector<std::string> aliases;    ///< e.g. {"sv"}
    std::vector<std::string> optionKeys; ///< keys parseBackendSpec accepts
    std::string summary;                 ///< one-line cost-profile note
    /** The capability cells, one per Task alternative in Task order. */
    std::array<TaskSupport, std::variant_size_v<Task>> tasks;
    /** Dense memory 16 * 2^(denseExponent * n) bytes; 0 = no model. */
    std::size_t denseExponent = 0;
    /** Limited cells: at most 2^this passes (2^n x noise assignments). */
    std::size_t exactQueryQubits = 0;
    std::string batch; ///< runBatch strategy, one line
    std::unique_ptr<Session> (*open)(const BackendInfo& info,
                                     const Circuit& circuit,
                                     const BackendOptions& options);

    /** The cell serving `task` on `circuit` (its noise picks the column). */
    Support support(const Task& task, const Circuit& circuit) const;

    /**
     * Why `task` on `circuit` is refused (a No cell, or a Limited cell past
     * the limit, where Expectation samples instead), or "" if it is served.
     */
    std::string refusal(const Task& task, const Circuit& circuit) const;

    /** Whether an exact query on `circuit` fits exactQueryQubits. */
    bool withinQueryLimit(const Circuit& circuit) const;

    /** The registry's `tasks` text, rendered from the cells. */
    std::string tasksText() const;
};

/** The full registry, in presentation order. */
const std::vector<BackendInfo>& backendRegistry();

/** The canonical registry names, in presentation order. */
const std::vector<std::string>& backendNames();

/** The entry for a canonical name or alias; throws on an unknown name. */
const BackendInfo& backendInfo(const std::string& name);

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/**
 * Decision-diagram memory-lifecycle counters (dd sessions only; all-zero on
 * the other backends). Mirrors the owning DdPackage's DdStats at the end of
 * the task, so a long noisy run can assert its live-node count stayed
 * bounded while collections actually happened.
 */
/**
 * One compute table's hit/miss tally. Lifetime values are monotone over the
 * owning package; the per-task copies in DdMemoryStats are deltas over one
 * Session::run, so hitRate() there is an honest per-run rate rather than a
 * number diluted by the session's history.
 */
struct DdComputeTableStats {
    std::size_t hits = 0;
    std::size_t misses = 0;

    std::size_t lookups() const { return hits + misses; }
    double hitRate() const
    {
        const std::size_t n = lookups();
        return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
    }
};

struct DdMemoryStats {
    std::size_t liveVNodes = 0;     ///< vector nodes live in the unique table
    std::size_t liveMNodes = 0;     ///< matrix nodes live in the unique table
    std::size_t gcRuns = 0;         ///< completed mark-and-sweep collections
    std::size_t nodesCollected = 0; ///< total unique-table evictions
    std::size_t peakLiveNodes = 0;  ///< high-water mark of live nodes
    std::uint64_t gcNanos = 0;      ///< total collection pause time

    DdComputeTableStats apply{};    ///< apply cache, package lifetime
    DdComputeTableStats add{};      ///< add cache, package lifetime
    DdComputeTableStats taskApply{};///< apply cache, this task only
    DdComputeTableStats taskAdd{};  ///< add cache, this task only
};

/**
 * Aggregate timing of the runBatch call a Result came from (zeros outside
 * batches). Stamped identically on every result of the batch: per-result
 * meta.seconds is that binding's own bind+run lane time, and this is the
 * whole-batch view — wall time of the call, the slowest single binding, and
 * how unevenly the bindings' busy time spread over the worker lanes
 * (imbalance = lanes * max-lane-busy / total-busy; 1.0 is a perfectly even
 * fan-out, -> lanes means one lane did everything).
 */
struct BatchStats {
    std::size_t bindings = 0;       ///< batch size
    std::size_t lanes = 0;          ///< worker lanes used (1 = serialized)
    double wallSeconds = 0.0;       ///< wall time of the runBatch call
    double maxBindingSeconds = 0.0; ///< slowest single binding
    double maxLaneSeconds = 0.0;    ///< busiest lane's total binding time
    double imbalance = 0.0;         ///< lane imbalance ratio (>= 1.0)
};

/** Execution metadata carried by every Result. */
struct ResultMeta {
    std::string backend;        ///< canonical backend name
    double seconds = 0.0;       ///< wall time inside Session::run

    /**
     * Structure compilations this session has performed so far: execution
     * plans (fusion + kernel classification) for sv/dm, diagram builds for
     * dd, contraction plannings for tn, AC compilations for kc. A
     * variational sweep over one circuit structure must show this stuck at
     * 1 while planReuses grows — the paper's Section 3.2 reuse property,
     * asserted by the session tests.
     */
    std::size_t planBuilds = 0;

    /** Parameter binds served by refreshing the cached structure. */
    std::size_t planReuses = 0;

    /** Noisy Monte-Carlo trajectories run for this task. */
    std::size_t trajectories = 0;

    /** Shots drawn by the Expectation sampling fallback (0 when exact). */
    std::size_t fallbackShots = 0;

    /** Payload computed without Monte-Carlo error. */
    bool exact = false;

    /** Gate-fusion stats of the active plan (dense backends; else zeros). */
    FusionStats fusion{};

    /** Diagram memory-lifecycle stats (dd sessions; else zeros). */
    DdMemoryStats ddMemory{};

    /** Batch aggregates when the result came from runBatch (else zeros). */
    BatchStats batch{};

    /**
     * Phase-time breakdown and counter deltas for this task, collected when
     * the session's obs option is on: the run's top-level spans (bind,
     * backend phases, gc pauses) aggregated by name, summing to within a
     * few percent of `seconds`. Empty when obs is off.
     */
    obs::TaskProfile profile{};
};

/**
 * The payload of one task plus its metadata. Exactly one payload field is
 * populated, matching the Task alternative that produced it.
 */
struct Result {
    std::vector<std::uint64_t> samples;   ///< Sample
    double expectation = 0.0;             ///< Expectation
    std::vector<Complex> amplitudes;      ///< Amplitudes
    std::vector<double> probabilities;    ///< Probabilities
    ResultMeta meta;
};

// ---------------------------------------------------------------------------
// Session and Backend
// ---------------------------------------------------------------------------

/**
 * A live simulation of one circuit *structure* on one backend. Opening a
 * session pays the structure cost once — execution plan (fusion + kernel
 * classification) for the dense backends, compiled gate DDs for dd,
 * contraction plans for tn, the compiled arithmetic circuit for kc — and
 * every task then runs against that state. bind() swaps in new gate
 * parameters without re-paying it, which generalizes the paper's
 * compile-once/refresh-leaves reuse story (Section 3.2) from the kc backend
 * to all five families.
 *
 * Sessions are not thread-safe; drive one session from one thread (the
 * dense sweeps inside parallelize per BackendOptions::threads).
 */
class Session {
  public:
    virtual ~Session() = default;

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /** Canonical name of the owning backend. */
    const std::string& backendName() const { return info_.name; }

    /** The currently bound circuit. */
    const Circuit& circuit() const { return circuit_; }

    /**
     * Rebinds the session to `circuit`. Same structure (gate kinds and
     * wires; only parameters/values differ): the cached plan is refreshed
     * in place and planReuses increments. Different structure on the same
     * qubit count: the session transparently re-plans (planBuilds
     * increments). A different qubit count throws std::invalid_argument.
     */
    void bind(const Circuit& circuit);

    /** Runs one typed task and returns its payload plus metadata. */
    Result run(const Task& task, Rng& rng);

    /**
     * Runs one task against every binding and returns the results in batch
     * order — the unit of execution for a parameter-shift gradient or a
     * simplex sweep. The circuit structure is planned once (the session's
     * cached plan) and the bindings fan out across the exec thread pool:
     * each worker lane drives its own clone of the per-structure state
     * (cloneForBatch) and every binding draws from its own RNG stream,
     * seeded from `rng` in batch order before any parallel work. Payloads
     * are therefore bit-identical for every thread count, and match a
     * sequential bind/run loop driven from the same per-binding seeds.
     *
     * Backends whose per-structure cache cannot be cloned cheaply (dm, tn)
     * serialize the batch on the session itself — see batchStrategy() in
     * the registry table. A batch issued from inside pool work (a nested
     * parallel region) also serializes, so a batched task can never
     * deadlock a pool already running trajectories.
     *
     * Afterwards the session is bound to bindings.back() — exactly as after
     * the equivalent sequential loop — and planBuilds/planReuses have
     * counted one bind per binding.
     */
    std::vector<Result> runBatch(const std::vector<ParamBinding>& bindings,
                                 const Task& task, Rng& rng);

    /**
     * The same batched run with the per-binding seeds supplied explicitly
     * (one per binding) instead of drawn from a shared generator. This is
     * the form callers with *independent* randomness contracts need — the
     * server seeds every client's binding from that client's own seed, so a
     * request's payload is bit-identical whether it ran solo, coalesced
     * into a larger batch, or was replayed after a cache eviction; the
     * Rng overload above is equivalent to drawing seeds[i] = rng.next() in
     * batch order and calling this.
     */
    std::vector<Result> runBatch(const std::vector<ParamBinding>& bindings,
                                 const Task& task,
                                 const std::vector<std::uint64_t>& seeds);

    std::size_t planBuilds() const { return planBuilds_; }
    std::size_t planReuses() const { return planReuses_; }

    /** Whether this session collects per-task profiles (the obs option). */
    bool obsEnabled() const { return options_.obs; }

    /** Cached rotated-basis fallback sub-sessions (one per term signature). */
    std::size_t rotatedSessionCount() const { return rotatedSessions_.size(); }

  protected:
    Session(const BackendInfo& info, Circuit circuit,
            const BackendOptions& options);

    /**
     * Backend hook for bind: refresh values for a same-structure circuit
     * (sameStructure == true) or rebuild for a new structure. Returns true
     * when the cached structure was reused; false when a full rebuild
     * happened (structure change, or a parameter crossed a structural
     * boundary such as a kernel class). The public wrapper maintains the
     * planBuilds/planReuses counters from the return value.
     */
    virtual bool doBind(const Circuit& circuit, bool sameStructure) = 0;

    /** Called by run before and after every task (per-task metadata). */
    virtual void beginTask() {}
    virtual void endTask(ResultMeta& meta) { (void)meta; }

    virtual std::vector<std::uint64_t> doSample(std::size_t shots, Rng& rng,
                                                ResultMeta& meta) = 0;

    /** Limited Expectation cells: is `pauli` exact here? Default: yes. */
    virtual bool exactTerm(const PauliString& pauli) const;

    /**
     * Materializes what termExpectation reads (outside any span, so the
     * state build stays its own profile phase) and returns the span name
     * for the term loop, or nullptr for none. Called only when some term
     * is not the identity. Default: nothing, nullptr.
     */
    virtual const char* prepareExpectation();

    /** Exact <P> and payloads; run calls these only on served cells. */
    virtual double termExpectation(const PauliString& pauli);
    virtual std::vector<Complex> doAmplitudes(
        const std::vector<std::uint64_t>& bitstrings);
    virtual std::vector<double> doProbabilities(
        const std::vector<std::size_t>& qubits);

    /**
     * Batch fan-out hook: a fresh session sharing this one's options whose
     * per-structure state was *cloned* (not re-planned) wherever the
     * representation allows it. Returning nullptr (the default) serializes
     * runBatch on the session itself — the documented strategy for backends
     * whose cache is too large or too entangled to clone (dm: a second 4^n
     * rho per lane buys little when the kernel sweeps already
     * parallelize internally; tn: the sampler's per-prefix contraction
     * caches mutate during sampling).
     */
    virtual std::unique_ptr<Session> cloneForBatch() const;

    /** Worker lanes runBatch may use (default: the machine/QKC_THREADS). */
    virtual std::size_t batchThreads() const;

    /**
     * Called on every lane after a batch completes: drop transient payload
     * caches (dense final states, probability tables, diagram arenas) so a
     * persistent lane pins only its per-structure plan between batches,
     * not a full simulation result per thread. Default: no-op.
     */
    virtual void trimBatchLane() {}

    /**
     * Shared CLT fallback: diagonal terms score one batch of computational-
     * basis samples from the session itself; each non-diagonal term pays
     * `shots` samples from its cached rotated-basis sub-session.
     */
    double sampledExpectation(const PauliSum& observable, std::size_t shots,
                              Rng& rng, ResultMeta& meta);

    /**
     * Cancels the nominal first build the Session constructor records.
     * Called by cloneForBatch implementations whose construction copies an
     * existing plan instead of compiling one, so the fold of lane counters
     * back into the parent session stays an honest count of structure
     * compilations actually performed.
     */
    void clearInitialBuild() { planBuilds_ = 0; }

    const BackendInfo& info_;
    const BackendOptions options_;
    Circuit circuit_;
    std::size_t planBuilds_ = 0;
    std::size_t planReuses_ = 0;

  private:
    /**
     * The one Expectation loop, all or nothing: a Sampled cell, a Limited
     * cell past its limit or a term exactTerm rejects samples the sum.
     */
    double expectation(const Expectation& task, Support cell, Rng& rng,
                       ResultMeta& meta);

    /** The cached fallback sub-session for `pauli`'s rotation signature. */
    Session& rotatedSession(const PauliString& pauli);

    /**
     * Rotated-basis fallback sub-sessions, keyed by rotation signature (the
     * X/Y pattern of the term as {xMask, Y bits} — Z and I need no basis
     * change, so terms sharing the pattern share one sub-session and only
     * rebind it).
     */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::unique_ptr<Session>>
        rotatedSessions_;

    /**
     * Worker-lane clones kept across runBatch calls, so backends whose
     * clone pays a real compilation (kc) pay it once per lane for the
     * session lifetime, not once per batch.
     */
    std::vector<std::unique_ptr<Session>> batchLanes_;

    /** cloneForBatch declined once; every later batch serializes. */
    bool batchSerialized_ = false;
};

/**
 * A simulator family. `open` compiles a circuit structure into a Session;
 * `sample` is the pre-redesign convenience (open + one Sample task) kept
 * for one-shot callers — anything that evaluates repeatedly should hold a
 * Session and bind.
 */
class Backend {
  public:
    explicit Backend(const BackendInfo& info, BackendOptions defaults = {})
        : info_(&info), defaults_(defaults)
    {
    }
    virtual ~Backend() = default;

    /** Canonical registry name. */
    const std::string& name() const { return info_->name; }

    /** Opens a session on `circuit` with explicit options. */
    std::unique_ptr<Session> open(const Circuit& circuit,
                                  const BackendOptions& options) const
    {
        return info_->open(*info_, circuit, options);
    }

    /** Opens a session with the backend's configured default options. */
    std::unique_ptr<Session> open(const Circuit& circuit) const
    {
        return open(circuit, defaults_);
    }

    /** The options this backend was constructed with (spec string, ctor). */
    const BackendOptions& defaults() const { return defaults_; }

    /** Compatibility helper: open(circuit).run(Sample{shots}).samples. */
    std::vector<std::uint64_t> sample(const Circuit& circuit,
                                      std::size_t shots, Rng& rng) const;

    /**
     * Convenience for one-shot batch callers: opens a session on the first
     * binding (paying the structure cost once) and runs the batch through
     * it. Anything that evaluates batches repeatedly should hold the
     * Session and call Session::runBatch so lane state persists.
     */
    std::vector<Result> runBatch(const std::vector<ParamBinding>& bindings,
                                 const Task& task, Rng& rng) const;

  private:
    const BackendInfo* info_;
    BackendOptions defaults_;
};

/**
 * The unified backend registry front-end: resolves a string spec
 * ("sv:threads=8,fuse=1", "kc:burnin=64,thin=2", ...) through
 * parseBackendSpec and constructs the backend with those options baked in
 * as its defaults. See backendRegistry() for names, aliases and keys.
 */
std::unique_ptr<Backend> makeBackend(const std::string& spec);

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/**
 * Marginalizes a full 2^n distribution onto `qubits` (Probabilities task
 * semantics: qubits[0] = MSB of the output index; empty = identity copy).
 * Throws on out-of-range or repeated qubits.
 */
std::vector<double> marginalizeDistribution(const std::vector<double>& dist,
                                            std::size_t numQubits,
                                            const std::vector<std::size_t>& qubits);

} // namespace qkc

#endif // QKC_VQA_SIMULATOR_API_H
