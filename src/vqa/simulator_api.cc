#include "vqa/simulator_api.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>

#include "exec/execution_plan.h"
#include "exec/thread_pool.h"
#include "util/timer.h"

namespace qkc {

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(const BackendInfo& info, Circuit circuit,
                 const BackendOptions& options)
    : info_(info), options_(options), circuit_(std::move(circuit)),
      planBuilds_(1)
{
}

void
Session::bind(const Circuit& circuit)
{
    if (circuit.numQubits() != circuit_.numQubits()) {
        throw std::invalid_argument(
            "Session::bind: qubit count differs from the opened circuit; "
            "open a new session instead");
    }
    QKC_SPAN("session.bind");
    const bool structureMatches = sameStructure(circuit_, circuit);
    const bool reused = doBind(circuit, structureMatches);
    circuit_ = circuit;
    if (reused)
        ++planReuses_;
    else
        ++planBuilds_;
}

namespace {

/** Throws on arguments the task cannot take on an n-qubit circuit. */
void
checkTaskArguments(const Task& task, std::size_t n)
{
    if (const auto* a = std::get_if<Amplitudes>(&task)) {
        for (std::uint64_t b : a->bitstrings)
            if (n < 64 && (b >> n) != 0)
                throw std::invalid_argument(
                    "Amplitudes: bitstring out of range");
    } else if (const auto* e = std::get_if<Expectation>(&task)) {
        if (e->observable.terms.empty())
            throw std::invalid_argument("Expectation: empty observable");
        for (const auto& [coeff, pauli] : e->observable.terms) {
            (void)coeff;
            if (pauli.numQubits() != n)
                throw std::invalid_argument(
                    "Expectation: observable qubit count does not match "
                    "the bound circuit");
        }
    }
}

} // namespace

Result
Session::run(const Task& task, Rng& rng)
{
    const std::string refused = info_.refusal(task, circuit_);
    if (!refused.empty())
        throw std::invalid_argument("Session::run: " + refused);
    checkTaskArguments(task, circuit_.numQubits());

    const Support cell = info_.support(task, circuit_);
    Result result;
    result.meta.backend = info_.name;
    result.meta.exact = cell != Support::Sampled; // Expectation decides below
    const auto runTask = [&] {
        beginTask();
        std::visit(
            [&](const auto& t) {
                using T = std::decay_t<decltype(t)>;
                if constexpr (std::is_same_v<T, Sample>)
                    result.samples = doSample(t.shots, rng, result.meta);
                else if constexpr (std::is_same_v<T, Expectation>)
                    result.expectation =
                        expectation(t, cell, rng, result.meta);
                else if constexpr (std::is_same_v<T, Amplitudes>)
                    result.amplitudes = doAmplitudes(t.bitstrings);
                else
                    result.probabilities = doProbabilities(t.qubits);
            },
            task);
        endTask(result.meta);
    };
    if (options_.obs && obs::enabled()) {
        // The profile scope doubles as the task timer: its envelope is the
        // run, its phases are the backend's top-level spans, so the phase
        // times sum to (within clock reads) meta.seconds.
        obs::ProfileScope scope("session.run");
        runTask();
        result.meta.profile = scope.take();
        result.meta.seconds = result.meta.profile.totalSeconds;
    } else {
        Timer timer;
        runTask();
        result.meta.seconds = timer.seconds();
    }
    result.meta.planBuilds = planBuilds_;
    result.meta.planReuses = planReuses_;
    return result;
}

std::vector<Result>
Session::runBatch(const std::vector<ParamBinding>& bindings, const Task& task,
                  Rng& rng)
{
    // Per-binding RNG streams, seeded from the caller's generator in batch
    // order *before* any parallel work: the seed sequence — and with it
    // every payload — is identical for every thread count, and matches a
    // sequential bind/run loop driven from the same per-binding seeds.
    std::vector<std::uint64_t> seeds(bindings.size());
    for (auto& s : seeds)
        s = rng.next();
    return runBatch(bindings, task, seeds);
}

std::vector<Result>
Session::runBatch(const std::vector<ParamBinding>& bindings, const Task& task,
                  const std::vector<std::uint64_t>& seeds)
{
    std::vector<Result> results(bindings.size());
    if (bindings.empty())
        return results;
    if (seeds.size() != bindings.size())
        throw std::invalid_argument(
            "Session::runBatch: need exactly one seed per binding");
    obs::TimedSpan batchSpan("session.runBatch");
    for (const Circuit& b : bindings) {
        if (b.numQubits() != circuit_.numQubits())
            throw std::invalid_argument(
                "Session::runBatch: binding qubit count differs from the "
                "opened circuit; open a new session instead");
    }

    // A batch issued from inside pool work would only run inline anyway
    // (the pool's nested-submission guard), so skip the lane setup and
    // serialize outright — this is what makes a batched task safe to issue
    // from arbitrary calling contexts.
    const std::size_t lanes =
        std::min<std::size_t>(batchThreads(), bindings.size());
    bool parallel =
        lanes > 1 && !batchSerialized_ && !ThreadPool::inParallelRegion();
    if (parallel) {
        while (batchLanes_.size() < lanes) {
            auto lane = cloneForBatch();
            if (!lane) {
                // The backend documents why its per-structure cache does
                // not clone (see cloneForBatch); remember the refusal.
                batchSerialized_ = true;
                parallel = false;
                break;
            }
            batchLanes_.push_back(std::move(lane));
        }
    }

    // Per-binding timing: meta.seconds on a batch result is that binding's
    // own bind+run time on its lane (run() alone would omit the bind), and
    // laneSeconds accumulates each lane's busy time for the batch
    // aggregates stamped below.
    std::vector<double> laneSeconds(parallel ? lanes : 1, 0.0);
    if (!parallel) {
        for (std::size_t i = 0; i < bindings.size(); ++i) {
            const std::uint64_t t0 = obs::nowNs();
            bind(bindings[i]);
            Rng bindingRng(seeds[i]);
            results[i] = run(task, bindingRng);
            results[i].meta.seconds =
                static_cast<double>(obs::nowNs() - t0) * 1e-9;
            laneSeconds[0] += results[i].meta.seconds;
        }
    } else {
        // One clone per lane; lanes claim contiguous blocks as pool chunks
        // (chunk index == lane index, so each clone is driven by exactly
        // one thread at a time). Results land at their binding index — the
        // batch-ordered merge — so payloads are independent of which lane
        // ran which block.
        std::vector<std::size_t> laneBuilds(lanes), laneReuses(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            laneBuilds[l] = batchLanes_[l]->planBuilds_;
            laneReuses[l] = batchLanes_[l]->planReuses_;
        }
        // A task exception must not unwind through the pool (a throwing
        // worker chunk would std::terminate; a throwing caller chunk would
        // leave the pool's job slot claimed forever). Each chunk captures
        // its first exception; the lowest chunk's one is rethrown after the
        // region completes — deterministic, and the same error the
        // sequential loop would have surfaced first.
        std::vector<std::exception_ptr> chunkErrors(lanes);
        ExecPolicy fanout;
        fanout.threads = lanes;
        fanout.serialThreshold = 1;
        fanout.grain = (bindings.size() + lanes - 1) / lanes;
        parallelForChunks(
            fanout, bindings.size(),
            [&](std::size_t chunk, std::uint64_t b, std::uint64_t e) {
                try {
                    Session& lane = *batchLanes_[chunk];
                    for (std::uint64_t i = b; i < e; ++i) {
                        const std::uint64_t t0 = obs::nowNs();
                        lane.bind(bindings[i]);
                        Rng bindingRng(seeds[i]);
                        results[i] = lane.run(task, bindingRng);
                        results[i].meta.seconds =
                            static_cast<double>(obs::nowNs() - t0) * 1e-9;
                        laneSeconds[chunk] += results[i].meta.seconds;
                    }
                } catch (...) {
                    chunkErrors[chunk] = std::current_exception();
                }
            });
        // Fold the lanes' bind bookkeeping into this session so the
        // Section 3.2 reuse metadata counts the batch's real work, and
        // drop the lanes' transient payload caches — a lane must not pin a
        // dense state (or diagram arena) per thread between batches; only
        // the per-structure plan is worth keeping.
        for (std::size_t l = 0; l < lanes; ++l) {
            planBuilds_ += batchLanes_[l]->planBuilds_ - laneBuilds[l];
            planReuses_ += batchLanes_[l]->planReuses_ - laneReuses[l];
            batchLanes_[l]->trimBatchLane();
        }
        for (const std::exception_ptr& err : chunkErrors)
            if (err)
                std::rethrow_exception(err);
        // Sync the session itself onto the final binding — the same
        // observable state the sequential loop leaves behind. The sync
        // repeats work a lane already performed (and counted), so it is
        // deliberately not counted again.
        doBind(bindings.back(), sameStructure(circuit_, bindings.back()));
        circuit_ = bindings.back();
    }

    // Stamp every result with the session's final counters (run() stamps
    // "counters so far", which mid-batch is a moving target — and lane
    // counters are meaningless to callers) and the batch aggregates.
    BatchStats stats;
    stats.bindings = bindings.size();
    stats.lanes = laneSeconds.size();
    stats.wallSeconds = batchSpan.seconds();
    double busy = 0.0;
    for (double s : laneSeconds) {
        busy += s;
        stats.maxLaneSeconds = std::max(stats.maxLaneSeconds, s);
    }
    for (const Result& r : results)
        stats.maxBindingSeconds =
            std::max(stats.maxBindingSeconds, r.meta.seconds);
    stats.imbalance = busy > 0.0 ? stats.maxLaneSeconds *
                                       static_cast<double>(stats.lanes) / busy
                                 : 0.0;
    for (Result& r : results) {
        r.meta.planBuilds = planBuilds_;
        r.meta.planReuses = planReuses_;
        r.meta.batch = stats;
    }
    return results;
}

std::unique_ptr<Session>
Session::cloneForBatch() const
{
    return nullptr;
}

std::size_t
Session::batchThreads() const
{
    return defaultThreads();
}

double
Session::expectation(const Expectation& task, Support cell, Rng& rng,
                     ResultMeta& meta)
{
    const PauliSum& observable = task.observable;
    const bool limited = cell == Support::Limited;
    if (cell == Support::Sampled ||
        (limited && !info_.withinQueryLimit(circuit_)))
        return sampledExpectation(observable, task.shots, rng, meta);
    bool constant = true;
    for (const auto& [coeff, pauli] : observable.terms) {
        (void)coeff;
        if (pauli.isIdentity())
            continue;
        if (limited && !exactTerm(pauli))
            return sampledExpectation(observable, task.shots, rng, meta);
        constant = false;
    }
    std::optional<obs::Span> span;
    const char* name = constant ? nullptr : prepareExpectation();
    if (name)
        span.emplace(name);
    double total = 0.0;
    for (const auto& [coeff, pauli] : observable.terms)
        total += pauli.isIdentity() ? coeff : coeff * termExpectation(pauli);
    return total;
}

bool
Session::exactTerm(const PauliString&) const
{
    return true;
}

const char*
Session::prepareExpectation()
{
    return nullptr;
}

// run calls the payload hooks only on cells the registry serves, so a
// default here means a registry entry promises what its session lacks.

double
Session::termExpectation(const PauliString&)
{
    throw std::logic_error("Session: no exact terms on " + info_.name);
}

std::vector<Complex>
Session::doAmplitudes(const std::vector<std::uint64_t>&)
{
    throw std::logic_error("Session: no amplitudes on " + info_.name);
}

std::vector<double>
Session::doProbabilities(const std::vector<std::size_t>&)
{
    throw std::logic_error("Session: no probabilities on " + info_.name);
}

double
Session::sampledExpectation(const PauliSum& observable, std::size_t shots,
                            Rng& rng, ResultMeta& meta)
{
    double total = 0.0;
    // Diagonal terms share one batch of computational-basis samples from
    // the session itself; each non-diagonal term draws from its cached
    // rotated-basis sub-session (one per rotation signature, rebound across
    // calls — the fallback no longer re-pays structure planning per call).
    std::vector<std::uint64_t> baseSamples;
    bool haveBase = false;
    bool sampled = false;
    for (const auto& [coeff, pauli] : observable.terms) {
        if (pauli.isIdentity()) {
            total += coeff;
            continue;
        }
        if (shots == 0) {
            // Zero-shot requests are fine on native-exact paths, but here
            // they would silently return garbage (a 0 "estimate" per term).
            throw std::invalid_argument(
                "Expectation: backend " + info_.name +
                " must estimate this observable from samples for the bound "
                "circuit, but shots == 0");
        }
        if (pauli.isDiagonal()) {
            if (!haveBase) {
                baseSamples = doSample(shots, rng, meta);
                meta.fallbackShots += shots;
                haveBase = true;
            }
            total += coeff * pauli.expectationFromSamples(baseSamples);
        } else {
            const Result r = rotatedSession(pauli).run(Sample{shots}, rng);
            meta.trajectories += r.meta.trajectories;
            meta.fallbackShots += shots;
            total += coeff * pauli.expectationFromSamples(r.samples);
        }
        sampled = true;
    }
    // The estimate is exact only if no term actually needed samples.
    meta.exact = !sampled;
    return total;
}

Session&
Session::rotatedSession(const PauliString& pauli)
{
    // Key on the rotation pattern: the X/Y factors determine the appended
    // basis-change gates (H for X, Sdg-then-H for Y); Z and I add nothing.
    // Terms sharing the pattern share one sub-session, and parameter
    // rebinds of the base circuit flow through Session::bind — the cached
    // sub-plan is refreshed, never rebuilt.
    const std::pair key{pauli.xMask(), pauli.xMask() & pauli.zMask()};
    const Circuit rotated = pauli.withMeasurementBasis(circuit_);
    auto it = rotatedSessions_.find(key);
    if (it == rotatedSessions_.end())
        it = rotatedSessions_
                 .emplace(key, info_.open(info_, rotated, options_))
                 .first;
    else
        it->second->bind(rotated);
    return *it->second;
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

std::vector<std::uint64_t>
Backend::sample(const Circuit& circuit, std::size_t shots, Rng& rng) const
{
    return open(circuit)->run(Sample{shots}, rng).samples;
}

std::vector<Result>
Backend::runBatch(const std::vector<ParamBinding>& bindings, const Task& task,
                  Rng& rng) const
{
    if (bindings.empty())
        return {};
    return open(bindings.front())->runBatch(bindings, task, rng);
}

// ---------------------------------------------------------------------------
// Registry metadata
// ---------------------------------------------------------------------------

const char*
taskName(std::size_t taskIndex)
{
    static const char* const names[] = {"sample", "expectation",
                                        "amplitudes", "probabilities"};
    static_assert(std::size(names) == std::variant_size_v<Task>);
    return names[taskIndex];
}

namespace {

/** One task's cells as text, e.g. "amplitudes: exact, ideal only". */
std::string
describeTask(const BackendInfo& info, std::size_t t)
{
    const auto label = [&](Support s) -> std::string {
        switch (s) {
          case Support::No: return "not served";
          case Support::Exact: return "exact";
          case Support::Sampled: return "sampled";
          default:
            return "exact within the " +
                   std::to_string(info.exactQueryQubits) +
                   "-qubit query limit";
        }
    };
    const TaskSupport& c = info.tasks[t];
    std::string cells;
    if (c.ideal == c.noisy)
        cells = label(c.ideal) +
                (c.ideal == Support::No ? "" : ", ideal and noisy");
    else if (c.noisy == Support::No)
        cells = label(c.ideal) + ", ideal only";
    else if (c.ideal == Support::No)
        cells = label(c.noisy) + ", noisy only";
    else
        cells = label(c.ideal) + " ideal, " + label(c.noisy) + " noisy";
    return std::string(taskName(t)) + ": " + cells;
}

} // namespace

Support
BackendInfo::support(const Task& task, const Circuit& circuit) const
{
    const TaskSupport& c = tasks[task.index()];
    return circuit.noiseCount() > 0 ? c.noisy : c.ideal;
}

std::string
BackendInfo::refusal(const Task& task, const Circuit& circuit) const
{
    const Support cell = support(task, circuit);
    const char* what = taskName(task.index());
    if (cell == Support::No)
        return "backend " + name + " does not serve " + what + " on " +
               (circuit.noiseCount() > 0 ? "noisy" : "ideal") +
               " circuits (" + describeTask(*this, task.index()) + ")";
    if (cell == Support::Limited &&
        !std::holds_alternative<Expectation>(task) &&
        !withinQueryLimit(circuit))
        return "backend " + name + " serves " + what + " only within its " +
               std::to_string(exactQueryQubits) +
               "-qubit query limit (2^n outcomes times noise assignments), "
               "and this circuit is past it";
    return {};
}

bool
BackendInfo::withinQueryLimit(const Circuit& circuit) const
{
    // The limit stays far below 2^64 / (Kraus count), so no product wraps.
    if (circuit.numQubits() > exactQueryQubits)
        return false;
    const std::uint64_t limit = std::uint64_t{1} << exactQueryQubits;
    std::uint64_t passes = std::uint64_t{1} << circuit.numQubits();
    for (const Operation& op : circuit.operations()) {
        if (const auto* ch = std::get_if<NoiseChannel>(&op)) {
            passes *= ch->krausOperators().size();
            if (passes > limit)
                return false;
        }
    }
    return true;
}

std::string
BackendInfo::tasksText() const
{
    std::string out;
    for (std::size_t t = 0; t < tasks.size(); ++t)
        out += (t ? "; " : "") + describeTask(*this, t);
    return out;
}

const std::vector<std::string>&
backendNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const BackendInfo& info : backendRegistry())
            v.push_back(info.name);
        return v;
    }();
    return names;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

namespace {

using OptionMap = std::map<std::string, std::string>;

/** Splits "name:k1=v1,k2=v2" into the base name and its option map. */
OptionMap
parseOptionString(const std::string& spec, std::string& name)
{
    OptionMap options;
    const auto colon = spec.find(':');
    name = spec.substr(0, colon);
    if (colon == std::string::npos)
        return options;

    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        const auto comma = rest.find(',', pos);
        const std::string item =
            rest.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const auto eq = item.find('=');
        if (item.empty() || eq == std::string::npos || eq == 0) {
            throw std::invalid_argument(
                "makeBackend: malformed option \"" + item + "\" in \"" +
                spec + "\" (expected key=value, comma-separated)");
        }
        options[item.substr(0, eq)] = item.substr(eq + 1);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return options;
}

/** An integer option: its range and the BackendOptions field it sets. */
struct IntOption {
    const char* key;
    long min;
    long max;
    void (*store)(BackendOptions& options, long value);
};

/** Every integer key a registry entry may list (simd parses by name). */
const IntOption kIntOptions[] = {
    {"threads", 0, LONG_MAX,
     [](BackendOptions& o, long v) { o.threads = std::size_t(v); }},
    {"fuse", 0, 1, [](BackendOptions& o, long v) { o.fuse = v == 1; }},
    {"burnin", 0, LONG_MAX,
     [](BackendOptions& o, long v) { o.burnIn = std::size_t(v); }},
    {"thin", 1, LONG_MAX,
     [](BackendOptions& o, long v) { o.thin = std::size_t(v); }},
    {"gc", 0, 1, [](BackendOptions& o, long v) { o.gc = v == 1; }},
    {"gcthreshold", 1, LONG_MAX,
     [](BackendOptions& o, long v) { o.gcThreshold = std::size_t(v); }},
    {"obs", 0, 1, [](BackendOptions& o, long v) { o.obs = v == 1; }},
};

long
parseIntOption(const std::string& key, const std::string& value)
{
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        throw std::invalid_argument("makeBackend: option " + key +
                                    " needs an in-range integer, got \"" +
                                    value + "\"");
    }
    return v;
}

} // namespace

const BackendInfo&
backendInfo(const std::string& name)
{
    for (const BackendInfo& info : backendRegistry()) {
        if (info.name == name)
            return info;
        for (const std::string& alias : info.aliases)
            if (alias == name)
                return info;
    }
    std::string known;
    for (const std::string& n : backendNames())
        known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("makeBackend: unknown backend \"" + name +
                                "\" (known: " + known + ")");
}

BackendSpec
parseBackendSpec(const std::string& spec)
{
    std::string name;
    OptionMap options = parseOptionString(spec, name);
    const BackendInfo* info = &backendInfo(name);

    BackendSpec result;
    result.name = info->name;

    for (const auto& [key, value] : options) {
        const bool accepted =
            std::find(info->optionKeys.begin(), info->optionKeys.end(),
                      key) != info->optionKeys.end();
        if (!accepted) {
            std::string known;
            for (const std::string& k : info->optionKeys)
                known += (known.empty() ? "" : ", ") + k;
            throw std::invalid_argument(
                "makeBackend: unknown option \"" + key + "\" for backend " +
                info->name +
                (known.empty() ? " (it accepts no options)"
                               : " (valid: " + known + ")"));
        }
        // simd takes a named level, not an integer — dispatch before the
        // integer parse. (parseSimdMode also accepts the 0/1 digit forms,
        // mirroring the obs knob.)
        if (key == "simd") {
            SimdMode mode;
            if (!parseSimdMode(value, &mode))
                throw std::invalid_argument(
                    "makeBackend: option simd must be auto, off, avx2 or "
                    "avx512, got \"" + value + "\"");
            result.options.simd = mode;
            continue;
        }
        const IntOption* rule = nullptr;
        for (const IntOption& r : kIntOptions)
            if (key == r.key)
                rule = &r;
        if (!rule)
            throw std::logic_error("parseBackendSpec: registry advertises "
                                   "option \"" + key +
                                   "\" but kIntOptions has no rule for it");
        const long v = parseIntOption(key, value);
        if (v < rule->min || v > rule->max)
            throw std::invalid_argument(
                "makeBackend: option " + key +
                (rule->max == 1 ? " must be 0 or 1"
                                : " must be >= " + std::to_string(rule->min)));
        rule->store(result.options, v);
    }
    return result;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

std::vector<double>
marginalizeDistribution(const std::vector<double>& dist,
                        std::size_t numQubits,
                        const std::vector<std::size_t>& qubits)
{
    if (qubits.empty())
        return dist;
    std::uint64_t seen = 0;
    for (std::size_t q : qubits) {
        if (q >= numQubits)
            throw std::invalid_argument(
                "Probabilities: marginal qubit out of range");
        if (seen & (std::uint64_t{1} << q))
            throw std::invalid_argument(
                "Probabilities: repeated marginal qubit");
        seen |= std::uint64_t{1} << q;
    }
    std::vector<double> out(std::size_t{1} << qubits.size(), 0.0);
    for (std::size_t x = 0; x < dist.size(); ++x) {
        std::size_t idx = 0;
        for (std::size_t q : qubits)
            idx = (idx << 1) |
                  ((x >> (numQubits - 1 - q)) & std::size_t{1});
        out[idx] += dist[x];
    }
    return out;
}

} // namespace qkc
