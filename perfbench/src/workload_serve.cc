// serve-vqa: closed-loop VQA clients against an in-process qkc_serverd
// stack (ServerCore behind HttpServer on loopback). Each client POSTs
// /v1/run with fresh angles on one connection per request, as the shipped
// client does, and waits for the reply before sending the next.
//
// Traffic mix: clients share two hot 12-qubit structures, so concurrent
// requests on one structure coalesce into one runBatch; every eighth
// request of a client goes to a cold structure (10 or 12 qubits) from a
// pool larger than the session cache, so it misses. Every request is a small
// `sv:threads=1` QAOA circuit: the simulation takes a fraction of a
// millisecond, and JSON, QASM parsing, admission, the cache, the coalescer
// and the transport dominate.
//
// The run sends rounds of requests until --seconds have passed. Each round
// starts a fresh server stack, warms its hot structures, lets every client
// send kRoundPerClient requests, and stops the server. Stopping joins the
// connection threads, so the stacks each connection leaves mapped until then
// are released between rounds: the connection count per server stays fixed
// (vmsize_mb compares like with like across builds) and far below the
// loopback port range and the process map-count limit.
#include <memory>
#include <thread>

#include "circuit/qasm.h"
#include "reference.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/json.h"
#include "server/server_core.h"
#include "vqa/simulator_api.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kColdPool = 32;        ///< structures beyond the cache
constexpr std::size_t kColdEvery = 8;        ///< every 8th request goes cold
constexpr std::size_t kShots = 256;
constexpr std::size_t kReplayEvery = 32;     ///< replayed subset
constexpr std::size_t kReplayRounds = 4;     ///< leading rounds replayed
constexpr std::size_t kRoundPerClient = 256; ///< requests per client per round
constexpr std::size_t kSetupReps = 8;        ///< before the first round
constexpr const char* kHost = "127.0.0.1";

/** A request body as the benchmark sends it (its own JSON escaping). */
std::string
runBody(const std::string& spec, const std::string& qasm, std::uint64_t seed)
{
    std::string q;
    for (char ch : qasm) {
        if (ch == '\n')
            q += "\\n";
        else if (ch == '"' || ch == '\\')
            q += std::string("\\") + ch;
        else
            q += ch;
    }
    return "{\"backend\": \"" + spec + "\", \"qasm\": \"" + q +
           "\", \"task\": \"sample\", \"shots\": " + std::to_string(kShots) +
           ", \"seed\": " + std::to_string(seed) + "}";
}

/** One request of the mix: which structure, its QASM and seed. */
struct Request {
    std::size_t structure = 0;
    std::vector<double> angles;
    std::string qasm;
    std::uint64_t seed = 0;
};

/** What a client saw for one request. */
struct Outcome {
    double ms = 0.0;
    bool ok = false;
    std::string error;
    std::vector<std::uint64_t> samples;
    double queueWaitMs = 0.0;
    bool cacheHit = false;
};

/** The request and structure mix, fixed by the seed. */
struct Mix {
    std::size_t hot = 1;                    ///< structures shared by clients
    std::vector<QaoaInstance> structures;   ///< [0, hot) hot, then cold

    /** Two clients share each hot structure. */
    Mix(std::uint64_t seed, std::size_t clients)
        : hot(std::max<std::size_t>(1, clients / 2))
    {
        for (std::size_t s = 0; s < hot + kColdPool; ++s) {
            InputRng rng(streamSeed(seed, 100 + s));
            QaoaInstance inst;
            // Hot structures share one size, so the bulk of the latencies
            // form one mode and the median sits inside it.
            inst.n = s < hot || s % 2 == 1 ? 12 : 10;
            inst.p = 1;
            inst.edges = random3Regular(inst.n, rng);
            structures.push_back(std::move(inst));
        }
    }

    /** Request k of client c (deterministic in seed, c, k). */
    Request request(std::uint64_t seed, std::size_t clients, std::size_t c,
                    std::size_t k) const
    {
        Request req;
        req.structure = k % kColdEvery == kColdEvery - 1
                            ? hot + (c + clients * (k / kColdEvery)) % kColdPool
                            : c % hot;
        InputRng rng(streamSeed(seed, (c << 32) + k + 7));
        req.angles = freshAngles(structures[req.structure], rng);
        req.qasm = qaoaQasm(structures[req.structure], req.angles);
        req.seed = rng.next() >> 1;
        return req;
    }
};

/** POSTs one request and checks the reply's shape. */
Outcome
post(std::uint16_t port, const std::string& body, std::size_t n,
     std::uint64_t opId, std::uint64_t thread)
{
    Outcome out;
    const double t0 = nowSeconds();
    LayerTimer span("op", opId, 0, thread, opId != 0);
    qkc::server::HttpReply reply;
    try {
        reply = qkc::server::httpPost(kHost, port, "/v1/run", body);
    } catch (const std::exception& e) {
        span.stopMs();
        out.error = std::string("transport: ") + e.what();
        return out;
    }
    span.stopMs();
    out.ms = (nowSeconds() - t0) * 1e3;
    out.error = readRunReply(reply.status, reply.body, kShots, n, &out.samples,
                             &out.queueWaitMs, &out.cacheHit);
    out.ok = out.error.empty();
    return out;
}

/** One closed-loop phase: `clients` threads, `perClient` requests each. */
struct Phase {
    std::vector<std::vector<Outcome>> byClient;
    std::vector<std::vector<Request>> requests;
    double seconds = 0.0;
    double cpuSeconds = 0.0;   ///< CPU time of the process: clients and server
};

Phase
runPhase(const Mix& mix, const Config& cfg, std::uint16_t port,
         const std::string& spec, std::size_t perClient, std::size_t firstK,
         bool traced)
{
    Phase ph;
    ph.byClient.resize(cfg.clients);
    ph.requests.resize(cfg.clients);
    for (std::size_t c = 0; c < cfg.clients; ++c)
        for (std::size_t k = 0; k < perClient; ++k)
            ph.requests[c].push_back(mix.request(cfg.seed, cfg.clients, c, firstK + k));
    const double t0 = nowSeconds();
    const double cpu0 = processCpuSeconds();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < cfg.clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t k = 0; k < perClient; ++k) {
                const Request& req = ph.requests[c][k];
                const std::uint64_t opId =
                    traced ? (c + 1) * 1000000000 + firstK + k + 1 : 0;
                ph.byClient[c].push_back(
                    post(port, runBody(spec, req.qasm, req.seed),
                         mix.structures[req.structure].n, opId, c + 1));
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    ph.seconds = nowSeconds() - t0;
    ph.cpuSeconds = processCpuSeconds() - cpu0;
    return ph;
}

/** One round: a fresh server stack, warmed up, serving one phase. */
struct Round {
    Phase phase;
    double vmStart = 0.0;        ///< VmSize with the server up, before traffic
    double vmEnd = 0.0;          ///< VmSize after the phase, before stop()
    std::size_t connections = 0; ///< connections the server accepted
    std::string stats;           ///< /v1/stats after the phase (when asked)
};

Round
runRound(const Mix& mix, const Config& cfg, const std::string& spec,
         std::size_t firstK, bool traced, bool readStats)
{
    Round rd;
    qkc::server::ServerCore core;
    qkc::server::HttpServer http(core, 0);
    const std::uint16_t port = http.port();
    rd.vmStart = vmSizeMb();
    // Warm-up: one untimed request per hot structure.
    for (std::size_t c = 0; c < mix.hot; ++c) {
        const Request req = mix.request(cfg.seed ^ 0x5a5a, cfg.clients, c, 0);
        post(port, runBody(spec, req.qasm, req.seed),
             mix.structures[req.structure].n, 0, 0);
    }
    rd.phase = runPhase(mix, cfg, port, spec, kRoundPerClient, firstK, traced);
    rd.vmEnd = vmSizeMb();
    rd.connections = mix.hot + cfg.clients * kRoundPerClient;
    if (readStats)
        rd.stats = qkc::server::httpGet(kHost, port, "/v1/stats").body;
    http.stop();
    return rd;
}

} // namespace

std::string
readRunReply(int status, const std::string& body, std::size_t shots,
             std::size_t n, std::vector<std::uint64_t>* samples,
             double* queueWaitMs, bool* cacheHit)
{
    if (status != 200)
        return "status " + std::to_string(status) + ": " + body;
    samples->clear();
    try {
        const qkc::server::Json doc = qkc::server::parseJson(body);
        const qkc::server::Json* results = doc.find("results");
        if (!results || !results->isArray() || results->size() != 1)
            return "bad reply: expected one result";
        const qkc::server::Json* s = results->at(0).find("samples");
        if (!s || !s->isArray())
            return "bad reply: the result has no samples";
        for (const qkc::server::Json& x : s->items())
            samples->push_back(x.asUInt64());
        if (const qkc::server::Json* w = doc.find("queueWaitNanos"))
            *queueWaitMs = static_cast<double>(w->asUInt64()) / 1e6;
        if (const qkc::server::Json* h = doc.find("cacheHit"))
            *cacheHit = h->asBool();
    } catch (const std::exception& e) {
        return std::string("bad reply: ") + e.what();
    }
    return checkSampleShape(*samples, shots, n);
}

RunResult
runServeWorkload(const Config& cfg)
{
    RunResult r;
    const Mix mix(cfg.seed, cfg.clients);
    const std::string spec = "sv:threads=1,obs=0";
    const std::string tracedSpec = "sv:threads=1,obs=1";

    // -- set-up: the server stack up, and QASM text -> a session ready for
    // every structure of the mix (what the cache opens on first touch).
    // A few repetitions run before the traffic and one after every round,
    // so the median does not hang on one moment of the host.
    std::vector<std::string> structureQasm;
    InputRng setupRng(streamSeed(cfg.seed, 3));
    for (const QaoaInstance& inst : mix.structures)
        structureQasm.push_back(qaoaQasm(inst, freshAngles(inst, setupRng)));
    std::vector<double> setup;
    auto setupReps = [&](std::size_t reps) {
        for (std::size_t i = 0; i < reps; ++i) {
            std::vector<std::unique_ptr<qkc::Session>> sessions;
            const double t0 = nowSeconds();
            qkc::server::ServerCore core;
            qkc::server::HttpServer http(core, 0);
            for (const std::string& q : structureQasm)
                sessions.push_back(qkc::makeBackend(spec)->open(qkc::parseQasm(q)));
            setup.push_back(nowSeconds() - t0);
            http.stop();
        }
    };
    setupReps(kSetupReps);

    // -- rounds until the window closes. The traced run alternates untraced
    // and traced rounds for its overhead comparison. Each round's outcomes
    // are folded in and dropped, so memory does not grow with the run.
    // opMs[0]: untraced rounds, opMs[1]: traced rounds
    std::vector<double> opMs[2], roundRate, roundCpuMs, vmEnd, vmPerConnection, waitMs;
    std::size_t hits = 0, served = 0, replayed = 0, rounds = 0;
    Phase lastTraced;
    std::string stats;
    auto replay = [&](const Phase& ph) {
        // Replay a fixed subset in process through Session::runBatch with
        // the same seeds: solo, coalesced and replayed payloads are
        // bit-identical. The reference then checks each replayed sample's
        // mean cut.
        for (std::size_t c = 0; c < cfg.clients; ++c) {
            for (std::size_t k = 0; k < ph.byClient[c].size(); k += kReplayEvery) {
                const Outcome& o = ph.byClient[c][k];
                if (!o.ok)
                    continue;
                const Request& req = ph.requests[c][k];
                const QaoaInstance& inst = mix.structures[req.structure];
                const qkc::Circuit circuit = qkc::parseQasm(req.qasm);
                auto session = qkc::makeBackend(spec)->open(circuit);
                const auto results =
                    session->runBatch({circuit}, qkc::Sample{kShots}, {req.seed});
                std::string why = checkIdentical(o.samples, results.front().samples);
                if (why.empty())
                    why = checkSampleMeanCut(
                        inst, o.samples,
                        cutMoments(inst, referenceProbabilities(inst, req.angles)));
                if (!why.empty())
                    r.fail("replay of client " + std::to_string(c) + " request with seed " +
                           std::to_string(req.seed) + ": " + why);
                ++replayed;
            }
        }
    };

    const double t0 = nowSeconds();
    std::size_t replayRounds = 0;
    while (nowSeconds() - t0 < cfg.seconds || rounds < (cfg.trace ? 2u : 1u)) {
        const bool traced = cfg.trace && rounds % 2 == 1;
        Round rd = runRound(mix, cfg, traced ? tracedSpec : spec,
                            rounds * kRoundPerClient, traced, cfg.trace);
        ++rounds;
        std::size_t ok = 0;
        for (std::size_t c = 0; c < cfg.clients; ++c) {
            for (const Outcome& o : rd.phase.byClient[c]) {
                ++r.attempted;
                if (!o.ok) {
                    ++r.failed;
                    if (r.failed <= 3)
                        r.note("request failed: " + o.error);
                    continue;
                }
                ++ok;
                opMs[traced].push_back(o.ms);
                if (traced == cfg.trace) {
                    waitMs.push_back(o.queueWaitMs);
                    hits += o.cacheHit;
                    ++served;
                }
            }
        }
        if (!traced) {
            roundRate.push_back(static_cast<double>(ok) / rd.phase.seconds);
            roundCpuMs.push_back(rd.phase.cpuSeconds * 1e3 /
                                 static_cast<double>(std::max<std::size_t>(ok, 1)));
            vmEnd.push_back(rd.vmEnd);
            vmPerConnection.push_back((rd.vmEnd - rd.vmStart) /
                                      static_cast<double>(rd.connections));
            if (replayRounds < kReplayRounds) {
                replay(rd.phase);
                ++replayRounds;
            }
        }
        stats = rd.stats;
        if (traced)
            lastTraced = std::move(rd.phase);
        setupReps(1);
    }
    const double rss = peakRssMb();
    if (replayed == 0)
        r.fail("no request was replayed");
    r.note("mix: " + std::to_string(cfg.clients) + " clients x " +
           std::to_string(kRoundPerClient) + " requests per round, " +
           std::to_string(rounds) + " rounds, " + std::to_string(mix.hot) +
           " hot structures (12q), 1 in " + std::to_string(kColdEvery) +
           " to a pool of " + std::to_string(kColdPool) +
           " cold structures, QAOA p=1, " + std::to_string(kShots) +
           " shots; " + std::to_string(replayed) + " replayed bit-identical");

    if (!cfg.trace) {
        addEndToEnd(r, setup, opMs[0], median(roundCpuMs), median(roundRate), rss,
                    median(vmEnd));
        return r;
    }

    // -- per-layer: the same bodies through ServerCore::handle, no socket ---
    qkc::server::ServerCore direct;
    std::vector<double> handleMs, parseMs;
    for (std::size_t c = 0; c < lastTraced.requests.size(); ++c) {
        for (const Request& req : lastTraced.requests[c]) {
            const std::string body = runBody(tracedSpec, req.qasm, req.seed);
            ++r.attempted;
            LayerTimer th("server.handle");
            const qkc::server::HttpResult res = direct.handle("POST", "/v1/run", body);
            handleMs.push_back(th.stopMs());
            if (res.status != 200) {
                ++r.failed;
                continue;
            }
            LayerTimer tq("circuit.qasm_parse");
            qkc::parseQasm(req.qasm);
            parseMs.push_back(tq.stopMs());
        }
    }
    // /v1/stats carries each histogram's count, sum and mean; the queue-wait
    // median therefore comes from the replies' own queueWaitNanos.
    double coalesce = 0.0;
    try {
        const qkc::server::Json doc = qkc::server::parseJson(stats);
        const qkc::server::Json* m = doc.find("metrics");
        const qkc::server::Json* w = m ? m->find("server.coalesce.width") : nullptr;
        const qkc::server::Json* mean = w ? w->find("mean") : nullptr;
        if (!mean)
            throw std::runtime_error("no server.coalesce.width mean");
        coalesce = mean->asDouble();
    } catch (const std::exception& e) {
        r.fail(std::string("/v1/stats: ") + e.what());
    }
    const double rttP50 = median(opMs[1]);
    r.add("server.op_ms_p99", quantile(opMs[0], 0.99), "ms");
    r.add("circuit.qasm_parse_ms", median(parseMs), "ms");
    r.add("server.handle_ms_p50", median(handleMs), "ms");
    r.add("server.transport_ms_p50", rttP50 - median(handleMs), "ms");
    r.add("server.cache_hit_ratio",
          served ? static_cast<double>(hits) / static_cast<double>(served) : 0.0,
          "ratio");
    r.add("server.coalesce_width_mean", coalesce, "count");
    r.add("server.queue_wait_ms_p50", median(waitMs), "ms");
    r.add("server.vmsize_mb_per_connection", median(vmPerConnection), "MB");
    r.add("obs.tracing_overhead_pct", (rttP50 / median(opMs[0]) - 1.0) * 100.0, "%");
    return r;
}

} // namespace perfbench
