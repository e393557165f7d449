// qaoa-noisy-kc: the paper's own regime. A noisy QAOA circuit (0.5%
// depolarizing after every gate) is compiled once by the knowledge-
// compilation backend; each operation binds fresh angles (a leaf refresh
// of the compiled arithmetic circuit) and draws Gibbs samples from it.
//
// The compiled circuit's size depends on the graph, so an untraced run
// keeps kInstances graphs open, one session each, and its operations take
// turns on them: set-up time and memory then average over graphs instead
// of following the one graph a seed happens to draw.
#include <memory>

#include "ac/kc_simulator.h"
#include "bayesnet/bayes_net.h"
#include "circuit/qasm.h"
#include "cnf/bn_to_cnf.h"
#include "knowledge/compiler.h"
#include "reference.h"
#include "vqa/backends.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kInstances = 3;   ///< graphs (sessions) per untraced run
constexpr std::size_t kSetupReps = 3;   ///< set-up repetitions before the loop
constexpr std::size_t kSetupEvery = 12; ///< one more repetition per this many ops
/** Operations per block of cpu_ms_per_op: two turns over the graphs, about 3 s. */
constexpr std::size_t kBlockOps = 2 * kInstances;
/**
 * Independent chains pooled by the check. With twelve, the per-chain means
 * give the standard error 11 degrees of freedom, and a correct program
 * lands outside 6 standard errors in fewer than 1 run in 10^4.
 */
constexpr std::size_t kChains = 12;

} // namespace

RunResult
runKcWorkload(const Config& cfg)
{
    RunResult r;
    // The traced run breaks the first graph's work into layers and compares
    // its sessions on that graph alone.
    const std::size_t graphs = cfg.trace ? 1 : kInstances;
    std::vector<QaoaInstance> insts;
    std::vector<std::string> qasm;
    InputRng angleRng(streamSeed(cfg.seed, 2));
    for (std::size_t k = 0; k < graphs; ++k) {
        insts.push_back(kcInstance(cfg.seed, k));
        qasm.push_back(qaoaQasm(insts.back(), freshAngles(insts.back(), angleRng)));
    }
    const QaoaInstance& inst = insts.front();
    const qkc::Task task = qkc::Sample{kKcShots};

    qkc::BackendOptions opts;
    opts.obs = false;
    qkc::BackendOptions tracedOpts = opts;
    tracedOpts.obs = true;
    const qkc::KnowledgeCompilationBackend backend;

    // -- set-up: QASM text -> compiled session -------------------------------
    // One repetition compiles every graph and counts the time per graph
    // (compile time varies up to 2x between graphs of one size). A few
    // repetitions run before the loop and one after every kSetupEvery-th
    // operation, so the median spans the run as well.
    std::vector<double> setup;
    auto setupRep = [&]() {
        std::vector<std::unique_ptr<qkc::Session>> opened;
        const double t0 = nowSeconds();
        for (std::size_t k = 0; k < graphs; ++k)
            opened.push_back(backend.open(qkc::parseQasm(qasm[k]), opts));
        const double seconds = nowSeconds() - t0;
        setup.push_back(seconds / static_cast<double>(graphs));
        return opened;
    };
    std::vector<std::unique_ptr<qkc::Session>> sessions;
    for (std::size_t i = 0; i < kSetupReps; ++i)
        sessions = setupRep();
    std::unique_ptr<qkc::Session> traced;

    // -- traced run: the pipeline stages, called directly ---------------------
    std::vector<double> parseMs, bnMs, cnfMs, compileMs;
    qkc::CompileStats stats;
    std::size_t clauses = 0, acNodes = 0, acEdges = 0;
    std::unique_ptr<qkc::KcSimulator> sim;
    qkc::GibbsOptions gibbs;
    gibbs.burnIn = opts.burnIn;
    gibbs.thin = opts.thin;
    if (cfg.trace) {
        traced = backend.open(qkc::parseQasm(qasm[0]), tracedOpts);
        for (std::size_t i = 0; i < 5; ++i) {
            LayerTimer tp("circuit.qasm_parse");
            const qkc::Circuit c = qkc::parseQasm(qasm[0]);
            parseMs.push_back(tp.stopMs());
            LayerTimer tb("bayesnet.build");
            const qkc::QuantumBayesNet bn = qkc::circuitToBayesNet(c);
            bnMs.push_back(tb.stopMs());
            LayerTimer tc("cnf.encode");
            const qkc::Cnf cnf = qkc::bayesNetToCnf(bn);
            cnfMs.push_back(tc.stopMs());
            qkc::KnowledgeCompiler compiler;
            LayerTimer tk("knowledge.compile");
            const qkc::ArithmeticCircuit ac = compiler.compile(cnf);
            compileMs.push_back(tk.stopMs());
            stats = compiler.stats();
            clauses = cnf.numClauses();
            acNodes = ac.numNodes();
            acEdges = ac.numEdges();
        }
        sim = std::make_unique<qkc::KcSimulator>(qkc::parseQasm(qasm[0]));
    }

    /** One operation's wall-clock and CPU times. */
    struct OpTimes {
        double ms = 0.0;
        double bindMs = 0.0;
        double cpuMs = 0.0;
    };
    auto runOp = [&](qkc::Session& s, const qkc::Circuit& c,
                     std::uint64_t rngSeed, std::uint64_t opId,
                     std::vector<std::uint64_t>* samples) {
        qkc::Rng rng(rngSeed);
        const bool record = opId != 0;
        OpTimes t;
        const double cpu0 = processCpuSeconds();
        LayerTimer op("op", opId, 0, 0, record);
        LayerTimer b("vqa.bind", opId, op.id(), 0, record);
        s.bind(c);
        t.bindMs = b.stopMs();
        LayerTimer run("vqa.run", opId, op.id(), 0, record);
        *samples = s.run(task, rng).samples;
        run.stopMs();
        t.ms = op.stopMs();
        t.cpuMs = (processCpuSeconds() - cpu0) * 1e3;
        return t;
    };
    auto checkShape = [&](const std::vector<std::uint64_t>& samples) {
        const std::string why = checkSampleShape(samples, kKcShots, inst.n);
        if (!why.empty())
            r.fail(why);
    };

    {
        std::vector<std::uint64_t> warm;
        for (std::size_t k = 0; k < graphs; ++k)
            runOp(*sessions[k], qkc::parseQasm(qasm[k]), 7, 0, &warm);
        if (traced)
            runOp(*traced, qkc::parseQasm(qasm[0]), 7, 0, &warm);
    }

    std::vector<double> opMs, cpuMs, tracedMs, bindMs, refreshMs, gibbsMs;
    std::vector<double> checkAngles;
    std::vector<std::vector<std::uint64_t>> chains;
    const double t0 = nowSeconds();
    std::uint64_t iter = 0;
    while (nowSeconds() - t0 < cfg.seconds) {
        const std::size_t k = iter % graphs;
        const std::vector<double> angles = freshAngles(insts[k], angleRng);
        const qkc::Circuit c = qaoaCircuit(insts[k], angles);
        const std::uint64_t rngSeed = streamSeed(cfg.seed, 1000 + iter);
        ++iter;
        try {
            std::vector<std::uint64_t> samples;
            ++r.attempted;
            const OpTimes t = runOp(*sessions[k], c, rngSeed, 0, &samples);
            opMs.push_back(t.ms);
            cpuMs.push_back(t.cpuMs);
            checkShape(samples);
            if (chains.empty()) {
                checkAngles = angles;
                chains.push_back(samples);
            }
            if (!cfg.trace) {
                if (iter % kSetupEvery == 0)
                    setupRep();
                continue;
            }

            ++r.attempted;
            const OpTimes tt = runOp(*traced, c, rngSeed, iter, &samples);
            tracedMs.push_back(tt.ms);
            bindMs.push_back(tt.bindMs);
            checkShape(samples);

            LayerTimer tr("ac.refresh", iter);
            sim->refreshParams(c);
            refreshMs.push_back(tr.stopMs());
            qkc::Rng rng(rngSeed);
            LayerTimer tg("ac.gibbs", iter);
            sim->sample(kKcShots, rng, gibbs);
            gibbsMs.push_back(tg.stopMs());
        } catch (const std::exception& e) {
            ++r.failed;
            r.note(std::string("operation failed: ") + e.what());
        }
    }
    const double rss = peakRssMb(), vm = vmSizeMb();

    // -- check: pooled chains at the first binding vs the density matrix ----
    if (chains.empty()) {
        r.fail("no operation completed");
    } else {
        const qkc::Circuit c = qaoaCircuit(inst, checkAngles);
        for (std::uint64_t j = 1; j < kChains; ++j) {
            sessions[0]->bind(c);
            qkc::Rng rng(streamSeed(cfg.seed, 500000 + j));
            chains.push_back(sessions[0]->run(task, rng).samples);
            checkShape(chains.back());
        }
        const CutMoments ref =
            cutMoments(inst, referenceNoisyProbabilities(inst, checkAngles));
        const std::string why = checkGibbsPooled(inst, chains, ref);
        if (!why.empty())
            r.fail(why);
    }
    for (const auto& s : sessions)
        if (s->planBuilds() != 1)
            r.fail("a session recompiled (planBuilds " +
                   std::to_string(s->planBuilds()) + "), expected refreshes");
    r.note("instances: " + std::to_string(graphs) + " graphs of " +
           std::to_string(inst.n) + " qubits, p=" + std::to_string(inst.p) +
           ", " + std::to_string(inst.edges.size()) + " edges, depolarizing " +
           std::to_string(inst.depolarizing) + " after every gate, Sample{" +
           std::to_string(kKcShots) + "} by Gibbs (burn-in " +
           std::to_string(opts.burnIn) + ")");

    if (!cfg.trace) {
        addEndToEnd(r, setup, opMs, blockMedian(cpuMs, kBlockOps),
                    1e3 / blockMedian(opMs, kBlockOps), rss, vm);
        return r;
    }

    const double gibbsMedian = median(gibbsMs);
    const double sweeps = static_cast<double>(gibbs.burnIn + kKcShots * gibbs.thin);
    r.add("circuit.qasm_parse_ms", median(parseMs), "ms");
    r.add("bayesnet.build_ms", median(bnMs), "ms");
    r.add("cnf.encode_ms", median(cnfMs), "ms");
    r.add("cnf.clauses", static_cast<double>(clauses), "count");
    r.add("knowledge.compile_ms", median(compileMs), "ms");
    r.add("knowledge.decisions", static_cast<double>(stats.decisions), "count");
    // Every component-cache miss makes exactly one decision, so lookups are
    // hits plus decisions.
    const double lookups = static_cast<double>(stats.cacheHits + stats.decisions);
    r.add("knowledge.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(stats.cacheHits) / lookups : 0.0,
          "ratio");
    r.add("ac.nodes", static_cast<double>(acNodes), "count");
    r.add("ac.edges", static_cast<double>(acEdges), "count");
    r.add("ac.refresh_ms", median(refreshMs), "ms");
    r.add("ac.gibbs_ms", gibbsMedian, "ms");
    r.add("ac.gibbs_sweeps_per_s", sweeps / (gibbsMedian / 1e3), "1/s");
    r.add("vqa.bind_ms", median(bindMs), "ms");
    r.add("vqa.layer_coverage",
          (median(refreshMs) + gibbsMedian) / median(tracedMs), "ratio");
    r.add("obs.tracing_overhead_pct",
          (median(tracedMs) / median(opMs) - 1.0) * 100.0, "%");
    return r;
}

} // namespace perfbench
