// One-off reference figures for the README, printed as a table (not a
// timed workload, and not part of the result line the runs print):
//   (a) simulate / probabilities / sample times of 20-qubit QAOA p=1 and
//       p=2 at 1 thread and at up to 4, with the planned kernel mix;
//   (b) the kc set-up split across bayesnet, cnf and knowledge;
//   (c) densitymatrix and sv-trajectory sampling on the qaoa-noisy-kc
//       circuit next to kc (the paper's Fig. 9 comparison);
//   (d) the streaming-copy floor at the state size.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "ac/kc_simulator.h"
#include "bayesnet/bayes_net.h"
#include "circuit/qasm.h"
#include "cnf/bn_to_cnf.h"
#include "exec/execution_plan.h"
#include "knowledge/compiler.h"
#include "statevector/statevector_simulator.h"
#include "vqa/backends.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** Median milliseconds of `reps` calls of fn. */
template <class F>
double
medianMs(int reps, F&& fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        fn();
        ms.push_back((nowSeconds() - t0) * 1e3);
    }
    return median(ms);
}

const char*
opName(qkc::GateKernel::Op op)
{
    switch (op) {
      case qkc::GateKernel::Op::Identity: return "identity";
      case qkc::GateKernel::Op::GlobalPhase: return "phase";
      case qkc::GateKernel::Op::Diag: return "diag";
      case qkc::GateKernel::Op::Perm: return "perm";
      case qkc::GateKernel::Op::Generic: return "generic";
    }
    return "?";
}

} // namespace

int
runFigures(const Config& cfg)
{
    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t wide = std::min<std::size_t>(4, nproc);
    std::printf("# host: nproc %zu; seed %llu\n", nproc,
                static_cast<unsigned long long>(cfg.seed));

    // (a) -------------------------------------------------------------------
    std::printf("\n(a) 20-qubit QAOA on statevector, ms (median of 7)\n");
    std::printf("%-4s %-8s %10s %10s %10s %9s  %s\n", "p", "threads", "simulate",
                "probs", "sample", "GB/s", "planned kernels");
    for (std::size_t p : {std::size_t{1}, std::size_t{2}}) {
        QaoaInstance inst = svInstance(cfg.seed);
        inst.p = p;
        InputRng rng(streamSeed(cfg.seed, 2));
        const qkc::Circuit c = qaoaCircuit(inst, freshAngles(inst, rng));
        for (std::size_t threads : {std::size_t{1}, wide}) {
            qkc::ExecPolicy policy;
            policy.threads = threads;
            const qkc::ExecutionPlan plan = qkc::planCircuit(c, policy);
            const qkc::StateVectorSimulator sim(policy);
            std::vector<double> probs;
            const double simMs = medianMs(7, [&] { sim.simulatePlanned(plan); });
            const qkc::StateVector state = sim.simulatePlanned(plan);
            const double probsMs = medianMs(7, [&] { probs = state.probabilities(); });
            qkc::Rng srng(1);
            const double sampleMs = medianMs(7, [&] {
                qkc::StateVectorSimulator::sampleFromDistribution(probs, kSvShots, srng);
            });
            std::size_t counts[5] = {};
            for (const qkc::PlannedOp& op : plan.ops)
                ++counts[static_cast<int>(op.gate.op)];
            std::string mix;
            for (int k = 0; k < 5; ++k)
                if (counts[k])
                    mix += std::to_string(counts[k]) + " " +
                           opName(static_cast<qkc::GateKernel::Op>(k)) + " ";
            const double bytes = 2.0 * 16.0 * static_cast<double>(1u << inst.n) *
                                 static_cast<double>(plan.ops.size());
            std::printf("%-4zu %-8zu %10.2f %10.2f %10.2f %9.1f  %zu: %s\n", p,
                        threads, simMs, probsMs, sampleMs, bytes / simMs / 1e6,
                        plan.ops.size(), mix.c_str());
        }
    }

    // (b) -------------------------------------------------------------------
    const QaoaInstance kcInst = kcInstance(cfg.seed);
    InputRng krng(streamSeed(cfg.seed, 2));
    const std::vector<double> kcAngles = freshAngles(kcInst, krng);
    const std::string kcQasm = qaoaQasm(kcInst, kcAngles);
    const qkc::Circuit noisy = qkc::parseQasm(kcQasm);
    std::printf("\n(b) qaoa-noisy-kc set-up split, ms (median of 5)\n");
    qkc::QuantumBayesNet bn;
    qkc::Cnf cnf;
    const double parseMs = medianMs(5, [&] { qkc::parseQasm(kcQasm); });
    const double bnMs = medianMs(5, [&] { bn = qkc::circuitToBayesNet(noisy); });
    const double cnfMs = medianMs(5, [&] { cnf = qkc::bayesNetToCnf(bn); });
    std::size_t acNodes = 0;
    const double compileMs = medianMs(5, [&] {
        qkc::KnowledgeCompiler compiler;
        acNodes = compiler.compile(cnf).numNodes();
    });
    const double openMs = medianMs(5, [&] {
        qkc::KnowledgeCompilationBackend().open(qkc::parseQasm(kcQasm));
    });
    std::printf("parse %.3f  bayesnet %.3f  cnf %.3f (%zu clauses)  knowledge "
                "%.3f (%zu AC nodes)  whole open %.3f\n",
                parseMs, bnMs, cnfMs, cnf.numClauses(), compileMs, acNodes, openMs);

    // (c) -------------------------------------------------------------------
    std::printf("\n(c) Sample{%zu} on the qaoa-noisy-kc circuit, 1 thread, ms "
                "(median of 3)\n", kKcShots);
    std::printf("%-26s %10s %10s\n", "backend", "open", "sample");
    for (const char* spec : {"densitymatrix:threads=1", "statevector:threads=1",
                             "knowledgecompilation"}) {
        std::unique_ptr<qkc::Session> s;
        const double open = medianMs(3, [&] {
            s = qkc::makeBackend(spec)->open(noisy);
        });
        qkc::Rng rng(3);
        const double sample = medianMs(3, [&] {
            s->bind(noisy);
            s->run(qkc::Sample{kKcShots}, rng);
        });
        std::printf("%-26s %10.2f %10.2f\n", spec, open, sample);
    }

    // (d) -------------------------------------------------------------------
    const std::size_t stateBytes = 16u << kSvQubits;
    std::printf("\n(d) streaming copy of %zu bytes (the 20-qubit state), GB/s "
                "read+write\n", stateBytes);
    for (std::size_t threads = 1; threads <= wide; threads *= 2)
        std::printf("threads %zu: %.1f\n", threads, copyGbps(stateBytes, threads));
    return 0;
}

} // namespace perfbench
