/**
 * Ablation for the paper's central reuse claim (Section 3.2.1): a
 * variational loop that refreshes the compiled AC's weight leaves versus
 * one that recompiles the circuit on every optimizer iteration. The ratio
 * is the amortization benefit knowledge compilation delivers to
 * variational workloads.
 */
#include <cstdio>

#include "ac/kc_simulator.h"
#include "bench_common.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "vqa/backends.h"

using namespace qkc;

namespace {

/**
 * The same ablation through the Session API, for the dense backends: the
 * per-iteration *structure* cost of reopening a session — greedy fusion
 * plus kernel classification — versus rebinding one open session, which
 * replays the recorded fusion recipe and refreshes the compiled kernels
 * in place. Task execution time is identical either way, so the loops
 * time open/bind alone: exactly the work a planReuses increment certifies
 * was skipped. The dm row is the point of the ISSUE 5 fix — it previously
 * claimed reuse while re-running both inside every simulate call.
 */
void
sessionRebindRow(const char* spec, std::size_t qubits, std::size_t iterations)
{
    auto backend = makeBackend(spec);
    Circuit base = bench::qaoaCircuit(qubits, 2, 19);
    const auto paramIdx = base.parameterizedGateIndices();

    auto bindingAt = [&](std::size_t it) {
        Circuit c = base;
        for (std::size_t idx : paramIdx)
            c.setGateParam(idx, -0.5 + 0.01 * static_cast<double>(it));
        return c;
    };

    // Strategy A: reopen (re-plan) each iteration.
    obs::TimedSpan tA("bench.reopen");
    for (std::size_t it = 0; it < iterations; ++it)
        backend->open(bindingAt(it));
    const double reopen = tA.seconds();
    tA.finish();

    // Strategy B: open once, rebind parameters.
    auto session = backend->open(base);
    obs::TimedSpan tB("bench.rebind");
    for (std::size_t it = 0; it < iterations; ++it)
        session->bind(bindingAt(it));
    const double rebind = tB.seconds();
    tB.finish();

    std::printf("%-14s %zu\t%.3f\t%.3f\t%.1fx\t(planBuilds=%zu "
                "planReuses=%zu)\n",
                backend->name().c_str(), qubits, reopen, rebind,
                reopen / rebind, session->planBuilds(),
                session->planReuses());
    bench::JsonRow("refresh_speedup")
        .field("section", "session_rebind")
        .field("backend", backend->name())
        .field("qubits", qubits)
        .field("reopen_sec", reopen)
        .field("rebind_sec", rebind)
        .field("speedup", reopen / rebind);
}

/**
 * The dd flavor of the rebind ablation. Diagram contents are
 * value-dependent, so a dd bind is lazy — open/bind alone measures
 * nothing. Each iteration therefore runs one cheap task (a single
 * amplitude), forcing the state build either into a brand-new package
 * (reopen) or into the session's persistent, garbage-collected package
 * (rebind), where collected nodes come back through the free lists and
 * the unique/complex tables keep their bucket storage warm. Before
 * ISSUE 6 gave DdPackage a GC, rebinding rebuilt the world exactly like
 * reopening and this row would sit at 1.0x.
 *
 * The workload is a GHZ ladder with parameterized rotation layers — the
 * structured, linear-size-diagram regime dd exists for. On a dense-state
 * workload (QAOA on a random graph) the 2^n-path diagram build dominates
 * both strategies identically and the structural saving is invisible,
 * the same reason the dm row caps its qubit count above.
 */
void
ddRebindRow(std::size_t qubits, std::size_t iterations)
{
    auto backend = makeBackend("dd");
    Circuit base(qubits);
    base.h(0);
    for (std::size_t q = 1; q < qubits; ++q)
        base.cnot(q - 1, q);
    for (std::size_t q = 0; q < qubits; ++q)
        base.rz(q, 0.3);
    const auto paramIdx = base.parameterizedGateIndices();

    auto bindingAt = [&](std::size_t it) {
        Circuit c = base;
        for (std::size_t idx : paramIdx)
            c.setGateParam(idx, -0.5 + 0.01 * static_cast<double>(it));
        return c;
    };
    const Task task = Amplitudes{{0}};

    // Strategy A: reopen (fresh package) each iteration.
    Rng rngA(19);
    obs::TimedSpan tA("bench.reopen");
    for (std::size_t it = 0; it < iterations; ++it)
        backend->open(bindingAt(it))->run(task, rngA);
    const double reopen = tA.seconds();
    tA.finish();

    // Strategy B: open once, rebind into the persistent package.
    auto session = backend->open(base);
    Rng rngB(19);
    obs::TimedSpan tB("bench.rebind");
    for (std::size_t it = 0; it < iterations; ++it) {
        session->bind(bindingAt(it));
        session->run(task, rngB);
    }
    const double rebind = tB.seconds();
    tB.finish();

    std::printf("%-14s %zu\t%.3f\t%.3f\t%.1fx\t(planBuilds=%zu "
                "planReuses=%zu)\n",
                backend->name().c_str(), qubits, reopen, rebind,
                reopen / rebind, session->planBuilds(),
                session->planReuses());
    bench::JsonRow("refresh_speedup")
        .field("section", "session_rebind")
        .field("backend", backend->name())
        .field("qubits", qubits)
        .field("reopen_sec", reopen)
        .field("rebind_sec", rebind)
        .field("speedup", reopen / rebind);
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    const std::size_t iterations =
        static_cast<std::size_t>(cli.getInt("iterations", 50));
    const std::size_t maxQubits =
        static_cast<std::size_t>(cli.getInt("max-qubits", 20));

    bench::printHeader(
        "Variational reuse: refresh-leaves vs recompile-per-iteration (" +
            std::to_string(iterations) + " iterations)",
        "qubits\trecompile_s\trefresh_s\tspeedup");

    for (std::size_t n = 8; n <= maxQubits; n += 4) {
        Circuit base = bench::qaoaCircuit(n, 1, 19);
        auto paramIdx = base.parameterizedGateIndices();

        // Strategy A: recompile each iteration.
        obs::TimedSpan tA("bench.recompile");
        for (std::size_t it = 0; it < iterations; ++it) {
            Circuit c = base;
            for (std::size_t idx : paramIdx)
                c.setGateParam(idx, -0.5 + 0.01 * static_cast<double>(it));
            KcSimulator kc(c);
            kc.amplitude(0);
        }
        double recompile = tA.seconds();
        tA.finish();

        // Strategy B: compile once, refresh leaves.
        obs::TimedSpan tB("bench.refresh");
        KcSimulator kc(base);
        for (std::size_t it = 0; it < iterations; ++it) {
            Circuit c = base;
            for (std::size_t idx : paramIdx)
                c.setGateParam(idx, -0.5 + 0.01 * static_cast<double>(it));
            kc.refreshParams(c);
            kc.amplitude(0);
        }
        double refresh = tB.seconds();
        tB.finish();

        std::printf("%zu\t%.3f\t%.3f\t%.1fx\n", n, recompile, refresh,
                    recompile / refresh);
        bench::JsonRow("refresh_speedup")
            .field("section", "kc_refresh")
            .field("qubits", n)
            .field("recompile_sec", recompile)
            .field("refresh_sec", refresh)
            .field("speedup", recompile / refresh);
    }

    bench::printHeader(
        "Session rebind vs reopen, dense backends (" +
            std::to_string(iterations) + " iterations)",
        "backend        qubits\treopen_s\trebind_s\tspeedup");
    sessionRebindRow("sv:threads=1", std::min<std::size_t>(maxQubits, 16),
                     iterations);
    // dm at 8 qubits: past this the 4^n superoperator sweeps drown the
    // classification cost the rebind saves, understating the plan's value.
    sessionRebindRow("dm:threads=1", std::min<std::size_t>(maxQubits, 8),
                     iterations);
    ddRebindRow(maxQubits, iterations);
    return 0;
}
