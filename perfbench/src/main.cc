// qkc_perfbench: runs one benchmark workload and prints its result.
//
//   qkc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>] [--threads <n>] [--clients <n>]
//   qkc_perfbench --selftest
//   qkc_perfbench --figures [--seed <n>]
//
// The sv workloads sweep on one thread and serve-vqa runs min(4, nproc)
// clients: explicit counts, never more than the host has. On a shared host
// a sweep split over two threads waits at every kernel's barrier for the
// slower one, so its latency follows the hypervisor's steal.
// --threads and --clients override them, capped at nproc.
//
// Standard output: `# ` lines of run information, one `{"host": ...}` line
// of host context, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer metrics
// of one traced run, and the spans go to --trace-out.
#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "exec/simd.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** Every per-layer metric, in report order; a workload fills what it measures. */
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"circuit.qasm_parse_ms", "ms"},
    {"circuit.fuse_ms", "ms"},
    {"circuit.fused_kernels", "count"},
    {"exec.plan_ms", "ms"},
    {"exec.rebind_ms", "ms"},
    {"exec.simulate_ms", "ms"},
    {"exec.sweep_mb", "MB"},
    {"exec.sweep_gbps", "GB/s"},
    {"exec.copy_gbps", "GB/s"},
    {"sv.probs_ms", "ms"},
    {"sv.sample_ms", "ms"},
    {"vqa.bind_ms", "ms"},
    {"vqa.expectation_ms", "ms"},
    {"vqa.layer_coverage", "ratio"},
    {"bayesnet.build_ms", "ms"},
    {"cnf.encode_ms", "ms"},
    {"cnf.clauses", "count"},
    {"knowledge.compile_ms", "ms"},
    {"knowledge.decisions", "count"},
    {"knowledge.cache_hit_ratio", "ratio"},
    {"ac.nodes", "count"},
    {"ac.edges", "count"},
    {"ac.refresh_ms", "ms"},
    {"ac.gibbs_ms", "ms"},
    {"ac.gibbs_sweeps_per_s", "1/s"},
    {"server.op_ms_p99", "ms"},
    {"server.handle_ms_p50", "ms"},
    {"server.transport_ms_p50", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.coalesce_width_mean", "count"},
    {"server.queue_wait_ms_p50", "ms"},
    {"server.vmsize_mb_per_connection", "MB"},
    {"obs.tracing_overhead_pct", "%"},
};

/**
 * The traced result in the fixed per-layer order. A metric the workload
 * does not measure reads 0: that layer does no work in the workload's
 * operations (the README's layer map names where each one is measured).
 */
std::vector<Metric>
layerMetrics(const RunResult& r)
{
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerMetrics) {
        Metric m{name, 0.0, unit};
        for (const Metric& got : r.metrics)
            if (got.name == name)
                m.value = got.value;
        out.push_back(m);
    }
    for (const Metric& got : r.metrics) {
        bool known = false;
        for (const auto& [name, unit] : kLayerMetrics)
            known = known || got.name == name;
        if (!known)
            throw std::logic_error("unlisted per-layer metric " + got.name);
    }
    return out;
}

volatile std::uint64_t calibrationSink;

/** A fixed single-core loop; its time tells a disturbed host apart. */
double
calibrationMs()
{
    const double t0 = nowSeconds();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const double ms = (nowSeconds() - t0) * 1e3;
    calibrationSink = x;
    return ms;
}

long
cacheBytes(int level)
{
    const long v = sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE : _SC_LEVEL3_CACHE_SIZE);
    if (v > 0)
        return v;
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(level) + "/size");
    long kb = 0;
    in >> kb;
    return kb * 1024;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

void
printResult(const RunResult& r, const std::vector<Metric>& metrics)
{
    for (const std::string& line : r.info)
        std::printf("# %s\n", line.c_str());
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + buf + ", \"unit\": " +
               jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace

double
blockMedian(const std::vector<double>& values, std::size_t blockOps)
{
    std::vector<double> means;
    double sum = 0.0;
    std::size_t n = 0;
    for (double x : values) {
        sum += x;
        if (++n == blockOps) {
            means.push_back(sum / static_cast<double>(n));
            sum = 0.0;
            n = 0;
        }
    }
    if (means.empty() && n > 0)
        means.push_back(sum / static_cast<double>(n));
    return median(means);
}

void
addEndToEnd(RunResult& r, const std::vector<double>& setupSeconds,
            const std::vector<double>& opMs, double cpuMsPerOp,
            double opsPerSecond, double peakRss, double vmSize)
{
    r.add("setup_s", median(setupSeconds), "s");
    r.add("op_ms_p50", median(opMs), "ms");
    r.add("cpu_ms_per_op", cpuMsPerOp, "ms");
    r.add("peak_rss_mb", peakRss, "MB");
    r.add("vmsize_mb", vmSize, "MB");
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "set-ups: %zu, quartiles %.6g / %.6g / %.6g s; operations "
                  "timed: %zu, quartiles %.6g / %.6g / %.6g ms; wall-clock "
                  "throughput %.6g ops/s (median over blocks)",
                  setupSeconds.size(), quantile(setupSeconds, 0.25),
                  median(setupSeconds), quantile(setupSeconds, 0.75),
                  opMs.size(), quantile(opMs, 0.25), median(opMs),
                  quantile(opMs, 0.75), opsPerSecond);
    r.note(buf);
}

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Config cfg;
    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    cfg.threads = 1;
    cfg.clients = std::min<std::size_t>(4, nproc);
    bool selftest = false, figures = false;
    const auto usage = [] {
        std::fprintf(stderr,
                     "usage: qkc_perfbench --workload qaoa-sample-sv|qaoa-expect-sv|"
                     "qaoa-noisy-kc|serve-vqa --seed N --seconds S --trace 0|1\n"
                     "       [--trace-out FILE] [--threads N] [--clients N]\n"
                     "       qkc_perfbench --selftest | --figures [--seed N]\n");
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                cfg.workload = value();
            else if (a == "--seed")
                cfg.seed = std::stoull(value());
            else if (a == "--seconds")
                cfg.seconds = std::stod(value());
            else if (a == "--trace")
                cfg.trace = value() == "1";
            else if (a == "--threads")
                cfg.threads = std::min<std::size_t>(std::stoul(value()), nproc);
            else if (a == "--clients")
                cfg.clients = std::min<std::size_t>(std::stoul(value()), nproc);
            else if (a == "--trace-out")
                cfg.traceOut = value();
            else if (a == "--selftest")
                selftest = true;
            else if (a == "--figures")
                figures = true;
            else
                return usage();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "qkc_perfbench: %s\n", e.what());
            return usage();
        }
    }
    // glibc raises its mmap threshold each time a mapped block is freed, so
    // a process that frees and reallocates 2^n-amplitude buffers ends up
    // serving them from a heap whose size depends on the order of frees:
    // identical sv runs peaked anywhere from 93 to 149 MB for a 16 MB
    // state. A fixed threshold maps each block of 1 MiB or more on its own
    // and unmaps it when freed, so the memory gauges read what the program
    // holds rather than the allocator's history.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    if (selftest)
        return runSelfTest();
    if (figures)
        return runFigures(cfg);

    // Host context, so a disturbed run can be told apart.
    const double calib = calibrationMs();
    const std::uint64_t steal0 = stealTicks();
    spans().enable(cfg.trace);
    RunResult r;
    try {
        if (cfg.workload == "qaoa-sample-sv")
            r = runSvWorkload(cfg, false);
        else if (cfg.workload == "qaoa-expect-sv")
            r = runSvWorkload(cfg, true);
        else if (cfg.workload == "qaoa-noisy-kc")
            r = runKcWorkload(cfg);
        else if (cfg.workload == "serve-vqa")
            r = runServeWorkload(cfg);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qkc_perfbench: %s failed: %s\n",
                     cfg.workload.c_str(), e.what());
        return 1;
    }
    const std::uint64_t steal = stealTicks() - steal0;

    std::printf("{\"host\": {\"nproc\": %zu, \"simd\": \"%s\", \"l2_bytes\": %ld, "
                "\"l3_bytes\": %ld, \"steal_ticks\": %llu, "
                "\"calibration_ms\": %.3f, \"threads\": %zu, \"clients\": %zu}}\n",
                nproc, qkc::simdLevelName(qkc::activeSimdLevel()), cacheBytes(2),
                cacheBytes(3), static_cast<unsigned long long>(steal), calib,
                cfg.threads, cfg.clients);
    if (cfg.trace && !cfg.traceOut.empty()) {
        if (spans().writeChromeTrace(cfg.traceOut))
            r.note("spans written: " + std::to_string(spans().size()) + " to " +
                   cfg.traceOut);
        else
            r.note("could not write spans to " + cfg.traceOut);
    }
    try {
        printResult(r, cfg.trace ? layerMetrics(r) : r.metrics);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qkc_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
