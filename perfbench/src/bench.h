// Shared pieces of the qkc benchmark: the run configuration and result,
// clocks and order statistics, /proc readers, an in-memory span recorder,
// and the workload-instance generators (graphs, angles, QASM text).
//
// Everything that decides a workload's inputs lives here and depends only
// on the seed: graphs and angles come from the benchmark's own splitmix64
// stream, not from any generator inside the program, so a change to the
// program cannot change what it is measured on.
#ifndef QKC_PERFBENCH_BENCH_H
#define QKC_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Run configuration and result
// ---------------------------------------------------------------------------

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t threads = 1;      ///< sv sweep threads (<= nproc)
    std::size_t clients = 4;      ///< serve-vqa client threads (<= nproc)
    std::string traceOut;         ///< where the traced run writes its spans
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> info;   ///< sizes, counts, check details

    void add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string& line) { info.push_back(line); }
    /** Records a failed correctness check; the run reports correct=false. */
    void fail(const std::string& why)
    {
        correct = false;
        info.push_back("CHECK FAILED: " + why);
    }
};

// ---------------------------------------------------------------------------
// Clocks and order statistics
// ---------------------------------------------------------------------------

inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

inline double
mean(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Sample standard deviation (n - 1 denominator). */
inline double
stddev(const std::vector<double>& v)
{
    if (v.size() < 2)
        return 0.0;
    const double m = mean(v);
    double s = 0.0;
    for (double x : v)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(v.size() - 1));
}

/** CPU time of the whole process (every thread), in seconds. */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// /proc readers (read-only)
// ---------------------------------------------------------------------------

/** A `Vm*:` field of /proc/self/status in kB (0 when absent). */
inline double
procStatusKb(const char* field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            std::istringstream s(line.substr(key.size()));
            double kb = 0.0;
            s >> kb;
            return kb;
        }
    }
    return 0.0;
}

inline double peakRssMb() { return procStatusKb("VmHWM") / 1024.0; }
inline double vmSizeMb() { return procStatusKb("VmSize") / 1024.0; }

/** Total steal ticks over all CPUs, from the `cpu` line of /proc/stat. */
inline std::uint64_t
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t f[8] = {};
    in >> cpu;
    for (std::uint64_t& x : f)
        in >> x;
    return cpu == "cpu" ? f[7] : 0;
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/**
 * The benchmark's own spans around calls into the program's layers. Spans
 * are kept in memory (one mutex-guarded vector; the traced run records a
 * few per operation) and written out as a Chrome trace when the run ends.
 * Each span carries the id of the span that caused it and the id of the
 * operation it belongs to, so one operation's spans can be grouped.
 */
class SpanRecorder {
  public:
    struct Span {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;   ///< 0 = top level
        std::uint64_t op = 0;       ///< operation id shared by its spans
        std::uint64_t thread = 0;
        double start = 0.0;         ///< seconds, steady clock
        double end = 0.0;
    };

    /** Spans are recorded only while enabled (the traced run). */
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    std::uint64_t begin(const std::string& name, std::uint64_t parent,
                        std::uint64_t op, std::uint64_t thread)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Span s;
        s.name = name;
        s.id = spans_.size() + 1;
        s.parent = parent;
        s.op = op;
        s.thread = thread;
        s.start = nowSeconds();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    /** Closes span `id` and returns its duration in seconds. */
    double end(std::uint64_t id)
    {
        const double t = nowSeconds();
        std::lock_guard<std::mutex> lock(mu_);
        Span& s = spans_.at(id - 1);
        s.end = t;
        return s.end - s.start;
    }

    std::size_t size() const { return spans_.size(); }

    /** Writes every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}%s\n",
                         s.name.c_str(),
                         static_cast<unsigned long long>(s.thread),
                         (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.op),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** The process-wide recorder. */
SpanRecorder& spans();

/**
 * Times one call into a layer. Always measures (the per-layer metrics need
 * the duration); records a span only when the recorder is enabled.
 */
class LayerTimer {
  public:
    LayerTimer(const char* name, std::uint64_t op = 0,
               std::uint64_t parent = 0, std::uint64_t thread = 0,
               bool record = true)
    {
        if (record && spans().enabled())
            id_ = spans().begin(name, parent, op, thread);
        else
            start_ = nowSeconds();
    }
    /** Ends the span; returns its duration in milliseconds. */
    double stopMs()
    {
        if (id_)
            return spans().end(id_) * 1e3;
        return (nowSeconds() - start_) * 1e3;
    }
    std::uint64_t id() const { return id_; }

  private:
    std::uint64_t id_ = 0;
    double start_ = 0.0;
};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/** splitmix64: the benchmark's own input generator. */
class InputRng {
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Mixes a seed with a stream tag, so each input stream is independent. */
inline std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t tag)
{
    InputRng r(seed * 0x100000001b3ULL + tag);
    return r.next();
}

using Edge = std::pair<std::size_t, std::size_t>;

/**
 * A random simple 3-regular graph on `n` (even) vertices by the pairing
 * model: shuffle 3n stubs, pair them, retry until no loop or repeated edge.
 */
std::vector<Edge> random3Regular(std::size_t n, InputRng& rng);

/** A QAOA Max-Cut instance: graph, depth, optional per-gate depolarizing. */
struct QaoaInstance {
    std::size_t n = 0;
    std::size_t p = 1;
    std::vector<Edge> edges;
    double depolarizing = 0.0;   ///< probability after every gate (0 = ideal)

    /** Cut value of an outcome (qubit 0 = most significant bit). */
    std::size_t cut(std::uint64_t x) const
    {
        std::size_t c = 0;
        for (const auto& [u, v] : edges)
            c += ((x >> (n - 1 - u)) ^ (x >> (n - 1 - v))) & 1;
        return c;
    }
};

/** Fresh angles (gamma_1, beta_1, ..., gamma_p, beta_p) for an evaluation. */
inline std::vector<double>
freshAngles(const QaoaInstance& inst, InputRng& rng)
{
    std::vector<double> a(2 * inst.p);
    for (std::size_t i = 0; i < inst.p; ++i) {
        a[2 * i] = rng.uniform(-1.2, 1.2);      // gamma
        a[2 * i + 1] = rng.uniform(-0.8, 0.8);  // beta
    }
    return a;
}

/**
 * The instance's circuit as OpenQASM 2.0 text: H on every qubit, then per
 * layer rzz(gamma) per edge and rx(2 beta) per qubit; with noise, a
 * `// qkc.noise depolarizing q p` line after every gate for each of its
 * qubits (the program's QASM extension for channels).
 */
std::string qaoaQasm(const QaoaInstance& inst, const std::vector<double>& angles);

} // namespace perfbench

#endif // QKC_PERFBENCH_BENCH_H
