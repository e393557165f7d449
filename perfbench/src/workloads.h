// The four workloads and the program-facing helpers they share.
#ifndef QKC_PERFBENCH_WORKLOADS_H
#define QKC_PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "bench.h"
#include "circuit/circuit.h"
#include "vqa/pauli.h"

namespace perfbench {

// -- Workload sizes (the README states them next to the results) ----------

constexpr std::size_t kSvQubits = 20;      ///< qaoa-*-sv: qubits
constexpr std::size_t kSvDepth = 2;        ///< qaoa-*-sv: QAOA p
constexpr std::size_t kSvShots = 1024;     ///< qaoa-sample-sv: shots
constexpr std::size_t kKcQubits = 10;      ///< qaoa-noisy-kc: qubits
constexpr std::size_t kKcDepth = 1;        ///< qaoa-noisy-kc: QAOA p
constexpr double kKcNoise = 0.005;         ///< depolarizing after every gate
constexpr std::size_t kKcShots = 64;       ///< Gibbs samples per evaluation

/** Ideal 20-qubit p=2 instance of the sv workloads. */
QaoaInstance svInstance(std::uint64_t seed);
/** Noisy 10-qubit p=1 instance of the kc workload (graph `index` of the run). */
QaoaInstance kcInstance(std::uint64_t seed, std::size_t index = 0);

/**
 * The instance circuit built through the program's Circuit API (what a
 * variational optimizer hands to Session::bind for fresh angles).
 */
qkc::Circuit qaoaCircuit(const QaoaInstance& inst, const std::vector<double>& angles);

/** |E|/2 - 1/2 sum_{(u,v) in E} Z_u Z_v, the cut as a Pauli sum. */
qkc::PauliSum cutObservable(const QaoaInstance& inst);

/**
 * Reads a /v1/run reply: status 200 and one result of exactly `shots`
 * outcomes below 2^n. Returns an empty string, or why the reply is wrong.
 */
std::string readRunReply(int status, const std::string& body, std::size_t shots,
                         std::size_t n, std::vector<std::uint64_t>* samples,
                         double* queueWaitMs, bool* cacheHit);

// -- Workloads ---------------------------------------------------------------

RunResult runSvWorkload(const Config& cfg, bool expectation);
RunResult runKcWorkload(const Config& cfg);
RunResult runServeWorkload(const Config& cfg);

/** Self-test: every check passes a good payload and rejects a corrupted one. */
int runSelfTest();

/** One-off reference figures for the README (not a timed workload). */
int runFigures(const Config& cfg);

/**
 * The streaming floor: GB/s of a parallel memcpy of `bytes` at `threads`
 * (median of repeated copies; read plus written bytes per second).
 */
double copyGbps(std::size_t bytes, std::size_t threads);

// -- Shared reporting --------------------------------------------------------

/**
 * The median over blocks of consecutive `blockOps` values of each block's
 * mean. A pause of the host moves one block rather than the whole figure,
 * and a block that spans every input of a run averages over them. A
 * trailing partial block counts only when no block is complete.
 */
double blockMedian(const std::vector<double>& values, std::size_t blockOps);

/**
 * Adds the end-to-end metrics every workload reports: setup_s (median of
 * the repeated set-ups), op_ms_p50 over the operation latencies,
 * cpu_ms_per_op as the workload measured it, and the memory gauges. The
 * wall-clock throughput goes into the run information only.
 */
void addEndToEnd(RunResult& r, const std::vector<double>& setupSeconds,
                 const std::vector<double>& opMs, double cpuMsPerOp,
                 double opsPerSecond, double peakRss, double vmSize);

} // namespace perfbench

#endif // QKC_PERFBENCH_WORKLOADS_H
