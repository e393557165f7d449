// The benchmark's independent reference and its correctness checks.
//
// The reference simulators are deliberately plain: unfused, scalar,
// single-threaded loops over a std::complex state vector (ideal circuits)
// and over a dense 4^n density matrix (noisy circuits), written from the
// gate and channel definitions alone. They share no code with the program,
// so a fault in its kernels, fusion, planner or compiler cannot hide in
// them.
//
// Each check is a pure function of a payload and returns an empty string
// on success, or the reason it failed; the self-test feeds each one a good
// and a corrupted payload.
#ifndef QKC_PERFBENCH_REFERENCE_H
#define QKC_PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/** Exact outcome distribution of the ideal instance circuit. */
std::vector<double> referenceProbabilities(const QaoaInstance& inst,
                                           const std::vector<double>& angles);

/**
 * Exact outcome distribution of the instance with its depolarizing noise,
 * from the diagonal of a plain density-matrix simulation.
 */
std::vector<double> referenceNoisyProbabilities(const QaoaInstance& inst,
                                                const std::vector<double>& angles);

/** Mean and variance of the cut under a distribution. */
struct CutMoments {
    double mean = 0.0;
    double variance = 0.0;
};
CutMoments cutMoments(const QaoaInstance& inst, const std::vector<double>& probs);

/** Mean cut of a set of outcomes. */
double sampleMeanCut(const QaoaInstance& inst,
                     const std::vector<std::uint64_t>& samples);

// -- Checks (empty string = pass) -------------------------------------------

/** Exactly `shots` outcomes, each below 2^n. */
std::string checkSampleShape(const std::vector<std::uint64_t>& samples,
                             std::size_t shots, std::size_t n);

/** Number of standard errors the sampling checks allow. */
constexpr double kCltSigmas = 5.0;
constexpr double kMcmcSigmas = 6.0;

/**
 * Sample mean cut within kCltSigmas * sigma / sqrt(shots) of the reference
 * mean, sigma being the reference standard deviation of the cut (i.i.d.
 * draws, central limit theorem).
 */
std::string checkSampleMeanCut(const QaoaInstance& inst,
                               const std::vector<std::uint64_t>& samples,
                               const CutMoments& ref);

/** |value - reference| <= 1e-9. */
std::string checkExpectation(double value, double reference);

/**
 * Pooled mean cut of independent Gibbs chains within kMcmcSigmas standard
 * errors of the reference, the standard error taken from the spread of the
 * per-chain means (batch means: it absorbs each chain's autocorrelation).
 */
std::string checkGibbsPooled(const QaoaInstance& inst,
                             const std::vector<std::vector<std::uint64_t>>& chains,
                             const CutMoments& ref);

/** Two payloads are bit-identical. */
std::string checkIdentical(const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b);

} // namespace perfbench

#endif // QKC_PERFBENCH_REFERENCE_H
