#ifndef QKC_STATEVECTOR_STATEVECTOR_SIMULATOR_H
#define QKC_STATEVECTOR_STATEVECTOR_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "exec/execution_plan.h"
#include "exec/thread_pool.h"
#include "statevector/state_vector.h"
#include "util/rng.h"

namespace qkc {

/**
 * State vector quantum circuit simulator — our stand-in for Google's qsim
 * baseline (paper Section 4.1).
 *
 * Circuits are lowered once to an execution plan (greedy gate fusion +
 * per-gate kernel classification); the amplitude sweeps then run on the
 * shared thread pool per the simulator's ExecPolicy.
 *
 * Ideal circuits run exactly: the full 2^n wavefunction is produced and
 * measurement outcomes are drawn by direct ("ideal") sampling from |psi|^2.
 *
 * Noisy circuits use Monte-Carlo trajectories: each trajectory picks one
 * Kraus operator per channel with the Born probability — computed by a
 * read-only norm kernel, no state copies — and folds the 1/sqrt(w)
 * renormalization into the selected operator's application. Trajectories
 * are independent, so sampleNoisy runs them in parallel on per-trajectory
 * RNG streams seeded from the caller's generator; results are merged in
 * trajectory order, making the output independent of the thread count.
 */
class StateVectorSimulator {
  public:
    StateVectorSimulator() = default;
    explicit StateVectorSimulator(const ExecPolicy& policy) : policy_(policy) {}

    const ExecPolicy& execPolicy() const { return policy_; }
    void setExecPolicy(const ExecPolicy& policy) { policy_ = policy; }

    /** Runs the ideal part of `circuit`; throws if it contains noise. */
    StateVector simulate(const Circuit& circuit) const;

    /**
     * Runs a pre-built ideal plan (no channels). Backend sessions plan a
     * circuit structure once and re-execute it across parameter binds.
     */
    StateVector simulatePlanned(const ExecutionPlan& plan) const;

    /** The same run into an existing state of the plan's width (no alloc). */
    void simulatePlanned(const ExecutionPlan& plan, StateVector& state) const;

    /**
     * Runs one noisy trajectory: gates apply exactly; every channel chooses
     * a Kraus operator k with probability ||E_k psi||^2, applies it, and
     * renormalizes (the scale folded into the application pass).
     */
    StateVector simulateTrajectory(const Circuit& circuit, Rng& rng) const;

    /** Draws `numSamples` measurement outcomes from the ideal circuit. */
    std::vector<std::uint64_t> sample(const Circuit& circuit,
                                      std::size_t numSamples, Rng& rng) const;

    /**
     * Draws one outcome per trajectory for noisy circuits (the qsim-style
     * noisy sampling cost model: every sample pays a full re-simulation).
     * Trajectories run in parallel when the policy allows; the sample
     * vector is identical for every thread count.
     */
    std::vector<std::uint64_t> sampleNoisy(const Circuit& circuit,
                                           std::size_t numSamples,
                                           Rng& rng) const;

    /** Trajectory sampling over a pre-built plan (see simulatePlanned). */
    std::vector<std::uint64_t> sampleNoisyPlanned(const ExecutionPlan& plan,
                                                  std::size_t numSamples,
                                                  Rng& rng) const;

    /**
     * Exact outcome distribution of a noisy circuit by enumerating every
     * combination of Kraus choices. Exponential in the channel count; meant
     * for validation at small sizes.
     */
    std::vector<double> noisyDistributionExhaustive(const Circuit& circuit) const;

    /** Draws outcomes from an explicit probability vector (ideal sampling). */
    static std::vector<std::uint64_t> sampleFromDistribution(
        const std::vector<double>& probs, std::size_t numSamples, Rng& rng);

  private:
    /** One trajectory over a pre-built plan (state policy already set). */
    StateVector runTrajectory(const ExecutionPlan& plan, Rng& rng,
                              const ExecPolicy& statePolicy) const;

    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_STATEVECTOR_STATEVECTOR_SIMULATOR_H
