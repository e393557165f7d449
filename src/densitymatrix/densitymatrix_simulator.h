#ifndef QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H
#define QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "densitymatrix/density_matrix.h"
#include "exec/thread_pool.h"
#include "util/rng.h"

namespace qkc {

/**
 * One circuit operation lowered for density-matrix execution: the kernels
 * of its superOperands, applied in order — two for a gate (row and column
 * side), one Liouville kernel for a channel. `opIndex` refers into the
 * owning plan's (possibly fused) circuit.
 */
struct DmPlannedOp {
    std::size_t opIndex = 0;
    std::vector<GateKernel> kernels;
};

/**
 * A circuit prepared for repeated density-matrix execution — the dm
 * counterpart of exec's ExecutionPlan: fusion has run (if the policy asks
 * for it) and every operation has been lowered and classified into its
 * kernel list exactly once. A session holds one of these per circuit
 * structure and refreshes it across parameter rebinds, so its planReuses
 * metadata corresponds to classification work actually saved.
 */
struct DmExecutionPlan {
    std::size_t numQubits = 0;
    Circuit circuit{1};       ///< the (possibly fused) circuit kernels map to
    std::vector<DmPlannedOp> ops;
    FusionStats fusion;       ///< zeros when fusion was disabled
    bool fusionEnabled = false;
    FusionRecipe recipe;      ///< valid when fusionEnabled
};

/** Builds the kernel plan for `circuit` under `policy`. */
DmExecutionPlan planCircuitDm(const Circuit& circuit, const ExecPolicy& policy);

/**
 * Rebinds `plan` to a same-structure circuit (the variational fast path):
 * replays the recorded fusion recipe on the new gate values, lowers every
 * operation again and refreshes its kernels in place — no greedy fusion
 * pass, no re-classification.
 * Returns false when the structure differs, a fused product crossed the
 * identity boundary, or a parameter change invalidated a stored kernel
 * class; the plan may then be partially refreshed and the caller must
 * re-plan before executing it.
 */
bool tryRebindDmPlan(DmExecutionPlan& plan, const Circuit& circuit);

/**
 * Density matrix circuit simulator — the stand-in for the Cirq
 * density-matrix baseline in the paper's noisy-circuit evaluation
 * (Figure 9). Handles arbitrary mixtures and channels exactly, each as one
 * superoperator sweep over rho, the way such a simulator applies them.
 *
 * Gate fusion and the shared-thread-pool kernels apply here exactly as in
 * the state-vector engine: the ExecPolicy is forwarded to DensityMatrix,
 * whose kernel sweeps run on the flattened 2n-bit index space.
 */
class DensityMatrixSimulator {
  public:
    DensityMatrixSimulator() = default;
    explicit DensityMatrixSimulator(const ExecPolicy& policy)
        : policy_(policy)
    {
    }

    const ExecPolicy& execPolicy() const { return policy_; }
    void setExecPolicy(const ExecPolicy& policy) { policy_ = policy; }

    /** Evolves |0..0><0..0| through all gates and channels. */
    DensityMatrix simulate(const Circuit& circuit) const;

    /**
     * Evolves |0..0><0..0| through a pre-built plan. Backend sessions plan
     * a circuit structure once and re-execute it across parameter binds
     * without re-paying fusion or kernel classification.
     */
    DensityMatrix simulatePlanned(const DmExecutionPlan& plan) const;

    /** Exact outcome distribution: diagonal of the final density matrix. */
    std::vector<double> distribution(const Circuit& circuit) const;

    /**
     * Draws measurement outcomes. The density matrix is computed once and
     * outcomes are drawn from its diagonal.
     */
    std::vector<std::uint64_t> sample(const Circuit& circuit,
                                      std::size_t numSamples, Rng& rng) const;

  private:
    ExecPolicy policy_;
};

} // namespace qkc

#endif // QKC_DENSITYMATRIX_DENSITYMATRIX_SIMULATOR_H
