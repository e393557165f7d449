#include "densitymatrix/densitymatrix_simulator.h"

#include "obs/trace.h"

#include <stdexcept>

#include "circuit/fusion.h"
#include "exec/execution_plan.h"
#include "statevector/statevector_simulator.h"

namespace qkc {

DmExecutionPlan
planCircuitDm(const Circuit& circuit, const ExecPolicy& policy)
{
    QKC_SPAN("exec.planDm");
    DmExecutionPlan plan;
    plan.numQubits = circuit.numQubits();
    plan.fusionEnabled = policy.fuseGates;
    if (policy.fuseGates) {
        plan.recipe = planFusion(circuit, {});
        plan.circuit = *materializeFusion(plan.recipe, circuit, &plan.fusion);
    } else {
        plan.circuit = circuit;
    }

    const auto& ops = plan.circuit.operations();
    plan.ops.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        DmPlannedOp p{i, {}};
        for (const SuperOperand& s : superOperands(ops[i], plan.numQubits))
            p.kernels.push_back(compileKernel(s.matrix, s.bits));
        plan.ops.push_back(std::move(p));
    }
    return plan;
}

bool
tryRebindDmPlan(DmExecutionPlan& plan, const Circuit& circuit)
{
    // On any failure the caller re-plans from scratch, so a partially
    // refreshed plan is never executed.
    if (circuit.numQubits() != plan.numQubits)
        return false;

    if (plan.fusionEnabled) {
        // materializeFusion validates indices, kinds and wires itself.
        auto fused = materializeFusion(plan.recipe, circuit, &plan.fusion);
        if (!fused || fused->size() != plan.circuit.size())
            return false;
        plan.circuit = std::move(*fused);
    } else {
        if (!sameStructure(plan.circuit, circuit))
            return false;
        plan.circuit = circuit;
    }

    for (DmPlannedOp& op : plan.ops) {
        const std::vector<SuperOperand> operands = superOperands(
            plan.circuit.operations()[op.opIndex], plan.numQubits);
        if (operands.size() != op.kernels.size())
            return false;
        for (std::size_t k = 0; k < operands.size(); ++k)
            if (!tryRefreshKernel(op.kernels[k], operands[k].matrix))
                return false;
    }
    return true;
}

DensityMatrix
DensityMatrixSimulator::simulate(const Circuit& circuit) const
{
    return simulatePlanned(planCircuitDm(circuit, policy_));
}

DensityMatrix
DensityMatrixSimulator::simulatePlanned(const DmExecutionPlan& plan) const
{
    DensityMatrix rho(plan.numQubits);
    rho.setExecPolicy(policy_);
    for (const DmPlannedOp& op : plan.ops)
        for (const GateKernel& k : op.kernels)
            rho.apply(k);
    return rho;
}

std::vector<double>
DensityMatrixSimulator::distribution(const Circuit& circuit) const
{
    return simulate(circuit).diagonalProbabilities();
}

std::vector<std::uint64_t>
DensityMatrixSimulator::sample(const Circuit& circuit, std::size_t numSamples,
                               Rng& rng) const
{
    auto probs = distribution(circuit);
    return StateVectorSimulator::sampleFromDistribution(probs, numSamples, rng);
}

} // namespace qkc
