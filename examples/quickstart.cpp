/**
 * Quickstart: compile a noisy circuit once, then query amplitudes,
 * probabilities, and samples from the compiled arithmetic circuit.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <cstdio>
#include <exception>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "circuit/circuit.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace qkc;

int
main()
try {
    // 1. Build a circuit with the fluent API: a 3-qubit GHZ state with a
    //    phase damping channel on the middle qubit.
    Circuit circuit(3);
    circuit.h(0).cnot(0, 1);
    circuit.append(NoiseChannel::phaseDamping(1, 0.2));
    circuit.cnot(1, 2);
    std::printf("%s\n", circuit.toString().c_str());

    // 2. Compile: circuit -> Bayesian network -> CNF -> arithmetic circuit.
    KcSimulator simulator(circuit);
    auto metrics = simulator.metrics();
    std::printf("compiled: %zu BN variables, %zu CNF clauses, "
                "%zu AC nodes (%zu bytes) in %.3fs\n\n",
                metrics.bnNodes, metrics.cnfClauses, metrics.acNodes,
                metrics.acFileBytes, metrics.compileSeconds);

    // 3. Upward pass: amplitude of |111> when the noise event did NOT fire.
    Complex a = simulator.amplitude(0b111, {0});
    std::printf("A(|111>, no-noise-event) = %.4f%+.4fi\n", a.real(), a.imag());

    // 4. Exact outcome probabilities (sums |amplitude|^2 over noise events).
    std::printf("\nmeasurement distribution:\n");
    for (std::uint64_t x = 0; x < 8; ++x) {
        double p = simulator.probability(x);
        if (p > 1e-12)
            std::printf("  P(%s) = %.4f\n", basisKet(x, 3).c_str(), p);
    }

    // 5. Downward pass: Gibbs-sample measurement outcomes.
    Rng rng(42);
    auto samples = simulator.sample(2000, rng);
    auto empirical = empiricalDistribution(samples, 8);
    std::printf("\n2000 Gibbs samples: P(|000>) ~ %.3f, P(|111>) ~ %.3f\n",
                empirical[0], empirical[7]);

    // 6. The paper's running example: noisy Bell state (Figure 2, Table 5).
    KcSimulator bell(noisyBellCircuit(0.36));
    std::printf("\nnoisy Bell: A(|11>, rv=0) = %.4f (expect 0.8/sqrt(2))\n",
                bell.amplitude(0b11, {0}).real());
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
