#include "server/admission.h"

#include <variant>

namespace qkc {
namespace server {

namespace {

/** 16·2^log2Entries bytes within the budget, overflow-safe. */
bool
denseFits(std::size_t log2Entries, std::uint64_t budget)
{
    if (log2Entries >= 60)
        return false; // 16·2^k overflows uint64 past k = 59
    return (16ull << log2Entries) <= budget;
}

std::string
bytesLabel(std::uint64_t bytes)
{
    if (bytes >= (1ull << 30))
        return std::to_string(bytes >> 30) + " GiB";
    if (bytes >= (1ull << 20))
        return std::to_string(bytes >> 20) + " MiB";
    return std::to_string(bytes) + " bytes";
}

AdmissionVerdict
checkTask(const Task& task, std::size_t numQubits,
          const AdmissionLimits& limits)
{
    if (const auto* s = std::get_if<Sample>(&task)) {
        if (s->shots > limits.maxShots)
            return AdmissionVerdict::reject(
                "shots", "Sample shots " + std::to_string(s->shots) +
                             " exceeds the limit of " +
                             std::to_string(limits.maxShots));
    } else if (const auto* e = std::get_if<Expectation>(&task)) {
        if (e->shots > limits.maxShots)
            return AdmissionVerdict::reject(
                "shots", "Expectation shots " + std::to_string(e->shots) +
                             " exceeds the limit of " +
                             std::to_string(limits.maxShots));
        if (e->observable.terms.size() > limits.maxObservableTerms)
            return AdmissionVerdict::reject(
                "observable",
                "observable has " +
                    std::to_string(e->observable.terms.size()) +
                    " terms, more than the limit of " +
                    std::to_string(limits.maxObservableTerms));
    } else if (const auto* a = std::get_if<Amplitudes>(&task)) {
        if (a->bitstrings.size() > limits.maxAmplitudes)
            return AdmissionVerdict::reject(
                "bitstrings",
                "request asks for " + std::to_string(a->bitstrings.size()) +
                    " amplitudes, more than the limit of " +
                    std::to_string(limits.maxAmplitudes));
    } else if (const auto* p = std::get_if<Probabilities>(&task)) {
        const std::size_t outQubits =
            p->qubits.empty() ? numQubits : p->qubits.size();
        if (outQubits > limits.maxMarginalQubits)
            return AdmissionVerdict::reject(
                "qubits",
                "a " + std::to_string(outQubits) +
                    "-qubit distribution has 2^" + std::to_string(outQubits) +
                    " entries, past the " +
                    std::to_string(limits.maxMarginalQubits) + "-qubit limit");
    }
    return AdmissionVerdict::ok();
}

} // namespace

AdmissionVerdict
admitRequest(const BackendSpec& spec, const Circuit& circuit, const Task& task,
             const AdmissionLimits& limits)
{
    const BackendInfo& info = backendInfo(spec.name);
    const std::size_t n = circuit.numQubits();

    const std::string refused = info.refusal(task, circuit);
    if (!refused.empty())
        return AdmissionVerdict::reject("backend", refused);

    const std::size_t e = info.denseExponent;
    if (e > 0 && !denseFits(e * n, limits.stateMemoryBytes))
        return AdmissionVerdict::reject(
            "memory", "a " + std::to_string(n) + "-qubit " + info.name +
                          " needs 16*" + std::to_string(1u << e) + "^" +
                          std::to_string(n) +
                          " bytes, past the state-memory budget of " +
                          bytesLabel(limits.stateMemoryBytes));

    return checkTask(task, n, limits);
}

} // namespace server
} // namespace qkc
