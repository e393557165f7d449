#ifndef QKC_VQA_BACKENDS_H
#define QKC_VQA_BACKENDS_H

#include <cstddef>

#include "vqa/simulator_api.h"

namespace qkc {

/**
 * The five simulator families behind the task-based Session API (see
 * simulator_api.h). Each Backend::open compiles the circuit structure once
 * into a Session; the session then serves Sample / Expectation /
 * Amplitudes / Probabilities tasks and rebinds parameters in place. What
 * each serves, and how, is data in backendRegistry() (qkc_cli
 * --list-backends prints it); each class below is one registry entry.
 */
template <std::size_t Entry>
class RegisteredBackend : public Backend {
  public:
    explicit RegisteredBackend(const BackendOptions& defaults = {})
        : Backend(backendRegistry()[Entry], defaults)
    {
    }
};

using StateVectorBackend = RegisteredBackend<0>;
using DensityMatrixBackend = RegisteredBackend<1>;
using TensorNetworkBackend = RegisteredBackend<2>;
using DecisionDiagramBackend = RegisteredBackend<3>;
using KnowledgeCompilationBackend = RegisteredBackend<4>;

} // namespace qkc

#endif // QKC_VQA_BACKENDS_H
