/**
 * Admission and the sessions read one registry entry per backend, so they
 * must agree on every (backend, task, ideal/noisy) cell: a request
 * admission admits opens and runs, with meta.exact as the cell declares,
 * and a request it refuses with field "backend" throws
 * std::invalid_argument from the session.
 */
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "server/admission.h"
#include "vqa/backends.h"
#include "vqa/pauli.h"

namespace qkc {
namespace server {
namespace {

Circuit
ghz3(bool noisy)
{
    Circuit c(3);
    c.h(0).cnot(0, 1).cnot(1, 2);
    return noisy ? c.withNoiseAfterEachGate(NoiseKind::BitFlip, 0.05) : c;
}

/** Every task kind, Expectation once diagonal and once not. */
std::vector<Task>
allTasks()
{
    Expectation diagonal{PauliSum{}, 256};
    diagonal.observable.add(1.0, PauliString("ZZI"))
        .add(0.5, PauliString("IZZ"));
    Expectation mixed{PauliSum{}, 256};
    mixed.observable.add(1.0, PauliString("XXX"))
        .add(0.5, PauliString("ZZI"));
    return {Sample{64},          diagonal, mixed, Amplitudes{{0, 7}},
            Probabilities{{}}, Probabilities{{0, 2}}};
}

/**
 * The exactness a served cell promises on the 3-qubit GHZ. Limited is
 * exact within the query limit, which this circuit is inside; kc's
 * Expectation under noise is exact for diagonal terms only.
 */
bool
promisesExact(Support cell, const Task& task, bool noisy)
{
    if (cell != Support::Limited)
        return cell == Support::Exact;
    const auto* e = std::get_if<Expectation>(&task);
    if (!e || !noisy)
        return true;
    for (const auto& [coeff, pauli] : e->observable.terms) {
        (void)coeff;
        if (!pauli.isDiagonal())
            return false;
    }
    return true;
}

TEST(CapabilityAgreementTest, AdmissionAndSessionsReadTheSameCells)
{
    for (const BackendInfo& info : backendRegistry()) {
        const BackendSpec spec = parseBackendSpec(info.name);
        for (bool noisy : {false, true}) {
            const Circuit c = ghz3(noisy);
            for (const Task& task : allTasks()) {
                const std::string where = info.name + " " +
                                          taskName(task.index()) +
                                          (noisy ? " noisy" : " ideal");
                const Support cell = info.support(task, c);
                const AdmissionVerdict v =
                    admitRequest(spec, c, task, AdmissionLimits{});
                Rng rng(11);
                if (!v.admitted) {
                    EXPECT_EQ(v.field, "backend") << where;
                    EXPECT_EQ(cell, Support::No) << where;
                    EXPECT_THROW(Backend(info).open(c)->run(task, rng),
                                 std::invalid_argument)
                        << where;
                    continue;
                }
                EXPECT_NE(cell, Support::No) << where;
                Result r;
                ASSERT_NO_THROW(r = Backend(info).open(c)->run(task, rng))
                    << where;
                EXPECT_EQ(r.meta.exact, promisesExact(cell, task, noisy))
                    << where;
            }
        }
    }
}

TEST(CapabilityAgreementTest, TasksTextRendersTheCells)
{
    const BackendInfo& sv = backendInfo("sv");
    EXPECT_EQ(sv.tasksText(),
              "sample: exact ideal, sampled noisy; "
              "expectation: exact ideal, sampled noisy; "
              "amplitudes: exact, ideal only; "
              "probabilities: exact, ideal only");
    const std::string dm = backendInfo("dm").tasksText();
    EXPECT_NE(dm.find("amplitudes: not served"), std::string::npos) << dm;
    const std::string kc = backendInfo("kc").tasksText();
    EXPECT_NE(kc.find("probabilities: exact within the 16-qubit query "
                      "limit, ideal and noisy"),
              std::string::npos)
        << kc;
}

} // namespace
} // namespace server
} // namespace qkc
