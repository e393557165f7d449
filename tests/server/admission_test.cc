#include "server/admission.h"

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "vqa/backends.h"
#include "vqa/pauli.h"

namespace qkc {
namespace server {
namespace {

Circuit
ghz(std::size_t n)
{
    Circuit c(n);
    c.h(0);
    for (std::size_t i = 0; i + 1 < n; ++i)
        c.cnot(i, i + 1);
    return c;
}

TEST(AdmissionTest, SmallStateVectorRequestsAdmit)
{
    const auto spec = parseBackendSpec("sv");
    const AdmissionVerdict v =
        admitRequest(spec, ghz(10), Sample{1024}, AdmissionLimits{});
    EXPECT_TRUE(v.admitted);
    EXPECT_TRUE(v.reason.empty());
}

TEST(AdmissionTest, FortyQubitStateVectorIsRefused)
{
    // 16 * 2^40 bytes = 16 TiB; the front door must refuse it, with the
    // structured field/reason the ISSUE's acceptance criteria name.
    const auto spec = parseBackendSpec("sv");
    const AdmissionVerdict v =
        admitRequest(spec, ghz(40), Sample{16}, AdmissionLimits{});
    EXPECT_FALSE(v.admitted);
    EXPECT_EQ(v.field, "memory");
    EXPECT_NE(v.reason.find("40"), std::string::npos);
}

TEST(AdmissionTest, MemoryBudgetScalesTheQubitCeiling)
{
    const auto spec = parseBackendSpec("sv");
    AdmissionLimits limits;
    limits.stateMemoryBytes = 16ull << 20; // 16 MiB -> exactly 20 qubits
    EXPECT_TRUE(admitRequest(spec, ghz(20), Sample{1}, limits).admitted);
    EXPECT_FALSE(admitRequest(spec, ghz(21), Sample{1}, limits).admitted);
}

TEST(AdmissionTest, DensityMatrixPaysTheSquaredCost)
{
    const auto spec = parseBackendSpec("dm");
    AdmissionLimits limits; // 4 GiB -> 16*4^n <= 2^32 -> n <= 14
    EXPECT_TRUE(admitRequest(spec, ghz(14), Sample{1}, limits).admitted);
    EXPECT_FALSE(admitRequest(spec, ghz(15), Sample{1}, limits).admitted);
    // Far past any uint64 representation of 16*4^n: must reject, not wrap.
    EXPECT_FALSE(admitRequest(spec, ghz(40), Sample{1}, limits).admitted);
}

TEST(AdmissionTest, KcExactQueriesAreBudgeted)
{
    const auto spec = parseBackendSpec("kc");
    AdmissionLimits limits;
    EXPECT_TRUE(
        admitRequest(spec, ghz(17), Sample{64}, limits).admitted);
    EXPECT_FALSE(
        admitRequest(spec, ghz(17), Probabilities{}, limits).admitted);
    EXPECT_TRUE(
        admitRequest(spec, ghz(17), Amplitudes{{0}}, limits).admitted);
    EXPECT_TRUE(
        admitRequest(spec, ghz(16), Probabilities{}, limits).admitted);
}

TEST(AdmissionTest, KcAmplitudesPastTheQueryLimitMatchTheStateVector)
{
    // kc Amplitudes is one upward AC pass per bitstring, so the exact-query
    // limit does not apply: a 20-qubit request is admitted and answers the
    // state vector's amplitudes.
    const Circuit c = ghz(20);
    const Amplitudes task{{0, 1, 5, (1u << 20) - 1}};
    ASSERT_TRUE(
        admitRequest(parseBackendSpec("kc"), c, task, AdmissionLimits{})
            .admitted);
    Rng rng(1);
    const Result kc = makeBackend("kc")->open(c)->run(task, rng);
    const Result sv = makeBackend("sv")->open(c)->run(task, rng);
    EXPECT_TRUE(kc.meta.exact);
    ASSERT_EQ(kc.amplitudes.size(), sv.amplitudes.size());
    for (std::size_t i = 0; i < sv.amplitudes.size(); ++i) {
        EXPECT_NEAR(kc.amplitudes[i].real(), sv.amplitudes[i].real(), 1e-9);
        EXPECT_NEAR(kc.amplitudes[i].imag(), sv.amplitudes[i].imag(), 1e-9);
    }
}

TEST(AdmissionTest, KcNoisyProbabilitiesCountNoiseAssignments)
{
    // The limit counts 2^n outcomes times noise assignments, exactly as
    // the session does: 2 qubits with seven 4-Kraus channels is 2^16
    // passes (admitted), eight is 2^18 (refused).
    auto withChannels = [](std::size_t channels) {
        Circuit c(2);
        c.h(0).cnot(0, 1);
        for (std::size_t k = 0; k < channels; ++k)
            c.append(NoiseChannel::depolarizing(k % 2, 0.01));
        return c;
    };
    const auto spec = parseBackendSpec("kc");
    EXPECT_TRUE(admitRequest(spec, withChannels(7), Probabilities{},
                             AdmissionLimits{})
                    .admitted);
    const AdmissionVerdict v = admitRequest(spec, withChannels(8),
                                            Probabilities{}, AdmissionLimits{});
    EXPECT_FALSE(v.admitted);
    EXPECT_EQ(v.field, "backend");
}

TEST(AdmissionTest, TensornetRejectsNoise)
{
    const auto spec = parseBackendSpec("tn");
    Circuit noisy = ghz(4).withNoiseAfterEachGate(NoiseKind::BitFlip, 0.01);
    const AdmissionVerdict v =
        admitRequest(spec, noisy, Sample{16}, AdmissionLimits{});
    EXPECT_FALSE(v.admitted);
    EXPECT_TRUE(admitRequest(spec, ghz(4), Sample{16}, AdmissionLimits{})
                    .admitted);
    // The refusal is the registry's, under the canonical backend name.
    EXPECT_EQ(v.field, "backend");
    EXPECT_NE(v.reason.find("backend tensornetwork does not serve sample on "
                            "noisy circuits"),
              std::string::npos)
        << v.reason;
}

TEST(AdmissionTest, TaskCapsApplyOnEveryBackend)
{
    const auto spec = parseBackendSpec("dd");
    AdmissionLimits limits;
    limits.maxShots = 100;
    limits.maxAmplitudes = 2;
    limits.maxMarginalQubits = 3;
    limits.maxObservableTerms = 1;

    EXPECT_FALSE(admitRequest(spec, ghz(4), Sample{101}, limits).admitted);
    EXPECT_TRUE(admitRequest(spec, ghz(4), Sample{100}, limits).admitted);

    EXPECT_FALSE(
        admitRequest(spec, ghz(4), Amplitudes{{0, 1, 2}}, limits).admitted);

    // Empty qubit list means the full register: 4 > 3 rejects.
    EXPECT_FALSE(admitRequest(spec, ghz(4), Probabilities{}, limits).admitted);
    EXPECT_TRUE(
        admitRequest(spec, ghz(4), Probabilities{{0, 1}}, limits).admitted);

    Expectation wide;
    wide.observable.add(1.0, PauliString("ZZII")).add(0.5,
                                                      PauliString("IIZZ"));
    EXPECT_FALSE(admitRequest(spec, ghz(4), wide, limits).admitted);

    Expectation heavy;
    heavy.observable.add(1.0, PauliString("ZZII"));
    heavy.shots = 101;
    EXPECT_FALSE(admitRequest(spec, ghz(4), heavy, limits).admitted);
}

TEST(AdmissionTest, VerdictFieldsNameTheConstraint)
{
    const auto spec = parseBackendSpec("sv");
    AdmissionLimits limits;
    limits.maxShots = 1;
    const AdmissionVerdict v = admitRequest(spec, ghz(2), Sample{2}, limits);
    ASSERT_FALSE(v.admitted);
    EXPECT_EQ(v.field, "shots");
    EXPECT_NE(v.reason.find("2"), std::string::npos);
}

} // namespace
} // namespace server
} // namespace qkc
