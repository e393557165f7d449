// The self-test: every correctness check the workloads use must pass on a
// payload the program produced and fail on the same payload corrupted.
// Small instances keep it to a few seconds.
#include <cstdio>

#include "circuit/qasm.h"
#include "reference.h"
#include "server/server_core.h"
#include "vqa/backends.h"
#include "workloads.h"

namespace perfbench {

namespace {

int failures = 0;

/** `good` must be empty (pass) and `bad` non-empty (the check caught it). */
void
expect(const char* check, const std::string& good, const std::string& bad)
{
    const bool ok = good.empty() && !bad.empty();
    std::printf("%-28s good: %-6s corrupted: %s\n", check,
                good.empty() ? "pass" : "FAIL", bad.empty() ? "NOT CAUGHT" : "caught");
    if (!good.empty())
        std::printf("    unexpected failure: %s\n", good.c_str());
    if (!bad.empty())
        std::printf("    caught: %s\n", bad.c_str());
    failures += ok ? 0 : 1;
}

QaoaInstance
smallInstance(std::size_t n, double noise)
{
    InputRng rng(99 + n);
    QaoaInstance inst;
    inst.n = n;
    inst.p = 1;
    inst.edges = random3Regular(n, rng);
    inst.depolarizing = noise;
    return inst;
}

} // namespace

int
runSelfTest()
{
    InputRng angleRng(4242);

    // -- sample shape and CLT mean, exact expectation (state vector) --------
    const QaoaInstance ideal = smallInstance(8, 0.0);
    const std::vector<double> angles = freshAngles(ideal, angleRng);
    const qkc::Circuit circuit = qaoaCircuit(ideal, angles);
    auto sv = qkc::StateVectorBackend().open(circuit);
    qkc::Rng rng(1);
    const std::vector<std::uint64_t> samples = sv->run(qkc::Sample{1024}, rng).samples;
    const CutMoments ref = cutMoments(ideal, referenceProbabilities(ideal, angles));

    std::vector<std::uint64_t> shortened(samples.begin(), samples.end() - 1);
    expect("sample shape (count)", checkSampleShape(samples, 1024, ideal.n),
           checkSampleShape(shortened, 1024, ideal.n));
    std::vector<std::uint64_t> outOfRange = samples;
    outOfRange[7] = std::uint64_t{1} << ideal.n;
    expect("sample shape (range)", checkSampleShape(samples, 1024, ideal.n),
           checkSampleShape(outOfRange, 1024, ideal.n));
    expect("sample mean cut (CLT)", checkSampleMeanCut(ideal, samples, ref),
           checkSampleMeanCut(ideal, std::vector<std::uint64_t>(1024, 0), ref));

    const double e =
        sv->run(qkc::Expectation{cutObservable(ideal)}, rng).expectation;
    expect("exact expectation", checkExpectation(e, ref.mean),
           checkExpectation(e + 1e-6, ref.mean));

    // -- pooled Gibbs chains (knowledge compilation, noisy) -----------------
    const QaoaInstance noisy = smallInstance(6, kKcNoise);
    const std::vector<double> noisyAngles = freshAngles(noisy, angleRng);
    auto kc = qkc::KnowledgeCompilationBackend().open(qaoaCircuit(noisy, noisyAngles));
    std::vector<std::vector<std::uint64_t>> chains, corrupted;
    for (std::uint64_t k = 0; k < 8; ++k) {
        qkc::Rng chainRng(100 + k);
        chains.push_back(kc->run(qkc::Sample{kKcShots}, chainRng).samples);
        corrupted.push_back(chains.back());
        // Zero every other outcome: the mean cut drops by about half.
        for (std::size_t i = 0; i < corrupted.back().size(); i += 2)
            corrupted.back()[i] = 0;
    }
    const CutMoments noisyRef =
        cutMoments(noisy, referenceNoisyProbabilities(noisy, noisyAngles));
    expect("pooled Gibbs mean cut", checkGibbsPooled(noisy, chains, noisyRef),
           checkGibbsPooled(noisy, corrupted, noisyRef));

    // -- served reply shape and replay identity ------------------------------
    qkc::server::ServerCore core;
    const std::string qasm = qaoaQasm(ideal, angles);
    std::string escaped;
    for (char ch : qasm)
        escaped += ch == '\n' ? std::string("\\n")
                              : (ch == '"' ? std::string("\\\"") : std::string(1, ch));
    const std::uint64_t seed = 77;
    const std::string body = "{\"backend\": \"sv:threads=1\", \"qasm\": \"" +
                             escaped + "\", \"task\": \"sample\", \"shots\": 256, "
                                       "\"seed\": " + std::to_string(seed) + "}";
    const qkc::server::HttpResult reply = core.handle("POST", "/v1/run", body);
    std::vector<std::uint64_t> served, ignored;
    double wait = 0.0;
    bool hit = false;
    const std::string goodReply =
        readRunReply(reply.status, reply.body, 256, ideal.n, &served, &wait, &hit);
    std::string truncated = reply.body;
    const std::size_t cut = truncated.find("\"samples\":[");
    if (cut != std::string::npos)
        truncated.erase(cut + 11, truncated.find(',', cut + 11) - (cut + 11) + 1);
    expect("served reply shape", goodReply,
           readRunReply(reply.status, truncated, 256, ideal.n, &ignored, &wait, &hit));
    expect("served reply status", goodReply,
           readRunReply(500, reply.body, 256, ideal.n, &ignored, &wait, &hit));

    const qkc::Circuit parsed = qkc::parseQasm(qasm);
    auto replay = qkc::makeBackend("sv:threads=1")->open(parsed);
    const std::vector<std::uint64_t> replayed =
        replay->runBatch({parsed}, qkc::Sample{256}, {seed}).front().samples;
    std::vector<std::uint64_t> flipped = replayed;
    flipped[3] ^= 1;
    expect("replay bit-identical", checkIdentical(served, replayed),
           checkIdentical(served, flipped));

    std::printf("self-test: %s\n", failures == 0 ? "every check passes good "
                                                   "payloads and catches corrupted ones"
                                                 : "FAILED");
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
