#include "server/server_core.h"

#include <gtest/gtest.h>

#include <string>

#include "server/json.h"

namespace qkc {
namespace server {
namespace {

const char* kBellQasm =
    "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[2];\\nh q[0];\\ncx "
    "q[0], q[1];\\n";

std::string
bellBody(const std::string& extra = {})
{
    return std::string("{\"backend\":\"sv\",\"qasm\":\"") + kBellQasm + "\"" +
           extra + "}";
}

Json
parse(const HttpResult& r)
{
    return parseJson(r.body);
}

std::string
errorCode(const HttpResult& r)
{
    return parse(r).find("error")->find("code")->asString();
}

TEST(ServerCoreTest, RoutingAndMethods)
{
    ServerCore core;
    EXPECT_EQ(core.handle("GET", "/nope", "").status, 404);
    EXPECT_EQ(core.handle("GET", "/v1/run", "").status, 405);
    EXPECT_EQ(core.handle("POST", "/v1/stats", "").status, 405);
    EXPECT_EQ(core.handle("POST", "/v1/backends", "").status, 405);
    EXPECT_EQ(core.handle("GET", "/v1/shutdown", "").status, 405);
    EXPECT_EQ(core.handle("GET", "/v1/healthz", "").status, 200);
}

TEST(ServerCoreTest, RunSampleEndToEnd)
{
    ServerCore core;
    const HttpResult r = core.handle(
        "POST", "/v1/run", bellBody(",\"shots\":16,\"seed\":7"));
    ASSERT_EQ(r.status, 200) << r.body;
    const Json doc = parse(r);
    EXPECT_EQ(doc.find("backend")->asString(), "statevector");
    EXPECT_EQ(doc.find("task")->asString(), "sample");
    EXPECT_FALSE(doc.find("cacheHit")->asBool());
    const Json& results = *doc.find("results");
    ASSERT_EQ(results.size(), 1u);
    const Json& samples = *results.at(0).find("samples");
    ASSERT_EQ(samples.size(), 16u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::uint64_t s = samples.at(i).asUInt64();
        EXPECT_TRUE(s == 0 || s == 3) << s; // Bell: |00> or |11>
    }

    // Same request again: cache hit, identical payload (same seed).
    const HttpResult r2 = core.handle(
        "POST", "/v1/run", bellBody(",\"shots\":16,\"seed\":7"));
    ASSERT_EQ(r2.status, 200);
    const Json doc2 = parse(r2);
    EXPECT_TRUE(doc2.find("cacheHit")->asBool());
    EXPECT_EQ(doc2.find("results")->at(0).find("samples")->dump(),
              doc.find("results")->at(0).find("samples")->dump());
}

TEST(ServerCoreTest, TasksRoundTrip)
{
    ServerCore core;

    const HttpResult probs = core.handle(
        "POST", "/v1/run", bellBody(",\"task\":\"probabilities\""));
    ASSERT_EQ(probs.status, 200) << probs.body;
    const Json probsDoc = parse(probs);
    const Json& p = *probsDoc.find("results")->at(0).find("probabilities");
    ASSERT_EQ(p.size(), 4u);
    EXPECT_NEAR(p.at(0).asDouble(), 0.5, 1e-12);
    EXPECT_NEAR(p.at(3).asDouble(), 0.5, 1e-12);

    const HttpResult amps = core.handle(
        "POST", "/v1/run",
        bellBody(",\"task\":\"amplitudes\",\"bitstrings\":[0,3]"));
    ASSERT_EQ(amps.status, 200) << amps.body;
    const Json ampsDoc = parse(amps);
    const Json& a = *ampsDoc.find("results")->at(0).find("amplitudes");
    ASSERT_EQ(a.size(), 2u);
    EXPECT_NEAR(a.at(0).at(0).asDouble(), 0.70710678118, 1e-9);

    const HttpResult expv = core.handle(
        "POST", "/v1/run",
        bellBody(",\"task\":\"expectation\",\"observable\":[[1.0,\"ZZ\"]]"));
    ASSERT_EQ(expv.status, 200) << expv.body;
    const Json expvDoc = parse(expv);
    EXPECT_NEAR(
        expvDoc.find("results")->at(0).find("expectation")->asDouble(), 1.0,
        1e-12);
}

TEST(ServerCoreTest, MultiBindingParams)
{
    // One parameterized rx gate; three bindings sweep its angle. rx(0)|0>
    // never flips, rx(pi)|0> always does.
    ServerCore core;
    const std::string body =
        "{\"backend\":\"sv\",\"qasm\":\"OPENQASM 2.0;\\ninclude "
        "\\\"qelib1.inc\\\";\\nqreg q[1];\\nrx(0.1) q[0];\\n\","
        "\"shots\":32,\"seed\":5,"
        "\"params\":[[0.0],[3.14159265358979],[0.0]]}";
    const HttpResult r = core.handle("POST", "/v1/run", body);
    ASSERT_EQ(r.status, 200) << r.body;
    const Json doc = parse(r);
    const Json& results = *doc.find("results");
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_EQ(results.at(0).find("samples")->at(i).asUInt64(), 0u);
        EXPECT_EQ(results.at(1).find("samples")->at(i).asUInt64(), 1u);
    }
    // Bindings 0 and 2 share parameters but not seeds (seed+0 vs seed+2) —
    // same distribution, independent streams.
}

TEST(ServerCoreTest, BadRequestsMapTo400)
{
    ServerCore core;
    EXPECT_EQ(core.handle("POST", "/v1/run", "not json").status, 400);
    EXPECT_EQ(core.handle("POST", "/v1/run", "{}").status, 400);
    EXPECT_EQ(core.handle("POST", "/v1/run",
                          "{\"backend\":\"sv\",\"qasm\":\"garbage\"}")
                  .status,
              400);
    EXPECT_EQ(
        core.handle("POST", "/v1/run", bellBody(",\"task\":\"frobnicate\""))
            .status,
        400);
    EXPECT_EQ(
        core.handle("POST", "/v1/run", bellBody(",\"unknownField\":1")).status,
        400);
    // Backend spec errors are client errors too.
    const HttpResult r = core.handle(
        "POST", "/v1/run",
        std::string("{\"backend\":\"warp\",\"qasm\":\"") + kBellQasm + "\"}");
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(errorCode(r), "bad_request");
    // A Pauli term wider than the 63-qubit cap is refused at parse time.
    const HttpResult wide = core.handle(
        "POST", "/v1/run",
        bellBody(",\"task\":\"expectation\",\"observable\":[[1.0,\"" +
                 std::string(64, 'Z') + "\"]]"));
    EXPECT_EQ(wide.status, 400);
    EXPECT_EQ(errorCode(wide), "bad_request");
    // Task/backend mismatch surfaces at run time but is still a 400.
    EXPECT_EQ(core.handle("POST", "/v1/run",
                          std::string("{\"backend\":\"kc\",\"qasm\":\"") +
                              kBellQasm +
                              "\",\"task\":\"amplitudes\","
                              "\"bitstrings\":[0,9]}")
                  .status,
              400);
}

TEST(ServerCoreTest, AdmissionRejectsWith422)
{
    ServerCore core;
    std::string big = "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg "
                      "q[40];\\nh q[0];\\n";
    const HttpResult r = core.handle(
        "POST", "/v1/run",
        "{\"backend\":\"sv\",\"qasm\":\"" + big + "\"}");
    EXPECT_EQ(r.status, 422);
    EXPECT_EQ(errorCode(r), "infeasible");
    EXPECT_EQ(parse(r).find("error")->find("field")->asString(), "memory");
}

TEST(ServerCoreTest, UnservedCellsAnswer422BeforeAnySessionOpens)
{
    // Noisy sv amplitudes is a `No` cell in the registry: admission refuses
    // it, so no session opens and the cache stays empty.
    ServerCore core;
    const std::string noisyBell =
        "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[2];\\nh "
        "q[0];\\n// qkc.noise bitflip 0 0.05\\ncx q[0], q[1];\\n";
    const HttpResult r = core.handle(
        "POST", "/v1/run",
        "{\"backend\":\"sv\",\"qasm\":\"" + noisyBell +
            "\",\"task\":\"amplitudes\",\"bitstrings\":[0]}");
    EXPECT_EQ(r.status, 422) << r.body;
    EXPECT_EQ(errorCode(r), "infeasible");
    EXPECT_EQ(parse(r).find("error")->find("field")->asString(), "backend");
    const Json stats = parse(core.handle("GET", "/v1/stats", ""));
    EXPECT_EQ(stats.find("cache")->find("size")->asUInt64(), 0u);

    // A served cell with a bitstring out of range is still a 400.
    const HttpResult range = core.handle(
        "POST", "/v1/run",
        bellBody(",\"task\":\"amplitudes\",\"bitstrings\":[4]"));
    EXPECT_EQ(range.status, 400) << range.body;
    EXPECT_EQ(errorCode(range), "bad_request");
}

TEST(ServerCoreTest, InflightBoundRejectsWith429)
{
    // maxInflight = 0: the very first request trips the bound — the
    // deterministic way to exercise the queue-full path single-threaded.
    ServerConfig config;
    config.maxInflight = 0;
    ServerCore core(config);
    const HttpResult r = core.handle("POST", "/v1/run", bellBody());
    EXPECT_EQ(r.status, 429);
    EXPECT_EQ(errorCode(r), "overloaded");
    EXPECT_EQ(core.inflight(), 0u); // the guard released its slot
}

TEST(ServerCoreTest, DrainingRejectsWith503)
{
    ServerCore core;
    EXPECT_EQ(core.handle("POST", "/v1/run", bellBody()).status, 200);
    core.beginDrain();
    const HttpResult r = core.handle("POST", "/v1/run", bellBody());
    EXPECT_EQ(r.status, 503);
    EXPECT_EQ(errorCode(r), "draining");
    // Non-run endpoints still answer while draining.
    EXPECT_EQ(core.handle("GET", "/v1/healthz", "").status, 200);
    EXPECT_EQ(core.handle("GET", "/v1/stats", "").status, 200);
}

TEST(ServerCoreTest, ShutdownEndpointBeginsDrain)
{
    ServerCore core;
    EXPECT_FALSE(core.draining());
    const HttpResult r = core.handle("POST", "/v1/shutdown", "");
    EXPECT_EQ(r.status, 200);
    EXPECT_TRUE(core.draining());
    EXPECT_TRUE(parse(r).find("draining")->asBool());
}

TEST(ServerCoreTest, BackendsEndpointMirrorsTheRegistry)
{
    ServerCore core;
    const HttpResult r = core.handle("GET", "/v1/backends", "");
    ASSERT_EQ(r.status, 200);
    const Json doc = parse(r);
    const Json& backends = *doc.find("backends");
    ASSERT_EQ(backends.size(), backendRegistry().size());
    bool sawSv = false;
    for (std::size_t i = 0; i < backends.size(); ++i)
        sawSv = sawSv ||
                backends.at(i).find("name")->asString() == "statevector";
    EXPECT_TRUE(sawSv);
}

TEST(ServerCoreTest, StatsReportCacheAndQueueState)
{
    ServerConfig config;
    config.cacheCapacity = 1;
    ServerCore core(config);
    core.handle("POST", "/v1/run", bellBody());
    core.handle("POST", "/v1/run", bellBody());
    // A different structure evicts the Bell entry (capacity 1).
    core.handle("POST", "/v1/run",
                "{\"backend\":\"sv\",\"qasm\":\"OPENQASM 2.0;\\ninclude "
                "\\\"qelib1.inc\\\";\\nqreg q[1];\\nh q[0];\\n\"}");

    const Json doc = parse(core.handle("GET", "/v1/stats", ""));
    EXPECT_FALSE(doc.find("draining")->asBool());
    EXPECT_EQ(doc.find("inflight")->asUInt64(), 0u);
    const Json& cache = *doc.find("cache");
    EXPECT_EQ(cache.find("size")->asUInt64(), 1u);
    EXPECT_EQ(cache.find("capacity")->asUInt64(), 1u);
    EXPECT_EQ(cache.find("evictions")->asUInt64(), 1u);
}

} // namespace
} // namespace server
} // namespace qkc
