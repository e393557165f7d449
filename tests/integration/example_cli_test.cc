/**
 * The example CLIs report bad input as an error line and a nonzero exit
 * code instead of dying on an uncaught exception, and `--list-backends
 * --json` prints the registry's option keys. Runs the built binaries,
 * whose paths CMake passes in as QKC_EXAMPLE_QKC_CLI and
 * QKC_EXAMPLE_QAOA_MAXCUT.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
    int exitCode = -1; ///< -1 when the process did not exit normally
    std::string output; ///< stdout and stderr, interleaved
};

RunResult
run(const std::string& command)
{
    RunResult r;
    std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
    if (!pipe)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        r.output.append(buf, n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        r.exitCode = WEXITSTATUS(status);
    return r;
}

TEST(ExampleCliTest, MissingQasmFileIsAnErrorNotAnAbort)
{
    const RunResult r = run(std::string(QKC_EXAMPLE_QKC_CLI) +
                            " --qasm=/nonexistent.qasm --mode=sample");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("error: cannot open /nonexistent.qasm"),
              std::string::npos)
        << r.output;
}

TEST(ExampleCliTest, UnknownBackendIsAnErrorNotAnAbort)
{
    const RunResult r = run(std::string(QKC_EXAMPLE_QAOA_MAXCUT) +
                            " --vertices=4 --backend=bogus");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("error: makeBackend: unknown backend \"bogus\""),
              std::string::npos)
        << r.output;
}

TEST(ExampleCliTest, ListBackendsJsonAdvertisesNoPathOption)
{
    const RunResult r =
        run(std::string(QKC_EXAMPLE_QKC_CLI) + " --list-backends --json");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("\"statevector\""), std::string::npos);
    EXPECT_NE(r.output.find("\"threads\""), std::string::npos);
    EXPECT_EQ(r.output.find("\"path\""), std::string::npos) << r.output;
}

} // namespace
