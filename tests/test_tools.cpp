/**
 * @file
 * End-to-end tests of the CLI tools (smoothe_extract, egraph_gen) by
 * invoking the actual binaries: generate a dataset to JSON, extract from
 * it with several extractors, and check the machine-readable output.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include "obs/report.hpp"
#include "util/json.hpp"

namespace {

/**
 * Locates a built binary of build-tree directory `subdir` (tools,
 * examples) relative to the test executable's directory.
 */
std::string
binaryPath(const std::string& name, const std::string& subdir = "tools")
{
    // Tests run from build/tests (ctest) or anywhere (manual); try the
    // build-tree layout first.
    const char* candidates[] = {"../", "./build/", "build/"};
    for (const char* dir : candidates) {
        const std::string path = std::string(dir) + subdir + "/" + name;
        if (FILE* f = std::fopen(path.c_str(), "rb")) {
            std::fclose(f);
            return path;
        }
    }
    return "";
}

int
runCommand(const std::string& command)
{
    return std::system((command + " > /dev/null 2>&1").c_str());
}

/**
 * Runs `command` with stderr folded into stdout, appends its output to
 * `output` and returns its exit status (-1 when it did not exit).
 */
int
runCaptured(const std::string& command, std::string& output)
{
    FILE* pipe = popen((command + " 2>&1").c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buffer[256];
    while (std::fgets(buffer, sizeof buffer, pipe))
        output += buffer;
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(Tools, GenerateThenExtractRoundTrip)
{
    const std::string gen = binaryPath("egraph_gen");
    const std::string extract = binaryPath("smoothe_extract");
    if (gen.empty() || extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";

    ASSERT_EQ(runCommand(gen + " --family maxsat --scale 0.05 --seed 9 "
                               "--out /tmp"),
              0);

    const std::string out = "/tmp/smoothe_tools_selection.json";
    ASSERT_EQ(runCommand(extract +
                         " --input /tmp/maxsat_0.json --extractor "
                         "heuristic+ --output " + out),
              0);

    auto text = smoothe::util::readFile(out);
    ASSERT_TRUE(text.has_value());
    auto doc = smoothe::util::Json::parse(*text);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    EXPECT_NE(doc->find("cost"), nullptr);
    EXPECT_NE(doc->find("choices"), nullptr);
    EXPECT_EQ(doc->find("extractor")->asString(), "heuristic+");
    EXPECT_GT(doc->find("choices")->asObject().size(), 0u);
}

TEST(Tools, ExtractorsAgreeOnToolInput)
{
    const std::string extract = binaryPath("smoothe_extract");
    if (extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";

    // smoothe and ilp-strong on the same small instance.
    for (const char* name : {"smoothe", "ilp-strong", "heuristic+"}) {
        const int code = runCommand(
            extract + std::string(" --input /tmp/maxsat_0.json --extractor ") +
            name + " --time-limit 10 --output /tmp/smoothe_tools_" + name +
            ".json");
        EXPECT_EQ(code, 0) << name;
    }
    auto a = smoothe::util::readFile("/tmp/smoothe_tools_ilp-strong.json");
    auto b = smoothe::util::readFile("/tmp/smoothe_tools_smoothe.json");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    const double ilpCost =
        smoothe::util::Json::parse(*a)->find("cost")->asNumber();
    const double smootheCost =
        smoothe::util::Json::parse(*b)->find("cost")->asNumber();
    EXPECT_GE(smootheCost, ilpCost - 1e-6); // ILP is optimal here
    EXPECT_LE(smootheCost, ilpCost * 2.0 + 10.0);
}

// A mid-run abort (uncaught exception -> std::terminate) must still
// leave every telemetry file valid: the terminate handler flushes the
// report (including the profile section) and the collapsed-stack
// --profile-out file before the process dies.
TEST(Tools, TerminateFlushKeepsTelemetryFilesValid)
{
    const std::string extract = binaryPath("smoothe_extract");
    if (extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";

    const std::string report = "/tmp/smoothe_tools_terminate_report.json";
    const std::string folded = "/tmp/smoothe_tools_terminate.folded";
    std::remove(report.c_str());
    std::remove(folded.c_str());
    const int code = runCommand(
        extract + " --input /tmp/maxsat_0.json --extractor smoothe "
                  "--seeds 4 --max-iters 10 --time-limit 10 "
                  "--selftest-terminate --profile --report-out " +
        report + " --profile-out " + folded);
    EXPECT_NE(code, 0); // std::terminate -> abort

    auto reportText = smoothe::util::readFile(report);
    ASSERT_TRUE(reportText.has_value());
    auto doc = smoothe::util::Json::parse(*reportText);
    ASSERT_TRUE(doc.has_value());
    std::string error;
    EXPECT_TRUE(smoothe::obs::validateReportJson(*doc, &error)) << error;
    EXPECT_EQ(smoothe::obs::reportSchemaVersion(*doc),
              smoothe::obs::kReportSchemaVersion);
    const smoothe::util::Json* profile = doc->find("profile");
    ASSERT_NE(profile, nullptr);
    EXPECT_GT(profile->find("kernels")->asObject().size(), 0u);

    // Folded lines are "smoothe;<phase>;<kernel> <micros>".
    auto foldedText = smoothe::util::readFile(folded);
    ASSERT_TRUE(foldedText.has_value());
    ASSERT_FALSE(foldedText->empty());
    std::size_t lines = 0;
    std::size_t start = 0;
    while (start < foldedText->size()) {
        std::size_t end = foldedText->find('\n', start);
        if (end == std::string::npos)
            end = foldedText->size();
        const std::string line = foldedText->substr(start, end - start);
        if (!line.empty()) {
            ++lines;
            EXPECT_EQ(line.rfind("smoothe;", 0), 0u) << line;
            EXPECT_NE(line.find(' '), std::string::npos) << line;
        }
        start = end + 1;
    }
    EXPECT_GT(lines, 0u);
}

TEST(Tools, ExtractRejectsBadInput)
{
    const std::string extract = binaryPath("smoothe_extract");
    if (extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";
    EXPECT_NE(runCommand(extract + " --input /nonexistent.json"), 0);
    EXPECT_NE(runCommand(extract), 0); // no --input
    smoothe::util::writeFile("/tmp/smoothe_tools_bad.json", "not json");
    EXPECT_NE(runCommand(extract +
                         " --input /tmp/smoothe_tools_bad.json"),
              0);
    EXPECT_NE(runCommand(extract + " --input /tmp/maxsat_0.json "
                                   "--extractor bogus"),
              0);
    // An unknown assumption is a usage error, not a silent hybrid run;
    // so is a flag no binary reads any more, or a deleted extractor.
    for (const char* flags : {"--assumption bogus", "--log-level debug",
                              "--log-json /tmp/x.jsonl",
                              "--extractor greedy-dag"}) {
        const int status = runCommand(
            extract + " --input /tmp/maxsat_0.json " + flags);
        ASSERT_TRUE(WIFEXITED(status)) << flags;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
    }
}

TEST(Tools, ExtractRejectsMalformedNumbers)
{
    const std::string extract = binaryPath("smoothe_extract");
    if (extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";
    // A numeric value that does not parse (or a negative count) is a
    // usage error naming the flag, not a run on the default; the deleted
    // --incremental/--epochs flags are unknown flags.
    const struct
    {
        const char* flags;
        const char* named;
    } cases[] = {{"--seeds abc", "--seeds"},
                 {"--threads two", "--threads"},
                 {"--threads -3", "--threads"},
                 {"--profile-stride -4", "--profile-stride"},
                 {"--max-iters -5", "--max-iters"},
                 {"--time-limit 1s", "--time-limit"},
                 {"--incremental", "--incremental"},
                 {"--epochs 2", "--epochs"}};
    for (const auto& c : cases) {
        std::string output;
        EXPECT_EQ(runCaptured(extract +
                                  " --input /tmp/maxsat_0.json "
                                  "--extractor heuristic " +
                                  c.flags,
                              output),
                  2)
            << c.flags << ": " << output;
        EXPECT_NE(output.find(c.named), std::string::npos) << output;
    }
}

TEST(Tools, ExampleRejectsBadFlags)
{
    const std::string example = binaryPath("adversarial", "examples");
    if (example.empty())
        GTEST_SKIP() << "example binaries not found relative to cwd";
    // The examples read their flags through the same check as the tools:
    // a typo or a malformed size is a usage error, not a run on defaults.
    std::string output;
    EXPECT_EQ(runCaptured(example + " --elements abc --sets -3 --typo 1",
                          output),
              2)
        << output;
    EXPECT_NE(output.find("unrecognized flag --typo"), std::string::npos)
        << output;
    EXPECT_NE(output.find("for --elements"), std::string::npos) << output;
    EXPECT_NE(output.find("for --sets"), std::string::npos) << output;

    // The two examples that take no size flags check them all the same;
    // eqsat_math reads its term from --term.
    const std::string eqsatMath = binaryPath("eqsat_math", "examples");
    const std::string quickstart = binaryPath("quickstart", "examples");
    ASSERT_FALSE(eqsatMath.empty());
    ASSERT_FALSE(quickstart.empty());
    for (const std::string& binary : {eqsatMath, quickstart}) {
        EXPECT_EQ(runCaptured(binary + " --typo 1", output), 2) << output;
        EXPECT_NE(output.find("unrecognized flag --typo"),
                  std::string::npos)
            << output;
    }
    EXPECT_EQ(runCaptured(eqsatMath + " --term \"(+ a a)\"", output), 0)
        << output;
    EXPECT_NE(output.find("input term: (+ a a)"), std::string::npos)
        << output;
}
