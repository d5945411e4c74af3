/**
 * @file
 * Run-report subsystem tests: golden-file schema round-trip, JSON
 * validation, regression detection via checkReports, the committed
 * bench baselines gating a current-version candidate, and end-to-end
 * gating through the smoothe_report binary (--check exits nonzero when
 * a 20% slowdown is injected into the candidate).
 *
 * Regenerate the golden after an intentional schema change with:
 *   SMOOTHE_REGEN_GOLDEN=1 ./build/tests/test_report
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/report.hpp"
#include "util/json.hpp"

namespace so = smoothe::obs;
namespace util = smoothe::util;

#ifndef SMOOTHE_GOLDEN_DIR
#define SMOOTHE_GOLDEN_DIR "tests/golden"
#endif
#ifndef SMOOTHE_BASELINE_DIR
#define SMOOTHE_BASELINE_DIR "bench/baselines"
#endif

namespace {

/**
 * Fills a report with fully deterministic contents: fixed run keys
 * (install() is deliberately not used — it stamps the git sha), fixed
 * measurement samples, phase observations, and series rows.
 */
void
populateSample(so::Report& report)
{
    report.setRun("tool", "unit_test");
    report.setRun("family", "golden");
    report.setRun("seed", 7);

    so::Measurement& kernel =
        report.measurement("kernel.time").unit("s").checked(false);
    kernel.add(0.5);
    kernel.add(1.5);
    report.measurement("arena.bytes").unit("B").tolerancePct(5.0).add(
        4096.0);
    report.measurement("speedup").unit("x").higherIsBetter().add(2.0);

    // Binary fractions, so the golden sum is exact.
    report.addPhase("loss", 0.25);
    report.addPhase("loss", 0.5);
    report.addPhase("loss", 0.125);
    report.addPhase("loss", 4.0);

    so::Series& curve =
        report.series("convergence", {"iteration", "loss"});
    curve.addRow({0.0, 10.0});
    curve.addRow({1.0, 5.0});
    curve.addRow({2.0, 2.5});
}

/** Serializes the sample without the volatile metrics snapshot. */
util::Json
sampleReportJson()
{
    so::Report report("unit_test");
    populateSample(report);
    return report.toJson(false);
}

std::string
sampleReportText()
{
    return sampleReportJson().dumpPretty() + "\n";
}

std::string
goldenPath()
{
    return std::string(SMOOTHE_GOLDEN_DIR) + "/report_schema.json";
}

/** Locates a built binary relative to the test executable's directory. */
std::string
binaryPath(const std::string& name)
{
    const char* candidates[] = {"../tools/", "./build/tools/",
                                "build/tools/"};
    for (const char* dir : candidates) {
        const std::string path = std::string(dir) + name;
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
    const int status =
        std::system((command + " > /dev/null 2>&1").c_str());
    return status < 0 ? status : status / 256; // decode exit code
}

/** Writes a baseline/candidate report pair where the candidate runs
 *  `slowdown`x the baseline's checked kernel time. */
void
writeCheckPair(const std::string& base_path,
               const std::string& cand_path, double slowdown)
{
    so::Report baseline("gate_test");
    baseline.setRun("tool", "gate_test");
    so::Measurement& baseTime =
        baseline.measurement("kernel.time").unit("s");
    baseTime.add(0.1);
    baseTime.add(0.1);
    baseline.measurement("speedup").higherIsBetter().add(2.0);
    ASSERT_TRUE(baseline.writeTo(base_path));

    so::Report candidate("gate_test");
    candidate.setRun("tool", "gate_test");
    so::Measurement& candTime =
        candidate.measurement("kernel.time").unit("s");
    candTime.add(0.1 * slowdown);
    candTime.add(0.1 * slowdown);
    candidate.measurement("speedup").higherIsBetter().add(2.0);
    ASSERT_TRUE(candidate.writeTo(cand_path));
}

} // namespace

TEST(Report, GoldenSchemaRoundTrip)
{
    const std::string actual = sampleReportText();
    if (std::getenv("SMOOTHE_REGEN_GOLDEN") != nullptr) {
        ASSERT_TRUE(util::writeFile(goldenPath(), actual));
        GTEST_SKIP() << "regenerated " << goldenPath();
    }
    const auto expected = util::readFile(goldenPath());
    ASSERT_TRUE(expected.has_value())
        << "missing golden file " << goldenPath();
    EXPECT_EQ(actual, *expected)
        << "report schema drifted; regenerate the golden with "
           "SMOOTHE_REGEN_GOLDEN=1 after reviewing the diff";
}

TEST(Report, SerializedReportValidates)
{
    auto doc = util::Json::parse(sampleReportText());
    ASSERT_TRUE(doc.has_value());
    std::string error;
    EXPECT_TRUE(so::validateReportJson(*doc, &error)) << error;

    // writeTo() output (with the metrics snapshot) validates too.
    const std::string path = "/tmp/smoothe_test_report_full.json";
    so::Report full("unit_test");
    populateSample(full);
    ASSERT_TRUE(full.writeTo(path));
    const auto text = util::readFile(path);
    ASSERT_TRUE(text.has_value());
    auto written = util::Json::parse(*text);
    ASSERT_TRUE(written.has_value());
    EXPECT_TRUE(so::validateReportJson(*written, &error)) << error;
}

TEST(Report, ValidationRejectsForeignAndBrokenDocs)
{
    std::string error;
    auto notAReport = util::Json::parse("{\"hello\": 1}");
    ASSERT_TRUE(notAReport.has_value());
    EXPECT_FALSE(so::validateReportJson(*notAReport, &error));

    auto doc = util::Json::parse(sampleReportText());
    ASSERT_TRUE(doc.has_value());
    // Only integers from 1 to the current version are real versions.
    for (const double version : {999.0, -3.0, 2.9, 0.0}) {
        doc->set("schemaVersion", version);
        error.clear();
        EXPECT_FALSE(so::validateReportJson(*doc, &error)) << version;
        EXPECT_FALSE(error.empty()) << version;
    }
    for (const double version : {1.0, 2.0, 3.0}) {
        doc->set("schemaVersion", version);
        EXPECT_TRUE(so::validateReportJson(*doc, &error)) << version;
    }

    // A phase entry needs a numeric count and sum.
    doc->set("schemaVersion", so::kReportSchemaVersion);
    util::Json phases = util::Json::makeObject();
    util::Json noSum = util::Json::makeObject();
    noSum.set("count", 1);
    phases.set("loss", std::move(noSum));
    doc->set("phases", std::move(phases));
    EXPECT_FALSE(so::validateReportJson(*doc, &error));
}

TEST(Report, PhaseTotalsLandInJson)
{
    const auto doc = sampleReportJson();
    const util::Json* phases = doc.find("phases");
    ASSERT_NE(phases, nullptr);
    const util::Json* loss = phases->find("loss");
    ASSERT_NE(loss, nullptr);
    EXPECT_EQ(loss->find("unit")->asString(), "s");
    EXPECT_EQ(loss->find("count")->asNumber(), 4.0);
    EXPECT_EQ(loss->find("sum")->asNumber(), 4.875);
    EXPECT_EQ(loss->asObject().size(), 3u); // no buckets or percentiles
}

TEST(Report, CommittedBaselinesGateV3Candidates)
{
    for (const char* name : {"micro_kernels.json", "anytime_eqsat.json"}) {
        SCOPED_TRACE(name);
        const auto text = util::readFile(std::string(SMOOTHE_BASELINE_DIR) +
                                         "/" + name);
        ASSERT_TRUE(text.has_value());
        const auto baseline = util::Json::parse(*text);
        ASSERT_TRUE(baseline.has_value());
        std::string error;
        ASSERT_TRUE(so::validateReportJson(*baseline, &error)) << error;

        // A current-version candidate that reproduces every baseline
        // mean passes the gate and misses nothing.
        so::Report candidate("baseline_test");
        for (const auto& [measurement, entry] :
             baseline->find("measurements")->asObject()) {
            so::Measurement& m = candidate.measurement(measurement);
            const util::Json* better = entry.find("better");
            if (better != nullptr && better->asString() == "higher")
                m.higherIsBetter();
            m.add(entry.find("mean")->asNumber());
        }
        candidate.addPhase("loss", 0.5);
        const util::Json doc = candidate.toJson(false);
        ASSERT_EQ(so::reportSchemaVersion(doc), so::kReportSchemaVersion);
        ASSERT_TRUE(so::validateReportJson(doc, &error)) << error;
        const auto findings = so::checkReports(*baseline, doc, 0.0);
        EXPECT_FALSE(findings.empty());
        for (const auto& finding : findings) {
            EXPECT_FALSE(finding.regression) << finding.measurement;
            EXPECT_FALSE(finding.missing) << finding.measurement;
        }
    }
}

TEST(Report, CheckDetectsInjectedSlowdown)
{
    const auto baseline = sampleReportJson();

    // Identical reports: findings, but no regression.
    const auto same =
        so::checkReports(baseline, sampleReportJson(), 5.0);
    ASSERT_FALSE(same.empty());
    for (const auto& finding : same)
        EXPECT_FALSE(finding.regression) << finding.measurement;

    // 20% slower checked measurement: regression beyond 5%.
    so::Report slow("unit_test");
    slow.setRun("tool", "unit_test");
    slow.measurement("arena.bytes").unit("B").add(4096.0 * 1.2);
    slow.measurement("speedup").higherIsBetter().add(2.0);
    const auto findings =
        so::checkReports(baseline, slow.toJson(false), 5.0);
    bool sawRegression = false;
    for (const auto& finding : findings)
        sawRegression = sawRegression || (finding.measurement ==
                                              "arena.bytes" &&
                                          finding.regression);
    EXPECT_TRUE(sawRegression);

    // Unchecked measurements ("kernel.time") are never gated.
    for (const auto& finding : findings)
        EXPECT_NE(finding.measurement, "kernel.time");
}

TEST(Report, CheckRespectsDirectionAndTolerance)
{
    const auto baseline = sampleReportJson();

    // Higher-is-better: a LOWER candidate speedup is the regression.
    so::Report slower("unit_test");
    slower.setRun("tool", "unit_test");
    slower.measurement("arena.bytes").unit("B").add(4096.0);
    slower.measurement("speedup").higherIsBetter().add(1.0);
    const auto findings =
        so::checkReports(baseline, slower.toJson(false), 5.0);
    bool speedupRegressed = false;
    for (const auto& finding : findings)
        speedupRegressed =
            speedupRegressed ||
            (finding.measurement == "speedup" && finding.regression);
    EXPECT_TRUE(speedupRegressed);

    // arena.bytes carries tolerancePct(5); +3% passes even when the
    // command-line default tolerance is zero.
    so::Report nearby("unit_test");
    nearby.setRun("tool", "unit_test");
    nearby.measurement("arena.bytes").unit("B").add(4096.0 * 1.03);
    nearby.measurement("speedup").higherIsBetter().add(2.0);
    for (const auto& finding :
         so::checkReports(baseline, nearby.toJson(false), 0.0)) {
        if (finding.measurement == "arena.bytes") {
            EXPECT_FALSE(finding.regression);
        }
    }
}

TEST(Report, CheckFailsOnMissingCheckedMeasurement)
{
    const auto baseline = sampleReportJson();

    // The candidate stopped emitting the checked "arena.bytes" and the
    // unchecked "kernel.time": only the checked one is a regression.
    so::Report partial("unit_test");
    partial.setRun("tool", "unit_test");
    partial.measurement("speedup").higherIsBetter().add(2.0);
    const auto findings =
        so::checkReports(baseline, partial.toJson(false), 5.0);
    bool arenaRegressed = false;
    for (const auto& finding : findings) {
        EXPECT_NE(finding.measurement, "kernel.time");
        if (finding.measurement == "arena.bytes")
            arenaRegressed = finding.regression;
        else
            EXPECT_FALSE(finding.regression) << finding.measurement;
    }
    EXPECT_TRUE(arenaRegressed);
}

TEST(Report, CheckToolGatesRegression)
{
    const std::string tool = binaryPath("smoothe_report");
    if (tool.empty())
        GTEST_SKIP() << "smoothe_report binary not found relative to cwd";

    const std::string base = "/tmp/smoothe_report_base.json";
    const std::string good = "/tmp/smoothe_report_good.json";
    const std::string bad = "/tmp/smoothe_report_bad.json";
    writeCheckPair(base, good, 1.0);
    {
        so::Report candidate("gate_test");
        candidate.setRun("tool", "gate_test");
        so::Measurement& time =
            candidate.measurement("kernel.time").unit("s");
        time.add(0.12); // +20%
        time.add(0.12);
        candidate.measurement("speedup").higherIsBetter().add(2.0);
        ASSERT_TRUE(candidate.writeTo(bad));
    }

    // Summary mode accepts any valid report.
    EXPECT_EQ(runCommand(tool + " " + base), 0);

    // Identical candidate passes the gate...
    EXPECT_EQ(runCommand(tool + " --check --baseline " + base +
                         " --tolerance 5 " + good),
              0);
    // ...a 20% slowdown fails it with exit code 1...
    EXPECT_EQ(runCommand(tool + " --check --baseline " + base +
                         " --tolerance 5 " + bad),
              1);
    // ...and a generous tolerance lets the same candidate through.
    EXPECT_EQ(runCommand(tool + " --check --baseline " + base +
                         " --tolerance 50 " + bad),
              0);

    // Usage and I/O errors exit 2.
    EXPECT_EQ(runCommand(tool + " --check --baseline " + base), 2);
    EXPECT_EQ(runCommand(tool + " /tmp/no_such_report.json"), 2);
}
