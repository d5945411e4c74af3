/**
 * @file
 * Loads "smoothe.report" JSON files (emitted by the bench harness and
 * tools via --report-out), prints per-file summaries and side-by-side
 * comparison tables, and — with --check — gates a candidate report
 * against a committed baseline, exiting nonzero when any checked
 * measurement regresses beyond tolerance or is missing from the
 * candidate. CI's perf-gate job runs:
 *
 *   smoothe_report --check --baseline bench/baselines/micro_kernels.json \
 *       --tolerance 35 BENCH_micro_kernels.json
 *
 * The `profile` subcommand renders the "profile" section (schema v2+:
 * per-kernel attribution from obs::Profiler) as a top-N table with
 * roofline estimates:
 *
 *   smoothe_report profile BENCH_micro_kernels.json [--top N]
 *
 * Exit codes: 0 clean, 1 regression detected, 2 usage / I/O /
 * schema-validation error.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "obs/cli.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace smoothe;

namespace {

struct LoadedReport
{
    std::string path;
    util::Json doc;
};

/** Loads and schema-validates one report file; exits 2 on failure. */
LoadedReport
loadReport(const std::string& path)
{
    const auto text = util::readFile(path);
    if (!text) {
        std::fprintf(stderr, "smoothe_report: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::string error;
    auto doc = util::Json::parse(*text, &error);
    if (!doc) {
        std::fprintf(stderr, "smoothe_report: %s: malformed JSON: %s\n",
                     path.c_str(), error.c_str());
        std::exit(2);
    }
    if (!obs::validateReportJson(*doc, &error)) {
        std::fprintf(stderr, "smoothe_report: %s: invalid report: %s\n",
                     path.c_str(), error.c_str());
        std::exit(2);
    }
    return LoadedReport{path, std::move(*doc)};
}

std::string
runString(const util::Json& doc, const char* key)
{
    const util::Json* run = doc.find("run");
    if (run == nullptr)
        return "?";
    const util::Json* value = run->find(key);
    if (value == nullptr)
        return "?";
    return value->isString() ? value->asString() : value->dump();
}

double
numberOr(const util::Json& object, const char* key, double fallback)
{
    const util::Json* value = object.find(key);
    return value != nullptr && value->isNumber() ? value->asNumber()
                                                 : fallback;
}

/** Per-file header plus measurement and phase tables. */
void
printSummary(const LoadedReport& report)
{
    std::printf("%s\n  tool=%s git=%s build=%s threads=%s\n",
                report.path.c_str(),
                runString(report.doc, "tool").c_str(),
                runString(report.doc, "gitSha").c_str(),
                runString(report.doc, "buildType").c_str(),
                runString(report.doc, "threads").c_str());

    const util::Json* measurements = report.doc.find("measurements");
    if (measurements != nullptr &&
        !measurements->asObject().empty()) {
        util::TablePrinter table(
            {"measurement", "mean", "stddev", "n", "unit", "gate"});
        for (const auto& [name, entry] : measurements->asObject()) {
            const util::Json* checked = entry.find("checked");
            const util::Json* unit = entry.find("unit");
            const util::Json* better = entry.find("better");
            const bool gated =
                checked == nullptr || !checked->isBool() ||
                checked->asBool();
            std::string gate = gated ? "checked" : "-";
            if (gated && better != nullptr && better->isString() &&
                better->asString() == "higher")
                gate += " (higher)";
            table.addRow({name, util::formatFixed(numberOr(entry, "mean", 0.0), 6),
                          util::formatFixed(numberOr(entry, "stddev", 0.0), 6),
                          util::formatFixed(numberOr(entry, "count", 0.0), 0),
                          unit != nullptr && unit->isString()
                              ? unit->asString()
                              : "",
                          gate});
        }
        table.print(std::cout);
    }

    const util::Json* phases = report.doc.find("phases");
    if (phases != nullptr && !phases->asObject().empty()) {
        util::TablePrinter table({"phase", "count", "sum"});
        for (const auto& [name, entry] : phases->asObject()) {
            table.addRow({name,
                          util::formatFixed(numberOr(entry, "count", 0.0), 0),
                          util::formatSeconds(numberOr(entry, "sum", 0.0)) + "s"});
        }
        table.print(std::cout);
    }
    std::printf("\n");
}

/**
 * Prints a note when two reports carry different schema versions (e.g.
 * a committed v2 baseline gating a v3 candidate). Versions are already
 * individually validated by loadReport; the note only explains why
 * sections like "profile" may appear on one side only.
 */
void
noteVersionMismatch(const LoadedReport& first, const LoadedReport& second)
{
    const int a = obs::reportSchemaVersion(first.doc);
    const int b = obs::reportSchemaVersion(second.doc);
    if (a != b) {
        std::printf("note: schema versions differ (%s is v%d, %s is "
                    "v%d); comparing the sections both share\n",
                    first.path.c_str(), a, second.path.c_str(), b);
    }
}

/** Side-by-side mean comparison across every loaded file. */
void
printComparison(const std::vector<LoadedReport>& reports)
{
    for (std::size_t i = 1; i < reports.size(); ++i)
        noteVersionMismatch(reports.front(), reports[i]);
    std::vector<std::string> header{"measurement"};
    for (const auto& report : reports)
        header.push_back(report.path);
    if (reports.size() == 2)
        header.push_back("change");
    util::TablePrinter table(std::move(header));

    // Union of measurement names, first-seen order.
    std::vector<std::string> names;
    for (const auto& report : reports) {
        const util::Json* measurements =
            report.doc.find("measurements");
        if (measurements == nullptr)
            continue;
        for (const auto& [name, entry] : measurements->asObject()) {
            (void)entry;
            bool known = false;
            for (const auto& existing : names)
                known = known || existing == name;
            if (!known)
                names.push_back(name);
        }
    }

    for (const auto& name : names) {
        std::vector<std::string> row{name};
        std::vector<double> means;
        for (const auto& report : reports) {
            const util::Json* measurements =
                report.doc.find("measurements");
            const util::Json* entry = measurements == nullptr
                                          ? nullptr
                                          : measurements->find(name);
            if (entry == nullptr) {
                row.push_back("-");
                continue;
            }
            const double mean = numberOr(*entry, "mean", 0.0);
            means.push_back(mean);
            row.push_back(util::formatFixed(mean, 6));
        }
        if (reports.size() == 2) {
            if (means.size() == 2 && means[0] != 0.0) {
                const double pct =
                    100.0 * (means[1] - means[0]) / means[0];
                // Built with += (not `"+" + std::string&&`): GCC 12's
                // -Wrestrict false positive (bug 105329) flags the
                // rvalue insert path under -mavx2 -Werror.
                std::string change = pct >= 0 ? "+" : "";
                change += util::formatFixed(pct, 1);
                change += "%";
                row.push_back(std::move(change));
            } else {
                row.push_back("-");
            }
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
}

/** Baseline-vs-candidate gate; returns the process exit code. */
int
runCheck(const LoadedReport& baseline, const LoadedReport& candidate,
         double tolerance_pct)
{
    noteVersionMismatch(baseline, candidate);
    const auto findings =
        obs::checkReports(baseline.doc, candidate.doc, tolerance_pct);
    util::TablePrinter table({"measurement", "baseline", "candidate",
                              "change", "tolerance", "verdict"});
    std::size_t regressions = 0;
    for (const auto& finding : findings) {
        regressions += finding.regression ? 1 : 0;
        if (finding.missing) {
            table.addRow({finding.measurement,
                          util::formatFixed(finding.baseline, 6), "-", "-",
                          util::formatFixed(finding.tolerancePct, 1) + "%",
                          "MISSING"});
            continue;
        }
        // See printComparison for why this avoids `"+" + string&&`.
        std::string change = finding.changePct >= 0 ? "+" : "";
        change += util::formatFixed(finding.changePct, 1);
        change += "%";
        table.addRow(
            {finding.measurement, util::formatFixed(finding.baseline, 6),
             util::formatFixed(finding.candidate, 6), std::move(change),
             util::formatFixed(finding.tolerancePct, 1) + "%",
             finding.regression ? "REGRESSION" : "ok"});
    }
    std::printf("check: %s (baseline) vs %s (candidate)\n",
                baseline.path.c_str(), candidate.path.c_str());
    if (findings.empty()) {
        std::printf("no checked measurements in the baseline; nothing "
                    "gated\n");
        return 0;
    }
    table.print(std::cout);
    if (regressions > 0) {
        std::printf("%zu regression(s) beyond tolerance or missing\n",
                    regressions);
        return 1;
    }
    std::printf("all %zu checked measurement(s) within tolerance\n",
                findings.size());
    return 0;
}

/**
 * `smoothe_report profile REPORT.json`: renders the profile section
 * (schema v2 and later) as a table of the top-N kernels by self time,
 * with derived GFLOP/s and arithmetic intensity (FLOP/byte). Returns
 * the process exit code.
 */
int
runProfile(const LoadedReport& report, std::size_t top)
{
    const util::Json* profile = report.doc.find("profile");
    const util::Json* kernels =
        profile == nullptr ? nullptr : profile->find("kernels");
    if (kernels == nullptr || kernels->asObject().empty()) {
        std::fprintf(stderr,
                     "smoothe_report: %s has no profile section; rerun "
                     "the tool with --profile or --profile-out (schema "
                     "v%d file, profile needs v2)\n",
                     report.path.c_str(),
                     obs::reportSchemaVersion(report.doc));
        return 2;
    }

    struct Row
    {
        std::string name;
        double calls = 0.0;
        double self = 0.0;
        double flops = 0.0;
        double bytes = 0.0;
    };
    std::vector<Row> rows;
    double selfSum = 0.0;
    for (const auto& [name, entry] : kernels->asObject()) {
        Row row;
        row.name = name;
        row.calls = numberOr(entry, "calls", 0.0);
        row.self = numberOr(entry, "selfSeconds", 0.0);
        row.flops = numberOr(entry, "flops", 0.0);
        row.bytes = numberOr(entry, "bytes", 0.0);
        selfSum += row.self;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.self > b.self; });

    double phaseTotal = 0.0;
    std::string phaseBreakdown;
    if (const util::Json* totals = profile->find("totals")) {
        for (const auto& [phase, entry] : totals->asObject()) {
            const double seconds = numberOr(entry, "seconds", 0.0);
            phaseTotal += seconds;
            if (!phaseBreakdown.empty())
                phaseBreakdown += " + ";
            phaseBreakdown += phase;
            phaseBreakdown += ' ';
            phaseBreakdown += util::formatSeconds(seconds);
            phaseBreakdown += 's';
        }
    }

    std::printf("%s\n  tool=%s stride=%.0f\n", report.path.c_str(),
                runString(report.doc, "tool").c_str(),
                numberOr(*profile, "stride", 1.0));

    // Share is against the instrumented phase total when present; the
    // boundary-sampled replays make kernel self times sum to it, so
    // shares add up to ~100% and the coverage line below is a sanity
    // check, not an estimate.
    const double denom = phaseTotal > 0.0 ? phaseTotal : selfSum;
    util::TablePrinter table(
        {"kernel", "calls", "self", "share", "GFLOP/s", "FLOP/B"});
    const std::size_t shown = std::min(top, rows.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const Row& row = rows[i];
        const double gflops =
            row.self > 0.0 ? row.flops / row.self / 1e9 : 0.0;
        const double intensity =
            row.bytes > 0.0 ? row.flops / row.bytes : 0.0;
        table.addRow(
            {row.name, util::formatFixed(row.calls, 0),
             util::formatSeconds(row.self) + "s",
             util::formatFixed(
                 denom > 0.0 ? 100.0 * row.self / denom : 0.0, 1) +
                 "%",
             util::formatFixed(gflops, 2),
             util::formatFixed(intensity, 2)});
    }
    table.print(std::cout);
    if (shown < rows.size())
        std::printf("(%zu more kernels below the top %zu)\n",
                    rows.size() - shown, shown);
    if (phaseTotal > 0.0) {
        std::printf("kernel self times cover %.1f%% of instrumented "
                    "phase time (%s)\n",
                    100.0 * selfSum / phaseTotal,
                    phaseBreakdown.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const util::Args args(argc, argv);
    std::vector<std::string> files = args.positionals();

    // Subcommand: `smoothe_report profile REPORT.json [--top N]`.
    bool profileMode = false;
    if (!files.empty() && files.front() == "profile") {
        profileMode = true;
        files.erase(files.begin());
    }
    const std::int64_t top = args.getInt("top", 20);

    // `--check candidate.json` parses the file as the switch's value;
    // fold any non-boolean value back into the file list.
    bool check = false;
    if (args.has("check")) {
        const std::string checkValue = args.getString("check", "");
        if (checkValue.empty() || checkValue == "true" ||
            checkValue == "1") {
            check = true;
        } else if (checkValue == "false" || checkValue == "0") {
            check = false;
        } else {
            check = true;
            files.insert(files.begin(), checkValue);
        }
    }
    const std::string baselinePath = args.getString("baseline", "");
    const double tolerance = args.getDouble("tolerance", 5.0);
    args.acknowledge("help");

    if (obs::reportUnknownFlags(args, "smoothe_report") > 0)
        return 2;
    if (args.getBool("help", false) ||
        (files.empty() && baselinePath.empty())) {
        std::printf(
            "usage: smoothe_report REPORT.json [MORE.json ...]\n"
            "       smoothe_report --check --baseline BASE.json "
            "[--tolerance PCT] CANDIDATE.json\n"
            "       smoothe_report profile REPORT.json [--top N]\n"
            "\n"
            "Prints summaries and comparisons of smoothe.report JSON\n"
            "files; --check exits 1 when the candidate regresses any\n"
            "checked measurement beyond tolerance (default 5%%);\n"
            "`profile` prints the top-N kernel attribution table from\n"
            "a report's profile section (schema v2+).\n");
        return files.empty() && !args.getBool("help", false) ? 2 : 0;
    }

    if (profileMode) {
        if (files.size() != 1) {
            std::fprintf(stderr,
                         "smoothe_report: profile needs exactly one "
                         "report file\n");
            return 2;
        }
        const LoadedReport report = loadReport(files.front());
        return runProfile(report,
                          top > 0 ? static_cast<std::size_t>(top) : 20);
    }

    if (check) {
        if (baselinePath.empty() || files.size() != 1) {
            std::fprintf(stderr,
                         "smoothe_report: --check needs --baseline "
                         "FILE and exactly one candidate report\n");
            return 2;
        }
        const LoadedReport baseline = loadReport(baselinePath);
        const LoadedReport candidate = loadReport(files.front());
        return runCheck(baseline, candidate, tolerance);
    }

    std::vector<LoadedReport> reports;
    for (const auto& path : files)
        reports.push_back(loadReport(path));
    if (!baselinePath.empty())
        reports.insert(reports.begin(), loadReport(baselinePath));
    for (const auto& report : reports)
        printSummary(report);
    if (reports.size() > 1)
        printComparison(reports);
    return 0;
}
