/**
 * @file
 * Structured benchmark run reports: the durable, versioned counterpart to
 * the human-readable tables the bench binaries print.
 *
 * A Report collects, for one process run:
 *   - run metadata (tool name, git sha, build flags, thread count,
 *     dataset/family, arbitrary key/value pairs),
 *   - named scalar measurement series with mean/stddev/min/max,
 *   - per-phase totals (scope count and summed seconds, fed by
 *     obs::PhaseProfiler scopes),
 *   - named tabular series (e.g. the SmoothE convergence recorder), and
 *   - a final snapshot of the process-wide metrics registry,
 * and serializes everything as one JSON document conforming to the
 * "smoothe.report" schema (kReportSchemaVersion). The schema is what
 * tools/smoothe_report consumes for comparison tables and the
 * perf-regression gate (`--check --baseline ... --tolerance ...`).
 *
 * One process-wide report can be installed (the CLI layer does this for
 * `--report-out`, the bench harness defaults to `BENCH_<tool>.json`);
 * library code such as the SmoothE extractor appends to it through
 * Report::current() when present, and stays silent otherwise.
 */

#ifndef SMOOTHE_OBS_REPORT_HPP
#define SMOOTHE_OBS_REPORT_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace smoothe::obs {

class Report;

/**
 * Schema identifier and version stamped into every report document.
 * v1: run/measurements/phases/series/metrics sections.
 * v2: adds an optional "profile" section (per-kernel attribution from
 *     obs::Profiler).
 * v3: a "phases" entry is {"unit":"s","count":n,"sum":s} (v1/v2 also
 *     carried histogram buckets and percentiles); the profile section
 *     has no hardware-counter fields.
 * validateReportJson accepts every version from 1 to the current one
 * (it needs only fields all of them carry), so committed older
 * baselines keep gating newer candidates.
 */
inline constexpr const char* kReportSchemaName = "smoothe.report";
inline constexpr int kReportSchemaVersion = 3;

/**
 * One named scalar measurement: a series of repeated observations of the
 * same quantity (e.g. seconds per iteration across --repeat runs).
 * Configuration calls are chainable; add() is thread-safe.
 */
class Measurement
{
  public:
    /** Unit label emitted into the schema (e.g. "s", "bytes", "x"). */
    Measurement& unit(std::string unit_label);

    /** Declares larger values as improvements (default: lower wins). */
    Measurement& higherIsBetter();

    /** Includes/excludes this measurement from `smoothe_report --check`
     *  (default: checked). Wall-clock times measured on heterogeneous CI
     *  runners are typically recorded but unchecked. */
    Measurement& checked(bool on);

    /** Per-measurement regression tolerance override in percent; 0 uses
     *  the tool-level --tolerance (the default). */
    Measurement& tolerancePct(double pct);

    /** Records one observation. */
    void add(double value);

    std::size_t count() const;
    double mean() const;
    double stddev() const; ///< population stddev; 0 for < 2 samples

  private:
    friend class Report;
    explicit Measurement(Report* owner) : owner_(owner) {}
    util::Json toJson() const; ///< caller holds the report mutex

    Report* owner_;
    std::string unit_;
    bool lowerIsBetter_ = true;
    bool checked_ = true;
    double tolerancePct_ = 0.0;
    std::vector<double> values_;
};

/**
 * A named table of numeric rows with fixed column labels — the shape of
 * anytime/convergence curves. Rows are kept in insertion order.
 */
class Series
{
  public:
    /** Appends a row; short rows are padded with 0. */
    void addRow(std::vector<double> row);

    std::size_t rowCount() const;
    const std::vector<std::string>& columns() const { return columns_; }

  private:
    friend class Report;
    Series(Report* owner, std::vector<std::string> columns)
        : owner_(owner), columns_(std::move(columns))
    {}
    util::Json toJson() const;

    Report* owner_;
    std::vector<std::string> columns_;
    std::vector<std::vector<double>> rows_;
};

/** A structured run report (see the file comment for the schema). */
class Report
{
  public:
    explicit Report(std::string tool) : tool_(std::move(tool)) {}

    Report(const Report&) = delete;
    Report& operator=(const Report&) = delete;

    const std::string& tool() const { return tool_; }

    /** Sets one run-metadata key (insertion-ordered in the output). */
    void setRun(const std::string& key, util::Json value);

    /** Returns (creating on first use) the named measurement; the
     *  reference stays valid for the report's lifetime. */
    Measurement& measurement(const std::string& name);

    /** Adds one scope of the named phase: count += 1, sum += seconds. */
    void addPhase(const std::string& name, double seconds);

    /** Returns (creating on first use) the named series; columns apply on
     *  first creation only. */
    Series& series(const std::string& name,
                   std::vector<std::string> columns);

    /**
     * Attaches the "profile" section (the obs::Profiler's toJson()
     * output); the CLI flush hooks do this automatically when the
     * profiler holds data. A null value removes the section.
     */
    void setProfile(util::Json profile);

    /**
     * Serializes the report. When include_metrics is true (the default,
     * used by writeTo) the current metrics-registry snapshot is embedded
     * under "metrics"; tests compare against golden files without it.
     */
    util::Json toJson(bool include_metrics = true) const;

    /** Writes toJson() (pretty) to a file; false on I/O error. */
    bool writeTo(const std::string& path) const;

    // --- process-wide report -------------------------------------------

    /** The installed process report, or nullptr when none. */
    static Report* current();

    /**
     * Installs the process-wide report (replacing any previous one),
     * stamps build/run metadata (git sha, build type, compiler, threads),
     * and remembers `output_path` for flushCurrent(); the CLI exit hooks
     * call flushCurrent() so installed reports survive mid-run aborts.
     */
    static Report& install(const std::string& tool,
                           std::string output_path);

    /** Writes the installed report to its output path (no-op without an
     *  installed report; false on I/O error). */
    static bool flushCurrent();

    /** Drops the installed report (tests). */
    static void uninstall();

  private:
    friend class Measurement;
    friend class Series;

    mutable std::mutex mutex_;
    std::string tool_;
    util::Json run_ = util::Json::makeObject();
    std::map<std::string, std::unique_ptr<Measurement>> measurements_;
    struct PhaseTotal
    {
        std::uint64_t count = 0;
        double sum = 0.0;
    };
    std::map<std::string, PhaseTotal> phases_;
    std::map<std::string, std::unique_ptr<Series>> series_;
    util::Json profile_; ///< null until setProfile()
};

/** The numeric schemaVersion of a parsed report (0 when absent). */
int reportSchemaVersion(const util::Json& doc);

/**
 * Validates that a parsed JSON document structurally conforms to the
 * report schema (name, version, section shapes). On failure returns
 * false and, when `error` is non-null, explains the first problem.
 */
bool validateReportJson(const util::Json& doc, std::string* error);

/** One comparison verdict from checkReports(). */
struct CheckFinding
{
    std::string measurement;
    double baseline = 0.0;     ///< baseline mean
    double candidate = 0.0;    ///< candidate mean
    double changePct = 0.0;    ///< +x% = candidate larger
    double tolerancePct = 0.0; ///< tolerance that applied
    bool regression = false;   ///< worsened beyond tolerance, or missing
    bool missing = false;      ///< absent from the candidate
};

/**
 * Compares every checked baseline measurement with the candidate: a
 * finding is a regression when the candidate mean worsens (per the
 * baseline's better-direction) by more than the tolerance, or when the
 * candidate does not carry the measurement at all. The baseline's
 * per-measurement tolerancePct overrides `default_tolerance_pct` when
 * nonzero. Both documents must already be schema-valid.
 */
std::vector<CheckFinding> checkReports(const util::Json& baseline,
                                       const util::Json& candidate,
                                       double default_tolerance_pct);

} // namespace smoothe::obs

#endif // SMOOTHE_OBS_REPORT_HPP
