#include "obs/report.hpp"

#include <algorithm>
#include <cmath>

#include "obs/build_info.hpp"
#include "util/thread_pool.hpp"

namespace smoothe::obs {

namespace {

struct InstalledReport
{
    std::mutex mutex;
    std::unique_ptr<Report> report;
    std::string outputPath;
};

InstalledReport&
installedReport()
{
    // Intentionally leaked: the CLI layer flushes the report from an
    // atexit/terminate hook, which can run after normal static teardown.
    static InstalledReport* state = new InstalledReport;
    return *state;
}

} // namespace

// --- Measurement ---------------------------------------------------------

Measurement&
Measurement::unit(std::string unit_label)
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    unit_ = std::move(unit_label);
    return *this;
}

Measurement&
Measurement::higherIsBetter()
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    lowerIsBetter_ = false;
    return *this;
}

Measurement&
Measurement::checked(bool on)
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    checked_ = on;
    return *this;
}

Measurement&
Measurement::tolerancePct(double pct)
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    tolerancePct_ = pct;
    return *this;
}

void
Measurement::add(double value)
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    values_.push_back(value);
}

std::size_t
Measurement::count() const
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    return values_.size();
}

double
Measurement::mean() const
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (values_.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values_)
        sum += v;
    return sum / static_cast<double>(values_.size());
}

double
Measurement::stddev() const
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (values_.size() < 2)
        return 0.0;
    double sum = 0.0;
    for (double v : values_)
        sum += v;
    const double m = sum / static_cast<double>(values_.size());
    double sq = 0.0;
    for (double v : values_)
        sq += (v - m) * (v - m);
    return std::sqrt(sq / static_cast<double>(values_.size()));
}

util::Json
Measurement::toJson() const
{
    util::Json entry = util::Json::makeObject();
    entry.set("unit", unit_);
    entry.set("better", lowerIsBetter_ ? "lower" : "higher");
    entry.set("checked", checked_);
    if (tolerancePct_ > 0.0)
        entry.set("tolerancePct", tolerancePct_);
    util::Json values = util::Json::makeArray();
    double sum = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        const double v = values_[i];
        values.push(v);
        sum += v;
        lo = i == 0 ? v : std::min(lo, v);
        hi = i == 0 ? v : std::max(hi, v);
    }
    const double n = static_cast<double>(values_.size());
    const double m = values_.empty() ? 0.0 : sum / n;
    double sq = 0.0;
    for (double v : values_)
        sq += (v - m) * (v - m);
    entry.set("values", std::move(values));
    entry.set("count", values_.size());
    entry.set("mean", m);
    entry.set("stddev", values_.size() < 2 ? 0.0 : std::sqrt(sq / n));
    entry.set("min", lo);
    entry.set("max", hi);
    return entry;
}

// --- Series --------------------------------------------------------------

void
Series::addRow(std::vector<double> row)
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    row.resize(columns_.size(), 0.0);
    rows_.push_back(std::move(row));
}

std::size_t
Series::rowCount() const
{
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    return rows_.size();
}

util::Json
Series::toJson() const
{
    util::Json entry = util::Json::makeObject();
    util::Json columns = util::Json::makeArray();
    for (const std::string& column : columns_)
        columns.push(column);
    util::Json rows = util::Json::makeArray();
    for (const auto& row : rows_) {
        util::Json cells = util::Json::makeArray();
        for (double cell : row)
            cells.push(cell); // non-finite cells serialize as null
        rows.push(std::move(cells));
    }
    entry.set("columns", std::move(columns));
    entry.set("rows", std::move(rows));
    return entry;
}

// --- Report --------------------------------------------------------------

void
Report::setRun(const std::string& key, util::Json value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    run_.set(key, std::move(value));
}

Measurement&
Report::measurement(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = measurements_[name];
    if (!slot)
        slot.reset(new Measurement(this));
    return *slot;
}

void
Report::addPhase(const std::string& name, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PhaseTotal& total = phases_[name];
    total.count += 1;
    total.sum += seconds;
}

Series&
Report::series(const std::string& name, std::vector<std::string> columns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = series_[name];
    if (!slot)
        slot.reset(new Series(this, std::move(columns)));
    return *slot;
}

void
Report::setProfile(util::Json profile)
{
    std::lock_guard<std::mutex> lock(mutex_);
    profile_ = std::move(profile);
}

util::Json
Report::toJson(bool include_metrics) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::Json doc = util::Json::makeObject();
    doc.set("schema", kReportSchemaName);
    doc.set("schemaVersion", kReportSchemaVersion);

    util::Json run = util::Json::makeObject();
    run.set("tool", tool_);
    for (const auto& [key, value] : run_.asObject())
        run.set(key, value);
    doc.set("run", std::move(run));

    util::Json measurements = util::Json::makeObject();
    for (const auto& [name, entry] : measurements_)
        measurements.set(name, entry->toJson());
    doc.set("measurements", std::move(measurements));

    util::Json phases = util::Json::makeObject();
    for (const auto& [name, total] : phases_) {
        util::Json entry = util::Json::makeObject();
        entry.set("unit", "s");
        entry.set("count", total.count);
        entry.set("sum", total.sum);
        phases.set(name, std::move(entry));
    }
    doc.set("phases", std::move(phases));

    util::Json series = util::Json::makeObject();
    for (const auto& [name, entry] : series_)
        series.set(name, entry->toJson());
    doc.set("series", std::move(series));

    if (!profile_.isNull())
        doc.set("profile", profile_);

    if (include_metrics)
        doc.set("metrics", MetricsRegistry::instance().toJson());
    return doc;
}

bool
Report::writeTo(const std::string& path) const
{
    return util::writeFile(path, toJson().dumpPretty());
}

Report*
Report::current()
{
    InstalledReport& state = installedReport();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.report.get();
}

Report&
Report::install(const std::string& tool, std::string output_path)
{
    InstalledReport& state = installedReport();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.report.reset(new Report(tool));
    state.outputPath = std::move(output_path);
    Report& report = *state.report;
    report.setRun("gitSha", kBuildGitSha);
    report.setRun("buildType", kBuildType);
    report.setRun("compiler", kBuildCompiler);
    report.setRun("threads", util::ThreadPool::global().size());
    return report;
}

bool
Report::flushCurrent()
{
    InstalledReport& state = installedReport();
    std::unique_lock<std::mutex> lock(state.mutex);
    if (!state.report || state.outputPath.empty())
        return true;
    // writeTo takes the report's own mutex only; safe under state.mutex.
    return state.report->writeTo(state.outputPath);
}

void
Report::uninstall()
{
    InstalledReport& state = installedReport();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.report.reset();
    state.outputPath.clear();
}

// --- Validation and regression checking ----------------------------------

namespace {

bool
failValidation(std::string* error, const std::string& message)
{
    if (error)
        *error = message;
    return false;
}

const util::Json*
findNumber(const util::Json& object, const char* key)
{
    const util::Json* value = object.find(key);
    return value && value->isNumber() ? value : nullptr;
}

} // namespace

bool
validateReportJson(const util::Json& doc, std::string* error)
{
    if (!doc.isObject())
        return failValidation(error, "report is not a JSON object");
    const util::Json* schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != kReportSchemaName)
        return failValidation(error, "missing or wrong \"schema\" marker");
    const util::Json* version = doc.find("schemaVersion");
    if (!version || !version->isNumber())
        return failValidation(error, "missing \"schemaVersion\"");
    const double v = version->asNumber();
    if (v != std::floor(v) || v < 1.0)
        return failValidation(error, "\"schemaVersion\" is not a "
                                     "positive integer");
    if (v > kReportSchemaVersion)
        return failValidation(error, "report schema is newer than this "
                                     "reader");
    const util::Json* run = doc.find("run");
    if (!run || !run->isObject())
        return failValidation(error, "missing \"run\" object");
    const util::Json* tool = run->find("tool");
    if (!tool || !tool->isString())
        return failValidation(error, "run.tool missing");

    const util::Json* measurements = doc.find("measurements");
    if (!measurements || !measurements->isObject())
        return failValidation(error, "missing \"measurements\" object");
    for (const auto& [name, entry] : measurements->asObject()) {
        if (!entry.isObject())
            return failValidation(error, "measurement " + name +
                                             " is not an object");
        const util::Json* values = entry.find("values");
        if (!values || !values->isArray())
            return failValidation(error, "measurement " + name +
                                             " has no values array");
        if (!findNumber(entry, "mean") || !findNumber(entry, "stddev"))
            return failValidation(error, "measurement " + name +
                                             " has no mean/stddev");
    }

    const util::Json* phases = doc.find("phases");
    if (!phases || !phases->isObject())
        return failValidation(error, "missing \"phases\" object");
    for (const auto& [name, entry] : phases->asObject()) {
        if (!entry.isObject())
            return failValidation(error,
                                  "phase " + name + " is not an object");
        if (!findNumber(entry, "count") || !findNumber(entry, "sum"))
            return failValidation(error,
                                  "phase " + name + " has no count/sum");
    }

    const util::Json* series = doc.find("series");
    if (!series || !series->isObject())
        return failValidation(error, "missing \"series\" object");
    for (const auto& [name, entry] : series->asObject()) {
        if (!entry.isObject())
            return failValidation(error,
                                  "series " + name + " is not an object");
        const util::Json* columns = entry.find("columns");
        const util::Json* rows = entry.find("rows");
        if (!columns || !columns->isArray() || !rows || !rows->isArray())
            return failValidation(error, "series " + name +
                                             " has no columns/rows");
        for (const util::Json& row : rows->asArray()) {
            if (!row.isArray() ||
                row.asArray().size() != columns->asArray().size())
                return failValidation(error, "series " + name +
                                                 " has a malformed row");
        }
    }

    // "profile" is new in schema v2 and stays optional: v1 documents
    // never carry it, later ones only when the profiler ran.
    if (const util::Json* profile = doc.find("profile")) {
        if (!profile->isObject())
            return failValidation(error, "\"profile\" is not an object");
        const util::Json* kernels = profile->find("kernels");
        if (!kernels || !kernels->isObject())
            return failValidation(error,
                                  "profile has no \"kernels\" object");
        for (const auto& [name, entry] : kernels->asObject()) {
            if (!entry.isObject() || !findNumber(entry, "calls") ||
                !findNumber(entry, "selfSeconds"))
                return failValidation(error,
                                      "profile kernel " + name +
                                          " has no calls/selfSeconds");
        }
    }
    return true;
}

int
reportSchemaVersion(const util::Json& doc)
{
    const util::Json* version = doc.find("schemaVersion");
    return version != nullptr && version->isNumber()
               ? static_cast<int>(version->asNumber())
               : 0;
}

std::vector<CheckFinding>
checkReports(const util::Json& baseline, const util::Json& candidate,
             double default_tolerance_pct)
{
    std::vector<CheckFinding> findings;
    const util::Json* baseMeasurements = baseline.find("measurements");
    const util::Json* candMeasurements = candidate.find("measurements");
    if (!baseMeasurements || !candMeasurements)
        return findings;
    for (const auto& [name, baseEntry] : baseMeasurements->asObject()) {
        const util::Json* checked = baseEntry.find("checked");
        if (checked && checked->isBool() && !checked->asBool())
            continue;
        const util::Json* baseMean = findNumber(baseEntry, "mean");
        if (!baseMean)
            continue;
        const util::Json* candEntry = candMeasurements->find(name);
        const util::Json* candMean =
            candEntry ? findNumber(*candEntry, "mean") : nullptr;

        CheckFinding finding;
        finding.measurement = name;
        finding.baseline = baseMean->asNumber();
        finding.tolerancePct = default_tolerance_pct;
        if (const util::Json* tol = findNumber(baseEntry, "tolerancePct"))
            finding.tolerancePct = tol->asNumber();
        if (!candMean) {
            // A gated number the candidate no longer emits (a bench that
            // stopped reporting it or renamed it) fails the gate.
            finding.missing = true;
            finding.regression = true;
            findings.push_back(std::move(finding));
            continue;
        }
        finding.candidate = candMean->asNumber();

        const double denom = std::max(std::fabs(finding.baseline), 1e-12);
        finding.changePct =
            (finding.candidate - finding.baseline) / denom * 100.0;

        const util::Json* better = baseEntry.find("better");
        const bool lowerIsBetter =
            !better || !better->isString() || better->asString() != "higher";
        const double worsenedPct =
            lowerIsBetter ? finding.changePct : -finding.changePct;
        finding.regression = worsenedPct > finding.tolerancePct;
        findings.push_back(std::move(finding));
    }
    return findings;
}

} // namespace smoothe::obs
