#include "harness/report.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "mem/linear_memory.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "support/log.h"
#include "support/stats.h"
#include "support/sysinfo.h"

namespace lnb::harness {

Table::Table(std::vector<std::string> header)
{
    rows_.push_back(std::move(header));
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::toString() const
{
    std::vector<size_t> widths;
    for (const auto& row : rows_) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (size_t i = 0; i < row.size(); i++)
            widths[i] = std::max(widths[i], row[i].size());
    }
    std::string out;
    for (size_t r = 0; r < rows_.size(); r++) {
        for (size_t i = 0; i < rows_[r].size(); i++) {
            const std::string& value = rows_[r][i];
            out += value;
            if (i + 1 < rows_[r].size())
                out.append(widths[i] - value.size() + 2, ' ');
        }
        out += '\n';
        if (r == 0) {
            size_t total = 0;
            for (size_t i = 0; i < widths.size(); i++)
                total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
            out.append(total, '-');
            out += '\n';
        }
    }
    return out;
}

namespace {

/** RFC 4180 field quoting: cells containing separators, quotes or line
 * breaks are wrapped in quotes, with embedded quotes doubled. */
std::string
csvQuote(const std::string& cell)
{
    if (cell.find_first_of(",\"\n\r") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (char c : cell) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace

void
Table::maybeWriteCsv(const std::string& name) const
{
    const char* dir = std::getenv("LNB_CSV_DIR");
    if (dir == nullptr)
        return;
    std::string path = std::string(dir) + "/" + name + ".csv";
    std::ofstream file(path);
    if (!file.is_open()) {
        LNB_WARN("cannot open %s for writing; CSV output dropped",
                 path.c_str());
        return;
    }
    for (const auto& row : rows_) {
        for (size_t i = 0; i < row.size(); i++) {
            file << csvQuote(row[i]);
            if (i + 1 < row.size())
                file << ',';
        }
        file << '\n';
    }
    file.flush();
    if (!file.good())
        LNB_WARN("write to %s failed; CSV output incomplete",
                 path.c_str());
}

std::string
cell(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap_copy;
    va_copy(ap_copy, ap);
    // Sizing pre-pass, so wide cells (long kernel names, error strings)
    // are never silently truncated.
    int needed = vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0) {
        va_end(ap);
        return "";
    }
    std::string out(size_t(needed), '\0');
    vsnprintf(out.data(), size_t(needed) + 1, fmt, ap);
    va_end(ap);
    return out;
}

void
printBanner(const std::string& title, const std::string& paper_ref)
{
    std::printf("== %s ==\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("host: %s, %d cpus | uffd: %s | scale: %d%s\n\n",
                cpuModelName().c_str(), onlineCpuCount(),
                mem::realUffdAvailable() ? "kernel" : "emulated",
                benchScale(), quickMode() ? " (LNB_QUICK)" : "");
}

namespace {

/** Keep generated filenames shell- and glob-friendly. */
std::string
sanitizeForFilename(const std::string& text)
{
    std::string out;
    for (char c : text) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '.';
        out += ok ? c : '_';
    }
    return out.empty() ? "unnamed" : out;
}

void
writeLatencyStats(obs::JsonWriter& w, const std::vector<double>& samples)
{
    w.key("iterations").value(uint64_t(samples.size()));
    w.key("p50Seconds").value(percentile(samples, 50));
    w.key("p90Seconds").value(percentile(samples, 90));
    w.key("p99Seconds").value(percentile(samples, 99));
}

} // namespace

std::string
benchResultToJson(const BenchSpec& spec, const BenchResult& result,
                  const char* engine_label)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("lnb.bench_result.v1");

    w.key("config").beginObject();
    w.key("kernel").value(spec.kernel != nullptr ? spec.kernel->name
                                                 : std::string("?"));
    w.key("suite").value(spec.kernel != nullptr ? spec.kernel->suite
                                                : std::string("?"));
    w.key("engine").value(engine_label != nullptr
                              ? engine_label
                              : spec.engineConfig.tiered
                                    ? "tiered"
                                    : rt::engineKindName(
                                          spec.engineConfig.kind));
    w.key("tiered").value(spec.engineConfig.tiered);
    w.key("tierThreshold").value(uint64_t(spec.engineConfig.tierThreshold));
    w.key("strategy").value(
        mem::boundsStrategyName(spec.engineConfig.strategy));
    w.key("numThreads").value(spec.numThreads);
    w.key("scale").value(spec.scale);
    w.key("freshInstancePerIteration")
        .value(spec.freshInstancePerIteration);
    w.key("warmupIterations").value(spec.warmupIterations);
    w.endObject();

    w.key("ok").value(result.ok);
    w.key("error").value(result.error);
    w.key("wallSeconds").value(result.wallSeconds);
    w.key("compileSeconds").value(result.compileSeconds);
    w.key("medianIterationSeconds").value(result.medianIterationSeconds);
    w.key("cpuUtilizationPercent").value(result.cpuUtilizationPercent);
    w.key("rssPeakBytes").value(result.rssPeakBytes);
    w.key("resizeSyscalls").value(result.resizeSyscalls);
    w.key("faultsHandled").value(result.faultsHandled);
    w.key("blockingEventsPerSec").value(result.blockingEventsPerSec);

    if (result.tier.tiered) {
        w.key("tier").beginObject();
        w.key("requests").value(result.tier.requests);
        w.key("ups").value(result.tier.ups);
        w.key("failures").value(result.tier.failures);
        w.key("compileSeconds").value(result.tier.compileSeconds);
        w.key("steadySeconds").value(result.tier.steadySeconds);
        w.key("timeToPeakSeconds").value(result.tier.timeToPeakSeconds);
        // The time-to-peak curve, capped so reports stay readable on
        // long adaptive runs; the settle point is computed from the
        // full curve above.
        constexpr size_t kMaxCurveSamples = 256;
        w.key("curveSeconds").beginArray();
        for (size_t i = 0; i < result.tier.curveSeconds.size() &&
                           i < kMaxCurveSamples;
             i++)
            w.value(result.tier.curveSeconds[i]);
        w.endArray();
        w.endObject();
    }

    // Sampling-profiler delta over the run phase; present only when the
    // sampler actually took samples (LNB_PROF_HZ > 0).
    if (result.profile.samples > 0) {
        const obs::ProfileSnapshot& prof = result.profile;
        w.key("profile").beginObject();
        w.key("samples").value(prof.samples);
        w.key("hz").value(uint64_t(obs::profilerHz()));
        w.key("categories").beginObject();
        for (int i = 0; i < obs::kNumProfCategories; i++)
            w.key(obs::profCategoryName(i)).value(prof.categories[i]);
        w.endObject();
        w.key("boundsCheckPct").value(prof.boundsCheckPct());
        // Hottest (function, tier) pairs by self samples; funcs is
        // already sorted descending.
        constexpr size_t kMaxProfileFuncs = 20;
        w.key("funcs").beginArray();
        for (size_t i = 0;
             i < prof.funcs.size() && i < kMaxProfileFuncs; i++) {
            const auto& f = prof.funcs[i];
            w.beginObject();
            w.key("funcIdx").value(uint64_t(f.funcIdx));
            w.key("tier").value(obs::profTierName(f.tier));
            w.key("samples").value(f.samples);
            w.key("boundsSamples").value(f.boundsSamples);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.key("host").beginObject();
    w.key("cpu").value(cpuModelName());
    w.key("onlineCpus").value(onlineCpuCount());
    w.key("uffd").value(mem::realUffdAvailable() ? "kernel" : "emulated");
    w.endObject();

    w.key("perThread").beginArray();
    std::vector<double> all_samples;
    for (const ThreadStats& stats : result.threads) {
        w.beginObject();
        writeLatencyStats(w, stats.iterationSeconds);
        w.key("cpuSeconds").value(stats.cpuSeconds);
        w.key("blockingEvents").value(stats.blockingEvents);
        w.key("checksum").value(stats.checksum);
        w.endObject();
        all_samples.insert(all_samples.end(),
                           stats.iterationSeconds.begin(),
                           stats.iterationSeconds.end());
    }
    w.endArray();

    w.key("latency").beginObject();
    writeLatencyStats(w, all_samples);
    w.endObject();

    // Full registry snapshot: process-lifetime totals (not per-run
    // deltas), so successive reports can be differenced offline.
    const obs::MetricsSnapshot snap = obs::snapshotMetrics();
    w.key("counters").beginObject();
    for (const obs::CounterValue& c : snap.counters)
        w.key(c.name).value(c.value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const obs::HistogramSnapshot& h : snap.histograms) {
        w.key(h.name).beginObject();
        w.key("count").value(h.totalCount);
        w.key("sum").value(h.sum);
        w.key("mean").value(h.mean());
        w.key("p50").value(h.percentile(50));
        w.key("p90").value(h.percentile(90));
        w.key("p99").value(h.percentile(99));
        w.endObject();
    }
    w.endObject();

    w.endObject();
    return w.take();
}

void
maybeWriteJsonReport(const BenchSpec& spec, BenchResult& result,
                     const char* engine_label)
{
    const char* dir = std::getenv("LNB_JSON_DIR");
    if (dir == nullptr)
        return;

    static std::atomic<int> seq{0};
    const char* engine = engine_label != nullptr
                             ? engine_label
                             : spec.engineConfig.tiered
                                   ? "tiered"
                                   : rt::engineKindName(
                                         spec.engineConfig.kind);
    std::string path =
        std::string(dir) + "/" + cell("%03d", seq.fetch_add(1)) + "_" +
        sanitizeForFilename(spec.kernel ? spec.kernel->name : "unnamed") +
        "_" + sanitizeForFilename(engine) + "_" +
        sanitizeForFilename(
            mem::boundsStrategyName(spec.engineConfig.strategy)) +
        "_" + cell("%dt", spec.numThreads) + ".json";

    std::ofstream file(path);
    if (!file.is_open()) {
        LNB_WARN("cannot open %s for writing; JSON report dropped",
                 path.c_str());
        return;
    }
    file << benchResultToJson(spec, result, engine_label) << '\n';
    file.flush();
    if (!file.good()) {
        LNB_WARN("write to %s failed; JSON report incomplete",
                 path.c_str());
        return;
    }
    result.jsonReportPath = std::move(path);
}

} // namespace lnb::harness
