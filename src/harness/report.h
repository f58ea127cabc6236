/**
 * @file
 * Table/CSV reporters for the bench binaries: fixed-width terminal tables
 * that mirror the paper's figures, plus optional CSV files (set
 * LNB_CSV_DIR) for replotting.
 */
#ifndef LNB_HARNESS_REPORT_H
#define LNB_HARNESS_REPORT_H

#include <string>
#include <vector>

#include "harness/bench_runner.h"

namespace lnb::harness {

/** A simple column-aligned table accumulating rows of strings. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a separator under the header. */
    std::string toString() const;

    /** Write as CSV into $LNB_CSV_DIR/<name>.csv if the env var is set. */
    void maybeWriteCsv(const std::string& name) const;

  private:
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style cell formatting helper. */
std::string cell(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a standard bench banner with host info and mode flags. */
void printBanner(const std::string& title, const std::string& paper_ref);

/**
 * Serialize one benchmark run as a JSON document (schema
 * lnb.bench_result.v1): config echo, wall/compile/median times, kernel
 * MM counters, host info, per-thread latency percentiles, and a full
 * metrics-registry snapshot. @p engine_label overrides the engine name
 * (used by fig3's shared-memory runs); null uses the spec's engine kind.
 */
std::string benchResultToJson(const BenchSpec& spec,
                              const BenchResult& result,
                              const char* engine_label = nullptr);

/**
 * If LNB_JSON_DIR is set, write the run report there as
 * <seq>_<kernel>_<engine>_<strategy>_<threads>t.json and record the path
 * in result.jsonReportPath.
 */
void maybeWriteJsonReport(const BenchSpec& spec, BenchResult& result,
                          const char* engine_label = nullptr);

} // namespace lnb::harness

#endif // LNB_HARNESS_REPORT_H
