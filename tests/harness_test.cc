/**
 * @file
 * Harness tests: the benchmark driver's protocol guarantees (per-thread
 * samples, checksum propagation, instance churn accounting) and the
 * table reporter.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness/bench_runner.h"
#include "harness/report.h"
#include "obs/json.h"
#include "support/clock.h"

namespace lnb::harness {
namespace {

const kernels::Kernel*
smallKernel()
{
    return kernels::findKernel("trisolv");
}

BenchSpec
quickSpec(int threads, bool fresh)
{
    BenchSpec spec;
    spec.kernel = smallKernel();
    spec.engineConfig.kind = rt::EngineKind::jit_base;
    spec.engineConfig.strategy = mem::BoundsStrategy::mprotect;
    spec.scale = 16;
    spec.numThreads = threads;
    spec.iterations = 5;
    spec.warmupIterations = 1;
    spec.freshInstancePerIteration = fresh;
    return spec;
}

TEST(BenchRunner, SingleThreadProducesSamples)
{
    BenchResult result = runBenchmark(quickSpec(1, false));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.threads.size(), 1u);
    EXPECT_EQ(result.threads[0].iterationSeconds.size(), 5u);
    EXPECT_GT(result.medianIterationSeconds, 0.0);
    EXPECT_GT(result.wallSeconds, 0.0);
    EXPECT_GT(result.compileSeconds, 0.0);
    // The checksum equals the native kernel's result.
    EXPECT_EQ(result.threads[0].checksum, smallKernel()->native(16));
}

TEST(BenchRunner, MultiThreadRunsAllWorkers)
{
    BenchSpec spec = quickSpec(2, false);
    spec.kernel = kernels::findKernel("gemm");
    spec.scale = 4;
    spec.iterations = 30; // long enough for the coarse CPU-time clock
    BenchResult result = runBenchmark(spec);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.threads.size(), 2u);
    for (const ThreadStats& stats : result.threads) {
        EXPECT_EQ(stats.iterationSeconds.size(), 30u);
        EXPECT_EQ(stats.checksum, spec.kernel->native(4));
    }
    // Both workers burn CPU (the exact figure depends on host load and
    // the kernel's CPU-clock granularity).
    EXPECT_GT(result.cpuUtilizationPercent, 0.0);
}

TEST(BenchRunner, WorkerCpuCoversTheWallClockWindow)
{
    // Worker 0 measures three 1 ms iterations, worker 1 three of 40 ms,
    // each spun on the thread's own CPU clock. Worker 0 then cools down
    // until worker 1 is done, which the wall clock includes, so its CPU
    // time and blocking count must cover that too: read when it stopped
    // measuring, its CPU time was ~3 ms against worker 1's ~120 ms and
    // the run read ~100% utilization for two busy threads.
    BenchSpec spec;
    spec.numThreads = 2;
    spec.iterations = 3;
    spec.warmupIterations = 0;
    spec.pinThreads = false;
    std::atomic<uint64_t> iterations[2] = {0, 0};
    auto spin = [&](int tid) {
        uint64_t start = threadCpuNanos();
        uint64_t want = tid == 0 ? 1'000'000 : 40'000'000;
        while (threadCpuNanos() - start < want) {
        }
        iterations[tid]++;
        return IterSample{double(want) * 1e-9, 0};
    };
    BenchResult result = driveThreads(
        spec, spin, [&](int tid) { return iterations[tid].load(); });
    ASSERT_TRUE(result.ok);
    ASSERT_EQ(result.threads.size(), 2u);
    const ThreadStats& fast = result.threads[0];
    const ThreadStats& slow = result.threads[1];
    EXPECT_EQ(fast.iterationSeconds.size(), 3u);
    // Both spin for the whole window, so scheduling shares it evenly.
    EXPECT_GT(fast.cpuSeconds, 0.5 * slow.cpuSeconds)
        << "fast " << fast.cpuSeconds << " s, slow " << slow.cpuSeconds
        << " s of CPU";
    EXPECT_GT(fast.blockingEvents, 3u * 5u);
    EXPECT_EQ(fast.blockingEvents, iterations[0].load());
}

TEST(BenchRunner, InstanceChurnAccountsMemoryWork)
{
    // mprotect strategy with per-iteration instances performs at least
    // one resize syscall per instance creation.
    BenchResult churn = runBenchmark(quickSpec(1, true));
    ASSERT_TRUE(churn.ok);
    EXPECT_GE(churn.resizeSyscalls, 5u);

    BenchResult reuse = runBenchmark(quickSpec(1, false));
    ASSERT_TRUE(reuse.ok);
    EXPECT_LT(reuse.resizeSyscalls, churn.resizeSyscalls);
}

TEST(BenchRunner, JsonReportMatchesResultCounters)
{
    // Deterministic fault workload: emulated uffd populates pages lazily
    // on every fresh instance, so faultsHandled is nonzero and the report
    // must agree with the in-memory result.
    std::string dir = ::testing::TempDir() + "/lnb_harness_json_XXXXXX";
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    setenv("LNB_JSON_DIR", dir.c_str(), 1);

    BenchSpec spec = quickSpec(1, true);
    spec.engineConfig.strategy = mem::BoundsStrategy::uffd;
    spec.engineConfig.forceUffdEmulation = true;
    BenchResult result = runBenchmark(spec);
    unsetenv("LNB_JSON_DIR");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.faultsHandled, 0u);

    ASSERT_FALSE(result.jsonReportPath.empty());
    std::ifstream file(result.jsonReportPath);
    ASSERT_TRUE(file.is_open()) << result.jsonReportPath;
    std::stringstream buffer;
    buffer << file.rdbuf();

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(buffer.str(), doc, &error)) << error;
    EXPECT_EQ(doc.find("schema")->string, "lnb.bench_result.v1");
    EXPECT_EQ(doc.findPath("config.kernel")->string,
              smallKernel()->name);
    EXPECT_EQ(doc.findPath("config.strategy")->string, "uffd");
    EXPECT_EQ(doc.find("faultsHandled")->number,
              double(result.faultsHandled));
    EXPECT_EQ(doc.find("resizeSyscalls")->number,
              double(result.resizeSyscalls));
    const obs::JsonValue* per_thread = doc.find("perThread");
    ASSERT_NE(per_thread, nullptr);
    ASSERT_EQ(per_thread->elements.size(), 1u);
    EXPECT_EQ(per_thread->elements[0].find("iterations")->number, 5.0);
    EXPECT_GT(doc.findPath("latency.p50Seconds")->number, 0.0);
}

TEST(Report, CsvQuotesSpecialCells)
{
    std::string dir = ::testing::TempDir() + "/lnb_harness_csv_XXXXXX";
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    setenv("LNB_CSV_DIR", dir.c_str(), 1);

    Table table({"name", "value"});
    table.addRow({"plain", "has,comma"});
    table.addRow({"quote\"inside", "multi\nline"});
    table.maybeWriteCsv("quoting");
    unsetenv("LNB_CSV_DIR");

    std::ifstream file(dir + "/quoting.csv");
    ASSERT_TRUE(file.is_open());
    std::stringstream buffer;
    buffer << file.rdbuf();
    EXPECT_EQ(buffer.str(), "name,value\n"
                            "plain,\"has,comma\"\n"
                            "\"quote\"\"inside\",\"multi\nline\"\n");
}

TEST(Report, TableAlignsColumns)
{
    Table table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "22"});
    std::string text = table.toString();
    EXPECT_NE(text.find("name       value"), std::string::npos);
    EXPECT_NE(text.find("long-name  22"), std::string::npos);
    // Separator under the header.
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Report, CellFormats)
{
    EXPECT_EQ(cell("%.2fx", 1.5), "1.50x");
    EXPECT_EQ(cell("%d", 42), "42");
}

TEST(Report, CellHandlesWideFormats)
{
    // Formats wider than any fixed buffer must come through intact.
    std::string wide(500, 'x');
    EXPECT_EQ(cell("%s!", wide.c_str()), wide + "!");
    EXPECT_EQ(cell("%300d", 7).size(), 300u);
}

} // namespace
} // namespace lnb::harness
