/**
 * @file
 * Observability layer tests: JSON writer/parser round trips, counter and
 * histogram correctness under concurrent writers, trace-ring wraparound,
 * and Chrome trace_event export well-formedness.
 *
 * Registry state is process-global and monotonic, so tests assert on
 * deltas (or uniquely named metrics), never on absolute values.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "harness/report.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "wasm/builder.h"

namespace lnb::obs {
namespace {

// ----- JSON writer + parser (built in all configurations) -------------

TEST(Json, WriterProducesParseableDocument)
{
    JsonWriter w;
    w.beginObject();
    w.key("n").value(3);
    w.key("pi").value(3.25);
    w.key("big").value(uint64_t(1) << 60);
    w.key("neg").value(int64_t(-7));
    w.key("flag").value(true);
    w.key("text").value("quote \" backslash \\ newline \n tab \t");
    w.key("xs").beginArray().value(1).value(2).value(3).endArray();
    w.key("nested").beginObject().key("k").value("v").endObject();
    w.endObject();
    std::string text = w.take();

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error << "\n" << text;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("n")->number, 3);
    EXPECT_EQ(doc.find("pi")->number, 3.25);
    EXPECT_EQ(doc.find("big")->number, double(uint64_t(1) << 60));
    EXPECT_EQ(doc.find("neg")->number, -7);
    EXPECT_TRUE(doc.find("flag")->boolean);
    EXPECT_EQ(doc.find("text")->string,
              "quote \" backslash \\ newline \n tab \t");
    ASSERT_TRUE(doc.find("xs")->isArray());
    EXPECT_EQ(doc.find("xs")->elements.size(), 3u);
    EXPECT_EQ(doc.findPath("nested.k")->string, "v");
}

TEST(Json, ParserRejectsMalformedInput)
{
    JsonValue doc;
    EXPECT_FALSE(parseJson("", doc));
    EXPECT_FALSE(parseJson("{", doc));
    EXPECT_FALSE(parseJson("{\"a\":}", doc));
    EXPECT_FALSE(parseJson("[1,]", doc));
    EXPECT_FALSE(parseJson("\"unterminated", doc));
    EXPECT_FALSE(parseJson("{} trailing", doc));
    EXPECT_TRUE(parseJson("{} \n ", doc)); // trailing whitespace is fine
}

TEST(Json, EscapeCoversControlCharacters)
{
    std::string escaped = jsonEscape(std::string("a\x01b\"c\\d"));
    JsonValue doc;
    ASSERT_TRUE(parseJson("\"" + escaped + "\"", doc));
    EXPECT_EQ(doc.string, "a\x01b\"c\\d");
}

// ----- metrics registry -----------------------------------------------

TEST(Metrics, CounterAggregatesAcrossThreads)
{
    Counter counter = registerCounter("test.concurrent_counter");
    uint64_t before = counter.value();

    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kAddsPerThread; i++)
                counter.add();
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    // Exact once the writers have joined (live shards + retired folds).
    EXPECT_EQ(counter.value() - before,
              uint64_t(kThreads) * kAddsPerThread);
}

TEST(Metrics, RegistrationIsIdempotent)
{
    Counter a = registerCounter("test.idempotent");
    Counter b = registerCounter("test.idempotent");
    uint64_t before = a.value();
    a.add(3);
    b.add(4);
    EXPECT_EQ(a.value() - before, 7u);
    EXPECT_EQ(b.value(), a.value());
}

TEST(Metrics, HistogramCountsSumsAndPercentiles)
{
    Histogram hist = registerHistogram("test.latency_hist");
    HistogramSnapshot before = hist.snapshot();

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&hist] {
            for (uint64_t v = 0; v < 1000; v++)
                hist.record(v);
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    HistogramSnapshot after = hist.snapshot();
    EXPECT_EQ(after.totalCount - before.totalCount, 4000u);
    EXPECT_EQ(after.sum - before.sum, uint64_t(kThreads) * 999 * 1000 / 2);
    // Values span [0, 1000); the median must land in the same ballpark
    // (bucketing is power-of-two, so tolerances are generous).
    double p50 = after.percentile(50);
    EXPECT_GT(p50, 64.0);
    EXPECT_LT(p50, 1024.0);
    EXPECT_LE(after.percentile(0), after.percentile(100));
    EXPECT_LE(after.percentile(100), 1024.0);
}

TEST(Metrics, ExternalCounterIsVisibleInSnapshots)
{
    static std::atomic<uint64_t> source{0};
    registerExternalCounter("test.external", &source);
    source.store(42, std::memory_order_relaxed);
    MetricsSnapshot snap = snapshotMetrics();
    EXPECT_EQ(snap.counter("test.external"), 42u);
    EXPECT_EQ(snap.counter("test.no_such_counter"), 0u);
}

TEST(Metrics, SnapshotSerializesToValidJson)
{
    registerCounter("test.json_counter").add(5);
    registerHistogram("test.json_hist").record(123);
    std::string text = metricsToJson(snapshotMetrics());

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error;
    EXPECT_EQ(doc.find("schema")->string, "lnb.metrics.v1");
    // Counter names contain dots, so look members up directly instead of
    // through the dotted-path helper.
    ASSERT_NE(doc.find("counters"), nullptr);
    const JsonValue* counter =
        doc.find("counters")->find("test.json_counter");
    ASSERT_NE(counter, nullptr);
    EXPECT_GE(counter->number, 5.0);
    const JsonValue* hist = doc.find("histograms");
    ASSERT_NE(hist, nullptr);
    ASSERT_NE(hist->find("test.json_hist"), nullptr);
    EXPECT_GE(hist->find("test.json_hist")->find("count")->number, 1.0);
}

TEST(Metrics, ScopedLatencyRecordsOneSample)
{
    Histogram hist = registerHistogram("test.scoped_latency");
    uint64_t before = hist.snapshot().totalCount;
    {
        ScopedLatency probe(hist);
    }
    EXPECT_EQ(hist.snapshot().totalCount - before, 1u);
}

// ----- trace ring + Chrome export -------------------------------------

TEST(Trace, ScopesAreRecordedAndDrained)
{
    setTraceEnabledForTesting(true);
    drainTraceEvents(); // discard anything earlier tests buffered
    {
        LNB_TRACE_SCOPE("test.outer");
        LNB_TRACE_SCOPE("test.inner");
    }
    std::vector<TraceEvent> events = drainTraceEvents();
    setTraceEnabledForTesting(false);

    ASSERT_EQ(events.size(), 2u);
    // Drained order is by start time: outer opened first.
    EXPECT_STREQ(events[0].name, "test.outer");
    EXPECT_STREQ(events[1].name, "test.inner");
    EXPECT_GE(events[1].startNanos, events[0].startNanos);
    EXPECT_NE(events[0].tid, 0u);
}

TEST(Trace, RingKeepsNewestEventsOnWraparound)
{
    setTraceEnabledForTesting(true);
    drainTraceEvents();
    const size_t total = kTraceRingCapacity + 100;
    for (size_t i = 0; i < total; i++) {
        LNB_TRACE_SCOPE("test.wrap");
    }
    std::vector<TraceEvent> events = drainTraceEvents();
    setTraceEnabledForTesting(false);

    // The ring bounds memory: the oldest 100 events were overwritten.
    ASSERT_EQ(events.size(), kTraceRingCapacity);
    for (size_t i = 1; i < events.size(); i++)
        EXPECT_LE(events[i - 1].startNanos, events[i].startNanos);
}

TEST(Trace, ChromeExportIsWellFormed)
{
    setTraceEnabledForTesting(true);
    drainTraceEvents();
    {
        LNB_TRACE_SCOPE("test.export");
    }
    std::string path =
        ::testing::TempDir() + "/lnb_obs_test_trace.json";
    ASSERT_TRUE(writeChromeTrace(path));
    setTraceEnabledForTesting(false);

    std::ifstream file(path);
    ASSERT_TRUE(file.is_open());
    std::stringstream buffer;
    buffer << file.rdbuf();

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(buffer.str(), doc, &error)) << error;
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->elements.size(), 1u);
    const JsonValue& event = events->elements[0];
    EXPECT_EQ(event.find("name")->string, "test.export");
    EXPECT_EQ(event.find("ph")->string, "X");
    EXPECT_TRUE(event.find("ts")->isNumber());
    EXPECT_TRUE(event.find("dur")->isNumber());
    EXPECT_TRUE(event.find("tid")->isNumber());
    std::remove(path.c_str());
}

// ----- bench-report embedding of the opt-pass counters -----------------

TEST(Report, OptPassCountersAppearInBenchResultReports)
{
    // Compile a loop module through the real pipeline so the pass runs
    // and registers its counters (interp tier -> the register-form
    // rewrite runs).
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    f.addLocal(wasm::ValType::i32);
    auto exit = f.block();
    auto head = f.loop();
    f.localGet(0);
    f.i32Const(1);
    f.emit(wasm::Op::i32_add);
    f.localTee(0);
    f.i32Const(100);
    f.emit(wasm::Op::i32_lt_s);
    f.brIf(head);
    f.end();
    f.end();
    (void)exit;
    f.localGet(0);
    mb.exportFunc("run", f.finish());

    rt::EngineConfig config;
    config.kind = rt::EngineKind::interp_threaded;
    rt::Engine engine(config);
    auto compiled = engine.compile(mb.build());
    ASSERT_TRUE(compiled.isOk());
    ASSERT_GT(compiled.value()->optStats().instsFused, 0u);

    harness::BenchSpec spec;
    spec.engineConfig = config;
    harness::BenchResult result;
    result.ok = true;
    std::string text =
        harness::benchResultToJson(spec, result, "interp-threaded");

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(text, doc, &error)) << error;
    EXPECT_EQ(doc.find("schema")->string, "lnb.bench_result.v1");
    const JsonValue* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    for (const char* name : {"opt.checks_elided_vn", "opt.insts_fused"}) {
        ASSERT_NE(counters->find(name), nullptr)
            << name << " missing from the run report";
    }
    EXPECT_GT(counters->find("opt.insts_fused")->number, 0.0);
}

} // namespace
} // namespace lnb::obs
