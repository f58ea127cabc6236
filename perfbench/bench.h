/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): the workload
 * description, operation accounting with bit-exact result checks, order
 * statistics, registry deltas, and the in-memory span recorder of the
 * traced run.
 *
 * Every run executes these phases against the public module APIs:
 *
 *   steady      paired strategy cost: native vs every (engine, strategy)
 *               cell, interleaved per trial (steady.cc);
 *   cold_start  bytes -> compile -> instantiate -> first call -> teardown
 *               (cold.cc);
 *   serve_mix   open-loop multi-tenant serving through ExecutionService
 *               (serve.cc), in a traced run only: it reports per-layer
 *               figures alone.
 *
 * A workload fixes the kernel population steady and cold_start draw
 * from; the seed only orders and mixes the inputs, so runs with different
 * seeds measure the same work.
 */
#ifndef LNB_PERFBENCH_BENCH_H
#define LNB_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "mem/linear_memory.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/instance.h"

namespace lnb::perfbench {

/** One steady-phase kernel with its two dataset divisors. The divisors
 * put a native call near 0.1-0.8 ms for the JIT cells and an interpreter
 * call near 1 ms, so every cell resolves well above timer granularity
 * without one kernel dominating a trial. */
struct KernelPlan
{
    const kernels::Kernel* kernel = nullptr;
    int jitScale = 1;    ///< JIT cells and their native partner
    int interpScale = 1; ///< interpreter cells and their native partner
};

/** Everything a workload fixes; the seed varies only order and mix. The
 * serving mix is the same for every workload (serve.cc). */
struct Workload
{
    std::vector<KernelPlan> steady;
    /** cold_start cycles through every one of these at coldScale. */
    std::vector<const kernels::Kernel*> cold;
    int coldScale = 16;
};

/** Look up a workload by name; false if unknown. */
bool findWorkload(const std::string& name, Workload& out);

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Self-test hook: corrupt every Nth checked result, so a test can
     * prove that a wrong result is counted and fails the run. */
    uint64_t corruptEvery = 0;
    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string traceOut;
};

/** A named metric value with its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/**
 * Operation accounting shared by every phase: each wasm call, native
 * call and serving request is one attempt; traps, checksum mismatches and
 * admission rejections are failures.
 */
class Checker
{
  public:
    explicit Checker(uint64_t corrupt_every) : corruptEvery_(corrupt_every)
    {}

    /** Check a wasm call outcome against the kernel's native checksum,
     * bit for bit. Returns true when the result is correct. */
    bool check(const rt::CallOutcome& outcome, double expected);
    /** Check a native call's result against the checksum it must repeat. */
    bool checkNative(double got, double expected);
    void reject()
    {
        attempted_++;
        rejections_++;
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return traps_ + mismatches_ + rejections_; }
    uint64_t mismatches() const { return mismatches_; }

  private:
    bool matches(double got, double expected);

    uint64_t corruptEvery_ = 0;
    uint64_t checked_ = 0;
    uint64_t attempted_ = 0;
    uint64_t traps_ = 0;
    uint64_t mismatches_ = 0;
    uint64_t rejections_ = 0;
};

/** Quantile with linear interpolation between order statistics; 0 on
 * empty input. */
double quantile(std::vector<double> values, double q);

/** Geometric mean; 0 on empty input. */
double geomean(const std::vector<double>& values);

/**
 * The fast-state estimator: the lower quartile, of a cell's per-trial
 * times, of a phase's per-window latency percentiles, or of a run's
 * set-up times. The host's vCPUs
 * each alternate, for half a second to minutes at a time, between a fast
 * state and a slow one that stretches generated code and cold starts
 * ~1.9x and native code 1.2-1.5x, and the host now and then deschedules
 * a vCPU for milliseconds. A median wanders with the share of slow trials
 * in a run (two identical runs: 4.27x vs 4.79x), and a per-trial ratio is
 * poisoned for a whole trial when its one native call stalls; the lower
 * quartile of each side stays in the fast state.
 */
inline double
fastStateEstimate(const std::vector<double>& values)
{
    return quantile(values, 0.25);
}

/**
 * Pin the calling thread to CPU @p step modulo the CPU count. The host's
 * slow state comes and goes on each vCPU independently, for half a
 * second to minutes at a time; a single-threaded phase that moves to the
 * next CPU every round samples all of them instead of inheriting one
 * vCPU's luck for the whole run.
 */
void rotateCpu(uint64_t step);

/** Counter delta between two registry snapshots. */
uint64_t counterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after, const char* name);

/** Mean of the samples a histogram gained between two snapshots, and
 * how many there were. */
double histogramDeltaMean(const obs::MetricsSnapshot& before,
                          const obs::MetricsSnapshot& after,
                          const char* name, uint64_t* count = nullptr);

/**
 * In-memory spans recorded by the benchmark around its calls into each
 * layer. Spans of one request share a request id. A request is recorded
 * once all of its times are known, root first: add() returns the index
 * children pass as their parent. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    static constexpr uint32_t kNoParent = UINT32_MAX;

    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    uint32_t add(const char* name, uint64_t request, uint64_t start_ns,
                 uint64_t end_ns, uint32_t parent = kNoParent);

    /** Mean self time per span name, in microseconds: duration minus the
     * part of it that the span's children cover. */
    std::map<std::string, double> meanSelfMicros() const;

    /** Write the first @p max_spans spans as a Chrome trace. */
    bool write(const std::string& path, size_t max_spans) const;

  private:
    struct Span
    {
        const char* name;
        uint64_t request;
        uint64_t start;
        uint64_t end;
        uint32_t parent;
    };

    bool on_;
    std::vector<Span> spans_;
};

/** What every phase receives. */
struct PhaseContext
{
    const Options& options;
    const Workload& workload;
    Checker& checker;
    Tracer& tracer;
};

/** What every phase hands back. */
struct PhaseOutput
{
    Metrics endToEnd;
    /** Reported only by a traced run. */
    Metrics perLayer;
};

/**
 * One phase of a run. main() sets each phase up once, then measures in
 * slices that interleave the phases, so each phase samples the host's
 * speed states and neighbours across the whole run rather than in one
 * stretch. Before every slice it also times a fresh set-up of steady and
 * cold_start that it then drops (the median is the run's setup time);
 * the measured instances stay where they are for the whole run.
 */
class Phase
{
  public:
    Phase() = default;
    virtual ~Phase() = default;
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

    /** Build the phase's state: modules, instances, warm pools. */
    virtual bool setUp() = 0;
    /** Measure for about @p seconds. */
    virtual void measure(double seconds) = 0;
    virtual PhaseOutput finish() = 0;
};

std::unique_ptr<Phase> makeSteady(const PhaseContext& ctx);
std::unique_ptr<Phase> makeServe(const PhaseContext& ctx);
std::unique_ptr<Phase> makeCold(const PhaseContext& ctx);

/**
 * Repeat the steady phase's set-up work on cells that are then dropped,
 * one kernel at a time: the JIT's code-region registry (256 regions)
 * cannot hold a second full set beside the measured one. @p seconds gets
 * the time spent building, excluding the drops.
 */
bool rehearseSteadySetUp(const PhaseContext& ctx, double* seconds);

/** Metric-name labels: "jit_base", "jit_opt", "interp_threaded". */
const char* engineLabel(rt::EngineKind kind);

/** The five strategies in the paper's order (none first). */
const std::vector<mem::BoundsStrategy>& allStrategies();

} // namespace lnb::perfbench

#endif // LNB_PERFBENCH_BENCH_H
