/**
 * @file
 * steady phase: the paper's Fig. 2 question — what does each strategy
 * cost in each engine, relative to native?
 *
 * Every kernel is compiled once per cell of {jit_base, jit_opt,
 * interp_threaded} x 5 strategies, with one reused instance per cell.
 * A trial of one kernel times a fixed calibration call, the native kernel
 * at both dataset divisors, then every cell in a seeded shuffled order, so
 * native and every cell sample the same host conditions. A cell's cost is
 * its fast-state time over native's fast-state time (bench.h). One pinned
 * thread, closed loop; each round of trials runs on the next CPU. After
 * warm-up nearly all time is generated code and inline checks (jit,
 * wasm/opt elision, interp); mem, instantiation and svc do no work.
 */
#include <algorithm>

#include "bench.h"
#include "obs/metrics.h"
#include "support/clock.h"
#include "support/rng.h"
#include "wasm/encoder.h"

namespace lnb::perfbench {

namespace {

const rt::EngineKind kEngines[] = {rt::EngineKind::jit_base,
                                   rt::EngineKind::jit_opt,
                                   rt::EngineKind::interp_threaded};
constexpr int kNumEngines = 3;
constexpr int kNumStrategies = mem::kNumBoundsStrategies;
constexpr int kBootstrapResamples = 1000;

struct Cell
{
    rt::EngineKind engine;
    std::unique_ptr<rt::Instance> instance;
    std::vector<double> seconds; ///< one per trial
};

struct KernelState
{
    const KernelPlan* plan = nullptr;
    double jitChecksum = 0;
    double interpChecksum = 0;
    std::vector<uint8_t> jitBytes;
    std::vector<uint8_t> interpBytes;
    /** kNumEngines x kNumStrategies, engine-major. */
    std::vector<Cell> cells;
    std::vector<double> nativeJit;    ///< per trial
    std::vector<double> nativeInterp; ///< per trial
    std::vector<double> calib;        ///< per trial

    bool isInterp(const Cell& cell) const
    {
        return cell.engine == rt::EngineKind::interp_threaded;
    }
    const Cell& cell(int engine, int strategy) const
    {
        return cells[size_t(engine * kNumStrategies + strategy)];
    }
};

/** Module-building totals from one set-up (deterministic counts). */
struct CompileTotals
{
    wasm::OptStats opt;
    uint64_t codeBytes = 0;
    uint64_t checksEmitted = 0;
};

/**
 * The fixed calibration call timed at the start of every trial: one
 * jit_opt/none call of gesummv at divisor 4 on a warm instance. The
 * host's slow state stretches generated code ~1.9x while a pure ALU loop
 * barely moves, so a wasm call is what shows it (calib.q3_over_q1).
 */
class Calibration
{
  public:
    bool
    setUp(Checker& checker)
    {
        const kernels::Kernel* kernel = kernels::findKernel("gesummv");
        if (kernel == nullptr)
            return false;
        rt::EngineConfig config;
        config.kind = rt::EngineKind::jit_opt;
        config.strategy = mem::BoundsStrategy::none;
        auto compiled = rt::Engine(config).compile(kernel->buildModule(4));
        if (!compiled.isOk())
            return false;
        auto instance = rt::Instance::create(compiled.takeValue());
        if (!instance.isOk())
            return false;
        instance_ = instance.takeValue();
        checksum_ = kernel->native(4);
        sample(checker); // warm-up
        return true;
    }

    /** Time one call, in seconds; the result is checked like any other. */
    double
    sample(Checker& checker)
    {
        uint64_t t0 = monotonicNanos();
        rt::CallOutcome outcome = instance_->callExport("run", {});
        double seconds = double(monotonicNanos() - t0) * 1e-9;
        checker.check(outcome, checksum_);
        return seconds;
    }

  private:
    std::unique_ptr<rt::Instance> instance_;
    double checksum_ = 0;
};

double
timeNative(const kernels::Kernel& kernel, int scale, double* checksum)
{
    uint64_t t0 = monotonicNanos();
    *checksum = kernel.native(scale);
    return double(monotonicNanos() - t0) * 1e-9;
}

template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

/** Build one kernel's cells: compile, instantiate, warm up. */
bool
buildKernel(const PhaseContext& ctx, const KernelPlan& plan,
            KernelState& state, CompileTotals& totals)
{
    state.plan = &plan;
    state.jitChecksum = plan.kernel->native(plan.jitScale);
    state.interpChecksum = plan.kernel->native(plan.interpScale);
    state.jitBytes =
        wasm::encodeModule(plan.kernel->buildModule(plan.jitScale));
    state.interpBytes =
        wasm::encodeModule(plan.kernel->buildModule(plan.interpScale));
    for (rt::EngineKind engine : kEngines) {
        for (mem::BoundsStrategy strategy : allStrategies()) {
            rt::EngineConfig config;
            config.kind = engine;
            config.strategy = strategy;
            bool interp = engine == rt::EngineKind::interp_threaded;
            auto compiled = rt::Engine(config).compileBytes(
                interp ? state.interpBytes : state.jitBytes);
            if (!compiled.isOk()) {
                std::fprintf(stderr, "steady: compile %s failed: %s\n",
                             plan.kernel->name.c_str(),
                             compiled.status().toString().c_str());
                return false;
            }
            auto module = compiled.takeValue();
            const wasm::OptStats& opt = module->optStats();
            totals.opt.checksElided += opt.checksElided;
            totals.opt.checksHoisted += opt.checksHoisted;
            totals.opt.loopsVersioned += opt.loopsVersioned;
            totals.opt.instsFused += opt.instsFused;
            totals.codeBytes += module->stats().codeBytes;
            auto instance = rt::Instance::create(std::move(module));
            if (!instance.isOk()) {
                std::fprintf(stderr, "steady: instantiate %s failed: %s\n",
                             plan.kernel->name.c_str(),
                             instance.status().toString().c_str());
                return false;
            }
            Cell cell{engine, instance.takeValue(), {}};
            // Warm-up call: first-touch page faults and lazy state stay
            // out of the trials.
            ctx.checker.check(cell.instance->callExport("run", {}),
                              interp ? state.interpChecksum
                                     : state.jitChecksum);
            state.cells.push_back(std::move(cell));
        }
    }
    return true;
}

bool
buildCells(const PhaseContext& ctx, std::vector<KernelState>& out,
           CompileTotals& totals)
{
    out.clear();
    totals = {};
    obs::MetricsSnapshot before = obs::snapshotMetrics();
    for (const KernelPlan& plan : ctx.workload.steady) {
        out.emplace_back();
        if (!buildKernel(ctx, plan, out.back(), totals))
            return false;
    }
    totals.checksEmitted = counterDelta(before, obs::snapshotMetrics(),
                                        "jit.bounds_checks_emitted");
    return true;
}

void
runTrial(const PhaseContext& ctx, KernelState& state, Calibration& calib,
         Rng& rng, uint64_t trial_id)
{
    const kernels::Kernel& kernel = *state.plan->kernel;
    uint64_t trial_start = monotonicNanos();
    state.calib.push_back(calib.sample(ctx.checker));
    uint64_t calib_end = monotonicNanos();

    double checksum = 0;
    state.nativeJit.push_back(
        timeNative(kernel, state.plan->jitScale, &checksum));
    ctx.checker.checkNative(checksum, state.jitChecksum);
    state.nativeInterp.push_back(
        timeNative(kernel, state.plan->interpScale, &checksum));
    ctx.checker.checkNative(checksum, state.interpChecksum);
    uint64_t native_end = monotonicNanos();

    std::vector<size_t> order(state.cells.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    shuffle(order, rng);
    struct CallTimes
    {
        uint64_t start, end;
    };
    std::vector<CallTimes> calls;
    calls.reserve(order.size());
    for (size_t idx : order) {
        Cell& cell = state.cells[idx];
        uint64_t t0 = monotonicNanos();
        rt::CallOutcome out = cell.instance->callExport("run", {});
        uint64_t t1 = monotonicNanos();
        cell.seconds.push_back(double(t1 - t0) * 1e-9);
        ctx.checker.check(out, state.isInterp(cell) ? state.interpChecksum
                                                    : state.jitChecksum);
        calls.push_back({t0, t1});
    }
    if (ctx.tracer.on()) {
        uint64_t trial_end = monotonicNanos();
        uint32_t root = ctx.tracer.add("steady.trial", trial_id,
                                       trial_start, trial_end);
        ctx.tracer.add("steady.calib", trial_id, trial_start, calib_end,
                       root);
        ctx.tracer.add("steady.native", trial_id, calib_end, native_end,
                       root);
        for (const CallTimes& call : calls)
            ctx.tracer.add("steady.call", trial_id, call.start, call.end,
                           root);
    }
}

/** The native times a cell is compared with. */
const std::vector<double>&
nativeOf(const KernelState& state, const Cell& cell)
{
    return state.isInterp(cell) ? state.nativeInterp : state.nativeJit;
}

/** Cell time over base time, each the fast-state estimate of its trials. */
double
costRatio(const std::vector<double>& cell, const std::vector<double>& base)
{
    return fastStateEstimate(cell) / fastStateEstimate(base);
}

struct Interval
{
    double value = 0;
    double lo = 0;
    double hi = 0;
};

/**
 * Overhead of (engine, strategy) vs (engine, none), in percent: geomean
 * over kernels of the cost ratio, minus one. The 95% interval comes from
 * a bootstrap that resamples each kernel's trials with replacement; a
 * resampled trial brings both of its times, so the pairing holds.
 */
Interval
pairedOverhead(const std::vector<KernelState>& states, int engine,
               int strategy, Rng& rng)
{
    std::vector<double> estimates;
    for (const KernelState& state : states) {
        estimates.push_back(costRatio(state.cell(engine, strategy).seconds,
                                      state.cell(engine, 0).seconds));
    }
    Interval out;
    out.value = (geomean(estimates) - 1) * 100;
    std::vector<double> boots;
    std::vector<double> cell;
    std::vector<double> base;
    for (int b = 0; b < kBootstrapResamples; b++) {
        for (size_t k = 0; k < states.size(); k++) {
            const std::vector<double>& c =
                states[k].cell(engine, strategy).seconds;
            const std::vector<double>& n = states[k].cell(engine, 0).seconds;
            cell.resize(c.size());
            base.resize(c.size());
            for (size_t t = 0; t < c.size(); t++) {
                size_t pick = rng.nextBelow(c.size());
                cell[t] = c[pick];
                base[t] = n[pick];
            }
            estimates[k] = costRatio(cell, base);
        }
        boots.push_back((geomean(estimates) - 1) * 100);
    }
    out.lo = quantile(boots, 0.025);
    out.hi = quantile(boots, 0.975);
    return out;
}

/** Dynamic software checks retired by one call of each JIT clamp/trap
 * cell, averaged over those cells. Compiles counting copies so the timed
 * cells keep their code. */
double
checksRetiredPerCall(const PhaseContext& ctx,
                     const std::vector<KernelState>& states)
{
    uint64_t retired = 0;
    uint64_t calls = 0;
    for (const KernelState& state : states) {
        for (rt::EngineKind engine :
             {rt::EngineKind::jit_base, rt::EngineKind::jit_opt}) {
            for (mem::BoundsStrategy strategy :
                 {mem::BoundsStrategy::clamp, mem::BoundsStrategy::trap}) {
                rt::EngineConfig config;
                config.kind = engine;
                config.strategy = strategy;
                config.countRetiredChecks = true;
                auto compiled =
                    rt::Engine(config).compileBytes(state.jitBytes);
                if (!compiled.isOk())
                    continue;
                auto instance = rt::Instance::create(compiled.takeValue());
                if (!instance.isOk())
                    continue;
                ctx.checker.check(instance.value()->callExport("run", {}),
                                  state.jitChecksum);
                retired += instance.value()->checksRetired();
                calls++;
            }
        }
    }
    return calls > 0 ? double(retired) / double(calls) : 0;
}

class SteadyPhase : public Phase
{
  public:
    explicit SteadyPhase(const PhaseContext& ctx)
        : ctx_(ctx), rng_(ctx.options.seed * 0x9e3779b97f4a7c15ull + 1)
    {}

    bool
    setUp() override
    {
        return calib_.setUp(ctx_.checker) &&
               buildCells(ctx_, states_, totals_);
    }

    void
    measure(double seconds) override
    {
        std::vector<size_t> order(states_.size());
        for (size_t i = 0; i < order.size(); i++)
            order[i] = i;
        // Whole rounds only, so every kernel has the same trial count.
        uint64_t deadline = monotonicNanos() + uint64_t(seconds * 1e9);
        do {
            rotateCpu(round_++);
            shuffle(order, rng_);
            for (size_t k : order)
                runTrial(ctx_, states_[k], calib_, rng_, trialId_++);
        } while (monotonicNanos() < deadline);
    }

    PhaseOutput finish() override;

  private:
    const PhaseContext& ctx_;
    Rng rng_;
    std::vector<KernelState> states_;
    Calibration calib_;
    CompileTotals totals_;
    uint64_t trialId_ = 0;
    uint64_t round_ = 0;
};

} // namespace

std::unique_ptr<Phase>
makeSteady(const PhaseContext& ctx)
{
    return std::make_unique<SteadyPhase>(ctx);
}

bool
rehearseSteadySetUp(const PhaseContext& ctx, double* seconds)
{
    uint64_t t0 = monotonicNanos();
    Calibration calib;
    if (!calib.setUp(ctx.checker))
        return false;
    *seconds = double(monotonicNanos() - t0) * 1e-9;
    CompileTotals totals;
    for (const KernelPlan& plan : ctx.workload.steady) {
        KernelState state;
        t0 = monotonicNanos();
        if (!buildKernel(ctx, plan, state, totals))
            return false;
        *seconds += double(monotonicNanos() - t0) * 1e-9;
    }
    return true;
}

PhaseOutput
SteadyPhase::finish()
{
    PhaseOutput out;
    const std::vector<KernelState>& states = states_;
    // End to end: geomean over kernels x {jit_base, jit_opt} per strategy,
    // and over kernels x strategies for the interpreter.
    std::vector<double> interp_all;
    std::vector<double> median_over_q1;
    for (int s = 0; s < kNumStrategies; s++) {
        const std::string strategy =
            mem::boundsStrategyName(allStrategies()[s]);
        std::vector<double> jit;
        for (int e = 0; e < kNumEngines; e++) {
            std::vector<double> cell_estimates;
            for (const KernelState& state : states) {
                const Cell& cell = state.cell(e, s);
                const std::vector<double>& native = nativeOf(state, cell);
                double estimate = costRatio(cell.seconds, native);
                cell_estimates.push_back(estimate);
                median_over_q1.push_back(quantile(cell.seconds, 0.5) /
                                         quantile(native, 0.5) / estimate);
            }
            bool interp = kEngines[e] == rt::EngineKind::interp_threaded;
            std::vector<double>& pooled = interp ? interp_all : jit;
            pooled.insert(pooled.end(), cell_estimates.begin(),
                          cell_estimates.end());
            std::string name =
                interp ? "interp." + strategy
                       : "jit." + std::string(engineLabel(kEngines[e])) +
                             "." + strategy;
            out.perLayer[name + ".x_native"] = {geomean(cell_estimates),
                                                "x"};
        }
        out.endToEnd["x_native." + strategy] = {geomean(jit), "x"};
    }
    out.endToEnd["x_native.interp"] = {geomean(interp_all), "x"};

    if (!ctx_.tracer.on())
        return out;

    Metrics& layer = out.perLayer;
    layer["wasm.checks_elided"] = {double(totals_.opt.checksElided),
                                   "count"};
    layer["wasm.checks_hoisted"] = {double(totals_.opt.checksHoisted),
                                    "count"};
    layer["wasm.loops_versioned"] = {double(totals_.opt.loopsVersioned),
                                     "count"};
    layer["wasm.insts_fused"] = {double(totals_.opt.instsFused), "count"};
    layer["jit.code_bytes"] = {double(totals_.codeBytes), "B"};
    layer["jit.checks_emitted"] = {double(totals_.checksEmitted), "count"};
    for (int e = 0; e < kNumEngines; e++) {
        for (int s = 1; s < kNumStrategies; s++) {
            Interval ci = pairedOverhead(states, e, s, rng_);
            std::string name =
                std::string("overhead.") + engineLabel(kEngines[e]) + "." +
                mem::boundsStrategyName(allStrategies()[s]);
            layer[name] = {ci.value, "%"};
            layer[name + ".ci_lo"] = {ci.lo, "%"};
            layer[name + ".ci_hi"] = {ci.hi, "%"};
        }
    }
    std::vector<double> calib_spread;
    for (const KernelState& state : states)
        calib_spread.push_back(quantile(state.calib, 0.75) /
                               quantile(state.calib, 0.25));
    layer["calib.q3_over_q1"] = {geomean(calib_spread), "x"};
    layer["steady.median_over_q1"] = {geomean(median_over_q1), "x"};
    layer["steady.trials_per_kernel"] = {
        double(states.front().calib.size()), "count"};
    layer["jit.checks_retired_per_call"] = {
        checksRetiredPerCall(ctx_, states), "count"};
    return out;
}

} // namespace lnb::perfbench
