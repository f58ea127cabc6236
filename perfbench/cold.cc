/**
 * @file
 * cold_start phase: one client, closed loop, on the next CPU each cycle.
 * Requests cycle, in seeded
 * order, through every (kernel at a small scale) x {interp_threaded,
 * jit_base, jit_opt, tiered} x strategy; each takes the module bytes
 * through Engine::compileBytes, Instance::create, the first callExport,
 * then teardown. Compile and instantiation dominate and execution is
 * small: wasm and jit run at full weight, and mem runs its
 * create/destroy path rather than reset.
 *
 * The phase calls the engine directly instead of
 * ExecutionService::loadModule: the service keeps one InstancePool per
 * module for its lifetime, so a stream of cache misses through it would
 * measure that growth rather than cold start.
 */
#include <algorithm>

#include "bench.h"
#include "obs/metrics.h"
#include "support/clock.h"
#include "support/rng.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"

namespace lnb::perfbench {

namespace {


/** A (kernel, engine, strategy) combination of the cycle. */
struct Combo
{
    size_t kernel = 0;
    rt::EngineConfig config;
    bool interpFirstCall = false; ///< interp_threaded or tiered
    bool jit = false;
};

struct ColdKernel
{
    std::vector<uint8_t> bytes;
    double checksum = 0;
};

struct Sample
{
    double latencyMs = 0;
    double instantiateUs = 0;
    double callUs = 0;
    rt::CompileStats stats;
};

std::vector<Combo>
buildCycle(size_t num_kernels)
{
    std::vector<Combo> cycle;
    for (size_t k = 0; k < num_kernels; k++) {
        for (int engine = 0; engine < 4; engine++) {
            for (mem::BoundsStrategy strategy : allStrategies()) {
                Combo c;
                c.kernel = k;
                c.config.strategy = strategy;
                switch (engine) {
                  case 0:
                    c.config.kind = rt::EngineKind::interp_threaded;
                    c.interpFirstCall = true;
                    break;
                  case 1:
                    c.config.kind = rt::EngineKind::jit_base;
                    c.jit = true;
                    break;
                  case 2:
                    c.config.kind = rt::EngineKind::jit_opt;
                    c.jit = true;
                    break;
                  default:
                    c.config.tiered = true;
                    c.interpFirstCall = true;
                    break;
                }
                cycle.push_back(c);
            }
        }
    }
    return cycle;
}

/** The mem layer's share of instantiation, through its own API: median
 * create+destroy time of each kernel's linear memory, over every
 * strategy, in microseconds. */
double
memoryCreateMicros(const std::vector<ColdKernel>& kernels)
{
    std::vector<double> micros;
    for (const ColdKernel& k : kernels) {
        auto module = wasm::decodeModule(k.bytes);
        if (!module.isOk() || module.value().memories.empty())
            continue;
        const wasm::Limits& limits = module.value().memories.front();
        for (mem::BoundsStrategy strategy : allStrategies()) {
            mem::MemoryConfig config;
            config.strategy = strategy;
            uint64_t t0 = monotonicNanos();
            if (!mem::LinearMemory::create(limits, config).isOk())
                continue;
            // The temporary memory is destroyed inside the timing.
            micros.push_back(double(monotonicNanos() - t0) * 1e-3);
        }
    }
    return quantile(micros, 0.5);
}

class ColdPhase : public Phase
{
  public:
    explicit ColdPhase(const PhaseContext& ctx)
        : ctx_(ctx), rng_(ctx.options.seed * 0xbf58476d1ce4e5b9ull + 3)
    {}

    bool
    setUp() override
    {
        for (const kernels::Kernel* k : ctx_.workload.cold) {
            ColdKernel ck;
            ck.bytes =
                wasm::encodeModule(k->buildModule(ctx_.workload.coldScale));
            ck.checksum = k->native(ctx_.workload.coldScale);
            kernels_.push_back(std::move(ck));
        }
        cycle_ = buildCycle(kernels_.size());
        before_ = obs::snapshotMetrics();
        return true;
    }

    /** One window: whole cycles only, so every (kernel, engine,
     * strategy) weighs the same in the window's percentiles. */
    void
    measure(double seconds) override
    {
        size_t first = samples_.size();
        uint64_t deadline = monotonicNanos() + uint64_t(seconds * 1e9);
        do {
            rotateCpu(cycles_);
            for (size_t i = cycle_.size(); i > 1; i--)
                std::swap(cycle_[i - 1], cycle_[rng_.nextBelow(i)]);
            for (const Combo& combo : cycle_)
                request(combo);
            cycles_++;
        } while (monotonicNanos() < deadline);
        std::vector<double> latency;
        for (size_t i = first; i < samples_.size(); i++)
            latency.push_back(samples_[i].latencyMs);
        windowP50_.push_back(quantile(latency, 0.5));
        windowP99_.push_back(quantile(latency, 0.99));
    }

    PhaseOutput finish() override;

  private:
    void request(const Combo& combo);

    const PhaseContext& ctx_;
    Rng rng_;
    std::vector<ColdKernel> kernels_;
    std::vector<Combo> cycle_;
    uint64_t cycles_ = 0;
    std::vector<double> windowP50_;
    std::vector<double> windowP99_;
    obs::MetricsSnapshot before_;
    std::vector<Sample> samples_;
    uint64_t codeBytes_ = 0;
    uint64_t tieredRequests_ = 0;
    std::vector<double> codegenUs_;
    std::vector<double> interpFirstCallUs_;
    uint64_t requestId_ = 0;
};

void
ColdPhase::request(const Combo& combo)
{
    const ColdKernel& k = kernels_[combo.kernel];
    uint64_t t0 = monotonicNanos();
    auto compiled = rt::Engine(combo.config).compileBytes(k.bytes);
    uint64_t t1 = monotonicNanos();
    if (!compiled.isOk()) {
        ctx_.checker.reject();
        return;
    }
    std::shared_ptr<const rt::CompiledModule> module = compiled.takeValue();
    auto created = rt::Instance::create(module);
    uint64_t t2 = monotonicNanos();
    if (!created.isOk()) {
        ctx_.checker.reject();
        return;
    }
    std::unique_ptr<rt::Instance> instance = created.takeValue();
    rt::CallOutcome outcome = instance->callExport("run", {});
    uint64_t t3 = monotonicNanos();
    ctx_.checker.check(outcome, k.checksum);
    Sample s;
    s.latencyMs = double(t3 - t0) * 1e-6;
    s.instantiateUs = double(t2 - t1) * 1e-3;
    s.callUs = double(t3 - t2) * 1e-3;
    s.stats = module->stats();
    instance.reset();
    module.reset();
    uint64_t t4 = monotonicNanos();

    if (cycles_ == 0)
        codeBytes_ += s.stats.codeBytes;
    if (combo.jit)
        codegenUs_.push_back(s.stats.codegenSeconds * 1e6);
    if (combo.interpFirstCall)
        interpFirstCallUs_.push_back(s.callUs);
    tieredRequests_ += combo.config.tiered ? 1 : 0;
    samples_.push_back(s);
    uint64_t id = requestId_++;
    if (ctx_.tracer.on()) {
        uint32_t root = ctx_.tracer.add("cold.request", id, t0, t4);
        ctx_.tracer.add("cold.compile", id, t0, t1, root);
        ctx_.tracer.add("cold.instantiate", id, t1, t2, root);
        ctx_.tracer.add("cold.call", id, t2, t3, root);
        ctx_.tracer.add("cold.teardown", id, t3, t4, root);
    }
}

PhaseOutput
ColdPhase::finish()
{
    PhaseOutput out;
    obs::MetricsSnapshot after = obs::snapshotMetrics();
    out.endToEnd["cold_p50_ms"] = {fastStateEstimate(windowP50_), "ms"};
    out.endToEnd["cold_p99_ms"] = {fastStateEstimate(windowP99_), "ms"};
    out.endToEnd["code_kb"] = {double(codeBytes_) / 1024, "KiB"};
    if (!ctx_.tracer.on())
        return out;

    // Stage times are means: most stages are skipped for some engines or
    // strategies, which would make their medians read zero.
    auto mean_of = [&](auto field) {
        double sum = 0;
        for (const Sample& s : samples_)
            sum += field(s);
        return samples_.empty() ? 0 : sum / double(samples_.size());
    };
    Metrics& layer = out.perLayer;
    layer["wasm.decode_us"] = {
        mean_of([](const Sample& s) { return s.stats.decodeSeconds; }) * 1e6,
        "us"};
    layer["wasm.validate_us"] = {
        mean_of([](const Sample& s) { return s.stats.validateSeconds; }) *
            1e6,
        "us"};
    layer["wasm.lower_us"] = {
        mean_of([](const Sample& s) { return s.stats.lowerSeconds; }) * 1e6,
        "us"};
    layer["wasm.opt_us"] = {
        mean_of([](const Sample& s) { return s.stats.optSeconds; }) * 1e6,
        "us"};
    layer["jit.codegen_us"] = {quantile(codegenUs_, 0.5), "us"};
    layer["interp.first_call_us"] = {quantile(interpFirstCallUs_, 0.5),
                                     "us"};
    std::vector<double> instantiate;
    std::vector<double> call;
    for (const Sample& s : samples_) {
        instantiate.push_back(s.instantiateUs);
        call.push_back(s.callUs);
    }
    layer["rt.instantiate_us"] = {quantile(instantiate, 0.5), "us"};
    layer["rt.call_us"] = {quantile(call, 0.5), "us"};
    double tiered = std::max<double>(double(tieredRequests_), 1);
    layer["tier.ups"] = {
        double(counterDelta(before_, after, "tier.ups")) / tiered, "count"};
    layer["tier.compile_ms"] = {
        double(counterDelta(before_, after, "tier.compile_ns_total")) *
            1e-6 / tiered,
        "ms"};
    layer["mem.create_us"] = {memoryCreateMicros(kernels_), "us"};
    return out;
}

} // namespace

std::unique_ptr<Phase>
makeCold(const PhaseContext& ctx)
{
    return std::make_unique<ColdPhase>(ctx);
}

} // namespace lnb::perfbench
