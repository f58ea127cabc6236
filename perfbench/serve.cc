/**
 * @file
 * serve_mix phase: open-loop multi-tenant serving through
 * ExecutionService (3 pinned workers) driven by one generator thread.
 *
 * Tenants are jit_opt x the 5 strategies over a seeded mix of five short
 * PolyBench kernels at a reduced scale, the same for every workload; the
 * phase runs in traced runs only, since all its figures are per-layer.
 * After the first request every module is a cache hit and the pools are
 * warm, so time goes to queueing, pool recycle (mem reset, snapshot
 * restore, uffd re-faults) and short execution; compile goes unused. This
 * is the only phase where mem runs its reset and re-fault path.
 *
 * Each request is timed from the moment it was due, not from when the
 * generator got round to submitting it, so a generator stall shows as
 * latency of the requests it delayed; the generator's own lateness is
 * reported beside it. Every slice first offers a fixed rate for one
 * window, then climbs a fixed ladder of higher rates until one builds a
 * backlog.
 */
#include <algorithm>
#include <cmath>
#include <future>

#include "bench.h"
#include "obs/metrics.h"
#include "support/clock.h"
#include "support/rng.h"
#include "support/sysinfo.h"
#include "svc/service.h"
#include "wasm/encoder.h"

namespace lnb::perfbench {

namespace {

constexpr int kWorkers = 3;
/** The serving mix: short kernels at dataset divisor kServeScale. */
const char* const kServeKernels[] = {"jacobi-1d", "trisolv", "gesummv",
                                     "atax", "bicg"};
constexpr int kServeScale = 2;
/** Offered rate of the latency measurement, req/s. A request of the mix
 * executes for 0.85 ms on average (0.65-0.71 ms p50 per strategy, uffd
 * 1.1 ms; 4-vCPU VM), so the 3 workers serve about 3 / 0.85 ms = 3500
 * req/s, and p50 latency stays at service time up to 2000 req/s. At
 * 1000 req/s the workers are ~30% busy: latency is mostly service time. */
constexpr double kFixedRate = 1000;
/** Capacity ladder, req/s, above the fixed rate and up past the workers'
 * service capacity. */
const std::vector<double> kLadder = {1500, 2000, 2500, 3000,
                                     3500, 4000, 4500};
/** How long each ladder rate is offered for, per slice, as a share of
 * the slice's fixed-rate window. */
constexpr double kRungShare = 0.2;
/** A rate is met when the fast-state estimate of its per-slice p99
 * latency from due time stays within this. Unloaded p99 is 2-2.5 ms. */
constexpr double kP99LimitMs = 10.0;

struct Tenant
{
    mem::BoundsStrategy strategy;
    rt::EngineConfig config;
};

struct ServeKernel
{
    std::vector<uint8_t> bytes;
    double checksum = 0;
};

struct Pending
{
    std::future<svc::Response> future;
    uint64_t due = 0;
    uint64_t loadStart = 0;
    uint64_t submitStart = 0;
    uint64_t submitEnd = 0;
    size_t kernel = 0;
    size_t tenant = 0;
};

/** Everything measured at one offered rate, in one run of it or merged
 * over several. */
struct RateResult
{
    std::vector<double> latencyMs; ///< from due time
    std::vector<double> lateUs;
    std::vector<double> queueUs;
    std::vector<std::vector<double>> execUs; ///< per tenant
    uint64_t requests = 0;
    uint64_t warm = 0;
    uint64_t rejected = 0;
    uint64_t cacheHits = 0;
    /** One window's last tenth of requests queued past the limit. */
    bool backlog = false;

    void merge(const RateResult& other)
    {
        auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(latencyMs, other.latencyMs);
        append(lateUs, other.lateUs);
        append(queueUs, other.queueUs);
        execUs.resize(other.execUs.size());
        for (size_t t = 0; t < execUs.size(); t++)
            append(execUs[t], other.execUs[t]);
        requests += other.requests;
        warm += other.warm;
        rejected += other.rejected;
        cacheHits += other.cacheHits;
    }
};

int64_t
signedDelta(uint64_t later, uint64_t earlier)
{
    return int64_t(later - earlier);
}

/**
 * Highest offered rate that meets the limit, interpolated on log p99
 * between the last rate that meets it and the first that does not, so
 * the figure moves smoothly instead of jumping a whole rung. @p p99 holds
 * each rate's p99 estimate, in the order of @p offered.
 */
double
capacity(const std::vector<double>& offered, std::vector<double> p99)
{
    for (double& v : p99)
        v = std::max(v, 1e-6);
    for (size_t i = 0; i < offered.size(); i++) {
        if (p99[i] <= kP99LimitMs)
            continue;
        if (i == 0)
            return offered[0] * kP99LimitMs / p99[0];
        double lo = std::log(p99[i - 1]);
        double hi = std::log(p99[i]);
        double frac = (std::log(kP99LimitMs) - lo) / (hi - lo);
        return offered[i - 1] +
               std::clamp(frac, 0.0, 1.0) * (offered[i] - offered[i - 1]);
    }
    return offered.back();
}

class ServePhase : public Phase
{
  public:
    explicit ServePhase(const PhaseContext& ctx)
        : ctx_(ctx), rng_(ctx.options.seed * 0x2545f4914f6cdd1dull + 7)
    {
        offered_.push_back(kFixedRate);
        offered_.insert(offered_.end(), kLadder.begin(), kLadder.end());
        rates_.resize(offered_.size());
        windowP99_.resize(offered_.size());
    }

    bool setUp() override;

    /** The fixed rate, then the whole ladder: a host stall can push one
     * window's p99 past the limit at any rate, so a missed limit does not
     * end the climb; only a backlog does. */
    void
    measure(double seconds) override
    {
        // The generator keeps the CPU the workers leave free.
        pinThreadToCpu(onlineCpuCount() - 1);
        bool backlog = false;
        double p99 = 0;
        for (size_t i = 0; i < offered_.size(); i++) {
            // A rate above one that built a backlog would queue deeper
            // still: it is not offered, and counts with the p99 it would
            // exceed.
            if (!backlog) {
                bool fixed = i == 0;
                obs::MetricsSnapshot before = obs::snapshotMetrics();
                RateResult r = offer(offered_[i],
                                     fixed ? seconds : seconds * kRungShare);
                if (fixed) {
                    accumulateRegistry(before, obs::snapshotMetrics());
                    windowP50_.push_back(quantile(r.latencyMs, 0.5));
                }
                backlog = r.backlog;
                p99 = quantile(r.latencyMs, 0.99);
                rates_[i].merge(r);
            }
            windowP99_[i].push_back(p99);
        }
    }

    PhaseOutput finish() override;

  private:
    RateResult offer(double rate, double seconds);
    void accumulateRegistry(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after);

    const PhaseContext& ctx_;
    Rng rng_;
    std::vector<Tenant> tenants_;
    std::vector<ServeKernel> kernels_;
    std::unique_ptr<svc::ExecutionService> service_;
    /** The fixed rate, then the ladder. */
    std::vector<double> offered_;
    /** Per offered rate, merged over slices. */
    std::vector<RateResult> rates_;
    /** One per slice: the fixed-rate window's p50; per offered rate, each
     * window's p99. */
    std::vector<double> windowP50_;
    std::vector<std::vector<double>> windowP99_;
    uint64_t nextRequest_ = 0;

    /** Registry deltas over the fixed-rate segments. */
    struct
    {
        double acquireWarmNs = 0, resetNs = 0, restoreNs = 0;
        uint64_t acquireWarm = 0, resets = 0, restores = 0;
        uint64_t faults = 0, resetSyscalls = 0, snapshotRestores = 0;
    } registry_;
};

bool
ServePhase::setUp()
{
    svc::SvcConfig config;
    config.workers = kWorkers;
    // Deep enough that the top ladder rung never rejects: overload shows
    // as latency, not as failed requests.
    config.queueDepth = 1u << 16;
    config.pinWorkers = true;
    service_ = std::make_unique<svc::ExecutionService>(config);
    for (mem::BoundsStrategy strategy : allStrategies()) {
        Tenant tenant;
        tenant.strategy = strategy;
        tenant.config.kind = rt::EngineKind::jit_opt;
        tenant.config.strategy = strategy;
        tenants_.push_back(tenant);
    }
    for (const char* name : kServeKernels) {
        const kernels::Kernel* kernel = kernels::findKernel(name);
        if (kernel == nullptr)
            return false;
        ServeKernel k;
        k.bytes = wasm::encodeModule(kernel->buildModule(kServeScale));
        k.checksum = kernel->native(kServeScale);
        kernels_.push_back(std::move(k));
    }
    // Compile every module and warm one pooled instance per worker, so
    // measured requests find a cache hit and a recycled instance.
    std::vector<std::future<svc::Response>> warm;
    std::vector<double> expected;
    for (const ServeKernel& k : kernels_) {
        for (const Tenant& tenant : tenants_) {
            auto module = service_->loadModule(k.bytes, tenant.config);
            if (!module.isOk()) {
                std::fprintf(stderr, "serve: compile failed: %s\n",
                             module.status().toString().c_str());
                return false;
            }
            for (int i = 0; i < kWorkers; i++) {
                svc::Request request;
                request.tenant = mem::boundsStrategyName(tenant.strategy);
                request.module = module.value();
                auto submitted = service_->submit(std::move(request));
                if (!submitted.isOk())
                    return false;
                warm.push_back(submitted.takeValue());
                expected.push_back(k.checksum);
            }
        }
    }
    for (size_t i = 0; i < warm.size(); i++)
        ctx_.checker.check(warm[i].get().outcome, expected[i]);
    return true;
}

RateResult
ServePhase::offer(double rate, double seconds)
{
    RateResult out;
    out.execUs.resize(tenants_.size());
    uint64_t count = std::max<uint64_t>(uint64_t(rate * seconds), 1);
    double interval_ns = 1e9 / rate;
    std::vector<Pending> pending;
    pending.reserve(count);
    uint64_t start = monotonicNanos() + 1'000'000;
    for (uint64_t i = 0; i < count; i++) {
        uint64_t due = start + uint64_t(double(i) * interval_ns);
        // A signal (the profiler's, in a traced run) can end a sleep
        // early; a request is never sent before it is due.
        for (uint64_t now = monotonicNanos(); now < due;
             now = monotonicNanos())
            sleepNanos(due - now);
        Pending p;
        p.due = due;
        p.kernel = rng_.nextBelow(kernels_.size());
        p.tenant = rng_.nextBelow(tenants_.size());
        const Tenant& tenant = tenants_[p.tenant];
        p.loadStart = monotonicNanos();
        bool hit = false;
        auto module = service_->loadModule(kernels_[p.kernel].bytes,
                                           tenant.config, &hit);
        out.cacheHits += hit ? 1 : 0;
        p.submitStart = monotonicNanos();
        out.lateUs.push_back(double(signedDelta(p.loadStart, due)) * 1e-3);
        if (!module.isOk()) {
            ctx_.checker.reject();
            out.rejected++;
            continue;
        }
        svc::Request request;
        request.tenant = mem::boundsStrategyName(tenant.strategy);
        request.module = module.takeValue();
        auto submitted = service_->submit(std::move(request));
        p.submitEnd = monotonicNanos();
        if (!submitted.isOk()) {
            ctx_.checker.reject();
            out.rejected++;
            continue;
        }
        p.future = submitted.takeValue();
        pending.push_back(std::move(p));
    }
    for (Pending& p : pending) {
        svc::Response response = p.future.get();
        out.requests++;
        ctx_.checker.check(response.outcome, kernels_[p.kernel].checksum);
        // submit() stamps the enqueue time between submitStart and
        // submitEnd; the service reports queueing and execution from
        // there.
        uint64_t picked = p.submitStart + response.queueNanos;
        uint64_t done = picked + response.execNanos;
        out.latencyMs.push_back(double(signedDelta(done, p.due)) * 1e-6);
        out.queueUs.push_back(double(response.queueNanos) * 1e-3);
        out.execUs[p.tenant].push_back(double(response.execNanos) * 1e-3);
        out.warm += response.warmInstance ? 1 : 0;
        if (ctx_.tracer.on()) {
            uint64_t id = nextRequest_++;
            uint64_t end = std::max(done, p.submitEnd);
            uint32_t root =
                ctx_.tracer.add("serve.request", id, p.due, end);
            ctx_.tracer.add("serve.load", id, p.loadStart, p.submitStart,
                            root);
            ctx_.tracer.add("serve.submit", id, p.submitStart, p.submitEnd,
                            root);
            uint64_t exec_start = std::max(picked, p.submitEnd);
            ctx_.tracer.add("serve.queue", id, p.submitEnd, exec_start,
                            root);
            ctx_.tracer.add("serve.exec", id, exec_start, end, root);
        }
    }
    if (!out.latencyMs.empty()) {
        std::vector<double> tail(
            out.latencyMs.end() - ptrdiff_t(out.latencyMs.size() / 10 + 1),
            out.latencyMs.end());
        out.backlog = quantile(tail, 0.5) > kP99LimitMs;
    }
    return out;
}

void
ServePhase::accumulateRegistry(const obs::MetricsSnapshot& before,
                               const obs::MetricsSnapshot& after)
{
    uint64_t n = 0;
    registry_.acquireWarmNs +=
        histogramDeltaMean(before, after, "svc.acquire_warm_ns", &n) *
        double(n);
    registry_.acquireWarm += n;
    registry_.resetNs +=
        histogramDeltaMean(before, after, "mem.reset_ns", &n) * double(n);
    registry_.resets += n;
    registry_.restoreNs +=
        histogramDeltaMean(before, after, "mem.restore_ns", &n) * double(n);
    registry_.restores += n;
    registry_.faults += counterDelta(before, after, "mem.faults_resolved");
    registry_.resetSyscalls +=
        counterDelta(before, after, "mem.reset_syscalls");
    registry_.snapshotRestores +=
        counterDelta(before, after, "rt.snapshot_restores");
}

PhaseOutput
ServePhase::finish()
{
    PhaseOutput out;
    // The fast-state estimate over the slices: the lower quartile of the
    // windows' latency percentiles, at every offered rate.
    const RateResult& fixed = rates_[0];
    std::vector<double> p99;
    for (const std::vector<double>& windows : windowP99_)
        p99.push_back(fastStateEstimate(windows));
    out.endToEnd["serve_p50_ms"] = {fastStateEstimate(windowP50_), "ms"};
    out.endToEnd["serve_p99_ms"] = {p99[0], "ms"};
    out.endToEnd["serve_capacity_rps"] = {capacity(offered_, p99), "req/s"};
    if (!ctx_.tracer.on())
        return out;

    Metrics& layer = out.perLayer;
    auto per = [](double total, uint64_t n) {
        return n > 0 ? total / double(n) : 0;
    };
    uint64_t n = fixed.requests;
    layer["svc.queue_p99_us"] = {quantile(fixed.queueUs, 0.99), "us"};
    layer["svc.acquire_warm_us"] = {
        per(registry_.acquireWarmNs, registry_.acquireWarm) * 1e-3, "us"};
    for (size_t t = 0; t < tenants_.size(); t++) {
        layer[std::string("svc.exec_p50_us.") +
              mem::boundsStrategyName(tenants_[t].strategy)] = {
            quantile(fixed.execUs[t], 0.5), "us"};
    }
    layer["svc.warm_frac"] = {per(double(fixed.warm), n), "ratio"};
    uint64_t attempted = 0;
    uint64_t rejected = 0;
    uint64_t hits = 0;
    for (const RateResult& r : rates_) {
        attempted += r.requests + r.rejected;
        rejected += r.rejected;
        hits += r.cacheHits;
    }
    layer["svc.reject_frac"] = {per(double(rejected), attempted), "ratio"};
    layer["svc.cache_hit_frac"] = {per(double(hits), attempted), "ratio"};
    layer["gen.late_p99_us"] = {quantile(fixed.lateUs, 0.99), "us"};
    layer["mem.reset_us"] = {per(registry_.resetNs, registry_.resets) * 1e-3,
                             "us"};
    layer["mem.restore_us"] = {
        per(registry_.restoreNs, registry_.restores) * 1e-3, "us"};
    layer["mem.faults_per_req"] = {per(double(registry_.faults), n),
                                   "count"};
    layer["mem.reset_syscalls_per_req"] = {
        per(double(registry_.resetSyscalls), n), "count"};
    layer["rt.snapshot_restores_per_req"] = {
        per(double(registry_.snapshotRestores), n), "count"};
    return out;
}

} // namespace

std::unique_ptr<Phase>
makeServe(const PhaseContext& ctx)
{
    return std::make_unique<ServePhase>(ctx);
}

} // namespace lnb::perfbench
