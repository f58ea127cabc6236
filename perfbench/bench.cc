#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/sysinfo.h"

namespace lnb::perfbench {

namespace {

const kernels::Kernel*
kernel(const char* name)
{
    return kernels::findKernel(name);
}

} // namespace

bool
findWorkload(const std::string& name, Workload& out)
{
    // The paper reports Fig. 2 per suite, and every run must report every
    // metric, so the workloads split the kernel population by suite and
    // each run measures steady and cold_start over its suite.
    Workload w;
    if (name == "polybench") {
        w.steady = {
            {kernel("gemm"), 4, 8},       {kernel("2mm"), 4, 8},
            {kernel("3mm"), 4, 8},        {kernel("syrk"), 4, 8},
            {kernel("syr2k"), 4, 8},      {kernel("trmm"), 2, 4},
            {kernel("atax"), 2, 4},       {kernel("bicg"), 2, 4},
            {kernel("mvt"), 2, 4},        {kernel("gesummv"), 1, 2},
            {kernel("gemver"), 2, 4},     {kernel("trisolv"), 1, 2},
            {kernel("durbin"), 1, 2},     {kernel("doitgen"), 8, 16},
            {kernel("jacobi-1d"), 1, 2},  {kernel("jacobi-2d"), 4, 8},
            {kernel("seidel-2d"), 8, 16}, {kernel("fdtd-2d"), 4, 8},
            {kernel("cholesky"), 8, 16},  {kernel("lu"), 8, 16},
            {kernel("floyd-warshall"), 8, 16},
        };
    } else if (name == "specproxy") {
        w.steady = {
            {kernel("mcf_proxy"), 4, 16}, {kernel("namd_proxy"), 2, 4},
            {kernel("lbm_proxy"), 4, 8},  {kernel("nab_proxy"), 4, 8},
            {kernel("x264_proxy"), 4, 8}, {kernel("deepsjeng_proxy"), 1, 2},
            {kernel("xz_proxy"), 4, 16},
        };
    } else {
        return false;
    }
    for (const KernelPlan& plan : w.steady) {
        if (plan.kernel == nullptr)
            return false;
    }
    for (const kernels::Kernel* k : kernels::suiteKernels(name))
        w.cold.push_back(k);
    out = std::move(w);
    return true;
}

bool
Checker::matches(double got, double expected)
{
    checked_++;
    if (corruptEvery_ > 0 && checked_ % corruptEvery_ == 0)
        got = std::nextafter(got, INFINITY);
    if (std::memcmp(&got, &expected, sizeof got) == 0)
        return true;
    mismatches_++;
    return false;
}

bool
Checker::check(const rt::CallOutcome& outcome, double expected)
{
    attempted_++;
    if (!outcome.ok() || outcome.results.size() != 1) {
        traps_++;
        return false;
    }
    return matches(outcome.results[0].f64, expected);
}

bool
Checker::checkNative(double got, double expected)
{
    attempted_++;
    return matches(got, expected);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

void
rotateCpu(uint64_t step)
{
    pinThreadToCpu(int(step % uint64_t(onlineCpuCount())));
}

uint64_t
counterDelta(const obs::MetricsSnapshot& before,
             const obs::MetricsSnapshot& after, const char* name)
{
    uint64_t a = after.counter(name);
    uint64_t b = before.counter(name);
    return a > b ? a - b : 0;
}

double
histogramDeltaMean(const obs::MetricsSnapshot& before,
                   const obs::MetricsSnapshot& after, const char* name,
                   uint64_t* count)
{
    const obs::HistogramSnapshot* a = after.histogram(name);
    const obs::HistogramSnapshot* b = before.histogram(name);
    uint64_t n = 0;
    uint64_t sum = 0;
    if (a != nullptr) {
        n = a->totalCount - (b != nullptr ? b->totalCount : 0);
        sum = a->sum - (b != nullptr ? b->sum : 0);
    }
    if (count != nullptr)
        *count = n;
    return n > 0 ? double(sum) / double(n) : 0;
}

uint32_t
Tracer::add(const char* name, uint64_t request, uint64_t start_ns,
            uint64_t end_ns, uint32_t parent)
{
    if (!on_)
        return kNoParent;
    spans_.push_back({name, request, start_ns, end_ns, parent});
    return uint32_t(spans_.size() - 1);
}

std::map<std::string, double>
Tracer::meanSelfMicros() const
{
    // Children are recorded after their parent, so one pass subtracts
    // each child's duration (clipped to its parent) from the parent.
    std::vector<double> self_ns(spans_.size());
    for (size_t i = 0; i < spans_.size(); i++)
        self_ns[i] = double(spans_[i].end - spans_[i].start);
    for (const Span& span : spans_) {
        if (span.parent == kNoParent)
            continue;
        const Span& parent = spans_[span.parent];
        uint64_t start = std::max(span.start, parent.start);
        uint64_t end = std::min(span.end, parent.end);
        if (end > start)
            self_ns[span.parent] -= double(end - start);
    }
    std::map<std::string, std::pair<double, uint64_t>> sums;
    for (size_t i = 0; i < spans_.size(); i++) {
        auto& [total, count] = sums[spans_[i].name];
        total += std::max(self_ns[i], 0.0);
        count++;
    }
    std::map<std::string, double> out;
    for (const auto& [name, sum] : sums)
        out[name] = sum.first / double(sum.second) * 1e-3;
    return out;
}

bool
Tracer::write(const std::string& path, size_t max_spans) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    for (const Span& span : spans_)
        origin = std::min(origin, span.start);
    std::fputs("{\"traceEvents\":[\n", f);
    size_t n = std::min(spans_.size(), max_spans);
    for (size_t i = 0; i < n; i++) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%lld}}\n",
                     i == 0 ? "" : ",", s.name,
                     (unsigned long long)s.request,
                     double(s.start - origin) * 1e-3,
                     double(s.end - s.start) * 1e-3, i,
                     s.parent == kNoParent ? -1LL : (long long)s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

const char*
engineLabel(rt::EngineKind kind)
{
    switch (kind) {
      case rt::EngineKind::interp_switch: return "interp_switch";
      case rt::EngineKind::interp_threaded: return "interp_threaded";
      case rt::EngineKind::jit_base: return "jit_base";
      case rt::EngineKind::jit_opt: return "jit_opt";
    }
    return "?";
}

const std::vector<mem::BoundsStrategy>&
allStrategies()
{
    static const std::vector<mem::BoundsStrategy> strategies = {
        mem::BoundsStrategy::none, mem::BoundsStrategy::clamp,
        mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
        mem::BoundsStrategy::uffd};
    return strategies;
}

} // namespace lnb::perfbench
