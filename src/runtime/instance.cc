#include "runtime/instance.h"

#include <pthread.h>
#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <memory>

#include "mem/signals.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/waitlist.h"
#include "support/env.h"

namespace lnb::rt {

namespace {

/** Lifecycle probes; invoke() is on benchmark iteration paths, so it
 * gets exactly one counter bump and one (predicted-off) trace check. */
struct RtMetrics
{
    obs::Counter instancesCreated = obs::registerCounter(
        "rt.instances_created");
    obs::Counter instancesRecycled = obs::registerCounter(
        "rt.instances_recycled");
    obs::Counter invocations = obs::registerCounter("rt.invocations");
    obs::Counter trapsReturned = obs::registerCounter(
        "rt.traps_returned");
    /** Per-tier top-level call counts (the tier the entry function had
     * when the call dispatched; interior calls are not attributed). */
    obs::Counter callsInterp = obs::registerCounter("tier.calls_interp");
    obs::Counter callsJit = obs::registerCounter("tier.calls_jit");
    obs::Counter callsHost = obs::registerCounter("tier.calls_host");
    /** Versioned-loop guard failures, folded in from the per-instance
     * context after each top-level call (runtime-side counterpart of the
     * compile-time opt.* counters in wasm/opt.cc). */
    obs::Counter guardFallbacks = obs::registerCounter(
        "opt.guard_fallbacks");
    /** Preemption: interrupt() calls, traps actually delivered by an
     * epoch check / wait wake, and parked waiters woken by a kill. */
    obs::Counter interruptsRequested = obs::registerCounter(
        "rt.interrupts_requested");
    obs::Counter interruptsDelivered = obs::registerCounter(
        "rt.interrupts_delivered");
    obs::Counter interruptWaitWakes = obs::registerCounter(
        "rt.interrupts_wait_wakes");
    /** Snapshot/restore instantiation (DESIGN.md §14): instances stamped
     * out from a CoW template, and restores that had to zap pages the
     * instance grew past the template. */
    obs::Counter snapshotRestores = obs::registerCounter(
        "rt.snapshot_restores");
    obs::Counter snapshotInvalidations = obs::registerCounter(
        "rt.snapshot_invalidations");
};

RtMetrics&
rtMetrics()
{
    static RtMetrics m;
    return m;
}

/**
 * Lowest stack address generated code may still use on this thread, with
 * enough headroom for signal handlers and host-call frames. The JIT
 * prologue compares rsp against this (paper: "stack overflow checks" are
 * one of wasm's safety costs).
 */
uint64_t
threadStackLimit()
{
    static thread_local uint64_t cached = [] {
        void* addr = nullptr;
        size_t size = 0;
        pthread_attr_t attr;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
            pthread_attr_getstack(&attr, &addr, &size);
            pthread_attr_destroy(&attr);
        }
        if (addr != nullptr)
            return uint64_t(addr) + (256u << 10);
        // Unknown stack bounds: assume ~6 MiB below the current frame.
        char probe;
        return uint64_t(&probe) - (6u << 20);
    }();
    return cached;
}

/** LNB_SNAPSHOT=0 disables the snapshot/restore instantiation path and
 * keeps the legacy madvise-zap + re-run-segments recycle. Not part of
 * the code-cache fingerprint: it changes instantiation, not codegen. */
bool
snapshotEnabled()
{
    static const bool enabled = envInt("LNB_SNAPSHOT", 1, 0, 1) != 0;
    return enabled;
}

} // namespace

const ImportMap::Entry*
ImportMap::find(const std::string& module, const std::string& name) const
{
    for (const Entry& entry : entries_) {
        if (entry.module == module && entry.name == name)
            return &entry;
    }
    return nullptr;
}

Result<std::unique_ptr<Instance>>
Instance::create(std::shared_ptr<const CompiledModule> module,
                 ImportMap imports,
                 std::shared_ptr<mem::LinearMemory> shared_memory)
{
    auto inst = std::unique_ptr<Instance>(new Instance());
    inst->module_ = std::move(module);
    LNB_RETURN_IF_ERROR(
        inst->initialize(std::move(imports), std::move(shared_memory)));
    return inst;
}

Instance::~Instance()
{
    if (mapping_ != nullptr) {
        std::destroy_at(ctx_);
        munmap(mapping_, mappingBytes_);
    }
}

Status
Instance::initialize(ImportMap imports,
                     std::shared_ptr<mem::LinearMemory> shared_memory)
{
    LNB_TRACE_SCOPE("rt.instantiate");
    rtMetrics().instancesCreated.add();
    const wasm::Module& m = module_->lowered().module;
    const EngineConfig& config = module_->config();
    imports_ = std::move(imports);

    mem::TrapManager::install();

    // ----- poll page, context and value stack: one mapping -----
    // Its own mapping, not the heap: glibc raises its mmap threshold to
    // the size of any mmapped chunk that is freed, so freeing one 8 MiB
    // stack would move every later allocation below 8 MiB onto the brk
    // heap, whose freed pages stay resident (DESIGN.md §14). The context
    // starts one page in: JIT code polls for interrupts by loading from
    // the page below it (DESIGN.md §6), which stays readable until
    // interrupt() arms it, and is never written (its reads map the shared
    // zero page). The stack follows the context on the same page, so
    // neither adds a written page or a syscall.
    constexpr size_t kCtxBytes =
        (sizeof(exec::InstanceContext) + 63) & ~size_t(63);
    mappingBytes_ = mem::kPollPageBytes + kCtxBytes +
                    size_t(config.valueStackCells) * sizeof(wasm::Value);
    void* mapping = mmap(nullptr, mappingBytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mapping == MAP_FAILED)
        return errResource("value stack mmap failed");
    mapping_ = mapping;
    auto* ctx_at = static_cast<uint8_t*>(mapping) + mem::kPollPageBytes;
    ctx_ = new (ctx_at) exec::InstanceContext();
    ctx_->vstack = reinterpret_cast<wasm::Value*>(ctx_at + kCtxBytes);
    ctx_->vstackEnd = ctx_->vstack + config.valueStackCells;
    ctx_->maxCallDepth = config.maxCallDepth;
    ctx_->lowered = &module_->lowered();

    // ----- linear memory -----
    if (!m.memories.empty()) {
        if (shared_memory != nullptr) {
            // Sibling-agent path: adopt an existing shared memory.
            if (!shared_memory->shared())
                return errInvalid("instance memory must be shared");
            if (shared_memory->strategy() != config.strategy) {
                return errInvalid(
                    "shared memory bounds strategy mismatch");
            }
            // The opt pass proves loops in bounds against the declared
            // minimum (wasm/opt.h), as import matching requires.
            if (shared_memory->sizeBytes() <
                uint64_t(m.memories[0].min) * wasm::kPageSize) {
                return errInvalid(
                    "shared memory is smaller than the declared minimum");
            }
            memory_ = std::move(shared_memory);
            externalMemory_ = true;
        } else {
            mem::MemoryConfig mc;
            mc.strategy = config.strategy;
            mc.forceUffdEmulation = config.forceUffdEmulation;
            mc.shared = config.sharedMemory || m.memories[0].shared;
            LNB_ASSIGN_OR_RETURN(
                memory_, mem::LinearMemory::create(m.memories[0], mc));
        }
        ctx_->memBase = memory_->base();
        ctx_->memSize = memory_->sizeBytes();
        ctx_->clampOffset = memory_->clampOffset();
        ctx_->memory = memory_.get();
        ctx_->sharedMem = memory_->shared();
    } else if (shared_memory != nullptr) {
        return errInvalid("module has no memory to run against");
    }

    // ----- globals (storage; values set in initMutableState) -----
    globals_.resize(m.globals.size());
    ctx_->globals = globals_.data();

    // ----- host bindings -----
    hostBindings_.resize(m.imports.size());
    for (size_t i = 0; i < m.imports.size(); i++) {
        const wasm::Import& imp = m.imports[i];
        const ImportMap::Entry* entry =
            imports_.find(imp.module, imp.name);
        if (entry == nullptr) {
            return errValidation("unknown import: " + imp.module + "." +
                                 imp.name);
        }
        if (!(entry->type == m.types[imp.typeIdx])) {
            return errValidation("import type mismatch: " + imp.module +
                                 "." + imp.name);
        }
        hostBindings_[i].fn = entry->fn;
        hostBindings_[i].user = entry->user;
        hostBindings_[i].type = &m.types[imp.typeIdx];
    }
    ctx_->hostFuncs = hostBindings_.data();
    ctx_->numHostFuncs = uint32_t(hostBindings_.size());

    // ----- table (storage; entries set in initMutableState) -----
    if (!m.tables.empty()) {
        table_.resize(m.tables[0].min);
        ctx_->table = table_.data();
        ctx_->tableSize = table_.size();
    }

    // ----- preemption -----
    // Epoch checks are on by default (the serving kill path depends on
    // them); LNB_EPOCH_INTERVAL tunes how many interpreter entries/back
    // edges elapse between atomic flag loads. JIT code polls the poll
    // page at every back edge, so the interval only shapes interpreter
    // overhead.
    ctx_->epochInterval =
        config.epochChecks
            ? uint32_t(envInt("LNB_EPOCH_INTERVAL", 128, 1, 1 << 20))
            : 0;

    // ----- per-function code table + tier profiling -----
    ctx_->funcCode = module_->funcCode();
    if (config.tiered) {
        funcHotness_.reset(new uint32_t[module_->numFuncs()]);
        ctx_->funcHotness = funcHotness_.get();
        ctx_->tierThreshold = config.tierThreshold;
        if (TierController* controller = module_->tierController()) {
            ctx_->tierCtl = controller;
            ctx_->tierRequest = &TierController::requestHook;
        }
    }

    // ----- snapshot/restore instantiation (DESIGN.md §14) -----
    // The restore path maps the module's CoW template over the fresh
    // reservation and copies globals/table wholesale — no data segments,
    // no start run.
    const bool eligible = snapshotEligible();
    if (eligible) {
        if (const SnapshotState* snap = module_->snapshot()) {
            LNB_RETURN_IF_ERROR(memory_->adoptSnapshot(snap->memory));
            ctx_->memSize = memory_->sizeBytes();
            LNB_RETURN_IF_ERROR(applySnapshotState(*snap));
            rtMetrics().snapshotRestores.add();
            return Status::ok();
        }
    }
    LNB_RETURN_IF_ERROR(initMutableState());
    if (eligible)
        captureSnapshotOnReuse();
    return Status::ok();
}

bool
Instance::snapshotEligible() const
{
    // The module's start is pure (its effects are fully captured by
    // memory + globals + table), the memory is private to this instance,
    // and nothing has refused capture before.
    return snapshotEnabled() && memory_ != nullptr && !externalMemory_ &&
           !ctx_->sharedMem && module_->startIsPure() &&
           !module_->snapshotRefused();
}

Status
Instance::initMutableState()
{
    const wasm::Module& m = module_->lowered().module;

    // ----- global values -----
    for (size_t i = 0; i < m.globals.size(); i++)
        globals_[i] = m.globals[i].init.constValue();

    // ----- element segments -----
    for (const wasm::ElemSegment& seg : m.elems) {
        uint64_t offset = seg.offset.constValue().i32;
        if (offset + seg.funcs.size() > table_.size())
            return errValidation("element segment out of bounds");
        for (size_t i = 0; i < seg.funcs.size(); i++) {
            uint32_t func_idx = seg.funcs[i];
            exec::TableEntry& entry = table_[offset + i];
            entry.funcIdx = func_idx;
            entry.typeIdx = module_->lowered()
                                .typeCanon[m.funcTypeIdx(func_idx)];
            entry.initialized = 1;
        }
    }

    // ----- data segments -----
    // Skipped for an adopted shared memory: the creating instance
    // applied them, and re-applying would clobber bytes sibling threads
    // may already be mutating concurrently.
    if (!externalMemory_) {
        for (const wasm::DataSegment& seg : m.datas) {
            if (memory_ == nullptr)
                return errValidation("data segment without memory");
            LNB_RETURN_IF_ERROR(memory_->initData(
                seg.offset.constValue().i32, seg.bytes.data(),
                seg.bytes.size()));
        }
    }

    // ----- execution state -----
    resetExecState();

    // ----- start function -----
    if (m.start.has_value()) {
        CallOutcome outcome = call(*m.start, {});
        if (!outcome.ok()) {
            return errInvalid(std::string("start function trapped: ") +
                              wasm::trapKindName(outcome.trap));
        }
    }
    return Status::ok();
}

void
Instance::resetExecState()
{
    // A pending-but-undelivered interrupt dies with the request it
    // targeted: the flag clears before the start function runs so a
    // recycled instance is indistinguishable from a fresh one.
    clearInterrupt();
    ctx_->vstackTop = ctx_->vstack;
    ctx_->callDepth = 0;
    ctx_->blockingEvents = 0;
    ctx_->checksRetired = 0;
    ctx_->guardFallbacks = 0;
    // Fresh profile: a recycled instance must neither inherit hotness
    // toward a spurious tier-up nor suppress one it would have earned.
    if (funcHotness_ != nullptr) {
        std::fill_n(funcHotness_.get(), module_->numFuncs(), 0u);
    }
}

void
Instance::clearInterrupt()
{
    // Only a set flag can have armed the page, so the common path makes
    // no syscall. An arm that lands after this exchange is stale: the
    // poll-fault handler disarms it.
    if (ctx_->interruptFlag.exchange(0, std::memory_order_seq_cst) != 0)
        mem::syncPollPage(ctx_->interruptFlag);
    ctx_->epochCountdown = ctx_->epochInterval != 0 ? ctx_->epochInterval
                                                    : ~0u;
}

Status
Instance::applySnapshotState(const SnapshotState& snap)
{
    // Copy into the existing vectors — ctx_->globals / ctx_->table
    // point at their storage, so reassignment would dangle those mirrors.
    if (snap.globals.size() != globals_.size() ||
        snap.table.size() != table_.size()) {
        return errInternal("snapshot shape does not match module");
    }
    std::copy(snap.globals.begin(), snap.globals.end(), globals_.begin());
    std::copy(snap.table.begin(), snap.table.end(), table_.begin());
    resetExecState();
    return Status::ok();
}

void
Instance::captureSnapshotOnReuse()
{
    // The module's first full initialization stays on plain anonymous
    // memory: a one-shot instance never pays for a template it would
    // throw away. The second one captures.
    if (module_->snapshot() == nullptr) {
        if (!module_->noteFullInit())
            return;
        auto captured = memory_->snapshot();
        if (!captured.isOk()) {
            // Unsupported backing (uffd emulation, empty memory): remember
            // the refusal so later instances skip the attempt; transient
            // resource failures just retry on the next full init.
            if (captured.status().code() == StatusCode::unsupported)
                module_->markSnapshotRefused();
            return;
        }
        auto state = std::make_unique<SnapshotState>();
        state->memory = captured.takeValue();
        state->globals = globals_;
        state->table = table_;
        module_->publishSnapshot(std::move(state));
    }
    // Adopt whatever the module published (ours, or a racing winner's) so
    // this instance's recycle() takes the restore path too. Best-effort:
    // on failure the legacy reset path still works.
    if (const SnapshotState* snap = module_->snapshot())
        (void)memory_->adoptSnapshot(snap->memory);
}

Status
Instance::recycle()
{
    LNB_TRACE_SCOPE("rt.recycle");
    rtMetrics().instancesRecycled.add();
    if (memory_ != nullptr && memory_->shared()) {
        // reset() would refuse anyway (MADV_DONTNEED does not zero a
        // shared mapping); refuse up front with the real reason.
        return errUnsupported("shared-memory instances cannot be recycled");
    }
    // Snapshot fast path: one MADV_DONTNEED reverts dirtied pages to the
    // template, then globals/table are copied back — no data segments,
    // no start re-run (DESIGN.md §14).
    if (snapshotEnabled() && memory_ != nullptr && memory_->hasSnapshot()) {
        if (const SnapshotState* snap = module_->snapshot()) {
            bool grew = false;
            LNB_RETURN_IF_ERROR(memory_->restoreFromSnapshot(&grew));
            if (grew)
                rtMetrics().snapshotInvalidations.add();
            // memBase is stable (same reservation); only the size mirror
            // changes.
            ctx_->memSize = memory_->sizeBytes();
            LNB_RETURN_IF_ERROR(applySnapshotState(*snap));
            rtMetrics().snapshotRestores.add();
            return Status::ok();
        }
    }
    if (memory_ != nullptr) {
        LNB_RETURN_IF_ERROR(memory_->reset());
        ctx_->memSize = memory_->sizeBytes();
    }
    LNB_RETURN_IF_ERROR(initMutableState());
    if (snapshotEligible())
        captureSnapshotOnReuse();
    return Status::ok();
}

void
Instance::interrupt(wasm::TrapKind kind)
{
    if (kind == wasm::TrapKind::none)
        kind = wasm::TrapKind::interrupted;
    rtMetrics().interruptsRequested.add();
    // First request wins: a CAS so a racing second kill cannot change the
    // kind mid-delivery. seq_cst so a parked waiter's check under its
    // bucket lock is ordered against the waitListInterrupt scan below.
    // The winner then arms the poll page JIT code loads from.
    uint32_t expected = 0;
    if (ctx_->interruptFlag.compare_exchange_strong(
            expected, uint32_t(kind), std::memory_order_seq_cst)) {
        mem::syncPollPage(ctx_->interruptFlag);
    }
    // Wake a thread parked in memory.atomic.wait: the flag is visible
    // before the scan, so a waiter either sees it pre-park or is found
    // parked here.
    uint32_t woken = rt::waitListInterrupt(&ctx_->interruptFlag);
    if (woken != 0)
        rtMetrics().interruptWaitWakes.add(woken);
    std::lock_guard<std::mutex> lock(childrenMutex_);
    for (Instance* child : children_)
        child->interrupt(kind);
}

void
Instance::addChild(Instance* child)
{
    bool pending;
    {
        std::lock_guard<std::mutex> lock(childrenMutex_);
        children_.push_back(child);
        pending =
            ctx_->interruptFlag.load(std::memory_order_seq_cst) != 0;
    }
    if (pending) {
        child->interrupt(wasm::TrapKind(
            ctx_->interruptFlag.load(std::memory_order_relaxed)));
    }
}

void
Instance::removeChild(Instance* child)
{
    std::lock_guard<std::mutex> lock(childrenMutex_);
    children_.erase(
        std::remove(children_.begin(), children_.end(), child),
        children_.end());
}

CallOutcome
Instance::call(uint32_t func_idx, const std::vector<wasm::Value>& args)
{
    LNB_TRACE_SCOPE("rt.invoke");
    // Arm the sampler for whichever thread executes wasm, so pure-JIT
    // runs (no instrumented interp entry) are still sampled.
    obs::prof::ensureThreadRegistered();
    rtMetrics().invocations.add();
    const wasm::LoweredModule& lowered = module_->lowered();
    const wasm::FuncType& type = lowered.module.funcType(func_idx);
    assert(args.size() == type.params.size() &&
           "argument count must match the signature");

    CallOutcome outcome;
    // Re-entrant calls (host function calling back into the instance)
    // must not clobber the outer activation's depth accounting; a trap
    // unwinds past interpreter decrements, so restore rather than reset.
    uint32_t saved_depth = ctx_->callDepth;
    wasm::Value* saved_top = ctx_->vstackTop;
    ctx_->nativeStackLimit = threadStackLimit();
    wasm::Value* frame = ctx_->vstackTop;
    if (frame + type.params.size() > ctx_->vstackEnd) {
        outcome.trap = wasm::TrapKind::stack_overflow;
        return outcome;
    }
    for (size_t i = 0; i < args.size(); i++)
        frame[i] = args[i];

    // Unified dispatch: every function — imported, interpreted or JIT
    // compiled — is entered through its code-table slot. The acquire load
    // pairs with the background compiler's release publication, so a
    // mid-run tier-up is picked up on the next call.
    exec::FuncCode& fc = module_->funcCode()[func_idx];
    switch (exec::Tier(fc.tier.load(std::memory_order_relaxed))) {
      case exec::Tier::host: rtMetrics().callsHost.add(); break;
      case exec::Tier::jit: rtMetrics().callsJit.add(); break;
      default: rtMetrics().callsInterp.add(); break;
    }
    uint64_t fallbacks_before = ctx_->guardFallbacks;
    outcome.trap = mem::TrapManager::protect([&] {
        fc.entry.load(std::memory_order_acquire)(ctx_, frame, func_idx);
    });

    ctx_->callDepth = saved_depth;
    ctx_->vstackTop = saved_top;
    if (ctx_->guardFallbacks != fallbacks_before)
        rtMetrics().guardFallbacks.add(ctx_->guardFallbacks -
                                       fallbacks_before);

    if (outcome.trap == wasm::TrapKind::interrupted ||
        outcome.trap == wasm::TrapKind::deadline_exceeded) {
        // Delivered: the kill consumed its request. Re-arm so the next
        // call on this (possibly pooled) instance starts clean even if
        // the caller skips a recycle.
        rtMetrics().interruptsDelivered.add();
        clearInterrupt();
    }
    if (!outcome.ok())
        rtMetrics().trapsReturned.add();
    if (outcome.ok()) {
        for (size_t i = 0; i < type.results.size(); i++) {
            // A 32-bit result fills the low half of its cell; the high
            // half holds whatever an earlier wider write left there.
            // Zero it so every engine returns the same bits.
            wasm::Value v = frame[i];
            if (type.results[i] == wasm::ValType::i32 ||
                type.results[i] == wasm::ValType::f32)
                v.i64 = v.i32;
            outcome.results.push_back(v);
        }
    }
    return outcome;
}

CallOutcome
Instance::callExport(const std::string& name,
                     const std::vector<wasm::Value>& args)
{
    Result<uint32_t> func_idx = exportedFunc(name);
    if (!func_idx.isOk()) {
        CallOutcome outcome;
        outcome.trap = wasm::TrapKind::host_error;
        return outcome;
    }
    return call(func_idx.value(), args);
}

Result<uint32_t>
Instance::exportedFunc(const std::string& name) const
{
    auto idx = module_->lowered().module.findExport(
        name, wasm::ExternKind::func);
    if (!idx.has_value())
        return errInvalid("no exported function named " + name);
    return *idx;
}

} // namespace lnb::rt
