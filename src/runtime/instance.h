/**
 * @file
 * Instance: the per-tenant execution state for one CompiledModule — linear
 * memory (with the engine's bounds strategy), globals, funcref table, host
 * bindings and a value stack.
 *
 * Instances are cheap relative to compilation, which is what makes the
 * paper's serverless scenario (§1/§7: "quickly scale up serverless
 * instances for a single function") sensitive to the memory-creation and
 * grow paths: one CompiledModule, many short-lived Instances on many
 * threads.
 *
 * Threading model: a CompiledModule is immutable and thread-shareable; an
 * Instance must be used by one thread at a time.
 */
#ifndef LNB_RUNTIME_INSTANCE_H
#define LNB_RUNTIME_INSTANCE_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/engine.h"

namespace lnb::rt {

/** Host functions offered to a module's imports. */
class ImportMap
{
  public:
    struct Entry
    {
        std::string module;
        std::string name;
        wasm::FuncType type;
        exec::HostFn fn = nullptr;
        void* user = nullptr;
    };

    void
    add(std::string module, std::string name, wasm::FuncType type,
        exec::HostFn fn, void* user = nullptr)
    {
        entries_.push_back(
            {std::move(module), std::move(name), std::move(type), fn, user});
    }

    const Entry* find(const std::string& module,
                      const std::string& name) const;

    const std::vector<Entry>& entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** Result of invoking a wasm function. */
struct CallOutcome
{
    wasm::TrapKind trap = wasm::TrapKind::none;
    std::vector<wasm::Value> results;

    bool ok() const { return trap == wasm::TrapKind::none; }
};

class Instance
{
  public:
    /**
     * Instantiate @p module: allocate memory/table/globals, bind imports,
     * apply element and data segments, and run the start function.
     *
     * When @p shared_memory is non-null the instance executes against
     * that existing (shared) memory instead of allocating its own — the
     * wasm-threads sibling-agent path (runtime/threads.h): globals and
     * tables are still per-instance, but data segments are NOT re-applied
     * (the memory's creating instance did; re-applying would clobber
     * state siblings may already be mutating). The memory must be shared
     * and use the engine's bounds strategy.
     */
    static Result<std::unique_ptr<Instance>>
    create(std::shared_ptr<const CompiledModule> module,
           ImportMap imports = {},
           std::shared_ptr<mem::LinearMemory> shared_memory = nullptr);

    ~Instance();
    Instance(const Instance&) = delete;
    Instance& operator=(const Instance&) = delete;

    /**
     * Return this instance to its freshly-instantiated state without
     * tearing down its memory reservation: linear memory is reset through
     * LinearMemory::reset() (zeroed, back to initial size), globals and
     * tables are re-initialized, data segments re-applied and the start
     * function re-run. This is the instance-pool recycling path (src/svc):
     * it must be observably equivalent to Instance::create() on the same
     * CompiledModule, minus the mmap/munmap cycle. An instance that has
     * adopted the module's snapshot template restores from it instead;
     * a recycle that re-runs the start counts as a full initialization
     * toward capturing one (DESIGN.md §14).
     *
     * On error the instance is left in an unspecified state and must be
     * destroyed, not reused.
     */
    Status recycle();

    /**
     * Ask the instance to stop: the next epoch check (loop back edge or
     * function entry, interpreted or JIT) raises @p kind as a clean-unwind
     * trap, and a thread parked in `memory.atomic.wait` is woken to do the
     * same. JIT code sees the kill because the request makes the poll
     * page below the context unreadable (one mprotect). Safe to call from
     * any thread while another thread executes in the instance — this is
     * the deadline-reaper / shutdown kill path.
     * One-shot: the first request wins until the trap is delivered (or the
     * instance is recycled), so a delivered `deadline_exceeded` cannot be
     * overwritten into a plain `interrupted` mid-unwind. Propagates to
     * registered children (spawnThreads siblings). Idle instances simply
     * deliver the trap on their next call's first epoch check — callers
     * that hand an instance back to a pool clear the request by recycling.
     */
    void interrupt(wasm::TrapKind kind = wasm::TrapKind::interrupted);

    /**
     * Register/unregister a child instance (a spawnThreads sibling
     * executing on another thread) so interrupt() fans out to it. If an
     * interrupt is already pending at registration it propagates
     * immediately — a kill racing sibling creation cannot be lost.
     */
    void addChild(Instance* child);
    void removeChild(Instance* child);

    /** Invoke any function by index (defined or imported). */
    CallOutcome call(uint32_t func_idx,
                     const std::vector<wasm::Value>& args);

    /** Invoke an exported function by name. */
    CallOutcome callExport(const std::string& name,
                           const std::vector<wasm::Value>& args);

    /** Index of a function export; error if absent. */
    Result<uint32_t> exportedFunc(const std::string& name) const;

    const CompiledModule& module() const { return *module_; }
    /** Co-owning handle to the module, for instantiating siblings. */
    std::shared_ptr<const CompiledModule> moduleShared() const
    {
        return module_;
    }
    exec::InstanceContext& context() { return *ctx_; }
    mem::LinearMemory* memory() { return memory_.get(); }
    /** Co-owning handle to the linear memory, for sharing with sibling
     * instances (see the shared_memory parameter of create()). */
    std::shared_ptr<mem::LinearMemory> memoryShared() const
    {
        return memory_;
    }

    /** Runtime blocking events (paper Fig. 5 substitute). */
    uint64_t blockingEvents() const { return ctx_->blockingEvents; }

    /** Dynamically retired software bounds checks: JIT code counts under
     * EngineConfig::countRetiredChecks, interpreters only atomics. */
    uint64_t checksRetired() const { return ctx_->checksRetired; }

    /** Versioned-loop guard failures (slow-path clone entries). */
    uint64_t guardFallbacks() const { return ctx_->guardFallbacks; }

  private:
    Instance() = default;
    Status initialize(ImportMap imports,
                      std::shared_ptr<mem::LinearMemory> shared_memory);
    /** Shared by initialize()/recycle(): globals, element and data
     * segments, value-stack reset, start function. */
    Status initMutableState();
    /** Reset the per-call execution state (interrupt flag, value-stack
     * top, counters, hotness) — the tail both initMutableState() and the
     * snapshot-restore path run. */
    void resetExecState();
    /** Clear the interrupt flag and restart the interpreter countdown;
     * when the flag was set, make the poll page readable again. */
    void clearInterrupt();
    /** Copy a published SnapshotState's globals/table into this
     * instance's existing storage (ctx_ pointers stay valid) and reset
     * execution state. The memory template must already be adopted /
     * restored by the caller. */
    Status applySnapshotState(const SnapshotState& snap);
    /** Snapshot capture and restore apply: snapshots are on, the memory
     * is private, the start is pure, and capture was never refused. */
    bool snapshotEligible() const;
    /** After a full initialization: from the module's second one on,
     * capture this instance's state as the module's snapshot template
     * (first caller wins) and adopt the published template so recycle()
     * takes the restore path. Refusals are recorded on the module and
     * are not errors. */
    void captureSnapshotOnReuse();

    std::shared_ptr<const CompiledModule> module_;
    std::shared_ptr<mem::LinearMemory> memory_;
    /** Memory was adopted from a sibling (create() shared_memory path):
     * data segments are skipped and recycling is refused. */
    bool externalMemory_ = false;
    std::vector<wasm::Value> globals_;
    std::vector<exec::TableEntry> table_;
    std::vector<exec::HostFuncBinding> hostBindings_;
    /** One MAP_NORESERVE mapping, unmapped in the destructor: the epoch
     * poll page (mem::kPollPageBytes), then the context, page-aligned,
     * then the value stack. */
    void* mapping_ = nullptr;
    size_t mappingBytes_ = 0;
    /** Per-instance hotness accumulators (tiered modules only); zeroed
     * on create and on every recycle so pool reuse cannot inherit a
     * previous tenant's profile. */
    std::unique_ptr<uint32_t[]> funcHotness_;
    ImportMap imports_;
    /** spawnThreads siblings interrupt() fans out to; guarded by
     * childrenMutex_ (interrupt() may run on any thread). */
    std::mutex childrenMutex_;
    std::vector<Instance*> children_;
    /** Lives in mapping_, one page in; set before any context field. */
    exec::InstanceContext* ctx_ = nullptr;
};

} // namespace lnb::rt

#endif // LNB_RUNTIME_INSTANCE_H
