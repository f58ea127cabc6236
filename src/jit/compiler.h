/**
 * @file
 * Public interface of the x86-64 JIT.
 *
 * The JIT compiles a LoweredModule into native code with the same frame
 * convention as the interpreters (args preloaded at cells 0..numParams of a
 * frame inside the instance's value stack; results left at cell 0), so the
 * runtime can call any engine's output through one entry signature.
 *
 * Bounds-check emission is a compile-time strategy:
 *   none / mprotect / uffd -> no inline checks (guard-page reliance)
 *   clamp                  -> compare + cmov to the red-zone offset
 *   trap                   -> compare + branch to a ud2 island
 * Both software strategies skip the check at every pc the opt pass
 * lists (LoweredFunc::elidableCheckPcs): under trap, checks covered by
 * an earlier one or by a loop guard; under clamp, loop-guarded ones only.
 */
#ifndef LNB_JIT_COMPILER_H
#define LNB_JIT_COMPILER_H

#include <memory>
#include <string>

#include "interp/exec_common.h"
#include "mem/linear_memory.h"
#include "obs/profiler.h"
#include "support/status.h"
#include "wasm/lower.h"
#include "wasm/serialize.h"

namespace lnb::jit {

/** Codegen options. */
struct JitOptions
{
    mem::BoundsStrategy strategy = mem::BoundsStrategy::mprotect;
    /**
     * Profiler tier tag (obs::kProfTierJitBase / kProfTierJitOpt) stamped
     * on the artifact's code map. A label only: jit_base and jit_opt are
     * one codegen fed different IR. Both work on the operands' register
     * homes and compile the register forms the opt pass's rewrite emits.
     * A function whose IR sets LoweredFunc::memBasePinned (jit_opt's,
     * under every strategy) keeps the memory base in r11 and addresses
     * every access off it; jit_base IR never pins, so its accesses add
     * the base from the context. Under `trap` and `clamp` both skip
     * exactly the checks listed in LoweredFunc::elidableCheckPcs, which
     * only jit_opt's check analysis fills.
     */
    uint8_t profTier = obs::kProfTierJitBase;
    /**
     * Emit an InstanceContext::checksRetired increment in front of every
     * software bounds check (trap compare or clamp redirect) so retired
     * dynamic check counts can be compared across optimization ablations.
     * Off by default: the extra load/store pollutes steady-state timings.
     */
    bool countChecks = false;
    /**
     * The module's per-function code table (required). Every callf and
     * call_indirect is an indirect call through it (load the callee's
     * current entry, pass the function index in edx), so a callee can
     * be tiered up mid-run underneath a running caller.
     */
    exec::FuncCode* codeTable = nullptr;
    /**
     * The module executes against a shared linear memory: memory.size
     * becomes a native call that refreshes the context's size mirror from
     * the memory's authoritative atomic size word (a synchronization
     * point, like the atomic ops, which always refresh via their glue).
     */
    bool sharedMemory = false;
    /**
     * Emit epoch interrupt polls at the function entry and at every
     * label that is the target of a backward jump (loop headers): one
     * 3-byte `cmp eax, [rbp-0x40]` that reads the poll page below the
     * InstanceContext. Instance::interrupt() makes that page unreadable,
     * and the SIGSEGV handler raises the requested clean-unwind trap
     * (mem/signals.h) — no branch, no island, no register written.
     */
    bool epochChecks = true;
};

/** The executable artifact for one module. Immutable and thread-shareable:
 * many instances on many threads run the same code. */
class CompiledCode
{
  public:
    /**
     * The unified cross-tier entry signature (exec_common.h). Generated
     * code takes (ctx, frame) in rdi/rsi and ignores the func_idx in edx,
     * so a JIT entry is directly publishable into a FuncCode slot.
     */
    using EntryFn = exec::EntryFn;

    virtual ~CompiledCode() = default;

    /** Entry point of defined function index @p func_idx (module-wide
     * function index space). */
    virtual EntryFn entry(uint32_t func_idx) const = 0;

    /** Total bytes of generated machine code. */
    virtual size_t codeBytes() const = 0;

    /** The codeBytes() bytes of generated code, every function in
     * order. */
    virtual const uint8_t* codeData() const = 0;

    /** Hex dump of one function's code (debugging aid). */
    virtual std::string dumpFunction(uint32_t func_idx) const = 0;
};

/** Compile every defined function of @p module; @p options.codeTable
 * must be set. */
Result<std::unique_ptr<CompiledCode>>
compileModule(const wasm::LoweredModule& module, const JitOptions& options);

/**
 * Compile a single defined function (the background tier-up path); as
 * for compileModule, @p options.codeTable must be set. The returned
 * artifact serves entry(func_idx) for exactly @p func_idx.
 */
Result<std::unique_ptr<CompiledCode>>
compileFunction(const wasm::LoweredModule& module, uint32_t func_idx,
                const JitOptions& options);

/** True if this CPU supports the instruction set the JIT emits
 * (x86-64 with SSE4.1). */
bool jitSupported();

/**
 * Serialize a finished artifact (module- or function-granular) into @p w:
 * the entry offset table, the profiler symbolization side table, the
 * relocation table recorded at emit time, and the raw code bytes. The
 * result is position- and process-independent — every absolute address
 * the code embeds is covered by a relocation (DESIGN.md §14).
 */
void serializeCode(const CompiledCode& code, wasm::ByteWriter& w);

/**
 * Rebuild an artifact in this process: map fresh executable memory, copy
 * the code, patch the relocation sites against this process's glue
 * symbols / @p code_table (the module's code table, playing the role
 * JitOptions::codeTable played at compile time) / the new buffer base,
 * flip to RX and re-register with the code registry.
 */
Result<std::unique_ptr<CompiledCode>>
deserializeCode(wasm::ByteReader& r, exec::FuncCode* code_table);

} // namespace lnb::jit

#endif // LNB_JIT_COMPILER_H
