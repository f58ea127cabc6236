/**
 * @file
 * Optimization pass over the lowered slot-machine IR, shared by the
 * interpreter and JIT tiers. Three transforms, selected per engine
 * configuration:
 *
 *  - Affine loop versioning (trap strategy only): rediscovers basic
 *    blocks, dominators, and natural loops from the resolved-jump CFG;
 *    for single-block bottom-test counted loops whose memory accesses
 *    are affine in the induction variable (`k_iv*i + k_base*base +
 *    const`), the loop body is cloned; the original becomes a fast path
 *    whose accesses are all marked elidable, guarded by preheader range
 *    checks — evaluated in 64-bit arithmetic over the maximum IV extent,
 *    which also rules out u32 wraparound of the in-loop address
 *    arithmetic — that jump to the fully-checked clone when they fail.
 *    The only sound way to remove variable-index checks.
 *
 *  - Bounds-check value numbering (trap strategy only): value-numbers
 *    addresses within each basic block and marks every check provably
 *    covered by an earlier check of the same address value in that
 *    block. Passed checks stay valid forever (linear memories never
 *    shrink) except across atomics, where a concurrent grow becomes
 *    observable; a direct call forgets only the cells at and above its
 *    argument base (the callee's frame overlaps the caller's from
 *    there), an indirect or host call forgets every cell. The marks,
 *    with versioning's, form `elidableCheckPcs`: the full, sorted set of
 *    checks the JIT skips. This pass is the only place that decides
 *    which checks survive; the JIT keeps no check state of its own.
 *
 *  - Register-form rewrite (every executor, last): a block-local
 *    pass, driven by a liveness word over the first 64 stack cells,
 *    that turns the stack-slot IR into three-address forms (IrForm,
 *    wasm/lower.h). Copies from locals and constants into stack cells
 *    are deferred, so consumers read the local or an immediate; a result
 *    stored by local.set/local.tee is written to the local directly; an
 *    i32-producing op whose result a jump_if/jump_if_zero pops becomes
 *    one compare-and-branch. Deferred values still live are flushed at
 *    block ends, before calls and any op the rewrite does not model,
 *    and before their source local is overwritten. Integer operands of
 *    commutative ops may be swapped; float operands never are (x86 NaN
 *    propagation depends on operand order). Form handlers run each op's
 *    own semantic function, so results and traps stay bit-exact, and
 *    the JIT compiles the same forms. The rewrite keeps every load and
 *    store and moves each `elidableCheckPcs` entry to its instruction's
 *    new pc.
 *
 * The pass reports opt.checks_elided_vn, opt.loops_versioned and
 * opt.insts_fused through the obs registry (opt.guard_fallbacks is a
 * runtime counter fed from InstanceContext::guardFallbacks).
 */
#ifndef LNB_WASM_OPT_H
#define LNB_WASM_OPT_H

#include <cstdint>

#include "wasm/lower.h"

namespace lnb::wasm {

/** Which check transforms run before the register-form rewrite, which
 * always runs. Both are only sound when the executor traps (never
 * clamps) on out-of-bounds accesses; the caller is responsible for
 * enabling them only under that strategy. */
struct OptOptions
{
    bool analyzeChecks = false; ///< per-block value numbering of checks
    bool versionLoops = false;  ///< affine loop versioning (guard + clone)
};

/** What the pass did, accumulated over all functions of a module. */
struct OptStats
{
    /** Always 0: no transform hoists checks. Kept because the
     * benchmark's steady phase (perfbench/steady.cc) still reports it. */
    uint64_t checksHoisted = 0;
    /** Checks value numbering listed as skippable (beyond the versioned
     * ones). */
    uint64_t checksElided = 0;
    /** Instructions the register-form rewrite removed. */
    uint64_t instsFused = 0;
    /** Loops that received a guarded fast-path clone. */
    uint64_t loopsVersioned = 0;
    /** Accesses on versioned fast paths whose checks became elidable. */
    uint64_t checksVersioned = 0;
    /** Lowered instruction counts before/after (the register-form
     * rewrite shrinks code, versioning grows it). */
    uint64_t instsBefore = 0;
    uint64_t instsAfter = 0;
};

/** Optimize every function of @p module in place — the enabled check
 * transforms first and the register-form rewrite last — and bump the obs
 * counters by the module-wide totals. */
OptStats optimizeLoweredModule(LoweredModule& module, const OptOptions& opts);

} // namespace lnb::wasm

#endif // LNB_WASM_OPT_H
