/**
 * @file
 * Optimization pass over the lowered slot-machine IR, shared by the
 * interpreter and JIT tiers. Five transforms, selected per engine
 * configuration:
 *
 *  - Bounds-check analysis (trap strategy only): rediscovers basic
 *    blocks, dominators, and natural loops from the resolved-jump CFG,
 *    value-numbers addresses within each block to mark checks that are
 *    provably covered by an earlier check of the same address value,
 *    and runs a forward "available bounds checks" dataflow — facts keyed
 *    by address cell, killed when the cell is rewritten, cleared at
 *    atomics — to a fixpoint, then replays each block from its solved
 *    entry state to mark every check its facts already cover. The marks,
 *    with those of hoisting and versioning, form `elidableCheckPcs`: the
 *    full, sorted set of checks the JIT skips. This pass is the only
 *    place that decides which checks survive; the JIT keeps no check
 *    state of its own.
 *
 *  - Loop-invariant check hoisting (trap strategy only): an access in a
 *    natural-loop header whose address provably repeats every iteration
 *    (a copy of a cell never written inside the loop, or a constant) and
 *    executes before any observable side effect gets its check hoisted
 *    to the preheader as a `check_bounds` instruction; the in-loop check
 *    is elided. Sound because linear memories never shrink and the
 *    hoisted check raises the same out-of-bounds trap the first
 *    iteration would have raised.
 *
 *  - Affine loop versioning (trap strategy only): for single-block
 *    bottom-test counted loops whose memory accesses are affine in the
 *    induction variable (`k_iv*i + k_base*base + const`), the loop body
 *    is cloned; the original becomes a fast path whose accesses are all
 *    marked elidable, guarded by preheader range checks — evaluated in
 *    64-bit arithmetic over the maximum IV extent, which also rules out
 *    u32 wraparound of the in-loop address arithmetic — that jump to the
 *    fully-checked clone when they fail. The only sound way to remove
 *    variable-index checks, which hoisting can never touch.
 *
 *  - Interprocedural check summaries: a bottom-up, SCC-aware pass over
 *    the callf graph computes per-function `FuncSummary` facts
 *    (grow-free? max constant limit checked on entry?) so the dataflow
 *    stops killing facts at calls into grow-free callees (frames
 *    overlap: a direct call clobbers only cells >= the arg base),
 *    propagates facts through copies, and seeds every function's entry
 *    state with the unconditional initial-memory-size fact (memSize >=
 *    min pages, sound at any entry because memories never shrink).
 *    call_indirect, host calls and SCC cycles degrade to the old
 *    clear-at-call behavior.
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
 *    the JIT compiles the same forms. The rewrite keeps every load,
 *    store and check_bounds and moves each `elidableCheckPcs` entry to
 *    its instruction's new pc.
 *
 * The pass reports opt.checks_hoisted, opt.checks_elided_crossblock,
 * opt.loops_versioned, opt.checks_elided_ipo and opt.insts_fused through
 * the obs registry (opt.guard_fallbacks is a runtime counter fed from
 * InstanceContext::guardFallbacks; opt.checks_elided_ipo only advances
 * when the diagnostics-only OptOptions::ipoStats attribution is on).
 */
#ifndef LNB_WASM_OPT_H
#define LNB_WASM_OPT_H

#include <cstdint>

#include "wasm/lower.h"

namespace lnb::wasm {

/** Which check transforms run before the register-form rewrite, which
 * always runs. Check analysis, hoisting, versioning and IPO summaries
 * are only sound when the executor traps (never clamps) on
 * out-of-bounds accesses; the caller is responsible for enabling them
 * only under that strategy. */
struct OptOptions
{
    bool analyzeChecks = false; ///< VN + dataflow check skip lists
    bool hoistChecks = false;   ///< loop-invariant check hoisting
    bool versionLoops = false;  ///< affine loop versioning (guard + clone)
    bool ipoSummaries = false;  ///< interprocedural check summaries
    /** Attribute the IPO contribution (opt.checks_elided_ipo /
     * OptStats::checksElidedIpo) by re-running the check analysis with
     * the old clear-at-call semantics as a baseline. Diagnostics only —
     * the emitted code is identical either way — and roughly doubles
     * check-analysis compile time, so it defaults off. */
    bool ipoStats = false;
};

/** What the pass did, accumulated over all functions of a module. */
struct OptStats
{
    uint64_t checksHoisted = 0;
    /** Checks value numbering and the dataflow listed as skippable
     * (beyond the hoisted and versioned ones). */
    uint64_t checksElided = 0;
    /** Instructions the register-form rewrite removed. */
    uint64_t instsFused = 0;
    /** Functions the interprocedural summaries prove grow-free (only
     * computed when OptOptions::ipoSummaries is set). */
    uint64_t funcsGrowFree = 0;
    /** Loops that received a guarded fast-path clone. */
    uint64_t loopsVersioned = 0;
    /** Accesses on versioned fast paths whose checks became elidable. */
    uint64_t checksVersioned = 0;
    /** Extra covered checks attributable to interprocedural summaries
     * (facts surviving calls, callee entry seeding) vs. the same
     * dataflow with the old clear-at-call behavior. Only computed when
     * OptOptions::ipoStats is set; 0 otherwise. */
    uint64_t checksElidedIpo = 0;
    /** Lowered instruction counts before/after (the register-form
     * rewrite shrinks code, versioning and hoisting grow it). */
    uint64_t instsBefore = 0;
    uint64_t instsAfter = 0;
};

/** Optimize every function of @p module in place — in call-graph
 * top-down order with summaries when ipoSummaries is set, the enabled
 * check transforms first and the register-form rewrite last — and bump
 * the obs counters by the module-wide totals. */
OptStats optimizeLoweredModule(LoweredModule& module, const OptOptions& opts);

} // namespace lnb::wasm

#endif // LNB_WASM_OPT_H
