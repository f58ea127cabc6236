/**
 * @file
 * Optimization pass over the lowered slot-machine IR, shared by the
 * interpreter and JIT tiers. Five transforms, selected per engine
 * configuration, walk one basic-block partition (blocks begin at pc 0,
 * jump targets and after terminators), recomputed after versioning and
 * after the rewrite:
 *
 *  - Affine loop versioning (trap and clamp): a candidate is a run of
 *    blocks closed by a jump back to its first pc, the only jump there,
 *    so every other entry falls through the preheader. It exits through
 *    that back edge's condition (bottom test) or, when the back edge is
 *    unconditional, through the first block's jump past the loop (top
 *    test); inner jumps only go forward and stay inside. The exit must
 *    compare the induction variable against a loop-invariant bound
 *    (`<` or `<=`, signed or unsigned). Every access affine in the
 *    induction variable (`k_iv*i + k_base*base + const`) is marked
 *    elidable on the loop body, the fast path; in a top-test loop only
 *    the accesses after the test. A proved or guarded fast path never
 *    goes out of bounds, so it neither traps nor clamps.
 *    With a constant bound each access's worst end folds to
 *    `k_base*base + K` at compile time. When the induction variable's
 *    entry value is a constant too and no access has a base, a loop
 *    whose largest K fits the module's declared minimum memory is
 *    proved: no guard, no clone (memories never shrink, and an
 *    instance's memory starts at least at the declared minimum).
 *    Otherwise the loop body is cloned into a fully-checked copy and a
 *    preheader guard jumps to it unless the entry value lies below the
 *    bound and `k_base*base + K <= memory bytes` (once per distinct
 *    base), or the page count covers K when no access has a base. A
 *    loop whose K exceeds the declared maximum is left alone. With a
 *    variable bound the guard computes the maximum IV extent at run
 *    time. Guards run in 64-bit arithmetic, which also rules out u32
 *    wraparound of the in-loop address arithmetic. A clone costs as many
 *    code bytes as its body, so only the loops nested deepest in their
 *    function get a guard and a clone.
 *    The only sound way to remove variable-index checks.
 *
 *  - Bounds-check value numbering (trap strategy only, never clamp: a
 *    check that clamped says nothing about the next access to the same
 *    address): value-numbers
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
 *  - Register-form rewrite (every executor): a block-local
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
 *  - Memory-base pinning (the optimizing JIT, every strategy): every
 *    function that loads or stores gets `memBasePinned`, so the JIT
 *    keeps the linear-memory base in a register for its whole body and
 *    addresses each access as [base + index + disp].
 *
 *  - Local-home allocation (the optimizing JIT, every strategy, after
 *    the rewrite): on the final code's block partition each local gets a
 *    live interval (its first to last reference, from pc 0 when a
 *    backward liveness dataflow finds it live at entry), widened to
 *    cover every loop (a backward jump's [target, source]) it meets, and
 *    a weight (its references, each scaled by 8^loop depth). Hottest
 *    first, each local takes the first home of its class whose occupants'
 *    intervals are all disjoint from its own, or stays in its frame
 *    cell. Each class's pool is the four local registers plus the
 *    registers of stack slots the code never names (not the pinned
 *    base's). Published as `localHomes`; the JIT spills around a native
 *    call only the homes whose interval covers it, and zeroes at entry
 *    only the locals live there.
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
 * always runs, and whether the optimizing JIT's transforms run after it.
 * The caller enables each check transform only where it is sound: value
 * numbering only when the executor traps on out-of-bounds accesses,
 * versioning when it traps or clamps. */
struct OptOptions
{
    /** Per-block value numbering of checks (trap only). */
    bool analyzeChecks = false;
    /** Affine loop versioning: proof, or guard + clone (trap, clamp). */
    bool versionLoops = false;
    /** The IR feeds the optimizing JIT (every strategy): set
     * LoweredFunc::memBasePinned on every function that loads or stores,
     * and allocate LoweredFunc::localHomes. */
    bool optimizingJit = false;
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
    /** Loops whose affine checks became elidable: proved in bounds, or
     * guarded with a checked clone to fall back to. */
    uint64_t loopsVersioned = 0;
    /** Accesses on versioned fast paths whose checks became elidable. */
    uint64_t checksVersioned = 0;
    /** Lowered instruction counts before/after (the register-form
     * rewrite shrinks code, versioning grows it). */
    uint64_t instsBefore = 0;
    uint64_t instsAfter = 0;
};

/** Optimize every function of @p module in place — the enabled check
 * transforms first, then the register-form rewrite, then for the
 * optimizing JIT the memory-base pin and the local-home allocation — and
 * bump the obs counters by the module-wide totals. */
OptStats optimizeLoweredModule(LoweredModule& module, const OptOptions& opts);

} // namespace lnb::wasm

#endif // LNB_WASM_OPT_H
