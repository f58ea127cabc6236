/**
 * @file
 * The token-threaded interpreter: computed-goto dispatch with one handler
 * per opcode, so each instruction's dispatch is an independent indirect
 * branch with its own predictor entry (Bell, "Threaded Code", CACM 1973 —
 * the technique behind wasm3, paper §2.2).
 *
 * Calls (callf/calli) dispatch through the per-function code table, so an
 * interpreted caller transparently enters JIT code once a callee has been
 * tiered up (and vice versa). The Profile variant additionally counts
 * function entries and loop back edges for the tier-up policy.
 */
#include "interp/interpreter.h"
#include "obs/profiler.h"
#include "interp/ops_inline.h"

namespace lnb::exec {

namespace {

using wasm::IrForm;
using wasm::LInst;
using wasm::LoweredFunc;
using wasm::Op;
using wasm::TrapKind;
using wasm::Value;

template <CheckMode M, bool Profile>
void
runThreaded(InstanceContext* ctx, const LoweredFunc& func, Value* frame)
{
    // Handler table indexed by LInst::op. Wasm opcodes first (in table
    // order, matching the Op enumeration), then the lowered pseudo-ops in
    // LOp declaration order.
    static const void* const kLabels[] = {
#define V(id, name, enc, imm, sig) &&L_##id,
        LNB_FOREACH_OPCODE(V)
#undef V
        &&L_jump,      &&L_jump_if, &&L_jump_if_zero, &&L_jump_table,
        &&L_copy,      &&L_ret,     &&L_callf,        &&L_call_host,
        &&L_calli,     &&L_trap,    &&L_check_bounds, &&L_count_fallback,
        // Register forms, form-major (wasm::formOp); a (form, op) pair
        // the rewrite never emits goes to the no-handler trap.
#define FORM_LABEL(form, id)                                                 \
        wasm::formDefined(IrForm::form, Op::id) ? &&L_##form##_##id          \
                                                : &&L_no_handler,
#define V(id, name, enc, imm, sig) FORM_LABEL(rr, id)
        LNB_FOREACH_OPCODE(V)
#undef V
#define V(id, name, enc, imm, sig) FORM_LABEL(ri, id)
        LNB_FOREACH_OPCODE(V)
#undef V
#define V(id, name, enc, imm, sig) FORM_LABEL(r, id)
        LNB_FOREACH_OPCODE(V)
#undef V
#define V(id, name, enc, imm, sig) FORM_LABEL(jrr, id)
        LNB_FOREACH_OPCODE(V)
#undef V
#define V(id, name, enc, imm, sig) FORM_LABEL(jri, id)
        LNB_FOREACH_OPCODE(V)
#undef V
#undef FORM_LABEL
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == wasm::kIrOpCount,
                  "handler table must cover every lowered opcode");

    detail::enterFrame(ctx, func, frame);

    const LInst* code = func.code.data();
    const uint32_t* table_pool = func.tablePool.data();
    const LInst* inst = code;

#define NEXT()                                                               \
    do {                                                                     \
        inst++;                                                              \
        goto* kLabels[inst->op];                                             \
    } while (0)
// Jumps to an earlier or the current instruction are loop back edges; the
// profiled variant credits them to the function's hotness counter, and
// every variant polls the epoch countdown there so a spinning loop stays
// preemptible.
#define JUMP_TO(target)                                                      \
    do {                                                                     \
        if (code + (target) <= inst) {                                       \
            if constexpr (Profile)                                           \
                recordHotness(ctx, func.funcIdx, 1);                         \
            epochPoll(ctx);                                                  \
        }                                                                    \
        inst = code + (target);                                              \
        goto* kLabels[inst->op];                                             \
    } while (0)

    goto* kLabels[inst->op];

    // One handler per wasm opcode, inlining its semantic function.
#define V(id, name, enc, imm, sig)                                           \
    L_##id:                                                                  \
    sem::sem_##id<M>(ctx, frame, *inst);                                     \
    NEXT();
    LNB_FOREACH_OPCODE(V)
#undef V

L_jump:
    JUMP_TO(inst->a);

L_jump_if:
    if (frame[inst->b].i32 != 0)
        JUMP_TO(inst->a);
    NEXT();

L_jump_if_zero:
    if (frame[inst->b].i32 == 0)
        JUMP_TO(inst->a);
    NEXT();

L_jump_table: {
    uint32_t idx = frame[inst->b].i32;
    if (idx > inst->aux)
        idx = inst->aux;
    JUMP_TO(table_pool[inst->a + idx]);
}

L_copy:
    frame[inst->b] = frame[inst->a];
    NEXT();

L_ret:
    if (inst->aux != 0)
        frame[0] = frame[inst->a];
    ctx->callDepth--;
    return;

L_callf:
    detail::callThroughTable(ctx, inst->a, frame + inst->b);
    NEXT();

L_call_host:
    lnbJitHostCall(ctx, frame + inst->b, inst->a);
    NEXT();

L_calli: {
    detail::IndirectTarget target =
        detail::resolveIndirect(ctx, *inst, frame);
    detail::callThroughTable(ctx, target.funcIdx, target.argBase);
    NEXT();
}

L_trap:
    mem::TrapManager::raiseTrap(TrapKind(inst->aux));

L_check_bounds:
    sem::semCheckBounds<M>(ctx, frame, *inst);
    NEXT();

    // Register forms: one handler per (form, wasm op), each inlining the
    // op's semantic function. Labels without a form are never in the
    // table.
#define FORM_VALUE(form, id)                                                 \
    L_##form##_##id:                                                         \
    if constexpr (wasm::formDefined(IrForm::form, Op::id))                   \
        sem::semForm<M, Op::id, IrForm::form>(ctx, frame, *inst);            \
    NEXT();
#define FORM_BRANCH(form, id)                                                \
    L_##form##_##id:                                                         \
    if constexpr (wasm::formDefined(IrForm::form, Op::id)) {                 \
        if (sem::semFormBranch<M, Op::id, IrForm::form>(ctx, frame, *inst))  \
            JUMP_TO(inst->a);                                                \
    }                                                                        \
    NEXT();
#define V(id, name, enc, imm, sig)                                           \
    FORM_VALUE(rr, id)                                                       \
    FORM_VALUE(ri, id)                                                       \
    FORM_VALUE(r, id)                                                        \
    FORM_BRANCH(jrr, id)                                                     \
    FORM_BRANCH(jri, id)
    LNB_FOREACH_OPCODE(V)
#undef V
#undef FORM_BRANCH
#undef FORM_VALUE

L_no_handler:
    sem::trap(TrapKind::host_error);

L_count_fallback:
    ctx->guardFallbacks++;
    NEXT();

#undef NEXT
#undef JUMP_TO
}

/** Code-table entry: locate the lowered body, profile, run. */
template <CheckMode M, bool Profile>
void
threadedEntry(InstanceContext* ctx, Value* frame, uint32_t func_idx)
{
    if constexpr (Profile)
        recordHotness(ctx, func_idx, kEntryHotness);
    // Function-entry epoch poll (see switch_interp.cc).
    epochPoll(ctx);
    // Sampler frame marker (see switch_interp.cc).
    obs::ProfFrameScope prof_frame(func_idx, obs::kProfTierInterp);
    runThreaded<M, Profile>(ctx, ctx->lowered->funcByIndex(func_idx),
                            frame);
}

} // namespace

EntryFn
threadedFuncEntry(CheckMode mode, bool profiled)
{
    switch (mode) {
      case CheckMode::raw:
        return profiled ? &threadedEntry<CheckMode::raw, true>
                        : &threadedEntry<CheckMode::raw, false>;
      case CheckMode::clamp:
        return profiled ? &threadedEntry<CheckMode::clamp, true>
                        : &threadedEntry<CheckMode::clamp, false>;
      case CheckMode::trap:
        return profiled ? &threadedEntry<CheckMode::trap, true>
                        : &threadedEntry<CheckMode::trap, false>;
    }
    return nullptr;
}

} // namespace lnb::exec
