/**
 * @file
 * The switch-dispatch interpreter: a portable fetch/execute loop over the
 * lowered IR. Serves as the naive performance lower bound among the
 * engines (paper §2.2's "relatively slow, but simple interpreters").
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
using wasm::LOp;
using wasm::Op;
using wasm::LoweredFunc;
using wasm::TrapKind;
using wasm::Value;

template <CheckMode M, bool Profile>
void
runSwitch(InstanceContext* ctx, const LoweredFunc& func, Value* frame)
{
    detail::enterFrame(ctx, func, frame);

    const LInst* code = func.code.data();
    const uint32_t* table_pool = func.tablePool.data();
    uint32_t pc = 0;

    // Loop back edges (jumps to an earlier or the current pc) feed the
    // hotness counter in the profiled variant and are the epoch poll
    // sites in every variant: a spinning loop must observe a pending
    // interrupt within epochInterval back edges.
    auto profile_jump = [&](uint32_t target) {
        if (target <= pc) {
            if constexpr (Profile)
                recordHotness(ctx, func.funcIdx, 1);
            epochPoll(ctx);
        }
    };

    for (;;) {
        const LInst& inst = code[pc];
        switch (inst.op) {
#define V(id, name, enc, imm, sig)                                           \
          case uint16_t(Op::id):                                             \
            sem::sem_##id<M>(ctx, frame, inst);                              \
            break;
            LNB_FOREACH_OPCODE(V)
#undef V

          case uint16_t(LOp::jump):
            profile_jump(inst.a);
            pc = inst.a;
            continue;

          case uint16_t(LOp::jump_if):
            if (frame[inst.b].i32 != 0) {
                profile_jump(inst.a);
                pc = inst.a;
                continue;
            }
            break;

          case uint16_t(LOp::jump_if_zero):
            if (frame[inst.b].i32 == 0) {
                profile_jump(inst.a);
                pc = inst.a;
                continue;
            }
            break;

          case uint16_t(LOp::jump_table): {
            uint32_t idx = frame[inst.b].i32;
            if (idx > inst.aux)
                idx = inst.aux; // default case
            uint32_t target = table_pool[inst.a + idx];
            profile_jump(target);
            pc = target;
            continue;
          }

          case uint16_t(LOp::copy):
            frame[inst.b] = frame[inst.a];
            break;

          case uint16_t(LOp::ret):
            if (inst.aux != 0)
                frame[0] = frame[inst.a];
            ctx->callDepth--;
            return;

          case uint16_t(LOp::callf):
            detail::callThroughTable(ctx, inst.a, frame + inst.b);
            break;

          case uint16_t(LOp::call_host):
            lnbJitHostCall(ctx, frame + inst.b, inst.a);
            break;

          case uint16_t(LOp::calli): {
            detail::IndirectTarget target =
                detail::resolveIndirect(ctx, inst, frame);
            detail::callThroughTable(ctx, target.funcIdx, target.argBase);
            break;
          }

          case uint16_t(LOp::trap):
            mem::TrapManager::raiseTrap(TrapKind(inst.aux));

          case uint16_t(LOp::check_bounds):
            sem::semCheckBounds<M>(ctx, frame, inst);
            break;

          case uint16_t(LOp::count_fallback):
            ctx->guardFallbacks++;
            break;

            // Register forms, typed per (form, wasm op) like the threaded
            // handlers; a pair the rewrite never emits traps.
#define FORM_VALUE(form, id)                                                 \
          case wasm::formOp(IrForm::form, Op::id):                           \
            if constexpr (wasm::formDefined(IrForm::form, Op::id)) {         \
                sem::semForm<M, Op::id, IrForm::form>(ctx, frame, inst);     \
                break;                                                       \
            }                                                                \
            sem::trap(TrapKind::host_error);
#define FORM_BRANCH(form, id)                                                \
          case wasm::formOp(IrForm::form, Op::id):                           \
            if constexpr (wasm::formDefined(IrForm::form, Op::id)) {         \
                if (sem::semFormBranch<M, Op::id, IrForm::form>(ctx, frame,  \
                                                                inst)) {     \
                    profile_jump(inst.a);                                    \
                    pc = inst.a;                                             \
                    continue;                                                \
                }                                                            \
                break;                                                       \
            }                                                                \
            sem::trap(TrapKind::host_error);
#define V(id, name, enc, imm, sig)                                           \
            FORM_VALUE(rr, id)                                               \
            FORM_VALUE(ri, id)                                               \
            FORM_VALUE(r, id)                                                \
            FORM_BRANCH(jrr, id)                                             \
            FORM_BRANCH(jri, id)
            LNB_FOREACH_OPCODE(V)
#undef V
#undef FORM_BRANCH
#undef FORM_VALUE

          default:
            sem::trap(TrapKind::host_error);
        }
        pc++;
    }
}

/** Code-table entry: locate the lowered body, profile, run. */
template <CheckMode M, bool Profile>
void
switchEntry(InstanceContext* ctx, Value* frame, uint32_t func_idx)
{
    if constexpr (Profile)
        recordHotness(ctx, func_idx, kEntryHotness);
    // Function entries are the second epoch poll site, so deep
    // call-chain recursion without loops is still preemptible.
    epochPoll(ctx);
    // Sampler frame marker: one relaxed load + branch when profiling is
    // off, declared-interp category + chain link when on.
    obs::ProfFrameScope prof_frame(func_idx, obs::kProfTierInterp);
    runSwitch<M, Profile>(ctx, ctx->lowered->funcByIndex(func_idx), frame);
}

} // namespace

EntryFn
switchFuncEntry(CheckMode mode, bool profiled)
{
    switch (mode) {
      case CheckMode::raw:
        return profiled ? &switchEntry<CheckMode::raw, true>
                        : &switchEntry<CheckMode::raw, false>;
      case CheckMode::clamp:
        return profiled ? &switchEntry<CheckMode::clamp, true>
                        : &switchEntry<CheckMode::clamp, false>;
      case CheckMode::trap:
        return profiled ? &switchEntry<CheckMode::trap, true>
                        : &switchEntry<CheckMode::trap, false>;
    }
    return nullptr;
}

} // namespace lnb::exec
