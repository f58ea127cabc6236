/**
 * @file
 * Lowering from validated WebAssembly bodies to the executable slot-machine
 * IR shared by the interpreters and the JIT.
 *
 * WebAssembly's operand stack has a statically known depth at every
 * instruction, so "stack slot s" can be treated as a fixed storage location.
 * A frame is a flat array of 8-byte cells: locals (parameters first) occupy
 * cells [0, L), and stack slot s occupies cell L+s. Lowering resolves:
 *
 *  - structured control (block/loop/if/else/end, br/br_if/br_table) into
 *    absolute jumps, with block-exit value motion made explicit as typed
 *    `copy` instructions;
 *  - locals into plain cell copies;
 *  - operand positions into absolute cell indices precomputed per
 *    instruction (a register-machine encoding of the stack program);
 *  - function results into the convention "results start at cell 0 of the
 *    callee frame", which lets caller and callee frames overlap so calls
 *    move no argument bytes in the interpreter.
 */
#ifndef LNB_WASM_LOWER_H
#define LNB_WASM_LOWER_H

#include <cstdint>
#include <vector>

#include "support/status.h"
#include "wasm/module.h"

namespace lnb::wasm {

/** Pseudo-instructions appended after the wasm opcode space. */
enum class LOp : uint16_t {
    jump = uint16_t(Op::count_), ///< a = target pc
    jump_if,                     ///< a = target pc, b = condition cell
    jump_if_zero,                ///< a = target pc, b = condition cell
    jump_table, ///< a = tablePool base, aux = case count, b = index cell
    copy,       ///< a = src cell, b = dst cell, aux = ValType
    ret,        ///< aux = result count, a = result cell
    callf,      ///< a = function index (module-wide), b = argument base cell
    call_host,  ///< a = import index, b = argument base cell
    calli,      ///< a = type index, b = table-index cell
    trap,       ///< aux = TrapKind
    // ----- emitted only by the optimization pass (wasm/opt.*) -----
    /**
     * First instruction of the slow-path clone a versioned loop falls
     * back to when its preheader guard fails: bumps the instance's
     * guard-fallback counter (surfaced as opt.guard_fallbacks). No
     * operands; pure diagnostics, never affects execution semantics.
     */
    count_fallback,
    count_
};

constexpr size_t kLOpCount = size_t(LOp::count_);

/**
 * Three-address register forms of a wasm op, emitted only by the
 * register-form rewrite, the last step of optimizeLoweredModule
 * (wasm/opt.*). A form op is `kLOpCount + form * kOpCount + wasm op`;
 * its operands are any cells:
 *
 *   rr  : f[a] = f[b] OP f[imm]
 *   ri  : f[a] = f[b] OP imm
 *   r   : f[a] = OP(f[b]); a load keeps its byte offset in imm
 *   jrr : jump to pc a if (f[b] OP f[imm] != 0) != aux
 *   jri : jump to pc a if (f[b] OP imm != 0) != aux
 *
 * Each operand is read, and the result written, at the width of its
 * signature character: 4 bytes for i32/f32, 8 for i64/f64. Every
 * executor runs forms: the interpreters through one handler per
 * (form, op), the JIT through the op's value emitter.
 */
enum class IrForm : uint8_t { rr, ri, r, jrr, jri, count_ };

/** One past the largest opcode a lowered instruction may carry. */
constexpr size_t kIrOpCount = kLOpCount + size_t(IrForm::count_) * kOpCount;
static_assert(kIrOpCount <= UINT16_MAX, "form ops must fit LInst::op");

constexpr uint16_t
formOp(IrForm form, Op op)
{
    return uint16_t(kLOpCount + size_t(form) * kOpCount + size_t(op));
}

constexpr bool isFormOp(uint16_t op) { return op >= kLOpCount; }
constexpr IrForm formOf(uint16_t op)
{
    return IrForm((op - kLOpCount) / kOpCount);
}
constexpr Op formWasmOp(uint16_t op) { return Op((op - kLOpCount) % kOpCount); }

/**
 * Does @p op have a @p form? Pure value ops only: two inputs and a
 * result for rr/ri, one input and a result (loads included) for r, and
 * an i32 result for the branch forms. Atomics, stores and memory.grow
 * have none.
 */
constexpr bool
formDefined(IrForm form, Op op)
{
    int inputs = opInputs(op);
    char result = opResult(op);
    if (result == 0 || isAtomicOp(op) || op == Op::memory_grow)
        return false;
    switch (form) {
      case IrForm::rr:
      case IrForm::ri:
        return inputs == 2;
      case IrForm::r:
        return inputs == 1;
      case IrForm::jrr:
      case IrForm::jri:
        return inputs == 2 && result == 'i';
      default:
        return false;
    }
}

/** Can an executor run @p op: a wasm op, a pseudo-op, or a defined form? */
constexpr bool
isExecutableOp(uint16_t op)
{
    if (op < kLOpCount)
        return true;
    return op < kIrOpCount && formDefined(formOf(op), formWasmOp(op));
}

/**
 * One lowered instruction. `op` holds a wasm Op (< Op::count_), an LOp,
 * or a register form (IrForm). Cell-index operands are absolute within
 * the function frame.
 *
 * Operand conventions for wasm ops (by signature arity):
 *   0 inputs, 1 output : a = destination cell
 *   1 input            : a = source cell, also destination
 *   2 inputs           : a = lhs cell (also destination), b = rhs cell
 *   3 inputs           : a = first of three consecutive cells
 * Loads/stores carry the byte offset in `imm`; constants carry the payload.
 * global_get/global_set keep the global index in `b`.
 */
struct LInst
{
    uint16_t op = 0;
    uint16_t aux = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    uint64_t imm = 0;

    constexpr bool isWasmOp() const { return op < uint16_t(Op::count_); }
    constexpr Op wasmOp() const { return Op(op); }
    constexpr LOp lop() const { return LOp(op); }
};

/**
 * Does @p inst carry a software bounds check: a load (plain or in its r
 * form) or a store? The only instructions an elidableCheckPcs entry may
 * name.
 */
constexpr bool
carriesBoundsCheck(const LInst& inst)
{
    if (inst.isWasmOp())
        return isLoadOp(inst.wasmOp()) || isStoreOp(inst.wasmOp());
    return isFormOp(inst.op) && formOf(inst.op) == IrForm::r &&
           isLoadOp(formWasmOp(inst.op));
}

/**
 * The JIT's register-home pools (jit/compiler.cc), one per register
 * class, indexed alike: [0, kNumSlotHomes) are the homes of operand-stack
 * slots 0..5 (a slot holds ints or floats depending on the program
 * point), [kNumSlotHomes, kNumHomes) the registers set aside for locals.
 * A local's home names the register of its own class at that index, so
 * an int local and a float local may hold the same index.
 */
constexpr int kNumSlotHomes = 6;
constexpr int kNumLocalHomes = 4;
constexpr int kNumHomes = kNumSlotHomes + kNumLocalHomes;
/** The slot whose integer register holds the linear-memory base in a
 * function that pins it (LoweredFunc::memBasePinned); that slot then
 * lives in its frame cell. */
constexpr int kMemBaseHome = kNumSlotHomes - 1;

/** Where one local lives in optimizing-JIT code, and when it is live. */
struct LocalHome
{
    /** Pool index of its register in its own class, or -1: the frame
     * cell. */
    int8_t home = -1;
    /** Some path from the entry reads it before writing it, so it starts
     * with its incoming value (parameters) or zero (the rest). */
    bool liveIn = false;
    /** Live interval on the linear code, inclusive: every pc that reads
     * or writes it, from pc 0 when it is live at entry, widened to cover
     * every loop it meets. Outside it the home holds nothing of it. */
    uint32_t begin = 0;
    uint32_t end = 0;
};

/** Executable form of one defined function. */
struct LoweredFunc
{
    uint32_t funcIdx = 0;  ///< index in the module's function space
    uint32_t typeIdx = 0;
    uint32_t numParams = 0;
    /** Locals including parameters; cells at and above it are stack
     * cells. */
    uint32_t numLocalCells = 0;
    uint32_t numCells = 0;      ///< locals + maximum operand-stack depth
    uint16_t numResults = 0;
    /** Types of all locals (parameters first); drives zero-init and JIT
     * register classes. */
    std::vector<ValType> localTypes;
    std::vector<LInst> code;
    /** jump_table target pcs: aux cases then the default, per table. */
    std::vector<uint32_t> tablePool;

    /**
     * Published by the optimization pass (wasm/opt.*) under the trap
     * and clamp strategies: the complete, sorted list of pcs of loads
     * and stores whose check an executor may skip. A check is listed
     * when a versioned loop's proof or guard covers it, or (trap only)
     * when an equal-or-stronger check of the same address value passed
     * earlier in its block (value numbering). The JIT skips exactly
     * these checks under `trap` and `clamp` and keeps no check state of
     * its own.
     */
    std::vector<uint32_t> elidableCheckPcs;
    /**
     * Published by the optimization pass for the optimizing JIT (every
     * strategy; never in jit_base IR), on a function that loads or
     * stores: the JIT keeps the linear-memory base in a register, loaded
     * at entry and after every native call, and addresses each access
     * off it instead of adding the base from the context. Executors
     * that address memory otherwise ignore it.
     */
    bool memBasePinned = false;
    /**
     * Published by the optimization pass for the optimizing JIT (never in
     * jit_base IR): one entry per local cell (numLocalCells). Homes are
     * allocated by live interval, hottest local first (references
     * weighted by 8^loop depth), from separate int and float pools; two
     * locals share a home only when their intervals are disjoint. Empty:
     * the JIT homes the first kNumLocalHomes locals in declaration
     * order, live everywhere. Other executors ignore it.
     */
    std::vector<LocalHome> localHomes;
};

/** A module plus the lowered form of each defined function. */
struct LoweredModule
{
    Module module;
    std::vector<LoweredFunc> funcs;
    /**
     * Canonical type index per type index: the first structurally equal
     * entry. call_indirect signature checks compare canonical indices so
     * duplicate type entries do not cause spurious mismatches. calli
     * instructions carry their canonical index in `imm`.
     */
    std::vector<uint32_t> typeCanon;

    const LoweredFunc& funcByIndex(uint32_t func_idx) const
    {
        return funcs[func_idx - module.numImportedFuncs()];
    }
};

/**
 * Lower every defined function. @p module must already be validated;
 * lowering asserts on conditions the validator guarantees.
 */
Result<LoweredModule> lowerModule(Module module);

/** Name of a lowered opcode (wasm mnemonic or pseudo-op name). */
const char* lopName(uint16_t op);

} // namespace lnb::wasm

#endif // LNB_WASM_LOWER_H
