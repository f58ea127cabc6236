#include "jit/compiler.h"

#include <algorithm>
#include <cassert>
#include <cpuid.h>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "jit/assembler.h"
#include "jit/code_buffer.h"
#include "wasm/serialize.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace lnb::jit {

namespace {

/** Compile-time probes only: nothing here runs inside generated code,
 * so the per-strategy execution timings are unaffected. */
struct JitMetrics
{
    obs::Counter modulesCompiled = obs::registerCounter(
        "jit.modules_compiled");
    obs::Counter functionsCompiled = obs::registerCounter(
        "jit.functions_compiled");
    obs::Counter codeBytes = obs::registerCounter("jit.code_bytes");
    obs::Counter boundsChecksEmitted = obs::registerCounter(
        "jit.bounds_checks_emitted");
    /** Emitted [r15+disp] operands: operand traffic through the frame
     * cells rather than register homes. */
    obs::Counter frameCellAccesses = obs::registerCounter(
        "jit.frame_cell_accesses");
    obs::Counter boundsChecksElided = obs::registerCounter(
        "jit.bounds_checks_elided");
    obs::Counter guardAccessesEmitted = obs::registerCounter(
        "jit.guard_accesses_emitted");
    obs::Histogram compileLatency = obs::registerHistogram(
        "jit.compile_ns");
};

JitMetrics&
jitMetrics()
{
    static JitMetrics m;
    return m;
}

/**
 * Stable ids for the runtime glue symbols generated code calls through
 * movabs (RelocKind::glue addends). The ids go to disk inside serialized
 * artifacts, so the numbering must never be reordered — append only.
 */
enum GlueSym : uint64_t {
    kGlueHostCall = 0,
    // 1 was the epoch-interrupt glue; polls fault instead since cache
    // format 7.
    kGlueAtomic = 2,
    kGlueMemSize = 3,
    kGlueMemGrow = 4,
    kGlueMemCopy = 5,
    kGlueMemFill = 6,
    kGlueCount = 7,
};

/** Current process address of glue symbol @p id; null for unknown ids
 * (an artifact written by a newer build — the caller rejects it). */
const void*
glueSymAddress(uint64_t id)
{
    switch (id) {
      case kGlueHostCall:
        return reinterpret_cast<const void*>(&exec::lnbJitHostCall);
      case kGlueAtomic:
        return reinterpret_cast<const void*>(&exec::lnbJitAtomic);
      case kGlueMemSize:
        return reinterpret_cast<const void*>(&exec::lnbJitMemorySize);
      case kGlueMemGrow:
        return reinterpret_cast<const void*>(&exec::lnbJitMemoryGrow);
      case kGlueMemCopy:
        return reinterpret_cast<const void*>(&exec::lnbJitMemoryCopy);
      case kGlueMemFill:
        return reinterpret_cast<const void*>(&exec::lnbJitMemoryFill);
      default:
        return nullptr;
    }
}

using exec::InstanceContext;
using mem::BoundsStrategy;
using wasm::LInst;
using wasm::LOp;
using wasm::LoweredFunc;
using wasm::LoweredModule;
using wasm::Op;
using wasm::TrapKind;
using wasm::ValType;

// ----- value-op tables -----

static_assert(uint16_t(Op::f32_div) - uint16_t(Op::f32_add) == 3 &&
                  uint16_t(Op::f64_div) - uint16_t(Op::f64_add) == 3,
              "float arithmetic runs add, sub, mul, div");
static_assert(uint16_t(Op::i32_ge_u) - uint16_t(Op::i32_eq) == 9 &&
                  uint16_t(Op::i64_ge_u) - uint16_t(Op::i64_eq) == 9,
              "int compares run eq, ne, lt_s, lt_u, gt_s, gt_u, le_s, "
              "le_u, ge_s, ge_u");

/** Width and x86 condition of an int compare; false for any other op
 * (eqz included: it has no rhs). */
bool
intCompare(uint16_t op, bool& is64, Cond& cond)
{
    static constexpr Cond kConds[10] = {Cond::e,  Cond::ne, Cond::l,
                                        Cond::b,  Cond::g,  Cond::a,
                                        Cond::le, Cond::be, Cond::ge,
                                        Cond::ae};
    for (Op first : {Op::i32_eq, Op::i64_eq}) {
        uint16_t i = uint16_t(op - uint16_t(first));
        if (i < 10) {
            is64 = first == Op::i64_eq;
            cond = kConds[i];
            return true;
        }
    }
    return false;
}

/** Group-1 digit (the 0x81 /ext; the reg-form opcode base is ext << 3)
 * of cmp, and the marker emitAluRhs uses for imul. */
constexpr uint8_t kAluCmp = 7;
constexpr uint8_t kAluImul = 0xFF;

/** Group-1 digit of an int add/sub/and/or/xor, kAluImul for mul. */
uint8_t
aluExt(Op op)
{
    switch (op) {
      case Op::i32_add: case Op::i64_add: return 0;
      case Op::i32_or: case Op::i64_or: return 1;
      case Op::i32_and: case Op::i64_and: return 4;
      case Op::i32_sub: case Op::i64_sub: return 5;
      case Op::i32_xor: case Op::i64_xor: return 6;
      default: return kAluImul;
    }
}

/**
 * Cells of one value op: dst = lhs OP rhs, or dst = OP(lhs) for a unary
 * op or a load. A plain stack op is (a, a, b); a register form names
 * its own cells (wasm/lower.h), and ri/jri carry the rhs as an
 * immediate.
 */
struct Operands
{
    uint32_t dst = 0;
    uint32_t lhs = 0;
    uint32_t rhs = 0; ///< rhs cell unless rhsImm
    bool rhsImm = false;
    uint64_t imm = 0; ///< the rhs when rhsImm; a load's byte offset
};

/** dst of the value op inside a branch form: the result only feeds the
 * branch, so it lives in rax, this pseudo-cell's home. */
constexpr uint32_t kBranchCell = UINT32_MAX;

// ---------------------------------------------------------------------
// Register conventions (see DESIGN.md §6)
//
//   rbp  InstanceContext*                        (pinned, callee-saved)
//   r15  frame base (cells) in the value stack   (pinned, callee-saved)
//   r11  linear-memory base, in a function whose IR pins it
//        (LoweredFunc::memBasePinned; reloaded after every native call)
//   rbx, r12, r13, rsi, rdi, r11     integer homes of stack slots 0..5
//                                    (slot 5 lives in its frame cell
//                                    while r11 holds the memory base)
//   xmm8, xmm9, xmm10, xmm2-xmm4     float homes of stack slots 0..5
//   r14, r8, r9, r10     integer local homes
//   xmm11..xmm14         float local homes
//   rax, rcx, rdx, xmm0, xmm1        scratch (rax also homes kBranchCell)
//
// Optimizing-JIT IR names each local's home (LoweredFunc::localHomes):
// the local registers of its class, or the registers of stack slots the
// function never names, shared by locals whose live intervals are
// disjoint. jit_base IR names none, so its first four locals take the
// local registers in declaration order.
// ---------------------------------------------------------------------

constexpr Reg kCtxReg = rbp;
constexpr Reg kFrameReg = r15;

/**
 * Register-home pools, one register per class and pool index
 * (wasm/lower.h): indices [0, kNumSlotHomes) are the homes of
 * operand-stack slots 0..5 (dual-class: a slot holds ints or floats
 * depending on the program point), [kNumSlotHomes, kNumHomes) the local
 * registers; a local uses the register of its own class. rbx/r12/r13/r14
 * are callee-saved; every other home is caller-saved and spilled around
 * native calls while live. Index kNumHomes is kBranchCell's scratch home.
 */
constexpr Reg kSlotGpr[wasm::kNumHomes + 1] = {rbx, r12, r13, rsi, rdi, r11,
                                               r14, r8,  r9,  r10, rax};
constexpr Xmm kSlotXmm[wasm::kNumHomes + 1] = {
    xmm8, xmm9, xmm10, xmm2, xmm3, xmm4, xmm11, xmm12, xmm13, xmm14, xmm0};
static_assert(wasm::kNumSlotHomes == 6 && wasm::kNumLocalHomes == 4,
              "the pool tables list six slot and four local registers");
constexpr int kBranchHome = wasm::kNumHomes;
/** Holds ctx->memBase in a function whose IR pins it, which costs that
 * function slot 5's register home: no suite inner loop reaches slot 5. */
constexpr Reg kMemBaseReg = kSlotGpr[wasm::kMemBaseHome];

/** Survives a SysV call (rbp and r15 are pinned, never homes). */
constexpr bool
calleeSaved(Reg reg)
{
    return reg == rbx || reg == r12 || reg == r13 || reg == r14;
}

/** [rbp+disp8] operand of the context field at byte @p Offset. Every
 * field generated code reads lives in InstanceContext's hot prefix, so
 * its operand costs one displacement byte, not four. */
template <size_t Offset>
Mem
ctxField()
{
    static_assert(Offset < 128,
                  "the JIT reads only InstanceContext's hot prefix");
    return Mem{kCtxReg, int32_t(Offset)};
}

#define CTX_FIELD(name) ctxField<offsetof(InstanceContext, name)>()

/** Register class of a value type. */
enum class RC : uint8_t { gpr, fpr };

RC
classOf(ValType t)
{
    return wasm::isFloatType(t) ? RC::fpr : RC::gpr;
}

/** IEEE-754 bit-pattern constants used by conversion sequences. */
constexpr uint64_t kF64Bits2p31 = 0x41E0000000000000ull;  // 2^31
constexpr uint64_t kF64Bits2p32 = 0x41F0000000000000ull;  // 2^32
constexpr uint64_t kF64Bits2p63 = 0x43E0000000000000ull;  // 2^63
constexpr uint64_t kF64Bits2p64 = 0x43F0000000000000ull;  // 2^64
constexpr uint64_t kF64BitsIntMin = 0xC1E0000000000000ull; // -2^31
constexpr uint64_t kF64BitsI64Min = 0xC3E0000000000000ull; // -2^63
constexpr uint32_t kF32Bits2p31 = 0x4F000000u;
constexpr uint32_t kF32Bits2p32 = 0x4F800000u;
constexpr uint32_t kF32Bits2p63 = 0x5F000000u;
constexpr uint32_t kF32Bits2p64 = 0x5F800000u;
constexpr uint32_t kF32BitsIntMin = 0xCF000000u;
constexpr uint32_t kF32BitsI64Min = 0xDF000000u;
constexpr uint64_t kF64QuietNaN = 0x7FF8000000000000ull;
constexpr uint32_t kF32QuietNaN = 0x7FC00000u;

/** Compiles one lowered function into the shared assembler stream. */
class FunctionCompiler
{
  public:
    FunctionCompiler(Assembler& as, const LoweredModule& mod,
                     const LoweredFunc& func, const JitOptions& opts,
                     std::vector<std::pair<uint32_t, uint32_t>>*
                         check_ranges = nullptr)
        : as_(as),
          mod_(mod),
          func_(func),
          opts_(opts),
          checkRanges_(check_ranges),
          numSlotRegs_(func.memBasePinned ? wasm::kMemBaseHome
                                          : wasm::kNumSlotHomes)
    {
        assignLocalHomes();
    }

    void compile();

  private:
    // ----- home resolution -----
    /** Pool index of the cell's register home, or -1 for memory. */
    int
    slotRegIndex(uint32_t cell) const
    {
        if (cell == kBranchCell)
            return kBranchHome;
        if (cell < func_.numLocalCells)
            return localHome_[cell];
        uint32_t s = cell - func_.numLocalCells;
        return s < uint32_t(numSlotRegs_) ? int(s) : -1;
    }

    /** The homes the IR names (optimizing-JIT IR), else the local
     * registers for the first locals in declaration order. */
    void
    assignLocalHomes()
    {
        localHome_.assign(func_.numLocalCells, -1);
        if (!func_.localHomes.empty()) {
            for (uint32_t i = 0; i < func_.numLocalCells; i++)
                localHome_[i] = func_.localHomes[i].home;
            return;
        }
        int next = wasm::kNumSlotHomes;
        for (uint32_t i = 0;
             i < func_.numLocalCells && next < wasm::kNumHomes; i++) {
            localHome_[i] = int8_t(next++);
        }
    }
    /** Does local @p i hold a value at @p pc: inside its live interval
     * (declaration-order homes are live everywhere)? */
    bool
    localLiveAt(uint32_t i, uint32_t pc) const
    {
        if (func_.localHomes.empty())
            return true;
        const wasm::LocalHome& lh = func_.localHomes[i];
        return lh.begin <= pc && pc <= lh.end;
    }
    /** Must local @p i start with its incoming value or zero? */
    bool
    localLiveIn(uint32_t i) const
    {
        return func_.localHomes.empty() || func_.localHomes[i].liveIn;
    }
    /** The frame-memory operand of @p cell; call only to emit it. */
    Mem
    cellMem(uint32_t cell) const
    {
        jitMetrics().frameCellAccesses.add();
        return Mem{kFrameReg, int32_t(cell * 8)};
    }

    void
    loadGpr32(Reg dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movRR32(dst, kSlotGpr[s]);
        else
            as_.movRM32(dst, cellMem(cell));
    }
    void
    loadGpr64(Reg dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movRR64(dst, kSlotGpr[s]);
        else
            as_.movRM64(dst, cellMem(cell));
    }
    /** A frame cell takes all 8 bytes even of a 32-bit value (its high
     * half is unspecified), so a later 8-byte copy of the cell forwards
     * from the store instead of stalling on a narrower one. A register
     * home ends zero-extended: @p src, when it is that home, was written
     * in place by a 32-bit op (workReg, imul). */
    void
    storeGpr32(uint32_t cell, Reg src)
    {
        int s = slotRegIndex(cell);
        if (s < 0)
            as_.movMR64(cellMem(cell), src);
        else if (kSlotGpr[s] != src)
            as_.movRR32(kSlotGpr[s], src);
        noteGprWrite(cell, true);
    }
    void
    storeGpr64(uint32_t cell, Reg src)
    {
        int s = slotRegIndex(cell);
        if (s < 0)
            as_.movMR64(cellMem(cell), src);
        else if (kSlotGpr[s] != src)
            as_.movRR64(kSlotGpr[s], src);
        noteGprWrite(cell, false);
    }

    /**
     * Record a write to the cell's gpr home: @p zero_extended when a
     * 32-bit op wrote it, so its upper half is known zero. The knowledge
     * lasts until the next write, label or native call.
     */
    void
    noteGprWrite(uint32_t cell, bool zero_extended)
    {
        int s = slotRegIndex(cell);
        if (s < 0 || s == kBranchHome) // rax: scratch, never tracked
            return;
        if (zero_extended)
            zeroExtended_ |= uint16_t(1u << s);
        else
            zeroExtended_ &= uint16_t(~(1u << s));
    }
    bool
    knownZeroExtended(uint32_t cell) const
    {
        int s = slotRegIndex(cell);
        return s >= 0 && (zeroExtended_ >> s) & 1;
    }
    void
    loadGpr(bool is64, Reg dst, uint32_t cell)
    {
        if (is64)
            loadGpr64(dst, cell);
        else
            loadGpr32(dst, cell);
    }
    void
    storeGpr(bool is64, uint32_t cell, Reg src)
    {
        if (is64)
            storeGpr64(cell, src);
        else
            storeGpr32(cell, src);
    }
    void
    loadXmm32(Xmm dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movapsRR(dst, kSlotXmm[s]);
        else
            as_.movssRM(dst, cellMem(cell));
    }
    void
    loadXmm64(Xmm dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movapsRR(dst, kSlotXmm[s]);
        else
            as_.movsdRM(dst, cellMem(cell));
    }
    void
    loadXmm(bool is32, Xmm dst, uint32_t cell)
    {
        if (is32)
            loadXmm32(dst, cell);
        else
            loadXmm64(dst, cell);
    }
    /** f32 and f64 alike: a frame cell takes all 8 bytes (storeGpr32). */
    void
    storeXmm(uint32_t cell, Xmm src)
    {
        int s = slotRegIndex(cell);
        if (s < 0)
            as_.movsdMR(cellMem(cell), src);
        else if (kSlotXmm[s] != src)
            as_.movapsRR(kSlotXmm[s], src);
    }
    void
    loadBits64(Reg dst, uint32_t cell, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0) {
            as_.movRM64(dst, cellMem(cell));
        } else if (rc == RC::gpr) {
            as_.movRR64(dst, kSlotGpr[s]);
        } else {
            as_.movqRX(dst, kSlotXmm[s]);
        }
    }
    void
    storeBits64(uint32_t cell, Reg src, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0) {
            as_.movMR64(cellMem(cell), src);
        } else if (rc == RC::gpr) {
            as_.movRR64(kSlotGpr[s], src);
        } else {
            as_.movqXR(kSlotXmm[s], src);
        }
        noteGprWrite(cell, false);
    }

    /** Write the cell's register home back to its memory slot (calls). */
    void
    spillCell(uint32_t cell, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0)
            return;
        if (rc == RC::gpr)
            as_.movMR64(cellMem(cell), kSlotGpr[s]);
        else
            as_.movsdMR(cellMem(cell), kSlotXmm[s]);
    }
    /** Load the cell's register home from its memory slot (after calls). */
    void
    fillCell(uint32_t cell, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0)
            return;
        if (rc == RC::gpr)
            as_.movRM64(kSlotGpr[s], cellMem(cell));
        else
            as_.movsdRM(kSlotXmm[s], cellMem(cell));
        noteGprWrite(cell, false);
    }

    /**
     * Calls @p fn(cell, rc) for each register home a native call would
     * clobber while it holds a live value: stack slots below @p live_end
     * (the first cell the call consumes) in their xmm home when
     * @p float_mask (the lowering's live mask) marks them float, else in
     * a caller-saved gpr home; and every local homed in a caller-saved
     * register whose live interval covers the call. Locals sharing a
     * home have disjoint intervals, so only the live one is saved: a
     * dead occupant's stale cell would overwrite the live value.
     */
    template <typename Fn>
    void
    forEachCallClobberedHome(uint16_t float_mask, uint32_t live_end,
                             Fn fn)
    {
        uint32_t slots = live_end > func_.numLocalCells
                             ? live_end - func_.numLocalCells
                             : 0;
        for (uint32_t s = 0; s < slots && s < uint32_t(numSlotRegs_);
             s++) {
            RC rc = (float_mask & (1u << s)) ? RC::fpr : RC::gpr;
            if (rc == RC::fpr || !calleeSaved(kSlotGpr[s]))
                fn(func_.numLocalCells + s, rc);
        }
        for (uint32_t i = 0; i < func_.numLocalCells; i++) {
            int h = localHome_[i];
            RC rc = classOf(func_.localTypes[i]);
            if (h >= 0 && (rc == RC::fpr || !calleeSaved(kSlotGpr[h])) &&
                localLiveAt(i, curPc_))
                fn(i, rc);
        }
    }
    void
    spillLiveHomes(uint16_t float_mask, uint32_t live_end)
    {
        forEachCallClobberedHome(float_mask, live_end,
                                 [&](uint32_t c, RC rc) { spillCell(c, rc); });
    }
    /** Also reloads the pinned memory base: every native call ends
     * here. */
    void
    reloadLiveHomes(uint16_t float_mask, uint32_t live_end)
    {
        forEachCallClobberedHome(float_mask, live_end,
                                 [&](uint32_t c, RC rc) { fillCell(c, rc); });
        if (func_.memBasePinned)
            loadMemBase();
        zeroExtended_ = 0;
    }
    void
    loadMemBase()
    {
        as_.movRM64(kMemBaseReg, CTX_FIELD(memBase));
    }

    /** Call runtime glue @p id through a relocated absolute address. */
    void
    callGlue(GlueSym id)
    {
        as_.callImmReloc(glueSymAddress(id), RelocKind::glue, id);
    }

    // ----- trap islands -----
    Label
    trapLabel(TrapKind kind)
    {
        auto it = trapLabels_.find(uint8_t(kind));
        if (it != trapLabels_.end())
            return it->second;
        Label label = as_.newLabel();
        trapLabels_.emplace(uint8_t(kind), label);
        return label;
    }
    void
    emitTrapIslands()
    {
        for (auto& [kind, label] : trapLabels_) {
            as_.bind(label);
            as_.ud2();
            as_.emitByte(kind); // read by the SIGILL handler (signals.cc)
        }
    }

    // ----- epoch interrupt polls -----
    /** One load from the poll page below the context, `cmp eax,
     * [rbp-0x40]`: Instance::interrupt() makes the page unreadable, and
     * the poll's SIGSEGV raises the requested trap (mem/signals.cc). No
     * register is written, and flags are dead between IR instructions. */
    void
    emitEpochPoll()
    {
        as_.cmpRM32(rax, Mem{kCtxReg, exec::kEpochPollDisp});
    }

    /**
     * May the software check of the instruction being emitted be
     * skipped? Exactly when the opt pass listed its pc: under trap a
     * listed check is covered by one that already passed or by a loop
     * guard or proof, under clamp (which the pass lists versioned loops'
     * checks for only) the access provably stays in bounds, so it never
     * redirects.
     */
    bool
    checkSkipped() const
    {
        return std::binary_search(func_.elidableCheckPcs.begin(),
                                  func_.elidableCheckPcs.end(), curPc_);
    }

    /** ctx->checksRetired++ (mov/lea/mov: no flags touched). Emitted in
     * front of a software check when the counting knob is on. Clobbers
     * rcx only. */
    void
    emitCountRetired()
    {
        if (!opts_.countChecks)
            return;
        as_.movRM64(rcx, CTX_FIELD(checksRetired));
        as_.lea(rcx, Mem{rcx, 1});
        as_.movMR64(CTX_FIELD(checksRetired), rcx);
    }

    /** Record [check_begin, current) as a bounds-check PC range for the
     * profiler code map. Emission is monotonic, so ranges arrive sorted
     * and disjoint. */
    void
    recordCheckRange(uint32_t check_begin)
    {
        if (checkRanges_ != nullptr)
            checkRanges_->emplace_back(check_begin,
                                       uint32_t(as_.size()));
    }

    /**
     * Compute the accessible address for a memory access: returns a Mem
     * operand ready for the load/store. Clobbers rax and rcx only.
     */
    Mem
    emitAddress(uint32_t addr, uint64_t offset, unsigned access_size)
    {
        loadGpr32(rax, addr); // zero-extends the 32-bit wasm address

        bool soft = opts_.strategy == BoundsStrategy::clamp ||
                    opts_.strategy == BoundsStrategy::trap;
        if (!soft) {
            // Guard-page strategies: fold the offset into the x86
            // displacement when it fits; the 8 GiB reservation absorbs
            // the worst case (2^32-1 base + 2^32-1 offset).
            jitMetrics().guardAccessesEmitted.add();
            bool fits = offset <= 0x7FFFFF00ull;
            Mem access = linearAccess(fits ? int32_t(offset) : 0);
            if (!fits)
                addOffset(rax, offset);
            return access;
        }

        // A skipped check's access is in bounds, so its offset folds into
        // the displacement as under the guard-page strategies.
        if (checkSkipped() && offset <= 0x7FFFFF00ull) {
            jitMetrics().boundsChecksElided.add();
            return linearAccess(int32_t(offset));
        }
        // Software checks: ea = addr + offset in rax.
        if (offset != 0)
            addOffset(rax, offset);

        if (checkSkipped()) {
            jitMetrics().boundsChecksElided.add();
        } else {
            jitMetrics().boundsChecksEmitted.add();
            emitCountRetired();
            uint32_t check_begin = uint32_t(as_.size());
            // rcx = ea + size; compare against the live memory size.
            as_.lea(rcx, Mem{rax, int32_t(access_size)});
            as_.cmpRM64(rcx, CTX_FIELD(memSize));
            if (opts_.strategy == BoundsStrategy::clamp) {
                // Out of bounds: redirect to the red zone ("the memory
                // end pointer is used instead", paper §3.1).
                as_.cmovccRM64(Cond::a, rax, CTX_FIELD(clampOffset));
            } else {
                as_.jcc(Cond::a,
                        trapLabel(TrapKind::out_of_bounds_memory));
            }
            recordCheckRange(check_begin);
        }
        return linearAccess(0);
    }

    /** The operand of linear-memory byte rax + @p disp: [base + rax +
     * disp] off the pinned base, else [rax + disp] once the base from
     * the context is added to rax. */
    Mem
    linearAccess(int32_t disp)
    {
        if (func_.memBasePinned)
            return Mem{kMemBaseReg, disp, rax};
        as_.addRM64(rax, CTX_FIELD(memBase));
        return Mem{rax, disp};
    }

    /** reg += @p offset: add with a sign-extended imm8/imm32 up to
     * INT32_MAX, else staged in rcx. */
    void
    addOffset(Reg reg, uint64_t offset)
    {
        if (offset <= uint64_t(INT32_MAX)) {
            as_.addRI64(reg, int32_t(offset));
            return;
        }
        if (offset <= UINT32_MAX)
            as_.movRI32(rcx, uint32_t(offset));
        else
            as_.movRI64(rcx, offset);
        as_.addRR64(reg, rcx);
    }

    bool isJumpTarget(uint32_t pc) const { return pcLabels_[pc].id >= 0; }

    /** Does @p inst run to the next pc without a jump, a call (native
     * glue included) or a return? Only a trap can leave it. */
    static bool
    straightLine(const LInst& inst)
    {
        if (wasm::isFormOp(inst.op))
            return wasm::formOf(inst.op) < wasm::IrForm::jrr;
        if (!inst.isWasmOp())
            return inst.op == uint16_t(LOp::copy) ||
                   inst.op == uint16_t(LOp::count_fallback);
        Op op = inst.wasmOp();
        return !wasm::isAtomicOp(op) && op != Op::memory_size &&
               op != Op::memory_grow && op != Op::memory_copy &&
               op != Op::memory_fill;
    }
    /**
     * Does straight-line code from @p pc reach a loop header? A poll
     * there covers the code before it, so a loop header or function
     * entry that falls into another header needs no poll of its own:
     * every pass through it polls a few instructions later. The last
     * header of such a run keeps its poll.
     */
    bool
    fallsIntoPoll(uint32_t pc) const
    {
        for (; pc < func_.code.size(); pc++) {
            if (backEdgeTargets_.count(pc))
                return true;
            if (!straightLine(func_.code[pc]))
                return false;
        }
        return false;
    }

    /**
     * Home an op computing dst = lhs OP rhs works in: dst's, unless that
     * home holds an rhs cell other than lhs (loading lhs would clobber
     * it); -1 for scratch.
     */
    int
    workHome(const Operands& v) const
    {
        bool free = v.lhs == v.dst || v.rhsImm || v.rhs != v.dst;
        return free ? slotRegIndex(v.dst) : -1;
    }
    /** The workHome() register, or rax, holding lhs; storeGpr() to dst
     * finishes the op. */
    Reg
    workReg(bool is64, const Operands& v)
    {
        int s = workHome(v);
        Reg reg = s >= 0 ? kSlotGpr[s] : rax;
        if (v.lhs != v.dst || s < 0)
            loadGpr(is64, reg, v.lhs);
        return reg;
    }
    /** workReg() for the float class: the xmm home, or xmm0. */
    Xmm
    workXmm(bool is32, const Operands& v)
    {
        int s = workHome(v);
        Xmm reg = s >= 0 ? kSlotXmm[s] : xmm0;
        if (v.lhs != v.dst || s < 0)
            loadXmm(is32, reg, v.lhs);
        return reg;
    }

    /** Load an op's rhs, cell or immediate, into @p dst. */
    void
    loadRhsGpr(bool is64, Reg dst, const Operands& v)
    {
        if (!v.rhsImm)
            loadGpr(is64, dst, v.rhs);
        else if (is64 && v.imm > UINT32_MAX)
            as_.movRI64(dst, v.imm);
        else
            as_.movRI32(dst, uint32_t(v.imm));
    }
    /** Load a float op's rhs into @p dst; an immediate stages in rcx. */
    void
    loadRhsXmm(bool is32, Xmm dst, const Operands& v)
    {
        if (v.rhsImm && is32)
            loadF32Const(dst, uint32_t(v.imm));
        else if (v.rhsImm)
            loadF64Const(dst, v.imm);
        else
            loadXmm(is32, dst, v.rhs);
    }

    /**
     * lhs = lhs <op> rhs for group-1 digit @p ext (or kAluImul), where
     * rhs is an immediate (a 64-bit one that does not sign-extend from
     * 32 bits stages in rcx) or a cell read from its home (register or
     * frame slot; imul stages a frame slot in rcx).
     */
    void
    emitAluRhs(uint8_t ext, bool is64, Reg lhs, const Operands& v)
    {
        if (v.rhsImm && (!is64 || int64_t(v.imm) == int32_t(v.imm))) {
            int32_t imm = int32_t(v.imm);
            if (ext == kAluImul && is64)
                as_.imulRRI64(lhs, lhs, imm);
            else if (ext == kAluImul)
                as_.imulRRI32(lhs, lhs, imm);
            else if (is64)
                as_.aluRI64(ext, lhs, imm);
            else
                as_.aluRI32(ext, lhs, uint32_t(imm));
            return;
        }
        int sb = v.rhsImm ? -1 : slotRegIndex(v.rhs);
        if (sb < 0 && !v.rhsImm && ext != kAluImul) {
            if (is64)
                as_.aluRM64(uint8_t(ext << 3), lhs, cellMem(v.rhs));
            else
                as_.aluRM32(uint8_t(ext << 3), lhs, cellMem(v.rhs));
            return;
        }
        Reg rhs = sb >= 0 ? kSlotGpr[sb] : rcx;
        if (sb < 0)
            loadRhsGpr(is64, rcx, v);
        if (ext == kAluImul && is64)
            as_.imulRR64(lhs, rhs);
        else if (ext == kAluImul)
            as_.imulRR32(lhs, rhs);
        else if (is64)
            as_.aluRR64(uint8_t(ext << 3), lhs, rhs);
        else
            as_.aluRR32(uint8_t(ext << 3), lhs, rhs);
    }

    // ----- instruction emission -----
    void emitPrologue();
    void emitEpilogue();
    void emitInstr(const LInst& inst);
    void emitForm(const LInst& inst);
    void emitWasmOp(const LInst& inst);
    void emitValueOp(Op op, const Operands& v);
    void emitLoad(Op op, const Operands& v);
    void emitStore(const LInst& inst);
    void emitAtomic(const LInst& inst);
    void emitIntDivRem(Op op, const Operands& v);
    void emitFloatMinMax(Op op, const Operands& v);
    void emitFloatCompare(Op op, const Operands& v);
    void emitIntBinop(Op op, const Operands& v, bool is64);
    void emitShift(Op op, const Operands& v, bool is64);
    void emitIntCompare(const Operands& v, bool is64, Cond cond,
                        const Label* branch = nullptr);
    void emitTruncChecked(Op op, const Operands& v);
    void emitTruncSat(Op op, const Operands& v);
    void emitConvert(Op op, const Operands& v);
    void emitCall(const LInst& inst);
    void emitCallHost(const LInst& inst);
    void emitCallIndirect(const LInst& inst);

    /** cmp helper: set al by cond then zero-extend into eax. */
    void
    materializeCond(Cond cond)
    {
        as_.setcc(cond, rax);
        as_.movzxRR8(rax, rax);
    }

    /** reg = 0 as `xor r32, r32`: 2-3 bytes where `mov r32, 0` takes 5-6.
     * It clobbers the flags, which is safe because no flag is live
     * between IR instructions (each one that branches on flags sets them
     * itself, immediately before), nor across this call's own uses. */
    void
    zeroGpr(Reg reg)
    {
        as_.xorRR32(reg, reg);
    }

    void
    loadF64Const(Xmm dst, uint64_t bits)
    {
        as_.movRI64(rcx, bits);
        as_.movqXR(dst, rcx);
    }
    void
    loadF32Const(Xmm dst, uint32_t bits)
    {
        as_.movRI32(rcx, bits);
        as_.movdXR(dst, rcx);
    }

    Assembler& as_;
    const LoweredModule& mod_;
    const LoweredFunc& func_;
    const JitOptions& opts_;
    /** Sink for emitted bounds-check PC ranges (buffer offsets), fed to
     * the profiler code map; null when symbolization is not wanted. */
    std::vector<std::pair<uint32_t, uint32_t>>* checkRanges_ = nullptr;

    /** Stack slots with a register home: all but slot 5 when the
     * function pins the memory base in slot 5's register. */
    const int numSlotRegs_;
    /** Pool index per local cell, -1 = memory home. */
    std::vector<int8_t> localHome_;
    /** Label per pc, created (id >= 0) only at jump targets. */
    std::vector<Label> pcLabels_;
    /** Targets of at least one backward jump (loop headers): the epoch
     * poll sites. */
    std::unordered_set<uint32_t> backEdgeTargets_;
    std::unordered_map<uint8_t, Label> trapLabels_;
    /** pc currently being emitted (for check skip-list lookups). */
    uint32_t curPc_ = 0;
    /** Pool indices of gpr homes a 32-bit op wrote last since the last
     * label or native call (noteGprWrite). */
    uint16_t zeroExtended_ = 0;
};

void
FunctionCompiler::emitPrologue()
{
    as_.push(rbp);
    as_.push(rbx);
    as_.push(r12);
    as_.push(r13);
    as_.push(r14);
    as_.push(r15);
    as_.subRI64(rsp, 8); // keep rsp 16-byte aligned at call sites
    as_.movRR64(kCtxReg, rdi);
    as_.movRR64(kFrameReg, rsi);

    // Native stack headroom (guards runaway recursion).
    as_.cmpRM64(rsp, CTX_FIELD(nativeStackLimit));
    as_.jcc(Cond::be, trapLabel(TrapKind::stack_overflow));
    // Value-stack headroom for this frame.
    as_.lea(rax, Mem{kFrameReg, int32_t(func_.numCells * 8)});
    as_.cmpRM64(rax, CTX_FIELD(vstackEnd));
    as_.jcc(Cond::a, trapLabel(TrapKind::stack_overflow));

    // Parameters arrive in the frame's memory cells (the caller wrote
    // them there); load register-homed ones. Zero-initialize the rest
    // that are live at entry: every other local is written before any
    // read.
    for (uint32_t i = 0; i < func_.numLocalCells; i++) {
        int h = localHome_[i];
        bool is_float = wasm::isFloatType(func_.localTypes[i]);
        if (!localLiveIn(i))
            continue;
        if (i < func_.numParams) {
            if (h < 0)
                continue;
            if (is_float)
                as_.movsdRM(kSlotXmm[h], cellMem(i));
            else
                as_.movRM64(kSlotGpr[h], cellMem(i));
        } else if (h >= 0) {
            if (is_float)
                as_.pxor(kSlotXmm[h], kSlotXmm[h]);
            else
                as_.xorRR32(kSlotGpr[h], kSlotGpr[h]);
        } else {
            as_.movMI64(cellMem(i), 0);
        }
    }

    if (func_.memBasePinned)
        loadMemBase();

    // Function-entry epoch poll: recursion without loops must still be
    // preemptible, and entries are where the interpreters poll too.
    if (opts_.epochChecks && !fallsIntoPoll(0))
        emitEpochPoll();
}

void
FunctionCompiler::emitEpilogue()
{
    as_.addRI64(rsp, 8);
    as_.pop(r15);
    as_.pop(r14);
    as_.pop(r13);
    as_.pop(r12);
    as_.pop(rbx);
    as_.pop(rbp);
    as_.ret();
}

void
FunctionCompiler::compile()
{
    // Pre-scan for jump targets so labels exist before backward jumps
    // bind.
    pcLabels_.resize(func_.code.size());
    // A target at or before its jump is a loop back edge: those labels
    // additionally get an epoch poll (the JIT's preemption sites).
    auto mark = [&](uint32_t pc, uint32_t from) {
        if (!isJumpTarget(pc))
            pcLabels_[pc] = as_.newLabel();
        if (pc <= from)
            backEdgeTargets_.insert(pc);
    };
    for (uint32_t pc = 0; pc < func_.code.size(); pc++) {
        const LInst& inst = func_.code[pc];
        switch (LOp(inst.op)) {
          case LOp::jump:
          case LOp::jump_if:
          case LOp::jump_if_zero:
            mark(inst.a, pc);
            break;
          case LOp::jump_table:
            for (uint32_t i = 0; i <= inst.aux; i++)
                mark(func_.tablePool[inst.a + i], pc);
            break;
          default:
            if (wasm::isFormOp(inst.op) &&
                wasm::formOf(inst.op) >= wasm::IrForm::jrr)
                mark(inst.a, pc);
            break;
        }
    }

    emitPrologue();

    for (uint32_t pc = 0; pc < func_.code.size(); pc++) {
        if (isJumpTarget(pc)) {
            as_.bind(pcLabels_[pc]);
            zeroExtended_ = 0; // other predecessors join here
            // Loop headers poll the poll page: every back edge runs
            // through here, so a spinning loop is preempted within one
            // iteration.
            if (opts_.epochChecks && backEdgeTargets_.count(pc) &&
                !(straightLine(func_.code[pc]) && fallsIntoPoll(pc + 1)))
                emitEpochPoll();
        }
        curPc_ = pc;
        emitInstr(func_.code[pc]);
    }

    emitTrapIslands();
}

void
FunctionCompiler::emitInstr(const LInst& inst)
{
    if (wasm::isFormOp(inst.op)) {
        emitForm(inst);
        return;
    }
    switch (LOp(inst.op)) {
      case LOp::jump:
        as_.jmp(pcLabels_[inst.a]);
        return;

      case LOp::jump_if:
      case LOp::jump_if_zero: {
        // Test the condition in its home; a frame cell stages in rax.
        int s = slotRegIndex(inst.b);
        Reg cond = s >= 0 ? kSlotGpr[s] : rax;
        if (s < 0)
            loadGpr32(rax, inst.b);
        as_.testRR32(cond, cond);
        as_.jcc(LOp(inst.op) == LOp::jump_if ? Cond::ne : Cond::e,
                pcLabels_[inst.a]);
        return;
      }

      case LOp::jump_table: {
        loadGpr32(rax, inst.b);
        as_.movRI32(rcx, inst.aux);
        as_.cmpRR32(rax, rcx);
        as_.cmovcc32(Cond::a, rax, rcx); // clamp to the default case
        Label table = as_.newLabel();
        as_.movRI64Label(rcx, table);
        as_.jmpMem(Mem{rcx, 0, rax, 8});
        as_.bind(table);
        for (uint32_t i = 0; i <= inst.aux; i++)
            as_.absq(pcLabels_[func_.tablePool[inst.a + i]]);
        return;
      }

      case LOp::copy: {
        // Move directly between homes; only a memory-to-memory copy
        // stages through rax.
        RC rc = classOf(ValType(inst.aux));
        int src = slotRegIndex(inst.a), dst = slotRegIndex(inst.b);
        noteGprWrite(inst.b, false);
        if (src < 0 && dst < 0) {
            as_.movRM64(rax, cellMem(inst.a));
            as_.movMR64(cellMem(inst.b), rax);
        } else if (rc == RC::gpr) {
            if (src < 0)
                as_.movRM64(kSlotGpr[dst], cellMem(inst.a));
            else if (dst < 0)
                as_.movMR64(cellMem(inst.b), kSlotGpr[src]);
            else
                as_.movRR64(kSlotGpr[dst], kSlotGpr[src]);
        } else {
            if (src < 0)
                as_.movsdRM(kSlotXmm[dst], cellMem(inst.a));
            else if (dst < 0)
                as_.movsdMR(cellMem(inst.b), kSlotXmm[src]);
            else
                as_.movapsRR(kSlotXmm[dst], kSlotXmm[src]);
        }
        return;
      }

      case LOp::ret: {
        if (inst.aux != 0) {
            RC rc = classOf(mod_.module.types[func_.typeIdx].results[0]);
            loadBits64(rax, inst.a, rc);
            as_.movMR64(cellMem(0), rax);
        }
        emitEpilogue();
        return;
      }

      case LOp::callf:
        emitCall(inst);
        return;
      case LOp::call_host:
        emitCallHost(inst);
        return;
      case LOp::calli:
        emitCallIndirect(inst);
        return;

      case LOp::trap:
        as_.jmp(trapLabel(TrapKind(inst.aux)));
        return;

      case LOp::count_fallback:
        // Versioned-loop guard failure: bump the fallback counter (no
        // flag is live between IR instructions).
        as_.incM64(CTX_FIELD(guardFallbacks));
        return;

      default:
        emitWasmOp(inst);
        return;
    }
}

/**
 * A register form (wasm/lower.h): rr/ri/r run the op's value emitter on
 * the cells the form names; jrr/jri compute the op's i32 result and
 * branch on it, an int compare as cmp + jcc.
 */
void
FunctionCompiler::emitForm(const LInst& inst)
{
    Op op = wasm::formWasmOp(inst.op);
    wasm::IrForm form = wasm::formOf(inst.op);
    // imm is the rhs cell of rr/jrr, the rhs of ri/jri, a load's offset.
    bool imm = form == wasm::IrForm::ri || form == wasm::IrForm::jri;
    Operands v{inst.a, inst.b, uint32_t(inst.imm), imm, inst.imm};
    if (form < wasm::IrForm::jrr) {
        emitValueOp(op, v);
        return;
    }
    // Branch: jump to pc a when (result != 0) != aux.
    v.dst = kBranchCell;
    const Label& target = pcLabels_[inst.a];
    bool is64;
    Cond cond;
    if (intCompare(uint16_t(op), is64, cond)) {
        if (inst.aux != 0)
            cond = Cond(uint8_t(cond) ^ 1); // x86 pairs cc with !cc
        emitIntCompare(v, is64, cond, &target);
        return;
    }
    emitValueOp(op, v);
    as_.testRR32(rax, rax);
    as_.jcc(inst.aux != 0 ? Cond::e : Cond::ne, target);
}

void
FunctionCompiler::emitCall(const LInst& inst)
{
    const wasm::FuncType& callee = mod_.module.funcType(inst.a);
    // Materialize register-homed arguments into their memory cells (which
    // are the callee's parameter locals, thanks to frame overlap).
    for (size_t i = 0; i < callee.params.size(); i++)
        spillCell(inst.b + uint32_t(i), classOf(callee.params[i]));
    spillLiveHomes(inst.aux, inst.b);

    as_.movRR64(rdi, kCtxReg);
    as_.lea(rsi, cellMem(inst.b));
    // Cross-tier dispatch: load the callee's *current* entry from its
    // code-table slot (an aligned 8-byte load; publication is a release
    // store on the compiler thread, and x86-TSO makes the dependent call
    // see the published code). edx carries the function index for
    // interpreter entries.
    as_.movRI64Reloc(rax, uint64_t(&opts_.codeTable[inst.a].entry),
                     RelocKind::codeTable,
                     uint64_t(inst.a) * sizeof(exec::FuncCode));
    as_.movRM64(rax, Mem{rax, 0});
    as_.movRI32(rdx, inst.a);
    as_.callReg(rax);

    reloadLiveHomes(inst.aux, inst.b);
    if (!callee.results.empty())
        fillCell(inst.b, classOf(callee.results[0]));
}

void
FunctionCompiler::emitCallHost(const LInst& inst)
{
    const wasm::FuncType& callee = mod_.module.funcType(inst.a);
    for (size_t i = 0; i < callee.params.size(); i++)
        spillCell(inst.b + uint32_t(i), classOf(callee.params[i]));
    spillLiveHomes(inst.aux, inst.b);

    as_.movRR64(rdi, kCtxReg);
    as_.lea(rsi, cellMem(inst.b));
    as_.movRI32(rdx, inst.a);
    callGlue(kGlueHostCall);

    reloadLiveHomes(inst.aux, inst.b);
    if (!callee.results.empty())
        fillCell(inst.b, classOf(callee.results[0]));
}

void
FunctionCompiler::emitCallIndirect(const LInst& inst)
{
    const wasm::FuncType& callee = mod_.module.types[inst.a];
    uint32_t nargs = uint32_t(callee.params.size());
    uint32_t arg_base = inst.b - nargs;

    loadGpr32(rax, inst.b); // table index (zero-extended)
    as_.cmpRM64(rax, CTX_FIELD(tableSize));
    as_.jcc(Cond::ae, trapLabel(TrapKind::out_of_bounds_table));
    as_.shiftImm64(4, rax, 5); // * sizeof(TableEntry) == 32
    as_.movRM64(rcx, CTX_FIELD(table));
    as_.addRR64(rcx, rax);

    as_.movRM64(rdx, Mem{rcx, int32_t(offsetof(exec::TableEntry,
                                               initialized))});
    as_.testRR64(rdx, rdx);
    as_.jcc(Cond::e, trapLabel(TrapKind::uninitialized_element));

    as_.movRM64(rdx,
                Mem{rcx, int32_t(offsetof(exec::TableEntry, typeIdx))});
    as_.cmpRI64(rdx, int32_t(uint32_t(inst.imm))); // canonical type index
    as_.jcc(Cond::ne, trapLabel(TrapKind::indirect_type_mismatch));

    for (uint32_t i = 0; i < nargs; i++)
        spillCell(arg_base + i, classOf(callee.params[i]));
    spillLiveHomes(inst.aux, arg_base);

    // Cross-tier dispatch: index the code table by the entry's function
    // index (slots are 16 bytes; entry pointer at offset 0), so funcref
    // calls pick up tier-up publications too. Imports resolve to the
    // host-call glue, which takes the function index (== import index)
    // in edx.
    as_.movRM64(rdx,
                Mem{rcx, int32_t(offsetof(exec::TableEntry, funcIdx))});
    as_.movRR64(rax, rdx);
    as_.shiftImm64(4, rax, 4); // * sizeof(FuncCode) == 16
    as_.movRI64Reloc(r11, uint64_t(opts_.codeTable), RelocKind::codeTable,
                     0);
    as_.addRR64(rax, r11);
    as_.movRM64(rax, Mem{rax, 0});
    as_.movRR64(rdi, kCtxReg);
    as_.lea(rsi, cellMem(arg_base));
    as_.callReg(rax);

    reloadLiveHomes(inst.aux, arg_base);
    if (!callee.results.empty())
        fillCell(arg_base, classOf(callee.results[0]));
}

void
FunctionCompiler::emitLoad(Op op, const Operands& v)
{
    Mem src = emitAddress(v.lhs, v.imm, wasm::memAccessSize(op));

    // Load straight into the destination's register home; a frame cell
    // stages the value in rdx/xmm0.
    int home = slotRegIndex(v.dst);
    Reg g = home >= 0 ? kSlotGpr[home] : rdx;
    Xmm x = home >= 0 ? kSlotXmm[home] : xmm0;
    switch (op) {
      case Op::i32_load: as_.movRM32(g, src); break;
      case Op::i64_load: as_.movRM64(g, src); break;
      case Op::f32_load: as_.movssRM(x, src); break;
      case Op::f64_load: as_.movsdRM(x, src); break;
      case Op::i32_load8_s: as_.movsxRM8_32(g, src); break;
      case Op::i32_load8_u: as_.movzxRM8(g, src); break;
      case Op::i32_load16_s: as_.movsxRM16_32(g, src); break;
      case Op::i32_load16_u: as_.movzxRM16(g, src); break;
      case Op::i64_load8_s: as_.movsxRM8_64(g, src); break;
      case Op::i64_load8_u: as_.movzxRM8(g, src); break;
      case Op::i64_load16_s: as_.movsxRM16_64(g, src); break;
      case Op::i64_load16_u: as_.movzxRM16(g, src); break;
      case Op::i64_load32_s: as_.movsxRM32_64(g, src); break;
      case Op::i64_load32_u: as_.movRM32(g, src); break; // zero-extends
      default: assert(false);
    }
    if (home >= 0) {
        noteGprWrite(v.dst, wasm::opInfo(op).sig[2] == 'i');
        return;
    }
    switch (wasm::opInfo(op).sig[2]) { // "i:<result>"
      case 'f':
      case 'F': storeXmm(v.dst, xmm0); break;
      case 'I': storeGpr64(v.dst, rdx); break;
      default: storeGpr32(v.dst, rdx); break;
    }
}

void
FunctionCompiler::emitStore(const LInst& inst)
{
    Op op = Op(inst.op);
    unsigned size = wasm::memAccessSize(op);

    // A register-homed value is stored straight from its home (homes
    // survive emitAddress, which clobbers rax/rcx only); a frame cell is
    // staged in rdx/xmm0 first.
    bool is_float = op == Op::f32_store || op == Op::f64_store;
    int sval = slotRegIndex(inst.b);
    Reg gval = rdx;
    Xmm xval = xmm0;
    if (sval >= 0) {
        gval = kSlotGpr[sval];
        xval = kSlotXmm[sval];
    } else if (is_float) {
        loadXmm(op == Op::f32_store, xmm0, inst.b);
    } else {
        loadGpr64(rdx, inst.b);
    }

    Mem dst = emitAddress(inst.a, inst.imm, size);
    switch (op) {
      case Op::i32_store:
        as_.movMR32(dst, gval);
        break;
      case Op::i64_store:
        as_.movMR64(dst, gval);
        break;
      case Op::f32_store:
        as_.movssMR(dst, xval);
        break;
      case Op::f64_store:
        as_.movsdMR(dst, xval);
        break;
      case Op::i32_store8:
      case Op::i64_store8:
        as_.movMR8(dst, gval);
        break;
      case Op::i32_store16:
      case Op::i64_store16:
        as_.movMR16(dst, gval);
        break;
      case Op::i64_store32:
        as_.movMR32(dst, gval);
        break;
      default:
        assert(false);
    }
}

/**
 * Atomics compile to calls into the lnbJitAtomic glue: the assembler has
 * no lock-prefixed encodings, and funneling every tier through the one
 * sem::atomicRmw seq_cst lowering keeps interp/jit/tiered executions
 * bit-exact and TSAN-instrumented. Alignment and bounds checks (atomics
 * trap, never clamp) happen inside the glue against the refreshed
 * shared-size mirror.
 */
void
FunctionCompiler::emitAtomic(const LInst& inst)
{
    Op op = Op(inst.op);
    const bool is64 = wasm::memAccessSize(op) == 8 &&
                      op != Op::memory_atomic_notify;
    exec::AtomicOp aop;
    // Operand shape: how many cells the op consumed (arg-base layout for
    // 3, top-two layout for 2; see lowerSigOp).
    unsigned shape;
    switch (op) {
      case Op::memory_atomic_notify: aop = exec::AtomicOp::notify; shape = 2; break;
      case Op::memory_atomic_wait32:
      case Op::memory_atomic_wait64: aop = exec::AtomicOp::wait; shape = 3; break;
      case Op::i32_atomic_load:
      case Op::i64_atomic_load: aop = exec::AtomicOp::load; shape = 1; break;
      case Op::i32_atomic_store:
      case Op::i64_atomic_store: aop = exec::AtomicOp::store; shape = 2; break;
      case Op::i32_atomic_rmw_add:
      case Op::i64_atomic_rmw_add: aop = exec::AtomicOp::add; shape = 2; break;
      case Op::i32_atomic_rmw_sub:
      case Op::i64_atomic_rmw_sub: aop = exec::AtomicOp::sub; shape = 2; break;
      case Op::i32_atomic_rmw_and:
      case Op::i64_atomic_rmw_and: aop = exec::AtomicOp::and_; shape = 2; break;
      case Op::i32_atomic_rmw_or:
      case Op::i64_atomic_rmw_or: aop = exec::AtomicOp::or_; shape = 2; break;
      case Op::i32_atomic_rmw_xor:
      case Op::i64_atomic_rmw_xor: aop = exec::AtomicOp::xor_; shape = 2; break;
      case Op::i32_atomic_rmw_xchg:
      case Op::i64_atomic_rmw_xchg: aop = exec::AtomicOp::xchg; shape = 2; break;
      case Op::i32_atomic_rmw_cmpxchg:
      case Op::i64_atomic_rmw_cmpxchg:
        aop = exec::AtomicOp::cmpxchg;
        shape = 3;
        break;
      default:
        assert(false);
        return;
    }

    spillLiveHomes(inst.aux, inst.a);
    // Operands load from the highest cell down and ctx goes to rdi last:
    // the homes of slots 3..5 are rsi/rdi/r11 in that order, so no
    // argument register is written before every home above it is read.
    if (shape == 3) {
        // Arg-base layout: operands at a+1 (expected) and a+2
        // (replacement / timeout_ns).
        if (aop == exec::AtomicOp::wait)
            loadGpr64(rcx, inst.a + 2); // timeout_ns is always i64
        else
            loadGpr(is64, rcx, inst.a + 2);
        loadGpr(is64, rdx, inst.a + 1);
    } else if (shape == 2) {
        // Value/count at the top-of-stack cell.
        loadGpr(is64, rdx, inst.b);
    }
    loadGpr32(rsi, inst.a); // linear address
    as_.movRR64(rdi, kCtxReg);
    if (inst.imm <= UINT32_MAX)
        as_.movRI32(r8, uint32_t(inst.imm));
    else
        as_.movRI64(r8, inst.imm);
    as_.movRI32(r9, exec::atomicOpMode(
                        aop, is64, exec::checkModeFor(opts_.strategy)));
    callGlue(kGlueAtomic);
    reloadLiveHomes(inst.aux, inst.a);
    if (aop != exec::AtomicOp::store)
        storeGpr64(inst.a, rax); // glue returns zero-extended results
}

void
FunctionCompiler::emitIntDivRem(Op op, const Operands& v)
{
    bool is64 = op >= Op::i64_div_s && op <= Op::i64_rem_u;
    bool is_signed = op == Op::i32_div_s || op == Op::i32_rem_s ||
                     op == Op::i64_div_s || op == Op::i64_rem_s;
    bool is_rem = op == Op::i32_rem_s || op == Op::i32_rem_u ||
                  op == Op::i64_rem_s || op == Op::i64_rem_u;

    loadGpr(is64, rax, v.lhs);
    loadRhsGpr(is64, rcx, v);

    // Division by zero traps in hardware (SIGFPE -> wasm trap); only the
    // INT_MIN / -1 overflow case needs an explicit check, and not at all
    // for an immediate divisor other than -1.
    Label done = as_.newLabel();
    bool minus_one = !v.rhsImm || (is64 ? v.imm == ~0ull
                                        : uint32_t(v.imm) == 0xFFFFFFFFu);
    if (is_signed && minus_one) {
        Label do_div = as_.newLabel();
        if (is64)
            as_.cmpRI64(rcx, -1);
        else
            as_.cmpRI32(rcx, 0xFFFFFFFFu);
        as_.jcc(Cond::ne, do_div);
        if (is_rem) {
            // INT_MIN % -1 == 0 (never traps).
            zeroGpr(rdx);
            as_.jmp(done);
        } else {
            if (is64) {
                as_.movRI64(rdx, 0x8000000000000000ull);
                as_.cmpRR64(rax, rdx);
            } else {
                as_.cmpRI32(rax, 0x80000000u);
            }
            as_.jcc(Cond::e, trapLabel(TrapKind::integer_overflow));
        }
        as_.bind(do_div);
    }
    if (is_signed && is64) {
        as_.cqo();
        as_.idiv64(rcx);
    } else if (is_signed) {
        as_.cdq();
        as_.idiv32(rcx);
    } else {
        zeroGpr(rdx);
        if (is64)
            as_.div64(rcx);
        else
            as_.div32(rcx);
    }
    as_.bind(done);

    storeGpr(is64, v.dst, is_rem ? rdx : rax);
}

void
FunctionCompiler::emitFloatMinMax(Op op, const Operands& v)
{
    bool is32 = op == Op::f32_min || op == Op::f32_max;
    bool is_min = op == Op::f32_min || op == Op::f64_min;

    loadRhsXmm(is32, xmm1, v);
    loadXmm(is32, xmm0, v.lhs);
    if (is32)
        as_.ucomiss(xmm0, xmm1);
    else
        as_.ucomisd(xmm0, xmm1);

    Label nan = as_.newLabel(), take_b = as_.newLabel(),
          store = as_.newLabel(), equal = as_.newLabel();
    as_.jcc(Cond::p, nan);
    as_.jcc(Cond::e, equal);
    as_.jcc(is_min ? Cond::a : Cond::b, take_b);
    as_.jmp(store); // keep a

    as_.bind(equal);
    // ±0 handling: OR merges signs for min (-0 wins), AND for max.
    if (is_min) {
        if (is32)
            as_.orps(xmm0, xmm1);
        else
            as_.orpd(xmm0, xmm1);
    } else {
        if (is32)
            as_.andps(xmm0, xmm1);
        else
            as_.andpd(xmm0, xmm1);
    }
    as_.jmp(store);

    as_.bind(take_b);
    as_.movapsRR(xmm0, xmm1);
    as_.jmp(store);

    as_.bind(nan);
    if (is32)
        loadF32Const(xmm0, kF32QuietNaN);
    else
        loadF64Const(xmm0, kF64QuietNaN);

    as_.bind(store);
    storeXmm(v.dst, xmm0);
}

void
FunctionCompiler::emitFloatCompare(Op op, const Operands& v)
{
    bool is32 = op >= Op::f32_eq && op <= Op::f32_ge;
    // lhs in xmm0, rhs in xmm1; ucomis @p x against @p y.
    loadRhsXmm(is32, xmm1, v);
    loadXmm(is32, xmm0, v.lhs);
    auto cmp = [&](Xmm x, Xmm y) {
        if (is32)
            as_.ucomiss(x, y);
        else
            as_.ucomisd(x, y);
    };

    switch (op) {
      case Op::f32_eq:
      case Op::f64_eq:
        cmp(xmm0, xmm1);
        as_.setcc(Cond::e, rax);
        as_.setcc(Cond::np, rcx);
        as_.andRR32(rax, rcx);
        as_.movzxRR8(rax, rax);
        break;
      case Op::f32_ne:
      case Op::f64_ne:
        cmp(xmm0, xmm1);
        as_.setcc(Cond::ne, rax);
        as_.setcc(Cond::p, rcx);
        as_.orRR32(rax, rcx);
        as_.movzxRR8(rax, rax);
        break;
      case Op::f32_lt:
      case Op::f64_lt:
        cmp(xmm1, xmm0); // reversed: a < b  <=>  b `above` a
        materializeCond(Cond::a);
        break;
      case Op::f32_gt:
      case Op::f64_gt:
        cmp(xmm0, xmm1);
        materializeCond(Cond::a);
        break;
      case Op::f32_le:
      case Op::f64_le:
        cmp(xmm1, xmm0);
        materializeCond(Cond::ae);
        break;
      case Op::f32_ge:
      case Op::f64_ge:
        cmp(xmm0, xmm1);
        materializeCond(Cond::ae);
        break;
      default:
        assert(false);
    }
    storeGpr32(v.dst, rax);
}

/** With @p branch, jump there on @p cond instead of materializing the
 * result: the branch popped it, so the result cell is never written. */
void
FunctionCompiler::emitIntCompare(const Operands& v, bool is64, Cond cond,
                                 const Label* branch)
{
    // cmp reads lhs in its home; a frame cell stages in rax.
    int s = slotRegIndex(v.lhs);
    Reg lhs = s >= 0 ? kSlotGpr[s] : rax;
    if (s < 0)
        loadGpr(is64, rax, v.lhs);
    emitAluRhs(kAluCmp, is64, lhs, v);
    if (branch != nullptr) {
        as_.jcc(cond, *branch);
        return;
    }
    materializeCond(cond);
    storeGpr32(v.dst, rax);
}

void
FunctionCompiler::emitIntBinop(Op op, const Operands& v, bool is64)
{
    uint8_t ext = aluExt(op);
    int sl = slotRegIndex(v.lhs);
    if (ext == kAluImul && v.rhsImm && v.lhs != v.dst && sl >= 0 &&
        (!is64 || int64_t(v.imm) == int32_t(v.imm))) {
        // imul's three-operand form reads lhs in its home.
        int sd = slotRegIndex(v.dst);
        Reg reg = sd >= 0 ? kSlotGpr[sd] : rax;
        if (is64)
            as_.imulRRI64(reg, kSlotGpr[sl], int32_t(v.imm));
        else
            as_.imulRRI32(reg, kSlotGpr[sl], int32_t(v.imm));
        storeGpr(is64, v.dst, reg);
        return;
    }
    Reg reg = workReg(is64, v);
    emitAluRhs(ext, is64, reg, v);
    storeGpr(is64, v.dst, reg);
}

void
FunctionCompiler::emitShift(Op op, const Operands& v, bool is64)
{
    uint8_t ext = op == Op::i32_shl || op == Op::i64_shl         ? 4
                  : op == Op::i32_shr_u || op == Op::i64_shr_u   ? 5
                  : op == Op::i32_shr_s || op == Op::i64_shr_s   ? 7
                  : op == Op::i32_rotl || op == Op::i64_rotl     ? 0
                                                                 : 1;
    if (v.rhsImm) {
        // An immediate count is masked here exactly as wasm and the
        // hardware mask a count in cl.
        Reg reg = workReg(is64, v);
        uint8_t count = uint8_t(v.imm & (is64 ? 63 : 31));
        if (is64)
            as_.shiftImm64(ext, reg, count);
        else
            as_.shiftImm32(ext, reg, count);
        storeGpr(is64, v.dst, reg);
        return;
    }
    // The count moves to cl first, so dst's home is free to shift in.
    loadGpr(is64, rcx, v.rhs);
    Operands counted = v;
    counted.rhsImm = true;
    Reg reg = workReg(is64, counted);
    if (is64)
        as_.shiftCl64(ext, reg);
    else
        as_.shiftCl32(ext, reg);
    storeGpr(is64, v.dst, reg);
}

void
FunctionCompiler::emitTruncChecked(Op op, const Operands& v)
{
    bool src32 = op == Op::i32_trunc_f32_s || op == Op::i32_trunc_f32_u ||
                 op == Op::i64_trunc_f32_s || op == Op::i64_trunc_f32_u;
    loadXmm(src32, xmm0, v.lhs);

    Label ok = as_.newLabel();
    Label trap_check = as_.newLabel();

    auto emitNanOrOverflowTrap = [&] {
        as_.bind(trap_check);
        if (src32)
            as_.ucomiss(xmm0, xmm0);
        else
            as_.ucomisd(xmm0, xmm0);
        as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
        as_.jmp(trapLabel(TrapKind::integer_overflow));
    };

    switch (op) {
      case Op::i32_trunc_f32_s:
      case Op::i32_trunc_f64_s: {
        if (src32)
            as_.cvttss2si32(rax, xmm0);
        else
            as_.cvttsd2si32(rax, xmm0);
        as_.cmpRI32(rax, 0x80000000u);
        as_.jcc(Cond::ne, ok);
        // Sentinel: valid iff the input truncates to exactly INT32_MIN,
        // i.e. x in (-2^31 - 1, -2^31]. In f32 no value lies strictly
        // between, so the bound is -2^31 itself; in f64 values like
        // -2147483648.9 are valid.
        if (src32) {
            loadF32Const(xmm1, kF32BitsIntMin);
            as_.ucomiss(xmm0, xmm1);
            as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
            as_.jcc(Cond::b, trapLabel(TrapKind::integer_overflow));
        } else {
            loadF64Const(xmm1, 0xC1E0000000200000ull); // -2147483649.0
            as_.ucomisd(xmm0, xmm1);
            as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
            as_.jcc(Cond::be, trapLabel(TrapKind::integer_overflow));
        }
        // x >= 2^31 also produces the sentinel; reject it.
        if (src32) {
            loadF32Const(xmm1, kF32Bits2p31);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, kF64Bits2p31);
            as_.ucomisd(xmm0, xmm1);
        }
        as_.jcc(Cond::ae, trapLabel(TrapKind::integer_overflow));
        as_.bind(ok);
        storeGpr32(v.dst, rax);
        return;
      }

      case Op::i32_trunc_f32_u:
      case Op::i32_trunc_f64_u: {
        // Truncate through 64-bit signed; valid iff 0 <= v <= UINT32_MAX.
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.movRR64(rcx, rax);
        as_.shiftImm64(5, rcx, 32); // shr: any high bit -> out of range
        as_.testRR64(rcx, rcx);
        as_.jcc(Cond::ne, trap_check);
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, trap_check);
        as_.jmp(ok);
        emitNanOrOverflowTrap();
        as_.bind(ok);
        storeGpr32(v.dst, rax);
        return;
      }

      case Op::i64_trunc_f32_s:
      case Op::i64_trunc_f64_s: {
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.cmpRR64(rax, rcx);
        as_.jcc(Cond::ne, ok);
        if (src32) {
            loadF32Const(xmm1, kF32BitsI64Min);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, kF64BitsI64Min);
            as_.ucomisd(xmm0, xmm1);
        }
        as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
        as_.jcc(Cond::ne, trapLabel(TrapKind::integer_overflow));
        as_.bind(ok);
        storeGpr64(v.dst, rax);
        return;
      }

      case Op::i64_trunc_f32_u:
      case Op::i64_trunc_f64_u: {
        Label big = as_.newLabel();
        if (src32) {
            loadF32Const(xmm1, kF32Bits2p63);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, kF64Bits2p63);
            as_.ucomisd(xmm0, xmm1);
        }
        as_.jcc(Cond::ae, big);
        // Small (or NaN, which falls here via CF=1): direct convert.
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, trap_check);
        as_.jmp(ok);

        as_.bind(big);
        if (src32) {
            as_.subss(xmm0, xmm1);
            as_.cvttss2si64(rax, xmm0);
        } else {
            as_.subsd(xmm0, xmm1);
            as_.cvttsd2si64(rax, xmm0);
        }
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, trapLabel(TrapKind::integer_overflow));
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.addRR64(rax, rcx);
        as_.jmp(ok);

        emitNanOrOverflowTrap();
        as_.bind(ok);
        storeGpr64(v.dst, rax);
        return;
      }

      default:
        assert(false);
    }
}

void
FunctionCompiler::emitTruncSat(Op op, const Operands& v)
{
    bool src32 = op == Op::i32_trunc_sat_f32_s ||
                 op == Op::i32_trunc_sat_f32_u ||
                 op == Op::i64_trunc_sat_f32_s ||
                 op == Op::i64_trunc_sat_f32_u;
    loadXmm(src32, xmm0, v.lhs);

    auto ucomiSelf = [&] {
        if (src32)
            as_.ucomiss(xmm0, xmm0);
        else
            as_.ucomisd(xmm0, xmm0);
    };
    auto ucomiConst = [&](uint64_t bits64, uint32_t bits32) {
        if (src32) {
            loadF32Const(xmm1, bits32);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, bits64);
            as_.ucomisd(xmm0, xmm1);
        }
    };

    Label ok = as_.newLabel();
    switch (op) {
      case Op::i32_trunc_sat_f32_s:
      case Op::i32_trunc_sat_f64_s: {
        Label sat = as_.newLabel();
        if (src32)
            as_.cvttss2si32(rax, xmm0);
        else
            as_.cvttsd2si32(rax, xmm0);
        as_.cmpRI32(rax, 0x80000000u);
        as_.jcc(Cond::ne, ok);
        ucomiSelf();
        Label not_nan = as_.newLabel();
        as_.jcc(Cond::np, not_nan);
        zeroGpr(rax);
        as_.jmp(ok);
        as_.bind(not_nan);
        as_.bind(sat);
        // Negative -> INT32_MIN (already in rax); positive -> INT32_MAX.
        as_.pxor(xmm1, xmm1);
        if (src32)
            as_.ucomiss(xmm0, xmm1);
        else
            as_.ucomisd(xmm0, xmm1);
        as_.jcc(Cond::b, ok); // below zero: keep INT32_MIN
        as_.movRI32(rax, 0x7FFFFFFFu);
        as_.bind(ok);
        storeGpr32(v.dst, rax);
        return;
      }

      case Op::i32_trunc_sat_f32_u:
      case Op::i32_trunc_sat_f64_u: {
        Label sat_max = as_.newLabel();
        ucomiConst(kF64Bits2p32, kF32Bits2p32);
        as_.jcc(Cond::ae, sat_max);
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        // NaN/negative -> clamp to zero.
        zeroGpr(rcx);
        as_.testRR64(rax, rax);
        as_.cmovcc64(Cond::s, rax, rcx);
        as_.jmp(ok);
        as_.bind(sat_max);
        as_.movRI32(rax, 0xFFFFFFFFu);
        as_.bind(ok);
        storeGpr32(v.dst, rax);
        return;
      }

      case Op::i64_trunc_sat_f32_s:
      case Op::i64_trunc_sat_f64_s: {
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.cmpRR64(rax, rcx);
        as_.jcc(Cond::ne, ok);
        ucomiSelf();
        Label not_nan = as_.newLabel();
        as_.jcc(Cond::np, not_nan);
        zeroGpr(rax);
        as_.jmp(ok);
        as_.bind(not_nan);
        as_.pxor(xmm1, xmm1);
        if (src32)
            as_.ucomiss(xmm0, xmm1);
        else
            as_.ucomisd(xmm0, xmm1);
        as_.jcc(Cond::b, ok); // negative: keep INT64_MIN
        as_.movRI64(rax, 0x7FFFFFFFFFFFFFFFull);
        as_.bind(ok);
        storeGpr64(v.dst, rax);
        return;
      }

      case Op::i64_trunc_sat_f32_u:
      case Op::i64_trunc_sat_f64_u: {
        Label sat_max = as_.newLabel(), big = as_.newLabel(),
              zero = as_.newLabel();
        ucomiConst(kF64Bits2p64, kF32Bits2p64);
        as_.jcc(Cond::ae, sat_max);
        ucomiConst(kF64Bits2p63, kF32Bits2p63);
        as_.jcc(Cond::ae, big);
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, zero); // NaN or negative
        as_.jmp(ok);
        as_.bind(big);
        if (src32) {
            as_.subss(xmm0, xmm1);
            as_.cvttss2si64(rax, xmm0);
        } else {
            as_.subsd(xmm0, xmm1);
            as_.cvttsd2si64(rax, xmm0);
        }
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.addRR64(rax, rcx);
        as_.jmp(ok);
        as_.bind(sat_max);
        as_.movRI64(rax, 0xFFFFFFFFFFFFFFFFull);
        as_.jmp(ok);
        as_.bind(zero);
        zeroGpr(rax);
        as_.bind(ok);
        storeGpr64(v.dst, rax);
        return;
      }

      default:
        assert(false);
    }
}

void
FunctionCompiler::emitConvert(Op op, const Operands& v)
{
    switch (op) {
      case Op::f32_convert_i32_s:
        loadGpr32(rax, v.lhs);
        as_.cvtsi2ss32(xmm0, rax);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f32_convert_i32_u:
        loadGpr32(rax, v.lhs); // zero-extend, then 64-bit convert is exact
        as_.cvtsi2ss64(xmm0, rax);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f64_convert_i32_s:
        loadGpr32(rax, v.lhs);
        as_.cvtsi2sd32(xmm0, rax);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f64_convert_i32_u:
        loadGpr32(rax, v.lhs);
        as_.cvtsi2sd64(xmm0, rax);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f32_convert_i64_s:
        loadGpr64(rax, v.lhs);
        as_.cvtsi2ss64(xmm0, rax);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f64_convert_i64_s:
        loadGpr64(rax, v.lhs);
        as_.cvtsi2sd64(xmm0, rax);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f32_convert_i64_u:
      case Op::f64_convert_i64_u: {
        bool to32 = op == Op::f32_convert_i64_u;
        loadGpr64(rax, v.lhs);
        Label negative = as_.newLabel(), done = as_.newLabel();
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, negative);
        if (to32)
            as_.cvtsi2ss64(xmm0, rax);
        else
            as_.cvtsi2sd64(xmm0, rax);
        as_.jmp(done);
        as_.bind(negative);
        // (x >> 1 | x & 1) rounds to odd, halving keeps it in range;
        // doubling after the convert restores the magnitude.
        as_.movRR64(rcx, rax);
        as_.shiftImm64(5, rcx, 1); // shr
        as_.aluRI64(4, rax, 1);    // and
        as_.orRR64(rcx, rax);
        if (to32) {
            as_.cvtsi2ss64(xmm0, rcx);
            as_.addss(xmm0, xmm0);
        } else {
            as_.cvtsi2sd64(xmm0, rcx);
            as_.addsd(xmm0, xmm0);
        }
        as_.bind(done);
        storeXmm(v.dst, xmm0);
        return;
      }
      case Op::f32_demote_f64:
        loadXmm64(xmm0, v.lhs);
        as_.cvtsd2ss(xmm0, xmm0);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f64_promote_f32:
        loadXmm32(xmm0, v.lhs);
        as_.cvtss2sd(xmm0, xmm0);
        storeXmm(v.dst, xmm0);
        return;
      default:
        assert(false);
    }
}

void
FunctionCompiler::emitWasmOp(const LInst& inst)
{
    Op op = Op(inst.op);
    if (wasm::formDefined(wasm::IrForm::rr, op) ||
        wasm::formDefined(wasm::IrForm::r, op)) {
        // A stack op: the result replaces lhs in cell a, rhs is cell b.
        emitValueOp(op, Operands{inst.a, inst.a, inst.b, false, inst.imm});
        return;
    }
    if (wasm::isStoreOp(op)) {
        emitStore(inst);
        return;
    }
    if (wasm::isAtomicOp(op)) {
        emitAtomic(inst);
        return;
    }

    switch (op) {
      // ----- constants -----
      case Op::i32_const:
      case Op::i64_const: {
        // Materialize in the register home, or in rax for a frame cell.
        bool is64 = op == Op::i64_const;
        uint64_t imm = is64 ? inst.imm : uint32_t(inst.imm);
        int dst = slotRegIndex(inst.a);
        Reg target = dst >= 0 ? kSlotGpr[dst] : rax;
        if (imm == 0)
            zeroGpr(target);
        else if (imm <= UINT32_MAX)
            as_.movRI32(target, uint32_t(imm));
        else
            as_.movRI64(target, imm);
        storeGpr(is64, inst.a, target);
        return;
      }
      case Op::f32_const:
        as_.movRI32(rax, uint32_t(inst.imm));
        storeBits64(inst.a, rax, RC::fpr);
        return;
      case Op::f64_const:
        if (inst.imm <= UINT32_MAX)
            as_.movRI32(rax, uint32_t(inst.imm));
        else
            as_.movRI64(rax, inst.imm);
        storeBits64(inst.a, rax, RC::fpr);
        return;

      // ----- memory management -----
      case Op::memory_size:
        if (opts_.sharedMemory) {
            // Synchronization point on shared memories: the glue
            // refreshes ctx->memSize from the authoritative size word.
            spillLiveHomes(inst.aux, inst.a);
            as_.movRR64(rdi, kCtxReg);
            callGlue(kGlueMemSize);
            reloadLiveHomes(inst.aux, inst.a);
            storeGpr32(inst.a, rax);
            return;
        }
        as_.movRM64(rax, CTX_FIELD(memSize));
        as_.shiftImm64(5, rax, 16); // bytes -> 64 KiB pages
        storeGpr32(inst.a, rax);
        return;
      case Op::memory_grow:
        spillLiveHomes(inst.aux, inst.a);
        loadGpr32(rsi, inst.a);
        as_.movRR64(rdi, kCtxReg);
        callGlue(kGlueMemGrow);
        reloadLiveHomes(inst.aux, inst.a);
        storeGpr32(inst.a, rax);
        return;
      case Op::memory_copy:
      case Op::memory_fill: {
        GlueSym glue = op == Op::memory_copy ? kGlueMemCopy : kGlueMemFill;
        spillLiveHomes(inst.aux, inst.a);
        // Highest operand first, ctx last (see emitAtomic).
        loadGpr32(rcx, inst.a + 2);
        loadGpr32(rdx, inst.a + 1);
        loadGpr32(rsi, inst.a);
        as_.movRR64(rdi, kCtxReg);
        callGlue(glue);
        reloadLiveHomes(inst.aux, inst.a);
        return;
      }

      // ----- parametric / globals -----
      case Op::select: {
        RC rc = classOf(ValType(inst.aux));
        loadGpr32(rcx, inst.a + 2);
        loadBits64(rax, inst.a, rc);
        loadBits64(rdx, inst.a + 1, rc);
        as_.testRR32(rcx, rcx);
        as_.cmovcc64(Cond::e, rax, rdx);
        storeBits64(inst.a, rax, rc);
        return;
      }
      case Op::global_get: {
        RC rc = classOf(ValType(inst.aux));
        as_.movRM64(rcx, CTX_FIELD(globals));
        as_.movRM64(rax, Mem{rcx, int32_t(inst.b * 8)});
        storeBits64(inst.a, rax, rc);
        return;
      }
      case Op::global_set: {
        RC rc = classOf(ValType(inst.aux));
        loadBits64(rax, inst.a, rc);
        as_.movRM64(rcx, CTX_FIELD(globals));
        as_.movMR64(Mem{rcx, int32_t(inst.b * 8)}, rax);
        return;
      }

      default:
        assert(false && "unhandled op in JIT");
        as_.ud2();
        return;
    }
}

/** Every op with a register form: loads and the pure value ops. */
void
FunctionCompiler::emitValueOp(Op op, const Operands& v)
{
    if (wasm::isLoadOp(op)) {
        emitLoad(op, v);
        return;
    }
    bool is64;
    Cond cond;
    if (intCompare(uint16_t(op), is64, cond)) {
        emitIntCompare(v, is64, cond);
        return;
    }

    switch (op) {

      // ----- eqz (two-operand int compares are handled above) -----
      case Op::i32_eqz:
        loadGpr32(rax, v.lhs);
        as_.testRR32(rax, rax);
        materializeCond(Cond::e);
        storeGpr32(v.dst, rax);
        return;
      case Op::i64_eqz:
        loadGpr64(rax, v.lhs);
        as_.testRR64(rax, rax);
        materializeCond(Cond::e);
        storeGpr32(v.dst, rax);
        return;

      // ----- float compares -----
      case Op::f32_eq: case Op::f32_ne: case Op::f32_lt:
      case Op::f32_gt: case Op::f32_le: case Op::f32_ge:
      case Op::f64_eq: case Op::f64_ne: case Op::f64_lt:
      case Op::f64_gt: case Op::f64_le: case Op::f64_ge:
        emitFloatCompare(op, v);
        return;

      // ----- int arithmetic -----
      case Op::i32_add: case Op::i32_sub: case Op::i32_mul:
      case Op::i32_and: case Op::i32_or: case Op::i32_xor:
        emitIntBinop(op, v, false);
        return;
      case Op::i64_add: case Op::i64_sub: case Op::i64_mul:
      case Op::i64_and: case Op::i64_or: case Op::i64_xor:
        emitIntBinop(op, v, true);
        return;

      case Op::i32_div_s: case Op::i32_div_u:
      case Op::i32_rem_s: case Op::i32_rem_u:
      case Op::i64_div_s: case Op::i64_div_u:
      case Op::i64_rem_s: case Op::i64_rem_u:
        emitIntDivRem(op, v);
        return;

      // ----- shifts / rotates -----
      case Op::i32_shl: case Op::i32_shr_s: case Op::i32_shr_u:
      case Op::i32_rotl: case Op::i32_rotr:
        emitShift(op, v, false);
        return;
      case Op::i64_shl: case Op::i64_shr_s: case Op::i64_shr_u:
      case Op::i64_rotl: case Op::i64_rotr:
        emitShift(op, v, true);
        return;

      // ----- bit counting -----
      case Op::i32_clz:
        loadGpr32(rcx, v.lhs);
        as_.bsr32(rax, rcx);
        as_.movRI32(rdx, 0xFFFFFFFFu);
        as_.cmovcc32(Cond::e, rax, rdx); // src == 0 -> -1
        as_.movRI32(rcx, 31);
        as_.subRR32(rcx, rax); // 31 - (-1) == 32
        storeGpr32(v.dst, rcx);
        return;
      case Op::i32_ctz:
        loadGpr32(rcx, v.lhs);
        as_.bsf32(rax, rcx);
        as_.movRI32(rdx, 32);
        as_.cmovcc32(Cond::e, rax, rdx);
        storeGpr32(v.dst, rax);
        return;
      case Op::i64_clz:
        loadGpr64(rcx, v.lhs);
        as_.bsr64(rax, rcx);
        as_.movRI64(rdx, ~0ull);
        as_.cmovcc64(Cond::e, rax, rdx);
        as_.movRI32(rcx, 63);
        as_.subRR64(rcx, rax);
        storeGpr64(v.dst, rcx);
        return;
      case Op::i64_ctz:
        loadGpr64(rcx, v.lhs);
        as_.bsf64(rax, rcx);
        as_.movRI32(rdx, 64);
        as_.cmovcc64(Cond::e, rax, rdx);
        storeGpr64(v.dst, rax);
        return;
      case Op::i32_popcnt:
        loadGpr32(rcx, v.lhs);
        as_.popcnt32(rax, rcx);
        storeGpr32(v.dst, rax);
        return;
      case Op::i64_popcnt:
        loadGpr64(rcx, v.lhs);
        as_.popcnt64(rax, rcx);
        storeGpr64(v.dst, rax);
        return;

      // ----- float arithmetic -----
      case Op::f32_add: case Op::f32_sub: case Op::f32_mul:
      case Op::f32_div:
      case Op::f64_add: case Op::f64_sub: case Op::f64_mul:
      case Op::f64_div: {
        // addss/subss/mulss/divss (F3) and the sd forms (F2), in dst's
        // home (see workXmm) with the rhs read from its home or staged
        // in xmm1 when it is an immediate.
        static constexpr uint8_t kSseArith[4] = {0x58, 0x5C, 0x59, 0x5E};
        bool is32 = op >= Op::f32_add && op <= Op::f32_div;
        uint8_t prefix = is32 ? 0xF3 : 0xF2;
        uint8_t opcode = kSseArith[uint16_t(op) -
                                   uint16_t(is32 ? Op::f32_add
                                                 : Op::f64_add)];
        Xmm reg = workXmm(is32, v);
        int sb = v.rhsImm ? -1 : slotRegIndex(v.rhs);
        if (v.rhsImm) {
            loadRhsXmm(is32, xmm1, v);
            as_.sseOp(prefix, opcode, reg, xmm1);
        } else if (sb >= 0) {
            as_.sseOp(prefix, opcode, reg, kSlotXmm[sb]);
        } else {
            as_.sseOpRM(prefix, opcode, reg, cellMem(v.rhs));
        }
        storeXmm(v.dst, reg);
        return;
      }

      case Op::f32_min: case Op::f32_max:
      case Op::f64_min: case Op::f64_max:
        emitFloatMinMax(op, v);
        return;

      case Op::f32_sqrt:
        loadXmm32(xmm0, v.lhs);
        as_.sqrtss(xmm0, xmm0);
        storeXmm(v.dst, xmm0);
        return;
      case Op::f64_sqrt:
        loadXmm64(xmm0, v.lhs);
        as_.sqrtsd(xmm0, xmm0);
        storeXmm(v.dst, xmm0);
        return;

      // Rounding: roundss/roundsd immediate (0=nearest 1=floor 2=ceil
      // 3=trunc).
      case Op::f32_ceil: case Op::f32_floor: case Op::f32_trunc:
      case Op::f32_nearest: {
        uint8_t mode = op == Op::f32_nearest ? 0
                       : op == Op::f32_floor ? 1
                       : op == Op::f32_ceil  ? 2
                                             : 3;
        loadXmm32(xmm0, v.lhs);
        as_.roundss(xmm0, xmm0, mode);
        storeXmm(v.dst, xmm0);
        return;
      }
      case Op::f64_ceil: case Op::f64_floor: case Op::f64_trunc:
      case Op::f64_nearest: {
        uint8_t mode = op == Op::f64_nearest ? 0
                       : op == Op::f64_floor ? 1
                       : op == Op::f64_ceil  ? 2
                                             : 3;
        loadXmm64(xmm0, v.lhs);
        as_.roundsd(xmm0, xmm0, mode);
        storeXmm(v.dst, xmm0);
        return;
      }

      // Sign-bit manipulation in integer registers.
      case Op::f32_abs:
        loadBits64(rax, v.lhs, RC::fpr);
        as_.andRI32(rax, 0x7FFFFFFFu);
        storeBits64(v.dst, rax, RC::fpr);
        return;
      case Op::f32_neg:
        loadBits64(rax, v.lhs, RC::fpr);
        as_.movRI32(rcx, 0x80000000u);
        as_.xorRR32(rax, rcx);
        storeBits64(v.dst, rax, RC::fpr);
        return;
      case Op::f64_abs:
        loadBits64(rax, v.lhs, RC::fpr);
        as_.movRI64(rcx, 0x7FFFFFFFFFFFFFFFull);
        as_.andRR64(rax, rcx);
        storeBits64(v.dst, rax, RC::fpr);
        return;
      case Op::f64_neg:
        loadBits64(rax, v.lhs, RC::fpr);
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.xorRR64(rax, rcx);
        storeBits64(v.dst, rax, RC::fpr);
        return;
      case Op::f32_copysign:
        loadBits64(rax, v.lhs, RC::fpr);
        if (v.rhsImm)
            as_.movRI64(rcx, v.imm);
        else
            loadBits64(rcx, v.rhs, RC::fpr);
        as_.andRI32(rax, 0x7FFFFFFFu);
        as_.movRI32(rdx, 0x80000000u);
        as_.andRR32(rcx, rdx);
        as_.orRR32(rax, rcx);
        storeBits64(v.dst, rax, RC::fpr);
        return;
      case Op::f64_copysign:
        loadBits64(rax, v.lhs, RC::fpr);
        if (v.rhsImm)
            as_.movRI64(rcx, v.imm);
        else
            loadBits64(rcx, v.rhs, RC::fpr);
        as_.movRI64(rdx, 0x7FFFFFFFFFFFFFFFull);
        as_.andRR64(rax, rdx);
        as_.movRI64(rdx, 0x8000000000000000ull);
        as_.andRR64(rcx, rdx);
        as_.orRR64(rax, rcx);
        storeBits64(v.dst, rax, RC::fpr);
        return;

      // ----- conversions -----
      case Op::i32_wrap_i64:
        loadGpr32(rax, v.lhs); // take the low 32 bits, zero-extended
        storeGpr32(v.dst, rax);
        return;
      case Op::i64_extend_i32_s:
        loadGpr32(rax, v.lhs);
        as_.movsxdRR(rax, rax);
        storeGpr64(v.dst, rax);
        return;
      case Op::i64_extend_i32_u: {
        // A 32-bit move zero-extends, so load straight into dst's home;
        // in place, a home a 32-bit op wrote last needs no move at all.
        int s = slotRegIndex(v.dst);
        Reg reg = s >= 0 ? kSlotGpr[s] : rax;
        if (v.lhs != v.dst || !knownZeroExtended(v.lhs))
            loadGpr32(reg, v.lhs);
        storeGpr64(v.dst, reg);
        return;
      }

      case Op::i32_trunc_f32_s: case Op::i32_trunc_f32_u:
      case Op::i32_trunc_f64_s: case Op::i32_trunc_f64_u:
      case Op::i64_trunc_f32_s: case Op::i64_trunc_f32_u:
      case Op::i64_trunc_f64_s: case Op::i64_trunc_f64_u:
        emitTruncChecked(op, v);
        return;

      case Op::i32_trunc_sat_f32_s: case Op::i32_trunc_sat_f32_u:
      case Op::i32_trunc_sat_f64_s: case Op::i32_trunc_sat_f64_u:
      case Op::i64_trunc_sat_f32_s: case Op::i64_trunc_sat_f32_u:
      case Op::i64_trunc_sat_f64_s: case Op::i64_trunc_sat_f64_u:
        emitTruncSat(op, v);
        return;

      case Op::f32_convert_i32_s: case Op::f32_convert_i32_u:
      case Op::f32_convert_i64_s: case Op::f32_convert_i64_u:
      case Op::f64_convert_i32_s: case Op::f64_convert_i32_u:
      case Op::f64_convert_i64_s: case Op::f64_convert_i64_u:
      case Op::f32_demote_f64: case Op::f64_promote_f32:
        emitConvert(op, v);
        return;

      // Reinterpretations move the bits between register classes.
      case Op::i32_reinterpret_f32:
      case Op::i64_reinterpret_f64:
        loadBits64(rax, v.lhs, RC::fpr);
        storeBits64(v.dst, rax, RC::gpr);
        return;
      case Op::f32_reinterpret_i32:
      case Op::f64_reinterpret_i64:
        loadBits64(rax, v.lhs, RC::gpr);
        storeBits64(v.dst, rax, RC::fpr);
        return;

      // ----- sign extension -----
      case Op::i32_extend8_s:
        loadGpr32(rax, v.lhs);
        as_.movsxRR8_32(rax, rax);
        storeGpr32(v.dst, rax);
        return;
      case Op::i32_extend16_s:
        loadGpr32(rax, v.lhs);
        as_.movsxRR16_32(rax, rax);
        storeGpr32(v.dst, rax);
        return;
      case Op::i64_extend8_s:
        loadGpr64(rax, v.lhs);
        as_.movsxRR8_64(rax, rax);
        storeGpr64(v.dst, rax);
        return;
      case Op::i64_extend16_s:
        loadGpr64(rax, v.lhs);
        as_.movsxRR16_64(rax, rax);
        storeGpr64(v.dst, rax);
        return;
      case Op::i64_extend32_s:
        loadGpr64(rax, v.lhs);
        as_.movsxdRR(rax, rax);
        storeGpr64(v.dst, rax);
        return;

      default:
        assert(false && "unhandled op in JIT");
        as_.ud2();
        return;
    }
}

// ---------------------------------------------------------------------
// Module-level driver
// ---------------------------------------------------------------------

class ModuleArtifact : public CompiledCode
{
  public:
    EntryFn
    entry(uint32_t func_idx) const override
    {
        uint32_t defined = func_idx - numImports_ - firstDefined_;
        return reinterpret_cast<EntryFn>(buffer_->data() +
                                         entryOffsets_[defined]);
    }

    size_t codeBytes() const override { return buffer_->used(); }
    const uint8_t* codeData() const override { return buffer_->data(); }

    std::string
    dumpFunction(uint32_t func_idx) const override
    {
        uint32_t defined = func_idx - numImports_ - firstDefined_;
        size_t begin = entryOffsets_[defined];
        size_t end = defined + 1 < entryOffsets_.size()
                         ? entryOffsets_[defined + 1]
                         : buffer_->used();
        std::string out;
        char hex[4];
        for (size_t i = begin; i < end; i++) {
            std::snprintf(hex, sizeof hex, "%02x ", buffer_->data()[i]);
            out += hex;
            if ((i - begin) % 16 == 15)
                out += '\n';
        }
        out += '\n';
        return out;
    }

    /** Profiler symbolization table. Declared before buffer_ on
     * purpose: members destroy in reverse order, so the buffer
     * (unregister + quiesce in-flight SIGPROF lookups) goes first and
     * the table outlives every reader. */
    mem::JitCodeInfo codeInfo_;
    std::unique_ptr<CodeBuffer> buffer_;
    std::vector<size_t> entryOffsets_; ///< per compiled function
    uint32_t numImports_ = 0;
    /** First defined-function index covered by entryOffsets_ (non-zero
     * for single-function tier-up artifacts). */
    uint32_t firstDefined_ = 0;
    /** Absolute-address sites recorded at emit time; everything a
     * serialized copy of the code must re-patch (DESIGN.md §14). */
    std::vector<Reloc> relocs_;

    /** Fill codeInfo_ from the collected offsets + check ranges. */
    void
    buildCodeInfo(uint8_t tier,
                  const std::vector<std::pair<uint32_t, uint32_t>>& checks)
    {
        codeInfo_.tier = tier;
        codeInfo_.funcStarts.reserve(entryOffsets_.size());
        codeInfo_.funcIndices.reserve(entryOffsets_.size());
        for (size_t i = 0; i < entryOffsets_.size(); i++) {
            codeInfo_.funcStarts.push_back(uint32_t(entryOffsets_[i]));
            codeInfo_.funcIndices.push_back(numImports_ + firstDefined_ +
                                            uint32_t(i));
        }
        codeInfo_.checkStarts.reserve(checks.size());
        codeInfo_.checkEnds.reserve(checks.size());
        for (const auto& [begin, end] : checks) {
            codeInfo_.checkStarts.push_back(begin);
            codeInfo_.checkEnds.push_back(end);
        }
    }
};

} // namespace

bool
jitSupported()
{
#if defined(__x86_64__)
    unsigned eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return false;
    bool sse41 = (ecx & (1u << 19)) != 0;
    bool popcnt = (ecx & (1u << 23)) != 0;
    return sse41 && popcnt;
#else
    return false;
#endif
}

namespace {

/** Compile defined functions [first, first + count) into one artifact;
 * every outgoing call goes through options.codeTable. */
Result<std::unique_ptr<CompiledCode>>
compileFuncs(const LoweredModule& module, uint32_t first, uint32_t count,
             const JitOptions& options)
{
    if (options.codeTable == nullptr)
        return errInvalid("JIT compilation requires a code table");
    // Size estimate: generous per-instruction expansion plus fixed
    // per-function overhead; grows are handled by failing with a clear
    // error (callers can retry with bigger estimates if ever needed).
    size_t estimate = 4096;
    for (uint32_t i = first; i < first + count; i++) {
        const LoweredFunc& func = module.funcs[i];
        estimate += func.code.size() * 96 + func.numLocalCells * 16 + 512;
    }

    LNB_ASSIGN_OR_RETURN(auto buffer, CodeBuffer::allocate(estimate));
    Assembler as(buffer->data(), buffer->capacity());

    auto artifact = std::make_unique<ModuleArtifact>();
    artifact->numImports_ = module.module.numImportedFuncs();
    artifact->firstDefined_ = first;

    std::vector<std::pair<uint32_t, uint32_t>> check_ranges;
    for (uint32_t i = first; i < first + count; i++) {
        artifact->entryOffsets_.push_back(as.size());
        FunctionCompiler compiler(as, module, module.funcs[i], options,
                                  &check_ranges);
        compiler.compile();
    }

    if (as.overflow())
        return errInternal("JIT code buffer overflow");

    artifact->buildCodeInfo(options.profTier, check_ranges);
    LNB_RETURN_IF_ERROR(buffer->finalize(as.size(), &artifact->codeInfo_));
    jitMetrics().functionsCompiled.add(count);
    jitMetrics().codeBytes.add(as.size());
    artifact->relocs_ = as.takeRelocs();
    artifact->buffer_ = std::move(buffer);
    return std::unique_ptr<CompiledCode>(std::move(artifact));
}

} // namespace

Result<std::unique_ptr<CompiledCode>>
compileModule(const LoweredModule& module, const JitOptions& options)
{
    LNB_TRACE_SCOPE("jit.compile");
    obs::ScopedLatency compile_latency(jitMetrics().compileLatency);
    auto code = compileFuncs(module, 0, uint32_t(module.funcs.size()),
                             options);
    if (code.isOk())
        jitMetrics().modulesCompiled.add();
    return code;
}

Result<std::unique_ptr<CompiledCode>>
compileFunction(const LoweredModule& module, uint32_t func_idx,
                const JitOptions& options)
{
    LNB_TRACE_SCOPE("jit.compile_function");
    return compileFuncs(module, func_idx - module.module.numImportedFuncs(),
                        1, options);
}

// ---------------------------------------------------------------------
// Artifact serialization (the persistent code cache, DESIGN.md §14)
// ---------------------------------------------------------------------

void
serializeCode(const CompiledCode& code, wasm::ByteWriter& w)
{
    const auto& art = static_cast<const ModuleArtifact&>(code);
    const uint8_t* base = art.buffer_->data();

    w.u32(art.numImports_);
    w.u32(art.firstDefined_);
    w.u64(art.buffer_->used());
    w.u64(art.entryOffsets_.size());
    for (size_t off : art.entryOffsets_)
        w.u64(off);

    w.u8(art.codeInfo_.tier);
    w.podVec(art.codeInfo_.funcStarts);
    w.podVec(art.codeInfo_.funcIndices);
    w.podVec(art.codeInfo_.checkStarts);
    w.podVec(art.codeInfo_.checkEnds);

    w.u64(art.relocs_.size());
    for (const Reloc& reloc : art.relocs_) {
        // codeAbs sites were recorded before their labels bound, so the
        // vector holds addend 0; the finished code holds the absolute
        // patched address — recover the base-relative addend here.
        uint64_t addend = reloc.addend;
        if (reloc.kind == RelocKind::codeAbs) {
            uint64_t absolute;
            std::memcpy(&absolute, base + reloc.offset, sizeof absolute);
            addend = absolute - uint64_t(reinterpret_cast<uintptr_t>(base));
        }
        w.u32(reloc.offset);
        w.u8(uint8_t(reloc.kind));
        w.u64(addend);
    }

    w.raw(base, art.buffer_->used());
}

Result<std::unique_ptr<CompiledCode>>
deserializeCode(wasm::ByteReader& r, exec::FuncCode* code_table)
{
    auto artifact = std::make_unique<ModuleArtifact>();
    artifact->numImports_ = r.u32();
    artifact->firstDefined_ = r.u32();
    uint64_t used = r.u64();

    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++)
        artifact->entryOffsets_.push_back(size_t(r.u64()));

    artifact->codeInfo_.tier = r.u8();
    artifact->codeInfo_.funcStarts = r.podVec<uint32_t>();
    artifact->codeInfo_.funcIndices = r.podVec<uint32_t>();
    artifact->codeInfo_.checkStarts = r.podVec<uint32_t>();
    artifact->codeInfo_.checkEnds = r.podVec<uint32_t>();

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        Reloc reloc;
        reloc.offset = r.u32();
        reloc.kind = RelocKind(r.u8());
        reloc.addend = r.u64();
        artifact->relocs_.push_back(reloc);
    }

    const uint8_t* code = r.rawBytes(size_t(used));
    if (!r.ok() || code == nullptr)
        return errInvalid("truncated serialized code artifact");

    LNB_ASSIGN_OR_RETURN(auto buffer, CodeBuffer::allocate(size_t(used)));
    std::memcpy(buffer->data(), code, size_t(used));

    // Patch every absolute-address site against this process's symbols
    // and allocations while the buffer is still RW.
    for (const Reloc& reloc : artifact->relocs_) {
        if (reloc.offset + 8 > used)
            return errInvalid("relocation outside serialized code");
        uint64_t value;
        switch (reloc.kind) {
          case RelocKind::glue: {
            const void* sym = glueSymAddress(reloc.addend);
            if (sym == nullptr)
                return errInvalid("unknown glue symbol in artifact");
            value = uint64_t(reinterpret_cast<uintptr_t>(sym));
            break;
          }
          case RelocKind::codeTable:
            value = uint64_t(reinterpret_cast<uintptr_t>(code_table)) +
                    reloc.addend;
            break;
          case RelocKind::codeAbs:
            value = uint64_t(reinterpret_cast<uintptr_t>(buffer->data())) +
                    reloc.addend;
            break;
          default:
            return errInvalid("unknown relocation kind in artifact");
        }
        std::memcpy(buffer->data() + reloc.offset, &value, sizeof value);
    }

    LNB_RETURN_IF_ERROR(
        buffer->finalize(size_t(used), &artifact->codeInfo_));
    jitMetrics().codeBytes.add(used);
    artifact->buffer_ = std::move(buffer);
    return std::unique_ptr<CompiledCode>(std::move(artifact));
}

} // namespace lnb::jit
