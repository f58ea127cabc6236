#include "wasm/lower.h"

#include <cassert>
#include <cstring>
#include <optional>
#include <string>

namespace lnb::wasm {

namespace {

ValType
sigCharType(char c)
{
    switch (c) {
      case 'i': return ValType::i32;
      case 'I': return ValType::i64;
      case 'f': return ValType::f32;
      default: return ValType::f64;
    }
}

/** Control frame mirroring the validator's, plus lowering state. */
struct Frame
{
    Op opcode; // block, loop or if_
    std::optional<ValType> result;
    uint32_t entryDepth = 0; ///< stack depth at frame entry (cond popped)
    bool unreachable = false;
    /** Instruction indices whose `a` must be patched to the frame's end. */
    std::vector<uint32_t> endFixups;
    /** jump_if_zero emitted by `if`, patched at else/end. */
    uint32_t elseFixup = UINT32_MAX;
    /** Loop start pc (loops only). */
    uint32_t loopStart = 0;

    uint32_t labelArity() const
    {
        if (opcode == Op::loop)
            return 0;
        return result.has_value() ? 1 : 0;
    }
    ValType labelType() const { return *result; }
};

class FuncLowerer
{
  public:
    FuncLowerer(const Module& m, uint32_t func_idx)
        : m_(m),
          type_(m.funcType(func_idx)),
          body_(m.body(func_idx))
    {
        out_.funcIdx = func_idx;
        out_.typeIdx = m.funcTypeIdx(func_idx);
        out_.numParams = uint32_t(type_.params.size());
        out_.numResults = uint16_t(type_.results.size());
        out_.localTypes = type_.params;
        out_.localTypes.insert(out_.localTypes.end(), body_.locals.begin(),
                               body_.locals.end());
        out_.numLocalCells = uint32_t(out_.localTypes.size());
        numLocals_ = out_.numLocalCells;
    }

    LoweredFunc run();

  private:
    // ----- typed-stack helpers -----
    uint32_t depth() const { return uint32_t(stack_.size()); }
    uint32_t cell(uint32_t stack_slot) const { return numLocals_ + stack_slot; }
    uint32_t topCell(uint32_t from_top = 0) const
    {
        return cell(depth() - 1 - from_top);
    }

    void push(ValType t)
    {
        stack_.push_back(t);
        maxDepth_ = std::max(maxDepth_, uint32_t(stack_.size()));
    }
    ValType pop()
    {
        assert(!stack_.empty());
        ValType t = stack_.back();
        stack_.pop_back();
        return t;
    }

    bool live() const { return !ctrl_.back().unreachable; }
    void markUnreachable()
    {
        stack_.resize(ctrl_.back().entryDepth);
        ctrl_.back().unreachable = true;
    }

    // ----- emission -----
    uint32_t emit(LInst inst)
    {
        out_.code.push_back(inst);
        return uint32_t(out_.code.size()) - 1;
    }
    uint32_t pc() const { return uint32_t(out_.code.size()); }

    void emitCopy(uint32_t src, uint32_t dst, ValType t)
    {
        if (src == dst)
            return;
        LInst inst;
        inst.op = uint16_t(LOp::copy);
        inst.aux = uint16_t(t);
        inst.a = src;
        inst.b = dst;
        emit(inst);
    }

    void patch(uint32_t at, uint32_t target) { out_.code[at].a = target; }
    void patchAll(const std::vector<uint32_t>& fixups, uint32_t target)
    {
        for (uint32_t at : fixups)
            patch(at, target);
    }

    Frame& frameAt(uint32_t rel_depth)
    {
        assert(rel_depth < ctrl_.size());
        return ctrl_[ctrl_.size() - 1 - rel_depth];
    }

    std::optional<ValType> blockResult(uint32_t raw) const
    {
        if (raw == kBlockTypeEmpty)
            return std::nullopt;
        ValType t;
        bool ok = valTypeFromCode(uint8_t(raw), t);
        assert(ok);
        (void)ok;
        return t;
    }

    /**
     * Emit value motion for a branch to @p frame, then return the cell the
     * branch value was moved to (unused by callers; copies are the point).
     */
    void emitBranchCopies(Frame& frame, uint32_t values_below_top)
    {
        if (frame.labelArity() == 0)
            return;
        uint32_t src = topCell(values_below_top);
        uint32_t dst = cell(frame.entryDepth);
        emitCopy(src, dst, frame.labelType());
    }

    /** Emit the jump for a branch to @p frame (fixup or loop back-edge). */
    void emitBranchJump(Frame& frame)
    {
        LInst inst;
        inst.op = uint16_t(LOp::jump);
        if (frame.opcode == Op::loop) {
            inst.a = frame.loopStart;
            emit(inst);
        } else {
            frame.endFixups.push_back(emit(inst));
        }
    }

    /**
     * Bitmask of stack slots (0..15) that hold float values and stay
     * live across an instruction consuming @p consumed operands. Around
     * anything that becomes a native call the JIT spills and reloads
     * each live register-homed slot: a float slot through its xmm home,
     * an int slot through its gpr home when that is caller-saved.
     */
    uint16_t
    floatLiveMask(uint32_t consumed) const
    {
        uint32_t live = depth() - consumed;
        uint16_t mask = 0;
        for (uint32_t s = 0; s < live && s < 16; s++) {
            if (stack_[s] == ValType::f32 || stack_[s] == ValType::f64)
                mask |= uint16_t(1u << s);
        }
        return mask;
    }

    void lowerSigOp(const Instr& instr, const char* sig);
    void step(const Instr& instr, size_t pc_index);

    const Module& m_;
    const FuncType& type_;
    const FuncBody& body_;
    LoweredFunc out_;

    std::vector<ValType> stack_;
    std::vector<Frame> ctrl_;
    uint32_t numLocals_ = 0;
    uint32_t maxDepth_ = 0;
    bool done_ = false;
};

void
FuncLowerer::lowerSigOp(const Instr& instr, const char* sig)
{
    const char* colon = sig;
    while (*colon != ':')
        colon++;
    uint32_t pops = uint32_t(colon - sig);
    uint32_t pushes = uint32_t(std::strlen(colon + 1));
    assert(pushes <= 1);

    LInst inst;
    inst.op = uint16_t(instr.op);
    switch (pops) {
      case 0:
        inst.a = cell(depth());
        break;
      case 1:
        inst.a = topCell();
        break;
      case 2:
        inst.a = topCell(1);
        inst.b = topCell();
        break;
      case 3:
        inst.a = topCell(2);
        break;
      default:
        assert(false);
    }

    switch (opInfo(instr.op).imm) {
      case ImmKind::mem_arg:
        inst.imm = instr.b; // byte offset; alignment hint dropped
        break;
      case ImmKind::const_i32:
      case ImmKind::const_i64:
      case ImmKind::const_f32:
      case ImmKind::const_f64:
        inst.imm = instr.imm;
        break;
      default:
        break;
    }

    // Ops the JIT turns into native calls carry the caller's float-slot
    // live mask.
    if (instr.op == Op::memory_grow || instr.op == Op::memory_copy ||
        instr.op == Op::memory_fill || instr.op == Op::memory_size ||
        isAtomicOp(instr.op)) {
        inst.aux = floatLiveMask(pops);
    }

    emit(inst);

    for (uint32_t i = 0; i < pops; i++)
        pop();
    for (uint32_t i = 0; i < pushes; i++)
        push(sigCharType(colon[1 + i]));
}

void
FuncLowerer::step(const Instr& instr, size_t pc_index)
{
    const OpInfo& info = opInfo(instr.op);

    // Dead code: process only control structure, emit nothing.
    if (!live()) {
        switch (instr.op) {
          case Op::block:
          case Op::loop:
          case Op::if_: {
            Frame f;
            f.opcode = instr.op;
            f.result = blockResult(instr.a);
            f.entryDepth = depth();
            f.unreachable = true;
            ctrl_.push_back(std::move(f));
            return;
          }
          case Op::else_: {
            Frame& f = ctrl_.back();
            if (f.opcode == Op::if_ && f.elseFixup != UINT32_MAX) {
                // The then-arm ended unreachable, but the else arm is
                // reachable through the if's conditional jump.
                patch(f.elseFixup, pc());
                f.elseFixup = UINT32_MAX;
                f.opcode = Op::block;
                f.unreachable = false;
                stack_.resize(f.entryDepth);
            }
            return;
          }
          case Op::end: {
            Frame f = std::move(ctrl_.back());
            ctrl_.pop_back();
            if (ctrl_.empty()) {
                // Function end in dead code: branches to the function
                // frame may still land on the final ret.
                patchAll(f.endFixups, pc());
                LInst inst;
                inst.op = uint16_t(LOp::ret);
                inst.aux = out_.numResults;
                inst.a = cell(0);
                emit(inst);
                done_ = true;
                return;
            }
            bool reachable_end = !f.endFixups.empty() ||
                                 f.elseFixup != UINT32_MAX;
            if (reachable_end) {
                // Forward branches (or the if's false edge) target this
                // end, so execution continues here.
                patchAll(f.endFixups, pc());
                if (f.elseFixup != UINT32_MAX)
                    patch(f.elseFixup, pc());
                ctrl_.back().unreachable = false;
                stack_.resize(f.entryDepth);
                if (f.result.has_value())
                    push(*f.result);
            }
            return;
          }
          default:
            return; // dead instruction
        }
    }

    if (info.sig[0] != '*') {
        lowerSigOp(instr, info.sig);
        return;
    }

    switch (instr.op) {
      case Op::nop:
        return;

      case Op::unreachable: {
        LInst inst;
        inst.op = uint16_t(LOp::trap);
        inst.aux = uint16_t(TrapKind::unreachable);
        emit(inst);
        markUnreachable();
        return;
      }

      case Op::block: {
        Frame f;
        f.opcode = Op::block;
        f.result = blockResult(instr.a);
        f.entryDepth = depth();
        ctrl_.push_back(std::move(f));
        return;
      }

      case Op::loop: {
        Frame f;
        f.opcode = Op::loop;
        f.result = blockResult(instr.a);
        f.entryDepth = depth();
        f.loopStart = pc();
        ctrl_.push_back(std::move(f));
        return;
      }

      case Op::if_: {
        uint32_t cond = topCell();
        pop();
        Frame f;
        f.opcode = Op::if_;
        f.result = blockResult(instr.a);
        f.entryDepth = depth();
        LInst inst;
        inst.op = uint16_t(LOp::jump_if_zero);
        inst.b = cond;
        f.elseFixup = emit(inst);
        ctrl_.push_back(std::move(f));
        return;
      }

      case Op::else_: {
        Frame& f = ctrl_.back();
        assert(f.opcode == Op::if_);
        // Then-arm falls through: skip the else arm.
        LInst inst;
        inst.op = uint16_t(LOp::jump);
        f.endFixups.push_back(emit(inst));
        // False edge of the if lands here.
        assert(f.elseFixup != UINT32_MAX);
        patch(f.elseFixup, pc());
        f.elseFixup = UINT32_MAX;
        f.opcode = Op::block; // now behaves like a plain block
        stack_.resize(f.entryDepth);
        return;
      }

      case Op::end: {
        Frame f = std::move(ctrl_.back());
        ctrl_.pop_back();
        if (ctrl_.empty()) {
            // Function end: results (if any) are at stack slot 0. Branches
            // to the function frame land on the ret itself.
            patchAll(f.endFixups, pc());
            LInst inst;
            inst.op = uint16_t(LOp::ret);
            inst.aux = out_.numResults;
            inst.a = cell(0);
            emit(inst);
            done_ = true;
            return;
        }
        patchAll(f.endFixups, pc());
        if (f.elseFixup != UINT32_MAX) {
            // if without else: false edge falls through to here.
            assert(!f.result.has_value());
            patch(f.elseFixup, pc());
        }
        // Fall-through leaves the result at entryDepth already; branches
        // copied theirs to the same cell.
        stack_.resize(f.entryDepth);
        if (f.result.has_value())
            push(*f.result);
        return;
      }

      case Op::br: {
        Frame& f = frameAt(instr.a);
        emitBranchCopies(f, 0);
        emitBranchJump(f);
        markUnreachable();
        return;
      }

      case Op::br_if: {
        uint32_t cond = topCell();
        pop();
        Frame& f = frameAt(instr.a);
        bool needs_copy = f.labelArity() == 1 &&
                          topCell() != cell(f.entryDepth);
        if (!needs_copy) {
            LInst inst;
            inst.op = uint16_t(LOp::jump_if);
            inst.b = cond;
            if (f.opcode == Op::loop) {
                inst.a = f.loopStart;
                emit(inst);
            } else {
                f.endFixups.push_back(emit(inst));
            }
        } else {
            // if (!cond) goto skip; copy; goto target; skip:
            LInst skip;
            skip.op = uint16_t(LOp::jump_if_zero);
            skip.b = cond;
            uint32_t skip_at = emit(skip);
            emitBranchCopies(f, 0);
            emitBranchJump(f);
            patch(skip_at, pc());
        }
        return;
      }

      case Op::br_table: {
        uint32_t idx_cell = topCell();
        pop();
        LInst inst;
        inst.op = uint16_t(LOp::jump_table);
        inst.aux = uint16_t(instr.b);
        inst.a = uint32_t(out_.tablePool.size());
        inst.b = idx_cell;
        emit(inst);
        // Reserve pool entries (cases + default), fill with stub pcs.
        size_t pool_base = out_.tablePool.size();
        out_.tablePool.resize(pool_base + instr.b + 1);
        for (uint32_t i = 0; i <= instr.b; i++) {
            out_.tablePool[pool_base + i] = pc();
            uint32_t depth_imm = body_.brTablePool[instr.a + i];
            Frame& f = frameAt(depth_imm);
            emitBranchCopies(f, 0);
            emitBranchJump(f);
        }
        markUnreachable();
        return;
      }

      case Op::return_: {
        LInst inst;
        inst.op = uint16_t(LOp::ret);
        inst.aux = out_.numResults;
        inst.a = out_.numResults ? topCell() : cell(0);
        emit(inst);
        markUnreachable();
        return;
      }

      case Op::call: {
        const FuncType& callee = m_.funcType(instr.a);
        uint32_t nargs = uint32_t(callee.params.size());
        uint32_t arg_base = cell(depth() - nargs);
        LInst inst;
        inst.op = m_.isImportedFunc(instr.a) ? uint16_t(LOp::call_host)
                                             : uint16_t(LOp::callf);
        inst.a = instr.a;
        inst.b = arg_base;
        inst.aux = floatLiveMask(nargs);
        emit(inst);
        for (uint32_t i = 0; i < nargs; i++)
            pop();
        for (ValType r : callee.results)
            push(r);
        return;
      }

      case Op::call_indirect: {
        const FuncType& callee = m_.types[instr.a];
        uint32_t nargs = uint32_t(callee.params.size());
        LInst inst;
        inst.op = uint16_t(LOp::calli);
        inst.a = instr.a;
        inst.b = topCell(); // table index operand
        inst.aux = floatLiveMask(nargs + 1);
        emit(inst);
        pop(); // index
        for (uint32_t i = 0; i < nargs; i++)
            pop();
        for (ValType r : callee.results)
            push(r);
        return;
      }

      case Op::drop:
        pop();
        return;

      case Op::select: {
        pop(); // condition
        ValType t = pop(); // v2
        pop(); // v1
        LInst inst;
        inst.op = uint16_t(Op::select);
        inst.aux = uint16_t(t); // value class for the JIT
        inst.a = cell(depth());
        emit(inst);
        push(t);
        return;
      }

      case Op::local_get: {
        ValType t = out_.localTypes[instr.a];
        emitCopy(instr.a, cell(depth()), t);
        push(t);
        return;
      }

      case Op::local_set: {
        ValType t = out_.localTypes[instr.a];
        emitCopy(topCell(), instr.a, t);
        pop();
        return;
      }

      case Op::local_tee: {
        ValType t = out_.localTypes[instr.a];
        emitCopy(topCell(), instr.a, t);
        return;
      }

      case Op::global_get: {
        ValType t = m_.globals[instr.a].type;
        LInst inst;
        inst.op = uint16_t(Op::global_get);
        inst.aux = uint16_t(t);
        inst.a = cell(depth());
        inst.b = instr.a;
        emit(inst);
        push(t);
        return;
      }

      case Op::global_set: {
        LInst inst;
        inst.op = uint16_t(Op::global_set);
        inst.aux = uint16_t(m_.globals[instr.a].type);
        inst.a = topCell();
        inst.b = instr.a;
        emit(inst);
        pop();
        return;
      }

      default:
        assert(false && "unhandled special op in lowering");
    }
}

LoweredFunc
FuncLowerer::run()
{
    Frame func_frame;
    func_frame.opcode = Op::block;
    if (!type_.results.empty())
        func_frame.result = type_.results[0];
    func_frame.entryDepth = 0;
    ctrl_.push_back(std::move(func_frame));

    for (size_t i = 0; i < body_.code.size(); i++) {
        step(body_.code[i], i);
        if (done_)
            break;
    }
    assert(done_ && "lowering did not reach function end");

    out_.numCells = numLocals_ + maxDepth_;
    return std::move(out_);
}

} // namespace

Result<LoweredModule>
lowerModule(Module module)
{
    LoweredModule out;

    out.typeCanon.resize(module.types.size());
    for (uint32_t i = 0; i < module.types.size(); i++) {
        out.typeCanon[i] = i;
        for (uint32_t j = 0; j < i; j++) {
            if (module.types[j] == module.types[i]) {
                out.typeCanon[i] = j;
                break;
            }
        }
    }

    out.funcs.reserve(module.functions.size());
    for (uint32_t i = 0; i < module.functions.size(); i++) {
        FuncLowerer lowerer(module, module.numImportedFuncs() + i);
        out.funcs.push_back(lowerer.run());
    }

    // calli carries the canonical expected-type index in imm.
    for (LoweredFunc& f : out.funcs) {
        for (LInst& inst : f.code) {
            if (inst.op == uint16_t(LOp::calli))
                inst.imm = out.typeCanon[inst.a];
        }
    }

    out.module = std::move(module);
    return out;
}

const char*
lopName(uint16_t op)
{
    if (op < uint16_t(Op::count_))
        return opName(Op(op));
    if (isFormOp(op)) {
        // "<mnemonic>.<form>", e.g. "i32.add.ri".
        static const std::vector<std::string> kFormNames = [] {
            static const char* const kSuffix[] = {"rr", "ri", "r", "jrr",
                                                  "jri"};
            std::vector<std::string> names;
            for (size_t i = kLOpCount; i < kIrOpCount; i++) {
                names.push_back(std::string(opName(formWasmOp(i))) + "." +
                                kSuffix[size_t(formOf(i))]);
            }
            return names;
        }();
        return op < kIrOpCount ? kFormNames[op - kLOpCount].c_str() : "?";
    }
    switch (LOp(op)) {
      case LOp::jump: return "jump";
      case LOp::jump_if: return "jump.if";
      case LOp::jump_if_zero: return "jump.ifz";
      case LOp::jump_table: return "jump.table";
      case LOp::copy: return "copy";
      case LOp::ret: return "ret";
      case LOp::callf: return "call.f";
      case LOp::call_host: return "call.host";
      case LOp::calli: return "call.i";
      case LOp::trap: return "trap";
      case LOp::count_fallback: return "count.fallback";
      default: return "?";
    }
}

} // namespace lnb::wasm
