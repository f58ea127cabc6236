#include "wasm/serialize.h"

#include <algorithm>

namespace lnb::wasm {

namespace {

void
writeFuncType(const FuncType& t, ByteWriter& w)
{
    w.podVec(t.params);
    w.podVec(t.results);
}

FuncType
readFuncType(ByteReader& r)
{
    FuncType t;
    t.params = r.podVec<ValType>();
    t.results = r.podVec<ValType>();
    return t;
}

void
writeLoweredFunc(const LoweredFunc& f, ByteWriter& w, bool include_code)
{
    w.u32(f.funcIdx);
    w.u32(f.typeIdx);
    w.u32(f.numParams);
    w.u32(f.numLocalCells);
    w.u32(f.numCells);
    w.u16(f.numResults);
    w.podVec(f.localTypes);
    if (!include_code)
        return;
    w.podVec(f.code);
    w.podVec(f.tablePool);
    w.podVec(f.elidableCheckPcs);
    w.boolean(f.memBasePinned);
}

/** Fails only on a memBasePinned byte other than 0 or 1; truncation is
 * left to the caller's ok() check. */
Status
readLoweredFunc(ByteReader& r, bool include_code, LoweredFunc& f)
{
    f.funcIdx = r.u32();
    f.typeIdx = r.u32();
    f.numParams = r.u32();
    f.numLocalCells = r.u32();
    f.numCells = r.u32();
    f.numResults = r.u16();
    f.localTypes = r.podVec<ValType>();
    if (!include_code)
        return Status::ok();
    f.code = r.podVec<LInst>();
    f.tablePool = r.podVec<uint32_t>();
    f.elidableCheckPcs = r.podVec<uint32_t>();
    uint8_t pinned = r.u8();
    if (pinned > 1)
        return errInvalid("serialized memory-base pin flag is " +
                          std::to_string(pinned) + ", not 0 or 1");
    f.memBasePinned = pinned != 0;
    return Status::ok();
}

/**
 * The JIT binary-searches elidableCheckPcs and skips the checks it
 * lists, so a corrupt list must neither break the search nor remove a
 * check from anything but a load or store.
 */
Status
checkSkipList(const LoweredFunc& f)
{
    for (size_t i = 0; i < f.elidableCheckPcs.size(); i++) {
        uint32_t pc = f.elidableCheckPcs[i];
        if (pc >= f.code.size())
            return errInvalid("serialized check skip list names pc " +
                              std::to_string(pc) + " past the code");
        if (i > 0 && pc <= f.elidableCheckPcs[i - 1])
            return errInvalid("serialized check skip list is not "
                              "strictly increasing");
        if (!carriesBoundsCheck(f.code[pc]))
            return errInvalid("serialized check skip list names pc " +
                              std::to_string(pc) + ", which has no check");
    }
    return Status::ok();
}

/**
 * Does every cell @p inst reads or writes lie inside the frame? The
 * interpreters index frame[] with these cells and the JIT turns them into
 * [r15 + 8 * cell] operands, so none may reach past numCells. Operand
 * conventions per LInst (wasm/lower.h).
 */
bool
cellsInFrame(const LInst& inst, const LoweredFunc& f, const Module& m)
{
    auto in = [&](uint64_t cell) { return cell < f.numCells; };
    // A call's arguments start at `base` and its results overwrite them.
    auto span = [&](uint64_t base, uint32_t type_idx) {
        const FuncType& t = m.types[type_idx];
        size_t n = std::max(t.params.size(), t.results.size());
        return base + n <= f.numCells;
    };
    if (isFormOp(inst.op)) {
        IrForm form = formOf(inst.op);
        bool jump = form == IrForm::jrr || form == IrForm::jri;
        bool rhs_cell = form == IrForm::rr || form == IrForm::jrr;
        return (jump || in(inst.a)) && in(inst.b) &&
               (!rhs_cell || in(inst.imm));
    }
    if (!inst.isWasmOp()) {
        switch (inst.lop()) {
          case LOp::jump_if:
          case LOp::jump_if_zero:
          case LOp::jump_table:
            return in(inst.b);
          case LOp::copy:
            return in(inst.a) && in(inst.b);
          case LOp::ret:
            return inst.aux == 0 || in(inst.a);
          case LOp::callf:
            return inst.a < m.numTotalFuncs() &&
                   m.funcTypeIdx(inst.a) < m.types.size() &&
                   span(inst.b, m.funcTypeIdx(inst.a));
          case LOp::call_host:
            return inst.a < m.numImportedFuncs() &&
                   m.funcTypeIdx(inst.a) < m.types.size() &&
                   span(inst.b, m.funcTypeIdx(inst.a));
          case LOp::calli: {
            if (inst.a >= m.types.size() || !in(inst.b))
                return false;
            size_t nargs = m.types[inst.a].params.size();
            return inst.b >= nargs && span(inst.b - nargs, inst.a);
          }
          default:
            return true;
        }
    }
    Op op = inst.wasmOp();
    switch (op) {
      case Op::select:
        return in(uint64_t(inst.a) + 2);
      case Op::global_get:
      case Op::global_set:
        return in(inst.a) && inst.b < m.globals.size();
      default:
        break;
    }
    int inputs = opInputs(op);
    if (inputs == 3)
        return in(uint64_t(inst.a) + 2);
    if (inputs == 2 && !in(inst.b))
        return false;
    return (inputs <= 0 && opResult(op) == 0) || in(inst.a);
}

/** Does @p inst jump past the code of @p f: a jump or branch form to a
 * pc past it, or a jump_table whose cases run past the table pool? */
bool
jumpsPastCode(const LInst& inst, const LoweredFunc& f)
{
    IrForm form = isFormOp(inst.op) ? formOf(inst.op) : IrForm::count_;
    bool jump = inst.op == uint16_t(LOp::jump) ||
                inst.op == uint16_t(LOp::jump_if) ||
                inst.op == uint16_t(LOp::jump_if_zero) ||
                form == IrForm::jrr || form == IrForm::jri;
    if (jump)
        return inst.a >= f.code.size();
    if (inst.op == uint16_t(LOp::jump_table))
        return uint64_t(inst.a) + inst.aux + 1 > f.tablePool.size();
    return false;
}

/**
 * The executors index the frame with every cell operand and turn each
 * jump target into a code label, so every cell must lie inside the frame
 * and every jump, branch form and jump_table case must land inside the
 * code.
 */
Status
checkOperands(const LoweredFunc& f, const Module& m)
{
    for (uint32_t target : f.tablePool) {
        if (target >= f.code.size())
            return errInvalid("serialized jump table names pc " +
                              std::to_string(target) + " past the code");
    }
    for (size_t pc = 0; pc < f.code.size(); pc++) {
        const LInst& inst = f.code[pc];
        if (!cellsInFrame(inst, f, m) || jumpsPastCode(inst, f))
            return errInvalid("serialized IR at pc " + std::to_string(pc) +
                              " names a cell outside the frame or jumps "
                              "past the code");
    }
    return Status::ok();
}

} // namespace

void
serializeModule(const Module& m, ByteWriter& w)
{
    w.u64(m.types.size());
    for (const FuncType& t : m.types)
        writeFuncType(t, w);

    w.u64(m.imports.size());
    for (const Import& imp : m.imports) {
        w.str(imp.module);
        w.str(imp.name);
        w.u32(imp.typeIdx);
    }

    w.podVec(m.functions);
    w.podVec(m.tables);
    w.podVec(m.memories);
    w.podVec(m.globals);

    w.u64(m.exports.size());
    for (const Export& e : m.exports) {
        w.str(e.name);
        w.u8(uint8_t(e.kind));
        w.u32(e.index);
    }

    w.boolean(m.start.has_value());
    w.u32(m.start.value_or(0));

    w.u64(m.elems.size());
    for (const ElemSegment& e : m.elems) {
        w.pod(e.offset);
        w.podVec(e.funcs);
    }

    w.u64(m.datas.size());
    for (const DataSegment& d : m.datas) {
        w.pod(d.offset);
        w.podVec(d.bytes);
    }
    // m.bodies is deliberately not serialized: raw wasm bodies feed the
    // validator and the lowering pass, both of which ran before the
    // artifact was produced. Execution (interpreter and JIT alike) works
    // off the lowered funcs, so persisted modules reload without them.
}

bool
deserializeModule(ByteReader& r, Module& out)
{
    out = Module{};

    uint64_t n = r.u64();
    if (!r.ok())
        return false;
    out.types.reserve(size_t(n));
    for (uint64_t i = 0; i < n && r.ok(); i++)
        out.types.push_back(readFuncType(r));

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        Import imp;
        imp.module = r.str();
        imp.name = r.str();
        imp.typeIdx = r.u32();
        out.imports.push_back(std::move(imp));
    }

    out.functions = r.podVec<uint32_t>();
    out.tables = r.podVec<Limits>();
    out.memories = r.podVec<Limits>();
    out.globals = r.podVec<GlobalDef>();

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        Export e;
        e.name = r.str();
        e.kind = ExternKind(r.u8());
        e.index = r.u32();
        out.exports.push_back(std::move(e));
    }

    bool has_start = r.boolean();
    uint32_t start = r.u32();
    if (has_start)
        out.start = start;

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        ElemSegment e;
        e.offset = r.pod<Instr>();
        e.funcs = r.podVec<uint32_t>();
        out.elems.push_back(std::move(e));
    }

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        DataSegment d;
        d.offset = r.pod<Instr>();
        d.bytes = r.podVec<uint8_t>();
        out.datas.push_back(std::move(d));
    }

    return r.ok();
}

void
serializeLoweredModule(const LoweredModule& lm, ByteWriter& w,
                       bool include_func_code)
{
    serializeModule(lm.module, w);
    w.boolean(include_func_code);
    w.u64(lm.funcs.size());
    for (const LoweredFunc& f : lm.funcs)
        writeLoweredFunc(f, w, include_func_code);
    w.podVec(lm.typeCanon);
}

Status
deserializeLoweredModule(ByteReader& r, LoweredModule& out)
{
    out = LoweredModule{};
    if (!deserializeModule(r, out.module))
        return errInvalid("truncated serialized module payload");
    bool include_func_code = r.boolean();
    uint64_t n = r.u64();
    if (!r.ok())
        return errInvalid("truncated serialized module payload");
    out.funcs.reserve(size_t(n));
    for (uint64_t i = 0; i < n && r.ok(); i++)
        LNB_RETURN_IF_ERROR(
            readLoweredFunc(r, include_func_code, out.funcs.emplace_back()));
    out.typeCanon = r.podVec<uint32_t>();
    if (!r.ok())
        return errInvalid("truncated serialized module payload");
    // The interpreters dispatch on LInst::op through a table; an op with
    // no handler must never reach it.
    for (const LoweredFunc& f : out.funcs) {
        for (const LInst& inst : f.code) {
            if (!isExecutableOp(inst.op))
                return errInvalid("serialized IR has opcode " +
                                  std::to_string(inst.op) +
                                  " with no handler");
        }
        LNB_RETURN_IF_ERROR(checkOperands(f, out.module));
        LNB_RETURN_IF_ERROR(checkSkipList(f));
    }
    return Status::ok();
}

} // namespace lnb::wasm
