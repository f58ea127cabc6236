/**
 * @file
 * Tests for the lowered-IR optimization pass (wasm/opt.*): the
 * register-form rewrite, bounds-check value numbering and its kills at
 * atomics and calls, affine loop versioning, the bounds-check soundness
 * property (a rewrite of the address cell must never let an elided check
 * skip a required trap), and the headline elision rates on
 * PolyBench-style loop kernels.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "jit/compiler.h"
#include "kernels/kernel.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "wasm/builder.h"
#include "wasm/lower.h"
#include "wasm/opt.h"
#include "wasm/validator.h"

namespace lnb::wasm {
namespace {

using mem::BoundsStrategy;
using rt::Engine;
using rt::EngineConfig;
using rt::EngineKind;
using rt::Instance;

/** sum += mem[addr] over i in [0, n) with a bottom-test loop, so the
 * loop header holds the body. */
Module
bottomTestSumModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // params: addr, n
    f.addLocal(ValType::i32); // local 2: i
    f.addLocal(ValType::i32); // local 3: sum
    auto exit = f.block();
    f.localGet(1);
    f.i32Const(0);
    f.emit(Op::i32_le_s);
    f.brIf(exit);
    auto head = f.loop();
    // Invariant-address access first: mem[addr]
    f.localGet(0);
    f.memOp(Op::i32_load, 0);
    f.localGet(3);
    f.emit(Op::i32_add);
    f.localSet(3);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_s);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    f.localGet(3);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/**
 * The gemm beta-scale phase as its own kernel: C[i] *= beta over a
 * contiguous f64 row, a read-modify-write loop where load and store hit
 * the same address through different cells (the load clobbers its own
 * address cell); value numbering proves the store's check redundant.
 */
Module
rmwScaleModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::f64}, {});
    auto& f = mb.addFunction(t); // params: n, beta
    f.addLocal(ValType::i32); // local 2: i
    auto exit = f.block();
    f.localGet(0);
    f.i32Const(0);
    f.emit(Op::i32_le_s);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(2);
    f.i32Const(3);
    f.emit(Op::i32_shl); // byte offset = i * 8
    f.localGet(2);
    f.i32Const(3);
    f.emit(Op::i32_shl);
    f.memOp(Op::f64_load, 0);
    f.localGet(1);
    f.emit(Op::f64_mul);
    f.memOp(Op::f64_store, 0);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(0);
    f.emit(Op::i32_lt_s);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    uint32_t idx = f.finish();
    mb.exportFunc("scale", idx);
    return mb.build();
}

// ---------------------------------------------------------------------
// Register-form rewrite (the last step of optimizeLoweredModule)
// ---------------------------------------------------------------------

/** Lower @p module and run the register-form rewrite. */
LoweredModule
rewritten(Module module, OptStats* stats = nullptr)
{
    auto lowered = lowerModule(std::move(module));
    EXPECT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();
    OptStats s = optimizeLoweredModule(lm, OptOptions());
    if (stats != nullptr)
        *stats = s;
    return lm;
}

bool
isForm(const LInst& inst, IrForm form, Op op)
{
    return inst.op == formOp(form, op);
}

/** Run export "run" on one engine configuration. */
rt::CallOutcome
runOn(const Module& module, EngineKind kind, BoundsStrategy strategy,
      bool opt, std::vector<Value> args)
{
    EngineConfig config;
    config.kind = kind;
    config.strategy = strategy;
    config.optimizeLoweredIR = opt;
    Engine engine(config);
    auto compiled = engine.compile(Module(module));
    EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto inst = Instance::create(compiled.takeValue());
    EXPECT_TRUE(inst.isOk()) << inst.status().toString();
    return inst.value()->callExport("run", std::move(args));
}

/**
 * Both interpreters, with the opt pass on and off, must match the
 * baseline JIT on IR the rewrite never touched, bit for bit: the i64
 * view of the result, or the trap kind. Returns the JIT's outcome.
 */
rt::CallOutcome
expectInterpretersMatchJit(const Module& module, BoundsStrategy strategy,
                           const std::vector<Value>& args)
{
    rt::CallOutcome ref =
        runOn(module, EngineKind::jit_base, strategy, false, args);
    for (EngineKind kind :
         {EngineKind::interp_switch, EngineKind::interp_threaded}) {
        for (bool opt : {false, true}) {
            rt::CallOutcome out = runOn(module, kind, strategy, opt, args);
            SCOPED_TRACE(std::string(rt::engineKindName(kind)) +
                         (opt ? " opt" : " no-opt"));
            EXPECT_EQ(out.trap, ref.trap);
            if (out.ok() && ref.ok()) {
                EXPECT_EQ(out.results.size(), ref.results.size());
                for (size_t i = 0; i < ref.results.size() &&
                                   i < out.results.size();
                     i++)
                    EXPECT_EQ(out.results[i].i64, ref.results[i].i64);
            }
        }
    }
    return ref;
}

/** One exported function `run` of type @p params -> @p results built
 * by @p body. */
template <typename Body>
Module
singleFunction(std::vector<ValType> params, std::vector<ValType> results,
               std::vector<ValType> locals, Body body)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType(std::move(params), std::move(results));
    auto& f = mb.addFunction(t);
    for (ValType l : locals)
        f.addLocal(l);
    body(f);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

TEST(RegisterForm, GemmInnerLoopsAreShortAndCopyFree)
{
    const kernels::Kernel* gemm = kernels::findKernel("gemm");
    ASSERT_NE(gemm, nullptr);
    OptStats stats;
    LoweredModule lm = rewritten(gemm->buildModule(16), &stats);
    EXPECT_EQ(stats.instsFused, stats.instsBefore - stats.instsAfter);
    EXPECT_GT(stats.instsFused, 0u);
    size_t inner_loops = 0;
    for (const LoweredFunc& func : lm.funcs) {
        // An innermost loop: a backward branch whose body holds no other
        // backward branch.
        for (uint32_t pc = 0; pc < func.code.size(); pc++) {
            const LInst& inst = func.code[pc];
            bool is_branch =
                inst.op == uint16_t(LOp::jump) ||
                inst.op == uint16_t(LOp::jump_if) ||
                (isFormOp(inst.op) && (formOf(inst.op) == IrForm::jrr ||
                                       formOf(inst.op) == IrForm::jri));
            if (!is_branch || inst.a > pc)
                continue;
            bool innermost = true;
            for (uint32_t q = inst.a; q < pc; q++) {
                const LInst& other = func.code[q];
                bool back = (other.op == uint16_t(LOp::jump) ||
                             other.op == uint16_t(LOp::jump_if) ||
                             (isFormOp(other.op) &&
                              formOf(other.op) >= IrForm::jrr)) &&
                            other.a <= q;
                innermost = innermost && !back;
            }
            if (!innermost)
                continue;
            inner_loops++;
            EXPECT_LE(pc - inst.a + 1, 24u) << "loop at pc " << inst.a;
            for (uint32_t q = inst.a; q <= pc; q++)
                EXPECT_NE(func.code[q].op, uint16_t(LOp::copy))
                    << "copy at pc " << q;
        }
    }
    EXPECT_GE(inner_loops, 2u); // the beta scale and the k loop
}

TEST(RegisterForm, LocalTeeKeepsItsStackValue)
{
    // (x + 5) tee y; y * (tee value) + y: the tee's stack value is
    // consumed after the local already holds it.
    Module module = singleFunction(
        {ValType::i32}, {ValType::i32}, {ValType::i32}, [](auto& f) {
            f.localGet(0);
            f.i32Const(5);
            f.emit(Op::i32_add);
            f.localTee(1);
            f.localGet(1);
            f.emit(Op::i32_mul);
            f.localGet(1);
            f.emit(Op::i32_add);
        });
    LoweredModule lm = rewritten(Module(module));
    // The add writes local 1 directly; no copy survives.
    bool add_into_local = false;
    for (const LInst& inst : lm.funcs[0].code) {
        EXPECT_NE(inst.op, uint16_t(LOp::copy));
        add_into_local |= isForm(inst, IrForm::ri, Op::i32_add) &&
                          inst.a == 1 && inst.b == 0 && inst.imm == 5;
    }
    EXPECT_TRUE(add_into_local);
    rt::CallOutcome out = expectInterpretersMatchJit(
        module, BoundsStrategy::none, {Value::fromI32(4)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, 9u * 9u + 9u);
}

TEST(RegisterForm, StackValueAliasingALocalSurvivesItsOverwrite)
{
    // Push x, overwrite x, then use the pushed (old) x: the deferred
    // copy must be flushed before the write. The same for a tee's
    // stack value once its local is overwritten.
    Module module = singleFunction(
        {ValType::i32}, {ValType::i32}, {ValType::i32}, [](auto& f) {
            f.localGet(0);
            f.i32Const(7);
            f.localSet(0);
            f.localGet(0);
            f.emit(Op::i32_sub); // old x - 7
            f.localGet(0);
            f.i32Const(1);
            f.emit(Op::i32_add);
            f.localTee(1); // 8, aliased by the stack value
            f.i32Const(100);
            f.localSet(1);
            f.localGet(1);
            f.emit(Op::i32_mul); // 8 * 100
            f.emit(Op::i32_add);
        });
    rt::CallOutcome out = expectInterpretersMatchJit(
        module, BoundsStrategy::none, {Value::fromI32(50)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, 43u + 800u);
}

TEST(RegisterForm, JoinLabelBlocksPropagation)
{
    // The block's result cell reaches its end label from two
    // predecessors, holding 10 on one and x on the other.
    Module module = singleFunction(
        {ValType::i32, ValType::i32}, {ValType::i32}, {}, [](auto& f) {
            auto b = f.block(ValType::i32);
            f.i32Const(10);
            f.localGet(1);
            f.brIf(b);
            f.drop();
            f.localGet(0);
            f.end();
            f.i32Const(3);
            f.emit(Op::i32_mul);
        });
    LoweredModule lm = rewritten(Module(module));
    const LoweredFunc& func = lm.funcs[0];
    // The multiply after the label reads the stack cell itself, which
    // both predecessors write before reaching it.
    const uint32_t cell = func.numLocalCells;
    uint32_t writes = 0;
    bool mul_reads_cell = false;
    for (const LInst& inst : func.code) {
        writes += (inst.op == uint16_t(Op::i32_const) && inst.a == cell) ||
                  (inst.op == uint16_t(LOp::copy) && inst.b == cell);
        mul_reads_cell |= isForm(inst, IrForm::ri, Op::i32_mul) &&
                          inst.b == cell && inst.imm == 3;
    }
    EXPECT_EQ(writes, 2u);
    EXPECT_TRUE(mul_reads_cell);
    for (uint32_t taken : {0u, 1u}) {
        rt::CallOutcome out = expectInterpretersMatchJit(
            module, BoundsStrategy::none,
            {Value::fromI32(6), Value::fromI32(taken)});
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out.results[0].i32, taken ? 30u : 18u);
    }
}

TEST(RegisterForm, CallFlushesDeferredValues)
{
    ModuleBuilder mb;
    uint32_t t2 = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& callee = mb.addFunction(t2);
    callee.localGet(0);
    callee.localGet(1);
    callee.emit(Op::i32_sub);
    uint32_t callee_idx = callee.finish();
    uint32_t t1 = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t1);
    f.localGet(0); // both arguments are deferred until the call
    f.i32Const(3);
    f.call(callee_idx);
    f.localGet(0);
    f.emit(Op::i32_add);
    mb.exportFunc("run", f.finish());
    Module module = mb.build();

    LoweredModule lm = rewritten(Module(module));
    const LoweredFunc& func = lm.funcs[1];
    const uint32_t base = func.numLocalCells;
    ASSERT_GE(func.code.size(), 3u);
    uint32_t call_pc = 0;
    while (call_pc < func.code.size() &&
           func.code[call_pc].op != uint16_t(LOp::callf))
        call_pc++;
    ASSERT_EQ(call_pc, 2u);
    EXPECT_EQ(func.code[0].op, uint16_t(LOp::copy));
    EXPECT_EQ(func.code[0].b, base);
    EXPECT_EQ(func.code[1].op, uint16_t(Op::i32_const));
    EXPECT_EQ(func.code[1].a, base + 1);

    rt::CallOutcome out = expectInterpretersMatchJit(
        module, BoundsStrategy::none, {Value::fromI32(20)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, 17u + 20u);
}

TEST(RegisterForm, ConstantFloatLhsIsNeverCommuted)
{
    // (1.5 - x) * (2 + x): both constants are float lhs operands, so each
    // is written to its cell and the op keeps its operand order (x86
    // NaN propagation depends on it), reading x from the local.
    Module module = singleFunction(
        {ValType::f64}, {ValType::f64}, {}, [](auto& f) {
            f.f64Const(1.5);
            f.localGet(0);
            f.emit(Op::f64_sub);
            f.f64Const(2.0);
            f.localGet(0);
            f.emit(Op::f64_add);
            f.emit(Op::f64_mul);
        });
    LoweredModule lm = rewritten(Module(module));
    const LoweredFunc& func = lm.funcs[0];
    const uint32_t base = func.numLocalCells;
    uint32_t consts = 0;
    bool sub_in_order = false;
    bool add_in_order = false;
    for (const LInst& inst : func.code) {
        consts += inst.op == uint16_t(Op::f64_const);
        sub_in_order |= inst.op == uint16_t(Op::f64_sub) &&
                        inst.a == base && inst.b == 0;
        add_in_order |= inst.op == uint16_t(Op::f64_add) &&
                        inst.a == base + 1 && inst.b == 0;
        EXPECT_FALSE(isForm(inst, IrForm::ri, Op::f64_sub));
        EXPECT_FALSE(isForm(inst, IrForm::ri, Op::f64_add));
    }
    EXPECT_EQ(consts, 2u);
    EXPECT_TRUE(sub_in_order);
    EXPECT_TRUE(add_in_order);
    rt::CallOutcome out = expectInterpretersMatchJit(
        module, BoundsStrategy::none, {Value::fromF64(0.25)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].f64, 1.25 * 2.25);
}

TEST(RegisterForm, FormTrapsMatchTheJit)
{
    // x / 0 as an ri form: integer_divide_by_zero.
    Module div = singleFunction(
        {ValType::i32}, {ValType::i32}, {}, [](auto& f) {
            f.localGet(0);
            f.i32Const(0);
            f.emit(Op::i32_div_s);
        });
    bool div_is_ri = false;
    LoweredModule div_ir = rewritten(Module(div));
    for (const LInst& inst : div_ir.funcs[0].code)
        div_is_ri |= isForm(inst, IrForm::ri, Op::i32_div_s);
    EXPECT_TRUE(div_is_ri);
    EXPECT_EQ(expectInterpretersMatchJit(div, BoundsStrategy::trap,
                                         {Value::fromI32(9)})
                  .trap,
              TrapKind::integer_divide_by_zero);

    // f64.load from a local address as an r form: out of bounds under
    // trap, redirected under clamp.
    Module load = singleFunction(
        {ValType::i32}, {ValType::i64}, {}, [](auto& f) {
            f.localGet(0);
            f.memOp(Op::f64_load, 8);
            f.emit(Op::i64_reinterpret_f64);
        });
    bool load_is_r = false;
    LoweredModule load_ir = rewritten(Module(load));
    for (const LInst& inst : load_ir.funcs[0].code)
        load_is_r |= isForm(inst, IrForm::r, Op::f64_load) && inst.b == 0 &&
                     inst.imm == 8;
    EXPECT_TRUE(load_is_r);
    const std::vector<Value> oob = {Value::fromI32(kPageSize - 12)};
    EXPECT_EQ(expectInterpretersMatchJit(load, BoundsStrategy::trap, oob)
                  .trap,
              TrapKind::out_of_bounds_memory);
    EXPECT_TRUE(
        expectInterpretersMatchJit(load, BoundsStrategy::clamp, oob).ok());
    EXPECT_TRUE(expectInterpretersMatchJit(load, BoundsStrategy::trap,
                                           {Value::fromI32(64)})
                    .ok());
}

TEST(RegisterForm, ThirtyTwoBitResultsAreZeroExtended)
{
    // An r form writes 4 bytes of an i32/f32 result into a cell whose
    // high half still holds the wider operand; the returned Value must
    // carry the result alone on every engine.
    Module wrap = singleFunction(
        {ValType::i64}, {ValType::i32}, {}, [](auto& f) {
            f.localGet(0);
            f.emit(Op::i32_wrap_i64);
        });
    rt::CallOutcome out = expectInterpretersMatchJit(
        wrap, BoundsStrategy::none, {Value::fromI64(0xdeadbeef00000005ull)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i64, 5u);

    Module demote = singleFunction(
        {ValType::f64}, {ValType::f32}, {}, [](auto& f) {
            f.localGet(0);
            f.emit(Op::f32_demote_f64);
        });
    out = expectInterpretersMatchJit(demote, BoundsStrategy::none,
                                     {Value::fromF64(-2.5)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i64, uint64_t(Value::fromF32(-2.5f).i32));
}

TEST(RegisterForm, InterpretersMatchUnoptimizedResults)
{
    for (EngineKind kind :
         {EngineKind::interp_switch, EngineKind::interp_threaded}) {
        std::vector<uint32_t> sums;
        for (bool opt : {false, true}) {
            EngineConfig config;
            config.kind = kind;
            config.strategy = BoundsStrategy::trap;
            config.optimizeLoweredIR = opt;
            Engine engine(config);
            auto compiled = engine.compile(bottomTestSumModule());
            ASSERT_TRUE(compiled.isOk());
            if (opt) {
                EXPECT_GT(compiled.value()->optStats().instsFused, 0u);
            }
            auto inst = Instance::create(compiled.takeValue());
            ASSERT_TRUE(inst.isOk());
            auto out = inst.value()->callExport(
                "run", {Value::fromI32(0), Value::fromI32(1000)});
            ASSERT_TRUE(out.ok());
            sums.push_back(out.results[0].i32);
        }
        EXPECT_EQ(sums[0], sums[1]);
    }
}

// ---------------------------------------------------------------------
// Value numbering
// ---------------------------------------------------------------------

TEST(Analysis, RmwStoreCheckIsValueNumberedAway)
{
    Module module = rmwScaleModule();
    auto lowered = lowerModule(std::move(module));
    ASSERT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();

    OptOptions opts;
    opts.analyzeChecks = true;
    OptStats stats = optimizeLoweredModule(lm, opts);
    // The store at i*8 is covered by the load at i*8 (same value, same
    // limit) even though they use different address cells.
    EXPECT_GE(stats.checksElided, 1u);
    EXPECT_FALSE(lm.funcs[0].elidableCheckPcs.empty());
}

/** The pc of the last instruction of @p func that carries a check. */
uint32_t
lastCheckPc(const LoweredFunc& func)
{
    uint32_t pc = uint32_t(func.code.size());
    while (pc-- > 0 && !carriesBoundsCheck(func.code[pc])) {
    }
    EXPECT_LT(pc, func.code.size());
    return pc;
}

bool
listed(const LoweredFunc& func, uint32_t pc)
{
    return std::binary_search(func.elidableCheckPcs.begin(),
                              func.elidableCheckPcs.end(), pc);
}

/** In one block: mem[addr], optionally an i32 atomic rmw, then mem[addr]
 * again. */
Module
atomicReloadModule(bool atomic)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // param: addr
    f.localGet(0);
    f.memOp(Op::i32_load, 0);
    if (atomic) {
        f.i32Const(64);
        f.i32Const(1);
        f.memOp(Op::i32_atomic_rmw_add, 0);
        f.drop();
    }
    f.localGet(0);
    f.memOp(Op::i32_load, 0);
    f.emit(Op::i32_add);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

TEST(Analysis, AtomicBetweenReloadsKeepsTheSecondCheck)
{
    // An atomic is a synchronization point: on a shared memory another
    // thread's grow becomes observable there, so no passed check may be
    // carried across it.
    for (bool atomic : {false, true}) {
        SCOPED_TRACE(atomic ? "atomic between the loads" : "no atomic");
        auto lowered = lowerModule(atomicReloadModule(atomic));
        ASSERT_TRUE(lowered.isOk());
        LoweredModule lm = lowered.takeValue();
        OptOptions opts;
        opts.analyzeChecks = true;
        OptStats stats = optimizeLoweredModule(lm, opts);
        const LoweredFunc& func = lm.funcs[0];
        EXPECT_EQ(listed(func, lastCheckPc(func)), !atomic);
        EXPECT_EQ(stats.checksElided, atomic ? 0u : 1u);
    }
}

// ---------------------------------------------------------------------
// Soundness: rewriting the address cell must kill the elision
// ---------------------------------------------------------------------

/** load mem[in-bounds], overwrite the address local with an OOB value
 * (optionally in a separate block), load again at the same offset. */
Module
addressRewriteModule(bool cross_block)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1); // 65536 bytes
    uint32_t t = mb.addType({ValType::i32}, {ValType::i64});
    auto& f = mb.addFunction(t); // param: flag
    f.addLocal(ValType::i32); // local 1: a
    f.i32Const(65528);
    f.localSet(1);
    f.localGet(1);
    f.memOp(Op::i64_load, 0); // 65528 + 8 == 65536: in bounds
    if (cross_block) {
        auto skip = f.block();
        f.localGet(0);
        f.emit(Op::i32_eqz);
        f.brIf(skip);
        f.i32Const(65536);
        f.localSet(1);
        f.end();
    } else {
        f.i32Const(65536);
        f.localSet(1);
    }
    f.localGet(1);
    f.memOp(Op::i64_load, 0); // 65536 + 8 > 65536: must trap
    f.emit(Op::i64_add);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

TEST(Soundness, AddressRewriteNeverSkipsRequiredCheck)
{
    for (EngineKind kind :
         {EngineKind::interp_switch, EngineKind::interp_threaded,
          EngineKind::jit_base, EngineKind::jit_opt}) {
        if ((kind == EngineKind::jit_base || kind == EngineKind::jit_opt) &&
            !jit::jitSupported())
            continue;
        for (bool cross_block : {false, true}) {
            for (bool opt : {false, true}) {
                EngineConfig config;
                config.kind = kind;
                config.strategy = BoundsStrategy::trap;
                config.optimizeLoweredIR = opt;
                Engine engine(config);
                auto compiled =
                    engine.compile(addressRewriteModule(cross_block));
                ASSERT_TRUE(compiled.isOk());
                auto inst = Instance::create(compiled.takeValue());
                ASSERT_TRUE(inst.isOk());
                auto out =
                    inst.value()->callExport("run", {Value::fromI32(1)});
                EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory)
                    << "engine " << int(kind) << " cross_block "
                    << cross_block << " opt " << opt;
                // The not-rewritten path must still succeed.
                auto ok =
                    inst.value()->callExport("run", {Value::fromI32(0)});
                EXPECT_TRUE(cross_block ? ok.ok() : !ok.ok());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Headline criterion: >= 30% fewer emitted checks on an RMW loop kernel
// ---------------------------------------------------------------------

TEST(Criterion, EmittedChecksDropAtLeast30PercentOnRmwKernel)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    obs::Counter emitted =
        obs::registerCounter("jit.bounds_checks_emitted");
    uint64_t deltas[2];
    for (bool opt : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = opt;
        Engine engine(config);
        uint64_t before = emitted.value();
        auto compiled = engine.compile(rmwScaleModule());
        ASSERT_TRUE(compiled.isOk());
        deltas[opt] = emitted.value() - before;
    }
    ASSERT_GT(deltas[0], 0u);
    EXPECT_LE(deltas[1] * 10, deltas[0] * 7)
        << "opt-off emitted " << deltas[0] << ", opt-on emitted "
        << deltas[1];
    // Behavior must be identical: scale a row and compare memory.
    for (bool opt : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = opt;
        Engine engine(config);
        auto compiled = engine.compile(rmwScaleModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "scale", {Value::fromI32(8192), Value::fromF64(2.5)});
        EXPECT_TRUE(out.ok());
    }
}

// ---------------------------------------------------------------------
// Affine loop versioning
// ---------------------------------------------------------------------

/**
 * sum += mem[base + i*4] for i in [0, n), as a bottom-test counted loop
 * with an unsigned exit compare — the exact shape the versioner's
 * planner recognizes (affine address {base:1, i:4}, invariant bound).
 */
Module
affineSumModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // params: base, n
    f.addLocal(ValType::i32); // local 2: i
    f.addLocal(ValType::i32); // local 3: sum
    auto exit = f.block();
    f.localGet(1);
    f.emit(Op::i32_eqz);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(0);
    f.localGet(2);
    f.i32Const(2);
    f.emit(Op::i32_shl); // i * 4
    f.emit(Op::i32_add);
    f.memOp(Op::i32_load, 0);
    f.localGet(3);
    f.emit(Op::i32_add);
    f.localSet(3);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_u);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    f.localGet(3);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/** mem[base + i*4] = i + 1 for i in [0, n), plus a "peek" accessor so a
 * test can observe which stores retired before a trap. */
Module
affineStoreModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {});
    auto& f = mb.addFunction(t); // params: base, n
    f.addLocal(ValType::i32); // local 2: i
    auto exit = f.block();
    f.localGet(1);
    f.emit(Op::i32_eqz);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(0);
    f.localGet(2);
    f.i32Const(2);
    f.emit(Op::i32_shl);
    f.emit(Op::i32_add);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.memOp(Op::i32_store, 0);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_u);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    uint32_t run = f.finish();
    uint32_t pt = mb.addType({ValType::i32}, {ValType::i32});
    auto& p = mb.addFunction(pt);
    p.localGet(0);
    p.memOp(Op::i32_load, 0);
    uint32_t peek = p.finish();
    mb.exportFunc("run", run);
    mb.exportFunc("peek", peek);
    return mb.build();
}

/** What keeps blockedLoopModule's loop from being versioned. */
enum class Blocker
{
    grow, ///< memory.grow may extend memory mid-loop
    call, ///< so may a callee
    /** A second `br_if head` mid-body: the loop's first block ends in a
     * counted back edge, but it is not the only jump to the header, so
     * the header has an entry the preheader guard cannot cover. */
    secondBackEdge,
};

/** The affine sum loop with a versioning blocker in the body. */
Module
blockedLoopModule(Blocker blocker)
{
    ModuleBuilder mb;
    mb.addMemory(1, 4);
    uint32_t helper_t = mb.addType({}, {});
    auto& h = mb.addFunction(helper_t);
    uint32_t helper = h.finish();
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // params: base, n
    f.addLocal(ValType::i32);
    f.addLocal(ValType::i32);
    auto exit = f.block();
    f.localGet(1);
    f.emit(Op::i32_eqz);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(0);
    f.localGet(2);
    f.i32Const(2);
    f.emit(Op::i32_shl);
    f.emit(Op::i32_add);
    f.memOp(Op::i32_load, 0);
    f.localGet(3);
    f.emit(Op::i32_add);
    f.localSet(3);
    switch (blocker) {
      case Blocker::grow:
        f.i32Const(0);
        f.memoryGrow();
        f.drop();
        break;
      case Blocker::call:
        f.call(helper);
        break;
      case Blocker::secondBackEdge:
        f.localGet(2);
        f.i32Const(1);
        f.emit(Op::i32_add);
        f.localTee(2);
        f.localGet(1);
        f.emit(Op::i32_lt_u);
        f.brIf(head);
        break;
    }
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_u);
    f.brIf(head);
    f.end();
    f.end();
    f.localGet(3);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/** Optimize one module with the full check pipeline (value numbering
 * and versioning) as the engine would configure it. */
OptStats
optimizeWithVersioning(LoweredModule& lm, bool versioning = true)
{
    OptOptions opts;
    opts.analyzeChecks = true;
    opts.versionLoops = versioning;
    return optimizeLoweredModule(lm, opts);
}

TEST(Versioning, AffineLoopGetsVersionedClone)
{
    auto lowered = lowerModule(affineSumModule());
    ASSERT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();

    OptStats stats = optimizeWithVersioning(lm);
    EXPECT_GE(stats.loopsVersioned, 1u);
    EXPECT_GE(stats.checksVersioned, 1u);

    // The rewritten function carries a fallback-counting slow clone and
    // fast-path accesses marked elidable for the JIT.
    const LoweredFunc& func = lm.funcs[0];
    bool has_fallback_marker = false;
    for (const LInst& inst : func.code) {
        if (!inst.isWasmOp() && inst.lop() == LOp::count_fallback)
            has_fallback_marker = true;
    }
    EXPECT_TRUE(has_fallback_marker);
    EXPECT_FALSE(func.elidableCheckPcs.empty());
    for (uint32_t pc : func.elidableCheckPcs)
        EXPECT_LT(pc, func.code.size());
}

TEST(Versioning, GrowCallOrSecondBackEdgePreventsVersioning)
{
    for (Blocker blocker :
         {Blocker::grow, Blocker::call, Blocker::secondBackEdge}) {
        auto lowered = lowerModule(blockedLoopModule(blocker));
        ASSERT_TRUE(lowered.isOk());
        LoweredModule lm = lowered.takeValue();
        OptStats stats = optimizeWithVersioning(lm);
        EXPECT_EQ(stats.loopsVersioned, 0u) << "blocker " << int(blocker);
    }
}

TEST(Versioning, FastPathMatchesInterpreterAndSkipsFallback)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // Reference: unoptimized switch interpreter.
    uint32_t expected;
    {
        EngineConfig config;
        config.kind = EngineKind::interp_switch;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = false;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "run", {Value::fromI32(64), Value::fromI32(1000)});
        ASSERT_TRUE(out.ok());
        expected = out.results[0].i32;
    }
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    Engine engine(config);
    auto compiled = engine.compile(affineSumModule());
    ASSERT_TRUE(compiled.isOk());
    EXPECT_GE(compiled.value()->optStats().loopsVersioned, 1u);
    auto inst = Instance::create(compiled.takeValue());
    ASSERT_TRUE(inst.isOk());
    auto out = inst.value()->callExport(
        "run", {Value::fromI32(64), Value::fromI32(1000)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, expected);
    // Every access fits in one page, so the guard passes and the
    // fallback clone never runs.
    EXPECT_EQ(inst.value()->guardFallbacks(), 0u);
}

TEST(Versioning, GuardFallbackPreservesTrapOrderAndSideEffects)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    for (bool versioning : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optVersioning = versioning;
        Engine engine(config);
        auto compiled = engine.compile(affineStoreModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());

        // Exact fit: stores at 65528 and 65532 (+4 == memSize) succeed.
        auto ok = inst.value()->callExport(
            "run", {Value::fromI32(65528), Value::fromI32(2)});
        EXPECT_TRUE(ok.ok());
        uint64_t fallbacks_ok = inst.value()->guardFallbacks();

        // One more iteration runs past the page: the guard must reject,
        // and the checked clone must retire the two in-bounds stores
        // before trapping on the third — same order as unoptimized.
        auto trap = inst.value()->callExport(
            "run", {Value::fromI32(65528), Value::fromI32(3)});
        EXPECT_EQ(trap.trap, TrapKind::out_of_bounds_memory);
        auto peek0 =
            inst.value()->callExport("peek", {Value::fromI32(65528)});
        auto peek1 =
            inst.value()->callExport("peek", {Value::fromI32(65532)});
        ASSERT_TRUE(peek0.ok() && peek1.ok());
        EXPECT_EQ(peek0.results[0].i32, 1);
        EXPECT_EQ(peek1.results[0].i32, 2);
        if (versioning) {
            EXPECT_EQ(fallbacks_ok, 0u) << "exact fit must stay fast";
            EXPECT_GE(inst.value()->guardFallbacks(), 1u)
                << "the trapping run must take the checked clone";
        } else {
            EXPECT_EQ(inst.value()->guardFallbacks(), 0u);
        }
    }
}

TEST(Versioning, U32WraparoundFallsBackSoundly)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // base + i*4 wraps u32 between iterations. The guard evaluates the
    // worst-case extent in u64 (no wrap), so it must reject and leave the
    // wrap semantics — including the first-iteration trap — to the
    // checked clone.
    for (bool versioning : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optVersioning = versioning;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "run",
            {Value::fromI32(int32_t(0xFFFFFFFCu)), Value::fromI32(2)});
        EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory);
        if (versioning) {
            EXPECT_GE(inst.value()->guardFallbacks(), 1u);
        }
    }
}

/**
 * Two counted loops over i in [0, 8) from a constant start, so their
 * guards fold at compile time. Each does mem[a + i*4] += i + 1 and
 * returns the sum of the words it wrote: "fixed" at a = @p fixed_base,
 * "based" at a = its parameter. "grow" adds a page to the 1..2-page
 * memory.
 */
Module
foldedGuardModule(uint32_t fixed_base)
{
    ModuleBuilder mb;
    mb.addMemory(1, 2);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    for (bool based : {false, true}) {
        auto& f = mb.addFunction(t); // param: base ("based" only)
        uint32_t i = f.addLocal(ValType::i32);
        uint32_t sum = f.addLocal(ValType::i32);
        uint32_t v = f.addLocal(ValType::i32);
        auto address = [&] {
            if (based)
                f.localGet(0);
            else
                f.i32Const(int32_t(fixed_base));
            f.localGet(i);
            f.i32Const(2);
            f.emit(Op::i32_shl);
            f.emit(Op::i32_add);
        };
        f.i32Const(0);
        f.localSet(i);
        auto head = f.loop();
        address();
        address();
        f.memOp(Op::i32_load, 0);
        f.localGet(i);
        f.i32Const(1);
        f.emit(Op::i32_add);
        f.emit(Op::i32_add);
        f.localTee(v);
        f.memOp(Op::i32_store, 0);
        f.localGet(sum);
        f.localGet(v);
        f.emit(Op::i32_add);
        f.localSet(sum);
        f.localGet(i);
        f.i32Const(1);
        f.emit(Op::i32_add);
        f.localTee(i);
        f.i32Const(8);
        f.emit(Op::i32_lt_u);
        f.brIf(head);
        f.end();
        f.localGet(sum);
        mb.exportFunc(based ? "based" : "fixed", f.finish());
    }
    uint32_t gt = mb.addType({}, {ValType::i32});
    auto& g = mb.addFunction(gt);
    g.i32Const(1);
    g.memoryGrow();
    mb.exportFunc("grow", g.finish());
    return mb.build();
}

/** Does @p func carry a versioned loop's checked clone? */
bool
hasGuardedClone(const LoweredFunc& func)
{
    return std::any_of(func.code.begin(), func.code.end(),
                       [](const LInst& inst) {
                           return inst.op == uint16_t(LOp::count_fallback);
                       });
}

TEST(Versioning, FoldedGuardProvesOnlyAgainstTheDeclaredMinimum)
{
    // 1024 + 8*4 fits the one-page minimum: proved, so no guard and no
    // clone. 65528 + 8*4 lies past the minimum but inside the two-page
    // maximum: a grown memory could hold it, so it stays guarded.
    for (uint32_t fixed_base : {1024u, 65528u}) {
        auto lowered = lowerModule(foldedGuardModule(fixed_base));
        ASSERT_TRUE(lowered.isOk());
        LoweredModule lm = lowered.takeValue();
        OptStats stats = optimizeWithVersioning(lm);
        EXPECT_EQ(stats.loopsVersioned, 2u);
        EXPECT_EQ(stats.checksVersioned, 4u);
        EXPECT_EQ(hasGuardedClone(lm.funcs[0]), fixed_base == 65528u)
            << "fixed base " << fixed_base;
        EXPECT_FALSE(lm.funcs[0].elidableCheckPcs.empty());
        // A base has no compile-time bound: always guarded.
        EXPECT_TRUE(hasGuardedClone(lm.funcs[1]));
    }
}

/** Call @p calls (export name, argument) in order on one instance; the
 * i64 view of each result, or its trap kind. */
std::vector<std::pair<TrapKind, uint64_t>>
runSequence(const Module& module, const EngineConfig& config,
            const std::vector<std::pair<const char*, uint32_t>>& calls,
            uint64_t* fallbacks = nullptr)
{
    Engine engine(config);
    auto compiled = engine.compile(Module(module));
    EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto inst = Instance::create(compiled.takeValue());
    EXPECT_TRUE(inst.isOk()) << inst.status().toString();
    std::vector<std::pair<TrapKind, uint64_t>> outcomes;
    for (const auto& [name, arg] : calls) {
        std::vector<Value> args;
        if (std::string(name) != "grow")
            args.push_back(Value::fromI32(int32_t(arg)));
        rt::CallOutcome out = inst.value()->callExport(name, args);
        outcomes.emplace_back(out.trap, out.ok() ? out.results[0].i64 : 0);
    }
    if (fallbacks != nullptr)
        *fallbacks = inst.value()->guardFallbacks();
    return outcomes;
}

TEST(Versioning, FailedFoldedGuardsTakeTheCloneBitExactly)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // Each sequence fails one folded guard: base + 32 wraps u32 past 0,
    // base + 32 runs past the one-page memory, and the fixed loop's
    // 65560 needs the page a later grow adds (then passes). Under clamp
    // the clone redirects the out-of-bounds accesses, under trap it
    // traps, and either way it must match the unoptimized interpreters.
    Module module = foldedGuardModule(65528);
    const std::vector<std::vector<std::pair<const char*, uint32_t>>>
        sequences = {
            {{"based", 0xFFFFFFF0u}, {"based", 0xFFFFFFF0u}},
            {{"based", 65520}, {"based", 64}},
            {{"fixed", 0}, {"grow", 0}, {"fixed", 0}},
        };
    for (BoundsStrategy strategy :
         {BoundsStrategy::clamp, BoundsStrategy::trap}) {
        for (const auto& calls : sequences) {
            SCOPED_TRACE(std::string(mem::boundsStrategyName(strategy)) +
                         " " + calls[0].first + " " +
                         std::to_string(calls[0].second));
            EngineConfig config;
            config.strategy = strategy;
            config.kind = EngineKind::interp_switch;
            config.optimizeLoweredIR = false;
            auto want = runSequence(module, config, calls);
            EXPECT_EQ(want[0].first, strategy == BoundsStrategy::trap
                                         ? TrapKind::out_of_bounds_memory
                                         : TrapKind::none);
            config.kind = EngineKind::interp_threaded;
            EXPECT_EQ(runSequence(module, config, calls), want);
            config.kind = EngineKind::jit_opt;
            config.optimizeLoweredIR = true;
            uint64_t fallbacks = 0;
            EXPECT_EQ(runSequence(module, config, calls, &fallbacks), want);
            // The first call fails its guard; the grown memory and the
            // in-bounds base pass theirs.
            EXPECT_EQ(fallbacks, calls[0].first == std::string("based") &&
                                         calls[1].second == 0xFFFFFFF0u
                                     ? 2u
                                     : 1u);
            config.tiered = true;
            config.tierThreshold = 1;
            EXPECT_EQ(runSequence(module, config, calls), want);
        }
    }
}

/**
 * "adjacent": two counted loops with nothing between them, so the first
 * one's exit is the second one's header. Both start from the parameter
 * and run while the IV is below 2: sum += mem[8 + i*4], then
 * sum += mem[8 + j*8]. A start of 2 or more fails both guards' entry
 * tests; each loop then runs one checked iteration.
 *
 * "toptest": a top-test loop, k from the parameter while k <s 3, with
 * an `if` inside: sum += mem[16 + k*4], plus mem[k*8] on odd k.
 */
Module
adjacentLoopsModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 2);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // param: start
    uint32_t i = f.addLocal(ValType::i32);
    uint32_t j = f.addLocal(ValType::i32);
    uint32_t sum = f.addLocal(ValType::i32);
    auto accumulate = [&](uint32_t iv, uint32_t base, int shift) {
        f.localGet(sum);
        f.i32Const(int32_t(base));
        f.localGet(iv);
        f.i32Const(shift);
        f.emit(Op::i32_shl);
        f.emit(Op::i32_add);
        f.memOp(Op::i32_load, 0);
        f.emit(Op::i32_add);
        f.localSet(sum);
    };
    auto next = [&](uint32_t iv) {
        f.localGet(iv);
        f.i32Const(1);
        f.emit(Op::i32_add);
        f.localTee(iv);
    };
    f.localGet(0);
    f.localSet(i);
    f.localGet(0);
    f.localSet(j);
    for (auto [iv, shift] : {std::pair{i, 2}, std::pair{j, 3}}) {
        auto head = f.loop();
        accumulate(iv, 8, shift);
        next(iv);
        f.i32Const(2);
        f.emit(Op::i32_lt_u);
        f.brIf(head);
        f.end();
    }
    f.localGet(sum);
    mb.exportFunc("adjacent", f.finish());

    auto& g = mb.addFunction(t); // param: start
    uint32_t k = g.addLocal(ValType::i32);
    uint32_t acc = g.addLocal(ValType::i32);
    g.localGet(0);
    g.localSet(k);
    auto exit = g.block();
    auto head = g.loop();
    g.localGet(k);
    g.i32Const(3);
    g.emit(Op::i32_ge_s);
    g.brIf(exit);
    auto add = [&](uint32_t base, int shift) {
        g.localGet(acc);
        g.i32Const(int32_t(base));
        g.localGet(k);
        g.i32Const(shift);
        g.emit(Op::i32_shl);
        g.emit(Op::i32_add);
        g.memOp(Op::i32_load, 0);
        g.emit(Op::i32_add);
        g.localSet(acc);
    };
    g.localGet(k);
    g.i32Const(1);
    g.emit(Op::i32_and);
    g.ifElse();
    add(0, 3);
    g.end();
    add(16, 2);
    g.localGet(k);
    g.i32Const(1);
    g.emit(Op::i32_add);
    g.localSet(k);
    g.br(head);
    g.end();
    g.end();
    g.localGet(acc);
    mb.exportFunc("toptest", g.finish());

    // Distinct words, so every address read shows in the sum.
    auto& h = mb.addFunction(t); // param unused
    uint32_t a = h.addLocal(ValType::i32);
    auto fill = h.loop();
    h.localGet(a);
    h.localGet(a);
    h.i32Const(7);
    h.emit(Op::i32_mul);
    h.i32Const(3);
    h.emit(Op::i32_add);
    h.memOp(Op::i32_store, 0);
    h.localGet(a);
    h.i32Const(4);
    h.emit(Op::i32_add);
    h.localTee(a);
    h.i32Const(65533); // a <= 65532, so the guard passes
    h.emit(Op::i32_lt_u);
    h.brIf(fill);
    h.end();
    h.i32Const(0);
    mb.exportFunc("init", h.finish());
    return mb.build();
}

TEST(Versioning, CloneExitRunsTheNextLoopsGuard)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // The first loop's clone leaves at the second loop's header, where
    // the second guard sits: it must run that guard, not skip to the
    // unchecked fast path. Start 16380 puts the second loop's one
    // iteration at 8 + 16380*8 = 131048, past the one-page memory.
    Module module = adjacentLoopsModule();
    {
        auto lowered = lowerModule(module);
        ASSERT_TRUE(lowered.isOk());
        LoweredModule lm = lowered.takeValue();
        OptStats stats = optimizeWithVersioning(lm);
        EXPECT_EQ(stats.loopsVersioned, 4u); // both, toptest and init
    }
    const std::vector<std::pair<const char*, uint32_t>> calls = {
        {"init", 0},        {"adjacent", 0},     {"adjacent", 5},
        {"adjacent", 16380}, {"toptest", 0},     {"toptest", 2},
        {"toptest", 0xFFFFFFFFu}, {"toptest", 0xFFFFFFFEu},
    };
    for (BoundsStrategy strategy :
         {BoundsStrategy::clamp, BoundsStrategy::trap}) {
        SCOPED_TRACE(mem::boundsStrategyName(strategy));
        EngineConfig config;
        config.strategy = strategy;
        config.kind = EngineKind::interp_switch;
        config.optimizeLoweredIR = false;
        auto want = runSequence(module, config, calls);
        EXPECT_EQ(want[3].first, strategy == BoundsStrategy::trap
                                     ? TrapKind::out_of_bounds_memory
                                     : TrapKind::none);
        config.kind = EngineKind::interp_threaded;
        EXPECT_EQ(runSequence(module, config, calls), want);
        config.kind = EngineKind::jit_opt;
        config.optimizeLoweredIR = true;
        uint64_t fallbacks = 0;
        EXPECT_EQ(runSequence(module, config, calls, &fallbacks), want);
        // Starts 5 and 16380 fail both adjacent guards; -1 and -2 fail
        // the top test's entry test (the signed loop runs from there).
        EXPECT_EQ(fallbacks, 6u);
        config.tiered = true;
        config.tierThreshold = 1;
        EXPECT_EQ(runSequence(module, config, calls), want);
    }
}

// ---------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------

/**
 * callee: returns mem[p], optionally after a memory.grow. caller:
 * mem[addr] + mem[callee(addr)] + mem[addr]. The direct call's argument
 * cell carries addr's value until the callee's result overwrites it; the
 * address local sits below the argument base, where the callee's frame
 * cannot reach.
 */
Module
directCallModule(bool callee_grows)
{
    ModuleBuilder mb;
    mb.addMemory(1, 4);
    uint32_t leaf_t = mb.addType({ValType::i32}, {ValType::i32});
    auto& leaf = mb.addFunction(leaf_t); // param: p
    if (callee_grows) {
        leaf.i32Const(0);
        leaf.memoryGrow();
        leaf.drop();
    }
    leaf.localGet(0);
    leaf.memOp(Op::i32_load, 0);
    uint32_t callee = leaf.finish();

    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // param: addr
    f.localGet(0);
    f.memOp(Op::i32_load, 0); // checks addr's value
    f.localGet(0);            // arg cell: carries addr's value
    f.call(callee);           // result overwrites the arg cell
    f.memOp(Op::i32_load, 0); // address is the callee's result
    f.emit(Op::i32_add);
    f.localGet(0);
    f.memOp(Op::i32_load, 0); // addr again
    f.emit(Op::i32_add);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

TEST(Analysis, DirectCallForgetsOnlyCellsFromItsArgBase)
{
    for (bool grows : {false, true}) {
        SCOPED_TRACE(grows ? "callee grows memory" : "grow-free callee");
        auto lowered = lowerModule(directCallModule(grows));
        ASSERT_TRUE(lowered.isOk());
        LoweredModule lm = lowered.takeValue();
        optimizeWithVersioning(lm);

        const LoweredFunc& caller = lm.funcs[1];
        uint32_t pc = 0;
        while (pc < caller.code.size() &&
               caller.code[pc].op != uint16_t(LOp::callf))
            pc++;
        while (pc < caller.code.size() &&
               !carriesBoundsCheck(caller.code[pc]))
            pc++;
        ASSERT_LT(pc, caller.code.size());
        // The load through the callee's result keeps its check.
        EXPECT_FALSE(listed(caller, pc));
        // mem[addr] again is covered by the first check, whatever the
        // callee did: memories never shrink.
        EXPECT_TRUE(listed(caller, lastCheckPc(caller)));
    }
}

/**
 * caller: check mem[addr], then table[0](addr) via call_indirect, then
 * load through the callee-returned value. calli's inst.b is the
 * table-index cell, not the arg base, so the result cell (arg base =
 * inst.b - nargs) sits *below* inst.b — a value-numbering clear that
 * started at inst.b, as a direct call's does, would leave it holding
 * addr's (checked) value number while the callee wrote an arbitrary
 * address into it.
 */
Module
indirectResultModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    mb.addTable(1, 1);
    uint32_t leaf_t = mb.addType({ValType::i32}, {ValType::i32});
    auto& leaf = mb.addFunction(leaf_t); // param ignored
    leaf.i32Const(70000); // callee-controlled, beyond the single page
    uint32_t leaf_idx = leaf.finish();
    mb.addElem(0, {leaf_idx});

    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // param: addr
    f.localGet(0);
    f.memOp(Op::i32_load, 0); // checks addr's value
    f.drop();
    f.localGet(0); // arg cell: carries addr's value number
    f.i32Const(0); // table index
    f.callIndirect(leaf_t); // result overwrites the arg cell
    f.memOp(Op::i32_load, 0); // address is the callee's result
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

TEST(Analysis, IndirectCallResultKeepsItsCheck)
{
    auto lowered = lowerModule(indirectResultModule());
    ASSERT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();
    optimizeWithVersioning(lm);

    // The load after the calli must not be hinted elidable: an indirect
    // call forgets every cell name, and its result is a fresh value.
    const LoweredFunc& caller = lm.funcs[1];
    bool saw_calli = false;
    bool checked_post_call_load = false;
    for (uint32_t pc = 0; pc < caller.code.size(); pc++) {
        const LInst& inst = caller.code[pc];
        if (!inst.isWasmOp() && inst.lop() == LOp::calli) {
            saw_calli = true;
            continue;
        }
        if (saw_calli && inst.isWasmOp() && isLoadOp(inst.wasmOp())) {
            for (uint32_t hinted : caller.elidableCheckPcs)
                EXPECT_NE(hinted, pc);
            checked_post_call_load = true;
            break;
        }
    }
    EXPECT_TRUE(saw_calli);
    EXPECT_TRUE(checked_post_call_load);
}

TEST(Analysis, IndirectCallResultTrapsOutOfBounds)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // End-to-end: with the full opt pipeline on, the load through the
    // indirect call's out-of-range result must still trap.
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    Engine engine(config);
    auto compiled = engine.compile(indirectResultModule());
    ASSERT_TRUE(compiled.isOk());
    auto inst = Instance::create(compiled.takeValue());
    ASSERT_TRUE(inst.isOk());
    auto out = inst.value()->callExport("run", {Value::fromI32(0)});
    EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory)
        << trapKindName(out.trap);
}

// ---------------------------------------------------------------------
// Headline criterion: >= 60% fewer retired checks on the affine kernel
// ---------------------------------------------------------------------

TEST(Criterion, RetiredChecksDropAtLeast60PercentOnAffineKernel)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    constexpr uint32_t kTrips = 5000;
    uint64_t retired[2];
    for (bool opt : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = opt;
        config.countRetiredChecks = true;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "run", {Value::fromI32(0), Value::fromI32(int32_t(kTrips))});
        ASSERT_TRUE(out.ok());
        retired[opt] = inst.value()->checksRetired();
    }
    // Unoptimized code retires one check per iteration.
    ASSERT_GE(retired[0], uint64_t(kTrips));
    EXPECT_LE(retired[1] * 10, retired[0] * 4)
        << "opt-off retired " << retired[0] << ", opt-on retired "
        << retired[1];
}

// ---------------------------------------------------------------------
// Toggles
// ---------------------------------------------------------------------

TEST(Toggles, VersioningConfigKnob)
{
    auto stats_with = [](bool versioning) {
        auto lowered = lowerModule(affineSumModule());
        LoweredModule lm = lowered.takeValue();
        return optimizeWithVersioning(lm, versioning);
    };
    EXPECT_GE(stats_with(true).loopsVersioned, 1u);
    EXPECT_EQ(stats_with(false).loopsVersioned, 0u);
    // The engine-level kill switch takes the same path.
    if (jit::jitSupported()) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optVersioning = false;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        EXPECT_EQ(compiled.value()->optStats().loopsVersioned, 0u);
    }
}

TEST(Toggles, DisabledConfigSkipsThePass)
{
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    config.optimizeLoweredIR = false;
    Engine engine(config);
    auto compiled = engine.compile(bottomTestSumModule());
    ASSERT_TRUE(compiled.isOk());
    EXPECT_EQ(compiled.value()->optStats().instsFused, 0u);
    EXPECT_EQ(compiled.value()->stats().optSeconds, 0.0);
}

} // namespace
} // namespace lnb::wasm
