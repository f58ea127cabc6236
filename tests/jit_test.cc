/**
 * @file
 * JIT-layer tests: byte-exact assembler encodings (checked against
 * reference encodings from the Intel SDM), code-buffer lifecycle, and
 * compiler-level properties (code size, operand folding, which bounds
 * checks the trap strategy skips, trap-kind bytes after ud2 islands).
 */
#include <gtest/gtest.h>

#include "jit/assembler.h"
#include "jit/code_buffer.h"
#include "jit/compiler.h"
#include "kernels/kernel.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "wasm/builder.h"
#include "wasm/opt.h"
#include "wasm/validator.h"

namespace lnb::jit {
namespace {

std::vector<uint8_t>
assemble(const std::function<void(Assembler&)>& body)
{
    static uint8_t buffer[512];
    Assembler as(buffer, sizeof buffer);
    body(as);
    EXPECT_FALSE(as.overflow());
    return std::vector<uint8_t>(buffer, buffer + as.size());
}

TEST(Assembler, MovEncodings)
{
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR64(rax, rcx); }),
              (std::vector<uint8_t>{0x48, 0x89, 0xC8}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR32(rbx, rdx); }),
              (std::vector<uint8_t>{0x89, 0xD3}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRR64(r15, r8); }),
              (std::vector<uint8_t>{0x4D, 0x89, 0xC7}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRI32(rax, 0x11223344); }),
              (std::vector<uint8_t>{0xB8, 0x44, 0x33, 0x22, 0x11}));
    EXPECT_EQ(
        assemble([](Assembler& a) { a.movRI64(rcx, 0x1122334455667788); }),
        (std::vector<uint8_t>{0x48, 0xB9, 0x88, 0x77, 0x66, 0x55, 0x44,
                              0x33, 0x22, 0x11}));
}

TEST(Assembler, MemoryOperands)
{
    // mov rax, [rbp+8] : REX.W 8B 85 disp32
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {rbp, 8}); }),
              (std::vector<uint8_t>{0x48, 0x8B, 0x85, 0x08, 0x00, 0x00,
                                    0x00}));
    // rsp base needs a SIB byte.
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM32(rcx, {rsp, 4}); }),
              (std::vector<uint8_t>{0x8B, 0x8C, 0x24, 0x04, 0x00, 0x00,
                                    0x00}));
    // r12 (encoding 100b) also needs the SIB escape.
    EXPECT_EQ(assemble([](Assembler& a) { a.movMR64({r12, 0}, rax); }),
              (std::vector<uint8_t>{0x49, 0x89, 0x84, 0x24, 0x00, 0x00,
                                    0x00, 0x00}));
}

TEST(Assembler, AluAndShift)
{
    EXPECT_EQ(assemble([](Assembler& a) { a.addRR32(rax, rcx); }),
              (std::vector<uint8_t>{0x01, 0xC8}));
    EXPECT_EQ(assemble([](Assembler& a) { a.subRR64(rdx, rbx); }),
              (std::vector<uint8_t>{0x48, 0x29, 0xDA}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRI32(rax, 0x80000000u); }),
              (std::vector<uint8_t>{0x81, 0xF8, 0x00, 0x00, 0x00, 0x80}));
    // Immediates that fit a sign-extended imm8 take the 0x83 form.
    EXPECT_EQ(assemble([](Assembler& a) { a.addRI32(rbx, 1); }),
              (std::vector<uint8_t>{0x83, 0xC3, 0x01}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRI64(r14, -1); }),
              (std::vector<uint8_t>{0x49, 0x83, 0xFE, 0xFF}));
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI32(r13, r13, 26); }),
              (std::vector<uint8_t>{0x45, 0x6B, 0xED, 0x1A}));
    // The imm8/imm32 boundary: 127 and -128 fit, 128 and -129 do not.
    EXPECT_EQ(assemble([](Assembler& a) { a.addRI32(rax, 127); }),
              (std::vector<uint8_t>{0x83, 0xC0, 0x7F}));
    EXPECT_EQ(assemble([](Assembler& a) { a.addRI32(rax, 128); }),
              (std::vector<uint8_t>{0x81, 0xC0, 0x80, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRI64(5, rdx, -128); }),
              (std::vector<uint8_t>{0x48, 0x83, 0xEA, 0x80}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRI64(5, rdx, -129); }),
              (std::vector<uint8_t>{0x48, 0x81, 0xEA, 0x7F, 0xFF, 0xFF,
                                    0xFF}));
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI64(rax, rcx, -128); }),
              (std::vector<uint8_t>{0x48, 0x6B, 0xC1, 0x80}));
    EXPECT_EQ(assemble([](Assembler& a) { a.imulRRI64(rax, rcx, 128); }),
              (std::vector<uint8_t>{0x48, 0x69, 0xC1, 0x80, 0x00, 0x00,
                                    0x00}));
    // shl rax, 5 -> 48 C1 E0 05
    EXPECT_EQ(assemble([](Assembler& a) { a.shiftImm64(4, rax, 5); }),
              (std::vector<uint8_t>{0x48, 0xC1, 0xE0, 0x05}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRM32(0x00, rax,
                                                    {rbx, 16}); }),
              (std::vector<uint8_t>{0x03, 0x83, 0x10, 0x00, 0x00, 0x00}));
    // add rax, [rbp+16] -> 48 03 85 disp32
    EXPECT_EQ(assemble([](Assembler& a) { a.addRM64(rax, {rbp, 16}); }),
              (std::vector<uint8_t>{0x48, 0x03, 0x85, 0x10, 0x00, 0x00,
                                    0x00}));
}

TEST(Assembler, SseEncodings)
{
    // addsd xmm0, xmm1 -> F2 0F 58 C1
    EXPECT_EQ(assemble([](Assembler& a) { a.addsd(xmm0, xmm1); }),
              (std::vector<uint8_t>{0xF2, 0x0F, 0x58, 0xC1}));
    // movsd xmm8, [rbp+0] -> F2 44 0F 10 85 00000000
    EXPECT_EQ(assemble([](Assembler& a) { a.movsdRM(xmm8, {rbp, 0}); }),
              (std::vector<uint8_t>{0xF2, 0x44, 0x0F, 0x10, 0x85, 0x00,
                                    0x00, 0x00, 0x00}));
    // cvttsd2si rax, xmm0 (64-bit) -> F2 48 0F 2C C0
    EXPECT_EQ(assemble([](Assembler& a) { a.cvttsd2si64(rax, xmm0); }),
              (std::vector<uint8_t>{0xF2, 0x48, 0x0F, 0x2C, 0xC0}));
    // roundsd xmm0, xmm0, 3 -> 66 0F 3A 0B C0 03
    EXPECT_EQ(assemble([](Assembler& a) { a.roundsd(xmm0, xmm0, 3); }),
              (std::vector<uint8_t>{0x66, 0x0F, 0x3A, 0x0B, 0xC0, 0x03}));
    // movq rax, xmm0 -> 66 48 0F 7E C0
    EXPECT_EQ(assemble([](Assembler& a) { a.movqRX(rax, xmm0); }),
              (std::vector<uint8_t>{0x66, 0x48, 0x0F, 0x7E, 0xC0}));
}

TEST(Assembler, LabelsAndBranches)
{
    // Backward jump: label at 0, jmp at 0 -> rel32 = -5.
    auto bytes = assemble([](Assembler& a) {
        Label label = a.newLabel();
        a.bind(label);
        a.jmp(label);
    });
    EXPECT_EQ(bytes, (std::vector<uint8_t>{0xE9, 0xFB, 0xFF, 0xFF, 0xFF}));

    // Forward conditional branch is patched when bound.
    bytes = assemble([](Assembler& a) {
        Label label = a.newLabel();
        a.jcc(Cond::e, label); // 6 bytes
        a.ud2();               // 2 bytes
        a.bind(label);
    });
    EXPECT_EQ(bytes, (std::vector<uint8_t>{0x0F, 0x84, 0x02, 0x00, 0x00,
                                           0x00, 0x0F, 0x0B}));
}

TEST(Assembler, OverflowIsReported)
{
    uint8_t tiny[4];
    Assembler as(tiny, sizeof tiny);
    as.movRI64(rax, 0x1122334455667788ull); // needs 10 bytes
    EXPECT_TRUE(as.overflow());
}

TEST(Assembler, ExecutesGeneratedCode)
{
    auto buffer = CodeBuffer::allocate(4096).takeValue();
    Assembler as(buffer->data(), buffer->capacity());
    // int f(int a, int b) { return a*2 + b; }  (SysV: edi, esi)
    as.movRR32(rax, rdi);
    as.addRR32(rax, rax);
    as.addRR32(rax, rsi);
    as.ret();
    ASSERT_TRUE(buffer->finalize(as.size()).isOk());
    auto fn = reinterpret_cast<int (*)(int, int)>(buffer->data());
    EXPECT_EQ(fn(20, 2), 42);
    EXPECT_EQ(fn(-3, 1), -5);
}

// ---------------------------------------------------------------------
// Compiler-level properties
// ---------------------------------------------------------------------

wasm::LoweredModule
lowerSample()
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 4);
    uint32_t t = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t acc = f.addLocal(wasm::ValType::i32);
    auto exit = f.block();
    auto loop = f.loop();
    f.localGet(0);
    f.emit(wasm::Op::i32_eqz);
    f.brIf(exit);
    f.localGet(acc);
    f.localGet(0);
    f.memOp(wasm::Op::i32_load, 16);
    f.emit(wasm::Op::i32_add);
    f.localSet(acc);
    f.localGet(0);
    f.i32Const(4);
    f.emit(wasm::Op::i32_sub);
    f.localSet(0);
    f.br(loop);
    f.end();
    f.end();
    f.localGet(acc);
    uint32_t idx = f.finish();
    mb.exportFunc("sum", idx);
    wasm::Module module = mb.build();
    EXPECT_TRUE(wasm::validateModule(module).isOk());
    return wasm::lowerModule(std::move(module)).takeValue();
}

/** Codegen needs a code table to address calls; these tests never run
 * the code, so one scratch table serves every module. */
exec::FuncCode g_codeTable[8];

JitOptions
tableOptions()
{
    JitOptions options;
    options.codeTable = g_codeTable;
    return options;
}

TEST(Compiler, ProducesCodeForAllStrategies)
{
    ASSERT_TRUE(jitSupported());
    wasm::LoweredModule lowered = lowerSample();
    for (int s = 0; s < mem::kNumBoundsStrategies; s++) {
        JitOptions options = tableOptions();
        options.strategy = mem::BoundsStrategy(s);
        auto code = compileModule(lowered, options);
        ASSERT_TRUE(code.isOk()) << code.status().toString();
        EXPECT_GT(code.value()->codeBytes(), 32u);
        EXPECT_NE(code.value()->entry(0), nullptr);
        EXPECT_FALSE(code.value()->dumpFunction(0).empty());
    }
}

TEST(Compiler, RefusesRegisterFormIR)
{
    // The interpreters' register-form rewrite emits forms the JIT has
    // no codegen for: compiling that IR fails with a Status.
    wasm::LoweredModule lowered = lowerSample();
    wasm::OptOptions rewrite;
    rewrite.fuse = true;
    wasm::optimizeLoweredModule(lowered, rewrite);
    bool has_form = false;
    for (const wasm::LInst& inst : lowered.funcs[0].code)
        has_form |= wasm::isFormOp(inst.op);
    ASSERT_TRUE(has_form);
    auto code = compileModule(lowered, tableOptions());
    ASSERT_FALSE(code.isOk());
    EXPECT_EQ(code.status().code(), StatusCode::invalid_argument);
    EXPECT_FALSE(compileFunction(lowered, 0, tableOptions()).isOk());
}

TEST(Compiler, SoftwareChecksEnlargeCode)
{
    wasm::LoweredModule lowered = lowerSample();
    JitOptions guard = tableOptions();
    guard.strategy = mem::BoundsStrategy::mprotect;
    JitOptions trap = tableOptions();
    trap.strategy = mem::BoundsStrategy::trap;
    size_t guard_bytes =
        compileModule(lowered, guard).value()->codeBytes();
    size_t trap_bytes = compileModule(lowered, trap).value()->codeBytes();
    // Inline compare+branch sequences cost code size the guard-page
    // strategy does not pay (paper SS2.3).
    EXPECT_GT(trap_bytes, guard_bytes);
}

TEST(Compiler, CheckEliminationShrinksOptTierTrapCode)
{
    // Two loads from the same address: the opt pass lists the second
    // access as covered by the first check, and trap codegen skips it.
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.memOp(wasm::Op::i32_load, 0);
    f.localGet(0);
    f.memOp(wasm::Op::i32_load, 0);
    f.emit(wasm::Op::i32_add);
    uint32_t idx = f.finish();
    mb.exportFunc("f", idx);
    wasm::Module module = mb.build();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();
    // jit_opt x trap compiles the IR the check analysis annotated, as
    // Engine::compile does; jit_base compiles the plain lowering. One
    // codegen serves both.
    wasm::LoweredModule analyzed = lowered;
    wasm::OptOptions passes;
    passes.analyzeChecks = true;
    passes.hoistChecks = true;
    wasm::optimizeLoweredModule(analyzed, passes);
    ASSERT_FALSE(analyzed.funcs[0].elidableCheckPcs.empty());

    JitOptions trap = tableOptions();
    trap.strategy = mem::BoundsStrategy::trap;
    obs::Counter elided = obs::registerCounter("jit.bounds_checks_elided");
    size_t base_bytes = compileModule(lowered, trap).value()->codeBytes();
    [[maybe_unused]] uint64_t elided_before = elided.value();
    size_t opt_bytes = compileModule(analyzed, trap).value()->codeBytes();
    EXPECT_LT(opt_bytes, base_bytes);
#ifndef LNB_OBS_DISABLED
    EXPECT_GT(elided.value(), elided_before);
#endif
}

#ifndef LNB_OBS_DISABLED
/** Loads, stores and check_bounds: the sites that carry a software check. */
uint64_t
softwareCheckSites(const wasm::LoweredModule& lowered)
{
    uint64_t sites = 0;
    for (const wasm::LoweredFunc& func : lowered.funcs) {
        for (const wasm::LInst& inst : func.code) {
            sites += inst.isWasmOp() ? wasm::isLoadOp(inst.wasmOp()) ||
                                           wasm::isStoreOp(inst.wasmOp())
                                     : inst.lop() == wasm::LOp::check_bounds;
        }
    }
    return sites;
}

TEST(Compiler, SkipsExactlyTheListedChecks)
{
    // The opt pass alone decides which checks survive: under `trap` the
    // JIT skips each listed pc and emits every other check, and under
    // `clamp` (which must redirect every access) it skips none.
    obs::Counter emitted = obs::registerCounter("jit.bounds_checks_emitted");
    obs::Counter elided = obs::registerCounter("jit.bounds_checks_elided");
    uint64_t total_listed = 0;
    for (const char* suite : {"polybench", "specproxy"}) {
        for (const kernels::Kernel* kernel : kernels::suiteKernels(suite)) {
            rt::EngineConfig config;
            config.kind = rt::EngineKind::jit_opt;
            config.strategy = mem::BoundsStrategy::trap;
            uint64_t emitted_before = emitted.value();
            uint64_t elided_before = elided.value();
            auto cm = rt::Engine(config)
                          .compile(kernel->buildModule(16))
                          .takeValue();
            const wasm::LoweredModule& lowered = cm->lowered();
            uint64_t listed = 0;
            for (const wasm::LoweredFunc& func : lowered.funcs)
                listed += func.elidableCheckPcs.size();
            uint64_t sites = softwareCheckSites(lowered);
            EXPECT_EQ(elided.value() - elided_before, listed)
                << kernel->name;
            // The pass counts each listed check once, by mechanism.
            const wasm::OptStats& stats = cm->optStats();
            EXPECT_EQ(stats.checksElided + stats.checksHoisted +
                          stats.checksVersioned,
                      listed)
                << kernel->name;
            EXPECT_EQ(emitted.value() - emitted_before +
                          elided.value() - elided_before,
                      sites)
                << kernel->name;
            total_listed += listed;

            std::unique_ptr<exec::FuncCode[]> table(new exec::FuncCode[
                lowered.module.numImportedFuncs() + lowered.funcs.size()]);
            JitOptions clamp;
            clamp.strategy = mem::BoundsStrategy::clamp;
            clamp.codeTable = table.get();
            emitted_before = emitted.value();
            elided_before = elided.value();
            ASSERT_TRUE(compileModule(lowered, clamp).isOk());
            EXPECT_EQ(elided.value() - elided_before, 0u) << kernel->name;
            EXPECT_EQ(emitted.value() - emitted_before, sites)
                << kernel->name;
        }
    }
    EXPECT_GT(total_listed, 0u);
}
#endif // LNB_OBS_DISABLED

// The fold counters compile out with the observability layer.
#ifndef LNB_OBS_DISABLED
TEST(Compiler, FoldsOperandsAndFusesBranches)
{
    // for (i = 0; i < n; i++) for (j = 0; j < n; j++) acc += i * 3 + j;
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t i = f.addLocal(wasm::ValType::i32);
    uint32_t j = f.addLocal(wasm::ValType::i32);
    uint32_t acc = f.addLocal(wasm::ValType::i32);
    auto outer = f.loop();
    f.i32Const(0);
    f.localSet(j);
    auto inner = f.loop();
    f.localGet(acc);
    f.localGet(i);
    f.i32Const(3);
    f.emit(wasm::Op::i32_mul);
    f.localGet(j);
    f.emit(wasm::Op::i32_add);
    f.emit(wasm::Op::i32_add);
    f.localSet(acc);
    f.localGet(j);
    f.i32Const(1);
    f.emit(wasm::Op::i32_add);
    f.localTee(j);
    f.localGet(0);
    f.emit(wasm::Op::i32_lt_u);
    f.brIf(inner);
    f.end();
    f.localGet(i);
    f.i32Const(1);
    f.emit(wasm::Op::i32_add);
    f.localTee(i);
    f.localGet(0);
    f.emit(wasm::Op::i32_lt_u);
    f.brIf(outer);
    f.end();
    f.localGet(acc);
    mb.exportFunc("nest", f.finish());
    wasm::Module module = mb.build();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();

    obs::Counter folded = obs::registerCounter("jit.operands_folded");
    obs::Counter fused = obs::registerCounter("jit.branches_fused");
    uint64_t folded_before = folded.value();
    uint64_t fused_before = fused.value();
    ASSERT_TRUE(compileModule(lowered, tableOptions()).isOk());
    // Constants 3 and 1 (x2) become immediates, `local.get j` and
    // `local.get 0` are read at their source, and both loop tests fuse
    // into cmp + jcc.
    EXPECT_GT(folded.value() - folded_before, 0u);
    EXPECT_EQ(fused.value() - fused_before, 2u);
}

TEST(Compiler, FoldsOnlyIntoTheInstructionThatPopsTheCell)
{
    // x + (x + 5): the constant is popped by the add right after it.
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.localGet(0);
    f.i32Const(5);
    f.emit(wasm::Op::i32_add);
    f.emit(wasm::Op::i32_add);
    mb.exportFunc("f", f.finish());
    wasm::Module module = mb.build();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();
    std::vector<wasm::LInst>& code = lowered.funcs[0].code;
    uint32_t k = 0;
    while (code[k].op != uint16_t(wasm::Op::i32_const))
        k++;
    ASSERT_EQ(code[k + 1].op, uint16_t(wasm::Op::i32_add));
    ASSERT_EQ(code[k + 1].b, code[k + 1].a + 1);

    obs::Counter folded = obs::registerCounter("jit.operands_folded");
    auto folds = [&] {
        uint64_t before = folded.value();
        EXPECT_TRUE(compileModule(lowered, tableOptions()).isOk());
        return folded.value() - before;
    };
    EXPECT_EQ(folds(), 1u);
    // Read the constant's cell as the rhs of a lower stack slot instead:
    // the add no longer pops it, so the cell must be written.
    code[k + 1].a -= 1;
    EXPECT_EQ(folds(), 0u);
}

TEST(Compiler, ReportsFrameCellTrafficPastTheRegisterHomes)
{
    // A function using more stack slots and locals than have register
    // homes emits some [r15+disp] operands.
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& f = mb.addFunction(t);
    std::vector<uint32_t> locals;
    for (int i = 0; i < 6; i++)
        locals.push_back(f.addLocal(wasm::ValType::i64));
    for (int depth = 0; depth < 8; depth++)
        f.localGet(0);
    for (int depth = 1; depth < 8; depth++)
        f.emit(wasm::Op::i32_add);
    for (uint32_t local : locals) {
        f.localGet(local);
        f.emit(wasm::Op::i32_wrap_i64);
        f.emit(wasm::Op::i32_add);
    }
    mb.exportFunc("f", f.finish());
    wasm::Module module = mb.build();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();

    obs::Counter cells = obs::registerCounter("jit.frame_cell_accesses");
    JitOptions options = tableOptions();
    options.strategy = mem::BoundsStrategy::none;
    uint64_t before = cells.value();
    ASSERT_TRUE(compileModule(lowered, options).isOk());
    EXPECT_GT(cells.value() - before, 0u);
}
#endif // LNB_OBS_DISABLED

TEST(Compiler, StackCheckAblationShrinksPrologue)
{
    wasm::LoweredModule lowered = lowerSample();
    JitOptions checked = tableOptions();
    JitOptions unchecked = tableOptions();
    unchecked.stackChecks = false;
    size_t with_checks =
        compileModule(lowered, checked).value()->codeBytes();
    size_t without_checks =
        compileModule(lowered, unchecked).value()->codeBytes();
    EXPECT_GT(with_checks, without_checks);
}

} // namespace
} // namespace lnb::jit
