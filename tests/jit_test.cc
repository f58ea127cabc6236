/**
 * @file
 * JIT-layer tests: byte-exact assembler encodings (checked against
 * reference encodings from the Intel SDM), code-buffer lifecycle, and
 * compiler-level properties (code size, register forms compiled
 * bit-exact against the interpreter, which bounds checks the trap
 * strategy skips, trap-kind bytes after ud2 islands).
 */
#include <gtest/gtest.h>

#include "jit/assembler.h"
#include "jit/code_buffer.h"
#include "jit/compiler.h"
#include "kernels/kernel.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
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
    // The same rewritten IR with and without the check analysis's skip
    // list: the list alone separates jit_opt x trap from jit_base. One
    // codegen serves both.
    wasm::LoweredModule analyzed = lowered;
    wasm::optimizeLoweredModule(lowered, wasm::OptOptions());
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
        for (const wasm::LInst& inst : func.code)
            sites += wasm::carriesBoundsCheck(inst);
    }
    return sites;
}

TEST(Compiler, SkipsExactlyTheListedChecks)
{
    // The opt pass alone decides which checks survive: under `trap` the
    // JIT skips each listed pc of the rewritten IR and emits every other
    // check, and under `clamp` (which must redirect every access) it
    // skips none.
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
            // The pass counts each listed check once, by mechanism, and
            // the list survives the register-form rewrite that ran last.
            const wasm::OptStats& stats = cm->optStats();
            EXPECT_GT(stats.instsFused, 0u) << kernel->name;
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

#ifndef LNB_OBS_DISABLED
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

// ---------------------------------------------------------------------
// Register forms: every (form, op) pair compiles and matches the
// interpreter bit for bit
// ---------------------------------------------------------------------

wasm::ValType
sigType(char c)
{
    switch (c) {
      case 'I': return wasm::ValType::i64;
      case 'f': return wasm::ValType::f32;
      case 'F': return wasm::ValType::f64;
      default: return wasm::ValType::i32;
    }
}

/** Raw bits of edge values of signature type @p c: 0, 1, -1, the
 * extremes, shift counts at and past the width, NaN, -0.0, infinity and
 * floats outside the int ranges. */
std::vector<uint64_t>
edgeBits(char c)
{
    auto f32 = [](float x) { return uint64_t(__builtin_bit_cast(uint32_t, x)); };
    auto f64 = [](double x) { return __builtin_bit_cast(uint64_t, x); };
    switch (c) {
      case 'i':
        return {0, 1, 0xFFFFFFFFu, 0x80000000u, 0x7FFFFFFFu, 32, 33, 0x1234u};
      case 'I':
        return {0, 1, ~0ull, 1ull << 63, ~0ull >> 1, 64, 65, 0x100000001ull};
      case 'f':
        return {f32(0.0f), f32(-0.0f), f32(1.5f), f32(-2.5f),
                f32(__builtin_nanf("")), f32(-__builtin_inff()),
                f32(2147483648.0f), f32(-3e19f)};
      default:
        return {f64(0.0), f64(-0.0), f64(1.5), f64(-2.5),
                f64(__builtin_nan("")), f64(__builtin_inf()),
                f64(-2147483648.9), f64(1.8e19)};
    }
}

wasm::Value
valueOf(char c, uint64_t bits)
{
    return c == 'i' || c == 'f' ? wasm::Value::fromI32(uint32_t(bits))
                                : wasm::Value::fromI64(bits);
}

void
emitConst(wasm::FunctionBuilder& f, char c, uint64_t bits)
{
    switch (c) {
      case 'i': f.i32Const(int32_t(bits)); break;
      case 'I': f.i64Const(int64_t(bits)); break;
      case 'f': f.f32Const(__builtin_bit_cast(float, uint32_t(bits))); break;
      default: f.f64Const(__builtin_bit_cast(double, bits)); break;
    }
}

/** One exported test function and the argument lists it runs on. */
struct FormCase
{
    std::string name;
    std::vector<std::vector<wasm::Value>> inputs;
};

/**
 * A module whose functions the rewrite turns into @p form of @p op.
 * Each function takes the op's inputs as parameters (after four i32
 * pads in the "mem" layout, so they live in frame cells rather than
 * register homes) and writes the result to the stack, to a fresh
 * local, or over an input local; ri/jri get one function per edge
 * immediate, jrr/jri branch through br_if (jump_if) and if
 * (jump_if_zero). Loads read a page whose ends hold a byte pattern, at
 * offsets 0 and 5, including one byte past the end under the checking
 * strategies.
 */
wasm::Module
formModule(wasm::IrForm form, wasm::Op op, bool checked,
           std::vector<FormCase>& cases)
{
    using wasm::IrForm;
    const char* sig = wasm::opSig(op);
    const char lt = sig[0];
    const char rt = sig[1];
    const char res = wasm::opResult(op);
    const bool load = wasm::isLoadOp(op);
    const bool unary = form == IrForm::r;
    const bool imm_rhs = form == IrForm::ri || form == IrForm::jri;
    const bool branch = form == IrForm::jrr || form == IrForm::jri;

    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    std::vector<uint8_t> pattern(64);
    for (size_t i = 0; i < pattern.size(); i++)
        pattern[i] = uint8_t(0x81 + 37 * i);
    mb.addData(0, pattern);
    mb.addData(wasm::kPageSize - 64, pattern);

    std::vector<uint64_t> imms = imm_rhs ? edgeBits(rt) : std::vector<uint64_t>{0};
    std::vector<uint32_t> offsets = load ? std::vector<uint32_t>{0, 5}
                                         : std::vector<uint32_t>{0};
    for (int pads : {0, 4}) {
        std::vector<wasm::ValType> params(pads, wasm::ValType::i32);
        params.push_back(sigType(lt));
        if (!unary && !imm_rhs)
            params.push_back(sigType(rt));
        const uint32_t l = uint32_t(pads);
        const uint32_t r = l + 1;
        // Results the op can write over an input local.
        std::vector<int> dsts = {-1, -2}; // stack, fresh local
        if (!branch && sigType(res) == sigType(lt))
            dsts.push_back(int(l));
        if (!branch && !unary && !imm_rhs && sigType(res) == sigType(rt))
            dsts.push_back(int(r));
        if (branch)
            dsts = {0, 1}; // br_if, if/else

        // Argument lists: edge values, or addresses around the page end.
        std::vector<std::vector<wasm::Value>> inputs;
        std::vector<wasm::Value> pad_args(pads, wasm::Value::fromI32(7));
        for (uint32_t offset : offsets) {
            if (load) {
                uint32_t size = wasm::memAccessSize(op);
                uint32_t last = uint32_t(wasm::kPageSize) - size - offset;
                for (uint32_t addr : {0u, 1u, last, last + 1}) {
                    if (addr == last + 1 && !checked)
                        continue;
                    inputs.push_back(pad_args);
                    inputs.back().push_back(wasm::Value::fromI32(addr));
                }
                continue;
            }
            for (uint64_t a : edgeBits(lt)) {
                if (unary || imm_rhs) {
                    inputs.push_back(pad_args);
                    inputs.back().push_back(valueOf(lt, a));
                    continue;
                }
                for (uint64_t b : edgeBits(rt)) {
                    inputs.push_back(pad_args);
                    inputs.back().push_back(valueOf(lt, a));
                    inputs.back().push_back(valueOf(rt, b));
                }
            }
        }

        for (uint32_t offset : offsets) {
            for (uint64_t imm : imms) {
                for (int dst : dsts) {
                    uint32_t t = mb.addType(
                        params, {branch ? wasm::ValType::i32 : sigType(res)});
                    auto& f = mb.addFunction(t);
                    uint32_t fresh = f.addLocal(sigType(res));
                    auto operands = [&] {
                        f.localGet(l);
                        if (unary && load)
                            f.memOp(op, offset);
                        else if (imm_rhs)
                            emitConst(f, rt, imm);
                        else if (!unary)
                            f.localGet(r);
                        if (!load)
                            f.emit(op);
                    };
                    if (branch && dst == 0) {
                        auto taken = f.block();
                        operands();
                        f.brIf(taken);
                        f.i32Const(0);
                        f.ret();
                        f.end();
                        f.i32Const(1);
                    } else if (branch) {
                        operands();
                        f.ifElse(wasm::ValType::i32);
                        f.i32Const(1);
                        f.elseBranch();
                        f.i32Const(0);
                        f.end();
                    } else {
                        operands();
                        if (dst != -1) {
                            uint32_t local = dst == -2 ? fresh : uint32_t(dst);
                            f.localSet(local);
                            f.localGet(local);
                        }
                    }
                    std::string name = "f" + std::to_string(cases.size());
                    mb.exportFunc(name, f.finish());
                    cases.push_back({name, inputs});
                }
            }
        }
    }
    return mb.build();
}

TEST(Compiler, CompilesEveryDefinedForm)
{
    using wasm::IrForm;
    size_t pairs = 0, calls = 0;
    for (IrForm form : {IrForm::rr, IrForm::ri, IrForm::r, IrForm::jrr,
                        IrForm::jri}) {
        for (size_t o = 0; o < wasm::kOpCount; o++) {
            wasm::Op op = wasm::Op(o);
            if (!wasm::formDefined(form, op))
                continue;
            pairs++;
            for (mem::BoundsStrategy strategy :
                 {mem::BoundsStrategy::none, mem::BoundsStrategy::trap,
                  mem::BoundsStrategy::clamp}) {
                std::string what = std::string(wasm::lopName(
                                       wasm::formOp(form, op))) +
                                   " / " + mem::boundsStrategyName(strategy);
                SCOPED_TRACE(what);
                std::vector<FormCase> cases;
                wasm::Module module = formModule(
                    form, op, strategy != mem::BoundsStrategy::none, cases);
                ASSERT_TRUE(wasm::validateModule(module).isOk());
                std::unique_ptr<rt::Instance> instances[2];
                for (int e = 0; e < 2; e++) {
                    rt::EngineConfig config;
                    config.kind = e == 0 ? rt::EngineKind::jit_base
                                         : rt::EngineKind::interp_switch;
                    config.strategy = strategy;
                    auto cm = rt::Engine(config).compile(wasm::Module(module));
                    ASSERT_TRUE(cm.isOk()) << cm.status().toString();
                    if (e == 0) {
                        bool has_form = false;
                        for (const wasm::LoweredFunc& func :
                             cm.value()->lowered().funcs) {
                            for (const wasm::LInst& inst : func.code)
                                has_form |= inst.op == wasm::formOp(form, op);
                        }
                        ASSERT_TRUE(has_form) << "the rewrite made no form";
                    }
                    auto inst = rt::Instance::create(cm.takeValue());
                    ASSERT_TRUE(inst.isOk()) << inst.status().toString();
                    instances[e] = inst.takeValue();
                }
                for (const FormCase& c : cases) {
                    for (const std::vector<wasm::Value>& args : c.inputs) {
                        rt::CallOutcome jit =
                            instances[0]->callExport(c.name, args);
                        rt::CallOutcome interp =
                            instances[1]->callExport(c.name, args);
                        calls++;
                        ASSERT_EQ(jit.trap, interp.trap)
                            << c.name << " arg " << args.back().i64;
                        if (jit.ok()) {
                            ASSERT_EQ(jit.results[0].i64,
                                      interp.results[0].i64)
                                << c.name << " arg " << args.back().i64;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(pairs, 200u);
    EXPECT_GT(calls, 0u);
}

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
