/**
 * @file
 * JIT-layer tests: byte-exact assembler encodings (checked against
 * reference encodings from the Intel SDM), code-buffer lifecycle, and
 * compiler-level properties (code size, register forms compiled
 * bit-exact against the interpreter, which bounds checks the trap
 * strategy skips, trap-kind bytes after ud2 islands, one 3-byte epoch
 * poll per function entry and loop header).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

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

using Bytes = std::vector<uint8_t>;

TEST(Assembler, MemoryOperands)
{
    // Every [base + disp] takes its shortest ModRM form: no displacement
    // for 0, disp8 for [-128, 127], disp32 beyond.
    // mov rax, [rax] : REX.W 8B 00 (mod=00)
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {rax, 0}); }),
              (Bytes{0x48, 0x8B, 0x00}));
    // rbp/r13 have no mod=00 form (it means rip/no base): disp8 of 0.
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {rbp, 0}); }),
              (Bytes{0x48, 0x8B, 0x45, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {r13, 0}); }),
              (Bytes{0x49, 0x8B, 0x45, 0x00}));
    // rsp and r12 (encoding 100b) need the SIB escape, at every size.
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM32(rcx, {rsp, 0}); }),
              (Bytes{0x8B, 0x0C, 0x24}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movMR64({r12, 0}, rax); }),
              (Bytes{0x49, 0x89, 0x04, 0x24}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM32(rcx, {rsp, 4}); }),
              (Bytes{0x8B, 0x4C, 0x24, 0x04}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM32(rcx, {rsp, 128}); }),
              (Bytes{0x8B, 0x8C, 0x24, 0x80, 0x00, 0x00, 0x00}));
    // The disp8/disp32 boundary: 127 and -128 fit, 128 and -129 do not.
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {rbp, 127}); }),
              (Bytes{0x48, 0x8B, 0x45, 0x7F}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {r15, -128}); }),
              (Bytes{0x49, 0x8B, 0x47, 0x80}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {r15, 128}); }),
              (Bytes{0x49, 0x8B, 0x87, 0x80, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.movRM64(rax, {rbp, -129}); }),
              (Bytes{0x48, 0x8B, 0x85, 0x7F, 0xFF, 0xFF, 0xFF}));
}

TEST(Assembler, IndexedMemoryOperands)
{
    // [base + index*scale + disp] follows the same rules through the SIB.
    auto lea = [](Reg base, uint8_t scale, int32_t disp) {
        return assemble([&](Assembler& a) {
            a.lea(rax, Mem{base, disp, rdx, scale});
        });
    };
    EXPECT_EQ(lea(rcx, 8, 0), (Bytes{0x48, 0x8D, 0x04, 0xD1}));
    EXPECT_EQ(lea(rbp, 8, 0), (Bytes{0x48, 0x8D, 0x44, 0xD5, 0x00}));
    EXPECT_EQ(lea(r13, 8, 0), (Bytes{0x49, 0x8D, 0x44, 0xD5, 0x00}));
    EXPECT_EQ(lea(rsp, 1, 0), (Bytes{0x48, 0x8D, 0x04, 0x14}));
    EXPECT_EQ(lea(r12, 2, 0), (Bytes{0x49, 0x8D, 0x04, 0x54}));
    EXPECT_EQ(lea(rcx, 8, 127), (Bytes{0x48, 0x8D, 0x44, 0xD1, 0x7F}));
    EXPECT_EQ(lea(rcx, 8, -128), (Bytes{0x48, 0x8D, 0x44, 0xD1, 0x80}));
    EXPECT_EQ(lea(rcx, 8, 128),
              (Bytes{0x48, 0x8D, 0x84, 0xD1, 0x80, 0x00, 0x00, 0x00}));
    EXPECT_EQ(lea(rcx, 8, -129),
              (Bytes{0x48, 0x8D, 0x84, 0xD1, 0x7F, 0xFF, 0xFF, 0xFF}));
    // The jump-table dispatch: jmp [rcx+rax*8].
    EXPECT_EQ(assemble([](Assembler& a) { a.jmpMem(Mem{rcx, 0, rax, 8}); }),
              (Bytes{0xFF, 0x24, 0xC1}));

    // Linear-memory accesses off the pinned base: [r11 + rax + disp].
    auto load = [](Reg base, int32_t disp, Reg index) {
        return assemble([&](Assembler& a) {
            a.movRM32(rax, Mem{base, disp, index});
        });
    };
    EXPECT_EQ(load(r11, 0, rax), (Bytes{0x41, 0x8B, 0x04, 0x03}));
    EXPECT_EQ(load(r11, 0x10, rax), (Bytes{0x41, 0x8B, 0x44, 0x03, 0x10}));
    EXPECT_EQ(load(r11, 0x1000, rax),
              (Bytes{0x41, 0x8B, 0x84, 0x03, 0x00, 0x10, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) {
                  a.movRM64(rax, Mem{r11, -128, rax});
              }),
              (Bytes{0x49, 0x8B, 0x44, 0x03, 0x80}));
    // An r13 base has no mod=00 form even behind a SIB: disp8 of 0.
    EXPECT_EQ(load(r13, 0, rax), (Bytes{0x41, 0x8B, 0x44, 0x05, 0x00}));
    // r12 (encoding 100b, "no index" without REX.X) is an index with it.
    EXPECT_EQ(load(r11, 0, r12), (Bytes{0x43, 0x8B, 0x04, 0x23}));
    // movsd xmm8, [r11+rax]
    EXPECT_EQ(assemble([](Assembler& a) {
                  a.movsdRM(xmm8, Mem{r11, 0, rax});
              }),
              (Bytes{0xF2, 0x45, 0x0F, 0x10, 0x04, 0x03}));
    // movzx ebx, byte [r11+rax+4]
    EXPECT_EQ(assemble([](Assembler& a) {
                  a.movzxRM8(rbx, Mem{r11, 4, rax});
              }),
              (Bytes{0x41, 0x0F, 0xB6, 0x5C, 0x03, 0x04}));
    // mov [r11+rax], sil; without REX.B the byte store still forces a
    // REX, or the register would encode dh.
    EXPECT_EQ(assemble([](Assembler& a) {
                  a.movMR8(Mem{r11, 0, rax}, rsi);
              }),
              (Bytes{0x41, 0x88, 0x34, 0x03}));
    EXPECT_EQ(assemble([](Assembler& a) {
                  a.movMR8(Mem{rcx, 0, rax}, rsi);
              }),
              (Bytes{0x40, 0x88, 0x34, 0x01}));
}

TEST(Assembler, BooleansPollsAndZeroes)
{
    // setcc writes al/cl without a REX prefix; sil needs one.
    EXPECT_EQ(assemble([](Assembler& a) { a.setcc(Cond::e, rax); }),
              (Bytes{0x0F, 0x94, 0xC0}));
    EXPECT_EQ(assemble([](Assembler& a) { a.setcc(Cond::ne, rcx); }),
              (Bytes{0x0F, 0x95, 0xC1}));
    EXPECT_EQ(assemble([](Assembler& a) { a.setcc(Cond::e, rsi); }),
              (Bytes{0x40, 0x0F, 0x94, 0xC6}));
    // movzx eax, al
    EXPECT_EQ(assemble([](Assembler& a) { a.movzxRR8(rax, rax); }),
              (Bytes{0x0F, 0xB6, 0xC0}));
    // cmp eax, [rbp-0x40] : the epoch poll, one load from the poll page.
    EXPECT_EQ(assemble([](Assembler& a) {
                  a.cmpRM32(rax, {rbp, exec::kEpochPollDisp});
              }),
              (Bytes{0x3B, 0x45, 0xC0}));
    // xor r32, r32 : the zero idiom.
    EXPECT_EQ(assemble([](Assembler& a) { a.xorRR32(r14, r14); }),
              (Bytes{0x45, 0x31, 0xF6}));
}

TEST(Assembler, AluAndShift)
{
    EXPECT_EQ(assemble([](Assembler& a) { a.addRR32(rax, rcx); }),
              (std::vector<uint8_t>{0x01, 0xC8}));
    EXPECT_EQ(assemble([](Assembler& a) { a.subRR64(rdx, rbx); }),
              (std::vector<uint8_t>{0x48, 0x29, 0xDA}));
    // An imm32 against eax/rax takes the accumulator form (no ModRM).
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRI32(rax, 0x80000000u); }),
              (std::vector<uint8_t>{0x3D, 0x00, 0x00, 0x00, 0x80}));
    EXPECT_EQ(assemble([](Assembler& a) { a.cmpRI32(rcx, 0x80000000u); }),
              (std::vector<uint8_t>{0x81, 0xF9, 0x00, 0x00, 0x00, 0x80}));
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
              (std::vector<uint8_t>{0x05, 0x80, 0x00, 0x00, 0x00}));
    EXPECT_EQ(assemble([](Assembler& a) { a.addRI64(rax, 0x478); }),
              (std::vector<uint8_t>{0x48, 0x05, 0x78, 0x04, 0x00, 0x00}));
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
    // shr rcx, 1 -> 48 D1 E9 (the count-of-one form has no immediate)
    EXPECT_EQ(assemble([](Assembler& a) { a.shiftImm64(5, rcx, 1); }),
              (std::vector<uint8_t>{0x48, 0xD1, 0xE9}));
    EXPECT_EQ(assemble([](Assembler& a) { a.aluRM32(0x00, rax,
                                                    {rbx, 16}); }),
              (std::vector<uint8_t>{0x03, 0x43, 0x10}));
    // add rax, [rbp+16] -> 48 03 45 disp8
    EXPECT_EQ(assemble([](Assembler& a) { a.addRM64(rax, {rbp, 16}); }),
              (std::vector<uint8_t>{0x48, 0x03, 0x45, 0x10}));
}

TEST(Assembler, SseEncodings)
{
    // addsd xmm0, xmm1 -> F2 0F 58 C1
    EXPECT_EQ(assemble([](Assembler& a) { a.addsd(xmm0, xmm1); }),
              (std::vector<uint8_t>{0xF2, 0x0F, 0x58, 0xC1}));
    // movsd xmm8, [rbp+0] -> F2 44 0F 10 45 00 (rbp keeps a disp8 of 0)
    EXPECT_EQ(assemble([](Assembler& a) { a.movsdRM(xmm8, {rbp, 0}); }),
              (std::vector<uint8_t>{0xF2, 0x44, 0x0F, 0x10, 0x45, 0x00}));
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

/** A branch back to offset 0: the label binds there, then @p pad
 * one-byte int3 fill the gap up to the branch. */
Bytes
backwardBranch(bool conditional, int pad)
{
    return assemble([&](Assembler& a) {
        Label label = a.newLabel();
        a.bind(label);
        for (int i = 0; i < pad; i++)
            a.int3();
        if (conditional)
            a.jcc(Cond::e, label);
        else
            a.jmp(label);
    });
}

/** The branch bytes after the fill. */
Bytes
tail(const Bytes& bytes, int pad)
{
    return Bytes(bytes.begin() + pad, bytes.end());
}

TEST(Assembler, LabelsAndBranches)
{
    // Backward jump to the label it follows: rel8 = -2.
    EXPECT_EQ(backwardBranch(false, 0), (Bytes{0xEB, 0xFE}));
    // rel8 reaches exactly -128 from the end of the 2-byte branch ...
    EXPECT_EQ(tail(backwardBranch(false, 126), 126), (Bytes{0xEB, 0x80}));
    EXPECT_EQ(tail(backwardBranch(true, 126), 126), (Bytes{0x74, 0x80}));
    // ... and -129 takes rel32, measured from the end of the longer form.
    EXPECT_EQ(tail(backwardBranch(false, 127), 127),
              (Bytes{0xE9, 0x7C, 0xFF, 0xFF, 0xFF})); // -132
    EXPECT_EQ(tail(backwardBranch(true, 127), 127),
              (Bytes{0x0F, 0x84, 0x7B, 0xFF, 0xFF, 0xFF})); // -133

    // Forward branches stay rel32 (no relaxation pass), patched when the
    // label binds, however near it turns out to be.
    Bytes bytes = assemble([](Assembler& a) {
        Label label = a.newLabel();
        a.jcc(Cond::e, label); // 6 bytes
        a.ud2();               // 2 bytes
        a.bind(label);
    });
    EXPECT_EQ(bytes, (Bytes{0x0F, 0x84, 0x02, 0x00, 0x00, 0x00, 0x0F,
                            0x0B}));
    bytes = assemble([](Assembler& a) {
        Label label = a.newLabel();
        a.jmp(label);
        a.bind(label);
    });
    EXPECT_EQ(bytes, (Bytes{0xE9, 0x00, 0x00, 0x00, 0x00}));
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
    wasm::optimizeLoweredModule(analyzed, passes);
    ASSERT_FALSE(analyzed.funcs[0].elidableCheckPcs.empty());

    JitOptions trap = tableOptions();
    trap.strategy = mem::BoundsStrategy::trap;
    obs::Counter elided = obs::registerCounter("jit.bounds_checks_elided");
    size_t base_bytes = compileModule(lowered, trap).value()->codeBytes();
    uint64_t elided_before = elided.value();
    size_t opt_bytes = compileModule(analyzed, trap).value()->codeBytes();
    EXPECT_LT(opt_bytes, base_bytes);
    EXPECT_GT(elided.value(), elided_before);
}

/** Loads and stores: the sites that carry a software check. */
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
    // The opt pass alone decides which checks survive: the JIT skips
    // each listed pc of the rewritten IR and emits every other check.
    // Under trap the list holds value numbering's and loop versioning's
    // marks; under clamp only versioning's, since a clamped access
    // proves nothing about the next access to the same address.
    obs::Counter emitted = obs::registerCounter("jit.bounds_checks_emitted");
    obs::Counter elided = obs::registerCounter("jit.bounds_checks_elided");
    // The suite's elision decisions at scale 16, pinned: a change to how
    // loops are found, guards folded or checks numbered that lists other
    // checks shows here, not only as a changed runtime.
    struct Decisions
    {
        uint64_t loopsVersioned = 0;
        /** Versioned loops with a guard and a clone; the rest are
         * proved in bounds against the declared minimum memory. */
        uint64_t loopsGuarded = 0;
        uint64_t checksVersioned = 0;
        uint64_t checksElided = 0;
        bool operator==(const Decisions&) const = default;
    };
    struct Pinned
    {
        const char* suite;
        mem::BoundsStrategy strategy;
        Decisions want;
    };
    const Pinned pinned[] = {
        {"polybench", mem::BoundsStrategy::trap, {72, 41, 155, 43}},
        {"polybench", mem::BoundsStrategy::clamp, {72, 41, 155, 0}},
        {"specproxy", mem::BoundsStrategy::trap, {13, 3, 47, 11}},
        {"specproxy", mem::BoundsStrategy::clamp, {13, 3, 47, 0}},
    };
    uint64_t total_listed = 0;
    for (const auto& [suite, strategy, want] : pinned) {
        Decisions got;
        for (const kernels::Kernel* kernel : kernels::suiteKernels(suite)) {
            rt::EngineConfig config;
            config.kind = rt::EngineKind::jit_opt;
            config.strategy = strategy;
            uint64_t emitted_before = emitted.value();
            uint64_t elided_before = elided.value();
            auto cm = rt::Engine(config)
                          .compile(kernel->buildModule(16))
                          .takeValue();
            const wasm::LoweredModule& lowered = cm->lowered();
            uint64_t listed = 0;
            for (const wasm::LoweredFunc& func : lowered.funcs) {
                const std::vector<uint32_t>& pcs = func.elidableCheckPcs;
                listed += pcs.size();
                for (const wasm::LInst& inst : func.code) {
                    got.loopsGuarded +=
                        inst.op == uint16_t(wasm::LOp::count_fallback);
                }
                // Sorted without repeats, and each entry still names a
                // load or store after the register-form rewrite.
                for (size_t i = 0; i < pcs.size(); i++) {
                    ASSERT_LT(pcs[i], func.code.size()) << kernel->name;
                    EXPECT_TRUE(wasm::carriesBoundsCheck(func.code[pcs[i]]))
                        << kernel->name << " pc " << pcs[i];
                    if (i > 0) {
                        EXPECT_LT(pcs[i - 1], pcs[i]) << kernel->name;
                    }
                }
            }
            uint64_t sites = softwareCheckSites(lowered);
            EXPECT_EQ(elided.value() - elided_before, listed)
                << kernel->name;
            // The pass counts each listed check once, by mechanism, and
            // the list survives the register-form rewrite that ran last.
            const wasm::OptStats& stats = cm->optStats();
            EXPECT_GT(stats.instsFused, 0u) << kernel->name;
            EXPECT_EQ(stats.checksElided + stats.checksVersioned, listed)
                << kernel->name;
            got.loopsVersioned += stats.loopsVersioned;
            got.checksVersioned += stats.checksVersioned;
            got.checksElided += stats.checksElided;
            EXPECT_EQ(emitted.value() - emitted_before +
                          elided.value() - elided_before,
                      sites)
                << kernel->name;
            total_listed += listed;
        }
        EXPECT_TRUE(got == want)
            << suite << " " << mem::boundsStrategyName(strategy)
            << ": loops versioned " << got.loopsVersioned << " (guarded "
            << got.loopsGuarded << "), checks versioned " << got.checksVersioned
            << ", checks elided " << got.checksElided;
    }
    EXPECT_GT(total_listed, 0u);
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

/**
 * Parameters (i32 address seed, i64 seed) and 22 locals cycling through
 * the four types: cells 0..3 have register homes, cells 4..15 sit at
 * [r15+disp8] and cells 16..23 at [r15+disp32]. Every local is seeded,
 * then combined with a same-type partner on the other side of the
 * [r15+0x80] boundary; an i64 round-trips through memory at an address
 * cell past it; a 20-deep expression stack spills operand slots past it;
 * and one load reads param 0 as its address, which may fall past the
 * memory end. Returns every local folded into one i64.
 *
 * The exported "run" calls it with 18 i64 locals of its own live in the
 * 16 cells right below the callee's frame, and folds them into the
 * result: an access that lands outside its cell shows either in the
 * callee's result or in the caller's locals.
 */
wasm::Module
disp8BoundaryModule()
{
    using wasm::ValType;
    static constexpr ValType kTypes[4] = {ValType::i32, ValType::i64,
                                          ValType::f32, ValType::f64};
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    auto& f = mb.addFunction(
        mb.addType({ValType::i32, ValType::i64}, {ValType::i64}));
    const uint32_t cells = 24;
    auto type = [](uint32_t cell) {
        return cell == 0 ? ValType::i32
               : cell == 1 ? ValType::i64
                           : kTypes[cell % 4];
    };
    for (uint32_t cell = 2; cell < cells; cell++)
        f.addLocal(type(cell));
    for (uint32_t cell = 2; cell < cells; cell++) {
        switch (type(cell)) {
          case ValType::i32:
            f.localGet(0);
            f.i32Const(int32_t(0x9E3779B1u * cell));
            f.emit(wasm::Op::i32_xor);
            break;
          case ValType::i64:
            f.localGet(1);
            f.i64Const(int64_t(0x9E3779B97F4A7C15ull * cell));
            f.emit(wasm::Op::i64_add);
            break;
          case ValType::f32:
            f.localGet(0);
            f.emit(wasm::Op::f32_convert_i32_s);
            f.f32Const(float(cell) + 0.5f);
            f.emit(wasm::Op::f32_mul);
            break;
          default:
            f.localGet(1);
            f.emit(wasm::Op::f64_convert_i64_s);
            f.f64Const(double(cell) * 1.25);
            f.emit(wasm::Op::f64_add);
            break;
        }
        f.localSet(cell);
    }
    // cell k meets cell k + 12 (same type: 12 is a multiple of 4).
    for (uint32_t cell = 4; cell + 12 < cells; cell++) {
        uint32_t far = cell + 12;
        f.localGet(cell);
        f.localGet(far);
        switch (type(cell)) {
          case ValType::i32: f.emit(wasm::Op::i32_sub); break;
          case ValType::i64: f.emit(wasm::Op::i64_mul); break;
          case ValType::f32: f.emit(wasm::Op::f32_add); break;
          default: f.emit(wasm::Op::f64_sub); break;
        }
        f.localSet(far);
    }
    // An i64 stored at an address held in cell 20 (an i32 past the
    // boundary), loaded back into cell 21.
    f.localGet(20);
    f.i32Const(0xFF8);
    f.emit(wasm::Op::i32_and);
    f.localGet(17);
    f.memOp(wasm::Op::i64_store, 8);
    f.localGet(20);
    f.i32Const(0xFF8);
    f.emit(wasm::Op::i32_and);
    f.memOp(wasm::Op::i64_load, 8);
    f.localSet(21);
    // A 20-deep stack of i64 cells, summed from the top.
    for (int depth = 0; depth < 20; depth++)
        f.localGet(depth % 2 == 0 ? 17 : 21);
    for (int depth = 1; depth < 20; depth++)
        f.emit(wasm::Op::i64_add);
    f.localSet(13);
    // Param 0 as a raw address.
    f.localGet(0);
    f.memOp(wasm::Op::i32_load, 4);
    f.localSet(cells - 4);
    f.i64Const(0);
    for (uint32_t cell = 0; cell < cells; cell++) {
        f.localGet(cell);
        switch (type(cell)) {
          case ValType::i32: f.emit(wasm::Op::i64_extend_i32_u); break;
          case ValType::f32:
            f.emit(wasm::Op::i32_reinterpret_f32);
            f.emit(wasm::Op::i64_extend_i32_u);
            break;
          case ValType::f64: f.emit(wasm::Op::i64_reinterpret_f64); break;
          default: break;
        }
        f.i64Const(int64_t(cell) * 2 + 1);
        f.emit(wasm::Op::i64_mul);
        f.emit(wasm::Op::i64_xor);
    }
    uint32_t boundary = f.finish();

    auto& run = mb.addFunction(
        mb.addType({ValType::i32, ValType::i64}, {ValType::i64}));
    std::vector<uint32_t> live;
    for (int i = 0; i < 18; i++) {
        live.push_back(run.addLocal(ValType::i64));
        run.localGet(1);
        run.i64Const(int64_t(0xD6E8FEB86659FD93ull * uint64_t(i + 1)));
        run.emit(wasm::Op::i64_xor);
        run.localSet(live.back());
    }
    run.localGet(0);
    run.localGet(1);
    run.call(boundary);
    for (uint32_t local : live) {
        run.localGet(local);
        run.emit(wasm::Op::i64_add);
        run.i64Const(31);
        run.emit(wasm::Op::i64_rotl);
    }
    mb.exportFunc("run", run.finish());
    return mb.build();
}

TEST(Compiler, FrameCellsPastTheDisp8RangeStayBitExact)
{
    wasm::Module module = disp8BoundaryModule();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    for (mem::BoundsStrategy strategy :
         {mem::BoundsStrategy::none, mem::BoundsStrategy::trap,
          mem::BoundsStrategy::clamp}) {
        SCOPED_TRACE(mem::boundsStrategyName(strategy));
        std::unique_ptr<rt::Instance> instances[2];
        for (int e = 0; e < 2; e++) {
            rt::EngineConfig config;
            config.kind = e == 0 ? rt::EngineKind::jit_base
                                 : rt::EngineKind::interp_switch;
            config.strategy = strategy;
            auto cm = rt::Engine(config).compile(wasm::Module(module));
            ASSERT_TRUE(cm.isOk()) << cm.status().toString();
            auto inst = rt::Instance::create(cm.takeValue());
            ASSERT_TRUE(inst.isOk()) << inst.status().toString();
            instances[e] = inst.takeValue();
        }
        // Addresses in bounds, at the last word, and (checked strategies
        // only) past the end.
        std::vector<uint32_t> addrs = {0, 12345, uint32_t(wasm::kPageSize) - 8};
        if (strategy != mem::BoundsStrategy::none) {
            addrs.push_back(uint32_t(wasm::kPageSize) - 7);
            addrs.push_back(0xFFFFFFF0u);
        }
        size_t traps = 0;
        for (uint32_t addr : addrs) {
            for (uint64_t seed : {0ull, 1ull, 0x8000000000000001ull,
                                  0x0123456789ABCDEFull}) {
                std::vector<wasm::Value> args = {wasm::Value::fromI32(addr),
                                                 wasm::Value::fromI64(seed)};
                rt::CallOutcome jit = instances[0]->callExport("run", args);
                rt::CallOutcome interp = instances[1]->callExport("run", args);
                ASSERT_EQ(jit.trap, interp.trap) << addr << " " << seed;
                traps += !jit.ok();
                if (jit.ok()) {
                    ASSERT_EQ(jit.results[0].i64, interp.results[0].i64)
                        << addr << " " << seed;
                }
            }
        }
        EXPECT_EQ(traps, strategy == mem::BoundsStrategy::trap ? 8u : 0u);
    }
}

/**
 * `run(addr) -> i64` touches memory right after each kind of native call
 * a JIT function makes: a direct call, a call_indirect, a host call,
 * memory.grow and an atomic. Each result is stored at addr + 4k and
 * loaded back (the memory base must be valid after every call), while
 * two loaded values stay live across all of them. The callee stores
 * too; host `env.mix` re-enters nothing and returns 3x + 1.
 */
wasm::Module
pinnedBaseModule()
{
    wasm::ModuleBuilder mb;
    uint32_t unop = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    uint32_t host = mb.addImport("env", "mix", unop);
    mb.addMemory(1, 4);
    mb.addTable(1, 1);

    auto& callee = mb.addFunction(unop);
    callee.localGet(0);
    callee.localGet(0);
    callee.i32Const(0x5A);
    callee.emit(wasm::Op::i32_xor);
    callee.memOp(wasm::Op::i32_store, 40);
    callee.localGet(0);
    callee.memOp(wasm::Op::i32_load, 40);
    callee.i32Const(7);
    callee.emit(wasm::Op::i32_mul);
    uint32_t callee_idx = callee.finish();
    mb.addElem(0, {callee_idx});

    auto& run = mb.addFunction(
        mb.addType({wasm::ValType::i32}, {wasm::ValType::i64}));
    uint32_t acc = run.addLocal(wasm::ValType::i64);
    uint32_t first = run.addLocal(wasm::ValType::i32);
    uint32_t wide = run.addLocal(wasm::ValType::f64);
    // Seed the memory and keep two loaded values live across the calls.
    run.localGet(0);
    run.localGet(0);
    run.i32Const(0x9E3779B9);
    run.emit(wasm::Op::i32_mul);
    run.memOp(wasm::Op::i32_store);
    run.localGet(0);
    run.memOp(wasm::Op::i32_load);
    run.localSet(first);
    run.localGet(0);
    run.localGet(first);
    run.emit(wasm::Op::f64_convert_i32_u);
    run.memOp(wasm::Op::f64_store, 48);
    run.localGet(0);
    run.memOp(wasm::Op::f64_load, 48);
    run.localSet(wide);
    // Store the i32 on the stack at addr + offset, then acc = acc * 31 +
    // zext(mem[addr + offset]).
    uint32_t scratch = run.addLocal(wasm::ValType::i32);
    auto storeAndFold = [&](uint32_t offset) {
        run.localSet(scratch);
        run.localGet(0);
        run.localGet(scratch);
        run.memOp(wasm::Op::i32_store, offset);
        run.localGet(acc);
        run.i64Const(31);
        run.emit(wasm::Op::i64_mul);
        run.localGet(0);
        run.memOp(wasm::Op::i32_load, offset);
        run.emit(wasm::Op::i64_extend_i32_u);
        run.emit(wasm::Op::i64_add);
        run.localSet(acc);
    };
    run.localGet(0);
    run.call(callee_idx);
    storeAndFold(4);
    run.localGet(0);
    run.i32Const(0);
    run.callIndirect(unop);
    storeAndFold(8);
    run.localGet(0);
    run.call(host);
    storeAndFold(12);
    run.i32Const(1);
    run.memoryGrow();
    storeAndFold(16);
    run.localGet(0);
    run.i32Const(5);
    run.memOp(wasm::Op::i32_atomic_rmw_add, 20);
    storeAndFold(24);
    // The live values, reloaded and compared with their memory copies.
    run.localGet(acc);
    run.localGet(first);
    run.localGet(0);
    run.memOp(wasm::Op::i32_load);
    run.emit(wasm::Op::i32_xor);
    run.emit(wasm::Op::i64_extend_i32_u);
    run.emit(wasm::Op::i64_add);
    run.localGet(wide);
    run.localGet(0);
    run.memOp(wasm::Op::f64_load, 48);
    run.emit(wasm::Op::f64_sub);
    run.emit(wasm::Op::i64_reinterpret_f64);
    run.emit(wasm::Op::i64_add);
    mb.exportFunc("run", run.finish());
    return mb.build();
}

TEST(Compiler, PinnedMemoryBaseSurvivesEveryNativeCall)
{
    wasm::Module module = pinnedBaseModule();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    auto instantiate = [&](const rt::EngineConfig& config) {
        auto cm = rt::Engine(config).compile(wasm::Module(module));
        EXPECT_TRUE(cm.isOk()) << cm.status().toString();
        rt::ImportMap imports;
        imports.add("env", "mix",
                    wasm::FuncType{{wasm::ValType::i32}, {wasm::ValType::i32}},
                    [](exec::InstanceContext*, wasm::Value* args, void*) {
                        args[0] = wasm::Value::fromI32(args[0].i32 * 3 + 1);
                    });
        auto inst = rt::Instance::create(cm.takeValue(), std::move(imports));
        EXPECT_TRUE(inst.isOk()) << inst.status().toString();
        return inst.takeValue();
    };
    for (mem::BoundsStrategy strategy :
         {mem::BoundsStrategy::none, mem::BoundsStrategy::clamp,
          mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
          mem::BoundsStrategy::uffd}) {
        SCOPED_TRACE(mem::boundsStrategyName(strategy));
        rt::EngineConfig reference;
        reference.kind = rt::EngineKind::interp_threaded;
        reference.strategy = strategy;
        rt::EngineConfig opt = reference;
        opt.kind = rt::EngineKind::jit_opt;
        rt::EngineConfig base = reference;
        base.kind = rt::EngineKind::jit_base;
        rt::EngineConfig tiered = reference;
        tiered.tiered = true;
        tiered.tierThreshold = 8; // the first entry requests tier-up
        std::unique_ptr<rt::Instance> expected = instantiate(reference);
        std::unique_ptr<rt::Instance> opt_inst = instantiate(opt);
        std::unique_ptr<rt::Instance> tiered_inst = instantiate(tiered);
        ASSERT_TRUE(expected && opt_inst && tiered_inst);

        // Every function that touches memory pins the base in jit_opt
        // and tiered IR, and none does in jit_base IR.
        uint32_t run_idx = opt_inst->exportedFunc("run").value();
        EXPECT_TRUE(opt_inst->module().lowered().funcByIndex(run_idx)
                        .memBasePinned);
        EXPECT_TRUE(tiered_inst->module().lowered().funcByIndex(run_idx)
                        .memBasePinned);
        std::unique_ptr<rt::Instance> base_inst = instantiate(base);
        ASSERT_TRUE(base_inst);
        for (const wasm::LoweredFunc& f : base_inst->module().lowered().funcs)
            EXPECT_FALSE(f.memBasePinned);

        for (uint32_t addr : {0u, 4u, 1000u, 65536u - 64}) {
            for (int round = 0; round < 2; round++) {
                std::vector<wasm::Value> args = {wasm::Value::fromI32(addr)};
                rt::CallOutcome want = expected->callExport("run", args);
                ASSERT_TRUE(want.ok());
                for (rt::Instance* inst : {opt_inst.get(), tiered_inst.get()}) {
                    rt::CallOutcome got = inst->callExport("run", args);
                    ASSERT_TRUE(got.ok()) << addr;
                    EXPECT_EQ(got.results[0].i64, want.results[0].i64)
                        << addr << " round " << round;
                }
                tiered_inst->module().drainTierQueue();
            }
        }
        EXPECT_EQ(tiered_inst->module().funcTier(run_idx), exec::Tier::jit);
    }
}

/**
 * A function whose allocated local homes include caller-saved registers
 * live across callf, call_indirect, a host call, memory.grow and an
 * atomic: an init loop counts in `i`, which dies before five ints and two
 * f64s are set and stay live across every call; acc folds each call's
 * result. Host `env.mix` returns 3x + 1.
 */
wasm::Module
callerSavedHomesModule()
{
    wasm::ModuleBuilder mb;
    uint32_t unop = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    uint32_t host = mb.addImport("env", "mix", unop);
    mb.addMemory(1, 4);
    mb.addTable(1, 1);

    // The callee has locals of its own, homed in the same registers.
    auto& callee = mb.addFunction(unop);
    uint32_t twice = callee.addLocal(wasm::ValType::i32);
    uint32_t frac = callee.addLocal(wasm::ValType::f64);
    callee.localGet(0);
    callee.i32Const(1);
    callee.emit(wasm::Op::i32_shl);
    callee.localSet(twice);
    callee.localGet(0);
    callee.emit(wasm::Op::f64_convert_i32_s);
    callee.f64Const(0.375);
    callee.emit(wasm::Op::f64_mul);
    callee.localSet(frac);
    callee.localGet(twice);
    callee.localGet(frac);
    callee.emit(wasm::Op::i32_trunc_f64_s);
    callee.emit(wasm::Op::i32_xor);
    uint32_t callee_idx = callee.finish();
    mb.addElem(0, {callee_idx});

    auto& run = mb.addFunction(
        mb.addType({wasm::ValType::i32}, {wasm::ValType::i64}));
    uint32_t i = run.addLocal(wasm::ValType::i32);
    auto exit = run.block();
    auto head = run.loop();
    run.localGet(i);
    run.i32Const(8);
    run.emit(wasm::Op::i32_ge_u);
    run.brIf(exit);
    run.localGet(0);
    run.localGet(i);
    run.i32Const(2);
    run.emit(wasm::Op::i32_shl);
    run.emit(wasm::Op::i32_add);
    run.localGet(i);
    run.memOp(wasm::Op::i32_store, 64);
    run.localGet(i);
    run.i32Const(1);
    run.emit(wasm::Op::i32_add);
    run.localSet(i);
    run.br(head);
    run.end(); // loop
    run.end(); // block

    std::vector<uint32_t> ints;
    for (int32_t k = 0; k < 5; k++) {
        ints.push_back(run.addLocal(wasm::ValType::i32));
        run.localGet(0);
        run.i32Const(k * 2 + 3);
        run.emit(wasm::Op::i32_mul);
        run.i32Const(k);
        run.emit(wasm::Op::i32_add);
        run.localSet(ints.back());
    }
    std::vector<uint32_t> floats;
    for (double k : {1.5, -0.25}) {
        floats.push_back(run.addLocal(wasm::ValType::f64));
        run.localGet(0);
        run.emit(wasm::Op::f64_convert_i32_u);
        run.f64Const(k);
        run.emit(wasm::Op::f64_mul);
        run.localSet(floats.back());
    }
    uint32_t acc = run.addLocal(wasm::ValType::i64);
    auto fold = [&]() { // acc = acc * 31 + zext(top of stack)
        run.emit(wasm::Op::i64_extend_i32_u);
        run.localGet(acc);
        run.i64Const(31);
        run.emit(wasm::Op::i64_mul);
        run.emit(wasm::Op::i64_add);
        run.localSet(acc);
    };
    run.localGet(0);
    run.call(callee_idx);
    fold();
    run.localGet(0);
    run.i32Const(0);
    run.callIndirect(unop);
    fold();
    run.localGet(0);
    run.call(host);
    fold();
    run.i32Const(1);
    run.memoryGrow();
    fold();
    run.localGet(0);
    run.i32Const(5);
    run.memOp(wasm::Op::i32_atomic_rmw_add, 64);
    fold();
    // acc + every int + the bits of every float.
    run.localGet(acc);
    for (uint32_t local : ints) {
        run.localGet(local);
        run.emit(wasm::Op::i64_extend_i32_u);
        run.emit(wasm::Op::i64_add);
    }
    for (uint32_t local : floats) {
        run.localGet(local);
        run.emit(wasm::Op::i64_reinterpret_f64);
        run.emit(wasm::Op::i64_add);
    }
    mb.exportFunc("run", run.finish());
    return mb.build();
}

TEST(Compiler, CallerSavedLocalHomesSurviveEveryNativeCall)
{
    wasm::Module module = callerSavedHomesModule();
    ASSERT_TRUE(wasm::validateModule(module).isOk());
    auto instantiate = [&](const rt::EngineConfig& config) {
        auto cm = rt::Engine(config).compile(wasm::Module(module));
        EXPECT_TRUE(cm.isOk()) << cm.status().toString();
        rt::ImportMap imports;
        imports.add("env", "mix",
                    wasm::FuncType{{wasm::ValType::i32}, {wasm::ValType::i32}},
                    [](exec::InstanceContext*, wasm::Value* args, void*) {
                        args[0] = wasm::Value::fromI32(args[0].i32 * 3 + 1);
                    });
        auto inst = rt::Instance::create(cm.takeValue(), std::move(imports));
        EXPECT_TRUE(inst.isOk()) << inst.status().toString();
        return inst.takeValue();
    };
    for (mem::BoundsStrategy strategy :
         {mem::BoundsStrategy::none, mem::BoundsStrategy::clamp,
          mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
          mem::BoundsStrategy::uffd}) {
        SCOPED_TRACE(mem::boundsStrategyName(strategy));
        rt::EngineConfig reference;
        reference.kind = rt::EngineKind::interp_threaded;
        reference.strategy = strategy;
        rt::EngineConfig opt = reference;
        opt.kind = rt::EngineKind::jit_opt;
        rt::EngineConfig tiered = reference;
        tiered.tiered = true;
        tiered.tierThreshold = 8; // the first entry requests tier-up
        std::unique_ptr<rt::Instance> expected = instantiate(reference);
        std::unique_ptr<rt::Instance> opt_inst = instantiate(opt);
        std::unique_ptr<rt::Instance> tiered_inst = instantiate(tiered);
        ASSERT_TRUE(expected && opt_inst && tiered_inst);

        // Some int local lives in r8-r10 (pool indices 7-9), and both
        // floats in xmm registers: all caller-saved. The loop counter's
        // home is shared with a local born after it.
        uint32_t run_idx = opt_inst->exportedFunc("run").value();
        const wasm::LoweredFunc& func =
            opt_inst->module().lowered().funcByIndex(run_idx);
        ASSERT_EQ(func.localHomes.size(), func.numLocalCells);
        int caller_saved_ints = 0, float_homes = 0;
        for (uint32_t l = 0; l < func.numLocalCells; l++) {
            int8_t home = func.localHomes[l].home;
            if (wasm::isFloatType(func.localTypes[l]))
                float_homes += home >= 0;
            else
                caller_saved_ints += home > wasm::kNumSlotHomes;
        }
        EXPECT_GE(caller_saved_ints, 1);
        EXPECT_EQ(float_homes, 2);
        int8_t counter_home = func.localHomes[1].home;
        EXPECT_GE(counter_home, 0);
        EXPECT_TRUE(std::any_of(
            func.localHomes.begin() + 2, func.localHomes.end(),
            [&](const wasm::LocalHome& lh) { return lh.home == counter_home; }));

        for (uint32_t addr : {0u, 4u, 1000u, 65536u - 128}) {
            for (int round = 0; round < 2; round++) {
                std::vector<wasm::Value> args = {wasm::Value::fromI32(addr)};
                rt::CallOutcome want = expected->callExport("run", args);
                ASSERT_TRUE(want.ok());
                for (rt::Instance* inst : {opt_inst.get(), tiered_inst.get()}) {
                    rt::CallOutcome got = inst->callExport("run", args);
                    ASSERT_TRUE(got.ok()) << addr;
                    EXPECT_EQ(got.results[0].i64, want.results[0].i64)
                        << addr << " round " << round;
                }
                tiered_inst->module().drainTierQueue();
            }
        }
        EXPECT_EQ(tiered_inst->module().funcTier(run_idx), exec::Tier::jit);
    }
}

TEST(Compiler, ZeroExtensionIsTrackedPerHomeWrite)
{
    // i64.extend_i32_u in place skips its `mov r32, r32` only when a
    // 32-bit op wrote the home last. `f32.demote_f64` leaves bits 32-63
    // of its xmm register holding the f64's high half, and
    // `i32.reinterpret_f32` moves all 64 bits into the int home, so the
    // extend after it must keep its move: skipping it would leak the
    // f64's high half into the result. The i32.add case is the skip.
    wasm::ModuleBuilder mb;
    auto& bits = mb.addFunction(
        mb.addType({wasm::ValType::f64}, {wasm::ValType::i64}));
    bits.localGet(0);
    bits.emit(wasm::Op::f32_demote_f64);
    bits.emit(wasm::Op::i32_reinterpret_f32);
    bits.emit(wasm::Op::i64_extend_i32_u);
    mb.exportFunc("bits", bits.finish());
    auto& sum = mb.addFunction(mb.addType(
        {wasm::ValType::i32, wasm::ValType::i32}, {wasm::ValType::i64}));
    sum.localGet(0);
    sum.localGet(1);
    sum.emit(wasm::Op::i32_add);
    sum.emit(wasm::Op::i64_extend_i32_u);
    mb.exportFunc("sum", sum.finish());
    wasm::Module module = mb.build();
    for (rt::EngineKind kind :
         {rt::EngineKind::jit_base, rt::EngineKind::jit_opt}) {
        rt::EngineConfig config;
        config.kind = kind;
        auto cm = rt::Engine(config).compile(wasm::Module(module));
        ASSERT_TRUE(cm.isOk()) << cm.status().toString();
        auto inst = rt::Instance::create(cm.takeValue()).takeValue();
        for (double x : {1.5, -2.25, 3.0e38, 1.0e-300}) {
            float f = float(x);
            uint32_t want;
            std::memcpy(&want, &f, sizeof want);
            rt::CallOutcome out =
                inst->callExport("bits", {wasm::Value::fromF64(x)});
            ASSERT_TRUE(out.ok());
            EXPECT_EQ(out.results[0].i64, uint64_t(want)) << x;
        }
        rt::CallOutcome out = inst->callExport(
            "sum", {wasm::Value::fromI32(0xFFFFFFFFu),
                    wasm::Value::fromI32(0xFFFFFFFFu)});
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out.results[0].i64, 0xFFFFFFFEull);
    }
}

/** Does @p inst fall through to the next pc with no jump, call (native
 * glue included) or return? */
bool
fallsThrough(const wasm::LInst& inst)
{
    if (wasm::isFormOp(inst.op))
        return wasm::formOf(inst.op) < wasm::IrForm::jrr;
    if (!inst.isWasmOp())
        return wasm::LOp(inst.op) == wasm::LOp::copy ||
               wasm::LOp(inst.op) == wasm::LOp::count_fallback;
    wasm::Op op = inst.wasmOp();
    return !wasm::isAtomicOp(op) && op != wasm::Op::memory_size &&
           op != wasm::Op::memory_grow && op != wasm::Op::memory_copy &&
           op != wasm::Op::memory_fill;
}

/** Function entries plus loop headers (targets of a jump at or after
 * them), except those whose straight-line code runs into a later loop
 * header, which polls for them: where the JIT polls for interrupts. */
size_t
pollSites(const wasm::LoweredModule& lowered)
{
    size_t sites = 0;
    for (const wasm::LoweredFunc& func : lowered.funcs) {
        std::set<uint32_t> headers;
        for (uint32_t pc = 0; pc < func.code.size(); pc++) {
            const wasm::LInst& inst = func.code[pc];
            std::vector<uint32_t> targets;
            if (wasm::isFormOp(inst.op)) {
                if (wasm::formOf(inst.op) >= wasm::IrForm::jrr)
                    targets.push_back(inst.a);
            } else if (wasm::LOp(inst.op) == wasm::LOp::jump_table) {
                for (uint32_t i = 0; i <= inst.aux; i++)
                    targets.push_back(func.tablePool[inst.a + i]);
            } else if (wasm::LOp(inst.op) == wasm::LOp::jump ||
                       wasm::LOp(inst.op) == wasm::LOp::jump_if ||
                       wasm::LOp(inst.op) == wasm::LOp::jump_if_zero) {
                targets.push_back(inst.a);
            }
            for (uint32_t target : targets) {
                if (target <= pc)
                    headers.insert(target);
            }
        }
        // From the entry (before pc 0) or a header, does straight-line
        // code reach a later header?
        auto covered = [&](uint32_t from, bool entry) {
            for (uint32_t pc = from; pc < func.code.size(); pc++) {
                if ((pc != from || entry) && headers.count(pc))
                    return true;
                if (!fallsThrough(func.code[pc]))
                    return false;
            }
            return false;
        };
        sites += covered(0, true) ? 0 : 1;
        for (uint32_t header : headers)
            sites += covered(header, false) ? 0 : 1;
    }
    return sites;
}

/** Occurrences of the epoch poll, `cmp eax, [rbp-0x40]`. */
size_t
countPolls(const CompiledCode& code)
{
    static const uint8_t kPoll[] = {0x3B, 0x45, 0xC0};
    const uint8_t* begin = code.codeData();
    const uint8_t* end = begin + code.codeBytes();
    size_t polls = 0;
    for (const uint8_t* at = begin;
         (at = std::search(at, end, kPoll, kPoll + 3)) != end; at += 3)
        polls++;
    return polls;
}

TEST(Compiler, EpochPollIsOneLoadAtEveryEntryAndLoopHeader)
{
    // The sample's one function opens with its one loop, so the entry
    // needs no poll of its own: one poll of exactly three bytes, and
    // nothing else (no branch, no island, no glue call).
    wasm::LoweredModule sample = lowerSample();
    JitOptions polled = tableOptions();
    JitOptions unpolled = tableOptions();
    unpolled.epochChecks = false;
    auto with_polls = compileModule(sample, polled).takeValue();
    auto without_polls = compileModule(sample, unpolled).takeValue();
    EXPECT_EQ(pollSites(sample), 1u);
    EXPECT_EQ(countPolls(*with_polls), 1u);
    EXPECT_EQ(countPolls(*without_polls), 0u);
    EXPECT_EQ(with_polls->codeBytes() - without_polls->codeBytes(), 3u);

    // Every suite kernel, in both JIT tiers' IR: one poll per site.
    size_t total_sites = 0;
    for (const char* suite : {"polybench", "specproxy"}) {
        for (const kernels::Kernel* kernel : kernels::suiteKernels(suite)) {
            for (rt::EngineKind kind :
                 {rt::EngineKind::jit_base, rt::EngineKind::jit_opt}) {
                rt::EngineConfig config;
                config.kind = kind;
                config.strategy = mem::BoundsStrategy::trap;
                auto cm = rt::Engine(config)
                              .compile(kernel->buildModule(16))
                              .takeValue();
                const wasm::LoweredModule& lowered = cm->lowered();
                std::unique_ptr<exec::FuncCode[]> table(
                    new exec::FuncCode[lowered.module.numImportedFuncs() +
                                       lowered.funcs.size()]);
                JitOptions on;
                on.codeTable = table.get();
                JitOptions off = on;
                off.epochChecks = false;
                size_t polls =
                    countPolls(*compileModule(lowered, on).takeValue()) -
                    countPolls(*compileModule(lowered, off).takeValue());
                EXPECT_EQ(polls, pollSites(lowered))
                    << kernel->name << " " << rt::engineKindName(kind);
                total_sites += pollSites(lowered);
            }
        }
    }
    // Every kernel has at least one function with a loop per tier.
    EXPECT_GE(total_sites, 2u * 28);
}

} // namespace
} // namespace lnb::jit
