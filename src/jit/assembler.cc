#include "jit/assembler.h"

#include <cassert>

namespace lnb::jit {

// ---------------------------------------------------------------------
// Label machinery
// ---------------------------------------------------------------------

Label
Assembler::newLabel()
{
    labels_.emplace_back();
    return Label{int32_t(labels_.size()) - 1};
}

bool
Assembler::isBound(Label label) const
{
    return labels_[label.id].offset >= 0;
}

size_t
Assembler::labelOffset(Label label) const
{
    assert(isBound(label));
    return size_t(labels_[label.id].offset);
}

void
Assembler::bind(Label label)
{
    LabelState& state = labels_[label.id];
    assert(state.offset < 0 && "label bound twice");
    state.offset = int64_t(pos_);
    patchLabel(label.id);
}

void
Assembler::patchLabel(int32_t id)
{
    LabelState& state = labels_[id];
    if (state.offset < 0)
        return;
    for (size_t at : state.rel32Fixups) {
        int64_t rel = state.offset - int64_t(at + 4);
        for (int i = 0; i < 4; i++)
            buf_[at + i] = uint8_t(uint32_t(rel) >> (8 * i));
    }
    state.rel32Fixups.clear();
    for (size_t at : state.abs64Fixups) {
        uint64_t addr = uint64_t(buf_ + state.offset);
        for (int i = 0; i < 8; i++)
            buf_[at + i] = uint8_t(addr >> (8 * i));
    }
    state.abs64Fixups.clear();
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

void
Assembler::rex(bool w, uint8_t reg, uint8_t index, uint8_t base, bool force)
{
    uint8_t b = 0x40;
    if (w)
        b |= 0x08;
    if (reg & 8)
        b |= 0x04;
    if (index & 8)
        b |= 0x02;
    if (base & 8)
        b |= 0x01;
    if (b != 0x40 || force)
        byte(b);
}

void
Assembler::modrmReg(uint8_t reg, uint8_t rm)
{
    byte(uint8_t(0xC0 | ((reg & 7) << 3) | (rm & 7)));
}

uint8_t
Assembler::dispMod(Reg base, int32_t disp)
{
    // rbp/r13 have no mod=00 form (it means rip-relative / no base), so
    // a zero displacement off them still takes a disp8.
    if (disp == 0 && (base & 7) != 5)
        return 0x00;
    return fitsImm8(disp) ? 0x40 : 0x80;
}

void
Assembler::dispBytes(uint8_t mod, int32_t value)
{
    if (mod == 0x40)
        byte(uint8_t(value));
    else if (mod == 0x80)
        u32(uint32_t(value));
}

void
Assembler::modrmMem(uint8_t reg, const Mem& mem)
{
    uint8_t mod = dispMod(mem.base, mem.disp);
    if (mem.index == kNoIndex && (mem.base & 7) != 4) {
        byte(uint8_t(mod | ((reg & 7) << 3) | (mem.base & 7)));
    } else {
        // rm=100 is the SIB escape: an index needs one, and so does an
        // rsp/r12 base (whose SIB names index 100, "none").
        uint8_t scale_bits = mem.scale == 1   ? 0
                             : mem.scale == 2 ? 1
                             : mem.scale == 4 ? 2
                                              : 3;
        byte(uint8_t(mod | ((reg & 7) << 3) | 4));
        byte(uint8_t((scale_bits << 6) | ((mem.index & 7) << 3) |
                     (mem.base & 7)));
    }
    dispBytes(mod, mem.disp);
}

// ---------------------------------------------------------------------
// Moves
// ---------------------------------------------------------------------

void
Assembler::movRR64(Reg dst, Reg src)
{
    rex(true, src, 0, dst);
    byte(0x89);
    modrmReg(src, dst);
}

void
Assembler::movRR32(Reg dst, Reg src)
{
    rex(false, src, 0, dst);
    byte(0x89);
    modrmReg(src, dst);
}

void
Assembler::movRI32(Reg dst, uint32_t imm)
{
    rex(false, 0, 0, dst);
    byte(uint8_t(0xB8 | (dst & 7)));
    u32(imm);
}

void
Assembler::movRI64(Reg dst, uint64_t imm)
{
    rex(true, 0, 0, dst);
    byte(uint8_t(0xB8 | (dst & 7)));
    u64(imm);
}

void
Assembler::movRM64(Reg dst, Mem src)
{
    rex(true, dst, src.index, src.base);
    byte(0x8B);
    modrmMem(dst, src);
}

void
Assembler::movRM32(Reg dst, Mem src)
{
    rex(false, dst, src.index, src.base);
    byte(0x8B);
    modrmMem(dst, src);
}

void
Assembler::movMR64(Mem dst, Reg src)
{
    rex(true, src, dst.index, dst.base);
    byte(0x89);
    modrmMem(src, dst);
}

void
Assembler::movMR32(Mem dst, Reg src)
{
    rex(false, src, dst.index, dst.base);
    byte(0x89);
    modrmMem(src, dst);
}

void
Assembler::movMR16(Mem dst, Reg src)
{
    byte(0x66);
    rex(false, src, dst.index, dst.base);
    byte(0x89);
    modrmMem(src, dst);
}

void
Assembler::movMR8(Mem dst, Reg src)
{
    // Force REX so sil/dil/bpl/spl encode as byte registers.
    rex(false, src, dst.index, dst.base, src >= 4);
    byte(0x88);
    modrmMem(src, dst);
}

void
Assembler::movMI32(Mem dst, uint32_t imm)
{
    rex(false, 0, dst.index, dst.base);
    byte(0xC7);
    modrmMem(0, dst);
    u32(imm);
}

void
Assembler::movMI64(Mem dst, uint32_t imm)
{
    rex(true, 0, dst.index, dst.base);
    byte(0xC7);
    modrmMem(0, dst);
    u32(imm);
}

void
Assembler::incM64(Mem dst)
{
    rex(true, 0, dst.index, dst.base);
    byte(0xFF);
    modrmMem(0, dst);
}

void
Assembler::movzxRM8(Reg dst, Mem src)
{
    rex(false, dst, src.index, src.base);
    byte(0x0F);
    byte(0xB6);
    modrmMem(dst, src);
}

void
Assembler::movzxRM16(Reg dst, Mem src)
{
    rex(false, dst, src.index, src.base);
    byte(0x0F);
    byte(0xB7);
    modrmMem(dst, src);
}

void
Assembler::movsxRM8_32(Reg dst, Mem src)
{
    rex(false, dst, src.index, src.base);
    byte(0x0F);
    byte(0xBE);
    modrmMem(dst, src);
}

void
Assembler::movsxRM16_32(Reg dst, Mem src)
{
    rex(false, dst, src.index, src.base);
    byte(0x0F);
    byte(0xBF);
    modrmMem(dst, src);
}

void
Assembler::movsxRM8_64(Reg dst, Mem src)
{
    rex(true, dst, src.index, src.base);
    byte(0x0F);
    byte(0xBE);
    modrmMem(dst, src);
}

void
Assembler::movsxRM16_64(Reg dst, Mem src)
{
    rex(true, dst, src.index, src.base);
    byte(0x0F);
    byte(0xBF);
    modrmMem(dst, src);
}

void
Assembler::movsxRM32_64(Reg dst, Mem src)
{
    rex(true, dst, src.index, src.base);
    byte(0x63);
    modrmMem(dst, src);
}

void
Assembler::movsxdRR(Reg dst, Reg src)
{
    rex(true, dst, 0, src);
    byte(0x63);
    modrmReg(dst, src);
}

void
Assembler::movsxRR8_32(Reg dst, Reg src)
{
    rex(false, dst, 0, src, src >= 4);
    byte(0x0F);
    byte(0xBE);
    modrmReg(dst, src);
}

void
Assembler::movsxRR16_32(Reg dst, Reg src)
{
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0xBF);
    modrmReg(dst, src);
}

void
Assembler::movsxRR8_64(Reg dst, Reg src)
{
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0xBE);
    modrmReg(dst, src);
}

void
Assembler::movsxRR16_64(Reg dst, Reg src)
{
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0xBF);
    modrmReg(dst, src);
}

void
Assembler::lea(Reg dst, Mem src)
{
    rex(true, dst, src.index, src.base);
    byte(0x8D);
    modrmMem(dst, src);
}

// ---------------------------------------------------------------------
// ALU
// ---------------------------------------------------------------------

void
Assembler::aluRR32(uint8_t opcode_base, Reg dst, Reg src)
{
    rex(false, src, 0, dst);
    byte(uint8_t(opcode_base + 0x01)); // op r/m32, r32
    modrmReg(src, dst);
}

void
Assembler::aluRR64(uint8_t opcode_base, Reg dst, Reg src)
{
    rex(true, src, 0, dst);
    byte(uint8_t(opcode_base + 0x01));
    modrmReg(src, dst);
}

void
Assembler::aluRM32(uint8_t opcode_base, Reg dst, Mem src)
{
    rex(false, dst, src.index, src.base);
    byte(uint8_t(opcode_base + 0x03)); // op r32, r/m32
    modrmMem(dst, src);
}

void
Assembler::aluRM64(uint8_t opcode_base, Reg dst, Mem src)
{
    rex(true, dst, src.index, src.base);
    byte(uint8_t(opcode_base + 0x03));
    modrmMem(dst, src);
}

void
Assembler::aluRI(bool w, uint8_t ext, Reg dst, int32_t imm)
{
    rex(w, 0, 0, dst);
    bool short_imm = fitsImm8(imm);
    if (dst == rax && !short_imm) {
        byte(uint8_t((ext << 3) | 0x05)); // op eax/rax, imm32: no ModRM
        u32(uint32_t(imm));
        return;
    }
    byte(short_imm ? 0x83 : 0x81); // 0x83: sign-extended imm8
    modrmReg(ext, dst);
    immediate(imm);
}

void
Assembler::imulRRI(bool w, Reg dst, Reg src, int32_t imm)
{
    rex(w, dst, 0, src);
    bool short_imm = fitsImm8(imm);
    byte(short_imm ? 0x6B : 0x69); // imul r, r/m, imm8 / imm32
    modrmReg(dst, src);
    immediate(imm);
}

void
Assembler::cmpRM64(Reg lhs, Mem rhs)
{
    rex(true, lhs, rhs.index, rhs.base);
    byte(0x3B); // cmp r64, r/m64
    modrmMem(lhs, rhs);
}

void
Assembler::testRR32(Reg a, Reg b)
{
    rex(false, b, 0, a);
    byte(0x85);
    modrmReg(b, a);
}

void
Assembler::testRR64(Reg a, Reg b)
{
    rex(true, b, 0, a);
    byte(0x85);
    modrmReg(b, a);
}

void
Assembler::imulRR32(Reg dst, Reg src)
{
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0xAF);
    modrmReg(dst, src);
}

void
Assembler::imulRR64(Reg dst, Reg src)
{
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0xAF);
    modrmReg(dst, src);
}

void Assembler::cdq() { byte(0x99); }

void
Assembler::cqo()
{
    byte(0x48);
    byte(0x99);
}

void
Assembler::idiv32(Reg divisor)
{
    rex(false, 0, 0, divisor);
    byte(0xF7);
    modrmReg(7, divisor);
}

void
Assembler::div32(Reg divisor)
{
    rex(false, 0, 0, divisor);
    byte(0xF7);
    modrmReg(6, divisor);
}

void
Assembler::idiv64(Reg divisor)
{
    rex(true, 0, 0, divisor);
    byte(0xF7);
    modrmReg(7, divisor);
}

void
Assembler::div64(Reg divisor)
{
    rex(true, 0, 0, divisor);
    byte(0xF7);
    modrmReg(6, divisor);
}

void
Assembler::shiftCl32(uint8_t ext, Reg dst)
{
    rex(false, 0, 0, dst);
    byte(0xD3);
    modrmReg(ext, dst);
}

void
Assembler::shiftCl64(uint8_t ext, Reg dst)
{
    rex(true, 0, 0, dst);
    byte(0xD3);
    modrmReg(ext, dst);
}

void
Assembler::shiftImm32(uint8_t ext, Reg dst, uint8_t count)
{
    rex(false, 0, 0, dst);
    byte(count == 1 ? 0xD1 : 0xC1); // D1: the implicit count of 1
    modrmReg(ext, dst);
    if (count != 1)
        byte(count);
}

void
Assembler::shiftImm64(uint8_t ext, Reg dst, uint8_t count)
{
    rex(true, 0, 0, dst);
    byte(count == 1 ? 0xD1 : 0xC1); // D1: the implicit count of 1
    modrmReg(ext, dst);
    if (count != 1)
        byte(count);
}

void
Assembler::negR32(Reg dst)
{
    rex(false, 0, 0, dst);
    byte(0xF7);
    modrmReg(3, dst);
}

void
Assembler::negR64(Reg dst)
{
    rex(true, 0, 0, dst);
    byte(0xF7);
    modrmReg(3, dst);
}

void
Assembler::bsr32(Reg dst, Reg src)
{
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0xBD);
    modrmReg(dst, src);
}

void
Assembler::bsf32(Reg dst, Reg src)
{
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0xBC);
    modrmReg(dst, src);
}

void
Assembler::bsr64(Reg dst, Reg src)
{
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0xBD);
    modrmReg(dst, src);
}

void
Assembler::bsf64(Reg dst, Reg src)
{
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0xBC);
    modrmReg(dst, src);
}

void
Assembler::popcnt32(Reg dst, Reg src)
{
    byte(0xF3);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0xB8);
    modrmReg(dst, src);
}

void
Assembler::popcnt64(Reg dst, Reg src)
{
    byte(0xF3);
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0xB8);
    modrmReg(dst, src);
}

void
Assembler::setcc(Cond cond, Reg dst8)
{
    // REX only where it is needed: sil/dil/bpl/spl and r8b..r15b.
    rex(false, 0, 0, dst8, dst8 >= 4);
    byte(0x0F);
    byte(uint8_t(0x90 | uint8_t(cond)));
    modrmReg(0, dst8);
}

void
Assembler::movzxRR8(Reg dst, Reg src8)
{
    rex(false, dst, 0, src8, src8 >= 4);
    byte(0x0F);
    byte(0xB6);
    modrmReg(dst, src8);
}

void
Assembler::cmovcc32(Cond cond, Reg dst, Reg src)
{
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(uint8_t(0x40 | uint8_t(cond)));
    modrmReg(dst, src);
}

void
Assembler::cmovcc64(Cond cond, Reg dst, Reg src)
{
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(uint8_t(0x40 | uint8_t(cond)));
    modrmReg(dst, src);
}

void
Assembler::cmovccRM64(Cond cond, Reg dst, Mem src)
{
    rex(true, dst, src.index, src.base);
    byte(0x0F);
    byte(uint8_t(0x40 | uint8_t(cond)));
    modrmMem(dst, src);
}

// ---------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------

bool
Assembler::fitsRel8(Label target) const
{
    const LabelState& state = labels_[target.id];
    return state.offset >= 0 &&
           fitsImm8(int32_t(state.offset - int64_t(pos_ + 2)));
}

void
Assembler::rel32(Label target)
{
    LabelState& state = labels_[target.id];
    if (state.offset >= 0) {
        u32(uint32_t(state.offset - int64_t(pos_ + 4)));
    } else {
        state.rel32Fixups.push_back(pos_);
        u32(0);
    }
}

void
Assembler::jmp(Label target)
{
    if (fitsRel8(target)) {
        byte(0xEB);
        byte(uint8_t(labels_[target.id].offset - int64_t(pos_ + 1)));
        return;
    }
    byte(0xE9);
    rel32(target);
}

void
Assembler::jcc(Cond cond, Label target)
{
    if (fitsRel8(target)) {
        byte(uint8_t(0x70 | uint8_t(cond)));
        byte(uint8_t(labels_[target.id].offset - int64_t(pos_ + 1)));
        return;
    }
    byte(0x0F);
    byte(uint8_t(0x80 | uint8_t(cond)));
    rel32(target);
}

void
Assembler::jmpMem(Mem target)
{
    rex(false, 0, target.index, target.base);
    byte(0xFF);
    modrmMem(4, target);
}

void
Assembler::callReg(Reg target)
{
    rex(false, 0, 0, target);
    byte(0xFF);
    modrmReg(2, target);
}

void
Assembler::callImm(const void* target)
{
    movRI64(r11, uint64_t(target));
    callReg(r11);
}

void
Assembler::callImmReloc(const void* target, RelocKind kind, uint64_t addend)
{
    movRI64Reloc(r11, uint64_t(target), kind, addend);
    callReg(r11);
}

void
Assembler::movRI64Reloc(Reg dst, uint64_t imm, RelocKind kind,
                        uint64_t addend)
{
    movRI64(dst, imm);
    recordReloc(kind, addend);
}

void Assembler::ret() { byte(0xC3); }

void
Assembler::ud2()
{
    byte(0x0F);
    byte(0x0B);
}

void Assembler::int3() { byte(0xCC); }

void
Assembler::push(Reg reg)
{
    rex(false, 0, 0, reg);
    byte(uint8_t(0x50 | (reg & 7)));
}

void
Assembler::pop(Reg reg)
{
    rex(false, 0, 0, reg);
    byte(uint8_t(0x58 | (reg & 7)));
}

void
Assembler::emitByte(uint8_t b)
{
    byte(b);
}

void
Assembler::absq(Label label)
{
    LabelState& state = labels_[label.id];
    if (state.offset >= 0) {
        u64(uint64_t(buf_ + state.offset));
    } else {
        state.abs64Fixups.push_back(pos_);
        u64(0);
    }
    // The slot holds a pointer into this very buffer once the label
    // binds; the serializer recovers the base-relative addend from the
    // patched bytes.
    recordReloc(RelocKind::codeAbs, 0);
}

void
Assembler::movRI64Label(Reg dst, Label label)
{
    rex(true, 0, 0, dst);
    byte(uint8_t(0xB8 | (dst & 7)));
    absq(label);
}

// ---------------------------------------------------------------------
// SSE
// ---------------------------------------------------------------------

void
Assembler::movssRM(Xmm dst, Mem src)
{
    byte(0xF3);
    rex(false, dst, src.index, src.base);
    byte(0x0F);
    byte(0x10);
    modrmMem(dst, src);
}

void
Assembler::movsdRM(Xmm dst, Mem src)
{
    byte(0xF2);
    rex(false, dst, src.index, src.base);
    byte(0x0F);
    byte(0x10);
    modrmMem(dst, src);
}

void
Assembler::movssMR(Mem dst, Xmm src)
{
    byte(0xF3);
    rex(false, src, dst.index, dst.base);
    byte(0x0F);
    byte(0x11);
    modrmMem(src, dst);
}

void
Assembler::movsdMR(Mem dst, Xmm src)
{
    byte(0xF2);
    rex(false, src, dst.index, dst.base);
    byte(0x0F);
    byte(0x11);
    modrmMem(src, dst);
}

void
Assembler::movapsRR(Xmm dst, Xmm src)
{
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x28);
    modrmReg(dst, src);
}

void
Assembler::movdRX(Reg dst, Xmm src)
{
    byte(0x66);
    rex(false, src, 0, dst);
    byte(0x0F);
    byte(0x7E);
    modrmReg(src, dst);
}

void
Assembler::movqRX(Reg dst, Xmm src)
{
    byte(0x66);
    rex(true, src, 0, dst);
    byte(0x0F);
    byte(0x7E);
    modrmReg(src, dst);
}

void
Assembler::movdXR(Xmm dst, Reg src)
{
    byte(0x66);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x6E);
    modrmReg(dst, src);
}

void
Assembler::movqXR(Xmm dst, Reg src)
{
    byte(0x66);
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0x6E);
    modrmReg(dst, src);
}

void
Assembler::sseOp(uint8_t prefix, uint8_t opcode, Xmm dst, Xmm src)
{
    byte(prefix);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(opcode);
    modrmReg(dst, src);
}

void
Assembler::sseOpRM(uint8_t prefix, uint8_t opcode, Xmm dst, Mem src)
{
    byte(prefix);
    rex(false, dst, src.index, src.base);
    byte(0x0F);
    byte(opcode);
    modrmMem(dst, src);
}

void
Assembler::packedOp(bool pd, uint8_t opcode, Xmm dst, Xmm src)
{
    if (pd)
        byte(0x66);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(opcode);
    modrmReg(dst, src);
}

void
Assembler::pxor(Xmm dst, Xmm src)
{
    byte(0x66);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0xEF);
    modrmReg(dst, src);
}

void
Assembler::ucomiss(Xmm a, Xmm b)
{
    rex(false, a, 0, b);
    byte(0x0F);
    byte(0x2E);
    modrmReg(a, b);
}

void
Assembler::ucomisd(Xmm a, Xmm b)
{
    byte(0x66);
    rex(false, a, 0, b);
    byte(0x0F);
    byte(0x2E);
    modrmReg(a, b);
}

void
Assembler::cvtsi2ss32(Xmm dst, Reg src)
{
    byte(0xF3);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x2A);
    modrmReg(dst, src);
}

void
Assembler::cvtsi2ss64(Xmm dst, Reg src)
{
    byte(0xF3);
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0x2A);
    modrmReg(dst, src);
}

void
Assembler::cvtsi2sd32(Xmm dst, Reg src)
{
    byte(0xF2);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x2A);
    modrmReg(dst, src);
}

void
Assembler::cvtsi2sd64(Xmm dst, Reg src)
{
    byte(0xF2);
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0x2A);
    modrmReg(dst, src);
}

void
Assembler::cvttss2si32(Reg dst, Xmm src)
{
    byte(0xF3);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x2C);
    modrmReg(dst, src);
}

void
Assembler::cvttss2si64(Reg dst, Xmm src)
{
    byte(0xF3);
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0x2C);
    modrmReg(dst, src);
}

void
Assembler::cvttsd2si32(Reg dst, Xmm src)
{
    byte(0xF2);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x2C);
    modrmReg(dst, src);
}

void
Assembler::cvttsd2si64(Reg dst, Xmm src)
{
    byte(0xF2);
    rex(true, dst, 0, src);
    byte(0x0F);
    byte(0x2C);
    modrmReg(dst, src);
}

void
Assembler::roundss(Xmm dst, Xmm src, uint8_t mode)
{
    byte(0x66);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x3A);
    byte(0x0A);
    modrmReg(dst, src);
    byte(mode);
}

void
Assembler::roundsd(Xmm dst, Xmm src, uint8_t mode)
{
    byte(0x66);
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0x3A);
    byte(0x0B);
    modrmReg(dst, src);
    byte(mode);
}

} // namespace lnb::jit
