/**
 * @file
 * A minimal x86-64 assembler covering exactly the instruction selection the
 * baseline and optimizing JIT tiers emit. Code is written into a caller-
 * provided buffer; forward branches are rel32 with a label/fixup
 * mechanism, and 64-bit absolute data slots (jump tables) are patched
 * when the label binds.
 *
 * Every operand takes its shortest encoding (DESIGN.md §6): a memory
 * operand's displacement is omitted when zero (except off rbp/r13),
 * disp8 when it fits and disp32 otherwise; immediates of the group-1
 * ALU ops take imm8 when they fit; a branch to an already-bound label
 * takes rel8 when it reaches. There is no relaxation pass, so forward
 * branches stay rel32.
 *
 * Encoding reference: Intel SDM Vol. 2. REX bits: W=64-bit operand,
 * R=modrm.reg extension, X=index extension, B=modrm.rm/base extension.
 */
#ifndef LNB_JIT_ASSEMBLER_H
#define LNB_JIT_ASSEMBLER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lnb::jit {

/** General-purpose registers (hardware encoding). */
enum Reg : uint8_t {
    rax = 0, rcx = 1, rdx = 2, rbx = 3,
    rsp = 4, rbp = 5, rsi = 6, rdi = 7,
    r8 = 8, r9 = 9, r10 = 10, r11 = 11,
    r12 = 12, r13 = 13, r14 = 14, r15 = 15,
};

/** SSE registers. */
enum Xmm : uint8_t {
    xmm0 = 0, xmm1 = 1, xmm2 = 2, xmm3 = 3,
    xmm4 = 4, xmm5 = 5, xmm6 = 6, xmm7 = 7,
    xmm8 = 8, xmm9 = 9, xmm10 = 10, xmm11 = 11,
    xmm12 = 12, xmm13 = 13, xmm14 = 14, xmm15 = 15,
};

/** Condition codes (the low nibble of the 0F 8x / 0F 4x / 0F 9x groups). */
enum class Cond : uint8_t {
    o = 0x0, no = 0x1,
    b = 0x2, ae = 0x3,   // unsigned < / >=
    e = 0x4, ne = 0x5,
    be = 0x6, a = 0x7,   // unsigned <= / >
    s = 0x8, ns = 0x9,
    p = 0xA, np = 0xB,   // parity (unordered float compares)
    l = 0xC, ge = 0xD,   // signed < / >=
    le = 0xE, g = 0xF,   // signed <= / >
};

/** rsp cannot be an index: its SIB encoding means "no index". */
constexpr Reg kNoIndex = rsp;

/** A [base + index*scale + disp] memory operand; the frame and context
 * accesses leave the index out, linear-memory accesses off a pinned
 * memory base and jump tables use it. */
struct Mem
{
    Reg base;
    int32_t disp = 0;
    Reg index = kNoIndex;
    uint8_t scale = 1; ///< 1, 2, 4 or 8
};

/** Branch-target label. Create with Assembler::newLabel(). */
struct Label
{
    int32_t id = -1;
};

/**
 * Kind of an absolute 64-bit address embedded in emitted code. rel32
 * branches are position-independent and need no fixup when code moves;
 * these three are the only patterns that pin the code to one process
 * image, so recording them at emit time is what makes a finished code
 * buffer serializable (DESIGN.md §14).
 */
enum class RelocKind : uint8_t {
    /** Address of a process-local runtime glue symbol (host-call /
     * atomic / memory-size / bulk-memory helpers). addend = GlueSym id
     * (see jit/compiler.h); re-resolved from the loader's own symbol
     * table. */
    glue,
    /** Address inside the module's exec::FuncCode entry table. addend =
     * byte offset from the table base; re-based onto the loading
     * module's freshly allocated table. */
    codeTable,
    /** Address inside this code buffer itself (jump-table slots,
     * movabs-materialized label addresses). addend = byte offset from
     * the buffer base; re-based onto the mapped-in copy. */
    codeAbs,
};

/** One recorded absolute-address site: the imm64 field lives at byte
 * `offset` in the finished code. */
struct Reloc
{
    uint32_t offset = 0;
    RelocKind kind = RelocKind::glue;
    uint64_t addend = 0;
};

/**
 * Emits into an external byte buffer (the executable CodeBuffer, still RW
 * while compiling). The assembler never reallocates the buffer; the caller
 * guarantees capacity and checks overflow() at the end.
 */
class Assembler
{
  public:
    Assembler(uint8_t* buffer, size_t capacity)
        : buf_(buffer), cap_(capacity)
    {}

    size_t size() const { return pos_; }
    bool overflow() const { return overflow_; }
    uint8_t* bufferBase() const { return buf_; }

    // ----- labels -----
    Label newLabel();
    void bind(Label label);
    bool isBound(Label label) const;
    /** Offset a bound label resolves to. */
    size_t labelOffset(Label label) const;

    // ----- moves -----
    void movRR64(Reg dst, Reg src);
    void movRR32(Reg dst, Reg src);
    void movRI32(Reg dst, uint32_t imm); ///< 32-bit move, zero-extends
    void movRI64(Reg dst, uint64_t imm); ///< movabs
    void movRM64(Reg dst, Mem src);
    void movRM32(Reg dst, Mem src); ///< zero-extends
    void movMR64(Mem dst, Reg src);
    void movMR32(Mem dst, Reg src);
    void movMR16(Mem dst, Reg src);
    void movMR8(Mem dst, Reg src);
    void movMI32(Mem dst, uint32_t imm); ///< mov dword ptr
    void movMI64(Mem dst, uint32_t imm); ///< mov qword ptr, sign-ext imm32
    void incM64(Mem dst); ///< inc qword ptr (leaves CF alone)
    // loads with extension
    void movzxRM8(Reg dst, Mem src);   ///< 32-bit dst
    void movzxRM16(Reg dst, Mem src);
    void movsxRM8_32(Reg dst, Mem src);
    void movsxRM16_32(Reg dst, Mem src);
    void movsxRM8_64(Reg dst, Mem src);
    void movsxRM16_64(Reg dst, Mem src);
    void movsxRM32_64(Reg dst, Mem src); ///< movsxd
    void movsxdRR(Reg dst, Reg src);     ///< movsxd reg64, reg32
    // sign extension reg-to-reg
    void movsxRR8_32(Reg dst, Reg src);
    void movsxRR16_32(Reg dst, Reg src);
    void movsxRR8_64(Reg dst, Reg src);
    void movsxRR16_64(Reg dst, Reg src);

    void lea(Reg dst, Mem src);

    // ----- ALU (reg, reg) -----
    void aluRR32(uint8_t opcode_base, Reg dst, Reg src);
    void aluRR64(uint8_t opcode_base, Reg dst, Reg src);
    void addRR32(Reg d, Reg s) { aluRR32(0x00, d, s); }
    void addRR64(Reg d, Reg s) { aluRR64(0x00, d, s); }
    void orRR32(Reg d, Reg s) { aluRR32(0x08, d, s); }
    void orRR64(Reg d, Reg s) { aluRR64(0x08, d, s); }
    void andRR32(Reg d, Reg s) { aluRR32(0x20, d, s); }
    void andRR64(Reg d, Reg s) { aluRR64(0x20, d, s); }
    void subRR32(Reg d, Reg s) { aluRR32(0x28, d, s); }
    void subRR64(Reg d, Reg s) { aluRR64(0x28, d, s); }
    void xorRR32(Reg d, Reg s) { aluRR32(0x30, d, s); }
    void xorRR64(Reg d, Reg s) { aluRR64(0x30, d, s); }
    void cmpRR32(Reg d, Reg s) { aluRR32(0x38, d, s); }
    void cmpRR64(Reg d, Reg s) { aluRR64(0x38, d, s); }

    /** op reg, [mem] forms (opcode base + 0x03). */
    void aluRM32(uint8_t opcode_base, Reg dst, Mem src);
    void aluRM64(uint8_t opcode_base, Reg dst, Mem src);
    void addRM64(Reg d, Mem s) { aluRM64(0x00, d, s); }
    void cmpRM32(Reg d, Mem s) { aluRM32(0x38, d, s); }

    // ----- ALU (reg, imm) -----
    /** Group-1 op (0x81 /ext) with the shortest immediate: 0x83 and a
     * sign-extended imm8 when @p imm fits in one, else the accumulator
     * form (no ModRM) when @p dst is rax. */
    void aluRI32(uint8_t ext, Reg dst, uint32_t imm)
    {
        aluRI(false, ext, dst, int32_t(imm));
    }
    void aluRI64(uint8_t ext, Reg dst, int32_t imm) ///< sign-extended
    {
        aluRI(true, ext, dst, imm);
    }
    void addRI32(Reg d, uint32_t i) { aluRI32(0, d, i); }
    void addRI64(Reg d, int32_t i) { aluRI64(0, d, i); }
    void subRI64(Reg d, int32_t i) { aluRI64(5, d, i); }
    void andRI32(Reg d, uint32_t i) { aluRI32(4, d, i); }
    void cmpRI32(Reg d, uint32_t i) { aluRI32(7, d, i); }
    void cmpRI64(Reg d, int32_t i) { aluRI64(7, d, i); }

    void cmpRM64(Reg lhs, Mem rhs); ///< cmp reg, [mem]
    void testRR32(Reg a, Reg b);
    void testRR64(Reg a, Reg b);

    void imulRR32(Reg dst, Reg src);
    void imulRR64(Reg dst, Reg src);
    /** imul dst, src, imm (0x6B imm8 / 0x69 imm32, sign-extended). */
    void imulRRI32(Reg d, Reg s, int32_t i) { imulRRI(false, d, s, i); }
    void imulRRI64(Reg d, Reg s, int32_t i) { imulRRI(true, d, s, i); }
    void cdq();
    void cqo();
    void idiv32(Reg divisor);
    void div32(Reg divisor);
    void idiv64(Reg divisor);
    void div64(Reg divisor);

    /** Shift/rotate group: ext 0=rol 1=ror 4=shl 5=shr 7=sar; count in CL. */
    void shiftCl32(uint8_t ext, Reg dst);
    void shiftCl64(uint8_t ext, Reg dst);
    /** Shift/rotate by immediate count (D1, no immediate, for 1). */
    void shiftImm32(uint8_t ext, Reg dst, uint8_t count);
    void shiftImm64(uint8_t ext, Reg dst, uint8_t count);

    void negR32(Reg dst);
    void negR64(Reg dst);
    void bsr32(Reg dst, Reg src);
    void bsf32(Reg dst, Reg src);
    void bsr64(Reg dst, Reg src);
    void bsf64(Reg dst, Reg src);
    void popcnt32(Reg dst, Reg src);
    void popcnt64(Reg dst, Reg src);

    void setcc(Cond cond, Reg dst8); ///< sets low byte; caller zero-extends
    void movzxRR8(Reg dst, Reg src8); ///< movzx r32, r8
    void cmovcc32(Cond cond, Reg dst, Reg src);
    void cmovcc64(Cond cond, Reg dst, Reg src);
    void cmovccRM64(Cond cond, Reg dst, Mem src);

    // ----- control flow -----
    /** rel8 when @p target is bound and in reach, else rel32. */
    void jmp(Label target);
    void jcc(Cond cond, Label target);
    void jmpMem(Mem target);
    void callReg(Reg target);
    void callImm(const void* target); ///< via movabs r11 + call r11
    /** callImm that records a relocation for the movabs imm64. */
    void callImmReloc(const void* target, RelocKind kind, uint64_t addend);
    void ret();
    void ud2();
    void int3();
    void push(Reg reg);
    void pop(Reg reg);
    void emitByte(uint8_t byte);

    /** Reserve an 8-byte slot patched with the absolute address of @p
     * label when it binds (jump tables). */
    void absq(Label label);

    /** movabs reg, &label — materialize a label's absolute address.
     * Records a codeAbs relocation for the slot automatically. */
    void movRI64Label(Reg dst, Label label);

    /** movRI64 that records a relocation for the imm64 field. */
    void movRI64Reloc(Reg dst, uint64_t imm, RelocKind kind,
                      uint64_t addend);

    /**
     * Every absolute-address site recorded while emitting. codeAbs
     * entries carry addend 0 here; the serializer recovers the real
     * buffer-relative addend by subtracting bufferBase() from the
     * patched imm64 (labels bind after the site is recorded).
     */
    const std::vector<Reloc>& relocs() const { return relocs_; }
    std::vector<Reloc> takeRelocs() { return std::move(relocs_); }

    // ----- SSE scalar -----
    void movssRM(Xmm dst, Mem src);
    void movsdRM(Xmm dst, Mem src);
    void movssMR(Mem dst, Xmm src);
    void movsdMR(Mem dst, Xmm src);
    void movapsRR(Xmm dst, Xmm src);
    void movdRX(Reg dst, Xmm src);  ///< 32-bit
    void movqRX(Reg dst, Xmm src);  ///< 64-bit
    void movdXR(Xmm dst, Reg src);
    void movqXR(Xmm dst, Reg src);

    /** Scalar float op group: prefix F3(ss)/F2(sd), opcode 0F xx. */
    void sseOp(uint8_t prefix, uint8_t opcode, Xmm dst, Xmm src);
    /** Same group with a memory source operand. */
    void sseOpRM(uint8_t prefix, uint8_t opcode, Xmm dst, Mem src);
    void addss(Xmm d, Xmm s) { sseOp(0xF3, 0x58, d, s); }
    void addsd(Xmm d, Xmm s) { sseOp(0xF2, 0x58, d, s); }
    void subss(Xmm d, Xmm s) { sseOp(0xF3, 0x5C, d, s); }
    void subsd(Xmm d, Xmm s) { sseOp(0xF2, 0x5C, d, s); }
    void mulss(Xmm d, Xmm s) { sseOp(0xF3, 0x59, d, s); }
    void mulsd(Xmm d, Xmm s) { sseOp(0xF2, 0x59, d, s); }
    void divss(Xmm d, Xmm s) { sseOp(0xF3, 0x5E, d, s); }
    void divsd(Xmm d, Xmm s) { sseOp(0xF2, 0x5E, d, s); }
    void sqrtss(Xmm d, Xmm s) { sseOp(0xF3, 0x51, d, s); }
    void sqrtsd(Xmm d, Xmm s) { sseOp(0xF2, 0x51, d, s); }
    void cvtss2sd(Xmm d, Xmm s) { sseOp(0xF3, 0x5A, d, s); }
    void cvtsd2ss(Xmm d, Xmm s) { sseOp(0xF2, 0x5A, d, s); }

    /** Packed bitwise ops (066/none prefix): andps/andpd/orps/orpd/xorps. */
    void packedOp(bool pd, uint8_t opcode, Xmm dst, Xmm src);
    void andps(Xmm d, Xmm s) { packedOp(false, 0x54, d, s); }
    void andpd(Xmm d, Xmm s) { packedOp(true, 0x54, d, s); }
    void orps(Xmm d, Xmm s) { packedOp(false, 0x56, d, s); }
    void orpd(Xmm d, Xmm s) { packedOp(true, 0x56, d, s); }
    void xorps(Xmm d, Xmm s) { packedOp(false, 0x57, d, s); }
    void pxor(Xmm d, Xmm s);

    void ucomiss(Xmm a, Xmm b);
    void ucomisd(Xmm a, Xmm b);

    void cvtsi2ss32(Xmm dst, Reg src);
    void cvtsi2ss64(Xmm dst, Reg src);
    void cvtsi2sd32(Xmm dst, Reg src);
    void cvtsi2sd64(Xmm dst, Reg src);
    void cvttss2si32(Reg dst, Xmm src);
    void cvttss2si64(Reg dst, Xmm src);
    void cvttsd2si32(Reg dst, Xmm src);
    void cvttsd2si64(Reg dst, Xmm src);

    /** roundss/roundsd imm: 0=nearest-even, 1=floor, 2=ceil, 3=trunc. */
    void roundss(Xmm dst, Xmm src, uint8_t mode);
    void roundsd(Xmm dst, Xmm src, uint8_t mode);

  private:
    void byte(uint8_t b)
    {
        if (pos_ >= cap_) {
            overflow_ = true;
            return;
        }
        buf_[pos_++] = b;
    }
    void u32(uint32_t v)
    {
        for (int i = 0; i < 4; i++)
            byte(uint8_t(v >> (8 * i)));
    }
    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            byte(uint8_t(v >> (8 * i)));
    }

    static bool fitsImm8(int32_t imm) { return imm >= -128 && imm <= 127; }
    /** A sign-extended imm8 when @p imm fits one, else imm32. */
    void immediate(int32_t imm)
    {
        if (fitsImm8(imm))
            byte(uint8_t(imm));
        else
            u32(uint32_t(imm));
    }
    void aluRI(bool w, uint8_t ext, Reg dst, int32_t imm);
    void imulRRI(bool w, Reg dst, Reg src, int32_t imm);

    /** Emit REX if needed (or always when @p force for 8-bit regs). */
    void rex(bool w, uint8_t reg, uint8_t index, uint8_t base,
             bool force = false);
    /** ModRM mod bits (0x00 / 0x40 disp8 / 0x80 disp32) of the shortest
     * [base + disp] form. */
    static uint8_t dispMod(Reg base, int32_t disp);
    /** The displacement bytes @p mod calls for. */
    void dispBytes(uint8_t mod, int32_t value);
    /** ModRM, then a SIB when needed, then the displacement. */
    void modrmMem(uint8_t reg, const Mem& mem);
    void modrmReg(uint8_t reg, uint8_t rm);

    void patchLabel(int32_t id);
    /** Does a 2-byte branch emitted here reach @p target (bound only)? */
    bool fitsRel8(Label target) const;
    /** rel32 to @p target, patched at bind() when it is still unbound. */
    void rel32(Label target);

    struct LabelState
    {
        int64_t offset = -1; ///< bound position, -1 if unbound
        std::vector<size_t> rel32Fixups;
        std::vector<size_t> abs64Fixups;
    };

    /** Record a reloc whose imm64 field ends at the current position. */
    void recordReloc(RelocKind kind, uint64_t addend)
    {
        if (!overflow_ && pos_ >= 8)
            relocs_.push_back({uint32_t(pos_ - 8), kind, addend});
    }

    uint8_t* buf_;
    size_t cap_;
    size_t pos_ = 0;
    bool overflow_ = false;
    std::vector<LabelState> labels_;
    std::vector<Reloc> relocs_;
};

} // namespace lnb::jit

#endif // LNB_JIT_ASSEMBLER_H
