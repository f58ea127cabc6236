/**
 * @file
 * Lowered-IR optimization pass: affine versioning of counted inner
 * loops, per-block value numbering of bounds checks, and the
 * register-form rewrite every executor runs, all over one basic-block
 * partition. See opt.h for the soundness arguments.
 */
#include "wasm/opt.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "wasm/opcodes.h"

namespace lnb::wasm {
namespace {

struct OptCounters
{
    obs::Counter elided;
    obs::Counter fused;
    obs::Counter versioned;
};

OptCounters&
optCounters()
{
    static OptCounters counters{
        obs::registerCounter("opt.checks_elided_vn"),
        obs::registerCounter("opt.insts_fused"),
        obs::registerCounter("opt.loops_versioned"),
    };
    return counters;
}

// ---------------------------------------------------------------------
// Instruction classification
// ---------------------------------------------------------------------

/** A conditional or unconditional transfer of control ends a block. */
bool
isTerminator(const LInst& inst)
{
    if (inst.isWasmOp())
        return false;
    switch (inst.lop()) {
      case LOp::jump:
      case LOp::jump_if:
      case LOp::jump_if_zero:
      case LOp::jump_table:
      case LOp::ret:
      case LOp::trap:
        return true;
      default:
        return false;
    }
}

/**
 * Which frame cell @p inst writes, if exactly one. Calls are excluded:
 * each analysis handles them itself.
 */
bool
writesCell(const LInst& inst, uint32_t& cell)
{
    if (inst.isWasmOp()) {
        Op op = inst.wasmOp();
        switch (op) {
          case Op::select:
          case Op::global_get:
            cell = inst.a;
            return true;
          default:
            break;
        }
        if (opInfo(op).sig[0] == '*')
            return false; // ops that never survive lowering
        if (opResult(op) == 0)
            return false; // stores, global_set, memory_copy/fill
        cell = inst.a;
        return true;
    }
    if (inst.lop() == LOp::copy) {
        cell = inst.b;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Basic blocks
// ---------------------------------------------------------------------

/** The basic-block partition every transform walks. */
struct Blocks
{
    std::vector<uint32_t> jumpsTo; ///< pc -> how many jumps target it
    std::vector<uint32_t> begins;  ///< block begins, then code.size()
    std::vector<uint32_t> blockOf; ///< pc -> block index
};

/** Counts, per pc, the jumps (and jump-table entries) that target it. */
void
collectJumpTargets(const LoweredFunc& func, std::vector<uint32_t>& jumps_to)
{
    jumps_to.assign(func.code.size(), 0);
    for (const LInst& inst : func.code) {
        if (inst.isWasmOp())
            continue;
        switch (inst.lop()) {
          case LOp::jump:
          case LOp::jump_if:
          case LOp::jump_if_zero:
            jumps_to[inst.a]++;
            break;
          case LOp::jump_table:
            for (uint32_t i = 0; i <= inst.aux; i++)
                jumps_to[func.tablePool[inst.a + i]]++;
            break;
          default:
            break;
        }
    }
}

/**
 * Block begins of @p func — pc 0, every jump target, every pc after a
 * terminator — closed by code.size(), the block of each pc, and the
 * jumps to each pc.
 */
Blocks
findBlocks(const LoweredFunc& func)
{
    Blocks blocks;
    collectJumpTargets(func, blocks.jumpsTo);
    const uint32_t n = uint32_t(func.code.size());
    blocks.blockOf.resize(n);
    for (uint32_t pc = 0; pc < n; pc++) {
        if (pc == 0 || blocks.jumpsTo[pc] != 0 ||
            isTerminator(func.code[pc - 1]))
            blocks.begins.push_back(pc);
        blocks.blockOf[pc] = uint32_t(blocks.begins.size() - 1);
    }
    blocks.begins.push_back(n);
    return blocks;
}

/** Calls @p fn with the pc of each successor of the block that ends
 * (one past its last instruction) at @p end. */
template <typename Fn>
void
forEachSuccPc(const LoweredFunc& func, uint32_t end, Fn fn)
{
    const LInst& last = func.code[end - 1];
    if (!last.isWasmOp()) {
        switch (last.lop()) {
          case LOp::jump:
            fn(last.a);
            return;
          case LOp::jump_if:
          case LOp::jump_if_zero:
            fn(last.a);
            break;
          case LOp::jump_table:
            for (uint32_t i = 0; i <= last.aux; i++)
                fn(func.tablePool[last.a + i]);
            return;
          case LOp::ret:
          case LOp::trap:
            return;
          default:
            break;
        }
    }
    if (end < func.code.size())
        fn(end);
}

// ---------------------------------------------------------------------
// Stack-cell use/def
// ---------------------------------------------------------------------

/**
 * Stack cells [base, base + 64) map to one bit of a 64-bit liveness
 * word. Deeper cells have no bit and always count as live.
 */
struct StackBits
{
    uint32_t base = 0;

    uint64_t bit(uint32_t cell) const
    {
        return cell >= base && cell - base < 64
                   ? uint64_t(1) << (cell - base)
                   : 0;
    }
    bool live(uint64_t mask, uint32_t cell) const
    {
        return cell - base >= 64 || ((mask >> (cell - base)) & 1) != 0;
    }
};

/** Stack cells one instruction reads and writes. */
struct StackUseDef
{
    uint64_t use = 0;
    uint64_t def = 0;
};

/** Calls and anything unmodelled read every cell. */
StackUseDef
stackUseDef(const LInst& inst, const StackBits& sb)
{
    constexpr uint64_t kAll = ~uint64_t(0);
    if (inst.isWasmOp()) {
        Op op = inst.wasmOp();
        if (op == Op::select) {
            return {sb.bit(inst.a) | sb.bit(inst.a + 1) | sb.bit(inst.a + 2),
                    sb.bit(inst.a)};
        }
        if (op == Op::global_get)
            return {0, sb.bit(inst.a)};
        if (op == Op::global_set)
            return {sb.bit(inst.a), 0};
        int inputs = opInputs(op);
        if (inputs < 0)
            return {kAll, 0};
        StackUseDef ud;
        for (int i = 0; i < inputs; i++)
            ud.use |= sb.bit(inputs == 2 && i == 1 ? inst.b : inst.a + i);
        if (opResult(op) != 0)
            ud.def = sb.bit(inst.a);
        return ud;
    }
    switch (inst.lop()) {
      case LOp::copy:
        return {sb.bit(inst.a), sb.bit(inst.b)};
      case LOp::jump_if:
      case LOp::jump_if_zero:
      case LOp::jump_table:
        return {sb.bit(inst.b), 0};
      case LOp::ret:
        return {inst.aux != 0 ? sb.bit(inst.a) : 0, 0};
      case LOp::jump:
      case LOp::trap:
      case LOp::count_fallback:
        return {};
      default:
        return {kAll, 0};
    }
}

/** Backward liveness over stack cells: each pc's use/def and each
 * block's live-in and live-out words. */
struct StackLiveness
{
    std::vector<StackUseDef> ud; ///< per pc
    std::vector<uint64_t> in;    ///< per block
    std::vector<uint64_t> out;   ///< per block
};

StackLiveness
stackLiveness(const LoweredFunc& func, const Blocks& blocks,
              const StackBits& sb)
{
    StackLiveness lv;
    const size_t n = func.code.size();
    const size_t nb = blocks.begins.size() - 1;
    lv.ud.resize(n);
    for (size_t pc = 0; pc < n; pc++)
        lv.ud[pc] = stackUseDef(func.code[pc], sb);
    std::vector<uint64_t> gen(nb, 0), kill(nb, 0);
    lv.in.assign(nb, 0);
    lv.out.assign(nb, 0);
    for (size_t b = 0; b < nb; b++) {
        for (uint32_t pc = blocks.begins[b + 1]; pc-- > blocks.begins[b];) {
            gen[b] = lv.ud[pc].use | (gen[b] & ~lv.ud[pc].def);
            kill[b] |= lv.ud[pc].def;
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = nb; b-- > 0;) {
            uint64_t o = 0;
            forEachSuccPc(func, blocks.begins[b + 1], [&](uint32_t pc) {
                o |= lv.in[blocks.blockOf[pc]];
            });
            uint64_t i = gen[b] | (o & ~kill[b]);
            if (i != lv.in[b] || o != lv.out[b]) {
                lv.in[b] = i;
                lv.out[b] = o;
                changed = true;
            }
        }
    }
    return lv;
}

// ---------------------------------------------------------------------
// Code rewriting (insertions / deletions with pc remapping)
// ---------------------------------------------------------------------

void
remapJumps(LoweredFunc& func, const std::vector<uint32_t>& new_pc)
{
    for (LInst& inst : func.code) {
        if (inst.isWasmOp())
            continue;
        if (isFormOp(inst.op)) {
            if (formOf(inst.op) == IrForm::jrr ||
                formOf(inst.op) == IrForm::jri)
                inst.a = new_pc[inst.a];
            continue;
        }
        switch (inst.lop()) {
          case LOp::jump:
          case LOp::jump_if:
          case LOp::jump_if_zero:
            inst.a = new_pc[inst.a];
            break;
          default:
            break;
        }
    }
    for (uint32_t& t : func.tablePool)
        t = new_pc[t];
}

void
remapFacts(LoweredFunc& func, const std::vector<uint32_t>& new_pc)
{
    for (uint32_t& pc : func.elidableCheckPcs)
        pc = new_pc[pc];
}

/**
 * Insert instructions before given pcs, all below @p entering_from and
 * listed in ascending pc order (instructions at one pc in the order
 * given). A jump at a pc below @p entering_from that targets an
 * insertion point lands after the inserted instructions (back edges
 * re-enter the loop body, not a versioned loop's preheader guard); a
 * jump at or past it lands on them, as fallthrough entry does (a clone
 * leaving its loop runs the guard of a loop that starts right there).
 */
void
applyInsertions(LoweredFunc& func,
                const std::vector<std::pair<uint32_t, LInst>>& inserts,
                uint32_t entering_from)
{
    if (inserts.empty())
        return;
    assert(std::is_sorted(inserts.begin(), inserts.end(),
                          [](const auto& x, const auto& y) {
                              return x.first < y.first;
                          }));
    assert(inserts.back().first < entering_from);
    const size_t n = func.code.size();
    std::vector<uint32_t> new_pc(n + 1), enter_pc(n + 1);
    size_t k = 0;
    for (size_t pc = 0; pc <= n; pc++) {
        while (k < inserts.size() && inserts[k].first < pc)
            k++;
        enter_pc[pc] = uint32_t(pc + k);
        size_t at = k;
        while (at < inserts.size() && inserts[at].first == pc)
            at++;
        new_pc[pc] = uint32_t(pc + at);
    }
    // Entering jumps keep their old target until the remap below, which
    // then sends them to enter_pc instead of new_pc.
    std::vector<uint32_t> entering;
    for (size_t pc = entering_from; pc < n; pc++) {
        const LInst& inst = func.code[pc];
        if (!inst.isWasmOp() &&
            (inst.lop() == LOp::jump || inst.lop() == LOp::jump_if ||
             inst.lop() == LOp::jump_if_zero))
            entering.push_back(uint32_t(pc));
    }
    std::vector<LInst> out;
    out.reserve(n + inserts.size());
    k = 0;
    for (size_t pc = 0; pc < n; pc++) {
        while (k < inserts.size() && inserts[k].first == pc)
            out.push_back(inserts[k++].second);
        out.push_back(func.code[pc]);
    }
    func.code = std::move(out);
    std::vector<uint32_t> entering_targets;
    for (uint32_t pc : entering)
        entering_targets.push_back(func.code[new_pc[pc]].a);
    remapJumps(func, new_pc);
    for (size_t i = 0; i < entering.size(); i++)
        func.code[new_pc[entering[i]]].a = enter_pc[entering_targets[i]];
    remapFacts(func, new_pc);
}

// ---------------------------------------------------------------------
// Affine loop versioning (trap and clamp)
// ---------------------------------------------------------------------
//
// A candidate loop is a run of blocks [begin, end) whose last instruction
// jumps back to begin and is the only jump there, so every other entry
// falls through the preheader. It leaves through that back edge's
// condition (bottom test) or, when the back edge is unconditional,
// through the first block's conditional jump to end (top test). Every
// other jump inside goes forward to a pc inside, and no jump from outside
// lands inside. The exit condition must compare the induction variable
// (IV), which every iteration advances by a constant step >= 1, against a
// loop-invariant bound N: iv < N or iv <= N, signed or unsigned.
// Accesses whose address is affine in the IV, k_iv*iv + k_base*base +
// const, become elidable on the loop body, which stays in place as the
// fast path (in a top-test loop, those after the exit test). Unless the
// compiler proves every such access in bounds, a cloned, fully-checked
// copy is appended, and preheader guards — evaluated in 64-bit
// arithmetic, so they also rule out u32 wraparound of the in-loop
// address computation — branch to the clone when they fail.
//
// Soundness of the guard bound (for iv <= N read N where N-1 appears):
// in a bottom-test loop, iteration j >= 1 only runs because the previous
// iteration's compare saw iv < N, and iteration 0 starts from the entry
// value; in a top-test loop, the body only runs once the test saw
// iv < N. An unsigned compare reads the *wrapped* u32 value, so iv < N
// holds as an integer regardless of wraparound. Hence M = max(iv_entry,
// N-1) bounds iv wherever an elidable access runs. A signed compare
// agrees with the unsigned one while both sides lie in [0, 2^31), which
// M + step < 2^31 keeps from one iteration to the next. If every affine
// term, evaluated without wrapping at k_iv*M + k_base*base + const +
// access-limit, fits under memSize, then each partial sum of the in-loop
// u32 arithmetic is bounded by that total < 2^32 (all terms are
// non-negative), so the u32 computation never wraps, computes the true
// affine value, and every access check on the fast path provably passes.
// After a join inside the loop, a cell written earlier in the iteration
// holds whichever path's value, so the analysis forgets it; an access an
// iteration skips needs no check at all.
//
// Guard folding: when N is a constant and the preheader sets the IV to a
// constant on the fall-through into the loop, M is a constant, so every
// term folds to kBase*base + K with K constant, and terms without a base
// to K alone. A loop whose terms are all base-free and whose largest K
// fits the module's declared minimum memory needs no guard and no clone:
// every instance's memory starts at least that large and memories never
// shrink. Otherwise the guard tests kBase*base + K <= memory bytes once
// per distinct (base, kBase), or, with no base at all, the page count
// against ceil(K / 64 KiB). A K past the declared maximum can never pass,
// so such a loop is left as it is. With a variable N or entry value the
// guard computes M at run time: it takes the clone unless iv_entry < N
// (then M = N-1 >= iv_entry; a loop entered past its bound runs at most
// one iteration), and, under a signed compare, unless M + step < 2^31;
// each term's check then adds k_iv*M. A proved or guarded fast path
// never goes out of bounds, so it needs no clamp either.

/** Cap on affine coefficients so coef*M (M < 2^32) stays < 2^48 and the
 * guard's u64 sums cannot overflow. */
constexpr uint64_t kMaxAffineCoef = uint64_t(1) << 16;
/** Cap on the additive constant (offsets accumulated across adds). */
constexpr uint64_t kMaxAffineConst = uint64_t(1) << 34;

/** Affine form of a cell's value inside one loop iteration:
 * sum(coef * value-at-iteration-entry(cell)) + k, tracked in exact
 * (non-wrapping) u64 arithmetic over zero-extended i32 inputs. At most two
 * terms, sorted by cell; anything wider is top. */
struct Affine
{
    bool top = true;
    uint8_t n = 0; ///< terms in use
    std::array<uint32_t, 2> cell{};
    std::array<uint64_t, 2> coef{};
    uint64_t k = 0;

    static Affine identity(uint32_t c)
    {
        Affine a;
        a.top = false;
        a.n = 1;
        a.cell[0] = c;
        a.coef[0] = 1;
        return a;
    }
    static Affine constant(uint64_t v)
    {
        Affine a;
        a.top = false;
        a.k = v;
        return a;
    }
    bool isConst() const { return !top && n == 0; }
    bool operator==(const Affine& o) const
    {
        if (top != o.top || n != o.n || k != o.k)
            return false;
        for (uint8_t i = 0; i < n; i++) {
            if (cell[i] != o.cell[i] || coef[i] != o.coef[i])
                return false;
        }
        return true;
    }
};

Affine
affAdd(const Affine& x, const Affine& y)
{
    if (x.top || y.top)
        return Affine{};
    Affine r = x;
    for (uint8_t j = 0; j < y.n; j++) {
        uint8_t i = 0;
        while (i < r.n && r.cell[i] < y.cell[j])
            i++;
        if (i < r.n && r.cell[i] == y.cell[j]) {
            r.coef[i] += y.coef[j];
            if (r.coef[i] > kMaxAffineCoef)
                return Affine{};
            continue;
        }
        if (r.n == 2)
            return Affine{};
        if (i == 0) {
            r.cell[1] = r.cell[0];
            r.coef[1] = r.coef[0];
        }
        r.cell[i] = y.cell[j];
        r.coef[i] = y.coef[j];
        r.n++;
    }
    r.k = x.k + y.k;
    if (r.k > kMaxAffineConst)
        return Affine{};
    return r;
}

Affine
affScale(const Affine& x, uint64_t s)
{
    if (x.top || s > kMaxAffineCoef)
        return Affine{};
    Affine r = x;
    for (uint8_t i = 0; i < r.n; i++) {
        r.coef[i] *= s;
        if (r.coef[i] > kMaxAffineCoef)
            return Affine{};
    }
    r.k = x.k * s;
    if (r.k > kMaxAffineConst)
        return Affine{};
    return r;
}

/** One range-check term of a loop guard: worst-case exclusive end address
 * kIv*M + kBase*base + kConst must fit under memSize. */
struct GuardTerm
{
    uint64_t kIv = 0;
    bool hasBase = false;
    uint32_t baseCell = 0;
    uint64_t kBase = 0;
    uint64_t kConst = 0;
};

struct LoopVersionPlan
{
    uint32_t headerBegin = 0;
    uint32_t headerEnd = 0; ///< one past the back edge
    /** The back edge is unconditional; the first block tests the exit. */
    bool topTest = false;
    uint32_t depth = 0; ///< loops holding this one, itself included
    uint32_t ivCell = 0;
    uint64_t step = 0; ///< what every iteration adds to the IV
    bool boundIsConst = false;
    uint32_t boundCell = 0;
    uint64_t boundConst = 0;
    bool boundInclusive = false; ///< the loop runs while iv <= N
    bool boundSigned = false;    ///< the exit compare is signed
    /** The preheader sets the IV to ivEntry on the fall-through in. */
    bool ivEntryIsConst = false;
    uint64_t ivEntry = 0;
    std::vector<GuardTerm> terms;
    std::vector<uint32_t> elidePcs; ///< fast-path accesses made elidable
};

/** Reusable state of planLoopVersion, so analyzing a candidate allocates
 * nothing once the vectors have grown. A cell's entry belongs to the
 * current candidate only when its stamp matches. */
struct LoopScratch
{
    struct CellState
    {
        uint32_t stamp = 0;
        uint32_t defPc = 0;
        Affine value;
    };
    struct AccessRec
    {
        uint32_t pc;
        Affine addr;
        uint64_t limit;
    };
    struct CmpRec
    {
        uint32_t pc;
        Affine lhs, rhs;
    };
    std::vector<CellState> cells;
    uint32_t stamp = 0;
    std::vector<uint32_t> defined; ///< cells with the current stamp
    std::vector<AccessRec> accesses;
    std::vector<CmpRec> cmps;
};

/**
 * The value @p cell holds when control falls from @p pc - 1 into @p pc,
 * if the block holding @p pc - 1 sets it from an i32 constant, directly
 * or through copies. A call ends the search: it may write any cell.
 */
bool
fallThroughConstant(const LoweredFunc& func, const Blocks& blocks,
                    uint32_t pc, uint32_t cell, uint64_t& value)
{
    if (pc == 0)
        return false;
    const uint32_t first = blocks.begins[blocks.blockOf[pc - 1]];
    for (uint32_t p = pc; p-- > first;) {
        const LInst& inst = func.code[p];
        if (inst.op == uint16_t(LOp::callf) ||
            inst.op == uint16_t(LOp::calli) ||
            inst.op == uint16_t(LOp::call_host))
            return false;
        uint32_t w;
        if (!writesCell(inst, w) || w != cell)
            continue;
        if (inst.op == uint16_t(LOp::copy)) {
            cell = inst.a;
            continue;
        }
        if (inst.op != uint16_t(Op::i32_const))
            return false;
        value = uint32_t(inst.imm);
        return true;
    }
    return false;
}

bool
isJump(const LInst& inst)
{
    return !inst.isWasmOp() &&
           (inst.lop() == LOp::jump || inst.lop() == LOp::jump_if ||
            inst.lop() == LOp::jump_if_zero);
}

/**
 * Reads "the loop continues iff compare @p op of (lhs, rhs) is
 * @p cont_true" as iv < N or iv <= N: whether the IV is the left
 * operand, whether N is inclusive, and whether the compare is signed.
 */
bool
continueForm(Op op, bool cont_true, bool& iv_lhs, bool& inclusive,
             bool& is_signed)
{
    switch (op) {
      case Op::i32_lt_u:
      case Op::i32_lt_s: // x < y, or else y <= x
        iv_lhs = cont_true;
        inclusive = !cont_true;
        break;
      case Op::i32_gt_u:
      case Op::i32_gt_s: // y < x, or else x <= y
        iv_lhs = !cont_true;
        inclusive = !cont_true;
        break;
      case Op::i32_le_u:
      case Op::i32_le_s: // x <= y, or else y < x
        iv_lhs = cont_true;
        inclusive = cont_true;
        break;
      case Op::i32_ge_u:
      case Op::i32_ge_s: // y <= x, or else x < y
        iv_lhs = !cont_true;
        inclusive = cont_true;
        break;
      default:
        return false;
    }
    is_signed = op == Op::i32_lt_s || op == Op::i32_gt_s ||
                op == Op::i32_le_s || op == Op::i32_ge_s;
    return true;
}

/**
 * Analyze [@p begin, @p end) as a loop for versioning eligibility.
 * Returns true and fills @p plan if its last instruction is the loop's
 * back edge and only jump in, it has a recognizable counted form, and
 * it makes at least one IV-dependent affine access.
 */
bool
planLoopVersion(const LoweredFunc& func, const Blocks& blocks,
                uint32_t begin, uint32_t end, LoopScratch& s,
                LoopVersionPlan& plan)
{
    // The back edge must be the only jump to the begin: every other
    // entry falls through the preheader guard, so no path into the loop
    // bypasses it.
    if (end - begin < 2 || blocks.jumpsTo[begin] != 1)
        return false;
    const LInst& back = func.code[end - 1];
    if (!isJump(back) || back.a != begin)
        return false;
    plan.topTest = back.lop() == LOp::jump;
    const uint32_t firstEnd = blocks.begins[blocks.blockOf[begin] + 1];
    const uint32_t testPc = plan.topTest ? firstEnd - 1 : end - 1;
    const LInst& test = func.code[testPc];
    if (plan.topTest &&
        (!isJump(test) || test.lop() == LOp::jump || test.a != end))
        return false;

    // Abstract-interpret the body once, in pc order: affine state per
    // cell, snapshots of compare operands, and the address expression at
    // each access. Inner jumps only go forward, so pc order visits every
    // path's instructions before each join.
    if (s.cells.size() < func.numCells)
        s.cells.resize(func.numCells);
    s.stamp++;
    s.defined.clear();
    s.accesses.clear();
    s.cmps.clear();
    auto exprOf = [&](uint32_t cell) {
        const LoopScratch::CellState& c = s.cells[cell];
        return c.stamp == s.stamp ? c.value : Affine::identity(cell);
    };
    auto define = [&](uint32_t cell, uint32_t pc, const Affine& value) {
        LoopScratch::CellState& c = s.cells[cell];
        if (c.stamp != s.stamp) {
            c.stamp = s.stamp;
            s.defined.push_back(cell);
        }
        c.defPc = pc;
        c.value = value;
    };

    uint32_t condPc = UINT32_MAX; // the def of the exit condition
    uint32_t innerJumps = 0, joinedJumps = 0;
    for (uint32_t pc = begin; pc < end; pc++) {
        if (pc != begin && blocks.jumpsTo[pc] != 0) {
            joinedJumps += blocks.jumpsTo[pc];
            for (uint32_t cell : s.defined) {
                s.cells[cell].value = Affine{};
                s.cells[cell].defPc = UINT32_MAX;
            }
        }
        const LInst& inst = func.code[pc];
        if (pc == testPc) {
            const LoopScratch::CellState& c = s.cells[inst.b];
            if (c.stamp == s.stamp)
                condPc = c.defPc;
            continue;
        }
        if (pc == end - 1)
            continue; // the unconditional back edge of a top test
        if (!inst.isWasmOp()) {
            switch (inst.lop()) {
              case LOp::copy:
                define(inst.b, pc, exprOf(inst.a));
                continue;
              case LOp::jump:
              case LOp::jump_if:
              case LOp::jump_if_zero:
                if (inst.a <= pc || inst.a >= end)
                    return false;
                innerJumps++;
                continue;
              case LOp::jump_table:
              case LOp::ret:
              case LOp::trap:
                return false;
              case LOp::callf:
              case LOp::call_host:
              case LOp::calli:
                return false; // calls may grow memory or clobber cells
              default:
                break;
            }
            uint32_t w;
            if (writesCell(inst, w))
                define(w, pc, Affine{});
            continue;
        }
        Op op = inst.wasmOp();
        if (op == Op::memory_grow)
            return false; // memSize may change mid-loop
        if (isAtomicOp(op))
            return false; // may observe a concurrent grow (shared memory)
        if (isLoadOp(op) || isStoreOp(op)) {
            s.accesses.push_back(
                {pc, exprOf(inst.a), inst.imm + memAccessSize(op)});
            if (isLoadOp(op))
                define(inst.a, pc, Affine{});
            continue;
        }
        switch (op) {
          case Op::i32_const:
            define(inst.a, pc, Affine::constant(uint32_t(inst.imm)));
            continue;
          case Op::i32_add:
            define(inst.a, pc, affAdd(exprOf(inst.a), exprOf(inst.b)));
            continue;
          case Op::i32_mul: {
            Affine lhs = exprOf(inst.a), rhs = exprOf(inst.b);
            if (rhs.isConst())
                define(inst.a, pc, affScale(lhs, rhs.k));
            else if (lhs.isConst())
                define(inst.a, pc, affScale(rhs, lhs.k));
            else
                define(inst.a, pc, Affine{});
            continue;
          }
          case Op::i32_shl: {
            Affine rhs = exprOf(inst.b);
            if (rhs.isConst() && (rhs.k & 31) < 17)
                define(inst.a, pc,
                       affScale(exprOf(inst.a),
                                uint64_t(1) << (rhs.k & 31)));
            else
                define(inst.a, pc, Affine{});
            continue;
          }
          case Op::i32_lt_u:
          case Op::i32_gt_u:
          case Op::i32_ge_u:
          case Op::i32_le_u:
          case Op::i32_lt_s:
          case Op::i32_gt_s:
          case Op::i32_ge_s:
          case Op::i32_le_s:
            s.cmps.push_back({pc, exprOf(inst.a), exprOf(inst.b)});
            define(inst.a, pc, Affine{});
            continue;
          default:
            break;
        }
        uint32_t w;
        if (writesCell(inst, w))
            define(w, pc, Affine{});
    }
    // Every join inside is reached from inside only.
    if (joinedJumps != innerJumps)
        return false;

    // Resolve the exit condition: its last def must be a compare of the
    // IV against N, the IV side exactly iv + step after the increment
    // (bottom test) or iv itself (top test), and the IV must end every
    // iteration at iv + step.
    const LoopScratch::CmpRec* cm = nullptr;
    for (const LoopScratch::CmpRec& c : s.cmps) {
        if (c.pc == condPc)
            cm = &c;
    }
    if (cm == nullptr)
        return false;
    // Continuing is a taken bottom-test jump_if or an untaken top-test
    // jump_if: either way the compare reads true exactly when the jump
    // is a jump_if at the bottom or a jump_if_zero at the top.
    bool ivLhs, inclusive, isSigned;
    if (!continueForm(func.code[condPc].wasmOp(),
                      (test.lop() == LOp::jump_if) != plan.topTest, ivLhs,
                      inclusive, isSigned))
        return false;
    const Affine& ivSide = ivLhs ? cm->lhs : cm->rhs;
    const Affine& boundSide = ivLhs ? cm->rhs : cm->lhs;
    if (ivSide.top || ivSide.n != 1 || ivSide.coef[0] != 1)
        return false;
    plan.ivCell = ivSide.cell[0];
    const Affine next = exprOf(plan.ivCell);
    if (next.top || next.n != 1 || next.cell[0] != plan.ivCell ||
        next.coef[0] != 1 || next.k < 1)
        return false;
    if (plan.topTest ? ivSide.k != 0 : !(ivSide == next))
        return false;
    plan.step = next.k;
    plan.boundInclusive = inclusive;
    plan.boundSigned = isSigned;
    auto invariant = [&](uint32_t cell) {
        return exprOf(cell) == Affine::identity(cell);
    };
    if (boundSide.isConst()) {
        if (!inclusive && boundSide.k == 0)
            return false; // guard would always fail; keep the plain loop
        plan.boundIsConst = true;
        plan.boundConst = boundSide.k;
    } else if (!boundSide.top && boundSide.n == 1 &&
               boundSide.coef[0] == 1 && boundSide.k == 0 &&
               boundSide.cell[0] != plan.ivCell &&
               invariant(boundSide.cell[0])) {
        plan.boundCell = boundSide.cell[0];
    } else {
        return false;
    }
    plan.ivEntryIsConst =
        fallThroughConstant(func, blocks, begin, plan.ivCell, plan.ivEntry);

    // Qualify accesses: affine in at most {iv, one invariant base}; one
    // guard term per (kIv, base, kBase), at its worst constant. A top
    // test's own accesses also run on the iteration that leaves.
    bool anyIvAccess = false;
    for (const LoopScratch::AccessRec& acc : s.accesses) {
        if (acc.addr.top || (plan.topTest && acc.pc < testPc))
            continue;
        GuardTerm t;
        bool ok = true;
        for (uint8_t i = 0; i < acc.addr.n; i++) {
            if (acc.addr.cell[i] == plan.ivCell) {
                t.kIv = acc.addr.coef[i];
            } else if (!t.hasBase && invariant(acc.addr.cell[i])) {
                t.hasBase = true;
                t.baseCell = acc.addr.cell[i];
                t.kBase = acc.addr.coef[i];
            } else {
                ok = false;
            }
        }
        t.kConst = acc.addr.k + acc.limit;
        if (!ok || t.kConst > kMaxAffineConst)
            continue;
        if (t.kIv > 0)
            anyIvAccess = true;
        auto same = std::find_if(
            plan.terms.begin(), plan.terms.end(), [&](const GuardTerm& u) {
                return u.kIv == t.kIv && u.hasBase == t.hasBase &&
                       u.baseCell == t.baseCell && u.kBase == t.kBase;
            });
        if (same == plan.terms.end())
            plan.terms.push_back(t);
        else
            same->kConst = std::max(same->kConst, t.kConst);
        plan.elidePcs.push_back(acc.pc);
    }
    if (!anyIvAccess || plan.elidePcs.empty())
        return false;
    plan.headerBegin = begin;
    plan.headerEnd = end;
    return true;
}

LInst
makeInst(uint16_t op, uint16_t aux, uint32_t a, uint32_t b, uint64_t imm)
{
    LInst i;
    i.op = op;
    i.aux = aux;
    i.a = a;
    i.b = b;
    i.imm = imm;
    return i;
}

/** The declared size range of the module's memory, in bytes. */
struct MemoryBounds
{
    uint64_t minBytes = 0; ///< every instance starts at least this large
    uint64_t maxBytes = 0; ///< and never grows past this
};

/** What a loop's guard checks. */
struct GuardPlan
{
    bool neverPasses = false; ///< the fast path could never run
    bool proved = false;      ///< no guard and no clone needed
    /** The IV's entry value is only known at run time: the guard takes
     * the clone unless it is below N (at most N). */
    bool entryTest = false;
    /** N is only known at run time, so is M; each check adds kIv*M.
     * Otherwise every check has kIv == 0, its constant folded into
     * kConst. */
    bool runTimeM = false;
    uint64_t freeK = 0; ///< worst end of folded base-free accesses
    std::vector<GuardTerm> checks;
};

GuardPlan
planGuard(const LoopVersionPlan& plan, const MemoryBounds& mem)
{
    GuardPlan g;
    g.entryTest = !plan.ivEntryIsConst;
    if (!plan.boundIsConst) {
        g.entryTest = true;
        g.runTimeM = true;
        g.checks = plan.terms;
        return g;
    }
    uint64_t m = plan.boundInclusive ? plan.boundConst : plan.boundConst - 1;
    if (plan.ivEntryIsConst)
        m = std::max(m, plan.ivEntry);
    // Past 2^31 a signed compare bounds nothing.
    g.neverPasses = plan.boundSigned && m + plan.step >= (uint64_t(1) << 31);
    for (const GuardTerm& t : plan.terms) {
        const uint64_t end = t.kIv * m + t.kConst;
        g.neverPasses |= end > mem.maxBytes;
        if (!t.hasBase) {
            g.freeK = std::max(g.freeK, end);
            continue;
        }
        auto same = std::find_if(
            g.checks.begin(), g.checks.end(), [&](const GuardTerm& u) {
                return u.baseCell == t.baseCell && u.kBase == t.kBase;
            });
        if (same == g.checks.end())
            g.checks.push_back({0, true, t.baseCell, t.kBase, end});
        else
            same->kConst = std::max(same->kConst, end);
    }
    // A based check with k >= freeK also covers the base-free accesses
    // (kBase*base >= 0), so one compare serves both.
    if (g.freeK > mem.minBytes && !g.checks.empty()) {
        g.checks[0].kConst = std::max(g.checks[0].kConst, g.freeK);
        g.freeK = 0;
    }
    g.proved = !g.entryTest && g.checks.empty() && g.freeK <= mem.minBytes;
    return g;
}

struct VersionResult
{
    uint64_t loopsVersioned = 0;
    uint64_t checksVersioned = 0;
};

/**
 * Version every eligible loop of @p func in place: mark fast-path
 * accesses elidable (appended to func.elidableCheckPcs, remapped with the
 * insertions) and, for loops not proved in bounds against @p mem, append
 * checked slow clones and insert preheader guards. The list stays sorted:
 * loops come in header order and their bodies do not overlap (a loop
 * holds no backward jump but its own back edge).
 */
VersionResult
versionLoops(LoweredFunc& func, const Blocks& blocks,
             const MemoryBounds& mem)
{
    VersionResult result;
    std::vector<LoopVersionPlan> plans;
    LoopScratch scratch;
    // Every backward jump closes a loop [its target, one past it).
    std::vector<std::pair<uint32_t, uint32_t>> loops;
    for (size_t b = 0; b + 1 < blocks.begins.size(); b++) {
        const uint32_t end = blocks.begins[b + 1];
        const LInst& last = func.code[end - 1];
        if (isJump(last) && last.a <= blocks.begins[b])
            loops.emplace_back(last.a, end);
    }
    for (const auto& [begin, end] : loops) {
        LoopVersionPlan plan;
        if (!planLoopVersion(func, blocks, begin, end, scratch, plan))
            continue;
        for (const auto& [outer_begin, outer_end] : loops)
            plan.depth += outer_begin <= begin && outer_end >= end;
        plans.push_back(std::move(plan));
    }
    if (plans.empty())
        return result;
    uint32_t maxDepth = 0;
    for (const LoopVersionPlan& plan : plans)
        maxDepth = std::max(maxDepth, plan.depth);

    const uint16_t kCopy = uint16_t(LOp::copy);
    const uint16_t kI32 = uint16_t(ValType::i32);
    const uint16_t kI64 = uint16_t(ValType::i64);
    auto op = [](Op o) { return uint16_t(o); };
    // Frame cells past the stack, added on first use, for guards whose
    // loop body has too few dead stack cells.
    uint32_t fresh = UINT32_MAX;
    auto freshCells = [&] {
        if (fresh == UINT32_MAX) {
            fresh = func.numCells;
            func.numCells += 5;
        }
        return fresh;
    };

    const uint32_t appended = uint32_t(func.code.size());
    // Stack cells with a liveness bit; deeper ones always count as live.
    const StackBits sb{func.numLocalCells};
    const StackLiveness liveness = stackLiveness(func, blocks, sb);
    const uint32_t stackCells = func.numCells - func.numLocalCells;
    const uint64_t stackMask = stackCells > 64    ? 0
                               : stackCells == 64 ? ~uint64_t(0)
                                                  : (uint64_t(1) << stackCells) - 1;
    size_t clone_insts = 0;
    for (const LoopVersionPlan& plan : plans)
        clone_insts += plan.headerEnd - plan.headerBegin + 2;
    func.code.reserve(func.code.size() + clone_insts);
    std::vector<std::pair<uint32_t, LInst>> inserts;
    for (const LoopVersionPlan& plan : plans) {
        const GuardPlan g = planGuard(plan, mem);
        if (g.neverPasses)
            continue;
        // A clone costs as many code bytes as its loop body, so only the
        // deepest loops, which run the most iterations, get one.
        if (!g.proved && plan.depth < maxDepth)
            continue;
        for (uint32_t pc : plan.elidePcs)
            func.elidableCheckPcs.push_back(pc);
        result.loopsVersioned++;
        result.checksVersioned += plan.elidePcs.size();
        if (g.proved)
            continue;

        // Append the checked slow-path clone first, while original pcs
        // are still valid: count_fallback, the body with its inner jumps
        // re-targeted, then (bottom test) a jump to the loop exit. The
        // back edge re-targets the first body copy so the fallback
        // counter bumps once per guard failure, not per iteration.
        const uint32_t cloneStart = uint32_t(func.code.size());
        func.code.push_back(
            makeInst(uint16_t(LOp::count_fallback), 0, 0, 0, 0));
        for (uint32_t pc = plan.headerBegin; pc < plan.headerEnd; pc++) {
            LInst inst = func.code[pc];
            if (isJump(inst) && inst.a >= plan.headerBegin &&
                inst.a < plan.headerEnd)
                inst.a = cloneStart + 1 + (inst.a - plan.headerBegin);
            func.code.push_back(inst);
        }
        if (!plan.topTest)
            func.code.push_back(
                makeInst(uint16_t(LOp::jump), 0, plan.headerEnd, 0, 0));

        // S0 = memory size, S1/S2 = work, and with M computed at run
        // time S3 = M and S4 = work: the lowest stack cells dead at the
        // header above every live one (the lowest six have JIT register
        // homes), else fresh ones. On a shared memory the memory.size
        // call saves the homes below its result cell, so it keeps every
        // live one.
        const uint32_t h = plan.headerBegin;
        auto ins = [&](uint16_t o, uint16_t aux, uint32_t a, uint32_t b,
                       uint64_t imm) {
            inserts.emplace_back(h, makeInst(o, aux, a, b, imm));
        };
        auto toClone = [&](uint32_t cond) {
            ins(uint16_t(LOp::jump_if), 0, cloneStart, cond, 0);
        };
        // Register homes go to the busiest cells first.
        const int need = g.runTimeM ? 5 : 3;
        const int order[5] = {0, 1, 3, 2, 4};
        const uint64_t live = liveness.in[blocks.blockOf[h]];
        uint64_t dead = (live == 0 ? ~uint64_t(0)
                                   : ~(~uint64_t(0) >> std::countl_zero(live))) &
                        stackMask;
        const bool stackCellsSuffice = std::popcount(dead) >= need;
        uint32_t S[5];
        for (int i = 0, k = 0; k < need; i++) {
            if (order[i] >= need)
                continue;
            if (stackCellsSuffice) {
                S[order[i]] =
                    func.numLocalCells + uint32_t(std::countr_zero(dead));
                dead &= dead - 1;
            } else {
                S[order[i]] = freshCells() + uint32_t(order[i]);
            }
            k++;
        }
        ins(op(Op::memory_size), 0, S[0], 0, 0);
        if (g.entryTest) {
            // Take the clone unless iv_entry < N (<= N).
            const uint32_t n = g.runTimeM ? S[3] : S[2];
            ins(kCopy, kI32, plan.ivCell, S[1], 0);
            if (plan.boundIsConst)
                ins(op(Op::i32_const), 0, n, 0, plan.boundConst);
            else
                ins(kCopy, kI32, plan.boundCell, n, 0);
            ins(op(plan.boundInclusive ? Op::i32_gt_u : Op::i32_ge_u), 0,
                S[1], n, 0);
            toClone(S[1]);
        }
        if (g.checks.empty()) {
            // Pages below ceil(freeK / 64 KiB): take the clone.
            ins(op(Op::i32_const), 0, S[1], 0,
                (g.freeK + kPageSize - 1) / kPageSize);
            ins(op(Op::i32_lt_u), 0, S[0], S[1], 0);
            toClone(S[0]);
            continue;
        }
        if (g.runTimeM) {
            // M = N-1 (N), and under a signed compare take the clone
            // unless M + step < 2^31.
            if (!plan.boundInclusive) {
                ins(op(Op::i32_const), 0, S[4], 0, 1);
                ins(op(Op::i32_sub), 0, S[3], S[4], 0);
            }
            if (plan.boundSigned) {
                ins(kCopy, kI32, S[3], S[1], 0);
                ins(op(Op::i32_const), 0, S[4], 0,
                    (uint64_t(1) << 31) - 1 - plan.step);
                ins(op(Op::i32_gt_u), 0, S[1], S[4], 0);
                toClone(S[1]);
            }
            ins(op(Op::i64_extend_i32_u), 0, S[3], 0, 0);
        }
        ins(op(Op::i64_extend_i32_u), 0, S[0], 0, 0);
        ins(op(Op::i64_const), 0, S[1], 0, 16);
        ins(op(Op::i64_shl), 0, S[0], S[1], 0);
        for (const GuardTerm& t : g.checks) {
            // S1 = kIv*M + kBase*base + kConst; the second product, if
            // any, is built in S2 with its factor in S4.
            bool started = false;
            auto product = [&](uint16_t type, uint32_t src, uint64_t coef) {
                const uint32_t dst = started ? S[2] : S[1];
                const uint32_t factor = started ? S[4] : S[2];
                ins(kCopy, type, src, dst, 0);
                if (type == kI32)
                    ins(op(Op::i64_extend_i32_u), 0, dst, 0, 0);
                if (coef != 1) {
                    ins(op(Op::i64_const), 0, factor, 0, coef);
                    ins(op(Op::i64_mul), 0, dst, factor, 0);
                }
                if (started)
                    ins(op(Op::i64_add), 0, S[1], S[2], 0);
                started = true;
            };
            if (t.kIv != 0)
                product(kI64, S[3], t.kIv);
            if (t.hasBase)
                product(kI32, t.baseCell, t.kBase);
            if (started) {
                ins(op(Op::i64_const), 0, S[2], 0, t.kConst);
                ins(op(Op::i64_add), 0, S[1], S[2], 0);
            } else {
                ins(op(Op::i64_const), 0, S[1], 0, t.kConst);
            }
            ins(op(Op::i64_gt_u), 0, S[1], S[0], 0);
            toClone(S[1]);
        }
    }

    // One remap pass: jumps in the original code that target a header
    // land after its guard (back edges skip it), while fallthrough entry
    // and the clones' jumps out (into a loop that starts where theirs
    // ends) execute it; clone-internal and guard-fail targets shift with
    // everything else.
    applyInsertions(func, inserts, appended);
    assert(std::is_sorted(func.elidableCheckPcs.begin(),
                          func.elidableCheckPcs.end()));
    return result;
}

// ---------------------------------------------------------------------
// Redundant-check analysis (per-block value numbering)
// ---------------------------------------------------------------------

/**
 * Per-block value numbering of cell contents; marks in @p hinted every
 * access whose check is covered by an earlier check of the same address
 * value in the same block, and returns how many it newly marked. A callf
 * only forgets cell names at and above its argument base (inst.b):
 * frames overlap, so a wasm callee cannot write caller cells below it.
 * calli forgets every name — its inst.b is the table-index cell, not the
 * arg base, so the real base (inst.b - nargs, which needs the callee
 * type) is unknown here — as do host calls. Forgetting every name is one
 * increment: each name carries the epoch it was given in, a name from an
 * earlier epoch reads as unknown, and each block and each calli or host
 * call starts a new epoch.
 */
uint64_t
markVnElidableChecks(const LoweredFunc& func, const Blocks& blocks,
                     std::vector<uint8_t>& hinted)
{
    uint64_t marked = 0;
    // Per cell: epoch << 32 | value number. Epoch 0 is never current.
    std::vector<uint64_t> cellVn(func.numCells, 0);
    uint64_t epoch = 0;
    uint32_t next = 1;
    std::map<std::array<uint64_t, 3>, uint32_t> exprs;
    // Passed checks stay valid for a value forever (memories never
    // shrink), so within the block only an atomic kills availability.
    std::unordered_map<uint32_t, uint64_t> avail; // vn -> limit
    auto name = [&](uint32_t cell, uint32_t vn) {
        cellVn[cell] = epoch << 32 | vn;
    };
    auto vnOf = [&](uint32_t cell) {
        if (cellVn[cell] >> 32 != epoch)
            name(cell, next++);
        return uint32_t(cellVn[cell]);
    };
    auto keyed = [&](std::array<uint64_t, 3> key) {
        auto [it, inserted] = exprs.emplace(key, next);
        if (inserted)
            next++;
        return it->second;
    };
    for (size_t b = 0; b + 1 < blocks.begins.size(); b++) {
        epoch++;
        next = 1;
        exprs.clear();
        avail.clear();
        for (uint32_t pc = blocks.begins[b]; pc < blocks.begins[b + 1];
             pc++) {
            const LInst& inst = func.code[pc];
            if (!inst.isWasmOp()) {
                switch (inst.lop()) {
                  case LOp::copy:
                    name(inst.b, vnOf(inst.a));
                    break;
                  case LOp::callf:
                    // Callee overlap clobbers cells from the arg base
                    // up; values already checked stay checked, so
                    // `avail` survives.
                    std::fill(cellVn.begin() + inst.b, cellVn.end(), 0);
                    break;
                  case LOp::calli:
                  case LOp::call_host:
                    epoch++;
                    break;
                  default:
                    break;
                }
                continue;
            }
            Op op = inst.wasmOp();
            if (isLoadOp(op) || isStoreOp(op)) {
                uint64_t limit = inst.imm + memAccessSize(op);
                uint32_t vn = vnOf(inst.a);
                auto it = avail.find(vn);
                if (it != avail.end() && it->second >= limit) {
                    if (!hinted[pc]) {
                        hinted[pc] = 1;
                        marked++;
                    }
                } else {
                    uint64_t& slot = avail[vn];
                    slot = std::max(slot, limit);
                }
                if (isLoadOp(op))
                    name(inst.a, next++); // loaded value: fresh
                continue;
            }
            if (isAtomicOp(op)) {
                // Synchronization point: on shared memories a concurrent
                // grow becomes observable here, so no check availability
                // crosses it. Results are never value-numbered — two
                // identical rmw ops legitimately return different values.
                avail.clear();
                uint32_t written;
                if (writesCell(inst, written))
                    name(written, next++);
                continue;
            }
            switch (op) {
              case Op::i32_const:
              case Op::i64_const:
              case Op::f32_const:
              case Op::f64_const:
                name(inst.a, keyed({uint64_t(inst.op) << 32, inst.imm, 0}));
                continue;
              case Op::select: {
                uint64_t va = vnOf(inst.a), vb = vnOf(inst.a + 1);
                uint64_t vc = vnOf(inst.a + 2);
                name(inst.a, keyed({uint64_t(inst.op), (va << 32) | vb, vc}));
                continue;
              }
              case Op::global_get:
              case Op::memory_size:
              case Op::memory_grow:
                name(inst.a, next++);
                continue;
              default:
                break;
            }
            int nin = opInputs(op);
            if (nin == 1 && opResult(op) != 0) {
                name(inst.a, keyed({uint64_t(inst.op), vnOf(inst.a), 1}));
            } else if (nin == 2 && opResult(op) != 0) {
                uint64_t va = vnOf(inst.a), vb = vnOf(inst.b);
                name(inst.a, keyed({uint64_t(inst.op), (va << 32) | vb, 2}));
            } else {
                uint32_t written;
                if (writesCell(inst, written))
                    name(written, next++);
            }
        }
    }
    return marked;
}

// ---------------------------------------------------------------------
// Register-form rewrite (every executor)
// ---------------------------------------------------------------------

bool
isConstOp(Op op)
{
    return op == Op::i32_const || op == Op::i64_const ||
           op == Op::f32_const || op == Op::f64_const;
}

/** Integer ops whose operands may be swapped. Float ops never are: x86
 * NaN propagation depends on operand order. */
bool
isCommutativeInt(Op op)
{
    switch (op) {
      case Op::i32_add: case Op::i32_mul: case Op::i32_and:
      case Op::i32_or: case Op::i32_xor: case Op::i32_eq: case Op::i32_ne:
      case Op::i64_add: case Op::i64_mul: case Op::i64_and:
      case Op::i64_or: case Op::i64_xor: case Op::i64_eq: case Op::i64_ne:
        return true;
      default:
        return false;
    }
}

/**
 * Rewrites one function into register form (IrForm, wasm/lower.h),
 * block by block. Copies from locals and constants into stack cells are
 * deferred: the deferred instruction is kept, not emitted, and
 * consumers read the source local or the immediate instead. A deferred
 * value is emitted ("flushed") only where its cell is still live: at
 * the block's end, before an op the rewrite does not model (calls
 * included), and before its source local is overwritten. A result
 * stored by local.set/local.tee is written to the local directly, and
 * an i32-producing op whose result a jump_if/jump_if_zero pops becomes
 * one branch form.
 */
class RegisterFormRewriter
{
  public:
    RegisterFormRewriter(LoweredFunc& func, const Blocks& blocks)
        : func_(func),
          in_(func.code),
          blocks_(blocks),
          begins_(blocks.begins),
          blockOf_(blocks.blockOf),
          sb_{func.numLocalCells},
          pend_(func.numCells, LInst{kNoOp, 0, 0, 0, 0})
    {
    }

    void run()
    {
        computeLiveness();
        std::vector<uint32_t> new_pc(in_.size() + 1, 0);
        // Each listed check moves with its instruction: the rewrite
        // keeps every load and store, as the last instruction it emits
        // for that input pc.
        std::vector<uint32_t>& skip = func_.elidableCheckPcs;
        size_t next_skip = 0;
        out_.reserve(in_.size());
        for (uint32_t b = 0; b + 1 < begins_.size(); b++) {
            const uint32_t begin = begins_[b], end = begins_[b + 1];
            new_pc[begin] = uint32_t(out_.size());
            producer_ = kNone;
            for (uint32_t pc = begin; pc < end; pc++) {
                uint32_t consumed = step(pc, end);
                if (next_skip < skip.size() && skip[next_skip] == pc)
                    skip[next_skip++] = uint32_t(out_.size() - 1);
                pc += consumed;
            }
            flushLive(liveOut_[b]); // fallthrough into the next label
        }
        assert(next_skip == skip.size());
        new_pc[in_.size()] = uint32_t(out_.size());
        func_.code = std::move(out_);
        remapJumps(func_, new_pc);
    }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    /** A read of a cell after resolving deferred values. */
    struct Operand
    {
        bool isImm = false;
        uint32_t cell = 0;
        uint64_t imm = 0;
    };

    // ----- liveness -----

    /** Backward liveness over stack cells: one word per block end
     * (liveOut_) and per instruction (liveAfter_). */
    void computeLiveness()
    {
        StackLiveness lv = stackLiveness(func_, blocks_, sb_);
        liveOut_ = std::move(lv.out);
        liveAfter_.resize(in_.size());
        for (size_t b = 0; b < liveOut_.size(); b++) {
            uint64_t live = liveOut_[b];
            for (uint32_t pc = begins_[b + 1]; pc-- > begins_[b];) {
                liveAfter_[pc] = live;
                live = lv.ud[pc].use | (live & ~lv.ud[pc].def);
            }
        }
    }
    uint64_t liveAfter(uint32_t pc) const { return liveAfter_[pc]; }

    // ----- deferred values -----

    const LInst* pending(uint32_t cell) const
    {
        return cell >= sb_.base && pend_[cell].op != kNoOp ? &pend_[cell]
                                                           : nullptr;
    }
    void defer(uint32_t cell, LInst def)
    {
        if (pend_[cell].op == kNoOp)
            pending_.push_back(cell);
        if (def.op == uint16_t(LOp::copy))
            def.b = cell;
        else
            def.a = cell;
        pend_[cell] = def;
    }
    void drop(uint32_t cell)
    {
        if (cell >= sb_.base)
            pend_[cell].op = kNoOp;
    }
    /** Emit the deferred write of @p cell. */
    void materialize(uint32_t cell)
    {
        emit(pend_[cell]);
        pend_[cell].op = kNoOp;
    }
    /** Flush the deferred values live in @p live (or aliasing @p local
     * when it is set) and forget the rest. Returns whether it emitted. */
    bool flushLive(uint64_t live, uint32_t local = kNone)
    {
        bool emitted = false;
        size_t kept = 0;
        for (uint32_t cell : pending_) {
            const LInst& def = pend_[cell];
            if (def.op == kNoOp)
                continue;
            bool aliases = def.op == uint16_t(LOp::copy) && def.a == local;
            if (local != kNone && !aliases) {
                pending_[kept++] = cell;
                continue;
            }
            if (sb_.live(live, cell)) {
                materialize(cell);
                emitted = true;
            }
            pend_[cell].op = kNoOp;
        }
        pending_.resize(local != kNone ? kept : 0);
        return emitted;
    }

    Operand operand(uint32_t cell) const
    {
        const LInst* def = pending(cell);
        if (def == nullptr)
            return {false, cell, 0};
        if (def->op == uint16_t(LOp::copy))
            return {false, def->a, 0};
        return {true, 0, def->imm};
    }
    /** Read @p cell as a cell, flushing a deferred constant into it. */
    uint32_t operandCell(uint32_t cell)
    {
        Operand v = operand(cell);
        if (!v.isImm)
            return v.cell;
        materialize(cell);
        return cell;
    }

    void emit(const LInst& inst)
    {
        out_.push_back(inst);
        producer_ = kNone;
    }
    /** Emit a value op writing stack cell inst.a that a following
     * local.set/local.tee may retarget. */
    void emitProducer(const LInst& inst)
    {
        drop(inst.a);
        emit(inst);
        producer_ = inst.a;
    }
    /** Make the last emitted instruction (which wrote `producer_`)
     * write @p dst instead. */
    void retargetProducer(uint32_t dst)
    {
        LInst& inst = out_.back();
        if (!isFormOp(inst.op)) {
            Op op = inst.wasmOp();
            bool binary = opInputs(op) == 2;
            LInst form;
            form.op = formOp(binary ? IrForm::rr : IrForm::r, op);
            form.b = inst.a;
            form.imm = binary ? inst.b : inst.imm;
            inst = form;
        }
        inst.a = dst;
        if (formOf(inst.op) == IrForm::rr && inst.b == dst) {
            // dst == lhs: the plain op says the same in one cell fewer.
            inst.op = uint16_t(formWasmOp(inst.op));
            inst.b = uint32_t(inst.imm);
            inst.imm = 0;
        }
        producer_ = kNone;
    }

    // ----- per-instruction rewriting; returns extra instructions consumed

    uint32_t step(uint32_t pc, uint32_t block_end)
    {
        LInst inst = in_[pc];
        if (inst.isWasmOp()) {
            Op op = inst.wasmOp();
            if (isConstOp(op) && inst.a >= sb_.base) {
                if (sb_.live(liveAfter(pc), inst.a))
                    defer(inst.a, inst);
                else
                    drop(inst.a);
                return 0;
            }
            if (formDefined(IrForm::rr, op))
                return binary(pc, block_end);
            if (formDefined(IrForm::r, op)) {
                unary(inst);
                return 0;
            }
            if (isStoreOp(op)) {
                inst.a = operandCell(inst.a);
                inst.b = operandCell(inst.b);
                emit(inst);
                return 0;
            }
        } else {
            switch (inst.lop()) {
              case LOp::copy:
                copy(pc, inst);
                return 0;
              case LOp::jump_if:
              case LOp::jump_if_zero:
              case LOp::jump_table:
                inst.b = operandCell(inst.b);
                [[fallthrough]];
              case LOp::jump:
                flushLive(liveAfter(pc));
                emit(inst);
                return 0;
              default:
                break;
            }
        }
        // Unmodelled: flush every deferred value live before it.
        StackUseDef ud = stackUseDef(inst, sb_);
        flushLive(ud.use | (liveAfter(pc) & ~ud.def));
        emit(inst);
        return 0;
    }

    uint32_t binary(uint32_t pc, uint32_t block_end)
    {
        const LInst& inst = in_[pc];
        Op op = inst.wasmOp();
        Operand lhs = operand(inst.a);
        Operand rhs = operand(inst.b);
        if (lhs.isImm && !rhs.isImm && isCommutativeInt(op))
            std::swap(lhs, rhs);
        if (lhs.isImm)
            lhs = {false, operandCell(inst.a), 0};
        uint64_t rhs_bits = rhs.isImm ? rhs.imm : rhs.cell;

        // Compare-and-branch when the next jump pops the result.
        if (formDefined(IrForm::jrr, op) && pc + 1 < block_end) {
            const LInst& br = in_[pc + 1];
            if ((br.op == uint16_t(LOp::jump_if) ||
                 br.op == uint16_t(LOp::jump_if_zero)) &&
                br.b == inst.a && !sb_.live(liveAfter(pc + 1), inst.a)) {
                flushLive(liveAfter(pc + 1));
                LInst form;
                form.op = formOp(rhs.isImm ? IrForm::jri : IrForm::jrr, op);
                form.aux = br.op == uint16_t(LOp::jump_if_zero) ? 1 : 0;
                form.a = br.a;
                form.b = lhs.cell;
                form.imm = rhs_bits;
                emit(form);
                return 1;
            }
        }

        LInst out = inst;
        if (rhs.isImm || lhs.cell != inst.a) {
            out.op = formOp(rhs.isImm ? IrForm::ri : IrForm::rr, op);
            out.b = lhs.cell;
            out.imm = rhs_bits;
        } else {
            out.b = rhs.cell; // plain op: dst == lhs, rhs in any cell
        }
        emitProducer(out);
        return 0;
    }

    void unary(LInst inst)
    {
        uint32_t src = operandCell(inst.a);
        if (src != inst.a) {
            inst.op = formOp(IrForm::r, inst.wasmOp());
            inst.b = src;
        }
        emitProducer(inst);
    }

    void copy(uint32_t pc, const LInst& inst)
    {
        uint32_t src = inst.a;
        uint32_t dst = inst.b;
        uint64_t live = liveAfter(pc);
        if (dst >= sb_.base) {
            const LInst* def = pending(src);
            if (!sb_.live(live, dst)) {
                drop(dst);
            } else if (def != nullptr) {
                defer(dst, *def);
            } else if (src < sb_.base) {
                defer(dst, inst);
            } else {
                drop(dst);
                emit(inst);
            }
            return;
        }
        // local.set / local.tee: dst is a local.
        Operand v = operand(src);
        if (!v.isImm && v.cell == dst)
            return; // x = x
        bool flushed = flushLive(live, dst);
        if (v.isImm || v.cell != src) {
            LInst def = *pending(src);
            if (def.op == uint16_t(LOp::copy))
                def.b = dst;
            else
                def.a = dst;
            emit(def);
        } else if (!flushed && producer_ == src) {
            retargetProducer(dst);
            if (sb_.live(live, src)) {
                LInst alias = inst;
                alias.a = dst;
                defer(src, alias);
            }
        } else {
            emit(inst);
        }
    }

    static constexpr uint16_t kNoOp = UINT16_MAX;

    LoweredFunc& func_;
    const std::vector<LInst>& in_; ///< func_.code until run() replaces it
    const Blocks& blocks_;
    const std::vector<uint32_t>& begins_;  ///< block begins, then size
    const std::vector<uint32_t>& blockOf_; ///< pc -> block
    StackBits sb_;
    std::vector<LInst> out_;
    /** Deferred write per cell (op == kNoOp when none). */
    std::vector<LInst> pend_;
    /** Cells that may hold a deferred write. */
    std::vector<uint32_t> pending_;
    std::vector<uint64_t> liveOut_; ///< per block
    std::vector<uint64_t> liveAfter_; ///< per pc
    /** Stack cell the last emitted instruction wrote, if retargetable. */
    uint32_t producer_ = kNone;
};

uint64_t
rewriteRegisterForm(LoweredFunc& func, const Blocks& blocks)
{
    const size_t before = func.code.size();
    RegisterFormRewriter(func, blocks).run();
    return before - func.code.size();
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/** Per-function pipeline. */
OptStats
optimizeFuncInternal(LoweredFunc& func, const OptOptions& opts,
                     const MemoryBounds& mem)
{
    OptStats stats;
    stats.instsBefore = func.code.size();
    func.elidableCheckPcs.clear();
    func.memBasePinned = false;
    if (func.code.empty()) {
        stats.instsAfter = 0;
        return stats;
    }

    // Versioning runs first: it appends clones and marks fast-path
    // accesses elidable; value numbering then sees those marks. It is
    // the only step that moves block boundaries, so the partition it
    // leaves serves value numbering and the rewrite alike.
    Blocks blocks = findBlocks(func);
    if (opts.versionLoops) {
        VersionResult versioned = versionLoops(func, blocks, mem);
        stats.loopsVersioned = versioned.loopsVersioned;
        stats.checksVersioned = versioned.checksVersioned;
        if (versioned.loopsVersioned != 0)
            blocks = findBlocks(func);
    }

    if (opts.analyzeChecks) {
        std::vector<uint8_t> hinted(func.code.size(), 0);
        for (uint32_t pc : func.elidableCheckPcs)
            hinted[pc] = 1;
        stats.checksElided = markVnElidableChecks(func, blocks, hinted);
        func.elidableCheckPcs.clear();
        for (uint32_t pc = 0; pc < hinted.size(); pc++) {
            if (hinted[pc])
                func.elidableCheckPcs.push_back(pc);
        }
    }

    stats.instsFused = rewriteRegisterForm(func, blocks);

    func.memBasePinned =
        opts.pinMemoryBase &&
        std::any_of(func.code.begin(), func.code.end(), carriesBoundsCheck);

    stats.instsAfter = func.code.size();
    return stats;
}

} // namespace

OptStats
optimizeLoweredModule(LoweredModule& module, const OptOptions& opts)
{
    OptStats total;
    MemoryBounds mem;
    if (!module.module.memories.empty()) {
        const Limits& limits = module.module.memories[0];
        mem.minBytes = uint64_t(limits.min) * kPageSize;
        mem.maxBytes =
            uint64_t(limits.hasMax() ? limits.max : kMaxPages) * kPageSize;
    }
    for (LoweredFunc& func : module.funcs) {
        OptStats s = optimizeFuncInternal(func, opts, mem);
        total.checksElided += s.checksElided;
        total.instsFused += s.instsFused;
        total.loopsVersioned += s.loopsVersioned;
        total.checksVersioned += s.checksVersioned;
        total.instsBefore += s.instsBefore;
        total.instsAfter += s.instsAfter;
    }
    OptCounters& counters = optCounters();
    counters.elided.add(total.checksElided);
    counters.fused.add(total.instsFused);
    counters.versioned.add(total.loopsVersioned);
    return total;
}

} // namespace lnb::wasm
