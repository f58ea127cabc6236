/**
 * @file
 * Lowered-IR optimization pass: CFG/dominator/loop discovery, affine
 * loop versioning, per-block value numbering of bounds checks, and the
 * register-form rewrite every executor runs. See opt.h for the soundness
 * arguments.
 */
#include "wasm/opt.h"

#include <algorithm>
#include <array>
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
// CFG
// ---------------------------------------------------------------------

struct Block
{
    uint32_t begin = 0;
    uint32_t end = 0; ///< one past the last instruction
    std::vector<uint32_t> succs;
    std::vector<uint32_t> preds;
};

struct Cfg
{
    std::vector<Block> blocks;
    std::vector<uint32_t> blockOf;   ///< pc -> block index
    std::vector<uint8_t> jumpTarget; ///< pc -> is a jump target
    std::vector<uint8_t> reachable;  ///< block -> reachable from entry
    std::vector<uint32_t> rpo;       ///< reachable blocks, reverse postorder
};

void
collectJumpTargets(const LoweredFunc& func, std::vector<uint8_t>& target)
{
    target.assign(func.code.size(), 0);
    for (const LInst& inst : func.code) {
        if (inst.isWasmOp())
            continue;
        switch (inst.lop()) {
          case LOp::jump:
          case LOp::jump_if:
          case LOp::jump_if_zero:
            target[inst.a] = 1;
            break;
          case LOp::jump_table:
            for (uint32_t i = 0; i <= inst.aux; i++)
                target[func.tablePool[inst.a + i]] = 1;
            break;
          default:
            break;
        }
    }
}

/**
 * Block begins of @p func — pc 0, every jump target, every pc after a
 * terminator — closed by code.size(), and the block of each pc.
 */
void
findBlocks(const LoweredFunc& func, const std::vector<uint8_t>& jump_target,
           std::vector<uint32_t>& begins, std::vector<uint32_t>& block_of)
{
    const uint32_t n = uint32_t(func.code.size());
    block_of.resize(n);
    for (uint32_t pc = 0; pc < n; pc++) {
        if (pc == 0 || jump_target[pc] || isTerminator(func.code[pc - 1]))
            begins.push_back(pc);
        block_of[pc] = uint32_t(begins.size() - 1);
    }
    begins.push_back(n);
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

Cfg
buildCfg(const LoweredFunc& func)
{
    Cfg cfg;
    collectJumpTargets(func, cfg.jumpTarget);
    std::vector<uint32_t> begins;
    findBlocks(func, cfg.jumpTarget, begins, cfg.blockOf);
    for (size_t b = 0; b + 1 < begins.size(); b++)
        cfg.blocks.push_back({begins[b], begins[b + 1], {}, {}});
    for (uint32_t b = 0; b < cfg.blocks.size(); b++) {
        forEachSuccPc(func, cfg.blocks[b].end, [&](uint32_t to_pc) {
            uint32_t to = cfg.blockOf[to_pc];
            std::vector<uint32_t>& succs = cfg.blocks[b].succs;
            if (std::find(succs.begin(), succs.end(), to) == succs.end()) {
                succs.push_back(to);
                cfg.blocks[to].preds.push_back(b);
            }
        });
    }

    // Reachability + reverse postorder via iterative DFS from block 0.
    const size_t nb = cfg.blocks.size();
    cfg.reachable.assign(nb, 0);
    std::vector<uint32_t> post;
    if (nb > 0) {
        std::vector<std::pair<uint32_t, size_t>> stack;
        cfg.reachable[0] = 1;
        stack.emplace_back(0, 0);
        while (!stack.empty()) {
            auto& [b, next] = stack.back();
            if (next < cfg.blocks[b].succs.size()) {
                uint32_t s = cfg.blocks[b].succs[next++];
                if (!cfg.reachable[s]) {
                    cfg.reachable[s] = 1;
                    stack.emplace_back(s, 0);
                }
            } else {
                post.push_back(b);
                stack.pop_back();
            }
        }
    }
    cfg.rpo.assign(post.rbegin(), post.rend());
    return cfg;
}

/** Iterative dominator sets over reachable blocks (bitsets; functions
 * here are small enough that O(n^2/64) per iteration is fine). */
std::vector<std::vector<uint64_t>>
computeDominators(const Cfg& cfg)
{
    const size_t nb = cfg.blocks.size();
    const size_t words = (nb + 63) / 64;
    std::vector<std::vector<uint64_t>> dom(
        nb, std::vector<uint64_t>(words, ~uint64_t(0)));
    auto setOnly = [&](uint32_t b) {
        std::fill(dom[b].begin(), dom[b].end(), 0);
        dom[b][b / 64] |= uint64_t(1) << (b % 64);
    };
    if (nb == 0)
        return dom;
    setOnly(0);
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t b : cfg.rpo) {
            if (b == 0)
                continue;
            std::vector<uint64_t> meet(words, ~uint64_t(0));
            bool any = false;
            for (uint32_t p : cfg.blocks[b].preds) {
                if (!cfg.reachable[p])
                    continue;
                for (size_t w = 0; w < words; w++)
                    meet[w] &= dom[p][w];
                any = true;
            }
            if (!any)
                std::fill(meet.begin(), meet.end(), 0);
            meet[b / 64] |= uint64_t(1) << (b % 64);
            if (meet != dom[b]) {
                dom[b] = std::move(meet);
                changed = true;
            }
        }
    }
    return dom;
}

inline bool
dominates(const std::vector<std::vector<uint64_t>>& dom, uint32_t a,
          uint32_t b)
{
    return (dom[b][a / 64] >> (a % 64)) & 1;
}

/** Natural loops merged by header block. */
struct Loop
{
    uint32_t header = 0;
    std::vector<uint8_t> body; ///< block membership bitmap
};

std::vector<Loop>
findNaturalLoops(const Cfg& cfg)
{
    const size_t nb = cfg.blocks.size();
    std::vector<std::vector<uint64_t>> dom = computeDominators(cfg);
    std::map<uint32_t, Loop> byHeader;
    for (uint32_t u = 0; u < nb; u++) {
        if (!cfg.reachable[u])
            continue;
        for (uint32_t h : cfg.blocks[u].succs) {
            if (!dominates(dom, h, u))
                continue;
            Loop& loop = byHeader[h];
            if (loop.body.empty()) {
                loop.header = h;
                loop.body.assign(nb, 0);
                loop.body[h] = 1;
            }
            // Backward walk from the back-edge source.
            std::vector<uint32_t> work;
            if (!loop.body[u]) {
                loop.body[u] = 1;
                work.push_back(u);
            }
            while (!work.empty()) {
                uint32_t b = work.back();
                work.pop_back();
                for (uint32_t p : cfg.blocks[b].preds) {
                    if (cfg.reachable[p] && !loop.body[p]) {
                        loop.body[p] = 1;
                        work.push_back(p);
                    }
                }
            }
        }
    }
    std::vector<Loop> loops;
    loops.reserve(byHeader.size());
    for (auto& [h, loop] : byHeader)
        loops.push_back(std::move(loop));
    return loops;
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
 * Insert instructions before given pcs. A jump targeting an insertion
 * point lands after the inserted instructions (back edges re-enter the
 * loop body, not a versioned loop's preheader guard); fallthrough entry
 * executes them.
 */
void
applyInsertions(LoweredFunc& func,
                std::vector<std::pair<uint32_t, LInst>> inserts)
{
    if (inserts.empty())
        return;
    std::stable_sort(inserts.begin(), inserts.end(),
                     [](const auto& x, const auto& y) {
                         return x.first < y.first;
                     });
    const size_t n = func.code.size();
    std::vector<uint32_t> new_pc(n + 1);
    size_t k = 0;
    for (size_t pc = 0; pc <= n; pc++) {
        while (k < inserts.size() && inserts[k].first <= pc)
            k++;
        new_pc[pc] = uint32_t(pc + k);
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
    remapJumps(func, new_pc);
    remapFacts(func, new_pc);
}

// ---------------------------------------------------------------------
// Affine loop versioning (trap strategy only)
// ---------------------------------------------------------------------
//
// For a single-block bottom-test loop whose exit condition is an unsigned
// compare of the (post-increment) induction variable against a
// loop-invariant bound N, recognize accesses whose address is affine in
// the IV: k_iv*iv + k_base*base + const. The loop body stays in place as
// the fast path with every qualifying check marked elidable; a cloned,
// fully-checked copy is appended, and preheader guards — evaluated in
// 64-bit arithmetic, so they also rule out u32 wraparound of the in-loop
// address computation — branch to the clone when they fail.
//
// Soundness of the guard bound: in a bottom-test loop, iteration j >= 1
// only runs because the previous iteration's compare saw iv < N — and the
// compare reads the *wrapped* u32 value, so iv_start(j) < N holds as an
// integer regardless of wraparound. Iteration 0 starts from the entry
// value. Hence M = max(iv_entry, N-1) bounds iv at the top of every
// iteration. If every affine term, evaluated without wrapping at
// coefficient*M + base-coefficient*base + const + access-limit, fits
// under memSize, then each partial sum of the in-loop u32 arithmetic is
// bounded by that total < 2^32 (all terms are non-negative), so the u32
// computation never wraps, computes the true affine value, and every
// access check on the fast path provably passes. N == 0 makes N-1
// underflow to 2^64-1, M >= 2^32 is separately guarded, and the loop
// falls back to the checked clone — degenerate bounds are never fast.

/** Cap on affine coefficients so coef*M (M < 2^32) stays < 2^48 and the
 * guard's u64 sums cannot overflow. */
constexpr uint64_t kMaxAffineCoef = uint64_t(1) << 16;
/** Cap on the additive constant (offsets accumulated across adds). */
constexpr uint64_t kMaxAffineConst = uint64_t(1) << 34;

/** Affine form of a cell's value inside one loop iteration:
 * sum(coef * value-at-iteration-entry(cell)) + k, tracked in exact
 * (non-wrapping) u64 arithmetic over zero-extended i32 inputs. */
struct Affine
{
    bool top = true;
    std::map<uint32_t, uint64_t> terms; ///< cell -> coefficient
    uint64_t k = 0;

    static Affine identity(uint32_t cell)
    {
        Affine a;
        a.top = false;
        a.terms[cell] = 1;
        return a;
    }
    static Affine constant(uint64_t v)
    {
        Affine a;
        a.top = false;
        a.k = v;
        return a;
    }
    bool isConst() const { return !top && terms.empty(); }
    bool operator==(const Affine& o) const
    {
        return top == o.top && terms == o.terms && k == o.k;
    }
};

Affine
affAdd(const Affine& x, const Affine& y)
{
    Affine r;
    if (x.top || y.top)
        return r;
    r.top = false;
    r.terms = x.terms;
    for (const auto& [cell, coef] : y.terms) {
        uint64_t& c = r.terms[cell];
        c += coef;
        if (c > kMaxAffineCoef)
            return Affine{};
    }
    r.k = x.k + y.k;
    if (r.k > kMaxAffineConst || r.terms.size() > 2)
        return Affine{};
    return r;
}

Affine
affScale(const Affine& x, uint64_t s)
{
    Affine r;
    if (x.top || s > kMaxAffineCoef)
        return r;
    r.top = false;
    for (const auto& [cell, coef] : x.terms) {
        uint64_t c = coef * s;
        if (c > kMaxAffineCoef)
            return Affine{};
        r.terms[cell] = c;
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
    uint32_t headerEnd = 0; ///< one past the back-edge terminator
    uint32_t ivCell = 0;
    bool boundIsConst = false;
    uint32_t boundCell = 0;
    uint64_t boundConst = 0;
    std::vector<GuardTerm> terms;
    std::vector<uint32_t> elidePcs; ///< fast-path accesses made elidable
};

/** True if block @p p ends with a jump whose target is pc @p h. */
bool
blockJumpsTo(const LoweredFunc& func, const Block& p, uint32_t h)
{
    const LInst& last = func.code[p.end - 1];
    if (last.isWasmOp())
        return false;
    switch (last.lop()) {
      case LOp::jump:
      case LOp::jump_if:
      case LOp::jump_if_zero:
        return last.a == h;
      case LOp::jump_table:
        for (uint32_t i = 0; i <= last.aux; i++) {
            if (func.tablePool[last.a + i] == h)
                return true;
        }
        return false;
      default:
        return false;
    }
}

/**
 * Analyze one single-block loop for versioning eligibility. Returns true
 * and fills @p plan if the loop has a recognizable counted form and at
 * least one IV-dependent affine access.
 */
bool
planLoopVersion(const LoweredFunc& func, const Cfg& cfg, const Loop& loop,
                LoopVersionPlan& plan)
{
    // Exactly one block in the body, and a fallthrough-only entry (every
    // jump to the header pc must be the back edge), so no path into the
    // loop bypasses the guard.
    uint32_t nbody = 0;
    for (uint8_t in : loop.body)
        nbody += in;
    if (nbody != 1)
        return false;
    const Block& header = cfg.blocks[loop.header];
    uint32_t h = header.begin;
    for (uint32_t p : header.preds) {
        if (!loop.body[p] && blockJumpsTo(func, cfg.blocks[p], h))
            return false;
    }
    if (header.end - header.begin < 2)
        return false;
    const LInst& term = func.code[header.end - 1];
    if (term.isWasmOp() ||
        (term.lop() != LOp::jump_if && term.lop() != LOp::jump_if_zero) ||
        term.a != h)
        return false;

    // Abstract-interpret the body once: affine state per cell, snapshots
    // of compare operands, and the address expression at each access.
    std::map<uint32_t, Affine> state;
    auto exprOf = [&](uint32_t cell) -> Affine {
        auto it = state.find(cell);
        return it != state.end() ? it->second : Affine::identity(cell);
    };
    struct AccessRec
    {
        uint32_t pc;
        Affine addr;
        uint64_t limit;
    };
    std::vector<AccessRec> accesses;
    struct CmpRec
    {
        Affine lhs, rhs;
    };
    std::map<uint32_t, CmpRec> cmps;     // pc -> operand snapshot
    std::map<uint32_t, uint32_t> lastDef; // cell -> defining pc

    for (uint32_t pc = header.begin; pc + 1 < header.end; pc++) {
        const LInst& inst = func.code[pc];
        if (!inst.isWasmOp()) {
            switch (inst.lop()) {
              case LOp::copy:
                state[inst.b] = exprOf(inst.a);
                lastDef[inst.b] = pc;
                continue;
              case LOp::callf:
              case LOp::call_host:
              case LOp::calli:
                return false; // calls may grow memory or clobber cells
              default:
                break;
            }
            uint32_t w;
            if (writesCell(inst, w)) {
                state[w] = Affine{};
                lastDef[w] = pc;
            }
            continue;
        }
        Op op = inst.wasmOp();
        if (op == Op::memory_grow)
            return false; // memSize may change mid-loop
        if (isAtomicOp(op))
            return false; // may observe a concurrent grow (shared memory)
        if (isLoadOp(op) || isStoreOp(op)) {
            accesses.push_back(
                {pc, exprOf(inst.a), inst.imm + memAccessSize(op)});
            if (isLoadOp(op)) {
                state[inst.a] = Affine{};
                lastDef[inst.a] = pc;
            }
            continue;
        }
        switch (op) {
          case Op::i32_const:
            state[inst.a] = Affine::constant(uint32_t(inst.imm));
            lastDef[inst.a] = pc;
            continue;
          case Op::i32_add:
            state[inst.a] = affAdd(exprOf(inst.a), exprOf(inst.b));
            lastDef[inst.a] = pc;
            continue;
          case Op::i32_mul: {
            Affine lhs = exprOf(inst.a), rhs = exprOf(inst.b);
            if (rhs.isConst())
                state[inst.a] = affScale(lhs, rhs.k);
            else if (lhs.isConst())
                state[inst.a] = affScale(rhs, lhs.k);
            else
                state[inst.a] = Affine{};
            lastDef[inst.a] = pc;
            continue;
          }
          case Op::i32_shl: {
            Affine rhs = exprOf(inst.b);
            if (rhs.isConst() && (rhs.k & 31) < 17)
                state[inst.a] =
                    affScale(exprOf(inst.a), uint64_t(1) << (rhs.k & 31));
            else
                state[inst.a] = Affine{};
            lastDef[inst.a] = pc;
            continue;
          }
          case Op::i32_lt_u:
          case Op::i32_gt_u:
          case Op::i32_ge_u:
          case Op::i32_le_u:
            cmps[pc] = {exprOf(inst.a), exprOf(inst.b)};
            state[inst.a] = Affine{};
            lastDef[inst.a] = pc;
            continue;
          default:
            break;
        }
        uint32_t w;
        if (writesCell(inst, w)) {
            state[w] = Affine{};
            lastDef[w] = pc;
        }
    }

    // Resolve the exit condition: the branch cell's last def must be one
    // of the four continue-iff-(iv' < N) unsigned compare forms, with the
    // IV side exactly iv + step (step >= 1).
    auto ld = lastDef.find(term.b);
    if (ld == lastDef.end())
        return false;
    auto cm = cmps.find(ld->second);
    if (cm == cmps.end() || func.code[ld->second].a != term.b)
        return false;
    Op cmpOp = func.code[ld->second].wasmOp();
    bool zero = term.lop() == LOp::jump_if_zero;
    // continue == branch taken (jump_if) / not taken (jump_if_zero).
    Affine ivSide, boundSide;
    if ((!zero && cmpOp == Op::i32_lt_u) || (zero && cmpOp == Op::i32_ge_u)) {
        ivSide = cm->second.lhs;
        boundSide = cm->second.rhs;
    } else if ((!zero && cmpOp == Op::i32_gt_u) ||
               (zero && cmpOp == Op::i32_le_u)) {
        ivSide = cm->second.rhs;
        boundSide = cm->second.lhs;
    } else {
        return false;
    }
    if (ivSide.top || ivSide.terms.size() != 1 ||
        ivSide.terms.begin()->second != 1 || ivSide.k < 1)
        return false;
    plan.ivCell = ivSide.terms.begin()->first;
    // The IV cell itself must end the iteration at exactly iv + step.
    Affine ivEnd = exprOf(plan.ivCell);
    if (!(ivEnd == ivSide))
        return false;
    auto invariant = [&](uint32_t cell) {
        auto it = state.find(cell);
        return it == state.end() || it->second == Affine::identity(cell);
    };
    if (boundSide.isConst()) {
        if (boundSide.k == 0)
            return false; // guard would always fail; keep the plain loop
        plan.boundIsConst = true;
        plan.boundConst = boundSide.k;
    } else if (!boundSide.top && boundSide.terms.size() == 1 &&
               boundSide.terms.begin()->second == 1 && boundSide.k == 0 &&
               boundSide.terms.begin()->first != plan.ivCell &&
               invariant(boundSide.terms.begin()->first)) {
        plan.boundCell = boundSide.terms.begin()->first;
    } else {
        return false;
    }

    // Qualify accesses: affine in at most {iv, one invariant base}.
    std::map<std::tuple<uint64_t, uint32_t, uint64_t>, uint64_t> merged;
    bool anyIvAccess = false;
    for (const AccessRec& acc : accesses) {
        if (acc.addr.top)
            continue;
        uint64_t kiv = 0, kbase = 0;
        bool hasBase = false;
        uint32_t baseCell = 0;
        bool ok = true;
        for (const auto& [cell, coef] : acc.addr.terms) {
            if (cell == plan.ivCell) {
                kiv = coef;
            } else if (!hasBase && invariant(cell)) {
                hasBase = true;
                baseCell = cell;
                kbase = coef;
            } else {
                ok = false;
                break;
            }
        }
        uint64_t kconst = acc.addr.k + acc.limit;
        if (!ok || kconst > kMaxAffineConst)
            continue;
        if (kiv > 0)
            anyIvAccess = true;
        uint64_t& worst =
            merged[{kiv, hasBase ? baseCell + 1 : 0, kbase}];
        worst = std::max(worst, kconst);
        plan.elidePcs.push_back(acc.pc);
    }
    if (!anyIvAccess || plan.elidePcs.empty())
        return false;
    for (const auto& [key, kconst] : merged) {
        GuardTerm t;
        t.kIv = std::get<0>(key);
        t.hasBase = std::get<1>(key) != 0;
        t.baseCell = t.hasBase ? std::get<1>(key) - 1 : 0;
        t.kBase = std::get<2>(key);
        t.kConst = kconst;
        plan.terms.push_back(t);
    }
    plan.headerBegin = h;
    plan.headerEnd = header.end;
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

struct VersionResult
{
    uint64_t loopsVersioned = 0;
    uint64_t checksVersioned = 0;
};

/**
 * Version every eligible loop of @p func in place: append checked slow
 * clones, insert preheader guards, and mark fast-path accesses elidable
 * (appended to func.elidableCheckPcs, remapped with the insertions). The
 * list stays sorted: loops come in header order and their single-block
 * bodies do not overlap.
 */
VersionResult
versionLoops(LoweredFunc& func)
{
    VersionResult result;
    Cfg cfg = buildCfg(func);
    std::vector<Loop> loops = findNaturalLoops(cfg);
    std::vector<LoopVersionPlan> plans;
    for (const Loop& loop : loops) {
        LoopVersionPlan plan;
        if (planLoopVersion(func, cfg, loop, plan))
            plans.push_back(std::move(plan));
    }
    if (plans.empty())
        return result;

    // Five scratch cells, shared by all guards in the function:
    //   S0 = memSize in bytes, S1 = M (then per-term work in S2..S4).
    // The memSize in S0 and M in S1 are read by every term.
    const uint32_t S0 = func.numCells;
    const uint32_t S1 = S0 + 1, S2 = S0 + 2, S3 = S0 + 3, S4 = S0 + 4;
    func.numCells += 5;
    const uint16_t kCopy = uint16_t(LOp::copy);
    const uint16_t kI32 = uint16_t(ValType::i32);
    const uint16_t kI64 = uint16_t(ValType::i64);

    std::vector<std::pair<uint32_t, LInst>> inserts;
    for (const LoopVersionPlan& plan : plans) {
        // Append the checked slow-path clone first, while original pcs
        // are still valid: count_fallback, the body, then a jump to the
        // loop exit. The back edge re-targets the first body copy so the
        // fallback counter bumps once per guard failure, not per
        // iteration.
        const uint32_t cloneStart = uint32_t(func.code.size());
        func.code.push_back(
            makeInst(uint16_t(LOp::count_fallback), 0, 0, 0, 0));
        for (uint32_t pc = plan.headerBegin; pc < plan.headerEnd; pc++)
            func.code.push_back(func.code[pc]);
        LInst& cloneTerm = func.code.back();
        cloneTerm.a = cloneStart + 1;
        func.code.push_back(
            makeInst(uint16_t(LOp::jump), 0, plan.headerEnd, 0, 0));

        // Guard prelude: S0 = memSize bytes, S1 = M = max(iv, N-1).
        const uint32_t h = plan.headerBegin;
        auto ins = [&](LInst i) { inserts.emplace_back(h, i); };
        ins(makeInst(uint16_t(Op::memory_size), 0, S0, 0, 0));
        ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S0, 0, 0));
        ins(makeInst(uint16_t(Op::i64_const), 0, S1, 0, 16));
        ins(makeInst(uint16_t(Op::i64_shl), 0, S0, S1, 0));
        ins(makeInst(kCopy, kI32, plan.ivCell, S1, 0));
        ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S1, 0, 0));
        if (plan.boundIsConst) {
            ins(makeInst(uint16_t(Op::i64_const), 0, S2, 0,
                         plan.boundConst - 1));
        } else {
            ins(makeInst(kCopy, kI32, plan.boundCell, S2, 0));
            ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S2, 0, 0));
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0, 1));
            ins(makeInst(uint16_t(Op::i64_sub), 0, S2, S3, 0));
        }
        // S1 = max(S1, S2) via select: cond S3 = (S2 < S1) picks S1.
        ins(makeInst(kCopy, kI64, S2, S3, 0));
        ins(makeInst(uint16_t(Op::i64_lt_u), 0, S3, S1, 0));
        ins(makeInst(uint16_t(Op::select), 0, S1, 0, 0));
        if (!plan.boundIsConst) {
            // Variable bound: N == 0 underflows N-1 to 2^64-1; require
            // M < 2^32 so coef*M below cannot overflow u64.
            ins(makeInst(kCopy, kI64, S1, S2, 0));
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0,
                         uint64_t(1) << 32));
            ins(makeInst(uint16_t(Op::i64_ge_u), 0, S2, S3, 0));
            ins(makeInst(uint16_t(LOp::jump_if), 0, cloneStart, S2, 0));
        }
        // One range check per distinct (kIv, base, kBase) group.
        for (const GuardTerm& t : plan.terms) {
            ins(makeInst(kCopy, kI64, S1, S2, 0));
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0, t.kIv));
            ins(makeInst(uint16_t(Op::i64_mul), 0, S2, S3, 0));
            if (t.hasBase) {
                ins(makeInst(kCopy, kI32, t.baseCell, S3, 0));
                ins(makeInst(uint16_t(Op::i64_extend_i32_u), 0, S3, 0, 0));
                ins(makeInst(uint16_t(Op::i64_const), 0, S4, 0, t.kBase));
                ins(makeInst(uint16_t(Op::i64_mul), 0, S3, S4, 0));
                ins(makeInst(uint16_t(Op::i64_add), 0, S2, S3, 0));
            }
            ins(makeInst(uint16_t(Op::i64_const), 0, S3, 0, t.kConst));
            ins(makeInst(uint16_t(Op::i64_add), 0, S2, S3, 0));
            ins(makeInst(uint16_t(Op::i64_gt_u), 0, S2, S0, 0));
            ins(makeInst(uint16_t(LOp::jump_if), 0, cloneStart, S2, 0));
        }

        for (uint32_t pc : plan.elidePcs)
            func.elidableCheckPcs.push_back(pc);
        result.loopsVersioned++;
        result.checksVersioned += plan.elidePcs.size();
    }

    // One remap pass: jumps targeting the header land after the guard
    // (back edges skip it), fallthrough entry executes it; clone-internal
    // and guard-fail targets shift with everything else.
    applyInsertions(func, std::move(inserts));
    assert(std::is_sorted(func.elidableCheckPcs.begin(),
                          func.elidableCheckPcs.end()));
    return result;
}

// ---------------------------------------------------------------------
// Redundant-check analysis (per-block value numbering)
// ---------------------------------------------------------------------

constexpr uint32_t kNoVn = 0;

/**
 * Per-block value numbering of cell contents; marks in @p hinted every
 * access whose check is covered by an earlier check of the same address
 * value in the same block, and returns how many it newly marked. A callf
 * only forgets cell names at and above its argument base (inst.b):
 * frames overlap, so a wasm callee cannot write caller cells below it.
 * calli forgets every name — its inst.b is the table-index cell, not the
 * arg base, so the real base (inst.b - nargs, which needs the callee
 * type) is unknown here — as do host calls.
 */
uint64_t
markVnElidableChecks(const LoweredFunc& func, std::vector<uint8_t>& hinted)
{
    std::vector<uint8_t> jump_target;
    std::vector<uint32_t> begins, block_of;
    collectJumpTargets(func, jump_target);
    findBlocks(func, jump_target, begins, block_of);
    uint64_t marked = 0;
    std::vector<uint32_t> cellVn(func.numCells, kNoVn);
    for (size_t b = 0; b + 1 < begins.size(); b++) {
        std::fill(cellVn.begin(), cellVn.end(), kNoVn);
        uint32_t next = 1;
        std::map<std::array<uint64_t, 3>, uint32_t> exprs;
        // Passed checks stay valid for a value forever (memories never
        // shrink), so within the block only an atomic kills availability.
        std::unordered_map<uint32_t, uint64_t> avail; // vn -> limit
        auto vnOf = [&](uint32_t cell) {
            if (cellVn[cell] == kNoVn)
                cellVn[cell] = next++;
            return cellVn[cell];
        };
        auto keyed = [&](std::array<uint64_t, 3> key) {
            auto [it, inserted] = exprs.emplace(key, next);
            if (inserted)
                next++;
            return it->second;
        };
        for (uint32_t pc = begins[b]; pc < begins[b + 1]; pc++) {
            const LInst& inst = func.code[pc];
            if (!inst.isWasmOp()) {
                switch (inst.lop()) {
                  case LOp::copy:
                    cellVn[inst.b] = vnOf(inst.a);
                    break;
                  case LOp::callf:
                    // Callee overlap clobbers cells from the arg base
                    // up; values already checked stay checked, so
                    // `avail` survives.
                    std::fill(cellVn.begin() + inst.b, cellVn.end(), kNoVn);
                    break;
                  case LOp::calli:
                  case LOp::call_host:
                    std::fill(cellVn.begin(), cellVn.end(), kNoVn);
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
                    cellVn[inst.a] = next++; // loaded value: fresh
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
                    cellVn[written] = next++;
                continue;
            }
            switch (op) {
              case Op::i32_const:
              case Op::i64_const:
              case Op::f32_const:
              case Op::f64_const:
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op) << 32, inst.imm, 0});
                continue;
              case Op::select: {
                uint64_t va = vnOf(inst.a), vb = vnOf(inst.a + 1);
                uint64_t vc = vnOf(inst.a + 2);
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op), (va << 32) | vb, vc});
                continue;
              }
              case Op::global_get:
              case Op::memory_size:
              case Op::memory_grow:
                cellVn[inst.a] = next++;
                continue;
              default:
                break;
            }
            int nin = opInputs(op);
            if (nin == 1 && opResult(op) != 0) {
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op), vnOf(inst.a), 1});
            } else if (nin == 2 && opResult(op) != 0) {
                uint64_t va = vnOf(inst.a), vb = vnOf(inst.b);
                cellVn[inst.a] =
                    keyed({uint64_t(inst.op), (va << 32) | vb, 2});
            } else {
                uint32_t written;
                if (writesCell(inst, written))
                    cellVn[written] = next++;
            }
        }
    }
    return marked;
}

// ---------------------------------------------------------------------
// Register-form rewrite (every executor)
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
    explicit RegisterFormRewriter(LoweredFunc& func)
        : func_(func),
          in_(func.code),
          sb_{func.numLocalCells},
          pend_(func.numCells, LInst{kNoOp, 0, 0, 0, 0})
    {
    }

    void run()
    {
        // Only block ranges and successors: no full Cfg.
        std::vector<uint8_t> jump_target;
        collectJumpTargets(func_, jump_target);
        findBlocks(func_, jump_target, begins_, blockOf_);
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
        const size_t n = in_.size();
        const size_t nb = begins_.size() - 1;
        std::vector<StackUseDef> ud(n);
        for (size_t pc = 0; pc < n; pc++)
            ud[pc] = stackUseDef(in_[pc], sb_);
        std::vector<uint64_t> gen(nb, 0), kill(nb, 0), in(nb, 0);
        liveOut_.assign(nb, 0);
        for (size_t b = 0; b < nb; b++) {
            for (uint32_t pc = begins_[b + 1]; pc-- > begins_[b];) {
                gen[b] = ud[pc].use | (gen[b] & ~ud[pc].def);
                kill[b] |= ud[pc].def;
            }
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t b = nb; b-- > 0;) {
                uint64_t o = 0;
                forEachSuccPc(func_, begins_[b + 1],
                              [&](uint32_t pc) { o |= in[blockOf_[pc]]; });
                uint64_t i = gen[b] | (o & ~kill[b]);
                if (i != in[b] || o != liveOut_[b]) {
                    in[b] = i;
                    liveOut_[b] = o;
                    changed = true;
                }
            }
        }
        liveAfter_.resize(n);
        for (size_t b = 0; b < nb; b++) {
            uint64_t live = liveOut_[b];
            for (uint32_t pc = begins_[b + 1]; pc-- > begins_[b];) {
                liveAfter_[pc] = live;
                live = ud[pc].use | (live & ~ud[pc].def);
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
    StackBits sb_;
    std::vector<LInst> out_;
    /** Deferred write per cell (op == kNoOp when none). */
    std::vector<LInst> pend_;
    /** Cells that may hold a deferred write. */
    std::vector<uint32_t> pending_;
    std::vector<uint32_t> begins_;  ///< block begins, then code.size()
    std::vector<uint32_t> blockOf_; ///< pc -> block
    std::vector<uint64_t> liveOut_; ///< per block
    std::vector<uint64_t> liveAfter_; ///< per pc
    /** Stack cell the last emitted instruction wrote, if retargetable. */
    uint32_t producer_ = kNone;
};

uint64_t
rewriteRegisterForm(LoweredFunc& func)
{
    const size_t before = func.code.size();
    RegisterFormRewriter(func).run();
    return before - func.code.size();
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/** Per-function pipeline. */
OptStats
optimizeFuncInternal(LoweredFunc& func, const OptOptions& opts)
{
    OptStats stats;
    stats.instsBefore = func.code.size();
    func.elidableCheckPcs.clear();
    if (func.code.empty()) {
        stats.instsAfter = 0;
        return stats;
    }

    // Versioning runs first: it appends clones and marks fast-path
    // accesses elidable; value numbering then sees those marks.
    if (opts.versionLoops) {
        VersionResult versioned = versionLoops(func);
        stats.loopsVersioned = versioned.loopsVersioned;
        stats.checksVersioned = versioned.checksVersioned;
    }

    if (opts.analyzeChecks) {
        std::vector<uint8_t> hinted(func.code.size(), 0);
        for (uint32_t pc : func.elidableCheckPcs)
            hinted[pc] = 1;
        stats.checksElided = markVnElidableChecks(func, hinted);
        func.elidableCheckPcs.clear();
        for (uint32_t pc = 0; pc < hinted.size(); pc++) {
            if (hinted[pc])
                func.elidableCheckPcs.push_back(pc);
        }
    }

    stats.instsFused = rewriteRegisterForm(func);

    stats.instsAfter = func.code.size();
    return stats;
}

} // namespace

OptStats
optimizeLoweredModule(LoweredModule& module, const OptOptions& opts)
{
    OptStats total;
    for (LoweredFunc& func : module.funcs) {
        OptStats s = optimizeFuncInternal(func, opts);
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
