/**
 * @file
 * Differential execution fuzzing: randomly generated (but always valid
 * and non-trapping) programs must produce bit-identical results on every
 * engine and bounds strategy. This is the strongest correctness oracle in
 * the suite: the two interpreters and the two JIT tiers share no
 * execution code beyond the lowered IR, so any semantic divergence in
 * ~190 instructions shows up as a mismatch. A second family of programs
 * ends in accesses that may fall past the memory end, so a bounds check
 * skipped where it must not be shows up as a different trap point.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <span>

#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/rng.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace lnb {
namespace {

using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Op;
using wasm::ValType;

/** Generates a random valid function body over typed locals. */
class ProgramGenerator
{
  public:
    ProgramGenerator(FunctionBuilder& f, Rng& rng) : f_(f), rng_(rng)
    {
        // A handful of locals of each type, pre-seeded from constants.
        for (int i = 0; i < 3; i++) {
            i32Locals_.push_back(f.addLocal(ValType::i32));
            i64Locals_.push_back(f.addLocal(ValType::i64));
            f64Locals_.push_back(f.addLocal(ValType::f64));
            f32Locals_.push_back(f.addLocal(ValType::f32));
        }
    }

    /** Emit the whole body; leaves one i64 result on the stack. */
    void
    emitBody()
    {
        // Seed locals.
        for (uint32_t local : i32Locals_) {
            f_.i32Const(int32_t(rng_.next()));
            f_.localSet(local);
        }
        for (uint32_t local : i64Locals_) {
            f_.i64Const(int64_t(rng_.next()));
            f_.localSet(local);
        }
        for (uint32_t local : f64Locals_) {
            f_.f64Const(smallF64());
            f_.localSet(local);
        }
        for (uint32_t local : f32Locals_) {
            f_.f32Const(float(smallF64()));
            f_.localSet(local);
        }

        int statements = 6 + int(rng_.nextBelow(10));
        for (int s = 0; s < statements; s++)
            emitStatement();

        // Fold everything into one i64.
        f_.i64Const(0);
        for (uint32_t local : i64Locals_) {
            f_.localGet(local);
            f_.emit(Op::i64_xor);
        }
        for (uint32_t local : i32Locals_) {
            f_.localGet(local);
            f_.emit(Op::i64_extend_i32_u);
            f_.emit(Op::i64_add);
        }
        for (uint32_t local : f64Locals_) {
            f_.localGet(local);
            canonicalizeF64();
            f_.emit(Op::i64_reinterpret_f64);
            f_.emit(Op::i64_xor);
        }
        for (uint32_t local : f32Locals_) {
            f_.localGet(local);
            f_.emit(Op::f64_promote_f32);
            canonicalizeF64();
            f_.emit(Op::i64_reinterpret_f64);
            f_.emit(Op::i64_add);
        }
        // Mix in a memory cell.
        f_.i32Const(128);
        f_.memOp(Op::i64_load);
        f_.emit(Op::i64_xor);
    }

    /**
     * Take the body's i64 result and end in accesses that may fall past
     * the one-page memory: an affine load in a counted loop (the
     * versioner's shape) whose last iterations may cross the end, then
     * loads and stores at non-affine addresses near it. Every address is
     * accessed three times in a row, so the check analysis lists the
     * later two as covered by the first. Before each access the running
     * checksum folds into global @p checksum, so the global tells which
     * access trapped. Leaves the final checksum on the stack.
     */
    void
    emitOutOfBoundsTail(uint32_t checksum)
    {
        uint32_t acc = f_.addLocal(ValType::i64);
        f_.localSet(acc);
        auto fold = [&] {
            f_.globalGet(checksum);
            f_.i64Const(131);
            f_.emit(Op::i64_mul);
            f_.localGet(acc);
            f_.emit(Op::i64_add);
            f_.globalSet(checksum);
        };
        // acc = acc op load64(address pushed by @p address), thrice.
        auto load_thrice = [&](const std::function<void()>& address) {
            for (Op op : {Op::i64_xor, Op::i64_add, Op::i64_sub}) {
                fold();
                f_.localGet(acc);
                address();
                f_.memOp(Op::i64_load);
                f_.emit(op);
                f_.localSet(acc);
            }
        };

        // do { acc ^= mem[base + i*8]; acc += ...; acc -= ...; i++ }
        // while (i < trips): in bounds for the first `room` iterations.
        uint32_t i = f_.addLocal(ValType::i32);
        uint32_t room = 1 + uint32_t(rng_.nextBelow(48));
        uint32_t base = uint32_t(wasm::kPageSize) - room * 8;
        uint32_t trips = 1 + uint32_t(rng_.nextBelow(64));
        f_.i32Const(0);
        f_.localSet(i);
        auto head = f_.loop();
        load_thrice([&] {
            f_.i32Const(int32_t(base));
            f_.localGet(i);
            f_.i32Const(3);
            f_.emit(Op::i32_shl);
            f_.emit(Op::i32_add);
        });
        f_.localGet(i);
        f_.i32Const(1);
        f_.emit(Op::i32_add);
        f_.localTee(i);
        f_.i32Const(int32_t(trips));
        f_.emit(Op::i32_lt_u);
        f_.brIf(head);
        f_.end();

        // Hashed addresses within 64 bytes of the end: an 8-byte access
        // at one of the last 7 in-bounds bytes or past them traps.
        int accesses = 4 + int(rng_.nextBelow(6));
        for (int k = 0; k < accesses; k++) {
            uint32_t x = pick(i32Locals_);
            auto address = [&] {
                f_.localGet(x);
                f_.i32Const(int32_t(0x9E3779B1u * uint32_t(k + 1)));
                f_.emit(Op::i32_mul);
                f_.i32Const(63);
                f_.emit(Op::i32_and);
                f_.i32Const(int32_t(wasm::kPageSize - 40));
                f_.emit(Op::i32_add);
            };
            if (rng_.chance(0.5)) {
                load_thrice(address);
            } else {
                for (int repeat = 0; repeat < 3; repeat++) {
                    fold();
                    address();
                    f_.localGet(acc);
                    f_.memOp(Op::i64_store);
                }
            }
        }
        fold();
        f_.globalGet(checksum);
    }

  private:
    /** Replace non-canonical NaNs so cross-engine NaN payload freedom
     * cannot cause spurious mismatches: x != x ? 1.5 : x. */
    void
    canonicalizeF64()
    {
        uint32_t tmp = scratchF64();
        f_.localTee(tmp);
        f_.f64Const(1.5);
        f_.localGet(tmp);
        f_.localGet(tmp);
        f_.emit(Op::f64_eq); // false iff NaN
        f_.select();
    }

    uint32_t
    scratchF64()
    {
        if (scratchF64_ == UINT32_MAX)
            scratchF64_ = f_.addLocal(ValType::f64);
        return scratchF64_;
    }

    double
    smallF64()
    {
        return (rng_.nextDouble() - 0.5) * 1e6;
    }

    uint32_t
    pick(const std::vector<uint32_t>& locals)
    {
        return locals[rng_.nextBelow(locals.size())];
    }

    void
    emitStatement()
    {
        switch (rng_.nextBelow(8)) {
          case 0: { // i32 assignment
            emitI32(3);
            f_.localSet(pick(i32Locals_));
            break;
          }
          case 1: { // i64 assignment
            emitI64(3);
            f_.localSet(pick(i64Locals_));
            break;
          }
          case 2: { // f64 assignment
            emitF64(3);
            f_.localSet(pick(f64Locals_));
            break;
          }
          case 3: { // store + load through memory
            f_.i32Const(int32_t(rng_.nextBelow(480) * 8));
            emitI64(2);
            f_.memOp(Op::i64_store);
            break;
          }
          case 4: { // if/else on a random condition
            emitI32(2);
            f_.ifElse();
            emitI64(2);
            f_.localSet(pick(i64Locals_));
            f_.elseBranch();
            emitI64(2);
            f_.localSet(pick(i64Locals_));
            f_.end();
            break;
          }
          case 5: { // bounded loop accumulating into an i32 local
            uint32_t counter = f_.addLocal(ValType::i32);
            uint32_t target = pick(i32Locals_);
            int trips = 1 + int(rng_.nextBelow(6));
            f_.i32Const(trips);
            f_.localSet(counter);
            auto exit = f_.block();
            auto head = f_.loop();
            f_.localGet(counter);
            f_.emit(Op::i32_eqz);
            f_.brIf(exit);
            f_.localGet(target);
            emitI32(1);
            f_.emit(Op::i32_add);
            f_.localSet(target);
            f_.localGet(counter);
            f_.i32Const(1);
            f_.emit(Op::i32_sub);
            f_.localSet(counter);
            f_.br(head);
            f_.end();
            f_.end();
            break;
          }
          case 6: { // counted affine memory loop (loop-versioning shape)
            // do { mem[base + i*8] ^= k; i++ } while (i < trips), with
            // an unsigned bottom-test — the exact form the versioner
            // recognizes, so the versioning sweep axis exercises both
            // the guarded fast path and the original loop.
            uint32_t i = f_.addLocal(ValType::i32);
            uint32_t base = uint32_t(rng_.nextBelow(256)) * 8;
            uint32_t trips = 1 + uint32_t(rng_.nextBelow(8));
            f_.i32Const(0);
            f_.localSet(i);
            auto head = f_.loop();
            f_.i32Const(int32_t(base));
            f_.localGet(i);
            f_.i32Const(3);
            f_.emit(Op::i32_shl);
            f_.emit(Op::i32_add);
            f_.i32Const(int32_t(base));
            f_.localGet(i);
            f_.i32Const(3);
            f_.emit(Op::i32_shl);
            f_.emit(Op::i32_add);
            f_.memOp(Op::i64_load);
            f_.localGet(pick(i64Locals_));
            f_.emit(Op::i64_xor);
            f_.memOp(Op::i64_store);
            f_.localGet(i);
            f_.i32Const(1);
            f_.emit(Op::i32_add);
            f_.localTee(i);
            f_.i32Const(int32_t(trips));
            f_.emit(Op::i32_lt_u);
            f_.brIf(head);
            f_.end();
            break;
          }
          default: { // f32 assignment
            emitF32(2);
            f_.localSet(pick(f32Locals_));
            break;
          }
        }
    }

    void
    emitI32(int depth)
    {
        if (depth == 0 || rng_.chance(0.25)) {
            if (rng_.chance(0.5))
                f_.i32Const(int32_t(rng_.next()));
            else
                f_.localGet(pick(i32Locals_));
            return;
        }
        switch (rng_.nextBelow(10)) {
          case 0:
            emitI32(depth - 1);
            emitI32(depth - 1);
            f_.emit(kI32BinOps[rng_.nextBelow(kNumI32BinOps)]);
            break;
          case 1: // division with a never-zero divisor
            emitI32(depth - 1);
            emitI32(depth - 1);
            f_.i32Const(1);
            f_.emit(Op::i32_or);
            f_.emit(rng_.chance(0.5) ? Op::i32_div_u : Op::i32_rem_u);
            break;
          case 2:
            emitI32(depth - 1);
            f_.emit(kI32UnOps[rng_.nextBelow(kNumI32UnOps)]);
            break;
          case 3:
            emitI64(depth - 1);
            f_.emit(Op::i32_wrap_i64);
            break;
          case 4:
            emitF64(depth - 1);
            f_.emit(Op::i32_trunc_sat_f64_s);
            break;
          case 5: // comparison
            emitI64(depth - 1);
            emitI64(depth - 1);
            f_.emit(Op::i64_lt_s);
            break;
          case 6:
            emitF64(depth - 1);
            emitF64(depth - 1);
            f_.emit(Op::f64_le);
            break;
          case 7: { // select
            emitI32(depth - 1);
            emitI32(depth - 1);
            emitI32(depth - 1);
            f_.select();
            break;
          }
          case 8: // in-bounds load
            emitI32(depth - 1);
            f_.i32Const(0xFFF);
            f_.emit(Op::i32_and);
            f_.memOp(Op::i32_load8_u, 16);
            break;
          default:
            emitF32(depth - 1);
            f_.emit(Op::i32_trunc_sat_f32_u);
            break;
        }
    }

    void
    emitI64(int depth)
    {
        if (depth == 0 || rng_.chance(0.25)) {
            if (rng_.chance(0.5))
                f_.i64Const(int64_t(rng_.next()));
            else
                f_.localGet(pick(i64Locals_));
            return;
        }
        switch (rng_.nextBelow(6)) {
          case 0:
            emitI64(depth - 1);
            emitI64(depth - 1);
            f_.emit(kI64BinOps[rng_.nextBelow(kNumI64BinOps)]);
            break;
          case 1:
            emitI64(depth - 1);
            emitI64(depth - 1);
            f_.i64Const(1);
            f_.emit(Op::i64_or);
            f_.emit(rng_.chance(0.5) ? Op::i64_div_u : Op::i64_rem_s);
            break;
          case 2:
            emitI64(depth - 1);
            f_.emit(kI64UnOps[rng_.nextBelow(kNumI64UnOps)]);
            break;
          case 3:
            emitI32(depth - 1);
            f_.emit(rng_.chance(0.5) ? Op::i64_extend_i32_s
                                     : Op::i64_extend_i32_u);
            break;
          case 4:
            emitF64(depth - 1);
            f_.emit(Op::i64_trunc_sat_f64_u);
            break;
          default:
            emitF64(depth - 1);
            f_.emit(Op::i64_reinterpret_f64);
            break;
        }
    }

    void
    emitF64(int depth)
    {
        if (depth == 0 || rng_.chance(0.3)) {
            if (rng_.chance(0.5))
                f_.f64Const(smallF64());
            else
                f_.localGet(pick(f64Locals_));
            return;
        }
        switch (rng_.nextBelow(6)) {
          case 0:
            emitF64(depth - 1);
            emitF64(depth - 1);
            f_.emit(kF64BinOps[rng_.nextBelow(kNumF64BinOps)]);
            break;
          case 1:
            emitF64(depth - 1);
            f_.emit(kF64UnOps[rng_.nextBelow(kNumF64UnOps)]);
            break;
          case 2:
            emitF64(depth - 1);
            f_.emit(Op::f64_abs);
            f_.emit(Op::f64_sqrt);
            break;
          case 3:
            emitI64(depth - 1);
            f_.emit(rng_.chance(0.5) ? Op::f64_convert_i64_s
                                     : Op::f64_convert_i64_u);
            break;
          case 4:
            emitF32(depth - 1);
            f_.emit(Op::f64_promote_f32);
            break;
          default:
            emitI32(depth - 1);
            f_.emit(Op::f64_convert_i32_s);
            break;
        }
    }

    void
    emitF32(int depth)
    {
        if (depth == 0 || rng_.chance(0.4)) {
            if (rng_.chance(0.5))
                f_.f32Const(float(smallF64()));
            else
                f_.localGet(pick(f32Locals_));
            return;
        }
        switch (rng_.nextBelow(4)) {
          case 0:
            emitF32(depth - 1);
            emitF32(depth - 1);
            f_.emit(kF32BinOps[rng_.nextBelow(kNumF32BinOps)]);
            break;
          case 1:
            emitF32(depth - 1);
            f_.emit(kF32UnOps[rng_.nextBelow(kNumF32UnOps)]);
            break;
          case 2:
            emitF64(depth - 1);
            f_.emit(Op::f32_demote_f64);
            break;
          default:
            emitI32(depth - 1);
            f_.emit(Op::f32_convert_i32_u);
            break;
        }
    }

    static constexpr Op kI32BinOps[] = {
        Op::i32_add, Op::i32_sub, Op::i32_mul, Op::i32_and, Op::i32_or,
        Op::i32_xor, Op::i32_shl, Op::i32_shr_s, Op::i32_shr_u,
        Op::i32_rotl, Op::i32_rotr, Op::i32_eq, Op::i32_lt_u,
        Op::i32_ge_s};
    static constexpr size_t kNumI32BinOps =
        sizeof(kI32BinOps) / sizeof(Op);
    static constexpr Op kI32UnOps[] = {Op::i32_clz, Op::i32_ctz,
                                       Op::i32_popcnt, Op::i32_eqz,
                                       Op::i32_extend8_s,
                                       Op::i32_extend16_s};
    static constexpr size_t kNumI32UnOps = sizeof(kI32UnOps) / sizeof(Op);
    static constexpr Op kI64BinOps[] = {
        Op::i64_add, Op::i64_sub, Op::i64_mul, Op::i64_and, Op::i64_or,
        Op::i64_xor, Op::i64_shl, Op::i64_shr_s, Op::i64_shr_u,
        Op::i64_rotl, Op::i64_rotr};
    static constexpr size_t kNumI64BinOps =
        sizeof(kI64BinOps) / sizeof(Op);
    static constexpr Op kI64UnOps[] = {Op::i64_clz, Op::i64_ctz,
                                       Op::i64_popcnt, Op::i64_extend8_s,
                                       Op::i64_extend16_s,
                                       Op::i64_extend32_s};
    static constexpr size_t kNumI64UnOps = sizeof(kI64UnOps) / sizeof(Op);
    static constexpr Op kF64BinOps[] = {Op::f64_add, Op::f64_sub,
                                        Op::f64_mul, Op::f64_div,
                                        Op::f64_min, Op::f64_max,
                                        Op::f64_copysign};
    static constexpr size_t kNumF64BinOps =
        sizeof(kF64BinOps) / sizeof(Op);
    static constexpr Op kF64UnOps[] = {Op::f64_neg, Op::f64_abs,
                                       Op::f64_ceil, Op::f64_floor,
                                       Op::f64_trunc, Op::f64_nearest};
    static constexpr size_t kNumF64UnOps = sizeof(kF64UnOps) / sizeof(Op);
    static constexpr Op kF32BinOps[] = {Op::f32_add, Op::f32_sub,
                                        Op::f32_mul, Op::f32_min,
                                        Op::f32_max};
    static constexpr size_t kNumF32BinOps =
        sizeof(kF32BinOps) / sizeof(Op);
    static constexpr Op kF32UnOps[] = {Op::f32_neg, Op::f32_abs,
                                       Op::f32_floor, Op::f32_nearest};
    static constexpr size_t kNumF32UnOps = sizeof(kF32UnOps) / sizeof(Op);

    FunctionBuilder& f_;
    Rng& rng_;
    std::vector<uint32_t> i32Locals_, i64Locals_, f64Locals_, f32Locals_;
    uint32_t scratchF64_ = UINT32_MAX;
};

/** generateProgram's body ending in emitOutOfBoundsTail; global 0
 * (exported as "checksum") holds the running checksum. */
wasm::Module
generateOutOfBoundsProgram(uint64_t seed)
{
    Rng rng(seed);
    ModuleBuilder mb;
    mb.addMemory(1, 2);
    uint32_t checksum =
        mb.addGlobal(ValType::i64, true, wasm::Instr::constI64(0));
    mb.exportGlobal("checksum", checksum);
    uint32_t type = mb.addType({}, {ValType::i64});
    auto& f = mb.addFunction(type);
    ProgramGenerator gen(f, rng);
    gen.emitBody();
    gen.emitOutOfBoundsTail(checksum);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

wasm::Module
generateProgram(uint64_t seed)
{
    Rng rng(seed);
    ModuleBuilder mb;
    mb.addMemory(1, 2);
    uint32_t type = mb.addType({}, {ValType::i64});
    auto& f = mb.addFunction(type);
    ProgramGenerator gen(f, rng);
    gen.emitBody();
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/**
 * Deterministic single-threaded atomic-op program over a SHARED linear
 * memory: a random sequence of atomic loads/stores/RMWs/cmpxchgs at
 * aligned addresses, closed out with the deterministic wait/notify
 * outcomes (notify with no waiters -> 0, value-mismatch wait -> 1,
 * zero-timeout wait -> 2) and one memory.grow. Every result folds into
 * the returned i64, so the sweep proves the seq_cst atomic lowering is
 * bit-exact across both interpreters, both JIT tiers, the tiered
 * pipeline, all five bounds strategies and all opt modes.
 */
wasm::Module
generateAtomicsProgram(uint64_t seed)
{
    Rng rng(seed);
    ModuleBuilder mb;
    mb.addMemory(1, 2, /*shared=*/true);
    uint32_t type = mb.addType({}, {ValType::i64});
    auto& f = mb.addFunction(type);
    uint32_t acc = f.addLocal(ValType::i64);

    // stack holds an i64 result r: acc = acc*131 + r
    auto fold64 = [&] {
        f.localGet(acc);
        f.i64Const(131);
        f.emit(Op::i64_mul);
        f.emit(Op::i64_add);
        f.localSet(acc);
    };
    auto fold32 = [&] {
        f.emit(Op::i64_extend_i32_u);
        fold64();
    };

    static constexpr Op kRmw32[] = {
        Op::i32_atomic_rmw_add, Op::i32_atomic_rmw_sub,
        Op::i32_atomic_rmw_and, Op::i32_atomic_rmw_or,
        Op::i32_atomic_rmw_xor, Op::i32_atomic_rmw_xchg};
    static constexpr Op kRmw64[] = {
        Op::i64_atomic_rmw_add, Op::i64_atomic_rmw_sub,
        Op::i64_atomic_rmw_and, Op::i64_atomic_rmw_or,
        Op::i64_atomic_rmw_xor, Op::i64_atomic_rmw_xchg};

    int ops = 24 + int(rng.nextBelow(24));
    for (int s = 0; s < ops; s++) {
        bool is64 = rng.chance(0.5);
        uint32_t size = is64 ? 8 : 4;
        uint32_t addr = uint32_t(rng.nextBelow(512)) * size;
        uint32_t offset = uint32_t(rng.nextBelow(16)) * size;
        f.i32Const(int32_t(addr));
        switch (rng.nextBelow(10)) {
          case 0: // load
            f.memOp(is64 ? Op::i64_atomic_load : Op::i32_atomic_load,
                    offset);
            is64 ? fold64() : fold32();
            break;
          case 1: // store
            if (is64)
                f.i64Const(int64_t(rng.next()));
            else
                f.i32Const(int32_t(rng.next()));
            f.memOp(is64 ? Op::i64_atomic_store : Op::i32_atomic_store,
                    offset);
            break;
          case 2: // cmpxchg (expected only occasionally matches)
            if (is64) {
                f.i64Const(rng.chance(0.3) ? 0 : int64_t(rng.next()));
                f.i64Const(int64_t(rng.next()));
                f.memOp(Op::i64_atomic_rmw_cmpxchg, offset);
                fold64();
            } else {
                f.i32Const(rng.chance(0.3) ? 0 : int32_t(rng.next()));
                f.i32Const(int32_t(rng.next()));
                f.memOp(Op::i32_atomic_rmw_cmpxchg, offset);
                fold32();
            }
            break;
          default: // rmw returns the old value
            if (is64) {
                f.i64Const(int64_t(rng.next()));
                f.memOp(kRmw64[rng.nextBelow(6)], offset);
                fold64();
            } else {
                f.i32Const(int32_t(rng.next()));
                f.memOp(kRmw32[rng.nextBelow(6)], offset);
                fold32();
            }
            break;
        }
    }

    // notify with no waiters -> woken count 0
    f.i32Const(64);
    f.i32Const(int32_t(rng.nextBelow(5)));
    f.memOp(Op::memory_atomic_notify);
    fold32();
    // wait32 with a mismatching expected value -> not-equal (1)
    f.i32Const(64);
    f.i32Const(64);
    f.memOp(Op::i32_atomic_load);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.i64Const(0);
    f.memOp(Op::memory_atomic_wait32);
    fold32();
    // wait64 with the matching value but a zero timeout -> timed-out (2)
    f.i32Const(72);
    f.i32Const(72);
    f.memOp(Op::i64_atomic_load);
    f.i64Const(0);
    f.memOp(Op::memory_atomic_wait64);
    fold32();
    // one in-limits shared grow (1 -> 2 pages); folds the old size
    f.i32Const(1);
    f.memoryGrow();
    fold32();

    f.localGet(acc);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

/**
 * Six live values of mixed types in stack slots 0..5 (the slots with
 * register homes) across every kind of site the JIT turns into a native
 * call: callf, call_host, call_indirect, memory.grow, shared
 * memory.size, an atomic rmw, cmpxchg, memory.copy and memory.fill.
 * Each site also runs with three live values, which puts its operands
 * in slots 3..5, whose homes are caller-saved and double as argument
 * registers. The wasm callee fills all six of its own slot homes with
 * floats and ints, and the host import does float work, so a home not
 * saved across the call shows up in the folded result.
 */
wasm::Module
generateCallSiteProgram()
{
    ModuleBuilder mb;
    mb.addMemory(1, 2, /*shared=*/true);
    mb.addTable(1, 1);
    uint32_t unop = mb.addType({ValType::i32}, {ValType::i32});
    uint32_t host = mb.addImport(
        "env", "mix", mb.addType({ValType::i32, ValType::f64}, {ValType::i64}));

    // callee(x) = 24 + 5x
    auto& callee = mb.addFunction(unop);
    for (double d : {1.5, 2.5, 3.5, 4.5, 5.5, 6.5})
        callee.f64Const(d);
    for (int i = 0; i < 5; i++)
        callee.emit(Op::f64_add);
    callee.emit(Op::i32_trunc_f64_s);
    for (int i = 0; i < 5; i++)
        callee.localGet(0);
    for (int i = 0; i < 5; i++)
        callee.emit(Op::i32_add);
    uint32_t callee_idx = callee.finish();
    mb.addElem(0, {callee_idx});

    auto& f = mb.addFunction(mb.addType({}, {ValType::i64}));
    uint32_t acc = f.addLocal(ValType::i64);
    // Pops a value of type @p t into acc = acc*131 + bits.
    auto fold = [&](ValType t) {
        if (t == ValType::f32)
            f.emit(Op::i32_reinterpret_f32);
        if (t == ValType::f32 || t == ValType::i32)
            f.emit(Op::i64_extend_i32_u);
        if (t == ValType::f64)
            f.emit(Op::i64_reinterpret_f64);
        f.localGet(acc);
        f.i64Const(131);
        f.emit(Op::i64_mul);
        f.emit(Op::i64_add);
        f.localSet(acc);
    };
    // Slot types per pattern: between them, slots 3..5 hold an int and
    // a float each.
    static constexpr ValType kPatterns[2][6] = {
        {ValType::i32, ValType::i64, ValType::f32, ValType::f64,
         ValType::i32, ValType::i64},
        {ValType::f64, ValType::f32, ValType::i64, ValType::i32,
         ValType::f64, ValType::f32}};
    uint64_t salt = 0;
    auto site = [&](const std::function<void()>& body) {
        for (int live : {6, 3}) {
            for (const ValType* types : kPatterns) {
                for (int s = 0; s < live; s++) {
                    uint64_t k = ++salt;
                    switch (types[s]) {
                      case ValType::i32:
                        f.i32Const(int32_t(k * 0x9E3779B9u));
                        break;
                      case ValType::i64:
                        f.i64Const(int64_t(k * 0x9E3779B97F4A7C15ull));
                        break;
                      case ValType::f32:
                        f.f32Const(float(k) + 0.375f);
                        break;
                      default:
                        f.f64Const(-double(k) / 3.0);
                        break;
                    }
                }
                body();
                for (int s = live - 1; s >= 0; s--)
                    fold(types[s]);
            }
        }
    };

    f.i32Const(256);
    f.i64Const(0x1122334455667788);
    f.memOp(Op::i64_store);

    site([&] {
        f.i32Const(7);
        f.call(callee_idx);
        fold(ValType::i32);
    });
    site([&] {
        f.i32Const(3);
        f.f64Const(2.25);
        f.call(host);
        fold(ValType::i64);
    });
    site([&] {
        f.i32Const(9);
        f.i32Const(0);
        f.callIndirect(unop);
        fold(ValType::i32);
    });
    site([&] { // 1 -> 2 pages once, then -1 at the maximum
        f.i32Const(1);
        f.memoryGrow();
        fold(ValType::i32);
    });
    site([&] {
        f.memorySize();
        fold(ValType::i32);
    });
    site([&] {
        f.i32Const(64);
        f.i64Const(0x0101010101010101);
        f.memOp(Op::i64_atomic_rmw_add);
        fold(ValType::i64);
    });
    site([&] {
        f.i32Const(96);
        f.i32Const(96);
        f.memOp(Op::i32_atomic_load);
        f.i32Const(96);
        f.memOp(Op::i32_atomic_load);
        f.i32Const(0x5A5A);
        f.emit(Op::i32_add);
        f.memOp(Op::i32_atomic_rmw_cmpxchg); // (96, old, old + 0x5A5A)
        fold(ValType::i32);
    });
    site([&] {
        f.i32Const(512);
        f.i32Const(256);
        f.i32Const(8);
        f.memoryCopy();
    });
    site([&] {
        f.i32Const(600);
        f.i32Const(0xAB);
        f.i32Const(8);
        f.memoryFill();
    });

    for (uint32_t addr : {64u, 96u, 512u, 600u}) {
        f.i32Const(int32_t(addr));
        f.memOp(Op::i64_load);
        fold(ValType::i64);
    }
    f.localGet(acc);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

constexpr mem::BoundsStrategy kAllStrategies[] = {
    mem::BoundsStrategy::none, mem::BoundsStrategy::clamp,
    mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
    mem::BoundsStrategy::uffd};
/** The strategies under which an out-of-bounds access traps. */
constexpr mem::BoundsStrategy kTrappingStrategies[] = {
    mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
    mem::BoundsStrategy::uffd};
/** The strategy that redirects an out-of-bounds access instead. */
constexpr mem::BoundsStrategy kClampStrategy[] = {
    mem::BoundsStrategy::clamp};

/**
 * Run @p module on every engine (plus the tiered pipeline) x each of
 * @p strategies x opt modes; every configuration must return the same
 * i64 bit pattern and none may trap. With @p may_trap, a trap is allowed
 * but every configuration must raise the same one (or return the same
 * result) and leave the same value in global 0. @p imports, when set,
 * builds each instance's import map.
 */
void
sweepAllEngines(const wasm::Module& module, uint64_t seed,
                const std::function<rt::ImportMap()>& imports = {},
                std::span<const mem::BoundsStrategy> strategies =
                    kAllStrategies,
                bool may_trap = false)
{
    bool have_reference = false;
    wasm::TrapKind reference_trap = wasm::TrapKind::none;
    uint64_t reference = 0;
    uint64_t reference_global = 0;
    std::string reference_config;

    // The fixed engines plus a fifth pseudo-engine: the tiered pipeline
    // (interp_threaded below, jit_opt above, eager tier-up).
    for (int engine = 0; engine <= rt::kNumEngineKinds; engine++) {
        const bool tiered = engine == rt::kNumEngineKinds;
        for (auto strategy : strategies) {
            // Sweep the lowered-IR optimization pass off/on, and — where
            // the check pipeline is live — loop versioning off/on within
            // the opt configuration: fusion, check elimination and the
            // versioned fast/slow split must all be bit-invisible
            // (results, NaN payloads, trap behavior).
            for (int mode = 0; mode < 3; mode++) {
                const bool opt = mode > 0;
                const bool versioning = mode == 2;
                // versioning-off only differs from -on where versioning
                // runs; skip the redundant configuration.
                if (mode == 1 &&
                    !((tiered ||
                       rt::EngineKind(engine) == rt::EngineKind::jit_opt) &&
                      (strategy == mem::BoundsStrategy::trap ||
                       strategy == mem::BoundsStrategy::clamp)))
                    continue;
                rt::EngineConfig config;
                config.kind = tiered ? rt::EngineKind::jit_opt
                                     : rt::EngineKind(engine);
                config.tiered = tiered;
                config.tierThreshold = 1;
                config.strategy = strategy;
                config.optimizeLoweredIR = opt;
                config.optVersioning = versioning;
                rt::Engine eng(config);
                wasm::Module copy = module;
                auto compiled = eng.compile(std::move(copy));
                ASSERT_TRUE(compiled.isOk())
                    << compiled.status().toString();
                auto inst = rt::Instance::create(
                    compiled.takeValue(),
                    imports ? imports() : rt::ImportMap());
                ASSERT_TRUE(inst.isOk()) << inst.status().toString();
                rt::CallOutcome out = inst.value()->callExport("run", {});
                ASSERT_TRUE(out.ok() || may_trap)
                    << "seed " << seed << " trapped on "
                    << engineKindName(config.kind) << "/"
                    << boundsStrategyName(strategy) << ": "
                    << trapKindName(out.trap);
                uint64_t result = out.ok() ? out.results[0].i64 : 0;
                uint64_t global = may_trap
                                      ? inst.value()->context().globals[0].i64
                                      : 0;
                std::string config_name =
                    std::string(tiered ? "tiered"
                                       : engineKindName(config.kind)) +
                    "/" + boundsStrategyName(strategy) +
                    (mode == 0     ? " (no-opt)"
                     : versioning ? " (opt+versioning)"
                                  : " (opt, no versioning)");
                if (!have_reference) {
                    reference_trap = out.trap;
                    reference = result;
                    reference_global = global;
                    have_reference = true;
                    reference_config = config_name;
                    continue;
                }
                ASSERT_EQ(trapKindName(out.trap),
                          std::string(trapKindName(reference_trap)))
                    << "seed " << seed << ": " << config_name
                    << " disagrees with " << reference_config;
                ASSERT_EQ(result, reference)
                    << "seed " << seed << ": " << config_name
                    << " disagrees with " << reference_config;
                ASSERT_EQ(global, reference_global)
                    << "seed " << seed << ": " << config_name
                    << " checksum global disagrees with "
                    << reference_config;
            }
        }
    }
}

class DifferentialFuzz : public testing::TestWithParam<uint64_t>
{};

TEST_P(DifferentialFuzz, AllEnginesAgree)
{
    wasm::Module module = generateProgram(GetParam());
    ASSERT_TRUE(wasm::validateModule(module).isOk())
        << "seed " << GetParam() << ": "
        << wasm::validateModule(module).toString();
    sweepAllEngines(module, GetParam());
}

std::vector<uint64_t>
fuzzSeeds()
{
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 60; i++)
        seeds.push_back(0xD1FF0000 + i);
    return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         testing::ValuesIn(fuzzSeeds()));

class OutOfBoundsDifferentialFuzz : public testing::TestWithParam<uint64_t>
{};

TEST_P(OutOfBoundsDifferentialFuzz, AllEnginesTrapAlike)
{
    wasm::Module module = generateOutOfBoundsProgram(GetParam());
    ASSERT_TRUE(wasm::validateModule(module).isOk())
        << "seed " << GetParam() << ": "
        << wasm::validateModule(module).toString();
    sweepAllEngines(module, GetParam(), {}, kTrappingStrategies,
                    /*may_trap=*/true);
    // clamp traps nowhere: every engine and opt mode must redirect the
    // same accesses and so fold the same checksum.
    sweepAllEngines(module, GetParam(), {}, kClampStrategy,
                    /*may_trap=*/true);
}

std::vector<uint64_t>
outOfBoundsSeeds()
{
    std::vector<uint64_t> seeds;
    // A check skipped at a wrong pc shows only where it is the access
    // that traps first, a few percent of programs: with the rewrite's
    // skip-list remap removed, 9 of these 200 seeds fail.
    for (uint64_t i = 0; i < 200; i++)
        seeds.push_back(0x00B0DD00 + i);
    return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutOfBoundsDifferentialFuzz,
                         testing::ValuesIn(outOfBoundsSeeds()));

class AtomicsDifferentialFuzz : public testing::TestWithParam<uint64_t>
{};

TEST_P(AtomicsDifferentialFuzz, AllEnginesAgree)
{
    wasm::Module module = generateAtomicsProgram(GetParam());
    ASSERT_TRUE(wasm::validateModule(module).isOk())
        << "seed " << GetParam() << ": "
        << wasm::validateModule(module).toString();
    sweepAllEngines(module, GetParam());
}

std::vector<uint64_t>
atomicsSeeds()
{
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 20; i++)
        seeds.push_back(0xA7031C00 + i);
    return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomicsDifferentialFuzz,
                         testing::ValuesIn(atomicsSeeds()));

TEST(CallSites, LiveSlotsSurviveEveryNativeCall)
{
    wasm::Module module = generateCallSiteProgram();
    ASSERT_TRUE(wasm::validateModule(module).isOk())
        << wasm::validateModule(module).toString();
    sweepAllEngines(module, 0, [] {
        rt::ImportMap imports;
        imports.add("env", "mix",
                    wasm::FuncType{{ValType::i32, ValType::f64},
                                   {ValType::i64}},
                    [](exec::InstanceContext*, wasm::Value* args, void*) {
                        double x = args[1].f64;
                        for (int i = 0; i < 4; i++)
                            x = x * 1.5 + std::sqrt(x);
                        args[0] = wasm::Value::fromI64(
                            uint64_t(args[0].i32) * 1000003u +
                            uint64_t(int64_t(x * 64)));
                    });
        return imports;
    });
}

} // namespace
} // namespace lnb
