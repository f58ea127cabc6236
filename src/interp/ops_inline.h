/**
 * @file
 * Inline semantics of every lowered wasm instruction, shared by the switch
 * and threaded interpreters so the two agree bit-exactly. Each sem_<op>
 * function reads/writes frame cells per the LInst operand conventions
 * (see wasm/lower.h) and raises wasm traps via TrapManager.
 *
 * Numeric semantics follow the WebAssembly core spec: shift counts are
 * masked, integer division traps on zero and INT_MIN/-1, float min/max
 * propagate NaN and order -0 < +0, checked truncations trap on NaN and
 * out-of-range inputs, saturating truncations clamp.
 *
 * Every lowered wasm instruction gets its own inline function so the
 * threaded interpreter can give every opcode an independent handler (and
 * therefore an independently predicted dispatch branch, the property that
 * makes threaded interpreters fast — paper §2.2). The switch interpreter
 * reuses the same functions through an X-macro-generated switch, so the
 * two dispatch techniques share identical semantics. A value op (one
 * with register forms, wasm::IrForm) declares its typed body once
 * (LNB_VAL); its plain handler and its form handlers all run it.
 */
#ifndef LNB_INTERP_OPS_INLINE_H
#define LNB_INTERP_OPS_INLINE_H

#include <cmath>
#include <cstring>
#include <limits>

#include "interp/exec_common.h"
#include "mem/signals.h"

namespace lnb::exec::sem {

using wasm::LInst;
using wasm::TrapKind;
using wasm::Value;

[[noreturn]] inline void
trap(TrapKind kind)
{
    mem::TrapManager::raiseTrap(kind);
}

// ---------------------------------------------------------------------
// Memory access
// ---------------------------------------------------------------------

/**
 * Resolve the effective address of an access of @p size bytes at linear
 * address cell-value + offset, applying the executor check mode.
 */
template <CheckMode M>
inline uint8_t*
memAddr(InstanceContext* ctx, uint32_t addr, uint64_t offset, unsigned size)
{
    uint64_t ea = uint64_t(addr) + offset;
    if constexpr (M == CheckMode::clamp) {
        ctx->checksRetired++;
        if (ea + size > ctx->memSize) {
            // Failed-check slow path: on a shared memory another thread
            // may have grown since the mirror was last refreshed.
            syncSharedSize(ctx);
            if (ea + size > ctx->memSize)
                ea = ctx->clampOffset;
        }
    } else if constexpr (M == CheckMode::trap) {
        ctx->checksRetired++;
        if (ea + size > ctx->memSize) {
            syncSharedSize(ctx);
            if (ea + size > ctx->memSize)
                trap(TrapKind::out_of_bounds_memory);
        }
    }
    // CheckMode::raw: the guard pages (or the flat mapping) police this.
    return ctx->memBase + ea;
}

/** An unaligned MemT in linear memory. */
template <typename MemT>
struct [[gnu::packed, gnu::may_alias]] Unaligned
{
    MemT v;
};

/**
 * Read a MemT at linear address @p addr + @p offset. The read goes
 * through a packed type rather than memcpy into a local: every load
 * handler inlines this, and under ASan each such local would get its
 * own redzoned stack slot, growing the interpreter frame until deep
 * recursion overflows the native stack before maxCallDepth traps.
 */
template <CheckMode M, typename MemT>
inline MemT
loadMem(InstanceContext* ctx, uint32_t addr, uint64_t offset)
{
    return reinterpret_cast<const Unaligned<MemT>*>(
               memAddr<M>(ctx, addr, offset, sizeof(MemT)))
        ->v;
}

template <CheckMode M, typename MemT>
inline void
storeOp(InstanceContext* ctx, Value* f, const LInst& inst, uint64_t bits)
{
    MemT narrow = MemT(bits);
    std::memcpy(memAddr<M>(ctx, f[inst.a].i32, inst.imm, sizeof(MemT)),
                &narrow, sizeof(MemT));
}

// ---------------------------------------------------------------------
// Integer helpers
// ---------------------------------------------------------------------

inline uint32_t
idiv32s(uint32_t lhs, uint32_t rhs)
{
    auto a = int32_t(lhs), b = int32_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (a == INT32_MIN && b == -1)
        trap(TrapKind::integer_overflow);
    return uint32_t(a / b);
}

inline uint32_t
irem32s(uint32_t lhs, uint32_t rhs)
{
    auto a = int32_t(lhs), b = int32_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (b == -1)
        return 0; // INT_MIN % -1 == 0, no trap
    return uint32_t(a % b);
}

inline uint32_t
idiv32u(uint32_t a, uint32_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a / b;
}

inline uint32_t
irem32u(uint32_t a, uint32_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a % b;
}

inline uint64_t
idiv64s(uint64_t lhs, uint64_t rhs)
{
    auto a = int64_t(lhs), b = int64_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (a == INT64_MIN && b == -1)
        trap(TrapKind::integer_overflow);
    return uint64_t(a / b);
}

inline uint64_t
irem64s(uint64_t lhs, uint64_t rhs)
{
    auto a = int64_t(lhs), b = int64_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (b == -1)
        return 0;
    return uint64_t(a % b);
}

inline uint64_t
idiv64u(uint64_t a, uint64_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a / b;
}

inline uint64_t
irem64u(uint64_t a, uint64_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a % b;
}

inline uint32_t clz32(uint32_t v) { return v ? uint32_t(__builtin_clz(v)) : 32; }
inline uint32_t ctz32(uint32_t v) { return v ? uint32_t(__builtin_ctz(v)) : 32; }
inline uint64_t clz64(uint64_t v) { return v ? uint64_t(__builtin_clzll(v)) : 64; }
inline uint64_t ctz64(uint64_t v) { return v ? uint64_t(__builtin_ctzll(v)) : 64; }

inline uint32_t
rotl32(uint32_t v, uint32_t n)
{
    n &= 31;
    return n == 0 ? v : (v << n) | (v >> (32 - n));
}
inline uint32_t
rotr32(uint32_t v, uint32_t n)
{
    n &= 31;
    return n == 0 ? v : (v >> n) | (v << (32 - n));
}
inline uint64_t
rotl64(uint64_t v, uint64_t n)
{
    n &= 63;
    return n == 0 ? v : (v << n) | (v >> (64 - n));
}
inline uint64_t
rotr64(uint64_t v, uint64_t n)
{
    n &= 63;
    return n == 0 ? v : (v >> n) | (v << (64 - n));
}

// ---------------------------------------------------------------------
// Float helpers (wasm min/max/nearest semantics)
// ---------------------------------------------------------------------

template <typename T>
inline T
fminWasm(T a, T b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<T>::quiet_NaN();
    if (a < b)
        return a;
    if (b < a)
        return b;
    // Equal (covers +0/-0): -0 wins for min.
    return std::signbit(a) ? a : b;
}

template <typename T>
inline T
fmaxWasm(T a, T b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<T>::quiet_NaN();
    if (a > b)
        return a;
    if (b > a)
        return b;
    // Equal: +0 wins for max.
    return std::signbit(a) ? b : a;
}

/** Round to nearest, ties to even (the default FP environment mode). */
inline float fnearest(float v) { return std::nearbyintf(v); }
inline double fnearest(double v) { return std::nearbyint(v); }

// ---------------------------------------------------------------------
// Checked truncations (trap variants)
// ---------------------------------------------------------------------

template <typename F>
[[noreturn]] inline void
truncTrap(F v)
{
    trap(std::isnan(v) ? TrapKind::invalid_conversion
                       : TrapKind::integer_overflow);
}

inline uint32_t
truncF32ToI32s(float v)
{
    if (!(v >= -2147483648.0f && v < 2147483648.0f))
        truncTrap(v);
    return uint32_t(int32_t(v));
}
inline uint32_t
truncF32ToI32u(float v)
{
    if (!(v > -1.0f && v < 4294967296.0f))
        truncTrap(v);
    return v <= 0.0f ? 0u : uint32_t(v);
}
inline uint32_t
truncF64ToI32s(double v)
{
    if (!(v > -2147483649.0 && v < 2147483648.0))
        truncTrap(v);
    return uint32_t(int32_t(v));
}
inline uint32_t
truncF64ToI32u(double v)
{
    if (!(v > -1.0 && v < 4294967296.0))
        truncTrap(v);
    return v <= 0.0 ? 0u : uint32_t(v);
}
inline uint64_t
truncF32ToI64s(float v)
{
    if (!(v >= -9223372036854775808.0f && v < 9223372036854775808.0f))
        truncTrap(v);
    return uint64_t(int64_t(v));
}
inline uint64_t
truncF32ToI64u(float v)
{
    if (!(v > -1.0f && v < 18446744073709551616.0f))
        truncTrap(v);
    return v <= 0.0f ? 0ull : uint64_t(v);
}
inline uint64_t
truncF64ToI64s(double v)
{
    if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0))
        truncTrap(v);
    return uint64_t(int64_t(v));
}
inline uint64_t
truncF64ToI64u(double v)
{
    if (!(v > -1.0 && v < 18446744073709551616.0))
        truncTrap(v);
    return v <= 0.0 ? 0ull : uint64_t(v);
}

// ---------------------------------------------------------------------
// Saturating truncations
// ---------------------------------------------------------------------

inline uint32_t
satF32ToI32s(float v)
{
    if (std::isnan(v)) return 0;
    if (v <= -2147483648.0f) return uint32_t(INT32_MIN);
    if (v >= 2147483648.0f) return uint32_t(INT32_MAX);
    return uint32_t(int32_t(v));
}
inline uint32_t
satF32ToI32u(float v)
{
    if (std::isnan(v) || v <= -1.0f) return 0;
    if (v >= 4294967296.0f) return UINT32_MAX;
    return v <= 0.0f ? 0u : uint32_t(v);
}
inline uint32_t
satF64ToI32s(double v)
{
    if (std::isnan(v)) return 0;
    if (v <= -2147483649.0) return uint32_t(INT32_MIN);
    if (v >= 2147483648.0) return uint32_t(INT32_MAX);
    return uint32_t(int32_t(v));
}
inline uint32_t
satF64ToI32u(double v)
{
    if (std::isnan(v) || v <= -1.0) return 0;
    if (v >= 4294967296.0) return UINT32_MAX;
    return v <= 0.0 ? 0u : uint32_t(v);
}
inline uint64_t
satF32ToI64s(float v)
{
    if (std::isnan(v)) return 0;
    if (v <= -9223372036854775808.0f) return uint64_t(INT64_MIN);
    if (v >= 9223372036854775808.0f) return uint64_t(INT64_MAX);
    return uint64_t(int64_t(v));
}
inline uint64_t
satF32ToI64u(float v)
{
    if (std::isnan(v) || v <= -1.0f) return 0;
    if (v >= 18446744073709551616.0f) return UINT64_MAX;
    return v <= 0.0f ? 0ull : uint64_t(v);
}
inline uint64_t
satF64ToI64s(double v)
{
    if (std::isnan(v)) return 0;
    if (v <= -9223372036854775808.0) return uint64_t(INT64_MIN);
    if (v >= 9223372036854775808.0) return uint64_t(INT64_MAX);
    return uint64_t(int64_t(v));
}
inline uint64_t
satF64ToI64u(double v)
{
    if (std::isnan(v) || v <= -1.0) return 0;
    if (v >= 18446744073709551616.0) return UINT64_MAX;
    return v <= 0.0 ? 0ull : uint64_t(v);
}

// ---------------------------------------------------------------------
// Bulk memory
// ---------------------------------------------------------------------

template <CheckMode M>
inline void
memoryCopyImpl(InstanceContext* ctx, Value* f, const LInst& inst)
{
    uint64_t d = f[inst.a].i32;
    uint64_t s = f[inst.a + 1].i32;
    uint64_t n = f[inst.a + 2].i32;
    // Bulk ops always bounds-check per spec, regardless of strategy: guard
    // pages would catch them too, but memmove would partially copy first.
    if (d + n > ctx->memSize || s + n > ctx->memSize) {
        syncSharedSize(ctx);
        if (d + n > ctx->memSize || s + n > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    }
    std::memmove(ctx->memBase + d, ctx->memBase + s, n);
}

template <CheckMode M>
inline void
memoryFillImpl(InstanceContext* ctx, Value* f, const LInst& inst)
{
    uint64_t d = f[inst.a].i32;
    uint8_t v = uint8_t(f[inst.a + 1].i32);
    uint64_t n = f[inst.a + 2].i32;
    if (d + n > ctx->memSize) {
        syncSharedSize(ctx);
        if (d + n > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    }
    std::memset(ctx->memBase + d, v, n);
}

// ---------------------------------------------------------------------
// Atomics (threads proposal)
// ---------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define LNB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LNB_TSAN_BUILD 1
#endif
#endif
#ifndef LNB_TSAN_BUILD
#define LNB_TSAN_BUILD 0
#endif

/**
 * Resolve the effective address of an atomic access: natural alignment is
 * a runtime requirement (unaligned_atomic trap), the shared-size mirror
 * is refreshed first (every atomic is a synchronization point), and
 * out-of-bounds traps under BOTH software-check modes — the threads
 * spec has no clamping atomics, and redirecting an atomic into the red
 * zone would invent a spurious synchronization address. Raw mode defers
 * to the guard pages as usual — except under TSAN, where the __atomic op
 * runs inside the sanitizer runtime holding its per-address sync-object
 * lock; a guard-page fault there would siglongjmp past that lock and
 * deadlock the process, so raw mode pre-checks with the same trap the
 * guard fault would raise. (Populate faults are fine either way: their
 * handler returns normally and the access resumes.)
 */
template <CheckMode M>
inline uint8_t*
atomicAddr(InstanceContext* ctx, uint32_t addr, uint64_t offset,
           unsigned size)
{
    uint64_t ea = uint64_t(addr) + offset;
    if ((ea & (size - 1)) != 0)
        trap(TrapKind::unaligned_atomic);
    syncSharedSize(ctx);
    if constexpr (M != CheckMode::raw) {
        ctx->checksRetired++;
        if (ea + size > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    } else if constexpr (LNB_TSAN_BUILD) {
        if (ea + size > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    }
    return ctx->memBase + ea;
}

/**
 * The one seq_cst lowering shared by every tier: interpreters call this
 * from the sem_* handlers and the JIT through the lnbJitAtomic glue, so
 * all tiers execute the identical (and TSAN-instrumented) atomic
 * operation. Returns the old value for rmw, the observed value for
 * cmpxchg (v1 = expected, v2 = replacement), the loaded value for load,
 * 0 for store.
 */
template <typename T>
inline T
atomicRmw(AtomicOp op, T* p, T v1, T v2)
{
    switch (op) {
      case AtomicOp::load:
        return __atomic_load_n(p, __ATOMIC_SEQ_CST);
      case AtomicOp::store:
        __atomic_store_n(p, v1, __ATOMIC_SEQ_CST);
        return 0;
      case AtomicOp::add:
        return __atomic_fetch_add(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::sub:
        return __atomic_fetch_sub(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::and_:
        return __atomic_fetch_and(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::or_:
        return __atomic_fetch_or(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::xor_:
        return __atomic_fetch_xor(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::xchg:
        return __atomic_exchange_n(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::cmpxchg: {
        T expected = v1;
        __atomic_compare_exchange_n(p, &expected, v2, false,
                                    __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
        return expected; // the observed value, per wasm cmpxchg semantics
      }
      default:
        trap(TrapKind::host_error); // notify/wait never reach here
    }
}

/** 32-bit atomic with a 2-operand shape (store/rmw): addr at f[a],
 * operand at f[b]; rmw result overwrites f[a] zero-extended so the full
 * cell matches the JIT's 64-bit store of the glue's return value. */
template <CheckMode M>
inline void
atomic32(InstanceContext* ctx, Value* f, const LInst& inst, AtomicOp op)
{
    auto* p = reinterpret_cast<uint32_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 4));
    uint32_t r = atomicRmw<uint32_t>(op, p, f[inst.b].i32, 0);
    if (op != AtomicOp::store)
        f[inst.a].i64 = r;
}

template <CheckMode M>
inline void
atomic64(InstanceContext* ctx, Value* f, const LInst& inst, AtomicOp op)
{
    auto* p = reinterpret_cast<uint64_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 8));
    uint64_t r = atomicRmw<uint64_t>(op, p, f[inst.b].i64, 0);
    if (op != AtomicOp::store)
        f[inst.a].i64 = r;
}

// ---------------------------------------------------------------------
// Per-opcode semantic functions
// ---------------------------------------------------------------------

#define LNB_SEM(name, ...)                                                   \
    template <CheckMode M>                                                   \
    inline void sem_##name(InstanceContext* ctx, Value* f,                   \
                           const LInst& inst)                                \
    {                                                                        \
        (void)ctx;                                                           \
        (void)f;                                                             \
        (void)inst;                                                          \
        __VA_ARGS__                                                          \
    }

/** Control/variable ops never survive lowering; their handlers are
 * unreachable for validated modules. */
#define LNB_SEM_ABSENT(name) LNB_SEM(name, trap(TrapKind::host_error);)

/** C++ type of signature character T: 'i' i32, 'I' i64, 'f' f32, 'F' f64. */
template <char T> struct SigType { using type = uint32_t; };
template <> struct SigType<'I'> { using type = uint64_t; };
template <> struct SigType<'f'> { using type = float; };
template <> struct SigType<'F'> { using type = double; };
template <char T> using SigT = typename SigType<T>::type;

/** The member of a cell holding signature type T: 4 bytes for i32/f32,
 * 8 for i64/f64. */
template <char T>
inline SigT<T>&
cellAs(Value& v)
{
    if constexpr (T == 'I')
        return v.i64;
    else if constexpr (T == 'f')
        return v.f32;
    else if constexpr (T == 'F')
        return v.f64;
    else
        return v.i32;
}

/**
 * Semantics of a value op: one that has register forms (wasm::IrForm).
 * `apply` returns the result from operands a and b (b is unused by
 * one-input ops) and, for a load, the byte offset imm. The plain
 * handler (semValue) and the form handlers (semForm) both run it.
 */
template <wasm::Op O> struct ValOp;

/** Plain handler of value op O: f[a] = f[a] OP f[b], or OP(f[a]). */
template <CheckMode M, wasm::Op O>
inline void
semValue(InstanceContext* ctx, Value* f, const LInst& inst)
{
    constexpr const char* sig = wasm::opSig(O);
    SigT<sig[0]> a = cellAs<sig[0]>(f[inst.a]);
    if constexpr (wasm::opInputs(O) == 2) {
        cellAs<wasm::opResult(O)>(f[inst.a]) = ValOp<O>::template apply<M>(
            ctx, a, cellAs<sig[1]>(f[inst.b]), 0);
    } else {
        cellAs<wasm::opResult(O)>(f[inst.a]) =
            ValOp<O>::template apply<M>(ctx, a, 0, inst.imm);
    }
}

#define LNB_VAL(name, ...)                                                   \
    template <> struct ValOp<wasm::Op::name>                                 \
    {                                                                        \
        static constexpr const char* kSig = wasm::opSig(wasm::Op::name);     \
        template <CheckMode M>                                               \
        static SigT<wasm::opResult(wasm::Op::name)>                          \
        apply(InstanceContext* ctx, SigT<kSig[0]> a, SigT<kSig[1]> b,        \
              uint64_t imm)                                                  \
        {                                                                    \
            (void)ctx;                                                       \
            (void)b;                                                         \
            (void)imm;                                                       \
            __VA_ARGS__                                                      \
        }                                                                    \
    };                                                                       \
    LNB_SEM(name, semValue<M, wasm::Op::name>(ctx, f, inst);)

LNB_SEM_ABSENT(unreachable)
LNB_SEM_ABSENT(nop)
LNB_SEM_ABSENT(block)
LNB_SEM_ABSENT(loop)
LNB_SEM_ABSENT(if_)
LNB_SEM_ABSENT(else_)
LNB_SEM_ABSENT(end)
LNB_SEM_ABSENT(br)
LNB_SEM_ABSENT(br_if)
LNB_SEM_ABSENT(br_table)
LNB_SEM_ABSENT(return_)
LNB_SEM_ABSENT(call)
LNB_SEM_ABSENT(call_indirect)
LNB_SEM_ABSENT(drop)
LNB_SEM_ABSENT(local_get)
LNB_SEM_ABSENT(local_set)
LNB_SEM_ABSENT(local_tee)

// ----- loads -----
LNB_VAL(i32_load, return loadMem<M, uint32_t>(ctx, a, imm);)
LNB_VAL(i64_load, return loadMem<M, uint64_t>(ctx, a, imm);)
LNB_VAL(f32_load, return loadMem<M, float>(ctx, a, imm);)
LNB_VAL(f64_load, return loadMem<M, double>(ctx, a, imm);)
LNB_VAL(i32_load8_s,
        return uint32_t(int32_t(loadMem<M, int8_t>(ctx, a, imm)));)
LNB_VAL(i32_load8_u, return loadMem<M, uint8_t>(ctx, a, imm);)
LNB_VAL(i32_load16_s,
        return uint32_t(int32_t(loadMem<M, int16_t>(ctx, a, imm)));)
LNB_VAL(i32_load16_u, return loadMem<M, uint16_t>(ctx, a, imm);)
LNB_VAL(i64_load8_s,
        return uint64_t(int64_t(loadMem<M, int8_t>(ctx, a, imm)));)
LNB_VAL(i64_load8_u, return loadMem<M, uint8_t>(ctx, a, imm);)
LNB_VAL(i64_load16_s,
        return uint64_t(int64_t(loadMem<M, int16_t>(ctx, a, imm)));)
LNB_VAL(i64_load16_u, return loadMem<M, uint16_t>(ctx, a, imm);)
LNB_VAL(i64_load32_s,
        return uint64_t(int64_t(loadMem<M, int32_t>(ctx, a, imm)));)
LNB_VAL(i64_load32_u, return loadMem<M, uint32_t>(ctx, a, imm);)

// ----- stores -----
LNB_SEM(i32_store, (storeOp<M, uint32_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(i64_store, (storeOp<M, uint64_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(f32_store, (storeOp<M, uint32_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(f64_store, (storeOp<M, uint64_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(i32_store8, (storeOp<M, uint8_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(i32_store16, (storeOp<M, uint16_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(i64_store8, (storeOp<M, uint8_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(i64_store16, (storeOp<M, uint16_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(i64_store32, (storeOp<M, uint32_t>(ctx, f, inst, f[inst.b].i64));)

// ----- memory management -----
LNB_SEM(memory_size, f[inst.a].i64 = 0; f[inst.a].i32 = execMemorySize(ctx);)
LNB_SEM(memory_grow,
        f[inst.a].i32 = uint32_t(execMemoryGrow(ctx, f[inst.a].i32));)
LNB_SEM(memory_copy, memoryCopyImpl<M>(ctx, f, inst);)
LNB_SEM(memory_fill, memoryFillImpl<M>(ctx, f, inst);)

// ----- atomics (threads proposal) -----
// Results are written as full zero-extended 64-bit cells so every tier
// (and the differential sweep) observes identical cell bits.
LNB_SEM(memory_atomic_notify,
        f[inst.a].i64 = execAtomicNotify(ctx, f[inst.a].i32,
                                         f[inst.b].i32, inst.imm);)
LNB_SEM(memory_atomic_wait32,
        f[inst.a].i64 = execAtomicWait(ctx, f[inst.a].i32,
                                       f[inst.a + 1].i32,
                                       int64_t(f[inst.a + 2].i64), false,
                                       inst.imm);)
LNB_SEM(memory_atomic_wait64,
        f[inst.a].i64 = execAtomicWait(ctx, f[inst.a].i32,
                                       f[inst.a + 1].i64,
                                       int64_t(f[inst.a + 2].i64), true,
                                       inst.imm);)
LNB_SEM(i32_atomic_load, atomic32<M>(ctx, f, inst, AtomicOp::load);)
LNB_SEM(i64_atomic_load, atomic64<M>(ctx, f, inst, AtomicOp::load);)
LNB_SEM(i32_atomic_store, atomic32<M>(ctx, f, inst, AtomicOp::store);)
LNB_SEM(i64_atomic_store, atomic64<M>(ctx, f, inst, AtomicOp::store);)
LNB_SEM(i32_atomic_rmw_add, atomic32<M>(ctx, f, inst, AtomicOp::add);)
LNB_SEM(i64_atomic_rmw_add, atomic64<M>(ctx, f, inst, AtomicOp::add);)
LNB_SEM(i32_atomic_rmw_sub, atomic32<M>(ctx, f, inst, AtomicOp::sub);)
LNB_SEM(i64_atomic_rmw_sub, atomic64<M>(ctx, f, inst, AtomicOp::sub);)
LNB_SEM(i32_atomic_rmw_and, atomic32<M>(ctx, f, inst, AtomicOp::and_);)
LNB_SEM(i64_atomic_rmw_and, atomic64<M>(ctx, f, inst, AtomicOp::and_);)
LNB_SEM(i32_atomic_rmw_or, atomic32<M>(ctx, f, inst, AtomicOp::or_);)
LNB_SEM(i64_atomic_rmw_or, atomic64<M>(ctx, f, inst, AtomicOp::or_);)
LNB_SEM(i32_atomic_rmw_xor, atomic32<M>(ctx, f, inst, AtomicOp::xor_);)
LNB_SEM(i64_atomic_rmw_xor, atomic64<M>(ctx, f, inst, AtomicOp::xor_);)
LNB_SEM(i32_atomic_rmw_xchg, atomic32<M>(ctx, f, inst, AtomicOp::xchg);)
LNB_SEM(i64_atomic_rmw_xchg, atomic64<M>(ctx, f, inst, AtomicOp::xchg);)
LNB_SEM(i32_atomic_rmw_cmpxchg, {
    auto* p = reinterpret_cast<uint32_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 4));
    f[inst.a].i64 = atomicRmw<uint32_t>(AtomicOp::cmpxchg, p,
                                        f[inst.a + 1].i32,
                                        f[inst.a + 2].i32);
})
LNB_SEM(i64_atomic_rmw_cmpxchg, {
    auto* p = reinterpret_cast<uint64_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 8));
    f[inst.a].i64 = atomicRmw<uint64_t>(AtomicOp::cmpxchg, p,
                                        f[inst.a + 1].i64,
                                        f[inst.a + 2].i64);
})

// ----- constants -----
LNB_SEM(i32_const, f[inst.a].i64 = inst.imm;)
LNB_SEM(i64_const, f[inst.a].i64 = inst.imm;)
LNB_SEM(f32_const, f[inst.a].i64 = inst.imm;)
LNB_SEM(f64_const, f[inst.a].i64 = inst.imm;)

// ----- i32 compare -----
LNB_VAL(i32_eqz, return a == 0;)
LNB_VAL(i32_eq, return a == b;)
LNB_VAL(i32_ne, return a != b;)
LNB_VAL(i32_lt_s, return int32_t(a) < int32_t(b);)
LNB_VAL(i32_lt_u, return a < b;)
LNB_VAL(i32_gt_s, return int32_t(a) > int32_t(b);)
LNB_VAL(i32_gt_u, return a > b;)
LNB_VAL(i32_le_s, return int32_t(a) <= int32_t(b);)
LNB_VAL(i32_le_u, return a <= b;)
LNB_VAL(i32_ge_s, return int32_t(a) >= int32_t(b);)
LNB_VAL(i32_ge_u, return a >= b;)

// ----- i64 compare -----
LNB_VAL(i64_eqz, return a == 0;)
LNB_VAL(i64_eq, return a == b;)
LNB_VAL(i64_ne, return a != b;)
LNB_VAL(i64_lt_s, return int64_t(a) < int64_t(b);)
LNB_VAL(i64_lt_u, return a < b;)
LNB_VAL(i64_gt_s, return int64_t(a) > int64_t(b);)
LNB_VAL(i64_gt_u, return a > b;)
LNB_VAL(i64_le_s, return int64_t(a) <= int64_t(b);)
LNB_VAL(i64_le_u, return a <= b;)
LNB_VAL(i64_ge_s, return int64_t(a) >= int64_t(b);)
LNB_VAL(i64_ge_u, return a >= b;)

// ----- float compare -----
LNB_VAL(f32_eq, return a == b;)
LNB_VAL(f32_ne, return a != b;)
LNB_VAL(f32_lt, return a < b;)
LNB_VAL(f32_gt, return a > b;)
LNB_VAL(f32_le, return a <= b;)
LNB_VAL(f32_ge, return a >= b;)
LNB_VAL(f64_eq, return a == b;)
LNB_VAL(f64_ne, return a != b;)
LNB_VAL(f64_lt, return a < b;)
LNB_VAL(f64_gt, return a > b;)
LNB_VAL(f64_le, return a <= b;)
LNB_VAL(f64_ge, return a >= b;)

// ----- i32 arithmetic -----
LNB_VAL(i32_clz, return clz32(a);)
LNB_VAL(i32_ctz, return ctz32(a);)
LNB_VAL(i32_popcnt, return uint32_t(__builtin_popcount(a));)
LNB_VAL(i32_add, return a + b;)
LNB_VAL(i32_sub, return a - b;)
LNB_VAL(i32_mul, return a * b;)
LNB_VAL(i32_div_s, return idiv32s(a, b);)
LNB_VAL(i32_div_u, return idiv32u(a, b);)
LNB_VAL(i32_rem_s, return irem32s(a, b);)
LNB_VAL(i32_rem_u, return irem32u(a, b);)
LNB_VAL(i32_and, return a & b;)
LNB_VAL(i32_or, return a | b;)
LNB_VAL(i32_xor, return a ^ b;)
LNB_VAL(i32_shl, return a << (b & 31);)
LNB_VAL(i32_shr_s, return uint32_t(int32_t(a) >> (b & 31));)
LNB_VAL(i32_shr_u, return a >> (b & 31);)
LNB_VAL(i32_rotl, return rotl32(a, b);)
LNB_VAL(i32_rotr, return rotr32(a, b);)

// ----- i64 arithmetic -----
LNB_VAL(i64_clz, return clz64(a);)
LNB_VAL(i64_ctz, return ctz64(a);)
LNB_VAL(i64_popcnt, return uint64_t(__builtin_popcountll(a));)
LNB_VAL(i64_add, return a + b;)
LNB_VAL(i64_sub, return a - b;)
LNB_VAL(i64_mul, return a * b;)
LNB_VAL(i64_div_s, return idiv64s(a, b);)
LNB_VAL(i64_div_u, return idiv64u(a, b);)
LNB_VAL(i64_rem_s, return irem64s(a, b);)
LNB_VAL(i64_rem_u, return irem64u(a, b);)
LNB_VAL(i64_and, return a & b;)
LNB_VAL(i64_or, return a | b;)
LNB_VAL(i64_xor, return a ^ b;)
LNB_VAL(i64_shl, return a << (b & 63);)
LNB_VAL(i64_shr_s, return uint64_t(int64_t(a) >> (b & 63));)
LNB_VAL(i64_shr_u, return a >> (b & 63);)
LNB_VAL(i64_rotl, return rotl64(a, b);)
LNB_VAL(i64_rotr, return rotr64(a, b);)

// ----- f32 arithmetic -----
LNB_VAL(f32_abs, return std::fabs(a);)
LNB_VAL(f32_neg, return -a;)
LNB_VAL(f32_ceil, return std::ceil(a);)
LNB_VAL(f32_floor, return std::floor(a);)
LNB_VAL(f32_trunc, return std::trunc(a);)
LNB_VAL(f32_nearest, return fnearest(a);)
LNB_VAL(f32_sqrt, return std::sqrt(a);)
LNB_VAL(f32_add, return a + b;)
LNB_VAL(f32_sub, return a - b;)
LNB_VAL(f32_mul, return a * b;)
LNB_VAL(f32_div, return a / b;)
LNB_VAL(f32_min, return fminWasm(a, b);)
LNB_VAL(f32_max, return fmaxWasm(a, b);)
LNB_VAL(f32_copysign, return std::copysign(a, b);)

// ----- f64 arithmetic -----
LNB_VAL(f64_abs, return std::fabs(a);)
LNB_VAL(f64_neg, return -a;)
LNB_VAL(f64_ceil, return std::ceil(a);)
LNB_VAL(f64_floor, return std::floor(a);)
LNB_VAL(f64_trunc, return std::trunc(a);)
LNB_VAL(f64_nearest, return fnearest(a);)
LNB_VAL(f64_sqrt, return std::sqrt(a);)
LNB_VAL(f64_add, return a + b;)
LNB_VAL(f64_sub, return a - b;)
LNB_VAL(f64_mul, return a * b;)
LNB_VAL(f64_div, return a / b;)
LNB_VAL(f64_min, return fminWasm(a, b);)
LNB_VAL(f64_max, return fmaxWasm(a, b);)
LNB_VAL(f64_copysign, return std::copysign(a, b);)

// ----- conversions -----
LNB_VAL(i32_wrap_i64, return uint32_t(a);)
LNB_VAL(i32_trunc_f32_s, return truncF32ToI32s(a);)
LNB_VAL(i32_trunc_f32_u, return truncF32ToI32u(a);)
LNB_VAL(i32_trunc_f64_s, return truncF64ToI32s(a);)
LNB_VAL(i32_trunc_f64_u, return truncF64ToI32u(a);)
LNB_VAL(i64_extend_i32_s, return uint64_t(int64_t(int32_t(a)));)
LNB_VAL(i64_extend_i32_u, return a;)
LNB_VAL(i64_trunc_f32_s, return truncF32ToI64s(a);)
LNB_VAL(i64_trunc_f32_u, return truncF32ToI64u(a);)
LNB_VAL(i64_trunc_f64_s, return truncF64ToI64s(a);)
LNB_VAL(i64_trunc_f64_u, return truncF64ToI64u(a);)
LNB_VAL(f32_convert_i32_s, return float(int32_t(a));)
LNB_VAL(f32_convert_i32_u, return float(a);)
LNB_VAL(f32_convert_i64_s, return float(int64_t(a));)
LNB_VAL(f32_convert_i64_u, return float(a);)
LNB_VAL(f32_demote_f64, return float(a);)
LNB_VAL(f64_convert_i32_s, return double(int32_t(a));)
LNB_VAL(f64_convert_i32_u, return double(a);)
LNB_VAL(f64_convert_i64_s, return double(int64_t(a));)
LNB_VAL(f64_convert_i64_u, return double(a);)
LNB_VAL(f64_promote_f32, return double(a);)
// Reinterpret casts keep the bit pattern. __builtin_bit_cast rather than
// std::bit_cast, which takes its operand by reference: under ASan every
// inlined copy of such an operand gets its own stack slot.
LNB_VAL(i32_reinterpret_f32, return __builtin_bit_cast(uint32_t, a);)
LNB_VAL(i64_reinterpret_f64, return __builtin_bit_cast(uint64_t, a);)
LNB_VAL(f32_reinterpret_i32, return __builtin_bit_cast(float, a);)
LNB_VAL(f64_reinterpret_i64, return __builtin_bit_cast(double, a);)

// ----- sign extension -----
LNB_VAL(i32_extend8_s, return uint32_t(int32_t(int8_t(a)));)
LNB_VAL(i32_extend16_s, return uint32_t(int32_t(int16_t(a)));)
LNB_VAL(i64_extend8_s, return uint64_t(int64_t(int8_t(a)));)
LNB_VAL(i64_extend16_s, return uint64_t(int64_t(int16_t(a)));)
LNB_VAL(i64_extend32_s, return uint64_t(int64_t(int32_t(a)));)

// ----- saturating truncations -----
LNB_VAL(i32_trunc_sat_f32_s, return satF32ToI32s(a);)
LNB_VAL(i32_trunc_sat_f32_u, return satF32ToI32u(a);)
LNB_VAL(i32_trunc_sat_f64_s, return satF64ToI32s(a);)
LNB_VAL(i32_trunc_sat_f64_u, return satF64ToI32u(a);)
LNB_VAL(i64_trunc_sat_f32_s, return satF32ToI64s(a);)
LNB_VAL(i64_trunc_sat_f32_u, return satF32ToI64u(a);)
LNB_VAL(i64_trunc_sat_f64_s, return satF64ToI64s(a);)
LNB_VAL(i64_trunc_sat_f64_u, return satF64ToI64u(a);)

// ----- parametric / variable ops that survive lowering -----
LNB_SEM(select, if (f[inst.a + 2].i32 == 0) f[inst.a] = f[inst.a + 1];)
LNB_SEM(global_get, f[inst.a] = ctx->globals[inst.b];)
LNB_SEM(global_set, ctx->globals[inst.b] = f[inst.a];)

#undef LNB_VAL
#undef LNB_SEM_ABSENT
#undef LNB_SEM

// ---------------------------------------------------------------------
// Register forms (wasm::IrForm), emitted by the register-form rewrite
// ---------------------------------------------------------------------

/** An immediate operand as signature type T. */
template <char T>
inline SigT<T>
immAs(uint64_t imm)
{
    if constexpr (T == 'I')
        return imm;
    else if constexpr (T == 'f')
        return __builtin_bit_cast(float, uint32_t(imm));
    else if constexpr (T == 'F')
        return __builtin_bit_cast(double, imm);
    else
        return uint32_t(imm);
}

/** Result of value op O in register form F. */
template <CheckMode M, wasm::Op O, wasm::IrForm F>
inline SigT<wasm::opResult(O)>
formValue(InstanceContext* ctx, Value* f, const LInst& inst)
{
    using wasm::IrForm;
    constexpr const char* sig = wasm::opSig(O);
    SigT<sig[0]> a = cellAs<sig[0]>(f[inst.b]);
    if constexpr (F == IrForm::rr || F == IrForm::jrr) {
        return ValOp<O>::template apply<M>(ctx, a, cellAs<sig[1]>(f[inst.imm]),
                                           0);
    } else if constexpr (F == IrForm::ri || F == IrForm::jri) {
        return ValOp<O>::template apply<M>(ctx, a, immAs<sig[1]>(inst.imm), 0);
    } else {
        return ValOp<O>::template apply<M>(ctx, a, 0, inst.imm);
    }
}

/** rr / ri / r: f[a] = the result. */
template <CheckMode M, wasm::Op O, wasm::IrForm F>
inline void
semForm(InstanceContext* ctx, Value* f, const LInst& inst)
{
    cellAs<wasm::opResult(O)>(f[inst.a]) = formValue<M, O, F>(ctx, f, inst);
}

/** jrr / jri: is the jump to pc a taken? */
template <CheckMode M, wasm::Op O, wasm::IrForm F>
inline bool
semFormBranch(InstanceContext* ctx, Value* f, const LInst& inst)
{
    return (formValue<M, O, F>(ctx, f, inst) != 0) != (inst.aux != 0);
}

} // namespace lnb::exec::sem

#endif // LNB_INTERP_OPS_INLINE_H
