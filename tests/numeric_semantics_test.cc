/**
 * @file
 * Absolute numeric-semantics oracle: spec-defined results (and traps) for
 * the edge cases of checked truncations, saturating truncations, integer
 * division, float min/max (NaN and signed zero), rounding (ties to
 * even), bit counting and sign extension — executed on every engine.
 * The differential fuzzer only proves engines agree with each other;
 * these tests pin them to the WebAssembly specification.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "runtime/engine.h"
#include "runtime/instance.h"
#include "wasm/builder.h"

namespace lnb {
namespace {

using mem::BoundsStrategy;
using rt::CallOutcome;
using rt::Engine;
using rt::EngineConfig;
using rt::EngineKind;
using rt::Instance;
using wasm::Op;
using wasm::TrapKind;
using wasm::ValType;
using wasm::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Build (param T) -> U applying a single unary op. */
wasm::Module
unaryModule(Op op, ValType in, ValType out)
{
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({in}, {out});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.emit(op);
    uint32_t idx = f.finish();
    mb.exportFunc("f", idx);
    return mb.build();
}

/** Build (param T, T) -> U applying a single binary op. */
wasm::Module
binaryModule(Op op, ValType in, ValType out)
{
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({in, in}, {out});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.localGet(1);
    f.emit(op);
    uint32_t idx = f.finish();
    mb.exportFunc("f", idx);
    return mb.build();
}

/** Engines under test (one per technique). */
const std::vector<EngineKind>&
engines()
{
    static const std::vector<EngineKind> kinds = {
        EngineKind::interp_switch, EngineKind::interp_threaded,
        EngineKind::jit_base, EngineKind::jit_opt};
    return kinds;
}

CallOutcome
runOn(EngineKind kind, const wasm::Module& module,
      std::vector<Value> args)
{
    EngineConfig config;
    config.kind = kind;
    config.strategy = BoundsStrategy::none;
    Engine engine(config);
    wasm::Module copy = module;
    auto compiled = engine.compile(std::move(copy));
    EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto inst = Instance::create(compiled.takeValue());
    EXPECT_TRUE(inst.isOk());
    return inst.value()->call(
        inst.value()->exportedFunc("f").value(), args);
}

// ---------------------------------------------------------------------
// Checked truncations: value cases and trap cases (spec 4.3.2.21-24)
// ---------------------------------------------------------------------

struct TruncCase
{
    Op op;
    double input;
    uint64_t expected; ///< result bits, ignored when trap != none
    TrapKind trap;
};

class TruncF64Test : public testing::TestWithParam<TruncCase>
{};

TEST_P(TruncF64Test, MatchesSpecOnAllEngines)
{
    const TruncCase& test = GetParam();
    bool to32 = test.op == Op::i32_trunc_f64_s ||
                test.op == Op::i32_trunc_f64_u;
    wasm::Module module =
        unaryModule(test.op, ValType::f64,
                    to32 ? ValType::i32 : ValType::i64);
    for (EngineKind kind : engines()) {
        CallOutcome out =
            runOn(kind, module, {Value::fromF64(test.input)});
        if (test.trap != TrapKind::none) {
            EXPECT_EQ(out.trap, test.trap)
                << engineKindName(kind) << " input " << test.input;
        } else {
            ASSERT_TRUE(out.ok())
                << engineKindName(kind) << ": "
                << trapKindName(out.trap) << " input " << test.input;
            uint64_t got = to32 ? out.results[0].i32
                                : out.results[0].i64;
            EXPECT_EQ(got, test.expected)
                << engineKindName(kind) << " input " << test.input;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TruncF64Test,
    testing::Values(
        // i32.trunc_f64_s
        TruncCase{Op::i32_trunc_f64_s, 3.9, 3, TrapKind::none},
        TruncCase{Op::i32_trunc_f64_s, -3.9, uint64_t(uint32_t(-3)),
                  TrapKind::none},
        TruncCase{Op::i32_trunc_f64_s, 2147483647.0, 2147483647,
                  TrapKind::none},
        TruncCase{Op::i32_trunc_f64_s, -2147483648.0, 0x80000000ull,
                  TrapKind::none},
        TruncCase{Op::i32_trunc_f64_s, -2147483648.9, 0x80000000ull,
                  TrapKind::none}, // truncates into range
        TruncCase{Op::i32_trunc_f64_s, 2147483648.0, 0,
                  TrapKind::integer_overflow},
        TruncCase{Op::i32_trunc_f64_s, -2147483649.0, 0,
                  TrapKind::integer_overflow},
        TruncCase{Op::i32_trunc_f64_s, kNaN, 0,
                  TrapKind::invalid_conversion},
        TruncCase{Op::i32_trunc_f64_s, kInf, 0,
                  TrapKind::integer_overflow},
        // i32.trunc_f64_u
        TruncCase{Op::i32_trunc_f64_u, 4294967295.0, 0xFFFFFFFFull,
                  TrapKind::none},
        TruncCase{Op::i32_trunc_f64_u, -0.9, 0, TrapKind::none},
        TruncCase{Op::i32_trunc_f64_u, 4294967296.0, 0,
                  TrapKind::integer_overflow},
        TruncCase{Op::i32_trunc_f64_u, -1.0, 0,
                  TrapKind::integer_overflow},
        TruncCase{Op::i32_trunc_f64_u, kNaN, 0,
                  TrapKind::invalid_conversion},
        // i64.trunc_f64_s
        TruncCase{Op::i64_trunc_f64_s, 4e18, 4000000000000000000ull,
                  TrapKind::none},
        TruncCase{Op::i64_trunc_f64_s, -9223372036854775808.0,
                  0x8000000000000000ull, TrapKind::none},
        TruncCase{Op::i64_trunc_f64_s, 9223372036854775808.0, 0,
                  TrapKind::integer_overflow},
        TruncCase{Op::i64_trunc_f64_s, -kInf, 0,
                  TrapKind::integer_overflow},
        // i64.trunc_f64_u
        TruncCase{Op::i64_trunc_f64_u, 1.8e19, 18000000000000000000ull,
                  TrapKind::none},
        TruncCase{Op::i64_trunc_f64_u, 9223372036854775808.0,
                  0x8000000000000000ull, TrapKind::none},
        TruncCase{Op::i64_trunc_f64_u, -0.5, 0, TrapKind::none},
        TruncCase{Op::i64_trunc_f64_u, 18446744073709551616.0, 0,
                  TrapKind::integer_overflow},
        TruncCase{Op::i64_trunc_f64_u, kNaN, 0,
                  TrapKind::invalid_conversion}));

// ---------------------------------------------------------------------
// Saturating truncations never trap (spec 4.3.2.25-28)
// ---------------------------------------------------------------------

struct SatCase
{
    Op op;
    double input;
    uint64_t expected;
};

class TruncSatTest : public testing::TestWithParam<SatCase>
{};

TEST_P(TruncSatTest, SaturatesOnAllEngines)
{
    const SatCase& test = GetParam();
    bool to32 = test.op == Op::i32_trunc_sat_f64_s ||
                test.op == Op::i32_trunc_sat_f64_u;
    wasm::Module module =
        unaryModule(test.op, ValType::f64,
                    to32 ? ValType::i32 : ValType::i64);
    for (EngineKind kind : engines()) {
        CallOutcome out =
            runOn(kind, module, {Value::fromF64(test.input)});
        ASSERT_TRUE(out.ok()) << engineKindName(kind);
        uint64_t got = to32 ? out.results[0].i32 : out.results[0].i64;
        EXPECT_EQ(got, test.expected)
            << engineKindName(kind) << " input " << test.input;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TruncSatTest,
    testing::Values(
        SatCase{Op::i32_trunc_sat_f64_s, kNaN, 0},
        SatCase{Op::i32_trunc_sat_f64_s, 1e10, 0x7FFFFFFFull},
        SatCase{Op::i32_trunc_sat_f64_s, -1e10, 0x80000000ull},
        SatCase{Op::i32_trunc_sat_f64_s, -7.7, uint64_t(uint32_t(-7))},
        SatCase{Op::i32_trunc_sat_f64_u, kNaN, 0},
        SatCase{Op::i32_trunc_sat_f64_u, -5.0, 0},
        SatCase{Op::i32_trunc_sat_f64_u, 1e10, 0xFFFFFFFFull},
        SatCase{Op::i64_trunc_sat_f64_s, kInf, 0x7FFFFFFFFFFFFFFFull},
        SatCase{Op::i64_trunc_sat_f64_s, -kInf, 0x8000000000000000ull},
        SatCase{Op::i64_trunc_sat_f64_u, -kInf, 0},
        SatCase{Op::i64_trunc_sat_f64_u, 2e19, 0xFFFFFFFFFFFFFFFFull},
        SatCase{Op::i64_trunc_sat_f64_u, 123.9, 123}));

// ---------------------------------------------------------------------
// Float min/max: NaN propagation and signed zero (spec 4.3.3)
// ---------------------------------------------------------------------

TEST(FloatSemantics, MinMaxSignedZeroAndNaN)
{
    wasm::Module fmin = binaryModule(Op::f64_min, ValType::f64,
                                     ValType::f64);
    wasm::Module fmax = binaryModule(Op::f64_max, ValType::f64,
                                     ValType::f64);
    for (EngineKind kind : engines()) {
        // min(-0, +0) == -0 ; max(-0, +0) == +0.
        CallOutcome min_zero = runOn(
            kind, fmin, {Value::fromF64(-0.0), Value::fromF64(0.0)});
        ASSERT_TRUE(min_zero.ok());
        EXPECT_TRUE(std::signbit(min_zero.results[0].f64))
            << engineKindName(kind);
        CallOutcome max_zero = runOn(
            kind, fmax, {Value::fromF64(-0.0), Value::fromF64(0.0)});
        ASSERT_TRUE(max_zero.ok());
        EXPECT_FALSE(std::signbit(max_zero.results[0].f64))
            << engineKindName(kind);
        // NaN propagates from either side.
        for (auto args :
             {std::vector<Value>{Value::fromF64(kNaN),
                                 Value::fromF64(1.0)},
              std::vector<Value>{Value::fromF64(1.0),
                                 Value::fromF64(kNaN)}}) {
            CallOutcome nan_out = runOn(kind, fmin, args);
            ASSERT_TRUE(nan_out.ok());
            EXPECT_TRUE(std::isnan(nan_out.results[0].f64))
                << engineKindName(kind);
        }
        // Ordinary ordering still works.
        CallOutcome plain = runOn(
            kind, fmin, {Value::fromF64(2.5), Value::fromF64(-1.0)});
        EXPECT_DOUBLE_EQ(plain.results[0].f64, -1.0);
    }
}

TEST(FloatSemantics, NearestTiesToEven)
{
    wasm::Module nearest =
        unaryModule(Op::f64_nearest, ValType::f64, ValType::f64);
    const std::pair<double, double> cases[] = {
        {0.5, 0.0},  {1.5, 2.0},  {2.5, 2.0},  {-0.5, -0.0},
        {-1.5, -2.0}, {3.7, 4.0}, {-3.7, -4.0}};
    for (EngineKind kind : engines()) {
        for (auto [input, expected] : cases) {
            CallOutcome out =
                runOn(kind, nearest, {Value::fromF64(input)});
            ASSERT_TRUE(out.ok());
            EXPECT_EQ(out.results[0].f64, expected)
                << engineKindName(kind) << " nearest(" << input << ")";
        }
    }
}

// ---------------------------------------------------------------------
// Integer edges: division, shifts, bit counting, sign extension
// ---------------------------------------------------------------------

TEST(IntSemantics, DivisionEdges)
{
    wasm::Module rem_s = binaryModule(Op::i32_rem_s, ValType::i32,
                                      ValType::i32);
    wasm::Module div_u = binaryModule(Op::i32_div_u, ValType::i32,
                                      ValType::i32);
    for (EngineKind kind : engines()) {
        // INT_MIN % -1 == 0 (must NOT trap).
        CallOutcome rem = runOn(kind, rem_s,
                                {Value::fromI32(0x80000000u),
                                 Value::fromI32(uint32_t(-1))});
        ASSERT_TRUE(rem.ok()) << engineKindName(kind) << ": "
                              << trapKindName(rem.trap);
        EXPECT_EQ(rem.results[0].i32, 0u);
        // Unsigned division treats operands as unsigned.
        CallOutcome div = runOn(kind, div_u,
                                {Value::fromI32(uint32_t(-2)),
                                 Value::fromI32(2)});
        ASSERT_TRUE(div.ok());
        EXPECT_EQ(div.results[0].i32, 0x7FFFFFFFu);
        // rem by zero traps.
        EXPECT_EQ(runOn(kind, rem_s,
                        {Value::fromI32(5), Value::fromI32(0)})
                      .trap,
                  TrapKind::integer_divide_by_zero);
    }
}

TEST(IntSemantics, ShiftMaskingAndRotates)
{
    wasm::Module shl = binaryModule(Op::i32_shl, ValType::i32,
                                    ValType::i32);
    wasm::Module rotl = binaryModule(Op::i64_rotl, ValType::i64,
                                     ValType::i64);
    for (EngineKind kind : engines()) {
        // Shift counts are masked mod 32.
        CallOutcome masked = runOn(
            kind, shl, {Value::fromI32(1), Value::fromI32(33)});
        EXPECT_EQ(masked.results[0].i32, 2u) << engineKindName(kind);
        CallOutcome rot =
            runOn(kind, rotl,
                  {Value::fromI64(0x8000000000000001ull),
                   Value::fromI64(1)});
        EXPECT_EQ(rot.results[0].i64, 3u) << engineKindName(kind);
    }
}

TEST(IntSemantics, BitCountingZeroEdges)
{
    for (EngineKind kind : engines()) {
        auto unary32 = [&](Op op, uint32_t input) {
            wasm::Module module =
                unaryModule(op, ValType::i32, ValType::i32);
            return runOn(kind, module, {Value::fromI32(input)})
                .results[0]
                .i32;
        };
        EXPECT_EQ(unary32(Op::i32_clz, 0), 32u) << engineKindName(kind);
        EXPECT_EQ(unary32(Op::i32_ctz, 0), 32u);
        EXPECT_EQ(unary32(Op::i32_clz, 1), 31u);
        EXPECT_EQ(unary32(Op::i32_ctz, 0x80000000u), 31u);
        EXPECT_EQ(unary32(Op::i32_popcnt, 0xF0F0F0F0u), 16u);

        auto unary64 = [&](Op op, uint64_t input) {
            wasm::Module module =
                unaryModule(op, ValType::i64, ValType::i64);
            return runOn(kind, module, {Value::fromI64(input)})
                .results[0]
                .i64;
        };
        EXPECT_EQ(unary64(Op::i64_clz, 0), 64u);
        EXPECT_EQ(unary64(Op::i64_ctz, 0), 64u);
        EXPECT_EQ(unary64(Op::i64_clz, 0x100000000ull), 31u);
    }
}

TEST(IntSemantics, SignExtensionOps)
{
    for (EngineKind kind : engines()) {
        wasm::Module ext8 =
            unaryModule(Op::i32_extend8_s, ValType::i32, ValType::i32);
        EXPECT_EQ(runOn(kind, ext8, {Value::fromI32(0x80)})
                      .results[0]
                      .i32,
                  0xFFFFFF80u)
            << engineKindName(kind);
        EXPECT_EQ(runOn(kind, ext8, {Value::fromI32(0x17F)})
                      .results[0]
                      .i32,
                  0x7Fu);
        wasm::Module ext32 = unaryModule(Op::i64_extend32_s,
                                         ValType::i64, ValType::i64);
        EXPECT_EQ(runOn(kind, ext32,
                        {Value::fromI64(0x00000000FFFFFFFFull)})
                      .results[0]
                      .i64,
                  0xFFFFFFFFFFFFFFFFull);
    }
}

// ---------------------------------------------------------------------
// Unsigned <-> float conversions
// ---------------------------------------------------------------------

TEST(ConvertSemantics, UnsignedConversionsExact)
{
    for (EngineKind kind : engines()) {
        wasm::Module u64_to_f64 = unaryModule(Op::f64_convert_i64_u,
                                              ValType::i64,
                                              ValType::f64);
        CallOutcome big = runOn(
            kind, u64_to_f64, {Value::fromI64(0xFFFFFFFFFFFFFFFFull)});
        EXPECT_DOUBLE_EQ(big.results[0].f64, 18446744073709551616.0)
            << engineKindName(kind);
        CallOutcome small =
            runOn(kind, u64_to_f64, {Value::fromI64(1ull << 62)});
        EXPECT_DOUBLE_EQ(small.results[0].f64, 4611686018427387904.0);

        wasm::Module u32_to_f32 = unaryModule(Op::f32_convert_i32_u,
                                              ValType::i32,
                                              ValType::f32);
        CallOutcome u32 = runOn(kind, u32_to_f32,
                                {Value::fromI32(0xFFFFFFFFu)});
        EXPECT_FLOAT_EQ(u32.results[0].f32, 4294967296.0f);
    }
}

// ---------------------------------------------------------------------
// Constant and forwarded operands (every executor runs the register forms
// of the opt pass's rewrite: a constant rhs becomes an immediate, a copied
// rhs is read at its source, and a compare fuses with the branch popping
// it)
// ---------------------------------------------------------------------

/** Spec result of the int binop or compare @p op on (a, b), zero-extended
 * to 64 bits (i32 ops see the low 32 bits of each operand). */
uint64_t
specIntBinop(Op op, uint64_t a, uint64_t b)
{
    uint32_t a32 = uint32_t(a), b32 = uint32_t(b);
    int32_t sa32 = int32_t(a32), sb32 = int32_t(b32);
    int64_t sa = int64_t(a), sb = int64_t(b);
    switch (op) {
      case Op::i32_add: return uint32_t(a32 + b32);
      case Op::i32_sub: return uint32_t(a32 - b32);
      case Op::i32_mul: return uint32_t(a32 * b32);
      case Op::i32_and: return a32 & b32;
      case Op::i32_or: return a32 | b32;
      case Op::i32_xor: return a32 ^ b32;
      case Op::i32_shl: return uint32_t(a32 << (b32 & 31));
      case Op::i32_shr_s: return uint32_t(sa32 >> (b32 & 31));
      case Op::i32_shr_u: return a32 >> (b32 & 31);
      case Op::i32_eq: return a32 == b32;
      case Op::i32_ne: return a32 != b32;
      case Op::i32_lt_s: return sa32 < sb32;
      case Op::i32_lt_u: return a32 < b32;
      case Op::i32_gt_s: return sa32 > sb32;
      case Op::i32_gt_u: return a32 > b32;
      case Op::i32_le_s: return sa32 <= sb32;
      case Op::i32_le_u: return a32 <= b32;
      case Op::i32_ge_s: return sa32 >= sb32;
      case Op::i32_ge_u: return a32 >= b32;
      case Op::i64_add: return a + b;
      case Op::i64_sub: return a - b;
      case Op::i64_mul: return a * b;
      case Op::i64_and: return a & b;
      case Op::i64_or: return a | b;
      case Op::i64_xor: return a ^ b;
      case Op::i64_shl: return a << (b & 63);
      case Op::i64_shr_s: return uint64_t(sa >> (b & 63));
      case Op::i64_shr_u: return a >> (b & 63);
      case Op::i64_eq: return a == b;
      case Op::i64_ne: return a != b;
      case Op::i64_lt_s: return sa < sb;
      case Op::i64_lt_u: return a < b;
      case Op::i64_gt_s: return sa > sb;
      case Op::i64_gt_u: return a > b;
      case Op::i64_le_s: return sa <= sb;
      case Op::i64_le_u: return a <= b;
      case Op::i64_ge_s: return sa >= sb;
      case Op::i64_ge_u: return a >= b;
      default:
        ADD_FAILURE() << "no spec result for " << wasm::opName(op);
        return 0;
    }
}

const std::vector<Op> kFoldedArith32 = {
    Op::i32_add, Op::i32_sub, Op::i32_mul, Op::i32_and, Op::i32_or,
    Op::i32_xor, Op::i32_shl, Op::i32_shr_s, Op::i32_shr_u};
const std::vector<Op> kFoldedArith64 = {
    Op::i64_add, Op::i64_sub, Op::i64_mul, Op::i64_and, Op::i64_or,
    Op::i64_xor, Op::i64_shl, Op::i64_shr_s, Op::i64_shr_u};
const std::vector<Op> kCompares32 = {
    Op::i32_eq, Op::i32_ne, Op::i32_lt_s, Op::i32_lt_u, Op::i32_gt_s,
    Op::i32_gt_u, Op::i32_le_s, Op::i32_le_u, Op::i32_ge_s, Op::i32_ge_u};
const std::vector<Op> kCompares64 = {
    Op::i64_eq, Op::i64_ne, Op::i64_lt_s, Op::i64_lt_u, Op::i64_gt_s,
    Op::i64_gt_u, Op::i64_le_s, Op::i64_le_u, Op::i64_ge_s, Op::i64_ge_u};

/** Constants on the imm8/imm32 boundaries, the int32 extremes, and the
 * shift counts around both masks (0, 31, 32, 33, 63, 64, -1). */
const std::vector<int64_t> kImm32 = {
    0, 1, -1, 127, 128, -128, -129, INT32_MIN, INT32_MAX, 31, 32, 33, 63,
    64};
/** i64 constants with no sign-extended imm32 form (the JIT stages them in
 * rcx). */
const std::vector<int64_t> kImm64Only = {
    int64_t(1) << 31, -(int64_t(1) << 31) - 1, int64_t(1) << 32};

const std::vector<uint64_t> kInputs32 = {
    0, 1, 2, 0x7F, 0x80, 0xFFFFFF7F, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF,
    0x12345678};
const std::vector<uint64_t> kInputs64 = {
    0, 1, 0x80, ~uint64_t(0), 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
    uint64_t(1) << 32, 0xFFFFFFFF80000000ull, 0x123456789ABCDEF0ull,
    0x8000000000000000ull, 0x7FFFFFFFFFFFFFFFull};

/** How a function consumes `lhs op rhs`. */
enum class Use { value, br_if, if_else };

/** One function of a FoldedOperands module: x = local 0 against the
 * constant k (on the rhs, or the lhs when const_lhs), or against y =
 * local 1 when k is empty. */
struct OperandCase
{
    std::string name;
    std::optional<int64_t> k;
    bool const_lhs = false;
    Use use = Use::value;
};

/**
 * Add @p c as an exported (param T T) function computing `lhs op rhs`.
 * A compare's result is returned as a value, or as 1/0 chosen by the
 * br_if or if/else it feeds.
 */
void
addOperandFunc(wasm::ModuleBuilder& mb, Op op, ValType t, bool compare,
               const OperandCase& c)
{
    uint32_t type = mb.addType({t, t}, {compare ? ValType::i32 : t});
    auto& f = mb.addFunction(type);
    auto push_rhs = [&] {
        if (!c.k)
            f.localGet(1);
        else if (t == ValType::i64)
            f.i64Const(*c.k);
        else
            f.i32Const(int32_t(*c.k));
    };
    auto operands = [&] {
        if (c.const_lhs) {
            push_rhs();
            f.localGet(0);
        } else {
            f.localGet(0);
            push_rhs();
        }
        f.emit(op);
    };
    switch (c.use) {
      case Use::value:
        operands();
        break;
      case Use::br_if: {
        auto taken = f.block();
        operands();
        f.brIf(taken);
        f.i32Const(0);
        f.ret();
        f.end();
        f.i32Const(1);
        break;
      }
      case Use::if_else:
        operands();
        f.ifElse(ValType::i32);
        f.i32Const(1);
        f.elseBranch();
        f.i32Const(0);
        f.end();
        break;
    }
    mb.exportFunc(c.name, f.finish());
}

/** One instance of @p module per engine, kept alive for many calls. */
struct EngineInstance
{
    EngineKind kind;
    std::unique_ptr<Engine> engine;
    std::unique_ptr<Instance> instance;
};

std::vector<EngineInstance>
instantiateOnAllEngines(const wasm::Module& module,
                        BoundsStrategy strategy = BoundsStrategy::none)
{
    std::vector<EngineInstance> out;
    for (EngineKind kind : engines()) {
        EngineConfig config;
        config.kind = kind;
        config.strategy = strategy;
        auto engine = std::make_unique<Engine>(config);
        auto compiled = engine->compile(wasm::Module(module));
        EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
        auto inst = Instance::create(compiled.takeValue());
        EXPECT_TRUE(inst.isOk()) << inst.status().toString();
        out.push_back({kind, std::move(engine), inst.takeValue()});
    }
    return out;
}

/**
 * Check every (op, rhs, side, use) function of one width against
 * specIntBinop over every input, on all four engines. The rhs is each
 * constant of kImm32 (plus kImm64Only for i64) on either side, and
 * local 1 (a forwarded copy) over every input; compares are also
 * consumed by br_if and if/else.
 */
void
checkOperands(ValType t, const std::vector<Op>& ops, bool compares)
{
    bool is64 = t == ValType::i64;
    std::vector<std::optional<int64_t>> rhss(kImm32.begin(), kImm32.end());
    if (is64)
        rhss.insert(rhss.end(), kImm64Only.begin(), kImm64Only.end());
    rhss.push_back(std::nullopt);
    const std::vector<uint64_t>& inputs = is64 ? kInputs64 : kInputs32;
    std::vector<Use> uses = {Use::value};
    if (compares)
        uses = {Use::value, Use::br_if, Use::if_else};
    auto arg = [&](uint64_t v) {
        return is64 ? Value::fromI64(v) : Value::fromI32(uint32_t(v));
    };

    for (Op op : ops) {
        std::vector<OperandCase> cases;
        wasm::ModuleBuilder mb;
        for (const std::optional<int64_t>& k : rhss) {
            for (bool const_lhs : {false, true}) {
                if (const_lhs && !k)
                    continue;
                for (Use use : uses) {
                    cases.push_back({"f" + std::to_string(cases.size()), k,
                                     const_lhs, use});
                    addOperandFunc(mb, op, t, compares, cases.back());
                }
            }
        }
        wasm::Module module = mb.build();
        for (EngineInstance& ei : instantiateOnAllEngines(module)) {
            for (const OperandCase& c : cases) {
                std::vector<uint64_t> ys = inputs;
                if (c.k) // the function ignores local 1
                    ys = {is64 ? uint64_t(*c.k) : uint32_t(*c.k)};
                for (uint64_t x : inputs) {
                    for (uint64_t y : ys) {
                        CallOutcome out =
                            ei.instance->callExport(c.name, {arg(x), arg(y)});
                        ASSERT_TRUE(out.ok()) << engineKindName(ei.kind);
                        uint64_t got = is64 && !compares
                                           ? out.results[0].i64
                                           : out.results[0].i32;
                        uint64_t want = c.const_lhs ? specIntBinop(op, y, x)
                                                    : specIntBinop(op, x, y);
                        EXPECT_EQ(got, want)
                            << engineKindName(ei.kind) << " "
                            << wasm::opName(op) << " x=" << x << " y=" << y
                            << (c.k ? " (constant)" : " (local)")
                            << (c.const_lhs ? " on the lhs" : "");
                    }
                }
            }
        }
    }
}

TEST(FoldedOperands, ArithmeticI32)
{
    checkOperands(ValType::i32, kFoldedArith32, false);
}

TEST(FoldedOperands, ArithmeticI64)
{
    checkOperands(ValType::i64, kFoldedArith64, false);
}

TEST(FoldedOperands, ComparesFeedingValuesAndBranchesI32)
{
    checkOperands(ValType::i32, kCompares32, true);
}

TEST(FoldedOperands, ComparesFeedingValuesAndBranchesI64)
{
    checkOperands(ValType::i64, kCompares64, true);
}

TEST(FoldedOperands, StoredValueReadAtItsSource)
{
    // `local.get addr; local.get v; T.store` stores straight from the
    // value's local; loading it back must give the same bits, with and
    // without software bounds checks.
    const std::pair<Op, Op> kStores[] = {
        {Op::i32_store, Op::i32_load}, {Op::i64_store, Op::i64_load},
        {Op::f32_store, Op::f32_load}, {Op::f64_store, Op::f64_load}};
    const ValType kTypes[] = {ValType::i32, ValType::i64, ValType::f32,
                              ValType::f64};
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    for (int i = 0; i < 4; i++) {
        uint32_t type = mb.addType({ValType::i32, kTypes[i]}, {kTypes[i]});
        auto& f = mb.addFunction(type);
        f.localGet(0);
        f.localGet(1);
        f.memOp(kStores[i].first, 8);
        f.localGet(0);
        f.memOp(kStores[i].second, 8);
        mb.exportFunc("rt" + std::to_string(i), f.finish());
    }
    wasm::Module module = mb.build();
    for (BoundsStrategy strategy :
         {BoundsStrategy::none, BoundsStrategy::trap}) {
        for (EngineInstance& ei : instantiateOnAllEngines(module, strategy)) {
            const Value args[] = {
                Value::fromI32(0xDEADBEEFu),
                Value::fromI64(0x0123456789ABCDEFull),
                Value::fromF32(-1.5f), Value::fromF64(6.25e-300)};
            for (int i = 0; i < 4; i++) {
                CallOutcome out = ei.instance->callExport(
                    "rt" + std::to_string(i), {Value::fromI32(24), args[i]});
                ASSERT_TRUE(out.ok()) << engineKindName(ei.kind);
                bool wide = i % 2 == 1; // i64 and f64
                EXPECT_EQ(wide ? out.results[0].i64 : out.results[0].i32,
                          wide ? args[i].i64 : args[i].i32)
                    << engineKindName(ei.kind) << " store " << i;
            }
        }
    }
}

TEST(FoldedOperands, LabelReachedWithDifferentConstantsIsNotFolded)
{
    // The constant right before the add is only one of two values the
    // add's rhs can hold: a br_if (and, below, an if arm) carries the
    // other one to the same label, so the add must read the cell.
    wasm::ModuleBuilder mb;
    uint32_t type = mb.addType({ValType::i32}, {ValType::i32});
    auto& br = mb.addFunction(type);
    br.localGet(0);
    auto blk = br.block(ValType::i32);
    br.i32Const(5);
    br.localGet(0);
    br.brIf(blk); // x != 0: carries 5 to the end label
    br.drop();
    br.i32Const(7);
    br.end();
    br.emit(Op::i32_add); // at the label
    mb.exportFunc("br_if", br.finish());

    auto& arms = mb.addFunction(type);
    arms.localGet(0);
    arms.localGet(0);
    arms.ifElse(ValType::i32);
    arms.i32Const(5);
    arms.elseBranch();
    arms.i32Const(7); // falls through into the label
    arms.end();
    arms.emit(Op::i32_sub);
    mb.exportFunc("if_else", arms.finish());

    wasm::Module module = mb.build();
    for (EngineInstance& ei : instantiateOnAllEngines(module)) {
        for (uint32_t x : {0u, 1u, 100u}) {
            CallOutcome br_out =
                ei.instance->callExport("br_if", {Value::fromI32(x)});
            ASSERT_TRUE(br_out.ok());
            EXPECT_EQ(br_out.results[0].i32, x + (x != 0 ? 5u : 7u))
                << engineKindName(ei.kind) << " x=" << x;
            CallOutcome arm_out =
                ei.instance->callExport("if_else", {Value::fromI32(x)});
            ASSERT_TRUE(arm_out.ok());
            EXPECT_EQ(arm_out.results[0].i32, x - (x != 0 ? 5u : 7u))
                << engineKindName(ei.kind) << " x=" << x;
        }
    }
}

} // namespace
} // namespace lnb
