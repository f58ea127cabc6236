/**
 * @file
 * The WebAssembly instruction set implemented by leapsnbounds: the complete
 * MVP numeric/control/memory set, the sign-extension operators, the
 * saturating truncations and bulk `memory.copy`/`memory.fill`.
 *
 * A single X-macro table drives the decoder, encoder, validator,
 * interpreters, JIT and disassembler, so adding an instruction is a
 * one-line change here plus its semantics in each executor.
 *
 * Table columns:
 *   V(id, wat_name, encoding, imm, sig)
 *     id       - C++ enumerator (Op::id)
 *     wat_name - text-format mnemonic
 *     encoding - binary opcode; 0xFC-prefixed ops use 0xFC00 | sub-opcode
 *     imm      - immediate-operand kind (ImmKind::...)
 *     sig      - value-stack signature "inputs:outputs" with i/I/f/F for
 *                i32/i64/f32/f64, or "*" when the validator special-cases
 *                the instruction (control flow, calls, parametric, locals)
 */
#ifndef LNB_WASM_OPCODES_H
#define LNB_WASM_OPCODES_H

#include <cstddef>
#include <cstdint>

namespace lnb::wasm {

/** Kinds of immediate operands carried by instructions. */
enum class ImmKind : uint8_t {
    none,
    block_type,    ///< block/loop/if: 0x40 or a value type
    label,         ///< br/br_if: relative label depth
    label_table,   ///< br_table: vector of depths + default
    func_idx,      ///< call
    call_indirect, ///< type index + reserved table byte
    local_idx,
    global_idx,
    mem_arg,       ///< alignment exponent + byte offset
    mem_idx,       ///< memory.size/grow: reserved 0x00
    mem_copy,      ///< memory.copy: two reserved 0x00 bytes
    const_i32,
    const_i64,
    const_f32,
    const_f64,
};

// clang-format off
#define LNB_FOREACH_OPCODE(V)                                                 \
    /* ----- control ----- */                                                 \
    V(unreachable,        "unreachable",         0x00, none,          "*")    \
    V(nop,                "nop",                 0x01, none,          "*")    \
    V(block,              "block",               0x02, block_type,    "*")    \
    V(loop,               "loop",                0x03, block_type,    "*")    \
    V(if_,                "if",                  0x04, block_type,    "*")    \
    V(else_,              "else",                0x05, none,          "*")    \
    V(end,                "end",                 0x0B, none,          "*")    \
    V(br,                 "br",                  0x0C, label,         "*")    \
    V(br_if,              "br_if",               0x0D, label,         "*")    \
    V(br_table,           "br_table",            0x0E, label_table,   "*")    \
    V(return_,            "return",              0x0F, none,          "*")    \
    V(call,               "call",                0x10, func_idx,      "*")    \
    V(call_indirect,      "call_indirect",       0x11, call_indirect, "*")    \
    /* ----- parametric ----- */                                              \
    V(drop,               "drop",                0x1A, none,          "*")    \
    V(select,             "select",              0x1B, none,          "*")    \
    /* ----- variables ----- */                                               \
    V(local_get,          "local.get",           0x20, local_idx,     "*")    \
    V(local_set,          "local.set",           0x21, local_idx,     "*")    \
    V(local_tee,          "local.tee",           0x22, local_idx,     "*")    \
    V(global_get,         "global.get",          0x23, global_idx,    "*")    \
    V(global_set,         "global.set",          0x24, global_idx,    "*")    \
    /* ----- memory loads ----- */                                            \
    V(i32_load,           "i32.load",            0x28, mem_arg,       "i:i")  \
    V(i64_load,           "i64.load",            0x29, mem_arg,       "i:I")  \
    V(f32_load,           "f32.load",            0x2A, mem_arg,       "i:f")  \
    V(f64_load,           "f64.load",            0x2B, mem_arg,       "i:F")  \
    V(i32_load8_s,        "i32.load8_s",         0x2C, mem_arg,       "i:i")  \
    V(i32_load8_u,        "i32.load8_u",         0x2D, mem_arg,       "i:i")  \
    V(i32_load16_s,       "i32.load16_s",        0x2E, mem_arg,       "i:i")  \
    V(i32_load16_u,       "i32.load16_u",        0x2F, mem_arg,       "i:i")  \
    V(i64_load8_s,        "i64.load8_s",         0x30, mem_arg,       "i:I")  \
    V(i64_load8_u,        "i64.load8_u",         0x31, mem_arg,       "i:I")  \
    V(i64_load16_s,       "i64.load16_s",        0x32, mem_arg,       "i:I")  \
    V(i64_load16_u,       "i64.load16_u",        0x33, mem_arg,       "i:I")  \
    V(i64_load32_s,       "i64.load32_s",        0x34, mem_arg,       "i:I")  \
    V(i64_load32_u,       "i64.load32_u",        0x35, mem_arg,       "i:I")  \
    /* ----- memory stores ----- */                                           \
    V(i32_store,          "i32.store",           0x36, mem_arg,       "ii:")  \
    V(i64_store,          "i64.store",           0x37, mem_arg,       "iI:")  \
    V(f32_store,          "f32.store",           0x38, mem_arg,       "if:")  \
    V(f64_store,          "f64.store",           0x39, mem_arg,       "iF:")  \
    V(i32_store8,         "i32.store8",          0x3A, mem_arg,       "ii:")  \
    V(i32_store16,        "i32.store16",         0x3B, mem_arg,       "ii:")  \
    V(i64_store8,         "i64.store8",          0x3C, mem_arg,       "iI:")  \
    V(i64_store16,        "i64.store16",         0x3D, mem_arg,       "iI:")  \
    V(i64_store32,        "i64.store32",         0x3E, mem_arg,       "iI:")  \
    /* ----- memory management ----- */                                       \
    V(memory_size,        "memory.size",         0x3F, mem_idx,       ":i")   \
    V(memory_grow,        "memory.grow",         0x40, mem_idx,       "i:i")  \
    /* ----- constants ----- */                                               \
    V(i32_const,          "i32.const",           0x41, const_i32,     ":i")   \
    V(i64_const,          "i64.const",           0x42, const_i64,     ":I")   \
    V(f32_const,          "f32.const",           0x43, const_f32,     ":f")   \
    V(f64_const,          "f64.const",           0x44, const_f64,     ":F")   \
    /* ----- i32 comparisons ----- */                                         \
    V(i32_eqz,            "i32.eqz",             0x45, none,          "i:i")  \
    V(i32_eq,             "i32.eq",              0x46, none,          "ii:i") \
    V(i32_ne,             "i32.ne",              0x47, none,          "ii:i") \
    V(i32_lt_s,           "i32.lt_s",            0x48, none,          "ii:i") \
    V(i32_lt_u,           "i32.lt_u",            0x49, none,          "ii:i") \
    V(i32_gt_s,           "i32.gt_s",            0x4A, none,          "ii:i") \
    V(i32_gt_u,           "i32.gt_u",            0x4B, none,          "ii:i") \
    V(i32_le_s,           "i32.le_s",            0x4C, none,          "ii:i") \
    V(i32_le_u,           "i32.le_u",            0x4D, none,          "ii:i") \
    V(i32_ge_s,           "i32.ge_s",            0x4E, none,          "ii:i") \
    V(i32_ge_u,           "i32.ge_u",            0x4F, none,          "ii:i") \
    /* ----- i64 comparisons ----- */                                         \
    V(i64_eqz,            "i64.eqz",             0x50, none,          "I:i")  \
    V(i64_eq,             "i64.eq",              0x51, none,          "II:i") \
    V(i64_ne,             "i64.ne",              0x52, none,          "II:i") \
    V(i64_lt_s,           "i64.lt_s",            0x53, none,          "II:i") \
    V(i64_lt_u,           "i64.lt_u",            0x54, none,          "II:i") \
    V(i64_gt_s,           "i64.gt_s",            0x55, none,          "II:i") \
    V(i64_gt_u,           "i64.gt_u",            0x56, none,          "II:i") \
    V(i64_le_s,           "i64.le_s",            0x57, none,          "II:i") \
    V(i64_le_u,           "i64.le_u",            0x58, none,          "II:i") \
    V(i64_ge_s,           "i64.ge_s",            0x59, none,          "II:i") \
    V(i64_ge_u,           "i64.ge_u",            0x5A, none,          "II:i") \
    /* ----- f32 comparisons ----- */                                         \
    V(f32_eq,             "f32.eq",              0x5B, none,          "ff:i") \
    V(f32_ne,             "f32.ne",              0x5C, none,          "ff:i") \
    V(f32_lt,             "f32.lt",              0x5D, none,          "ff:i") \
    V(f32_gt,             "f32.gt",              0x5E, none,          "ff:i") \
    V(f32_le,             "f32.le",              0x5F, none,          "ff:i") \
    V(f32_ge,             "f32.ge",              0x60, none,          "ff:i") \
    /* ----- f64 comparisons ----- */                                         \
    V(f64_eq,             "f64.eq",              0x61, none,          "FF:i") \
    V(f64_ne,             "f64.ne",              0x62, none,          "FF:i") \
    V(f64_lt,             "f64.lt",              0x63, none,          "FF:i") \
    V(f64_gt,             "f64.gt",              0x64, none,          "FF:i") \
    V(f64_le,             "f64.le",              0x65, none,          "FF:i") \
    V(f64_ge,             "f64.ge",              0x66, none,          "FF:i") \
    /* ----- i32 arithmetic ----- */                                          \
    V(i32_clz,            "i32.clz",             0x67, none,          "i:i")  \
    V(i32_ctz,            "i32.ctz",             0x68, none,          "i:i")  \
    V(i32_popcnt,         "i32.popcnt",          0x69, none,          "i:i")  \
    V(i32_add,            "i32.add",             0x6A, none,          "ii:i") \
    V(i32_sub,            "i32.sub",             0x6B, none,          "ii:i") \
    V(i32_mul,            "i32.mul",             0x6C, none,          "ii:i") \
    V(i32_div_s,          "i32.div_s",           0x6D, none,          "ii:i") \
    V(i32_div_u,          "i32.div_u",           0x6E, none,          "ii:i") \
    V(i32_rem_s,          "i32.rem_s",           0x6F, none,          "ii:i") \
    V(i32_rem_u,          "i32.rem_u",           0x70, none,          "ii:i") \
    V(i32_and,            "i32.and",             0x71, none,          "ii:i") \
    V(i32_or,             "i32.or",              0x72, none,          "ii:i") \
    V(i32_xor,            "i32.xor",             0x73, none,          "ii:i") \
    V(i32_shl,            "i32.shl",             0x74, none,          "ii:i") \
    V(i32_shr_s,          "i32.shr_s",           0x75, none,          "ii:i") \
    V(i32_shr_u,          "i32.shr_u",           0x76, none,          "ii:i") \
    V(i32_rotl,           "i32.rotl",            0x77, none,          "ii:i") \
    V(i32_rotr,           "i32.rotr",            0x78, none,          "ii:i") \
    /* ----- i64 arithmetic ----- */                                          \
    V(i64_clz,            "i64.clz",             0x79, none,          "I:I")  \
    V(i64_ctz,            "i64.ctz",             0x7A, none,          "I:I")  \
    V(i64_popcnt,         "i64.popcnt",          0x7B, none,          "I:I")  \
    V(i64_add,            "i64.add",             0x7C, none,          "II:I") \
    V(i64_sub,            "i64.sub",             0x7D, none,          "II:I") \
    V(i64_mul,            "i64.mul",             0x7E, none,          "II:I") \
    V(i64_div_s,          "i64.div_s",           0x7F, none,          "II:I") \
    V(i64_div_u,          "i64.div_u",           0x80, none,          "II:I") \
    V(i64_rem_s,          "i64.rem_s",           0x81, none,          "II:I") \
    V(i64_rem_u,          "i64.rem_u",           0x82, none,          "II:I") \
    V(i64_and,            "i64.and",             0x83, none,          "II:I") \
    V(i64_or,             "i64.or",              0x84, none,          "II:I") \
    V(i64_xor,            "i64.xor",             0x85, none,          "II:I") \
    V(i64_shl,            "i64.shl",             0x86, none,          "II:I") \
    V(i64_shr_s,          "i64.shr_s",           0x87, none,          "II:I") \
    V(i64_shr_u,          "i64.shr_u",           0x88, none,          "II:I") \
    V(i64_rotl,           "i64.rotl",            0x89, none,          "II:I") \
    V(i64_rotr,           "i64.rotr",            0x8A, none,          "II:I") \
    /* ----- f32 arithmetic ----- */                                          \
    V(f32_abs,            "f32.abs",             0x8B, none,          "f:f")  \
    V(f32_neg,            "f32.neg",             0x8C, none,          "f:f")  \
    V(f32_ceil,           "f32.ceil",            0x8D, none,          "f:f")  \
    V(f32_floor,          "f32.floor",           0x8E, none,          "f:f")  \
    V(f32_trunc,          "f32.trunc",           0x8F, none,          "f:f")  \
    V(f32_nearest,        "f32.nearest",         0x90, none,          "f:f")  \
    V(f32_sqrt,           "f32.sqrt",            0x91, none,          "f:f")  \
    V(f32_add,            "f32.add",             0x92, none,          "ff:f") \
    V(f32_sub,            "f32.sub",             0x93, none,          "ff:f") \
    V(f32_mul,            "f32.mul",             0x94, none,          "ff:f") \
    V(f32_div,            "f32.div",             0x95, none,          "ff:f") \
    V(f32_min,            "f32.min",             0x96, none,          "ff:f") \
    V(f32_max,            "f32.max",             0x97, none,          "ff:f") \
    V(f32_copysign,       "f32.copysign",        0x98, none,          "ff:f") \
    /* ----- f64 arithmetic ----- */                                          \
    V(f64_abs,            "f64.abs",             0x99, none,          "F:F")  \
    V(f64_neg,            "f64.neg",             0x9A, none,          "F:F")  \
    V(f64_ceil,           "f64.ceil",            0x9B, none,          "F:F")  \
    V(f64_floor,          "f64.floor",           0x9C, none,          "F:F")  \
    V(f64_trunc,          "f64.trunc",           0x9D, none,          "F:F")  \
    V(f64_nearest,        "f64.nearest",         0x9E, none,          "F:F")  \
    V(f64_sqrt,           "f64.sqrt",            0x9F, none,          "F:F")  \
    V(f64_add,            "f64.add",             0xA0, none,          "FF:F") \
    V(f64_sub,            "f64.sub",             0xA1, none,          "FF:F") \
    V(f64_mul,            "f64.mul",             0xA2, none,          "FF:F") \
    V(f64_div,            "f64.div",             0xA3, none,          "FF:F") \
    V(f64_min,            "f64.min",             0xA4, none,          "FF:F") \
    V(f64_max,            "f64.max",             0xA5, none,          "FF:F") \
    V(f64_copysign,       "f64.copysign",        0xA6, none,          "FF:F") \
    /* ----- conversions ----- */                                             \
    V(i32_wrap_i64,       "i32.wrap_i64",        0xA7, none,          "I:i")  \
    V(i32_trunc_f32_s,    "i32.trunc_f32_s",     0xA8, none,          "f:i")  \
    V(i32_trunc_f32_u,    "i32.trunc_f32_u",     0xA9, none,          "f:i")  \
    V(i32_trunc_f64_s,    "i32.trunc_f64_s",     0xAA, none,          "F:i")  \
    V(i32_trunc_f64_u,    "i32.trunc_f64_u",     0xAB, none,          "F:i")  \
    V(i64_extend_i32_s,   "i64.extend_i32_s",    0xAC, none,          "i:I")  \
    V(i64_extend_i32_u,   "i64.extend_i32_u",    0xAD, none,          "i:I")  \
    V(i64_trunc_f32_s,    "i64.trunc_f32_s",     0xAE, none,          "f:I")  \
    V(i64_trunc_f32_u,    "i64.trunc_f32_u",     0xAF, none,          "f:I")  \
    V(i64_trunc_f64_s,    "i64.trunc_f64_s",     0xB0, none,          "F:I")  \
    V(i64_trunc_f64_u,    "i64.trunc_f64_u",     0xB1, none,          "F:I")  \
    V(f32_convert_i32_s,  "f32.convert_i32_s",   0xB2, none,          "i:f")  \
    V(f32_convert_i32_u,  "f32.convert_i32_u",   0xB3, none,          "i:f")  \
    V(f32_convert_i64_s,  "f32.convert_i64_s",   0xB4, none,          "I:f")  \
    V(f32_convert_i64_u,  "f32.convert_i64_u",   0xB5, none,          "I:f")  \
    V(f32_demote_f64,     "f32.demote_f64",      0xB6, none,          "F:f")  \
    V(f64_convert_i32_s,  "f64.convert_i32_s",   0xB7, none,          "i:F")  \
    V(f64_convert_i32_u,  "f64.convert_i32_u",   0xB8, none,          "i:F")  \
    V(f64_convert_i64_s,  "f64.convert_i64_s",   0xB9, none,          "I:F")  \
    V(f64_convert_i64_u,  "f64.convert_i64_u",   0xBA, none,          "I:F")  \
    V(f64_promote_f32,    "f64.promote_f32",     0xBB, none,          "f:F")  \
    V(i32_reinterpret_f32,"i32.reinterpret_f32", 0xBC, none,          "f:i")  \
    V(i64_reinterpret_f64,"i64.reinterpret_f64", 0xBD, none,          "F:I")  \
    V(f32_reinterpret_i32,"f32.reinterpret_i32", 0xBE, none,          "i:f")  \
    V(f64_reinterpret_i64,"f64.reinterpret_i64", 0xBF, none,          "I:F")  \
    /* ----- sign extension ----- */                                          \
    V(i32_extend8_s,      "i32.extend8_s",       0xC0, none,          "i:i")  \
    V(i32_extend16_s,     "i32.extend16_s",      0xC1, none,          "i:i")  \
    V(i64_extend8_s,      "i64.extend8_s",       0xC2, none,          "I:I")  \
    V(i64_extend16_s,     "i64.extend16_s",      0xC3, none,          "I:I")  \
    V(i64_extend32_s,     "i64.extend32_s",      0xC4, none,          "I:I")  \
    /* ----- saturating truncations (0xFC prefix) ----- */                    \
    V(i32_trunc_sat_f32_s,"i32.trunc_sat_f32_s", 0xFC00, none,        "f:i")  \
    V(i32_trunc_sat_f32_u,"i32.trunc_sat_f32_u", 0xFC01, none,        "f:i")  \
    V(i32_trunc_sat_f64_s,"i32.trunc_sat_f64_s", 0xFC02, none,        "F:i")  \
    V(i32_trunc_sat_f64_u,"i32.trunc_sat_f64_u", 0xFC03, none,        "F:i")  \
    V(i64_trunc_sat_f32_s,"i64.trunc_sat_f32_s", 0xFC04, none,        "f:I")  \
    V(i64_trunc_sat_f32_u,"i64.trunc_sat_f32_u", 0xFC05, none,        "f:I")  \
    V(i64_trunc_sat_f64_s,"i64.trunc_sat_f64_s", 0xFC06, none,        "F:I")  \
    V(i64_trunc_sat_f64_u,"i64.trunc_sat_f64_u", 0xFC07, none,        "F:I")  \
    /* ----- bulk memory (0xFC prefix) ----- */                               \
    V(memory_copy,        "memory.copy",         0xFC0A, mem_copy,    "iii:") \
    V(memory_fill,        "memory.fill",         0xFC0B, mem_idx,     "iii:") \
    /* ----- threads: wait/notify (0xFE prefix) ----- */                      \
    V(memory_atomic_notify, "memory.atomic.notify", 0xFE00, mem_arg,  "ii:i") \
    V(memory_atomic_wait32, "memory.atomic.wait32", 0xFE01, mem_arg, "iiI:i") \
    V(memory_atomic_wait64, "memory.atomic.wait64", 0xFE02, mem_arg, "iII:i") \
    /* ----- threads: atomic loads/stores (0xFE prefix) ----- */              \
    V(i32_atomic_load,    "i32.atomic.load",     0xFE10, mem_arg,     "i:i")  \
    V(i64_atomic_load,    "i64.atomic.load",     0xFE11, mem_arg,     "i:I")  \
    V(i32_atomic_store,   "i32.atomic.store",    0xFE17, mem_arg,     "ii:")  \
    V(i64_atomic_store,   "i64.atomic.store",    0xFE18, mem_arg,     "iI:")  \
    /* ----- threads: atomic read-modify-write (0xFE prefix) ----- */         \
    V(i32_atomic_rmw_add, "i32.atomic.rmw.add",  0xFE1E, mem_arg,     "ii:i") \
    V(i64_atomic_rmw_add, "i64.atomic.rmw.add",  0xFE1F, mem_arg,     "iI:I") \
    V(i32_atomic_rmw_sub, "i32.atomic.rmw.sub",  0xFE25, mem_arg,     "ii:i") \
    V(i64_atomic_rmw_sub, "i64.atomic.rmw.sub",  0xFE26, mem_arg,     "iI:I") \
    V(i32_atomic_rmw_and, "i32.atomic.rmw.and",  0xFE2C, mem_arg,     "ii:i") \
    V(i64_atomic_rmw_and, "i64.atomic.rmw.and",  0xFE2D, mem_arg,     "iI:I") \
    V(i32_atomic_rmw_or,  "i32.atomic.rmw.or",   0xFE33, mem_arg,     "ii:i") \
    V(i64_atomic_rmw_or,  "i64.atomic.rmw.or",   0xFE34, mem_arg,     "iI:I") \
    V(i32_atomic_rmw_xor, "i32.atomic.rmw.xor",  0xFE3A, mem_arg,     "ii:i") \
    V(i64_atomic_rmw_xor, "i64.atomic.rmw.xor",  0xFE3B, mem_arg,     "iI:I") \
    V(i32_atomic_rmw_xchg,"i32.atomic.rmw.xchg", 0xFE41, mem_arg,     "ii:i") \
    V(i64_atomic_rmw_xchg,"i64.atomic.rmw.xchg", 0xFE42, mem_arg,     "iI:I") \
    V(i32_atomic_rmw_cmpxchg, "i32.atomic.rmw.cmpxchg", 0xFE48, mem_arg,      \
      "iii:i")                                                                \
    V(i64_atomic_rmw_cmpxchg, "i64.atomic.rmw.cmpxchg", 0xFE49, mem_arg,      \
      "iII:I")
// clang-format on

/** Dense instruction enumeration (not the binary encoding). */
enum class Op : uint16_t {
#define V(id, name, enc, imm, sig) id,
    LNB_FOREACH_OPCODE(V)
#undef V
    count_
};

/** Number of instructions in the table. */
constexpr size_t kOpCount = size_t(Op::count_);

/** Static properties of one instruction. */
struct OpInfo
{
    const char* name;   ///< text-format mnemonic
    uint32_t encoding;  ///< binary opcode (0xFCxx for prefixed ops)
    ImmKind imm;        ///< immediate kind
    const char* sig;    ///< "inputs:outputs" or "*" for special handling
};

/** Look up static properties of @p op. */
const OpInfo& opInfo(Op op);

/** Mnemonic of @p op. */
inline const char* opName(Op op) { return opInfo(op).name; }

/**
 * Map a binary opcode byte (or 0xFC00|sub for prefixed instructions) back to
 * an Op. Returns false for encodings outside the implemented set.
 */
bool opFromEncoding(uint32_t encoding, Op& out);

/** The table's `sig` column. At namespace scope so a lookup at run time
 * indexes read-only data instead of building the array per call. */
inline constexpr const char* kOpSigs[] = {
#define V(id, name, enc, imm, sig) sig,
    LNB_FOREACH_OPCODE(V)
#undef V
};

/** Value-stack signature of @p op, usable in constant expressions. */
constexpr const char*
opSig(Op op)
{
    return kOpSigs[size_t(op)];
}

/** Number of value inputs in @p op's signature; -1 for a "*" op. */
constexpr int
opInputs(Op op)
{
    const char* sig = opSig(op);
    if (sig[0] == '*')
        return -1;
    int inputs = 0;
    while (sig[inputs] != ':')
        inputs++;
    return inputs;
}

/** Result type character of @p op ('i', 'I', 'f' or 'F'); 0 when it has
 * no result or is a "*" op. */
constexpr char
opResult(Op op)
{
    int inputs = opInputs(op);
    return inputs < 0 ? 0 : opSig(op)[inputs + 1];
}

/** True for the memory load instructions (0x28..0x35). */
constexpr bool
isLoadOp(Op op)
{
    return op >= Op::i32_load && op <= Op::i64_load32_u;
}
/** True for the memory store instructions (0x36..0x3E). */
constexpr bool
isStoreOp(Op op)
{
    return op >= Op::i32_store && op <= Op::i64_store32;
}
/** True for every 0xFE-prefixed threads instruction: atomic
 * loads/stores/rmw plus memory.atomic.{notify,wait32,wait64}. All are
 * sequentially-consistent synchronization points that may observe a
 * concurrent memory.grow, so the opt pass treats them as barriers. */
constexpr bool
isAtomicOp(Op op)
{
    return op >= Op::memory_atomic_notify && op <= Op::i64_atomic_rmw_cmpxchg;
}
/** Byte width accessed by a load/store/atomic instruction (1, 2, 4, 8). */
unsigned memAccessSize(Op op);
/** Natural alignment exponent for a memory access (log2 of access size).
 * Atomic instructions require exactly this alignment; plain accesses may
 * declare anything up to it. */
unsigned memNaturalAlignExp(Op op);

} // namespace lnb::wasm

#endif // LNB_WASM_OPCODES_H
