#include "wasm/opcodes.h"

#include <array>
#include <cassert>
#include <unordered_map>

namespace lnb::wasm {

namespace {

constexpr std::array<OpInfo, kOpCount> kOpTable = {{
#define V(id, name, enc, imm, sig) OpInfo{name, enc, ImmKind::imm, sig},
    LNB_FOREACH_OPCODE(V)
#undef V
}};

/** Lazily built reverse map encoding -> Op. */
const std::unordered_map<uint32_t, Op>&
encodingMap()
{
    static const std::unordered_map<uint32_t, Op> map = [] {
        std::unordered_map<uint32_t, Op> m;
        m.reserve(kOpCount);
        for (size_t i = 0; i < kOpCount; i++)
            m.emplace(kOpTable[i].encoding, Op(i));
        return m;
    }();
    return map;
}

} // namespace

const OpInfo&
opInfo(Op op)
{
    assert(size_t(op) < kOpCount);
    return kOpTable[size_t(op)];
}

bool
opFromEncoding(uint32_t encoding, Op& out)
{
    const auto& map = encodingMap();
    auto it = map.find(encoding);
    if (it == map.end())
        return false;
    out = it->second;
    return true;
}

unsigned
memAccessSize(Op op)
{
    switch (op) {
      case Op::i32_load8_s:
      case Op::i32_load8_u:
      case Op::i64_load8_s:
      case Op::i64_load8_u:
      case Op::i32_store8:
      case Op::i64_store8:
        return 1;
      case Op::i32_load16_s:
      case Op::i32_load16_u:
      case Op::i64_load16_s:
      case Op::i64_load16_u:
      case Op::i32_store16:
      case Op::i64_store16:
        return 2;
      case Op::i32_load:
      case Op::f32_load:
      case Op::i64_load32_s:
      case Op::i64_load32_u:
      case Op::i32_store:
      case Op::f32_store:
      case Op::i64_store32:
        return 4;
      case Op::memory_atomic_notify:
      case Op::memory_atomic_wait32:
      case Op::i32_atomic_load:
      case Op::i32_atomic_store:
      case Op::i32_atomic_rmw_add:
      case Op::i32_atomic_rmw_sub:
      case Op::i32_atomic_rmw_and:
      case Op::i32_atomic_rmw_or:
      case Op::i32_atomic_rmw_xor:
      case Op::i32_atomic_rmw_xchg:
      case Op::i32_atomic_rmw_cmpxchg:
        return 4;
      case Op::i64_load:
      case Op::f64_load:
      case Op::i64_store:
      case Op::f64_store:
      case Op::memory_atomic_wait64:
      case Op::i64_atomic_load:
      case Op::i64_atomic_store:
      case Op::i64_atomic_rmw_add:
      case Op::i64_atomic_rmw_sub:
      case Op::i64_atomic_rmw_and:
      case Op::i64_atomic_rmw_or:
      case Op::i64_atomic_rmw_xor:
      case Op::i64_atomic_rmw_xchg:
      case Op::i64_atomic_rmw_cmpxchg:
        return 8;
      default:
        assert(false && "not a memory access op");
        return 0;
    }
}

unsigned
memNaturalAlignExp(Op op)
{
    switch (memAccessSize(op)) {
      case 1: return 0;
      case 2: return 1;
      case 4: return 2;
      default: return 3;
    }
}

} // namespace lnb::wasm
