/**
 * @file
 * Flat binary serialization for the lowered module artifacts the
 * persistent code cache stores on disk (DESIGN.md §14).
 *
 * This is NOT the wasm binary format (encoder.h speaks that): it is a
 * trusted, versioned, host-endian dump of the post-lowering state —
 * Module plus LoweredModule — so a warm process can skip decode,
 * validate, lower and the optimization pass entirely. Integrity and
 * staleness are the *caller's* problem: svc/module_cache.h guards every
 * payload with a header fingerprint + payload hash and rejects
 * mismatches, so the readers here only defend against truncation (every
 * read is bounds-checked and latches an error flag), never against
 * adversarial bytes.
 */
#ifndef LNB_WASM_SERIALIZE_H
#define LNB_WASM_SERIALIZE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "support/status.h"
#include "wasm/lower.h"
#include "wasm/module.h"

namespace lnb::wasm {

/** Append-only little buffer writer; plain scalars + length-prefixed
 * vectors of trivially copyable elements. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { bytes_.push_back(v); }
    void u16(uint16_t v) { raw(&v, sizeof v); }
    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string& s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    template <typename T> void pod(const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        raw(&v, sizeof v);
    }

    /** Length-prefixed vector of trivially copyable elements. */
    template <typename T> void podVec(const std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(T));
    }

    void raw(const void* data, size_t len)
    {
        const auto* p = static_cast<const uint8_t*>(data);
        bytes_.insert(bytes_.end(), p, p + len);
    }

    const std::vector<uint8_t>& bytes() const { return bytes_; }
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/**
 * Bounds-checked reader over a serialized buffer. A short read latches
 * ok() = false and every subsequent read returns zero values, so
 * deserializers can run straight through and check ok() once at the end.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

    uint8_t u8() { return scalar<uint8_t>(); }
    uint16_t u16() { return scalar<uint16_t>(); }
    uint32_t u32() { return scalar<uint32_t>(); }
    uint64_t u64() { return scalar<uint64_t>(); }
    double f64() { return scalar<double>(); }
    bool boolean() { return u8() != 0; }

    std::string str()
    {
        uint64_t len = u64();
        if (!take(len))
            return {};
        std::string out(reinterpret_cast<const char*>(data_ + pos_ - len),
                        size_t(len));
        return out;
    }

    template <typename T> T pod() { return scalar<T>(); }

    template <typename T> std::vector<T> podVec()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        uint64_t count = u64();
        // Reject counts the remaining bytes cannot possibly satisfy
        // before sizing the vector (a corrupt length must not OOM us).
        if (count > (size_ - pos_) / sizeof(T)) {
            ok_ = false;
            return {};
        }
        std::vector<T> out(static_cast<size_t>(count));
        if (count && take(count * sizeof(T)))
            std::memcpy(out.data(), data_ + pos_ - count * sizeof(T),
                        size_t(count) * sizeof(T));
        return out;
    }

    /** Borrow @p len raw bytes; nullptr (and !ok()) on a short read. */
    const uint8_t* rawBytes(size_t len)
    {
        if (!take(len))
            return nullptr;
        return data_ + pos_ - len;
    }

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == size_; }
    size_t pos() const { return pos_; }

  private:
    template <typename T> T scalar()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (!take(sizeof(T)))
            return T{};
        T out;
        std::memcpy(&out, data_ + pos_ - sizeof(T), sizeof(T));
        return out;
    }

    bool take(uint64_t len)
    {
        if (!ok_ || len > size_ - pos_) {
            ok_ = false;
            return false;
        }
        pos_ += size_t(len);
        return true;
    }

    const uint8_t* data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Serialize a decoded Module, minus the raw wasm function bodies: they
 * only feed the validator and the lowering pass, both of which ran
 * before any artifact was produced, so a reloaded module carries empty
 * `bodies`. */
void serializeModule(const Module& m, ByteWriter& w);
/** Inverse; returns false (leaving @p out unspecified) on truncation. */
bool deserializeModule(ByteReader& r, Module& out);

/** Serialize the lowered form: Module + per-function IR + the
 * optimization pass's check skip lists. When @p include_func_code is
 * false only the per-function frame metadata (cell counts, types) is
 * written and the lowered instruction streams are dropped — correct
 * for an artifact whose every entry point is AOT JIT code, and the
 * bulk of the deserialization cost on the cold-start path. The flag is
 * encoded in the stream, so deserializeLoweredModule is self-describing. */
void serializeLoweredModule(const LoweredModule& lm, ByteWriter& w,
                            bool include_func_code = true);
/** Inverse. Fails with invalid_argument on truncation, on an
 * instruction whose opcode no executor has a handler for, on a check
 * skip list (LoweredFunc::elidableCheckPcs) that is out of range, not
 * strictly increasing, or names a pc with no bounds check, and on a
 * memory-base pin flag (LoweredFunc::memBasePinned) other than 0 or 1. */
Status deserializeLoweredModule(ByteReader& r, LoweredModule& out);

} // namespace lnb::wasm

#endif // LNB_WASM_SERIALIZE_H
