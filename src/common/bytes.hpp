// Byte-buffer building and parsing in network (big-endian) order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace tvacr {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

namespace bytes {

// Fixed-width loads from byte buffers. memcpy is the only portable way to
// read a multi-byte integer from an arbitrarily aligned byte pointer —
// pointer-cast loads are undefined behaviour on strict-alignment targets
// (and flagged by -fsanitize=alignment). Every compiler we build with
// folds the memcpy + byte swap into a single load instruction.
//
// The caller is responsible for bounds: `p` must have the full width
// readable. These helpers are the parse-path primitives; ByteReader wraps
// them with bounds checks for sequential decoding.

[[nodiscard]] inline std::uint16_t load_u16be(const std::uint8_t* p) noexcept {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return static_cast<std::uint16_t>((v >> 8) | (v << 8));
#endif
}

[[nodiscard]] inline std::uint32_t load_u32be(const std::uint8_t* p) noexcept {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#elif defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap32(v);
#else
    return ((v & 0xFF000000U) >> 24) | ((v & 0x00FF0000U) >> 8) | ((v & 0x0000FF00U) << 8) |
           ((v & 0x000000FFU) << 24);
#endif
}

[[nodiscard]] inline std::uint64_t load_u64be(const std::uint8_t* p) noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#elif defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap64(v);
#else
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r = (r << 8) | ((v >> (i * 8)) & 0xFF);
    return r;
#endif
}

[[nodiscard]] inline std::uint16_t load_u16le(const std::uint8_t* p) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
#else
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
#endif
}

[[nodiscard]] inline std::uint32_t load_u32le(const std::uint8_t* p) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
#else
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
#endif
}

}  // namespace bytes

/// Appends integers and raw bytes to a growing buffer in network byte order.
/// All multi-byte writes are big-endian, matching on-the-wire protocol fields.
class ByteWriter {
  public:
    ByteWriter() = default;
    explicit ByteWriter(std::size_t reserve) { buffer_.reserve(reserve); }

    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /// Little-endian variants (pcap file headers are host/LE-defined).
    void u16le(std::uint16_t v);
    void u32le(std::uint32_t v);
    void raw(BytesView bytes);
    void raw(std::string_view text);
    /// Appends `count` copies of `fill`.
    void fill(std::size_t count, std::uint8_t fill_byte);

    /// Empties the buffer and keeps its capacity.
    void clear() noexcept { buffer_.clear(); }

    /// Overwrites 2 bytes at `offset` (e.g. a length/checksum backpatch).
    void patch_u16(std::size_t offset, std::uint16_t v);

    [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
    [[nodiscard]] BytesView view() const noexcept { return buffer_; }
    [[nodiscard]] const Bytes& bytes() const noexcept { return buffer_; }
    [[nodiscard]] Bytes take() && { return std::move(buffer_); }

  private:
    Bytes buffer_;
};

/// Sequential big-endian reader over a fixed byte span. All reads are
/// bounds-checked and return Result; a short buffer is a decode error, never
/// undefined behaviour.
class ByteReader {
  public:
    explicit ByteReader(BytesView data) : data_(data) {}

    [[nodiscard]] Result<std::uint8_t> u8();
    [[nodiscard]] Result<std::uint16_t> u16();
    [[nodiscard]] Result<std::uint32_t> u32();
    [[nodiscard]] Result<std::uint64_t> u64();
    [[nodiscard]] Result<std::uint16_t> u16le();
    [[nodiscard]] Result<std::uint32_t> u32le();
    [[nodiscard]] Result<Bytes> raw(std::size_t count);
    /// Zero-copy variant of raw(): a subspan of the underlying buffer. The
    /// view is only valid while the buffer the reader was built over lives.
    [[nodiscard]] Result<BytesView> view(std::size_t count);
    Status skip(std::size_t count);

    /// Absolute-position seek within the underlying buffer (DNS compression
    /// pointers need random access).
    Status seek(std::size_t absolute_offset);

    [[nodiscard]] std::size_t position() const noexcept { return position_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - position_; }
    [[nodiscard]] bool at_end() const noexcept { return remaining() == 0; }
    [[nodiscard]] BytesView underlying() const noexcept { return data_; }

  private:
    BytesView data_;
    std::size_t position_ = 0;
};

/// Lowercase hex rendering, e.g. {0xde, 0xad} -> "dead".
[[nodiscard]] std::string to_hex(BytesView bytes);

/// Parses lowercase/uppercase hex; fails on odd length or non-hex characters.
[[nodiscard]] Result<Bytes> from_hex(std::string_view hex);

}  // namespace tvacr
