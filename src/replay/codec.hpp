// Byte-level codecs for the .tvcr record/replay format: LEB128 varints,
// zigzag signed mapping, CRC-32 integrity checksums, and a from-scratch
// LZ77 block compressor. Everything here is pure and deterministic — the
// same input bytes produce the same output bytes on every platform, which
// is what lets .tvcr files participate in byte-for-byte golden tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace tvacr::replay {

/// Appends an unsigned LEB128 varint (7 bits per byte, little groups first).
void put_varint(ByteWriter& out, std::uint64_t value);

/// Reads one varint; fails cleanly on truncation or >10-byte overlong forms.
[[nodiscard]] Result<std::uint64_t> get_varint(ByteReader& in);

/// Zigzag mapping so small negative deltas stay small varints.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
    return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) over a byte span.
/// Passing the CRC of the bytes before `data` as `previous` continues it:
/// crc32(b, crc32(a)) == crc32(a followed by b).
[[nodiscard]] std::uint32_t crc32(BytesView data, std::uint32_t previous = 0);

/// Greedy LZ77 compressor (LZ4-style token stream: literal runs + back
/// references with 16-bit offsets, minimum match 4). Self-contained — no
/// external compression library — and deterministic byte-for-byte.
[[nodiscard]] Bytes lz_compress(BytesView input);

/// lz_compress with a match table that outlives one call, for a writer that
/// compresses block after block. Each call stores positions above a fresh
/// base and treats entries below it as empty, so no block sees another's
/// matches and compress(x) is byte-identical to lz_compress(x), without
/// allocating and clearing the 256 KiB table per block.
class LzCompressor {
  public:
    [[nodiscard]] Bytes compress(BytesView input);

  private:
    std::vector<std::uint32_t> table_;
    std::uint32_t base_ = 1;  // 0, the table's fill, is below every base
};

/// Decompresses a lz_compress stream. Every read is bounds-checked and the
/// output is capped at `uncompressed_len`: corrupt or adversarial input
/// yields an Error, never out-of-bounds access (the corruption-robustness
/// suite runs this under ASan/UBSan).
[[nodiscard]] Result<Bytes> lz_decompress(BytesView input, std::size_t uncompressed_len);

}  // namespace tvacr::replay
