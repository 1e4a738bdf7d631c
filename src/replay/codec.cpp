#include "replay/codec.hpp"

#include <array>

namespace tvacr::replay {

void put_varint(ByteWriter& out, std::uint64_t value) {
    while (value >= 0x80) {
        out.u8(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.u8(static_cast<std::uint8_t>(value));
}

Result<std::uint64_t> get_varint(ByteReader& in) {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        auto byte = in.u8();
        if (!byte) return make_error("tvcr: truncated varint");
        if (shift == 63 && (byte.value() & 0xFE) != 0) {
            return make_error("tvcr: varint overflows 64 bits");
        }
        value |= static_cast<std::uint64_t>(byte.value() & 0x7F) << shift;
        if ((byte.value() & 0x80) == 0) return value;
    }
    return make_error("tvcr: varint longer than 10 bytes");
}

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) c = (c & 1) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        table[n] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

std::uint32_t read32(const std::uint8_t* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(BytesView data) {
    std::uint32_t crc = 0xFFFFFFFFU;
    for (const std::uint8_t byte : data) crc = kCrcTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFU;
}

// ------------------------------------------------------------------ LZ77
//
// Token stream, decoded sequentially. Each sequence is:
//   token byte:  high nibble = literal count, low nibble = match length - 4
//   (nibble 15 means "continued": read 255-terminated extension bytes)
//   <literal bytes>
//   offset u16le (1..65535, distance back into the produced output)
//   <match length extension bytes if low nibble was 15>
// The final sequence carries literals only: after its literal bytes the
// stream simply ends (no offset). Minimum match length is 4, so the low
// nibble of a non-final token is the match length minus 4.

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;

std::uint32_t lz_hash(std::uint32_t word) noexcept {
    return (word * 2654435761U) >> (32U - kHashBits);
}

void put_length(ByteWriter& out, std::size_t extra) {
    while (extra >= 255) {
        out.u8(255);
        extra -= 255;
    }
    out.u8(static_cast<std::uint8_t>(extra));
}

void put_sequence(ByteWriter& out, const std::uint8_t* literals, std::size_t literal_count,
                  std::size_t offset, std::size_t match_length) {
    const std::size_t lit_nibble = literal_count < 15 ? literal_count : 15;
    const bool has_match = match_length >= kMinMatch;
    const std::size_t match_units = has_match ? match_length - kMinMatch : 0;
    const std::size_t match_nibble = has_match ? (match_units < 15 ? match_units : 15) : 0;
    out.u8(static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15) put_length(out, literal_count - 15);
    out.raw(BytesView(literals, literal_count));
    if (!has_match) return;
    out.u16le(static_cast<std::uint16_t>(offset));
    if (match_nibble == 15) put_length(out, match_units - 15);
}

}  // namespace

Bytes lz_compress(BytesView input) { return LzCompressor().compress(input); }

Bytes LzCompressor::compress(BytesView input) {
    ByteWriter out(input.size() / 2 + 16);
    const std::uint8_t* base = input.data();
    const std::size_t n = input.size();
    // Table entries are positions offset by base_; one below base_ is empty.
    // Once the offsets would wrap, clear the table and start over at 1.
    if (table_.empty() || n > 0xFFFFFFFFU - base_) {
        table_.assign(std::size_t{1} << kHashBits, 0);
        base_ = 1;
    }
    const std::uint32_t block_base = base_;
    base_ += static_cast<std::uint32_t>(n);

    std::size_t anchor = 0;
    std::size_t pos = 0;
    while (n >= kMinMatch && pos + kMinMatch <= n) {
        const std::uint32_t word = read32(base + pos);
        const std::uint32_t slot = lz_hash(word);
        const std::uint32_t entry = table_[slot];
        table_[slot] = block_base + static_cast<std::uint32_t>(pos);
        const std::size_t candidate = entry - block_base;  // valid iff entry >= block_base
        if (entry >= block_base && pos - candidate <= kMaxOffset &&
            read32(base + candidate) == word) {
            std::size_t length = kMinMatch;
            while (pos + length < n && base[candidate + length] == base[pos + length]) ++length;
            put_sequence(out, base + anchor, pos - anchor, pos - candidate, length);
            pos += length;
            anchor = pos;
            continue;
        }
        ++pos;
    }
    put_sequence(out, base + anchor, n - anchor, 0, 0);
    return std::move(out).take();
}

namespace {

Result<std::size_t> get_extended_length(ByteReader& in, std::size_t value) {
    while (true) {
        auto byte = in.u8();
        if (!byte) return make_error("tvcr: lz stream truncated in length");
        value += byte.value();
        if (byte.value() != 255) return value;
    }
}

}  // namespace

Result<Bytes> lz_decompress(BytesView input, std::size_t uncompressed_len) {
    Bytes out;
    out.reserve(uncompressed_len);
    ByteReader in(input);
    while (true) {
        auto token = in.u8();
        if (!token) return make_error("tvcr: lz stream truncated at token");
        std::size_t literal_count = token.value() >> 4;
        if (literal_count == 15) {
            auto extended = get_extended_length(in, literal_count);
            if (!extended) return extended.error();
            literal_count = extended.value();
        }
        if (literal_count > in.remaining()) return make_error("tvcr: lz literals past input end");
        if (out.size() + literal_count > uncompressed_len) {
            return make_error("tvcr: lz output exceeds declared size");
        }
        auto literals = in.view(literal_count);
        if (!literals) return literals.error();
        out.insert(out.end(), literals.value().begin(), literals.value().end());
        if (in.at_end()) break;  // final sequence: literals only

        auto offset = in.u16le();
        if (!offset) return make_error("tvcr: lz stream truncated at offset");
        if (offset.value() == 0 || offset.value() > out.size()) {
            return make_error("tvcr: lz back-reference outside produced output");
        }
        std::size_t match_length = (token.value() & 0x0F) + kMinMatch;
        if ((token.value() & 0x0F) == 15) {
            auto extended = get_extended_length(in, match_length);
            if (!extended) return extended.error();
            match_length = extended.value();
        }
        if (out.size() + match_length > uncompressed_len) {
            return make_error("tvcr: lz output exceeds declared size");
        }
        // Byte-by-byte copy: overlapping matches (offset < length) repeat
        // the produced prefix, which is the RLE case the format relies on.
        std::size_t from = out.size() - offset.value();
        for (std::size_t i = 0; i < match_length; ++i) out.push_back(out[from + i]);
    }
    if (out.size() != uncompressed_len) {
        return make_error("tvcr: lz output shorter than declared size");
    }
    return out;
}

}  // namespace tvacr::replay
