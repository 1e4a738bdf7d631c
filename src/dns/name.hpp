// DNS domain names: label sequences with RFC 1035 wire encoding, including
// message compression (0xC0 pointers) on both the encode and decode paths.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "net/address.hpp"

namespace tvacr::dns {

class DomainName {
  public:
    DomainName() = default;  // the root name

    /// Parses presentation format ("acr-eu-prd.samsungcloud.tv"). Lowercases
    /// labels (DNS names compare case-insensitively) and validates lengths
    /// (label <= 63 octets, name <= 255 octets).
    [[nodiscard]] static Result<DomainName> parse(std::string_view text);

    /// The reverse-lookup name for an IPv4 address: d.c.b.a.in-addr.arpa.
    [[nodiscard]] static DomainName reverse_of(net::Ipv4Address address);

    [[nodiscard]] const std::vector<std::string>& labels() const noexcept { return labels_; }
    [[nodiscard]] bool is_root() const noexcept { return labels_.empty(); }
    [[nodiscard]] std::string to_string() const;

    /// True if this name is `suffix` or ends with ".suffix".
    [[nodiscard]] bool is_within(const DomainName& suffix) const;

    auto operator<=>(const DomainName&) const = default;

  private:
    std::vector<std::string> labels_;
};

/// Offsets of already-encoded names within a message, for compression.
/// Maps a name's presentation form to its byte offset in the message.
using CompressionMap = std::map<std::string, std::uint16_t>;

/// Encodes a name at the current writer position, reusing earlier
/// occurrences of the name (or any of its parent suffixes) via pointers.
void encode_name(const DomainName& name, ByteWriter& out, CompressionMap& offsets);

/// Encodes without compression (e.g. when a fresh buffer is being built and
/// pointer targets would not be meaningful).
void encode_name_uncompressed(const DomainName& name, ByteWriter& out);

/// Per-message memo of decoded names keyed by absolute wire offset, used by
/// DnsMessage::decode so each unique compression target is chased exactly
/// once per message. Within one message a name at a given offset always
/// decodes to the same result (the buffer is immutable), so memoization
/// cannot change observable behaviour — decode_name replays its own hop
/// and length checks when splicing a cached tail, keeping error outcomes
/// identical to an uncached decode. The cache must not outlive, or be
/// shared across, the message buffer it was filled from.
class NameCache {
  public:
    struct Entry {
        DomainName name;
        /// Bytes the name occupies at its offset, up to and including the
        /// root label or first pointer. 0 marks a splice-only entry (a
        /// pointer target mid-name, where the inline extent was not
        /// tracked); such entries still serve pointer-chase hits.
        std::uint32_t inline_len = 0;
        /// RFC 1035 length-octet total of the labels (for the 255 cap).
        std::uint16_t octets = 0;
        /// Compression pointers a fresh decode from this offset follows
        /// (for the hop limit).
        std::uint8_t hops = 0;
    };

    [[nodiscard]] const Entry* find(std::size_t offset) const {
        const auto it = entries_.find(offset);
        return it == entries_.end() ? nullptr : &it->second;
    }
    /// First insertion wins; an offset never re-decodes differently.
    void insert(std::size_t offset, Entry entry) { entries_.emplace(offset, std::move(entry)); }

  private:
    std::unordered_map<std::size_t, Entry> entries_;
};

/// Decodes a (possibly compressed) name. Follows pointers with a hop limit,
/// and rejects forward pointers (RFC: pointers refer to *prior* data only).
/// With a cache, repeated names and shared compression targets are resolved
/// from the memo instead of re-chased; results and errors are identical.
[[nodiscard]] Result<DomainName> decode_name(ByteReader& in, NameCache* cache = nullptr);

}  // namespace tvacr::dns
