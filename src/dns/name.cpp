#include "dns/name.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace tvacr::dns {

Result<DomainName> DomainName::parse(std::string_view text) {
    DomainName name;
    if (text.empty() || text == ".") return name;
    std::string_view body = text;
    if (body.back() == '.') body.remove_suffix(1);

    std::size_t total = 0;
    for (const auto& label : split(body, '.')) {
        if (label.empty()) {
            return make_error("DomainName: empty label in '" + std::string(text) + "'");
        }
        if (label.size() > 63) return make_error("DomainName: label exceeds 63 octets");
        total += label.size() + 1;
        name.labels_.push_back(to_lower(label));
    }
    if (total + 1 > 255) return make_error("DomainName: name exceeds 255 octets");
    return name;
}

DomainName DomainName::reverse_of(net::Ipv4Address address) {
    const auto o = address.octets();
    DomainName name;
    name.labels_ = {std::to_string(o[3]), std::to_string(o[2]), std::to_string(o[1]),
                    std::to_string(o[0]), "in-addr", "arpa"};
    return name;
}

std::string DomainName::to_string() const {
    if (labels_.empty()) return ".";
    return join(labels_, ".");
}

bool DomainName::is_within(const DomainName& suffix) const {
    if (suffix.labels_.size() > labels_.size()) return false;
    return std::equal(suffix.labels_.rbegin(), suffix.labels_.rend(), labels_.rbegin());
}

namespace {

std::string suffix_key(const std::vector<std::string>& labels, std::size_t from) {
    std::string key;
    for (std::size_t i = from; i < labels.size(); ++i) {
        if (i != from) key += '.';
        key += labels[i];
    }
    return key;
}

}  // namespace

void encode_name(const DomainName& name, ByteWriter& out, CompressionMap& offsets) {
    const auto& labels = name.labels();
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const std::string key = suffix_key(labels, i);
        if (const auto it = offsets.find(key); it != offsets.end()) {
            out.u16(static_cast<std::uint16_t>(0xC000 | it->second));
            return;
        }
        // Record this suffix's offset if it is pointer-addressable (14 bits).
        if (out.size() <= 0x3FFF) {
            offsets.emplace(key, static_cast<std::uint16_t>(out.size()));
        }
        out.u8(static_cast<std::uint8_t>(labels[i].size()));
        out.raw(std::string_view(labels[i]));
    }
    out.u8(0);  // root label
}

void encode_name_uncompressed(const DomainName& name, ByteWriter& out) {
    for (const auto& label : name.labels()) {
        out.u8(static_cast<std::uint8_t>(label.size()));
        out.raw(std::string_view(label));
    }
    out.u8(0);
}

Result<DomainName> decode_name(ByteReader& in, NameCache* cache) {
    const std::size_t start = in.position();
    if (cache != nullptr) {
        if (const auto* hit = cache->find(start); hit != nullptr && hit->inline_len != 0) {
            if (auto s = in.seek(start + hit->inline_len); !s) return s.error();
            return hit->name;
        }
    }

    std::vector<std::string> labels;
    // Pointer targets visited on the way, so the tails they start can be
    // memoized for later names in the same message.
    struct Jump {
        std::size_t target = 0;
        std::size_t labels_before = 0;
        std::size_t octets_before = 0;
        int hops_on_arrival = 0;
    };
    std::vector<Jump> jumps;
    std::size_t total = 0;
    int hops = 0;
    std::size_t resume_position = 0;
    bool jumped = false;
    const DomainName* spliced = nullptr;  // memoized tail the name ends with
    std::uint8_t spliced_hops = 0;

    while (true) {
        auto length = in.u8();
        if (!length) return length.error();
        const std::uint8_t len = length.value();

        if ((len & 0xC0) == 0xC0) {  // compression pointer
            auto low = in.u8();
            if (!low) return low.error();
            const std::size_t target = (static_cast<std::size_t>(len & 0x3F) << 8) | low.value();
            if (!jumped) {
                resume_position = in.position();
                jumped = true;
            }
            // Pointer validation runs BEFORE any cache lookup: a forward
            // pointer or hop overrun must fail identically whether or not
            // the target happens to be memoized.
            if (target >= in.position() - 2) {
                return make_error("decode_name: forward compression pointer");
            }
            if (++hops > 16) return make_error("decode_name: pointer loop");
            if (cache != nullptr) {
                if (const auto* hit = cache->find(target); hit != nullptr) {
                    // Splice the memoized tail, replaying the checks the
                    // fresh decode would have applied along it.
                    if (hops + hit->hops > 16) return make_error("decode_name: pointer loop");
                    total += hit->octets;
                    if (total + 1 > 255) {
                        return make_error("decode_name: name exceeds 255 octets");
                    }
                    spliced = &hit->name;
                    spliced_hops = hit->hops;
                    break;
                }
                jumps.push_back(Jump{target, labels.size(), total, hops});
            }
            if (auto s = in.seek(target); !s) return s.error();
            continue;
        }
        if ((len & 0xC0) != 0) return make_error("decode_name: reserved label type");
        if (len == 0) break;  // root: end of name

        auto raw = in.raw(len);
        if (!raw) return raw.error();
        total += len + 1U;
        if (total + 1 > 255) return make_error("decode_name: name exceeds 255 octets");
        labels.emplace_back(raw.value().begin(), raw.value().end());
    }

    if (jumped) {
        if (auto s = in.seek(resume_position); !s) return s.error();
    }
    std::string presentation;
    bool first = true;
    const auto append_label = [&](const std::string& label) {
        if (!first) presentation += '.';
        presentation += label;
        first = false;
    };
    for (const auto& label : labels) append_label(label);
    if (spliced != nullptr) {
        for (const auto& label : spliced->labels()) append_label(label);
    }
    auto parsed = DomainName::parse(presentation);
    if (!parsed) return parsed.error();

    if (cache != nullptr) {
        const int total_hops = hops + spliced_hops;
        NameCache::Entry whole;
        whole.name = parsed.value();
        whole.inline_len = static_cast<std::uint32_t>(in.position() - start);
        whole.octets = static_cast<std::uint16_t>(total);
        whole.hops = static_cast<std::uint8_t>(total_hops);
        cache->insert(start, std::move(whole));
        // Each pointer target starts a name of its own: the parsed tail
        // from that point, with the hops and octets the prefix did not use.
        // Skipped if parse re-split any label (a raw label containing '.'):
        // wire label indices would no longer line up with parsed ones.
        const std::size_t expected_labels =
            labels.size() + (spliced != nullptr ? spliced->labels().size() : 0);
        if (parsed.value().labels().size() != expected_labels) return std::move(parsed).value();
        for (const auto& jump : jumps) {
            const auto& all = parsed.value().labels();
            std::string tail;
            for (std::size_t i = jump.labels_before; i < all.size(); ++i) {
                if (i != jump.labels_before) tail += '.';
                tail += all[i];
            }
            auto tail_name = DomainName::parse(tail);
            if (!tail_name) continue;  // cannot happen for a suffix of a valid name
            NameCache::Entry entry;
            entry.name = std::move(tail_name).value();
            entry.inline_len = 0;  // splice-only: inline extent not tracked
            entry.octets = static_cast<std::uint16_t>(total - jump.octets_before);
            entry.hops = static_cast<std::uint8_t>(total_hops - jump.hops_on_arrival);
            cache->insert(jump.target, std::move(entry));
        }
    }
    return std::move(parsed).value();
}

}  // namespace tvacr::dns
