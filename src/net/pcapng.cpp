#include "net/pcapng.hpp"

#include <fstream>
#include <ostream>

#include "common/file_io.hpp"
#include "net/pcap.hpp"

namespace tvacr::net {

namespace {

constexpr std::size_t pad32(std::size_t size) { return (size + 3U) & ~std::size_t{3}; }

void append_block(ByteWriter& out, std::uint32_t type, const Bytes& body) {
    const std::uint32_t total =
        static_cast<std::uint32_t>(12 + pad32(body.size()));
    out.u32le(type);
    out.u32le(total);
    out.raw(body);
    out.fill(pad32(body.size()) - body.size(), 0);
    out.u32le(total);  // trailing total length (enables backward scans)
}

}  // namespace

Bytes to_pcapng_bytes(const std::vector<Packet>& packets) {
    ByteWriter out;

    // Section Header Block.
    {
        ByteWriter body;
        body.u32le(kPcapngByteOrderMagic);
        body.u16le(1);  // major
        body.u16le(0);  // minor
        body.u32le(0xFFFFFFFF);  // section length unknown (-1)
        body.u32le(0xFFFFFFFF);
        append_block(out, kPcapngSectionBlock, body.bytes());
    }
    // Interface Description Block (linktype Ethernet, default usec tsresol).
    {
        ByteWriter body;
        body.u16le(static_cast<std::uint16_t>(kPcapLinkTypeEthernet));
        body.u16le(0);  // reserved
        body.u32le(kPcapSnapLen);
        append_block(out, kPcapngInterfaceBlock, body.bytes());
    }
    for (const auto& packet : packets) {
        ByteWriter body;
        const std::uint64_t micros = static_cast<std::uint64_t>(packet.timestamp.as_micros());
        body.u32le(0);  // interface id
        body.u32le(static_cast<std::uint32_t>(micros >> 32));
        body.u32le(static_cast<std::uint32_t>(micros));
        body.u32le(static_cast<std::uint32_t>(packet.data.size()));  // captured
        body.u32le(static_cast<std::uint32_t>(packet.data.size()));  // original
        body.raw(packet.data);
        body.fill(pad32(packet.data.size()) - packet.data.size(), 0);
        append_block(out, kPcapngEnhancedPacketBlock, body.bytes());
    }
    return std::move(out).take();
}

Result<std::vector<Packet>> from_pcapng_bytes(BytesView data) {
    ByteReader reader(data);
    std::vector<Packet> packets;
    bool saw_section = false;

    while (reader.remaining() >= 12) {
        const std::size_t block_start = reader.position();
        auto type = reader.u32le();
        if (!type) return type.error();
        auto total = reader.u32le();
        if (!total) return total.error();
        if (total.value() < 12 || total.value() % 4 != 0) {
            return make_error("pcapng: bad block length");
        }
        if (data.size() - block_start < total.value()) break;  // truncated tail

        const std::size_t body_size = total.value() - 12;
        if (type.value() == kPcapngSectionBlock) {
            if (saw_section) break;  // only the first section is read
            auto magic = reader.u32le();
            if (!magic) return magic.error();
            if (magic.value() != kPcapngByteOrderMagic) {
                return make_error("pcapng: unsupported byte order");
            }
            saw_section = true;
        } else if (type.value() == kPcapngEnhancedPacketBlock && saw_section) {
            if (body_size < 20) return make_error("pcapng: short EPB");
            if (auto s = reader.skip(4); !s) return s.error();  // interface id
            auto ts_high = reader.u32le();
            auto ts_low = reader.u32le();
            auto captured = reader.u32le();
            if (auto original = reader.u32le(); !original) return original.error();
            if (!ts_high || !ts_low || !captured) return make_error("pcapng: short EPB");
            if (captured.value() > body_size - 20) {
                return make_error("pcapng: EPB captured length overruns block");
            }
            auto bytes = reader.raw(captured.value());
            if (!bytes) return bytes.error();
            const std::uint64_t micros =
                (static_cast<std::uint64_t>(ts_high.value()) << 32) | ts_low.value();
            packets.push_back(Packet{SimTime::micros(static_cast<std::int64_t>(micros)),
                                     std::move(bytes).value()});
        } else if (!saw_section) {
            return make_error("pcapng: data before section header");
        }
        // Jump to the next block regardless of how much of the body we read.
        if (auto s = reader.seek(block_start + total.value()); !s) return s.error();
    }
    if (!saw_section) return make_error("pcapng: no section header");
    return packets;
}

Status write_pcapng_file(const std::string& path, const std::vector<Packet>& packets) {
    return common::write_file_finalized(path, [&](std::ostream& file) -> Status {
        const Bytes bytes = to_pcapng_bytes(packets);
        file.write(reinterpret_cast<const char*>(bytes.data()),
                   static_cast<std::streamsize>(bytes.size()));
        if (!file) return make_error("pcapng: write failed: " + path);
        return Status::success();
    });
}

Result<std::vector<Packet>> read_pcapng_file(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) return make_error("pcapng: cannot open for reading: " + path);
    Bytes bytes((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
    return from_pcapng_bytes(bytes);
}

}  // namespace tvacr::net
