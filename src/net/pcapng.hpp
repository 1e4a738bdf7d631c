// pcapng (pcap next generation) capture files — the format modern Wireshark
// writes by default. Implemented from the file-format specification:
// Section Header Block, Interface Description Block, Enhanced Packet Blocks;
// microsecond timestamps (the IDB default tsresol). The reader skips block
// types and options it does not understand, as the spec requires.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/packet.hpp"

namespace tvacr::net {

inline constexpr std::uint32_t kPcapngSectionBlock = 0x0A0D0D0A;
inline constexpr std::uint32_t kPcapngInterfaceBlock = 0x00000001;
inline constexpr std::uint32_t kPcapngEnhancedPacketBlock = 0x00000006;
inline constexpr std::uint32_t kPcapngByteOrderMagic = 0x1A2B3C4D;

/// Serializes packets as a single-section, single-interface pcapng stream
/// (LINKTYPE_ETHERNET, microsecond timestamps).
[[nodiscard]] Bytes to_pcapng_bytes(const std::vector<Packet>& packets);

/// Parses a pcapng buffer: packets from every Enhanced Packet Block of the
/// first section. Unknown blocks are skipped; a truncated trailing block is
/// tolerated (captures are often cut mid-write).
[[nodiscard]] Result<std::vector<Packet>> from_pcapng_bytes(BytesView data);

Status write_pcapng_file(const std::string& path, const std::vector<Packet>& packets);
[[nodiscard]] Result<std::vector<Packet>> read_pcapng_file(const std::string& path);

}  // namespace tvacr::net
