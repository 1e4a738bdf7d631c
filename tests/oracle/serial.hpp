// The serial reference engine for capture analysis. It parses every layer
// of every frame with net::parse_packet and attributes the packets in
// capture order, with none of the streaming engine's shortcuts (frame
// summary, route cache). It exists to be compared against: the
// byte-identity tests and the analyze/gateway benches check
// analysis::StreamingCaptureAnalyzer against it. No library code may
// include it; the include-layering lint rule enforces that.
#pragma once

#include <vector>

#include "analysis/traffic.hpp"
#include "net/packet.hpp"

namespace tvacr::oracle {

/// Harvests DNS from every response sourced from the DNS port, then
/// attributes each IPv4 packet involving `device_ip` to its remote's first
/// mapping, or to "unresolved:<ip>" while there is none yet.
[[nodiscard]] analysis::CaptureAnalyzer analyze_serial(const std::vector<net::Packet>& packets,
                                                       net::Ipv4Address device_ip);

}  // namespace tvacr::oracle
