// Replay: re-driving the streaming analyzer from a .tvcr event stream.
//
// A ReplayEngine opens (or wraps) a TvcrReader and feeds its decoded records
// through analysis::StreamingCaptureAnalyzer — from block 0 for the whole
// capture, from any interior block boundary for a resumed run, or filtered
// to records at/after a --since timestamp. The determinism contract:
//   replay(from_block = 0)  ==  batch analysis of the original frames
//   replay(from_block = k)  ==  batch analysis of the record suffix
// both byte-for-byte on reports, at any shard/worker count (test_replay.cpp
// and the CI replay-determinism job enforce it).
#pragma once

#include <optional>
#include <string>

#include "analysis/stream.hpp"
#include "replay/tvcr.hpp"

namespace tvacr::replay {

struct ReplayOptions {
    /// First block to feed (0 = whole capture). Out-of-range is an error.
    std::size_t from_block = 0;
    /// Drop records with timestamp < since (applied after from_block; whole
    /// blocks are skipped by their time range, this filters within the
    /// first kept one).
    std::optional<SimTime> since;
    /// Passed straight to the streaming analyzer, which ignores it.
    analysis::StreamOptions stream;
};

/// Statistics from one replay run (surfaced by tools and bench_replay).
struct ReplayStats {
    std::uint64_t records_replayed = 0;
    std::size_t blocks_read = 0;
    std::size_t blocks_skipped = 0;  // pruned by from_block/--since
};

class ReplayEngine {
  public:
    explicit ReplayEngine(TvcrReader reader) : reader_(std::move(reader)) {}

    [[nodiscard]] static Result<ReplayEngine> open(const std::string& path);

    /// Replays the selected record range through a fresh streaming analyzer
    /// and returns the assembled result. Call as often as needed; each run
    /// is independent.
    [[nodiscard]] Result<analysis::CaptureAnalyzer> run(net::Ipv4Address device_ip,
                                                        ReplayOptions options = {});

    [[nodiscard]] const TvcrReader& reader() const noexcept { return reader_; }
    [[nodiscard]] const ReplayStats& last_stats() const noexcept { return stats_; }

  private:
    TvcrReader reader_;
    ReplayStats stats_;
};

/// Streams a pcap file into a .tvcr file without materializing the capture
/// (PcapReader chunked path feeding TvcrWriter block by block).
struct TranscodeStats {
    std::uint64_t records = 0;
    std::uint64_t blocks = 0;
    std::uint64_t input_bytes = 0;   // pcap file size
    std::uint64_t output_bytes = 0;  // tvcr file size
};
[[nodiscard]] Result<TranscodeStats> transcode_pcap_to_tvcr(const std::string& pcap_path,
                                                            const std::string& tvcr_path,
                                                            TvcrOptions options = {});

/// Exports a frames-mode .tvcr back to pcap bytes, optionally from an
/// interior block (the suffix export the resume tests compare against).
/// The pcap declares the .tvcr header's snaplen and each record keeps its
/// orig_len, so a pcap transcoded in frames mode comes back byte for byte.
/// Events-mode input is an error.
[[nodiscard]] Result<Bytes> export_tvcr_to_pcap(TvcrReader& reader, std::size_t from_block = 0);

/// Canonical, filename-free analysis report: packet totals, DNS summary and
/// per-domain traffic in bytes-descending order. Deterministic across runs,
/// platforms and worker counts — the byte string the determinism tests and
/// the CI cmp gate compare.
[[nodiscard]] std::string canonical_report(const analysis::CaptureAnalyzer& analyzer);

}  // namespace tvacr::replay
