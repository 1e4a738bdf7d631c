#include "replay/replay.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/file_io.hpp"
#include "net/pcap.hpp"

namespace tvacr::replay {

Result<ReplayEngine> ReplayEngine::open(const std::string& path) {
    auto reader = TvcrReader::open(path);
    if (!reader) return reader.error();
    return ReplayEngine(std::move(reader).value());
}

Result<analysis::CaptureAnalyzer> ReplayEngine::run(net::Ipv4Address device_ip,
                                                    ReplayOptions options) {
    if (options.from_block > reader_.blocks().size()) {
        return make_error("replay: --resume-from block out of range");
    }
    stats_ = ReplayStats{};
    stats_.blocks_skipped = options.from_block;

    std::size_t first_block = options.from_block;
    if (options.since.has_value()) {
        // Whole blocks strictly before the cutoff are skipped by their
        // time range; the per-record filter below handles the straddling
        // first block.
        const std::size_t since_block = reader_.first_block_at_or_after(*options.since);
        if (since_block > first_block) {
            stats_.blocks_skipped += since_block - first_block;
            first_block = since_block;
        }
    }

    analysis::StreamingCaptureAnalyzer analyzer(device_ip, options.stream);
    for (std::size_t b = first_block; b < reader_.blocks().size(); ++b) {
        auto records = reader_.read_block(b);
        if (!records) return records.error();
        ++stats_.blocks_read;
        for (const TvcrRecord& record : records.value()) {
            if (options.since.has_value() && record.timestamp < *options.since) continue;
            analyzer.ingest(record);
            ++stats_.records_replayed;
        }
    }
    return analyzer.finish();
}

Result<TranscodeStats> transcode_pcap_to_tvcr(const std::string& pcap_path,
                                              const std::string& tvcr_path,
                                              TvcrOptions options) {
    auto reader = net::PcapReader::open(pcap_path);
    if (!reader) return reader.error();
    options.snaplen = reader.value().declared_snaplen();

    TranscodeStats stats;
    // Finalized write: the output path only appears once the end record landed.
    auto written = common::write_file_finalized(tvcr_path, [&](std::ostream& out) -> Status {
        TvcrWriter writer(out, options);
        while (true) {
            auto record = reader.value().next();
            if (!record) return record.error();
            if (!record.value().has_value()) break;
            writer.add(record.value()->frame, record.value()->timestamp, record.value()->orig_len);
        }
        if (auto status = writer.finish(); !status.ok()) return status;
        stats.records = writer.records_written();
        stats.blocks = writer.blocks_written();
        return Status::success();
    });
    if (!written.ok()) return written.error();

    std::ifstream in_size(pcap_path, std::ios::binary | std::ios::ate);
    if (in_size) stats.input_bytes = static_cast<std::uint64_t>(in_size.tellg());
    std::ifstream out_size(tvcr_path, std::ios::binary | std::ios::ate);
    if (out_size) stats.output_bytes = static_cast<std::uint64_t>(out_size.tellg());
    return stats;
}

Result<Bytes> export_tvcr_to_pcap(TvcrReader& reader, std::size_t from_block) {
    if (!reader.has_frames()) {
        return make_error("replay: events-mode .tvcr has no frames to export");
    }
    if (from_block > reader.blocks().size()) {
        return make_error("replay: export block out of range");
    }
    // The header's snaplen and each record's orig_len, so a capture that
    // was snapped on the wire comes back byte for byte.
    ByteWriter out;
    net::append_pcap_file_header(out, reader.snaplen());
    for (std::size_t b = from_block; b < reader.blocks().size(); ++b) {
        auto records = reader.read_block(b);
        if (!records) return records.error();
        for (const TvcrRecord& record : records.value()) {
            net::append_pcap_record(out, record.timestamp, record.frame, record.orig_len);
        }
    }
    return std::move(out).take();
}

namespace {

std::string canonicalize_double(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.1f", value);
    return buffer;
}

}  // namespace

std::string canonical_report(const analysis::CaptureAnalyzer& analyzer) {
    std::ostringstream out;
    out << "device " << analyzer.device_ip().to_string() << "\n";
    out << "packets " << analyzer.packets_total() << " unparseable " << analyzer.unparseable()
        << "\n";
    out << "dns responses " << analyzer.dns().responses_seen() << " mappings "
        << analyzer.dns().mapping_count() << "\n";
    const auto domains = analyzer.domains_by_bytes();
    out << "domains " << domains.size() << "\n";
    for (const analysis::DomainStats* stats : domains) {
        out << stats->domain << " packets=" << stats->packets << " up=" << stats->bytes_up
            << " down=" << stats->bytes_down << " kb=" << canonicalize_double(stats->kilobytes())
            << " first=" << stats->first_seen.as_micros()
            << " last=" << stats->last_seen.as_micros() << " addrs=";
        for (std::size_t a = 0; a < stats->addresses.size(); ++a) {
            if (a != 0) out << ',';
            out << stats->addresses[a].to_string();
        }
        out << "\n";
    }
    return out.str();
}

}  // namespace tvacr::replay
