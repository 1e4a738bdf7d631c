// tvacr_transcode — convert captures between pcap and the .tvcr
// record/replay format.
//
//   tvacr_transcode <in.pcap> <out.tvcr> [--frames] [--block-records N]
//   tvacr_transcode <in.tvcr> <out.pcap> [--from-block K]
//
// The direction is read from the input's magic number. pcap -> tvcr streams
// the capture through net::PcapReader (never materialized) into a
// TvcrWriter. --frames keeps raw frame bytes so the file can be exported
// back to pcap losslessly; without it only the decoded event stream is
// stored (much smaller, still replays byte-identically).
// tvcr -> pcap requires a frames-mode file and writes the source pcap's
// snaplen and original frame lengths back; --from-block K exports only the
// record suffix starting at block boundary K — the CI replay-determinism
// job uses that to build the reference capture a resumed analysis must
// match. A flag for the other direction exits 2 instead of being ignored.
#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "common/file_io.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "replay/replay.hpp"

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <in.pcap> <out.tvcr> [--frames] [--block-records N]\n"
                 "       %s <in.tvcr> <out.pcap> [--from-block K]\n",
                 argv0, argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    bool keep_frames = false;
    std::size_t block_records = 0;
    long long from_block = -1;  // -1: flag not given
    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--frames", keep_frames},
            {"--block-records", block_records, 1, 1 << 24},
            {"--from-block", from_block, 0, 1 << 24},
        },
        usage);
    if (positionals.size() != 2) return usage(argv[0]);
    const std::string& in_path = positionals[0];
    const std::string& out_path = positionals[1];
    const bool from_tvcr = replay::sniff_capture_file(in_path) == replay::CaptureFormat::kTvcr;
    if (from_tvcr && (keep_frames || block_records > 0)) {
        std::fprintf(stderr, "--frames/--block-records need pcap input\n");
        return 2;
    }
    if (!from_tvcr && from_block >= 0) {
        std::fprintf(stderr, "--from-block needs .tvcr input\n");
        return 2;
    }

    if (from_tvcr) {
        const auto first_block = static_cast<std::size_t>(std::max(from_block, 0LL));
        auto reader = replay::TvcrReader::open(in_path);
        if (!reader.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", in_path.c_str(),
                         reader.error().message.c_str());
            return 1;
        }
        auto pcap = replay::export_tvcr_to_pcap(reader.value(), first_block);
        if (!pcap.ok()) {
            std::fprintf(stderr, "export failed: %s\n", pcap.error().message.c_str());
            return 1;
        }
        const auto written = common::write_file_finalized(out_path, [&](std::ostream& out) {
            out.write(reinterpret_cast<const char*>(pcap.value().data()),
                      static_cast<std::streamsize>(pcap.value().size()));
            return out.good() ? Status::success()
                              : Status(make_error("cannot write " + out_path));
        });
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.error().message.c_str());
            return 1;
        }
        std::printf("Exported %s from block %zu -> %s (%zu pcap bytes)\n", in_path.c_str(),
                    first_block, out_path.c_str(), pcap.value().size());
        return 0;
    }

    replay::TvcrOptions options;
    options.keep_frames = keep_frames;
    if (block_records > 0) options.block_records = block_records;
    const auto stats = replay::transcode_pcap_to_tvcr(in_path, out_path, options);
    if (!stats.ok()) {
        std::fprintf(stderr, "transcode failed: %s\n", stats.error().message.c_str());
        return 1;
    }
    const double ratio = stats.value().output_bytes == 0
                             ? 0.0
                             : static_cast<double>(stats.value().input_bytes) /
                                   static_cast<double>(stats.value().output_bytes);
    std::printf("Transcoded %llu records in %llu blocks: %llu -> %llu bytes (%.1fx)%s\n",
                static_cast<unsigned long long>(stats.value().records),
                static_cast<unsigned long long>(stats.value().blocks),
                static_cast<unsigned long long>(stats.value().input_bytes),
                static_cast<unsigned long long>(stats.value().output_bytes), ratio,
                keep_frames ? " [frames kept]" : "");
    return 0;
}
