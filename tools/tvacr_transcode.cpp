// tvacr_transcode — convert captures between pcap and the indexed .tvcr
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
// tvcr -> pcap requires a frames-mode file; --from-block K exports only the
// record suffix starting at block boundary K — the CI replay-determinism
// job uses that to build the reference capture a resumed analysis must
// match.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/file_io.hpp"
#include "common/parse.hpp"
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
    if (argc < 3) return usage(argv[0]);
    const std::string in_path = argv[1];
    const std::string out_path = argv[2];
    bool keep_frames = false;
    std::size_t block_records = 0;
    std::size_t from_block = 0;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--frames") == 0) {
            keep_frames = true;
        } else if (std::strcmp(argv[i], "--block-records") == 0 && i + 1 < argc) {
            block_records = static_cast<std::size_t>(
                common::parse_flag_int("--block-records", argv[++i], 1, 1 << 24));
        } else if (std::strcmp(argv[i], "--from-block") == 0 && i + 1 < argc) {
            from_block = static_cast<std::size_t>(
                common::parse_flag_int("--from-block", argv[++i], 0, 1 << 24));
        } else {
            return usage(argv[0]);
        }
    }

    if (replay::sniff_capture_file(in_path) == replay::CaptureFormat::kTvcr) {
        auto reader = replay::TvcrReader::open(in_path);
        if (!reader.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", in_path.c_str(),
                         reader.error().message.c_str());
            return 1;
        }
        auto pcap = replay::export_tvcr_to_pcap(reader.value(), from_block);
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
                    from_block, out_path.c_str(), pcap.value().size());
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
