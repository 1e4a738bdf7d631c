// Figure-1 pipeline bench + the encoding ablation (DESIGN.md §4):
//  - end-to-end match accuracy of the fingerprint -> match -> profile loop;
//  - encoding ablation: per-scenario upload bytes with RLE on vs off (the
//    content-driven compression that produces the HDMI/Antenna byte gap).
// Exits 1 when fewer than 90% of the dHash probes match their content.
#include <cstdio>

#include "fp/batch.hpp"
#include "fp/library.hpp"
#include "fp/matcher.hpp"
#include "fp/video_fp.hpp"

using namespace tvacr;

namespace {

fp::FingerprintBatch make_batch(const fp::ContentInfo& info, SimTime start, SimTime duration,
                                SimTime period) {
    const fp::ContentStream stream(info.seed, info.dynamics);
    fp::FingerprintBatch batch;
    batch.capture_period_ms = static_cast<std::uint16_t>(period.as_millis());
    const std::int64_t steps = duration / period;
    for (std::int64_t step = 0; step < steps; ++step) {
        const SimTime t = start + period * step;
        const fp::Frame frame = stream.frame_at(t);
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>((period * step).as_millis());
        record.video = fp::dhash(frame);
        record.detail = fp::frame_detail(frame);
        batch.records.push_back(record);
    }
    return batch;
}

}  // namespace

int main() {
    fp::ContentLibrary library;
    const auto catalog = fp::builtin_catalog(4242);
    for (const auto& info : catalog) library.add(info);
    const fp::MatchServer server(library);

    // --- End-to-end accuracy over many (content, offset) probes -------------
    int correct = 0;
    int total = 0;
    for (const auto& info : catalog) {
        for (int minute = 1; minute + 1 < info.duration / SimTime::minutes(1); minute += 7) {
            const auto batch = make_batch(info, SimTime::minutes(minute), SimTime::seconds(15),
                                          SimTime::millis(500));
            const auto match = server.match(batch);
            ++total;
            if (match && match->content_id == info.id) ++correct;
        }
    }
    std::printf("Match accuracy (dHash, 15 s @ 500 ms batches): %d/%d = %.1f%%\n", correct, total,
                100.0 * correct / total);

    // --- Encoding ablation ----------------------------------------------------
    std::printf("\nEncoding ablation: bytes per 15 s upload (1500 records @ 10 ms)\n");
    std::printf("%-16s %12s %12s %8s\n", "content", "raw", "rle", "ratio");
    struct Case {
        const char* label;
        fp::ContentKind kind;
    };
    const Case cases[] = {
        {"live-broadcast", fp::ContentKind::kLiveBroadcast},
        {"hdmi-console", fp::ContentKind::kHdmiConsole},
        {"hdmi-desktop", fp::ContentKind::kHdmiDesktop},
        {"home-screen", fp::ContentKind::kHomeScreen},
    };
    for (const auto& c : cases) {
        fp::ContentInfo info;
        info.seed = 999;
        info.dynamics = fp::ContentDynamics::for_kind(c.kind);
        const auto batch =
            make_batch(info, SimTime::minutes(1), SimTime::seconds(15), SimTime::millis(10));
        const auto raw = batch.serialize(fp::BatchEncoding::kCompactRaw);
        const auto rle = batch.serialize(fp::BatchEncoding::kCompactRle);
        std::printf("%-16s %11zuB %11zuB %7.2f\n", c.label, raw.size(), rle.size(),
                    static_cast<double>(rle.size()) / static_cast<double>(raw.size()));
    }

    return correct * 10 >= total * 9 ? 0 : 1;
}
