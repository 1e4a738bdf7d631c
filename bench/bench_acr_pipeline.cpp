// Figure-1 pipeline bench + design ablations (DESIGN.md §4):
//  - end-to-end match accuracy of the fingerprint -> match -> profile loop;
//  - encoding ablation: per-scenario upload bytes with RLE on vs off (the
//    content-driven compression that produces the HDMI/Antenna byte gap);
//  - hash ablation: dHash vs blockhash matching accuracy.
#include <cstdio>
#include <memory>
#include <map>

#include "fp/audio.hpp"
#include "fp/batch.hpp"
#include "fp/library.hpp"
#include "fp/matcher.hpp"
#include "fp/video_fp.hpp"

using namespace tvacr;

namespace {

fp::FingerprintBatch make_batch(const fp::ContentInfo& info, SimTime start, SimTime duration,
                                SimTime period, fp::VideoHash (*hash_fn)(const fp::Frame&)) {
    const fp::ContentStream stream(info.seed, info.dynamics);
    fp::FingerprintBatch batch;
    batch.capture_period_ms = static_cast<std::uint16_t>(period.as_millis());
    const std::int64_t steps = duration / period;
    for (std::int64_t step = 0; step < steps; ++step) {
        const SimTime t = start + period * step;
        const fp::Frame frame = stream.frame_at(t);
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>((period * step).as_millis());
        record.video = hash_fn(frame);
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
                                          SimTime::millis(500), fp::dhash);
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
            make_batch(info, SimTime::minutes(1), SimTime::seconds(15), SimTime::millis(10),
                       fp::dhash);
        const auto raw = batch.serialize(fp::BatchEncoding::kCompactRaw);
        const auto rle = batch.serialize(fp::BatchEncoding::kCompactRle);
        std::printf("%-16s %11zuB %11zuB %7.2f\n", c.label, raw.size(), rle.size(),
                    static_cast<double>(rle.size()) / static_cast<double>(raw.size()));
    }

    // --- Hash ablation ----------------------------------------------------------
    fp::ContentLibrary block_library;
    for (auto info : catalog) block_library.add(info);
    // blockhash accuracy measured against the dHash-indexed library is
    // meaningless; instead compare intra-scene stability.
    int dhash_close = 0;
    int blockhash_close = 0;
    int pairs = 0;
    const fp::ContentStream stream(7331,
                                   fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast));
    for (int s = 0; s < 300; ++s) {
        const SimTime a = SimTime::millis(s * 200);
        const SimTime b = a + SimTime::millis(10);
        if (stream.scene_index_at(a) != stream.scene_index_at(b)) continue;
        ++pairs;
        if (fp::hamming(fp::dhash(stream.frame_at(a)), fp::dhash(stream.frame_at(b))) <= 4) {
            ++dhash_close;
        }
        if (fp::hamming(fp::blockhash(stream.frame_at(a)), fp::blockhash(stream.frame_at(b))) <=
            4) {
            ++blockhash_close;
        }
    }
    std::printf("\nHash ablation, intra-scene stability (Hamming <= 4 across 10 ms):\n");
    std::printf("  dhash:     %d/%d\n", dhash_close, pairs);
    std::printf("  blockhash: %d/%d\n", blockhash_close, pairs);

    // --- Audio-modality ablation: identify content from sound alone ----------
    fp::AudioMatchServer audio_server;
    for (std::size_t i = 0; i < 5; ++i) {
        fp::ContentInfo trimmed = catalog[i];
        trimmed.duration = SimTime::minutes(5);
        audio_server.add_reference(trimmed);
    }
    int audio_correct = 0;
    int audio_total = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        const fp::ContentStream stream(catalog[i].seed, catalog[i].dynamics);
        for (int offset_s : {30, 120, 210}) {
            const auto probe = fp::synthesize_audio(stream, SimTime::seconds(offset_s),
                                                    SimTime::seconds(25));
            const auto match = audio_server.match(fp::audio_fingerprint(probe));
            ++audio_total;
            if (match && match->content_id == catalog[i].id) ++audio_correct;
        }
    }
    std::printf("\nAudio-modality ablation (25 s landmark probes vs 5 min references):\n");
    std::printf("  audio-only identification: %d/%d\n", audio_correct, audio_total);

    return correct * 10 >= total * 9 && audio_correct * 10 >= audio_total * 7 ? 0 : 1;
}
