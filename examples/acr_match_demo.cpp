// What the second party sees: an evening of TV, reconstructed server-side.
//
// Simulates a household watching a broadcast channel for two hours while
// the ACR pipeline runs, then prints the viewing timeline the ACR operator
// reconstructed purely from content hashes — programme titles, ad
// exposures, and the audience segments derived from them. This is the
// paper's core privacy point: "the fact that the hash of content rather
// than raw content is sent to ACR servers does not necessarily make the
// data anonymous".
#include <cstdio>
#include <iostream>
#include <algorithm>
#include <memory>

#include "fp/batch.hpp"
#include "fp/library.hpp"
#include "fp/matcher.hpp"
#include "fp/segments.hpp"
#include "fp/video_fp.hpp"
#include "tv/channel.hpp"

using namespace tvacr;

int main() {
    // The operator's content library and backend services.
    fp::ContentLibrary library;
    for (const auto& info : fp::builtin_catalog(2024)) library.add(info);
    const fp::MatchServer server(library);
    fp::AudienceProfiler profiler(library);

    // The household's channel (built from the same broadcast content world).
    std::vector<fp::ContentInfo> catalog;
    for (const auto& [id, entry] : library.entries()) catalog.push_back(entry.info);
    std::sort(catalog.begin(), catalog.end(),
              [](const fp::ContentInfo& a, const fp::ContentInfo& b) { return a.id < b.id; });
    const auto channel = tv::make_broadcast_channel(catalog, SimTime::minutes(12), 31337);

    constexpr std::uint64_t kDeviceId = 0x5EEDBEEF;
    std::cout << "Simulating 2 hours of linear TV, Samsung-style ACR (500 ms captures,\n"
              << "60 s uploads); device id " << std::hex << kDeviceId << std::dec << "\n\n";

    std::map<std::uint64_t, std::unique_ptr<fp::ContentStream>> streams;
    std::uint64_t last_reported = 0;
    int uploads = 0;
    int matched = 0;
    for (int minute = 0; minute < 120; ++minute) {
        // One upload per minute: 120 captures at 500 ms.
        fp::FingerprintBatch batch;
        batch.device_id = kDeviceId;
        batch.capture_period_ms = 500;
        for (int i = 0; i < 120; ++i) {
            const SimTime t = SimTime::minutes(minute) + SimTime::millis(500 * i);
            const auto playing = channel.at(t);
            auto& stream = streams[playing.content->id];
            if (!stream) {
                stream = std::make_unique<fp::ContentStream>(playing.content->seed,
                                                             playing.content->dynamics);
            }
            const fp::Frame frame = stream->frame_at(playing.offset);
            fp::CaptureRecord record;
            record.offset_ms = static_cast<std::uint32_t>(500 * i);
            record.video = fp::dhash(frame);
            record.detail = fp::frame_detail(frame);
            batch.records.push_back(record);
        }
        ++uploads;
        const auto match = server.match(batch);
        if (!match) continue;
        ++matched;
        profiler.record_match(kDeviceId, *match, SimTime::minutes(1));
        if (match->content_id != last_reported) {
            const auto* info = library.find(match->content_id);
            std::printf("  [%3d min] now watching: %-28s (%s/%s, offset %02lld:%02lld, "
                        "confidence %.0f%%)\n",
                        minute, info->title.c_str(), to_string(info->genre).c_str(),
                        to_string(info->kind).c_str(),
                        static_cast<long long>(match->content_offset.as_micros() / 60'000'000),
                        static_cast<long long>((match->content_offset.as_micros() / 1'000'000) %
                                               60),
                        match->confidence * 100);
            last_reported = match->content_id;
        }
    }

    std::printf("\nUploads: %d; recognized: %d (%.0f%%)\n", uploads, matched,
                100.0 * matched / uploads);

    const auto* profile = profiler.profile(kDeviceId);
    if (profile != nullptr) {
        std::printf("\nReconstructed profile for device %llx:\n",
                    static_cast<unsigned long long>(kDeviceId));
        std::printf("  total credited watch time: %.0f min across %llu events\n",
                    profile->total_watch_time.as_seconds() / 60,
                    static_cast<unsigned long long>(profile->events));
        for (const auto& [genre, time] : profile->by_genre) {
            std::printf("  %-10s %5.1f%%\n", to_string(genre).c_str(),
                        100.0 * profile->genre_share(genre));
        }
        std::printf("  audience segments:");
        for (const auto& segment : profiler.segments(kDeviceId)) {
            std::printf(" [%s]", segment.c_str());
        }
        std::printf("\n");
    }
    return matched * 2 >= uploads ? 0 : 1;
}
