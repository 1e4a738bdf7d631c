// Tests for the fingerprinting substrate: content synthesis, perceptual
// hashing, batch encoding, the match server and audience profiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <latch>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fp/batch.hpp"
#include "fp/content.hpp"
#include "fp/library.hpp"
#include "fp/matcher.hpp"
#include "fp/segments.hpp"
#include "fp/swar.hpp"
#include "fp/video_fp.hpp"

namespace tvacr::fp {
namespace {

// ---------------------------------------------------------------- content

TEST(ContentStreamTest, FramesAreDeterministic) {
    const ContentStream a(42, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    const ContentStream b(42, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    for (int ms : {0, 10, 500, 5000, 60000}) {
        EXPECT_EQ(a.frame_at(SimTime::millis(ms)).luma, b.frame_at(SimTime::millis(ms)).luma);
    }
}

TEST(ContentStreamTest, DifferentSeedsProduceDifferentContent) {
    const ContentStream a(1, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    const ContentStream b(2, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    EXPECT_NE(a.frame_at(SimTime::seconds(1)).luma, b.frame_at(SimTime::seconds(1)).luma);
}

TEST(ContentStreamTest, SceneIndexIsMonotonic) {
    const ContentStream stream(7, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    std::size_t previous = 0;
    for (int s = 0; s < 120; ++s) {
        const std::size_t scene = stream.scene_index_at(SimTime::seconds(s));
        EXPECT_GE(scene, previous);
        previous = scene;
    }
    // Live broadcast cuts roughly every 3.5 s: two minutes spans many scenes.
    EXPECT_GT(previous, 15U);
}

TEST(ContentStreamTest, HomeScreenBarelyChanges) {
    const ContentStream live(5, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    const ContentStream home(5, ContentDynamics::for_kind(ContentKind::kHomeScreen));
    EXPECT_GT(live.scene_index_at(SimTime::minutes(2)),
              4 * std::max<std::size_t>(home.scene_index_at(SimTime::minutes(2)), 1));
}

TEST(ContentStreamTest, AudioIsDeterministicPerScene) {
    const ContentStream stream(9, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    const auto a = stream.audio_at(SimTime::millis(100));
    const auto b = stream.audio_at(SimTime::millis(110));
    if (stream.scene_index_at(SimTime::millis(100)) ==
        stream.scene_index_at(SimTime::millis(110))) {
        for (int band = 0; band < AudioWindow::kBands; ++band) {
            EXPECT_FLOAT_EQ(a.band_energy[band], b.band_energy[band]);
        }
    }
}

TEST(ContentDynamicsTest, KindsDifferInTheRightDirection) {
    const auto live = ContentDynamics::for_kind(ContentKind::kLiveBroadcast);
    const auto hdmi = ContentDynamics::for_kind(ContentKind::kHdmiDesktop);
    const auto home = ContentDynamics::for_kind(ContentKind::kHomeScreen);
    EXPECT_LT(live.static_scene_fraction, hdmi.static_scene_fraction);
    EXPECT_LT(hdmi.static_scene_fraction, home.static_scene_fraction);
    EXPECT_LT(live.mean_scene_length, hdmi.mean_scene_length);
}

// -------------------------------------------- frames and fingerprint_at

constexpr ContentKind kAllKinds[] = {
    ContentKind::kLiveBroadcast, ContentKind::kFastChannel, ContentKind::kOttStream,
    ContentKind::kHdmiDesktop,   ContentKind::kHdmiConsole, ContentKind::kScreenCast,
    ContentKind::kHomeScreen,    ContentKind::kAdvertisement,
};
constexpr std::uint64_t kSweepSeeds[] = {1, 77, 2024};

/// The frame synthesized pixel by pixel, with no per-scene cache: the
/// oracle frame_at must reproduce.
Frame reference_frame(const ContentStream& stream, SimTime t) {
    const std::size_t scene = stream.scene_index_at(t);
    const std::uint64_t scene_seed = splitmix64(stream.seed() ^ (scene * 0xD1B54A32D192ED03ULL));
    Frame frame = make_frame(stream.width(), stream.height());
    for (int y = 0; y < frame.height; ++y) {
        for (int x = 0; x < frame.width; ++x) {
            const std::uint64_t block =
                splitmix64(scene_seed ^ (static_cast<std::uint64_t>(x / 4) << 16) ^
                           static_cast<std::uint64_t>(y / 4));
            const std::uint64_t fine =
                splitmix64(scene_seed ^ (static_cast<std::uint64_t>(x) << 20) ^
                           (static_cast<std::uint64_t>(y) << 8) ^ 1);
            frame.at(x, y) =
                static_cast<std::uint8_t>(((block & 0xFF) * 3 + (fine & 0xFF)) / 4);
        }
    }
    if (stream.scene_is_static(scene)) return frame;
    const std::uint64_t frame_index = static_cast<std::uint64_t>(t.as_millis() / 10);
    const std::uint64_t motion_seed = splitmix64(scene_seed ^ frame_index ^ 0x4070104Eu);
    const double gate = static_cast<double>(splitmix64(motion_seed) >> 11) * 0x1.0p-53;
    if (gate < stream.dynamics().motion_rate) {
        std::uint64_t h = motion_seed;
        for (int k = 0; k < 2; ++k) {
            h = splitmix64(h);
            const int x = static_cast<int>(h % static_cast<std::uint64_t>(frame.width));
            const int y = static_cast<int>((h >> 16) % static_cast<std::uint64_t>(frame.height));
            frame.at(x, y) = static_cast<std::uint8_t>(frame.at(x, y) + 25);
        }
    }
    return frame;
}

/// Walks `span` at the 10 ms capture cadence and checks fingerprint_at
/// against dhash/frame_detail of frame_at, each read from its own stream.
void expect_fingerprints_match(ContentKind kind, std::uint64_t seed, int width, int height,
                               SimTime span) {
    const auto dynamics = ContentDynamics::for_kind(kind);
    const ContentStream fast(seed, dynamics, width, height);
    const ContentStream frames(seed, dynamics, width, height);
    for (SimTime t; t < span; t += SimTime::millis(10)) {
        const FrameFingerprint got = fast.fingerprint_at(t);
        const Frame frame = frames.frame_at(t);
        ASSERT_EQ(got.video, dhash(frame)) << to_string(kind) << " seed " << seed << " " << width
                                           << "x" << height << " t=" << t.as_millis() << "ms";
        ASSERT_EQ(got.detail, frame_detail(frame))
            << to_string(kind) << " seed " << seed << " " << width << "x" << height
            << " t=" << t.as_millis() << "ms";
    }
}

std::string kind_name(const ::testing::TestParamInfo<ContentKind>& info) {
    std::string name = to_string(info.param);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

class FingerprintSweep : public ::testing::TestWithParam<ContentKind> {};

TEST_P(FingerprintSweep, MatchesReferenceOverAnHour) {
    for (const std::uint64_t seed : kSweepSeeds) {
        expect_fingerprints_match(GetParam(), seed, 36, 16, SimTime::minutes(60));
    }
}

TEST_P(FingerprintSweep, MatchesReferenceOnUnevenCells) {
    // 37x17: downsample cells of unequal width and height.
    for (const std::uint64_t seed : kSweepSeeds) {
        expect_fingerprints_match(GetParam(), seed, 37, 17, SimTime::minutes(10));
    }
}

TEST_P(FingerprintSweep, MatchesReferenceOnOverlappingCells) {
    // 8x4 is narrower and shorter than the 9x8 grid, so one pixel feeds
    // several downsample cells.
    for (const std::uint64_t seed : kSweepSeeds) {
        expect_fingerprints_match(GetParam(), seed, 8, 4, SimTime::minutes(10));
    }
}

TEST_P(FingerprintSweep, MatchesPerPixelOracleWhereCellsSharePixels) {
    // Pixels that sit in two or more cells (5x3, and 5x16 and 36x3 on one
    // axis only) and grids of one-pixel cells (9x8, 10x9), checked against
    // the per-pixel oracle frame rather than frame_at.
    constexpr std::pair<int, int> kSizes[] = {{9, 8}, {10, 9}, {5, 3}, {5, 16}, {36, 3}};
    const auto dynamics = ContentDynamics::for_kind(GetParam());
    for (const auto& [width, height] : kSizes) {
        for (const std::uint64_t seed : kSweepSeeds) {
            const ContentStream fast(seed, dynamics, width, height);
            const ContentStream frames(seed, dynamics, width, height);
            for (SimTime t; t < SimTime::minutes(3); t += SimTime::millis(10)) {
                const FrameFingerprint got = fast.fingerprint_at(t);
                const Frame frame = reference_frame(frames, t);
                ASSERT_EQ(got.video, dhash(frame)) << width << "x" << height << " seed " << seed
                                                   << " t=" << t.as_millis() << "ms";
                ASSERT_EQ(got.detail, frame_detail(frame)) << width << "x" << height << " seed "
                                                           << seed << " t=" << t.as_millis()
                                                           << "ms";
            }
        }
    }
}

TEST_P(FingerprintSweep, FrameAtMatchesPerPixelSynthesis) {
    const ContentStream stream(kSweepSeeds[0], ContentDynamics::for_kind(GetParam()));
    for (SimTime t; t < SimTime::minutes(3); t += SimTime::millis(10)) {
        ASSERT_EQ(stream.frame_at(t).luma, reference_frame(stream, t).luma)
            << "t=" << t.as_millis() << "ms";
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FingerprintSweep, ::testing::ValuesIn(kAllKinds), kind_name);

TEST(FingerprintAtTest, RandomAccessMatchesReference) {
    // The scene cache is keyed on the scene, not on reading in time order.
    const auto dynamics = ContentDynamics::for_kind(ContentKind::kLiveBroadcast);
    const ContentStream stream(5, dynamics);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        const SimTime t = SimTime::millis(10 * rng.uniform(0, 360'000));
        const Frame frame = reference_frame(stream, t);
        EXPECT_EQ(stream.frame_at(t).luma, frame.luma);
        const FrameFingerprint got = stream.fingerprint_at(t);
        EXPECT_EQ(got.video, dhash(frame));
        EXPECT_EQ(got.detail, frame_detail(frame));
    }
}

/// Frames in the first `span` of a stream whose motion edits, compared with
/// the scene's base plane, satisfy `pick(base, frame)`. The base plane is
/// each pixel's most common value across the scene: motion edits touch at
/// most two pixels of a frame.
template <typename Pick>
std::vector<SimTime> frames_where(const ContentStream& stream, SimTime span, Pick pick) {
    std::vector<SimTime> picked;
    SimTime t;
    while (t < span) {
        const std::size_t scene = stream.scene_index_at(t);
        std::vector<std::pair<SimTime, Frame>> frames;
        for (; t < span && stream.scene_index_at(t) == scene; t += SimTime::millis(10)) {
            frames.emplace_back(t, stream.frame_at(t));
        }
        if (frames.size() < 40) continue;
        std::vector<std::uint8_t> base(frames.front().second.luma.size());
        for (std::size_t p = 0; p < base.size(); ++p) {
            std::array<int, 256> counts{};
            for (const auto& [when, frame] : frames) ++counts[frame.luma[p]];
            base[p] = static_cast<std::uint8_t>(
                std::max_element(counts.begin(), counts.end()) - counts.begin());
        }
        for (const auto& [when, frame] : frames) {
            if (pick(base, frame.luma)) picked.push_back(when);
        }
    }
    return picked;
}

void expect_fingerprints_at(const ContentStream& stream, const std::vector<SimTime>& times) {
    const ContentStream fast(stream.seed(), stream.dynamics(), stream.width(), stream.height());
    for (const SimTime t : times) {
        const Frame frame = reference_frame(stream, t);
        const FrameFingerprint got = fast.fingerprint_at(t);
        EXPECT_EQ(got.video, dhash(frame)) << "t=" << t.as_millis() << "ms";
        EXPECT_EQ(got.detail, frame_detail(frame)) << "t=" << t.as_millis() << "ms";
    }
}

TEST(FingerprintAtTest, BothEditsOnOnePixel) {
    // One pixel moved by 2 x 25 and nothing else: both edits hit it.
    const auto both_on_one = [](const std::vector<std::uint8_t>& base,
                                const std::vector<std::uint8_t>& luma) {
        int changed = 0;
        bool doubled = false;
        for (std::size_t p = 0; p < base.size(); ++p) {
            if (luma[p] == base[p]) continue;
            ++changed;
            doubled = luma[p] == static_cast<std::uint8_t>(base[p] + 50);
        }
        return changed == 1 && doubled;
    };
    for (const auto& [width, height] : {std::pair{36, 16}, std::pair{8, 4}}) {
        const ContentStream stream(3, ContentDynamics::for_kind(ContentKind::kLiveBroadcast),
                                   width, height);
        const auto times = frames_where(stream, SimTime::minutes(5), both_on_one);
        EXPECT_FALSE(times.empty()) << width << "x" << height;
        expect_fingerprints_at(stream, times);
    }
}

TEST(FingerprintAtTest, EditWrapsPast255) {
    const auto wrapped = [](const std::vector<std::uint8_t>& base,
                            const std::vector<std::uint8_t>& luma) {
        for (std::size_t p = 0; p < base.size(); ++p) {
            if (luma[p] < base[p]) return true;
        }
        return false;
    };
    for (const auto& [width, height] : {std::pair{36, 16}, std::pair{8, 4}}) {
        const ContentStream stream(3, ContentDynamics::for_kind(ContentKind::kLiveBroadcast),
                                   width, height);
        const auto times = frames_where(stream, SimTime::minutes(5), wrapped);
        EXPECT_FALSE(times.empty()) << width << "x" << height;
        expect_fingerprints_at(stream, times);
    }
}

// ------------------------------------------------ read-ahead and video_at

// 8x4 and 5x3 are narrower and shorter than the 9x8 dhash grid, so one
// pixel sits in several cells on both axes; 9x8 and 10x9 have cells of one
// pixel row or column.
constexpr std::pair<int, int> kFrameSizes[] = {{36, 16}, {8, 4}, {37, 17},
                                               {9, 8},   {10, 9}, {5, 3}};

/// Reads `times` in order through fingerprint_at of `fast` and checks each
/// against dhash/frame_detail of frame_at from a separate stream.
void expect_reads_match(const ContentStream& fast, const std::vector<SimTime>& times) {
    const ContentStream frames(fast.seed(), fast.dynamics(), fast.width(), fast.height());
    for (std::size_t i = 0; i < times.size(); ++i) {
        const SimTime t = times[i];
        const FrameFingerprint got = fast.fingerprint_at(t);
        const Frame frame = frames.frame_at(t);
        ASSERT_EQ(got.video, dhash(frame)) << fast.width() << "x" << fast.height() << " read "
                                           << i << " t=" << t.as_micros() << "us";
        ASSERT_EQ(got.detail, frame_detail(frame)) << fast.width() << "x" << fast.height()
                                                   << " read " << i << " t=" << t.as_micros()
                                                   << "us";
    }
}

/// Runs `reads(stream)` for every frame size and sweep seed of `kind`.
template <typename Reads>
void expect_pattern_matches(ContentKind kind, Reads reads) {
    for (const auto& [width, height] : kFrameSizes) {
        for (const std::uint64_t seed : kSweepSeeds) {
            const ContentStream stream(seed, ContentDynamics::for_kind(kind), width, height);
            const std::vector<SimTime> times = reads(stream);
            ASSERT_FALSE(times.empty());
            expect_reads_match(stream, times);
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
}

/// The span of `n` 10 ms capture frames.
SimTime in_frames(std::int64_t n) { return SimTime::millis(10 * n); }

class ReadAheadSweep : public ::testing::TestWithParam<ContentKind> {};

TEST_P(ReadAheadSweep, JumpBackIntoComputedBlock) {
    // Frame offsets from a start: a sequential run computes the block of
    // frames 1..64, then reads jump back into it, skip past it, return to
    // it and run on into the next block.
    constexpr int kOffsets[] = {0, 1, 2, 3, 4, 5, 2, 3, 9, 70, 4, 5, 6, 7, 8, 9, 10, 1, 0, 1, 2, 3};
    expect_pattern_matches(GetParam(), [&](const ContentStream&) {
        std::vector<SimTime> times;
        for (SimTime start = SimTime::millis(4); start < SimTime::minutes(5);
             start += SimTime::millis(7310)) {
            for (const int offset : kOffsets) times.push_back(start + in_frames(offset));
            for (int offset = 4; offset <= 70; ++offset) times.push_back(start + in_frames(offset));
        }
        return times;
    });
}

TEST_P(ReadAheadSweep, InterleavedSequentialReaders) {
    // Channel flipping: two sequential readers take turns on one stream,
    // three frames a turn. One leads by 37 s, one by 4 frames (inside the
    // other's block).
    expect_pattern_matches(GetParam(), [](const ContentStream&) {
        std::vector<SimTime> times;
        for (const SimTime lead : {SimTime::millis(37'003), in_frames(4)}) {
            for (SimTime t = SimTime::seconds(60); t < SimTime::seconds(90); t += in_frames(3)) {
                for (const SimTime reader : {t, t + lead}) {
                    for (std::int64_t k = 0; k < 3; ++k) times.push_back(reader + in_frames(k));
                }
            }
        }
        return times;
    });
}

TEST_P(ReadAheadSweep, RepeatedAndSubFrameReads) {
    expect_pattern_matches(GetParam(), [](const ContentStream&) {
        std::vector<SimTime> times;
        for (SimTime t; t < SimTime::seconds(40); t += in_frames(1)) {
            times.push_back(t);
            times.push_back(t);
            times.push_back(t + SimTime::millis(3));
        }
        return times;
    });
}

TEST_P(ReadAheadSweep, ScatteredAndBackwardReads) {
    // Samsung's 500 ms cadence (a miss fills a block at the 50-frame
    // stride, which the scene's later reads hit), then 10 ms frames read
    // backward: each lies just before the block the previous read
    // computed, so every read misses.
    expect_pattern_matches(GetParam(), [](const ContentStream&) {
        std::vector<SimTime> times;
        for (SimTime t = SimTime::millis(3); t < SimTime::minutes(3); t += SimTime::millis(500)) {
            times.push_back(t);
        }
        for (SimTime t = SimTime::seconds(30); t > SimTime::seconds(20); t -= in_frames(1)) {
            times.push_back(t);
        }
        return times;
    });
}

TEST_P(ReadAheadSweep, BlocksStopAtSceneEnd) {
    // Sequential runs that start 1-70 frames before a scene ends, at every
    // phase of the 10 ms frame, so that a block of every length up to
    // kLanes is cut at the end, and a 1 ms walk across the end (the frame
    // that straddles it belongs to two scenes).
    expect_pattern_matches(GetParam(), [](const ContentStream& stream) {
        std::vector<SimTime> times;
        for (std::size_t scene = 1; scene <= 12; ++scene) {
            const SimTime end = stream.scene_start(scene);
            for (std::int64_t lead = 1; lead <= 70; ++lead) {
                const SimTime from = end - in_frames(lead) - SimTime::micros(1'100 * lead);
                for (std::int64_t k = 0; k < lead + 3; ++k) times.push_back(from + in_frames(k));
            }
            for (SimTime t = end - SimTime::millis(25); t < end + SimTime::millis(25);
                 t += SimTime::millis(1)) {
                times.push_back(t);
            }
        }
        return times;
    });
}

TEST_P(ReadAheadSweep, StridedReads) {
    expect_pattern_matches(GetParam(), [](const ContentStream& stream) {
        std::vector<SimTime> times;
        // Constant strides: each miss fills a block at the reader's stride.
        for (const std::int64_t stride : {2, 7, 50, 97}) {
            const SimTime from = SimTime::seconds(stride) + SimTime::millis(3);
            for (std::int64_t k = 0; k < 300; ++k) times.push_back(from + in_frames(k * stride));
        }
        // 10 ms -> 500 ms -> 10 ms inside scenes long enough to hold it.
        std::size_t switched = 0;
        for (std::size_t scene = 1; scene < 400 && switched < 12; ++scene) {
            const SimTime from = stream.scene_start(scene) + SimTime::millis(4);
            if (from + SimTime::millis(1600) >= stream.scene_start(scene + 1)) continue;
            ++switched;
            SimTime t = from;
            for (int k = 0; k < 5; ++k, t += in_frames(1)) times.push_back(t);
            for (int k = 0; k < 3; ++k, t += SimTime::millis(500)) times.push_back(t);
            for (int k = 0; k < 5; ++k, t += in_frames(1)) times.push_back(t);
        }
        // Two reads `stride` apart fill a block at frames b, b + stride, ...;
        // a third read lands at b + j for every j up to two strides (between
        // lanes, which must miss, or on one), then on lane 63 and just past it.
        for (const std::int64_t stride : {2, 7, 50}) {
            for (std::int64_t j = 1; j <= 2 * stride + 1; ++j) {
                const SimTime b = SimTime::seconds(200 + 40 * j) + SimTime::millis(6);
                times.push_back(b - in_frames(stride));
                times.push_back(b);
                times.push_back(b + in_frames(j));
            }
            const SimTime b = SimTime::seconds(190) + SimTime::millis(6);
            for (const std::int64_t lane : {63, 64}) {
                times.push_back(b - in_frames(stride));
                times.push_back(b);
                times.push_back(b + in_frames(lane * stride));
            }
        }
        EXPECT_GT(switched, 0U);
        return times;
    });
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ReadAheadSweep, ::testing::ValuesIn(kAllKinds), kind_name);

TEST(ReadAheadTest, StaticScenes) {
    // Static scenes are served from the basis, with no read-ahead pass.
    for (const ContentKind kind : {ContentKind::kHomeScreen, ContentKind::kHdmiDesktop}) {
        expect_pattern_matches(kind, [](const ContentStream& stream) {
            std::vector<SimTime> times;
            std::size_t in_static = 0;
            for (SimTime t; t < SimTime::minutes(3); t += in_frames(1)) {
                times.push_back(t);
                in_static += stream.scene_is_static(stream.scene_index_at(t)) ? 1 : 0;
            }
            EXPECT_GT(in_static, 0U);
            return times;
        });
    }
}

// The read-ahead lane loop compiled at the baseline ISA and for AVX2: the
// two versions the library's dispatch chooses between.
using LaneKernel = void (*)(std::span<const std::uint8_t>, std::span<const LaneEdit>,
                            std::span<std::uint32_t>);

void lanes_baseline(std::span<const std::uint8_t> plane, std::span<const LaneEdit> edits,
                    std::span<std::uint32_t> h) {
    fnv_lanes(plane, edits, h);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
[[gnu::target("avx2")]] void lanes_avx2(std::span<const std::uint8_t> plane,
                                        std::span<const LaneEdit> edits,
                                        std::span<std::uint32_t> h) {
    fnv_lanes(plane, edits, h);
}
#endif

/// Checks `kernel` against one scalar FNV-1a chain per lane over that
/// lane's edited plane, for 1-64 lanes and 0-128 edits. Edit 0 is on pixel
/// 0, edit 1 on the last pixel, and edit 2 on edit 0's lane and pixel.
void expect_lanes_match(LaneKernel kernel) {
    Rng rng(20);
    std::vector<std::uint8_t> plane(36 * 16);
    for (std::uint8_t& pixel : plane) pixel = static_cast<std::uint8_t>(rng.uniform(0, 255));
    for (std::size_t lanes = 1; lanes <= 64; ++lanes) {
        const std::size_t width = (lanes + 7) / 8 * 8;
        for (std::size_t edit_count = 0; edit_count <= 128; ++edit_count) {
            std::vector<std::vector<std::uint8_t>> frames(width, plane);
            std::vector<LaneEdit> edits;
            for (std::size_t e = 0; e < edit_count; ++e) {
                std::size_t lane = static_cast<std::size_t>(rng.uniform(0, lanes - 1));
                std::size_t index = static_cast<std::size_t>(rng.uniform(0, plane.size() - 1));
                if (e == 0) index = 0;
                if (e == 1) index = plane.size() - 1;
                if (e == 2) {
                    lane = edits[0].lane;
                    index = edits[0].index;
                }
                const std::uint8_t before = frames[lane][index];
                const auto after = static_cast<std::uint8_t>(rng.uniform(0, 255));
                frames[lane][index] = after;
                edits.push_back({static_cast<std::uint32_t>(index),
                                 static_cast<std::uint8_t>(lane),
                                 static_cast<std::uint8_t>(before ^ after)});
            }
            std::stable_sort(edits.begin(), edits.end(), [](const LaneEdit& a, const LaneEdit& b) {
                return a.index < b.index;
            });
            std::vector<std::uint32_t> h(width);
            kernel(plane, edits, h);
            for (std::size_t k = 0; k < width; ++k) {
                std::uint32_t want = 2166136261U;
                for (const std::uint8_t pixel : frames[k]) want = (want ^ pixel) * 16777619U;
                ASSERT_EQ(h[k], want) << lanes << " lanes, " << edit_count << " edits, lane " << k;
            }
        }
    }
}

TEST(FnvLanesTest, BaselineMatchesScalarChains) { expect_lanes_match(lanes_baseline); }

TEST(FnvLanesTest, Avx2MatchesScalarChains) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU has no AVX2";
    expect_lanes_match(lanes_avx2);
#else
    GTEST_SKIP() << "AVX2 is an x86-64 GCC/Clang build only";
#endif
}

class VideoAtSweep : public ::testing::TestWithParam<ContentKind> {};

TEST_P(VideoAtSweep, EqualsFingerprintVideo) {
    // video_at and fingerprint_at take turns in one scene; both are checked
    // against the per-pixel oracle frame.
    for (const auto& [width, height] : kFrameSizes) {
        const auto dynamics = ContentDynamics::for_kind(GetParam());
        const ContentStream stream(kSweepSeeds[1], dynamics, width, height);
        const ContentStream frames(kSweepSeeds[1], dynamics, width, height);
        for (SimTime t; t < SimTime::minutes(10); t += SimTime::millis(70)) {
            const Frame frame = reference_frame(frames, t);
            ASSERT_EQ(stream.video_at(t), dhash(frame))
                << width << "x" << height << " t=" << t.as_millis() << "ms";
            const FrameFingerprint got = stream.fingerprint_at(t);
            ASSERT_EQ(got.video, dhash(frame));
            ASSERT_EQ(got.detail, frame_detail(frame));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, VideoAtSweep, ::testing::ValuesIn(kAllKinds), kind_name);

TEST(VideoAtTest, ReferenceTrackIsTheFingerprintVideoTrack) {
    ContentLibrary library;
    const std::vector<ContentInfo> catalog = builtin_catalog(2024);
    for (const ContentInfo& info : catalog) library.add(info);
    for (const ContentInfo& info : catalog) {
        const ContentStream stream(info.seed, info.dynamics);
        const std::span<const VideoHash> track = library.reference_hashes(info.id);
        ASSERT_EQ(static_cast<std::int64_t>(track.size()),
                  info.duration / ContentLibrary::kReferencePeriod);
        for (std::size_t step = 0; step < track.size(); ++step) {
            const SimTime t = ContentLibrary::kReferencePeriod * static_cast<std::int64_t>(step);
            ASSERT_EQ(track[step], stream.fingerprint_at(t).video)
                << info.title << " step " << step;
        }
    }
}

// ----------------------------------------------------------------- hashing

Frame test_frame(std::uint64_t seed) {
    const ContentStream stream(seed, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    return stream.frame_at(SimTime::seconds(1));
}

TEST(VideoHashTest, DhashIsStableAndSeedSensitive) {
    EXPECT_EQ(dhash(test_frame(1)), dhash(test_frame(1)));
    EXPECT_NE(dhash(test_frame(1)), dhash(test_frame(2)));
}

TEST(VideoHashTest, DhashRobustToSmallPerturbation) {
    Frame frame = test_frame(3);
    const VideoHash original = dhash(frame);
    frame.at(5, 5) = static_cast<std::uint8_t>(frame.at(5, 5) + 60);
    frame.at(20, 10) = static_cast<std::uint8_t>(frame.at(20, 10) + 60);
    EXPECT_LE(hamming(original, dhash(frame)), 6);
}

TEST(VideoHashTest, ConsecutiveFramesOfOneSceneStayClose) {
    const ContentStream stream(11, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    const SimTime t0 = SimTime::millis(1000);
    const std::size_t scene = stream.scene_index_at(t0);
    for (int k = 1; k < 20; ++k) {
        const SimTime t = t0 + SimTime::millis(10 * k);
        if (stream.scene_index_at(t) != scene) break;
        EXPECT_LE(hamming(dhash(stream.frame_at(t0)), dhash(stream.frame_at(t))), 8);
    }
}

TEST(VideoHashTest, DifferentScenesProduceDistantHashes) {
    const ContentStream stream(13, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    // Scan for two different scenes and compare their hashes.
    const std::size_t first_scene = stream.scene_index_at(SimTime::millis(0));
    SimTime later = SimTime::seconds(30);
    ASSERT_NE(stream.scene_index_at(later), first_scene);
    EXPECT_GT(hamming(dhash(stream.frame_at(SimTime::millis(0))), dhash(stream.frame_at(later))),
              12);
}

TEST(VideoHashTest, DownsamplePreservesDimensionsAndRange) {
    const Frame grid = downsample(test_frame(19), 9, 8);
    EXPECT_EQ(grid.width, 9);
    EXPECT_EQ(grid.height, 8);
    EXPECT_EQ(grid.luma.size(), 72U);
}

TEST(AudioHashTest, DeterministicAndBandSensitive) {
    AudioWindow window;
    window.band_energy[2] = 0.9F;
    window.band_energy[5] = 0.5F;
    const auto hash = audio_hash(window);
    EXPECT_EQ(hash >> 24, 2U);
    EXPECT_EQ((hash >> 16) & 0xFF, 5U);
    EXPECT_EQ(audio_hash(window), hash);
    window.band_energy[7] = 1.0F;
    EXPECT_NE(audio_hash(window), hash);
}

// ------------------------------------------------------------------ batches

FingerprintBatch sample_batch(bool with_audio, int records = 100, std::uint16_t period = 10) {
    FingerprintBatch batch;
    batch.device_id = 0xDE71CE;
    batch.start_ms = 123456;
    batch.capture_period_ms = period;
    batch.has_audio = with_audio;
    for (int i = 0; i < records; ++i) {
        CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i) * period;
        record.video = splitmix64(static_cast<std::uint64_t>(i / 10));  // runs of 10
        record.audio = with_audio ? static_cast<std::uint32_t>(i / 10) : 0;
        batch.records.push_back(record);
    }
    return batch;
}

TEST(BatchTest, RawRoundTrip) {
    const auto batch = sample_batch(true);
    const auto restored = FingerprintBatch::deserialize(batch.serialize(BatchEncoding::kRaw));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value(), batch);
}

TEST(BatchTest, DeltaRleRoundTripPreservesHashes) {
    const auto batch = sample_batch(true);
    const auto restored =
        FingerprintBatch::deserialize(batch.serialize(BatchEncoding::kDeltaRle));
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored.value().records.size(), batch.records.size());
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
        EXPECT_EQ(restored.value().records[i].video, batch.records[i].video);
        EXPECT_EQ(restored.value().records[i].audio, batch.records[i].audio);
    }
}

TEST(BatchTest, DeltaRleCompressesRuns) {
    const auto batch = sample_batch(false);  // runs of 10 identical hashes
    const auto raw = batch.serialize(BatchEncoding::kRaw);
    const auto rle = batch.serialize(BatchEncoding::kDeltaRle);
    EXPECT_LT(rle.size() * 5, raw.size());  // ~10x fewer full records
    EXPECT_EQ(run_count(batch), 10U);
}

TEST(BatchTest, DeltaRleDoesNotHelpUniqueHashes) {
    FingerprintBatch batch = sample_batch(false);
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
        batch.records[i].video = splitmix64(i);  // all distinct
    }
    const auto raw = batch.serialize(BatchEncoding::kRaw);
    const auto rle = batch.serialize(BatchEncoding::kDeltaRle);
    EXPECT_EQ(rle.size(), raw.size());
    EXPECT_EQ(run_count(batch), batch.records.size());
}

TEST(BatchTest, DeserializeRejectsCorruption) {
    auto wire = sample_batch(true).serialize(BatchEncoding::kRaw);
    wire[0] ^= 0xFF;  // magic
    EXPECT_FALSE(FingerprintBatch::deserialize(wire).ok());

    auto truncated = sample_batch(true).serialize(BatchEncoding::kRaw);
    truncated.resize(truncated.size() - 5);
    EXPECT_FALSE(FingerprintBatch::deserialize(truncated).ok());
}

TEST(BatchTest, CompactLongOffsetBatchFallsBackToRawAndRoundTrips) {
    // An outage backlog flush accumulates for >= 2^15 capture periods before
    // uploading. The compact encodings store offsets in 15 bits of period
    // units, so such a batch cannot use them; the encoder used to mask the
    // offset (& 0x7FFF), silently aliasing every late record onto an early
    // offset. It must fall back to kRaw and round-trip exactly.
    FingerprintBatch batch = sample_batch(false, 4, 10);
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
        batch.records[i].video = splitmix64(0xB0B0 + i);  // distinct: no RLE collapse
    }
    batch.records[0].offset_ms = 0;
    batch.records[1].offset_ms = 10 * 0x7FFF;  // last offset the compact form can hold
    batch.records[2].offset_ms = 10 * 0x8000;  // first that cannot
    batch.records[3].offset_ms = 10 * 0x23456;
    for (const auto encoding : {BatchEncoding::kCompactRaw, BatchEncoding::kCompactRle}) {
        const auto restored = FingerprintBatch::deserialize(batch.serialize(encoding));
        ASSERT_TRUE(restored.ok());
        EXPECT_EQ(restored.value(), batch);
    }
}

TEST(BatchTest, CompactOffsetAtLimitStaysCompact) {
    // 0x7FFF periods is still encodable: the fallback must not trigger, so
    // the compact wire stays smaller than raw (untagged, 16-bit offsets).
    FingerprintBatch batch = sample_batch(false, 3, 10);
    batch.records[2].offset_ms = 10 * 0x7FFF;
    EXPECT_LT(batch.serialize(BatchEncoding::kCompactRaw).size(),
              batch.serialize(BatchEncoding::kRaw).size());
}

TEST(BatchTest, DeserializeRejectsBackwardsCompactOffsets) {
    // A wire image whose compact offsets go backwards is exactly what the
    // pre-fix masking encoder produced for a backlog batch; records
    // accumulate in capture order, so a decoder seeing offsets decrease is
    // looking at corruption and must say so rather than return alias times.
    FingerprintBatch bad = sample_batch(false, 2, 10);
    bad.records[0].video = splitmix64(1);
    bad.records[1].video = splitmix64(2);
    bad.records[0].offset_ms = 50;
    bad.records[1].offset_ms = 20;
    const auto verdict = FingerprintBatch::deserialize(bad.serialize(BatchEncoding::kCompactRaw));
    ASSERT_FALSE(verdict.ok());
    EXPECT_NE(verdict.error().message.find("offset went backwards"), std::string::npos);
}

TEST(BatchTest, EmptyBatchRoundTrips) {
    FingerprintBatch batch;
    batch.device_id = 1;
    batch.capture_period_ms = 500;
    const auto restored =
        FingerprintBatch::deserialize(batch.serialize(BatchEncoding::kDeltaRle));
    ASSERT_TRUE(restored.ok());
    EXPECT_TRUE(restored.value().records.empty());
}

// ---------------------------------------------------------- library/matcher

struct MatcherFixture : ::testing::Test {
    ContentLibrary library;
    std::vector<ContentInfo> catalog = builtin_catalog(/*seed=*/555);

    void SetUp() override {
        for (const auto& info : catalog) library.add(info);
    }

    /// Builds the batch a client would upload while playing `info` from
    /// `start` for `duration` at `period`.
    [[nodiscard]] FingerprintBatch capture_batch(const ContentInfo& info, SimTime start,
                                                 SimTime duration, SimTime period) const {
        const ContentStream stream(info.seed, info.dynamics);
        FingerprintBatch batch;
        batch.device_id = 42;
        batch.start_ms = 0;
        batch.capture_period_ms = static_cast<std::uint16_t>(period.as_millis());
        const std::int64_t steps = duration / period;
        for (std::int64_t step = 0; step < steps; ++step) {
            const SimTime t = start + period * step;
            CaptureRecord record;
            record.offset_ms = static_cast<std::uint32_t>((period * step).as_millis());
            record.video = dhash(stream.frame_at(t));
            batch.records.push_back(record);
        }
        return batch;
    }
};

TEST_F(MatcherFixture, LibraryServesRegisteredContent) {
    EXPECT_EQ(library.size(), catalog.size());
    const auto hashes = library.reference_hashes(catalog[0].id);
    EXPECT_EQ(hashes.size(),
              static_cast<std::size_t>(catalog[0].duration / ContentLibrary::kReferencePeriod));
    EXPECT_TRUE(library.reference_hashes(999999).empty());
    EXPECT_EQ(library.find(catalog[0].id)->title, catalog[0].title);
    EXPECT_EQ(library.find(424242), nullptr);
}

TEST_F(MatcherFixture, IdentifiesContentFromAlignedBatch) {
    const MatchServer server(library);
    const auto batch =
        capture_batch(catalog[1], SimTime::minutes(5), SimTime::seconds(15), SimTime::millis(500));
    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, catalog[1].id);
    EXPECT_GT(match->confidence, 0.5);
    // Offset recovered within the alignment tolerance.
    const auto error = match->content_offset - SimTime::minutes(5);
    EXPECT_LE(std::abs(error.as_micros()), SimTime::seconds(4).as_micros());
}

TEST_F(MatcherFixture, IdentifiesContentFromMisalignedDenseBatch) {
    // LG-style: 10 ms captures, unaligned start (5 min + 137 ms).
    const MatchServer server(library);
    const auto batch = capture_batch(catalog[0], SimTime::minutes(5) + SimTime::millis(137),
                                     SimTime::seconds(15), SimTime::millis(10));
    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, catalog[0].id);
}

TEST_F(MatcherFixture, RejectsUnknownContent) {
    const MatchServer server(library);
    ContentInfo unknown;
    unknown.seed = 987654321;  // never registered
    unknown.dynamics = ContentDynamics::for_kind(ContentKind::kLiveBroadcast);
    const auto batch =
        capture_batch(unknown, SimTime::minutes(1), SimTime::seconds(15), SimTime::millis(500));
    EXPECT_FALSE(server.match(batch).has_value());
}

TEST_F(MatcherFixture, EmptyBatchDoesNotMatch) {
    const MatchServer server(library);
    EXPECT_FALSE(server.match(FingerprintBatch{}).has_value());
}

TEST_F(MatcherFixture, DistinguishesAllCatalogEntries) {
    const MatchServer server(library);
    int correct = 0;
    for (const auto& info : catalog) {
        const auto batch = capture_batch(info, SimTime::seconds(30),
                                         SimTime::seconds(20), SimTime::millis(500));
        const auto match = server.match(batch);
        if (match && match->content_id == info.id) ++correct;
    }
    // Perceptual hashing is probabilistic; require near-perfect accuracy.
    EXPECT_GE(correct, static_cast<int>(catalog.size()) - 1);
}

TEST_F(MatcherFixture, SurvivesRleRecompression) {
    // Matching after a serialize/deserialize round trip through the
    // compressed wire format (what the server actually receives).
    const MatchServer server(library);
    const auto original = capture_batch(catalog[2], SimTime::minutes(2), SimTime::seconds(15),
                                        SimTime::millis(500));
    const auto wire = original.serialize(BatchEncoding::kDeltaRle);
    const auto received = FingerprintBatch::deserialize(wire);
    ASSERT_TRUE(received.ok());
    const auto match = server.match(received.value());
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, catalog[2].id);
}

TEST_F(MatcherFixture, AudioCorroborationAgreesForTrueContent) {
    const MatchServer server(library);
    const auto& info = catalog[1];
    const ContentStream stream(info.seed, info.dynamics);
    fp::FingerprintBatch batch;
    batch.device_id = 9;
    batch.capture_period_ms = 500;
    batch.has_audio = true;
    for (int i = 0; i < 40; ++i) {
        const SimTime t = SimTime::minutes(4) + SimTime::millis(500 * i);
        CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(500 * i);
        record.video = dhash(stream.frame_at(t));
        record.audio = audio_hash(stream.audio_at(t));
        batch.records.push_back(record);
    }
    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, info.id);
    // Audio hashes are scene-level constants shared with the reference
    // track, so agreement at the correct alignment is near-total.
    EXPECT_GT(match->audio_agreement, 0.8);
}

TEST_F(MatcherFixture, AudioAgreementAbsentForVideoOnlyBatch) {
    const MatchServer server(library);
    const auto batch =
        capture_batch(catalog[0], SimTime::minutes(3), SimTime::seconds(15), SimTime::millis(500));
    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_DOUBLE_EQ(match->audio_agreement, -1.0);
}

/// The reference audio track the library must reproduce: a fresh stream
/// read in step order.
std::vector<std::uint32_t> reference_audio_oracle(const ContentInfo& info) {
    const ContentStream stream(info.seed, info.dynamics);
    std::vector<std::uint32_t> track;
    const std::int64_t steps = info.duration / ContentLibrary::kReferencePeriod;
    for (std::int64_t step = 0; step < steps; ++step) {
        track.push_back(audio_hash(stream.audio_at(ContentLibrary::kReferencePeriod * step)));
    }
    return track;
}

/// The reference video track the library must reproduce: a fresh
/// stream's video_at at every step.
std::vector<VideoHash> reference_video_oracle(const ContentInfo& info) {
    const ContentStream stream(info.seed, info.dynamics);
    std::vector<VideoHash> track;
    const std::int64_t steps = info.duration / ContentLibrary::kReferencePeriod;
    for (std::int64_t step = 0; step < steps; ++step) {
        track.push_back(stream.video_at(ContentLibrary::kReferencePeriod * step));
    }
    return track;
}

bool same_track(std::span<const VideoHash> got, const std::vector<VideoHash>& want) {
    return std::equal(got.begin(), got.end(), want.begin(), want.end());
}

TEST(ContentLibraryTest, TrackEqualsTheOracleInEitherReadOrder) {
    // The track is built on its first read, from the stream that
    // reference_audio also reads. One library reads each track before any
    // audio; the other reads every audio step first, so its tracks are
    // built from streams whose caches the audio reads have moved.
    const std::vector<ContentInfo> catalog = builtin_catalog(2024);
    ContentLibrary track_first;
    ContentLibrary audio_first;
    for (const ContentInfo& info : catalog) {
        track_first.add(info);
        audio_first.add(info);
    }
    for (const ContentInfo& info : catalog) {
        SCOPED_TRACE(info.title);
        const std::vector<VideoHash> want = reference_video_oracle(info);
        EXPECT_TRUE(same_track(track_first.reference_hashes(info.id), want));
        const auto steps = static_cast<std::int64_t>(want.size());
        for (std::int64_t step = 0; step < steps; ++step) {
            ASSERT_TRUE(audio_first.reference_audio(info.id, step).has_value()) << step;
        }
        EXPECT_TRUE(same_track(audio_first.reference_hashes(info.id), want));
    }
}

TEST(ContentLibraryTest, AudioBoundsHoldBeforeAnyTrackIsRead) {
    const std::vector<ContentInfo> catalog = builtin_catalog(2024);
    ContentLibrary library;
    for (const ContentInfo& info : catalog) library.add(info);
    for (const ContentInfo& info : catalog) {
        SCOPED_TRACE(info.title);
        const std::int64_t steps = info.duration / ContentLibrary::kReferencePeriod;
        EXPECT_EQ(library.reference_audio(info.id, -1), std::nullopt);
        EXPECT_EQ(library.reference_audio(info.id, steps), std::nullopt);
        EXPECT_TRUE(library.reference_audio(info.id, steps - 1).has_value());
    }
    EXPECT_EQ(library.reference_audio(424242, 0), std::nullopt);
}

TEST(ContentLibraryTest, ReadsOfOneTrackShareOneBuild) {
    const std::vector<ContentInfo> catalog = builtin_catalog(2024);
    ContentLibrary library;
    for (const ContentInfo& info : catalog) library.add(info);
    const std::span<const VideoHash> first = library.reference_hashes(catalog[0].id);
    // Building other tracks and reading audio in between moves nothing.
    for (const ContentInfo& info : catalog) (void)library.reference_hashes(info.id);
    EXPECT_TRUE(library.reference_audio(catalog[0].id, 3).has_value());
    const std::span<const VideoHash> second = library.reference_hashes(catalog[0].id);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first.data(), second.data());
    EXPECT_EQ(first.size(), second.size());
}

TEST(ReferenceAudioTest, EqualsFreshStreamInAnyReadOrder) {
    const std::vector<ContentInfo> catalog = builtin_catalog(2024);
    // One library per read order, so no order inherits another's caches.
    ContentLibrary forward;
    ContentLibrary backward;
    ContentLibrary strided;
    for (const ContentInfo& info : catalog) {
        forward.add(info);
        backward.add(info);
        strided.add(info);
    }
    for (const ContentInfo& info : catalog) {
        SCOPED_TRACE(info.title);
        const std::vector<std::uint32_t> want = reference_audio_oracle(info);
        const auto steps = static_cast<std::int64_t>(want.size());
        ASSERT_EQ(want.size(), forward.reference_hashes(info.id).size());
        for (std::int64_t step = 0; step < steps; ++step) {
            ASSERT_EQ(forward.reference_audio(info.id, step),
                      want[static_cast<std::size_t>(step)])
                << "forward step " << step;
        }
        for (std::int64_t step = steps - 1; step >= 0; --step) {
            ASSERT_EQ(backward.reference_audio(info.id, step),
                      want[static_cast<std::size_t>(step)])
                << "backward step " << step;
        }
        // A stride coprime to the track length visits every step once, in
        // an order that jumps across scenes.
        std::int64_t stride = 7919;
        while (std::gcd(stride, steps) != 1) ++stride;
        for (std::int64_t i = 0; i < steps; ++i) {
            const std::int64_t step = (i * stride + 13) % steps;
            ASSERT_EQ(strided.reference_audio(info.id, step),
                      want[static_cast<std::size_t>(step)])
                << "strided step " << step;
        }
        // Scene changes change the chord, so a long track is not constant.
        if (steps > 600) {
            EXPECT_GT(std::set<std::uint32_t>(want.begin(), want.end()).size(), 10U);
        }
        EXPECT_EQ(forward.reference_audio(info.id, -1), std::nullopt);
        EXPECT_EQ(forward.reference_audio(info.id, steps), std::nullopt);
    }
    EXPECT_EQ(forward.reference_audio(424242, 0), std::nullopt);
}

TEST(ReferenceAudioTest, ConcurrentReadersSeeTheOracle) {
    // Four threads read one fresh library: first every track, so their
    // first reference_hashes calls race to build it, then the audio at
    // overlapping steps. The streams' caches and the tracks are shared, so
    // this is the case the library's lock covers.
    const std::vector<ContentInfo> catalog = builtin_catalog(77);
    ContentLibrary library;
    for (const ContentInfo& info : catalog) library.add(info);
    const std::vector<const ContentInfo*> contents = {&catalog[4], &catalog[6], &catalog[7]};
    constexpr int kThreads = 4;
    std::vector<std::vector<std::span<const VideoHash>>> tracks(kThreads);
    std::vector<std::vector<std::optional<std::uint32_t>>> seen(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (const ContentInfo* info : contents) {
                tracks[static_cast<std::size_t>(t)].push_back(library.reference_hashes(info->id));
            }
            for (const ContentInfo* info : contents) {
                const std::int64_t steps = info->duration / ContentLibrary::kReferencePeriod;
                // Each thread starts a quarter further in and wraps, so
                // every step is read by all four threads at different times.
                for (std::int64_t i = 0; i < steps; ++i) {
                    const std::int64_t step = (i + t * steps / kThreads) % steps;
                    seen[static_cast<std::size_t>(t)].push_back(
                        library.reference_audio(info->id, step));
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    std::vector<std::vector<std::uint32_t>> oracles;
    for (const ContentInfo* info : contents) oracles.push_back(reference_audio_oracle(*info));
    for (std::size_t c = 0; c < contents.size(); ++c) {
        const std::vector<VideoHash> want = reference_video_oracle(*contents[c]);
        for (int t = 0; t < kThreads; ++t) {
            EXPECT_TRUE(same_track(tracks[static_cast<std::size_t>(t)][c], want))
                << contents[c]->title << " thread " << t;
        }
    }
    for (int t = 0; t < kThreads; ++t) {
        std::size_t read = 0;
        for (std::size_t c = 0; c < contents.size(); ++c) {
            const ContentInfo* info = contents[c];
            const std::vector<std::uint32_t>& want = oracles[c];
            const auto steps = static_cast<std::int64_t>(want.size());
            for (std::int64_t i = 0; i < steps; ++i) {
                const std::int64_t step = (i + t * steps / kThreads) % steps;
                ASSERT_EQ(seen[static_cast<std::size_t>(t)][read++],
                          want[static_cast<std::size_t>(step)])
                    << info->title << " thread " << t << " step " << step;
            }
        }
    }
}

TEST_F(MatcherFixture, ReindexPicksUpNewContent) {
    MatchServer server(library);
    fp::ContentInfo late;
    late.id = 9999;
    late.title = "Late Addition";
    late.seed = 777777;
    late.duration = SimTime::minutes(5);
    late.dynamics = ContentDynamics::for_kind(ContentKind::kLiveBroadcast);
    library.add(late);

    const auto batch =
        capture_batch(late, SimTime::minutes(1), SimTime::seconds(15), SimTime::millis(500));
    EXPECT_FALSE(server.match(batch).has_value());  // index predates the add
    server.reindex();
    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, 9999U);
}

// --------------------------------------------------------- swar / equivalence

TEST(SwarTest, KernelsMatchStdPopcount) {
    EXPECT_EQ(swar::popcount64(0), 0);
    EXPECT_EQ(swar::popcount64(~0ULL), 64);
    EXPECT_EQ(swar::popcount64(1ULL << 63), 1);
    Rng rng(0x5A5A2024);
    std::uint64_t block[4];
    for (int trial = 0; trial < 4000; ++trial) {
        const std::uint64_t query = rng();
        for (auto& candidate : block) candidate = rng();
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(swar::hamming1(block[i], query), std::popcount(block[i] ^ query));
        }
        const swar::Distances4 d4 = swar::hamming4(block, query);
        EXPECT_EQ(d4.d0, std::popcount(block[0] ^ query));
        EXPECT_EQ(d4.d1, std::popcount(block[1] ^ query));
        EXPECT_EQ(d4.d2, std::popcount(block[2] ^ query));
        EXPECT_EQ(d4.d3, std::popcount(block[3] ^ query));
    }
}

/// Field-by-field equality of the two engines' results — MatchResult has no
/// operator== because confidence is a derived double; here exact equality
/// is precisely the contract (identical votes, identical arithmetic).
void expect_same_result(const std::optional<MatchResult>& banded,
                        const std::optional<MatchResult>& reference) {
    ASSERT_EQ(banded.has_value(), reference.has_value());
    if (!banded.has_value()) return;
    EXPECT_EQ(banded->content_id, reference->content_id);
    EXPECT_EQ(banded->content_offset, reference->content_offset);
    EXPECT_EQ(banded->votes, reference->votes);
    EXPECT_DOUBLE_EQ(banded->confidence, reference->confidence);
    EXPECT_DOUBLE_EQ(banded->audio_agreement, reference->audio_agreement);
}

/// A one-content library whose reference track the tests can mine for hash
/// values that occur at exactly one position (so a crafted record's best
/// candidate position is fully determined).
ContentInfo single_content_info() {
    ContentInfo info;
    info.id = 7;
    info.title = "Tiebreak Probe";
    info.seed = 123456;
    info.duration = SimTime::minutes(30);
    info.dynamics = ContentDynamics::for_kind(ContentKind::kLiveBroadcast);
    return info;
}

/// Positions whose hash value appears exactly once in the track, ascending.
std::vector<std::size_t> unique_positions(std::span<const VideoHash> track) {
    std::vector<std::size_t> unique;
    for (std::size_t p = 0; p < track.size(); ++p) {
        int occurrences = 0;
        for (const VideoHash h : track) {
            if (h == track[p]) ++occurrences;
        }
        if (occurrences == 1) unique.push_back(p);
    }
    return unique;
}

TEST_F(MatcherFixture, BandedEngineMatchesReferenceOnCatalogBatches) {
    const MatchServer server(library);
    for (const auto& info : catalog) {
        expect_same_result(
            server.match(capture_batch(info, SimTime::seconds(30), SimTime::seconds(20),
                                       SimTime::millis(500))),
            server.match_reference(capture_batch(info, SimTime::seconds(30), SimTime::seconds(20),
                                                 SimTime::millis(500))));
    }
    // Dense, misaligned batch (the LG-style shape) as well.
    const auto dense = capture_batch(catalog[0], SimTime::minutes(5) + SimTime::millis(137),
                                     SimTime::seconds(15), SimTime::millis(10));
    expect_same_result(server.match(dense), server.match_reference(dense));
}

TEST(MatcherTieBreakTest, EqualVotesPreferLowestContentId) {
    // Two registered contents with identical reference tracks (same seed,
    // same dynamics). Every record's candidate distance ties across both;
    // the deterministic rule must award the match to the lowest content id
    // regardless of hash-map layout — registration order is deliberately
    // high-id-first. (The pre-fix matcher answered whichever entry the
    // unordered container happened to surface.)
    ContentLibrary library;
    ContentInfo twin = single_content_info();
    twin.id = 300;
    library.add(twin);
    twin.id = 100;
    library.add(twin);
    const MatchServer server(library);

    const ContentStream stream(twin.seed, twin.dynamics);
    FingerprintBatch batch;
    batch.device_id = 1;
    batch.capture_period_ms = 500;
    for (int i = 0; i < 30; ++i) {
        CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(500 * i);
        record.video = dhash(stream.frame_at(SimTime::minutes(1) + SimTime::millis(500 * i)));
        batch.records.push_back(record);
    }
    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, 100U);
    expect_same_result(match, server.match_reference(batch));
}

TEST(MatcherTieBreakTest, EqualVotesPreferEarliestAlignmentBucket) {
    // One content, four records engineered into two alignment buckets with
    // two votes each: records 0/1 claim a session starting at step `a`,
    // records 2/3 one starting 32 s later (four 8 s buckets away). The tie
    // must resolve to the earliest bucket, deterministically.
    ContentLibrary library;
    const ContentInfo info = single_content_info();
    library.add(info);
    const auto track = library.reference_hashes(info.id);
    const auto unique = unique_positions(track);

    // a,b vote for bucket(start = a); c,d for bucket(start = a + 64 steps).
    std::size_t a = 0, b = 0, c = 0, d = 0;
    bool found = false;
    for (std::size_t i = 0; !found && i + 3 < unique.size(); ++i) {
        a = unique[i];
        b = unique[i + 1];
        for (std::size_t j = i + 2; j + 1 < unique.size(); ++j) {
            if (unique[j] >= a + 64 && unique[j] >= b) {
                c = unique[j];
                d = unique[j + 1];
                found = true;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "track has too few unique hashes";

    const MatchServer server(library);
    FingerprintBatch batch;
    batch.device_id = 1;
    batch.capture_period_ms = 500;
    const auto add = [&](std::size_t position, std::size_t claimed_start) {
        CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>((position - claimed_start) * 500);
        record.video = track[position];
        batch.records.push_back(record);
    };
    add(a, a);
    add(b, a);
    add(c, a + 64);
    add(d, a + 64);

    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, info.id);
    EXPECT_EQ(match->votes, 2);
    const std::int64_t tolerance_us = MatchOptions{}.offset_tolerance.as_micros();
    const std::int64_t start_us = static_cast<std::int64_t>(a) * 500000;
    const std::int64_t bucket = (start_us + tolerance_us / 2) / tolerance_us;
    EXPECT_EQ(match->content_offset.as_micros(), bucket * tolerance_us);
    expect_same_result(match, server.match_reference(batch));
}

// ------------------------------------------------- deduplicated band index

/// Two contents with one seed and one set of dynamics, registered high id
/// first: every reference hash occurs under both ids. Desktop dynamics give
/// long, often fully static scenes, whose hash repeats at every step.
ContentInfo register_twins(ContentLibrary& library) {
    ContentInfo twin = single_content_info();
    twin.dynamics = ContentDynamics::for_kind(ContentKind::kHdmiDesktop);
    twin.id = 300;
    library.add(twin);
    twin.id = 100;
    library.add(twin);
    return twin;
}

/// A 30-record, 500 ms batch lifted from `track` at `base` with up to
/// `max_flips` random bit flips per record.
FingerprintBatch flipped_batch(std::span<const VideoHash> track, std::size_t base, int max_flips,
                               Rng& rng) {
    FingerprintBatch batch;
    batch.device_id = 1;
    batch.capture_period_ms = 500;
    for (int i = 0; i < 30; ++i) {
        CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(500 * i);
        VideoHash hash = track[(base + static_cast<std::size_t>(i)) % track.size()];
        const int flips = static_cast<int>(rng() % static_cast<std::uint64_t>(max_flips + 1));
        for (int f = 0; f < flips; ++f) hash ^= 1ULL << (rng() % 64);
        record.video = hash;
        batch.records.push_back(record);
    }
    return batch;
}

TEST(MatcherDedupTest, PostsEachDistinctHashOnce) {
    ContentLibrary library;
    const ContentInfo twin = register_twins(library);
    const auto track = library.reference_hashes(twin.id);
    const std::set<VideoHash> distinct(track.begin(), track.end());
    ASSERT_LT(distinct.size() * 2, track.size());  // static scenes repeat their hash

    const MatchServer server(library);
    EXPECT_EQ(server.indexed_hashes(), 2 * track.size());  // every hash read
    EXPECT_EQ(server.postings(), 4 * distinct.size());     // each distinct one posted once
}

TEST(MatcherDedupTest, TwinContentsMatchTheReferenceAndTheLowestId) {
    // The provable region (at most 3 flips per record): the engines agree
    // byte for byte, and every match goes to the lower of the twin ids.
    ContentLibrary library;
    const ContentInfo twin = register_twins(library);
    const auto track = library.reference_hashes(twin.id);
    const MatchServer server(library);
    Rng rng(0x7D1D0E5ULL);
    int matched = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const auto batch =
            flipped_batch(track, static_cast<std::size_t>(rng() % track.size()), 3, rng);
        const auto match = server.match(batch);
        expect_same_result(match, server.match_reference(batch));
        if (!match.has_value()) continue;
        ++matched;
        EXPECT_EQ(match->content_id, 100U) << "trial " << trial;
    }
    EXPECT_GT(matched, 20);
}

TEST(MatcherDedupTest, RepeatedHashAlignsAtItsEarliestPosition) {
    // Query the last step of the longest static run. With a one-step
    // alignment bucket the answer's offset is the candidate position, which
    // must be the hash's first step in the lower twin, not a later repeat.
    ContentLibrary library;
    const ContentInfo twin = register_twins(library);
    const auto track = library.reference_hashes(twin.id);
    std::size_t run_start = 0;
    std::size_t run_end = 0;
    for (std::size_t begin = 0, p = 1; p <= track.size(); ++p) {
        if (p == track.size() || track[p] != track[begin]) {
            if (p - begin > run_end - run_start) {
                run_start = begin;
                run_end = p;
            }
            begin = p;
        }
    }
    ASSERT_GE(run_end - run_start, 8U);
    const VideoHash hash = track[run_end - 1];
    const auto first = static_cast<std::size_t>(
        std::find(track.begin(), track.end(), hash) - track.begin());

    MatchOptions exact;
    exact.offset_tolerance = ContentLibrary::kReferencePeriod;
    exact.min_distinct_evidence = 1;
    const MatchServer server(library, exact);
    FingerprintBatch batch;
    batch.device_id = 1;
    batch.capture_period_ms = 500;
    batch.records.assign(4, CaptureRecord{});
    for (auto& record : batch.records) record.video = hash;

    const auto match = server.match(batch);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, 100U);
    EXPECT_EQ(match->content_offset,
              ContentLibrary::kReferencePeriod * static_cast<std::int64_t>(first));
    expect_same_result(match, server.match_reference(batch));
}

TEST(MatcherDedupTest, NoisyTwinQueriesKeepTheirPinnedResults) {
    // Up to 10 flips per record, outside the provable region: whatever the
    // banded engine answers there, deduplication must not change it. The
    // lines were recorded from the index that posted every hash.
    ContentLibrary library;
    const ContentInfo twin = register_twins(library);
    const auto track = library.reference_hashes(twin.id);
    const MatchServer server(library);
    Rng rng(0xD0ED0E5ULL);
    std::string text;
    for (int trial = 0; trial < 16; ++trial) {
        const auto batch =
            flipped_batch(track, static_cast<std::size_t>(rng() % track.size()), 10, rng);
        const auto match = server.match(batch);
        if (!match.has_value()) {
            text += "none\n";
            continue;
        }
        text += std::to_string(match->content_id) + " " +
                std::to_string(match->content_offset.as_micros()) + " " +
                std::to_string(match->votes) + "\n";
    }
    const std::string pinned =
        "100 1176000000 21\n"
        "none\n"
        "none\n"
        "100 1496000000 13\n"
        "100 672000000 18\n"
        "100 440000000 13\n"
        "100 1184000000 14\n"
        "100 720000000 11\n"
        "100 1080000000 17\n"
        "none\n"
        "100 200000000 13\n"
        "none\n"
        "100 1616000000 12\n"
        "100 32000000 13\n"
        "100 16000000 12\n"
        "none\n";
    EXPECT_EQ(text, pinned);
}

// ------------------------------------------------------- bucket directory

/// Which 16-bit values each band of the library's reference hashes takes:
/// the index's occupied (band, value) buckets.
std::array<std::vector<bool>, 4> occupied_band_values(const ContentLibrary& library) {
    std::array<std::vector<bool>, 4> occupied;
    for (auto& values : occupied) values.assign(std::size_t{1} << 16, false);
    for (const auto& [content_id, entry] : library.entries()) {
        for (const VideoHash hash : library.reference_hashes(content_id)) {
            for (std::size_t band = 0; band < 4; ++band) {
                occupied[band][(hash >> (16 * band)) & 0xFFFF] = true;
            }
        }
    }
    return occupied;
}

/// `hash` with each band's value passed through `move`; nullopt when `move`
/// refuses any band.
template <typename Move>
std::optional<VideoHash> move_bands(VideoHash hash, Move&& move) {
    VideoHash moved = 0;
    for (int band = 0; band < 4; ++band) {
        const auto value = static_cast<std::uint16_t>(hash >> (16 * band));
        const std::optional<std::uint16_t> to = move(band, value);
        if (!to) return std::nullopt;
        moved |= static_cast<VideoHash>(*to) << (16 * band);
    }
    return moved;
}

/// 30-record, 500 ms batches over `track`, one per `starts` entry, each
/// record's hash passed through `query` (records it refuses are skipped).
template <typename Query>
std::vector<FingerprintBatch> derived_batches(std::span<const VideoHash> track,
                                              const std::vector<std::size_t>& starts,
                                              Query&& query) {
    std::vector<FingerprintBatch> batches;
    for (const std::size_t start : starts) {
        FingerprintBatch batch;
        batch.device_id = 1;
        batch.capture_period_ms = 500;
        for (std::size_t i = 0; i < 30 && start + i < track.size(); ++i) {
            const std::optional<VideoHash> hash = query(track[start + i], i);
            if (!hash) continue;
            CaptureRecord record;
            record.offset_ms = static_cast<std::uint32_t>(500 * i);
            record.video = *hash;
            batch.records.push_back(record);
        }
        batches.push_back(std::move(batch));
    }
    return batches;
}

std::string result_line(const std::optional<MatchResult>& match) {
    if (!match.has_value()) return "none\n";
    return std::to_string(match->content_id) + " " +
           std::to_string(match->content_offset.as_micros()) + " " +
           std::to_string(match->votes) + "\n";
}

TEST_F(MatcherFixture, EmptyBucketsJustBelowOccupiedOnesRetrieveNothing) {
    // Every band of every record is moved from its value v into the run of
    // empty buckets just below bucket v, to the one nearest v in bits; a
    // record is used only when bucket v - 1 is empty in all four bands and
    // the reference hash stays within max_hamming. The banded engine then
    // retrieves nothing, while the brute-force engine often matches. A
    // lookup that skipped the occupancy bit would hand each of those empty
    // buckets the slice of the next occupied one, bucket v, and match.
    const auto occupied = occupied_band_values(library);
    const MatchServer server(library);
    const int max_hamming = MatchOptions{}.max_hamming;
    const auto below_occupied = [&](VideoHash hash, std::size_t) -> std::optional<VideoHash> {
        const auto moved = move_bands(hash, [&](int band, std::uint16_t value) {
            const auto& values = occupied[static_cast<std::size_t>(band)];
            std::optional<std::uint16_t> nearest;
            for (int u = value - 1; u >= 0 && !values[static_cast<std::size_t>(u)]; --u) {
                const auto below = static_cast<std::uint16_t>(u);
                if (!nearest || std::popcount(static_cast<unsigned>(below ^ value)) <
                                    std::popcount(static_cast<unsigned>(*nearest ^ value))) {
                    nearest = below;
                }
            }
            return nearest;
        });
        if (!moved || hamming(*moved, hash) > max_hamming) return std::nullopt;
        return moved;
    };
    int batches = 0;
    int reference_matches = 0;
    for (const auto& info : catalog) {
        const auto track = library.reference_hashes(info.id);
        std::vector<std::size_t> starts;
        for (std::size_t start = 0; start + 30 <= track.size(); start += 300) {
            starts.push_back(start);
        }
        for (const auto& batch : derived_batches(track, starts, below_occupied)) {
            if (batch.records.size() < 8) continue;
            ++batches;
            EXPECT_FALSE(server.match(batch).has_value()) << info.id;
            reference_matches += server.match_reference(batch).has_value() ? 1 : 0;
        }
    }
    EXPECT_GE(batches, 20);
    EXPECT_GE(reference_matches, batches / 2);
}

TEST_F(MatcherFixture, QueriesAtBucketAndWordEdgesKeepTheirPinnedResults) {
    // Queries whose band values sit next to or at the edges of the
    // directory's 64-bucket words, and noisy queries with 4 or more flips
    // per hash. The lines were recorded from the flat offset table the
    // directory replaced; the slices, and so the results, must not move.
    const auto occupied = occupied_band_values(library);
    const MatchServer server(library);
    // One band per record moved to v - 1 or v + 1 where that bucket is
    // empty; the other three bands still retrieve the reference.
    const auto neighbour = [&](int delta) {
        return [&occupied, delta](VideoHash hash, std::size_t i) {
            return move_bands(hash, [&](int band, std::uint16_t value) {
                const auto moved = static_cast<std::uint16_t>(value + delta);
                const bool empty = !occupied[static_cast<std::size_t>(band)][moved];
                return std::optional<std::uint16_t>(
                    static_cast<std::size_t>(band) == i % 4 && empty ? moved : value);
            });
        };
    };
    // One band per record moved to bit 0 or bit 63 of its directory word.
    const auto word_edge = [](VideoHash hash, std::size_t i) {
        return move_bands(hash, [i](int band, std::uint16_t value) {
            if (static_cast<std::size_t>(band) != i % 4) return std::optional<std::uint16_t>(value);
            return std::optional<std::uint16_t>(i % 8 < 4 ? value & ~0x3F : value | 0x3F);
        });
    };
    // The first and last buckets of the directory, between true records.
    const auto directory_ends = [](VideoHash hash, std::size_t i) {
        return std::optional<VideoHash>(i % 4 == 1 ? 0 : i % 4 == 3 ? ~VideoHash{0} : hash);
    };
    Rng rng(0xB0C4E75ULL);
    const auto noisy = [&rng](VideoHash hash, std::size_t) {
        const int flips = 4 + static_cast<int>(rng() % 5);
        for (int f = 0; f < flips; ++f) hash ^= 1ULL << (rng() % 64);
        return std::optional<VideoHash>(hash);
    };
    std::string text;
    for (std::size_t c = 0; c < 4; ++c) {
        const auto track = library.reference_hashes(catalog[c].id);
        const std::vector<std::size_t> starts = {120 + 400 * c, 2000 + 300 * c};
        for (const auto& batch : derived_batches(track, starts, neighbour(-1))) {
            text += "-1 " + result_line(server.match(batch));
        }
        for (const auto& batch : derived_batches(track, starts, neighbour(+1))) {
            text += "+1 " + result_line(server.match(batch));
        }
        for (const auto& batch : derived_batches(track, starts, word_edge)) {
            text += "edge " + result_line(server.match(batch));
        }
        for (const auto& batch : derived_batches(track, starts, directory_ends)) {
            text += "ends " + result_line(server.match(batch));
        }
        for (const auto& batch : derived_batches(track, starts, noisy)) {
            text += "noisy " + result_line(server.match(batch));
        }
    }
    const std::string pinned =
        "-1 1000 56000000 21\n"
        "-1 1000 1000000000 23\n"
        "+1 1000 56000000 21\n"
        "+1 1000 1000000000 23\n"
        "edge 1000 56000000 21\n"
        "edge 1000 1000000000 22\n"
        "ends 1000 56000000 11\n"
        "ends 1000 1000000000 12\n"
        "noisy none\n"
        "noisy 1000 1000000000 16\n"
        "-1 1001 256000000 15\n"
        "-1 1001 1152000000 22\n"
        "+1 1001 256000000 15\n"
        "+1 1001 1152000000 22\n"
        "edge 1001 256000000 15\n"
        "edge 1001 1152000000 22\n"
        "ends none\n"
        "ends 1001 1152000000 12\n"
        "noisy none\n"
        "noisy 1001 1152000000 11\n"
        "-1 1002 456000000 23\n"
        "-1 1002 1296000000 23\n"
        "+1 1002 456000000 23\n"
        "+1 1002 1296000000 23\n"
        "edge 1002 456000000 23\n"
        "edge 1002 1296000000 23\n"
        "ends 1002 456000000 12\n"
        "ends 1002 1296000000 11\n"
        "noisy 1002 456000000 13\n"
        "noisy 1002 1296000000 13\n"
        "-1 1003 656000000 26\n"
        "-1 1003 1440000000 14\n"
        "+1 1003 656000000 26\n"
        "+1 1003 1440000000 16\n"
        "edge 1003 656000000 26\n"
        "edge 1003 1440000000 15\n"
        "ends 1003 656000000 13\n"
        "ends none\n"
        "noisy 1003 656000000 12\n"
        "noisy none\n";
    EXPECT_EQ(text, pinned);
}

TEST_F(MatcherFixture, SingleBucketProbesFindTheBestPostingOfTheirBucket) {
    // A probe shares one band with the index; its other three bands hold
    // values no reference hash has. With max_hamming 64 every posting of
    // that one bucket is a candidate and nothing else is, so the answer is
    // the least (distance, content_id, position) among the distinct hashes
    // with that band value. A slice that starts or ends in a neighbouring
    // bucket, or past the last one, answers something else.
    MatchOptions probe;
    probe.max_hamming = 64;
    probe.min_distinct_evidence = 1;
    probe.offset_tolerance = ContentLibrary::kReferencePeriod;
    const MatchServer server(library, probe);
    const auto occupied = occupied_band_values(library);

    // Each distinct hash at its least (content_id, position), as indexed.
    struct Posting {
        VideoHash hash;
        std::uint64_t content_id;
        std::int64_t position;
    };
    std::vector<Posting> postings;
    std::vector<std::uint64_t> ids;
    for (const auto& info : catalog) ids.push_back(info.id);
    std::sort(ids.begin(), ids.end());
    std::set<VideoHash> seen;
    for (const std::uint64_t id : ids) {
        const auto track = library.reference_hashes(id);
        for (std::size_t p = 0; p < track.size(); ++p) {
            if (seen.insert(track[p]).second) {
                postings.push_back({track[p], id, static_cast<std::int64_t>(p)});
            }
        }
    }
    std::array<VideoHash, 4> empty_value{};
    for (std::size_t band = 0; band < 4; ++band) {
        empty_value[band] = static_cast<VideoHash>(
            std::find(occupied[band].begin(), occupied[band].end(), false) -
            occupied[band].begin());
    }

    int probes = 0;
    for (std::size_t band = 0; band < 4; ++band) {
        std::vector<VideoHash> values;  // occupied, ascending
        for (std::size_t v = 0; v < occupied[band].size(); ++v) {
            if (occupied[band][v]) values.push_back(v);
        }
        ASSERT_GE(values.size(), 2U);
        for (std::size_t i = 0; i < values.size(); ++i) {
            // The first and last bucket of the band, the occupied ones at
            // bit 0 or 63 of a directory word, and a sample of the rest.
            const VideoHash value = values[i];
            if (i != 0 && i + 1 != values.size() && value % 64 != 0 && value % 64 != 63 &&
                i % 31 != 0) {
                continue;
            }
            VideoHash query = 0;
            for (std::size_t b = 0; b < 4; ++b) {
                query |= (b == band ? value : empty_value[b]) << (16 * b);
            }
            const Posting* best = nullptr;
            for (const Posting& posting : postings) {
                if (((posting.hash >> (16 * band)) & 0xFFFF) != value) continue;
                if (best == nullptr || hamming(posting.hash, query) < hamming(best->hash, query)) {
                    best = &posting;
                }
            }
            ASSERT_NE(best, nullptr);
            FingerprintBatch batch;
            batch.device_id = 1;
            batch.capture_period_ms = 500;
            batch.records.assign(1, CaptureRecord{});
            batch.records[0].video = query;
            const auto match = server.match(batch);
            ASSERT_TRUE(match.has_value()) << "band " << band << " value " << value;
            EXPECT_EQ(match->content_id, best->content_id) << "band " << band << " value " << value;
            EXPECT_EQ(match->content_offset, ContentLibrary::kReferencePeriod * best->position)
                << "band " << band << " value " << value;
            ++probes;
        }
    }
    EXPECT_GE(probes, 100);
}

TEST(MatcherDirectoryTest, EmptyAndOneContentLibrariesAnswerQueries) {
    // The directory is 4096 occupancy words and 4096 ranks whatever the
    // library holds, plus one offset per occupied bucket and the end.
    constexpr std::size_t kDirectoryBytes = 4096 * 8 + 4096 * 4;
    FingerprintBatch edges;
    edges.device_id = 1;
    edges.capture_period_ms = 500;
    for (const VideoHash hash : {VideoHash{0}, ~VideoHash{0}, VideoHash{0x8000000000000001ULL},
                                 VideoHash{0x00000000FFFF0000ULL}}) {
        CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(500 * edges.records.size());
        record.video = hash;
        edges.records.push_back(record);
    }

    const ContentLibrary empty;
    const MatchServer nothing(empty);
    EXPECT_EQ(nothing.postings(), 0U);
    EXPECT_EQ(nothing.index_bytes(), kDirectoryBytes + 4);
    EXPECT_FALSE(nothing.match(edges).has_value());
    EXPECT_FALSE(nothing.match_reference(edges).has_value());

    ContentLibrary library;
    const ContentInfo info = single_content_info();
    library.add(info);
    const MatchServer server(library);
    const auto occupied = occupied_band_values(library);
    std::size_t occupied_buckets = 0;
    for (const auto& values : occupied) {
        occupied_buckets +=
            static_cast<std::size_t>(std::count(values.begin(), values.end(), true));
    }
    EXPECT_EQ(server.index_bytes(),
              kDirectoryBytes + 4 * (occupied_buckets + 1) + 20 * server.postings());
    expect_same_result(server.match(edges), server.match_reference(edges));
    const auto track = library.reference_hashes(info.id);
    for (const std::size_t start : {std::size_t{0}, track.size() / 2, track.size() - 30}) {
        const auto batch = derived_batches(track, {start}, [](VideoHash hash, std::size_t) {
            return std::optional<VideoHash>(hash);
        })[0];
        const auto match = server.match(batch);
        ASSERT_TRUE(match.has_value()) << start;
        EXPECT_EQ(match->content_id, info.id);
        expect_same_result(match, server.match_reference(batch));
    }
}

TEST(MatcherEdgeTest, MinDistinctEvidenceBoundary) {
    // A batch dwelling on one scene: many votes, one distinct hash. The
    // default gate (2) rejects it; relaxing the gate to 1 on the same batch
    // accepts it — so the distinct-evidence counter is what decides.
    ContentLibrary library;
    const ContentInfo info = single_content_info();
    library.add(info);
    const auto track = library.reference_hashes(info.id);
    const auto unique = unique_positions(track);
    ASSERT_GE(unique.size(), 2U);

    FingerprintBatch single;
    single.device_id = 1;
    single.capture_period_ms = 500;
    for (int i = 0; i < 5; ++i) {
        CaptureRecord record;
        record.offset_ms = 0;
        record.video = track[unique[0]];
        single.records.push_back(record);
    }
    const MatchServer strict(library);
    expect_same_result(strict.match(single), strict.match_reference(single));
    EXPECT_FALSE(strict.match(single).has_value());

    MatchOptions lax;
    lax.min_distinct_evidence = 1;
    const MatchServer relaxed(library, lax);
    const auto match = relaxed.match(single);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, info.id);
    EXPECT_EQ(match->votes, 5);
    expect_same_result(match, relaxed.match_reference(single));

    // Exactly two distinct hashes on one alignment: the boundary passes.
    FingerprintBatch pair = single;
    pair.records.resize(2);
    pair.records[1].offset_ms = static_cast<std::uint32_t>((unique[1] - unique[0]) * 500);
    pair.records[1].video = track[unique[1]];
    const auto boundary = strict.match(pair);
    ASSERT_TRUE(boundary.has_value());
    EXPECT_EQ(boundary->content_id, info.id);
    expect_same_result(boundary, strict.match_reference(pair));
}

TEST_F(MatcherFixture, AllCandidatesBeyondMaxHammingYieldNoMatch) {
    // Inverting every record hash puts the true references at distance 64
    // and everything else far outside max_hamming: no candidate anywhere,
    // in either engine.
    const MatchServer server(library);
    auto batch =
        capture_batch(catalog[1], SimTime::minutes(5), SimTime::seconds(15), SimTime::millis(500));
    for (auto& record : batch.records) record.video = ~record.video;
    EXPECT_FALSE(server.match(batch).has_value());
    EXPECT_FALSE(server.match_reference(batch).has_value());
}

TEST_F(MatcherFixture, EmptyBatchMatchesNeitherEngine) {
    const MatchServer server(library);
    EXPECT_FALSE(server.match(FingerprintBatch{}).has_value());
    EXPECT_FALSE(server.match_reference(FingerprintBatch{}).has_value());
}

TEST_F(MatcherFixture, PropertySmallNoiseEngineEqualityIsUnconditional) {
    // The provable region of the equivalence contract: with at most 3 bit
    // flips per record, the nearest reference is within 3 bits, and a
    // <4-bit difference cannot touch all four 16-bit bands — so the
    // brute-force winner (and every candidate tied with it) always shares
    // a band with the query and is retrieved by the banded engine. The
    // engines must therefore agree byte-for-byte on EVERY such batch, for
    // any flip positions whatsoever; the seed only picks which ones.
    const MatchServer server(library);
    Rng rng(0xBADBA9D5);
    for (int trial = 0; trial < 40; ++trial) {
        const auto& info = catalog[trial % catalog.size()];
        const auto track = library.reference_hashes(info.id);
        ASSERT_GE(track.size(), 80U);
        const std::size_t base =
            static_cast<std::size_t>(rng() % (track.size() - 40));
        FingerprintBatch batch;
        batch.device_id = 1;
        batch.capture_period_ms = 500;
        for (int i = 0; i < 30; ++i) {
            CaptureRecord record;
            record.offset_ms = static_cast<std::uint32_t>(500 * i);
            VideoHash noisy = track[base + static_cast<std::size_t>(i)];
            const int flips = static_cast<int>(rng() % 4);
            for (int f = 0; f < flips; ++f) noisy ^= 1ULL << (rng() % 64);
            record.video = noisy;
            batch.records.push_back(record);
        }
        expect_same_result(server.match(batch), server.match_reference(batch));
    }
}

TEST_F(MatcherFixture, PropertyBandConfinedNoiseRetainsRecall) {
    // Recall at full max_hamming: up to 10 flips per record, confined to
    // three bands, leaves one band agreeing exactly with the true
    // reference, so the banded engine always retrieves it and the match
    // must not be lost. (Bit-for-bit equality with the brute-force engine
    // is NOT a theorem out here — a band-straddling near-collision with an
    // unrelated reference can be visible only to the brute scan — so this
    // asserts recall, and checks equality where the reference engine
    // agrees on the winning content: a deterministic, pinned-seed sweep.)
    const MatchServer server(library);
    Rng rng(0x0BADBA9D);
    for (int trial = 0; trial < 40; ++trial) {
        const auto& info = catalog[trial % catalog.size()];
        const auto track = library.reference_hashes(info.id);
        ASSERT_GE(track.size(), 80U);
        const std::size_t base =
            static_cast<std::size_t>(rng() % (track.size() - 40));
        const int clean_band = static_cast<int>(rng() % 4);
        FingerprintBatch batch;
        batch.device_id = 1;
        batch.capture_period_ms = 500;
        for (int i = 0; i < 30; ++i) {
            CaptureRecord record;
            record.offset_ms = static_cast<std::uint32_t>(500 * i);
            VideoHash noisy = track[base + static_cast<std::size_t>(i)];
            const int flips = static_cast<int>(rng() % 11);
            for (int f = 0; f < flips; ++f) {
                int bit = static_cast<int>(rng() % 64);
                while (bit / 16 == clean_band) bit = static_cast<int>(rng() % 64);
                noisy ^= 1ULL << bit;
            }
            record.video = noisy;
            batch.records.push_back(record);
        }
        const auto banded = server.match(batch);
        ASSERT_TRUE(banded.has_value()) << "trial " << trial;
        EXPECT_EQ(banded->content_id, info.id) << "trial " << trial;
        const auto reference = server.match_reference(batch);
        ASSERT_TRUE(reference.has_value()) << "trial " << trial;
        if (reference->content_id == banded->content_id) {
            EXPECT_GE(banded->votes, reference->votes) << "trial " << trial;
        }
    }
}

// ----------------------------------------------------------------- segments

TEST_F(MatcherFixture, ProfilerAccumulatesSegments) {
    AudienceProfiler profiler(library);
    MatchResult sports;
    sports.content_id = catalog[1].id;  // Premier Football Live (sports)
    sports.confidence = 0.9;
    for (int i = 0; i < 10; ++i) profiler.record_match(42, sports, SimTime::minutes(30));

    const auto* profile = profiler.profile(42);
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->events, 10U);
    EXPECT_EQ(profile->total_watch_time, SimTime::hours(5));
    EXPECT_DOUBLE_EQ(profile->genre_share(Genre::kSports), 1.0);

    const auto segments = profiler.segments(42);
    EXPECT_NE(std::find(segments.begin(), segments.end(), "sports-enthusiast"), segments.end());
    EXPECT_NE(std::find(segments.begin(), segments.end(), "heavy-viewer"), segments.end());
}

TEST_F(MatcherFixture, ProfilerMixedViewingYieldsMultipleSegments) {
    AudienceProfiler profiler(library);
    MatchResult news;
    news.content_id = catalog[0].id;  // Evening News Hour
    MatchResult kids;
    kids.content_id = catalog[4].id;  // Cartoon Block
    profiler.record_match(7, news, SimTime::hours(1));
    profiler.record_match(7, kids, SimTime::minutes(30));

    const auto segments = profiler.segments(7);
    EXPECT_NE(std::find(segments.begin(), segments.end(), "news-junkie"), segments.end());
    EXPECT_NE(std::find(segments.begin(), segments.end(), "household-with-children"),
              segments.end());
}

TEST_F(MatcherFixture, ProfilerUnknownDeviceAndContent) {
    AudienceProfiler profiler(library);
    EXPECT_EQ(profiler.profile(1), nullptr);
    EXPECT_TRUE(profiler.segments(1).empty());
    MatchResult bogus;
    bogus.content_id = 31337;  // not in library: ignored
    profiler.record_match(1, bogus, SimTime::minutes(5));
    EXPECT_EQ(profiler.profile(1), nullptr);
}

}  // namespace
}  // namespace tvacr::fp
