// Tests for the fingerprinting substrate: content synthesis, perceptual
// hashing, batch encoding, the match server and audience profiling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <string>
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
    if (stream.scene_index_at(SimTime::millis(100)) == stream.scene_index_at(SimTime::millis(110))) {
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

TEST_P(FingerprintSweep, FrameAtMatchesPerPixelSynthesis) {
    const ContentStream stream(kSweepSeeds[0], ContentDynamics::for_kind(GetParam()));
    for (SimTime t; t < SimTime::minutes(3); t += SimTime::millis(10)) {
        ASSERT_EQ(stream.frame_at(t).luma, reference_frame(stream, t).luma)
            << "t=" << t.as_millis() << "ms";
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FingerprintSweep, ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<ContentKind>& info) {
                             std::string name = to_string(info.param);
                             for (char& c : name) {
                                 if (c == '-') c = '_';
                             }
                             return name;
                         });

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

TEST(VideoHashTest, BlockhashHasBalancedBits) {
    const VideoHash hash = blockhash(test_frame(17));
    const int ones = std::popcount(hash);
    EXPECT_GE(ones, 16);
    EXPECT_LE(ones, 48);
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

TEST_F(MatcherFixture, LibraryPrecomputesReferenceTracks) {
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

TEST_F(MatcherFixture, LibraryStoresAudioTrack) {
    const auto audio = library.reference_audio(catalog[0].id);
    EXPECT_EQ(audio.size(), library.reference_hashes(catalog[0].id).size());
    EXPECT_TRUE(library.reference_audio(424242).empty());
    // Audio hashes vary across the track (scene changes change the chord).
    std::set<std::uint32_t> distinct(audio.begin(), audio.end());
    EXPECT_GT(distinct.size(), 10U);
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
