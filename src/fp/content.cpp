#include "fp/content.hpp"

#include "fp/audio.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tvacr::fp {

namespace {

std::uint16_t fold_detail(std::uint32_t h) { return static_cast<std::uint16_t>(h ^ (h >> 16)); }

// Motion is drawn once per 10 ms frame.
constexpr std::int64_t kFrameMillis = 10;

std::uint64_t frame_index_at(SimTime t) {
    return static_cast<std::uint64_t>(t.as_millis() / kFrameMillis);
}

// fnv_lanes compiled for AVX2 (vpmulld: eight lanes per multiply) and for
// the baseline ISA; the loader picks the first the CPU supports. Both give
// the same bits, since the loop is 32-bit wraparound integer arithmetic.
// Not under TSan: with the clones (an ifunc), a GCC TSan build of any
// binary linking tvacr_fp crashes at load, before main.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx2", "default")))
#endif
void hash_lanes(std::span<const std::uint8_t> plane, std::span<const LaneEdit> edits,
                std::span<std::uint32_t> h) {
    fnv_lanes(plane, edits, h);
}

}  // namespace

std::string to_string(ContentKind kind) {
    switch (kind) {
        case ContentKind::kLiveBroadcast: return "live-broadcast";
        case ContentKind::kFastChannel: return "fast-channel";
        case ContentKind::kOttStream: return "ott-stream";
        case ContentKind::kHdmiDesktop: return "hdmi-desktop";
        case ContentKind::kHdmiConsole: return "hdmi-console";
        case ContentKind::kScreenCast: return "screen-cast";
        case ContentKind::kHomeScreen: return "home-screen";
        case ContentKind::kAdvertisement: return "advertisement";
    }
    return "unknown";
}

std::string to_string(Genre genre) {
    switch (genre) {
        case Genre::kNews: return "news";
        case Genre::kSports: return "sports";
        case Genre::kDrama: return "drama";
        case Genre::kKids: return "kids";
        case Genre::kGaming: return "gaming";
        case Genre::kShopping: return "shopping";
        case Genre::kOther: return "other";
    }
    return "unknown";
}

ContentDynamics ContentDynamics::for_kind(ContentKind kind) {
    switch (kind) {
        case ContentKind::kLiveBroadcast:
            // Fast cutting with ad breaks: short scenes, almost never static.
            return {SimTime::millis(3500), 0.02, 1.0};
        case ContentKind::kFastChannel:
            // FAST carries even more ad creative than linear: slightly
            // shorter scenes.
            return {SimTime::millis(3000), 0.02, 1.0};
        case ContentKind::kOttStream:
            return {SimTime::millis(4500), 0.03, 1.0};
        case ContentKind::kHdmiDesktop:
            // Laptop browsing: long dwell on pages, frequent fully static
            // intervals, sparse motion while reading.
            return {SimTime::seconds(9), 0.20, 0.45};
        case ContentKind::kHdmiConsole:
            // Console gameplay: HUD-heavy but in near-constant motion.
            return {SimTime::seconds(6), 0.05, 0.82};
        case ContentKind::kScreenCast:
            return {SimTime::seconds(7), 0.25, 0.7};
        case ContentKind::kHomeScreen:
            // Launcher: essentially a still image with a rare carousel tick.
            return {SimTime::seconds(45), 0.90, 0.05};
        case ContentKind::kAdvertisement:
            return {SimTime::millis(1800), 0.01, 1.0};
    }
    return {};
}

ContentStream::ContentStream(std::uint64_t seed, ContentDynamics dynamics, int width, int height)
    : seed_(seed),
      dynamics_(dynamics),
      width_(width),
      height_(height),
      schedule_rng_(derive_seed(seed, /*label=*/0x5CEDu)) {
    // Cell bounds exactly as downsample(frame, kGridW, kGridH) draws them.
    const auto bounds = [](std::size_t cell, std::size_t cells, int size) {
        const int lo = static_cast<int>(cell) * size / static_cast<int>(cells);
        const int hi = static_cast<int>(cell + 1) * size / static_cast<int>(cells);
        return Span{lo, std::max(hi, lo + 1)};
    };
    for (std::size_t gx = 0; gx < kGridW; ++gx) cell_x_[gx] = bounds(gx, kGridW, width);
    for (std::size_t gy = 0; gy < kGridH; ++gy) cell_y_[gy] = bounds(gy, kGridH, height);
    // Both cell bounds grow with the cell index, so the cells that contain
    // one pixel are consecutive.
    const auto owners = [](std::span<const Span> cells, int size) {
        std::vector<Span> out(static_cast<std::size_t>(std::max(size, 0)), Span{0, 0});
        for (int i = 0; i < size; ++i) {
            Span& owner = out[static_cast<std::size_t>(i)];
            while (cells[static_cast<std::size_t>(owner.begin)].end <= i) ++owner.begin;
            owner.end = owner.begin;
            while (owner.end < static_cast<int>(cells.size()) &&
                   cells[static_cast<std::size_t>(owner.end)].begin <= i) {
                ++owner.end;
            }
        }
        return out;
    };
    owner_x_ = owners(cell_x_, width);
    owner_y_ = owners(cell_y_, height);
}

void ContentStream::ensure_schedule(SimTime t) const {
    while (scene_ends_.empty() || scene_ends_.back() <= t) {
        const SimTime previous_end = scene_ends_.empty() ? SimTime{} : scene_ends_.back();
        // Scene lengths: exponential-ish around the mean, floored at 400 ms.
        const double mean_us = static_cast<double>(dynamics_.mean_scene_length.as_micros());
        double draw = -mean_us * std::log(1.0 - schedule_rng_.uniform01());
        draw = std::max(draw, 400'000.0);
        scene_ends_.push_back(previous_end + SimTime::micros(static_cast<std::int64_t>(draw)));
    }
}

std::size_t ContentStream::scene_index_at(SimTime t) const {
    ensure_schedule(t);
    const auto it = std::upper_bound(scene_ends_.begin(), scene_ends_.end(), t);
    return static_cast<std::size_t>(it - scene_ends_.begin());
}

bool ContentStream::scene_is_static(std::size_t scene_index) const {
    const std::uint64_t h = splitmix64(seed_ ^ (scene_index * 0x9E3779B97F4A7C15ULL) ^ 0x57A7);
    return (static_cast<double>(h >> 11) * 0x1.0p-53) < dynamics_.static_scene_fraction;
}

ContentStream::Basis& ContentStream::basis_of(std::size_t scene) const {
    Basis& basis = basis_;
    if (basis.scene == scene) return basis;
    basis.scene = scene;
    basis.scene_seed = splitmix64(seed_ ^ (scene * 0xD1B54A32D192ED03ULL));
    basis.is_static = scene_is_static(scene);
    basis.detail.reset();

    // Coarse 4x4 blocks give the frame spatial structure a perceptual hash
    // keys on; the fine per-pixel term adds texture.
    Frame frame = make_frame(width_, height_);
    for (int by = 0; by * 4 < height_; ++by) {
        for (int bx = 0; bx * 4 < width_; ++bx) {
            const std::uint64_t block =
                splitmix64(basis.scene_seed ^ (static_cast<std::uint64_t>(bx) << 16) ^
                           static_cast<std::uint64_t>(by));
            for (int y = by * 4; y < std::min(by * 4 + 4, height_); ++y) {
                for (int x = bx * 4; x < std::min(bx * 4 + 4, width_); ++x) {
                    const std::uint64_t fine =
                        splitmix64(basis.scene_seed ^ (static_cast<std::uint64_t>(x) << 20) ^
                                   (static_cast<std::uint64_t>(y) << 8) ^ 1);
                    frame.at(x, y) =
                        static_cast<std::uint8_t>(((block & 0xFF) * 3 + (fine & 0xFF)) / 4);
                }
            }
        }
    }
    for (std::size_t gy = 0; gy < kGridH; ++gy) {
        for (std::size_t gx = 0; gx < kGridW; ++gx) {
            int sum = 0;
            for (int y = cell_y_[gy].begin; y < cell_y_[gy].end; ++y) {
                for (int x = cell_x_[gx].begin; x < cell_x_[gx].end; ++x) sum += frame.at(x, y);
            }
            const std::size_t cell = gy * kGridW + gx;
            basis.cell_sum[cell] = sum;
            basis.cell_mean[cell] =
                static_cast<std::uint8_t>(sum / (cell_x_[gx].size() * cell_y_[gy].size()));
        }
    }
    // dhash: bit gy * 8 + gx is set when cell gx is darker than cell gx + 1.
    basis.video = 0;
    for (std::size_t gy = 0; gy < kGridH; ++gy) {
        for (std::size_t gx = 0; gx + 1 < kGridW; ++gx) {
            const std::size_t cell = gy * kGridW + gx;
            if (basis.cell_mean[cell] < basis.cell_mean[cell + 1]) {
                basis.video |= 1ULL << (gy * (kGridW - 1) + gx);
            }
        }
    }
    basis.luma = std::move(frame.luma);
    return basis;
}

ContentStream::Motion ContentStream::motion_at(const Basis& basis,
                                               std::uint64_t frame_index) const {
    // Motion: within non-static scenes, most frames get a handful of
    // deterministic pixel perturbations, so consecutive hashes differ
    // slightly (as real video does) while staying within matching distance
    // of the scene's reference hash.
    Motion motion;
    if (basis.is_static) return motion;
    const std::uint64_t motion_seed = splitmix64(basis.scene_seed ^ frame_index ^ 0x4070104Eu);
    const double gate = static_cast<double>(splitmix64(motion_seed) >> 11) * 0x1.0p-53;
    if (gate < dynamics_.motion_rate) {
        // Perceptually small perturbation: two pixels shift slightly, so
        // the perceptual hash moves by at most a couple of bits (real
        // ACR hashes are similarly robust to inter-frame motion) while
        // the fine-grained frame digest always changes.
        std::uint64_t h = motion_seed;
        for (int k = 0; k < 2; ++k) {
            h = splitmix64(h);
            const int x = static_cast<int>(h % static_cast<std::uint64_t>(width_));
            const int y = static_cast<int>((h >> 16) % static_cast<std::uint64_t>(height_));
            const std::size_t index =
                static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                static_cast<std::size_t>(x);
            const std::uint8_t before = motion.count == 1 && motion.edits[0].index == index
                                            ? motion.edits[0].after
                                            : basis.luma[index];
            motion.edits[motion.count++] =
                PixelEdit{x, y, index, before, static_cast<std::uint8_t>(before + 25)};
        }
    }
    return motion;
}

Frame ContentStream::frame_at(SimTime t) const {
    const Basis& basis = basis_of(scene_index_at(t));
    Frame frame{width_, height_, basis.luma};
    const Motion motion = motion_at(basis, frame_index_at(t));
    for (std::size_t k = 0; k < motion.count; ++k) {
        frame.luma[motion.edits[k].index] = motion.edits[k].after;
    }
    return frame;
}

VideoHash ContentStream::video_of(const Basis& basis, const Motion& motion) const {
    // Move the sums of the cells that contain each edited pixel, then redo
    // the (at most two) comparison bits of each moved cell, reading the
    // other cells' means from the basis.
    if (motion.count == 0) return basis.video;
    struct Moved {
        std::size_t cell;
        int sum;
        std::uint8_t mean;
    };
    std::array<Moved, kCells> moved;
    std::size_t count = 0;
    for (std::size_t k = 0; k < motion.count; ++k) {
        const PixelEdit& edit = motion.edits[k];
        const int delta = int{edit.after} - int{edit.before};
        const Span rows = owner_y_[static_cast<std::size_t>(edit.y)];
        const Span cols = owner_x_[static_cast<std::size_t>(edit.x)];
        for (int gy = rows.begin; gy < rows.end; ++gy) {
            for (int gx = cols.begin; gx < cols.end; ++gx) {
                const std::size_t cell =
                    static_cast<std::size_t>(gy) * kGridW + static_cast<std::size_t>(gx);
                std::size_t m = 0;
                while (m < count && moved[m].cell != cell) ++m;
                if (m == count) moved[count++] = Moved{cell, basis.cell_sum[cell], 0};
                moved[m].sum += delta;
            }
        }
    }
    for (std::size_t m = 0; m < count; ++m) {
        const std::size_t cell = moved[m].cell;
        moved[m].mean = static_cast<std::uint8_t>(
            moved[m].sum / (cell_x_[cell % kGridW].size() * cell_y_[cell / kGridW].size()));
    }
    const auto mean = [&](std::size_t cell) {
        for (std::size_t m = 0; m < count; ++m) {
            if (moved[m].cell == cell) return moved[m].mean;
        }
        return basis.cell_mean[cell];
    };
    VideoHash video = basis.video;
    for (std::size_t m = 0; m < count; ++m) {
        const std::size_t cell = moved[m].cell;
        const std::size_t gx = cell % kGridW;
        const std::size_t bit = cell / kGridW * (kGridW - 1) + gx;
        if (gx > 0) {
            const VideoHash set{mean(cell - 1) < moved[m].mean};
            video = (video & ~(1ULL << (bit - 1))) | (set << (bit - 1));
        }
        if (gx + 1 < kGridW) {
            const VideoHash set{moved[m].mean < mean(cell + 1)};
            video = (video & ~(1ULL << bit)) | (set << bit);
        }
    }
    return video;
}

VideoHash ContentStream::video_at(SimTime t) const {
    const Basis& basis = basis_of(scene_index_at(t));
    return video_of(basis, motion_at(basis, frame_index_at(t)));
}

FrameFingerprint ContentStream::fingerprint_at(SimTime t) const {
    const std::size_t scene = scene_index_at(t);
    const std::uint64_t frame = frame_index_at(t);
    const std::uint64_t stride = last_frame_ < frame ? frame - last_frame_ : 1;
    last_frame_ = frame;
    if (ahead_.scene == scene && frame >= ahead_.first) {
        const std::uint64_t gap = frame - ahead_.first;
        if (gap % ahead_.stride == 0 && gap / ahead_.stride < ahead_.count) {
            return ahead_.fingerprints[gap / ahead_.stride];
        }
    }
    Basis& basis = basis_of(scene);
    if (basis.is_static) {
        if (!basis.detail) {
            // One pass with no edits: every lane holds the plane's hash.
            std::array<std::uint32_t, 8> h{};
            hash_lanes(basis.luma, {}, h);
            basis.detail = fold_detail(h[0]);
        }
        return {basis.video, *basis.detail};
    }
    read_ahead(basis, frame, stride);
    return ahead_.fingerprints[0];
}

void ContentStream::read_ahead(const Basis& basis, std::uint64_t first,
                               std::uint64_t stride) const {
    // Up to the last frame that starts before the scene ends.
    const auto frame_start = [](std::uint64_t frame) {
        return SimTime::millis(kFrameMillis * static_cast<std::int64_t>(frame));
    };
    std::size_t count = 1;
    while (count < kLanes && frame_start(first + count * stride) < scene_ends_[basis.scene]) {
        ++count;
    }
    // Every lane's edits in pixel order, by a counting sort over the plane
    // (two edits of one lane on one pixel compose in either order).
    std::array<Motion, kLanes> motions{};
    std::vector<std::uint16_t> slot(basis.luma.size() + 1);
    std::size_t edit_count = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const Motion& motion = motions[k] = motion_at(basis, first + k * stride);
        for (std::size_t e = 0; e < motion.count; ++e) ++slot[motion.edits[e].index + 1];
        edit_count += motion.count;
    }
    std::partial_sum(slot.begin(), slot.end(), slot.begin());
    std::array<LaneEdit, 2 * kLanes> edits{};
    for (std::size_t k = 0; k < count; ++k) {
        for (std::size_t e = 0; e < motions[k].count; ++e) {
            const PixelEdit& edit = motions[k].edits[e];
            edits[slot[edit.index]++] =
                LaneEdit{static_cast<std::uint32_t>(edit.index), static_cast<std::uint8_t>(k),
                         static_cast<std::uint8_t>(edit.before ^ edit.after)};
        }
    }

    // The pass rounds its lanes up to a multiple of 8. Lanes past `count`
    // hash the plane as it is; nothing reads them.
    static_assert(kLanes % 8 == 0 && kLanes <= 256, "LaneEdit::lane is one byte");
    std::array<std::uint32_t, kLanes> h{};
    hash_lanes(basis.luma, std::span(edits).first(edit_count),
               std::span(h).first((count + 7) / 8 * 8));
    for (std::size_t k = 0; k < count; ++k) {
        ahead_.fingerprints[k] = {video_of(basis, motions[k]), fold_detail(h[k])};
    }
    ahead_.scene = basis.scene;
    ahead_.first = first;
    ahead_.stride = stride;
    ahead_.count = count;
}

SimTime ContentStream::scene_start(std::size_t scene_index) const {
    if (scene_index == 0) return SimTime{};
    ensure_schedule(SimTime{});
    while (scene_ends_.size() < scene_index) ensure_schedule(scene_ends_.back());
    return scene_ends_[scene_index - 1];
}

AudioWindow ContentStream::audio_at(SimTime t) const {
    // The client aligns its analysis window to the last audio onset (the
    // scene boundary), so captures within one scene analyze the same window
    // — a real PCM -> Goertzel filter-bank pass, not a lookup table.
    const std::size_t scene = scene_index_at(t);
    for (const auto& [cached_scene, window] : audio_cache_) {
        if (cached_scene == scene) return window;
    }
    const PcmChunk pcm = synthesize_audio(*this, scene_start(scene), SimTime::millis(100));
    const AudioWindow window = analyze_window(pcm.samples);
    if (audio_cache_.size() >= 8) audio_cache_.erase(audio_cache_.begin());
    audio_cache_.emplace_back(scene, window);
    return window;
}

}  // namespace tvacr::fp
