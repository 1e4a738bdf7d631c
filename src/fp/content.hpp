// Deterministic synthetic audio/video content.
//
// The paper's testbed displays real content (antenna broadcast, FAST
// channels, Netflix, an HDMI laptop/console). We cannot ship that, so each
// scenario's screen output is synthesized with the *temporal statistics*
// that drive fingerprint behaviour: scene-change cadence, fraction of
// fully-static intervals (menus, paused screens, desktops), and per-frame
// motion noise. The same generator seeds both the TV's ACR client and the
// server-side content library, so matching genuinely works end-to-end.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "fp/frame.hpp"
#include "fp/video_fp.hpp"

namespace tvacr::fp {

enum class ContentKind {
    kLiveBroadcast,  // linear/antenna channel feed
    kFastChannel,    // internet-streamed linear (Samsung TV+, LG Channels)
    kOttStream,      // third-party app (Netflix/YouTube)
    kHdmiDesktop,    // laptop browsing over HDMI (long static dwell)
    kHdmiConsole,    // gaming console over HDMI (near-constant motion)
    kScreenCast,     // mirrored phone/laptop screen
    kHomeScreen,     // TV launcher UI
    kAdvertisement,  // ad creative inside a break
};

enum class Genre { kNews, kSports, kDrama, kKids, kGaming, kShopping, kOther };

[[nodiscard]] std::string to_string(ContentKind kind);
[[nodiscard]] std::string to_string(Genre genre);

/// Temporal statistics of a content class. These, not hard-coded byte
/// counts, are what make per-scenario ACR traffic differ.
struct ContentDynamics {
    SimTime mean_scene_length = SimTime::seconds(4);
    /// Probability that a scene is fully static (no motion noise at all).
    double static_scene_fraction = 0.02;
    /// Per-frame probability that motion perturbs the frame within a
    /// non-static scene (live video ~1.0; desktops much lower).
    double motion_rate = 1.0;

    [[nodiscard]] static ContentDynamics for_kind(ContentKind kind);
};

/// The two video fingerprints of one capture.
struct FrameFingerprint {
    VideoHash video = 0;       // dhash of the frame
    std::uint16_t detail = 0;  // frame_detail of the frame
};

/// One lane's change at one pixel in a read-ahead pass: lane `lane` hashes
/// the plane's byte at `index` xor `flip`. Two edits of one lane on one
/// pixel compose, since their flips xor together.
struct LaneEdit {
    std::uint32_t index;
    std::uint8_t lane;
    std::uint8_t flip;
};

/// The lane loop of ContentStream's read-ahead pass: h[k] becomes
/// frame_detail's 32-bit FNV-1a state over `plane` with lane k's edits
/// applied. `edits` is sorted by index and names lanes below h.size(),
/// which is a multiple of 8. All lanes hash the same plane byte; an edit
/// xors its flip into its lane's state just before that pixel, so the
/// lane hashes (state ^ byte ^ flip). The lanes are independent chains of
/// 32-bit wraparound xor and multiply, so the loop runs at multiply
/// throughput and every ISA it is compiled for gives the same bits.
/// content.cpp compiles it once per ISA it dispatches on; it is inline so
/// that tests can compile it for each ISA too.
[[gnu::always_inline]] inline void fnv_lanes(std::span<const std::uint8_t> plane,
                                             std::span<const LaneEdit> edits,
                                             std::span<std::uint32_t> h) {
    std::uint32_t* const state = h.data();
    const std::size_t lanes = h.size();
    for (std::size_t k = 0; k < lanes; ++k) state[k] = 2166136261U;
    std::size_t i = 0;
    for (std::size_t e = 0;; ++e) {
        const std::size_t end = e < edits.size() ? edits[e].index : plane.size();
        for (; i < end; ++i) {
            const std::uint32_t pixel = plane[i];
            for (std::size_t g = 0; g < lanes; g += 8) {
                for (std::size_t k = g; k < g + 8; ++k) state[k] = (state[k] ^ pixel) * 16777619U;
            }
        }
        if (e == edits.size()) return;
        state[edits[e].lane] ^= edits[e].flip;
    }
}

/// A deterministic A/V stream: frame and audio content depend only on
/// (seed, time), so the client and the reference library agree bit-for-bit.
///
/// A frame is its scene's base plane plus at most two motion edits. The
/// stream caches the current scene's plane with its dhash cell sums (and,
/// for a static scene, its frame_detail), so synthesis runs once per scene
/// and each frame costs only its edits. A fingerprint_at that misses in a
/// moving scene fingerprints up to kLanes frames in one pass, spaced at the
/// reader's stride (the gap between its last two frame indices), and keeps
/// them for the reads that follow. Any read order is correct; reading at a
/// steady cadence in time order (as the ACR client does) is what makes the
/// caches hit. A stream is not safe to share across threads.
class ContentStream {
  public:
    ContentStream(std::uint64_t seed, ContentDynamics dynamics, int width = 36, int height = 16);

    [[nodiscard]] Frame frame_at(SimTime t) const;
    [[nodiscard]] AudioWindow audio_at(SimTime t) const;
    /// Equals {dhash(frame_at(t)), frame_detail(frame_at(t))}, computed by
    /// patching the scene's cached sums and hashing its plane with the edits.
    [[nodiscard]] FrameFingerprint fingerprint_at(SimTime t) const;
    /// Equals fingerprint_at(t).video, without hashing the frame's detail.
    [[nodiscard]] VideoHash video_at(SimTime t) const;

    /// Index of the scene containing `t` (scene boundaries are part of the
    /// deterministic schedule).
    [[nodiscard]] std::size_t scene_index_at(SimTime t) const;
    [[nodiscard]] bool scene_is_static(std::size_t scene_index) const;
    /// Start time of a scene (0 for the first scene).
    [[nodiscard]] SimTime scene_start(std::size_t scene_index) const;

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] const ContentDynamics& dynamics() const noexcept { return dynamics_; }
    [[nodiscard]] int width() const noexcept { return width_; }
    [[nodiscard]] int height() const noexcept { return height_; }

  private:
    static constexpr std::size_t kGridW = 9;  // dhash downsample grid
    static constexpr std::size_t kGridH = 8;
    /// Frames fingerprinted side by side by one read-ahead pass.
    static constexpr std::size_t kLanes = 64;
    static constexpr std::size_t kNoScene = static_cast<std::size_t>(-1);
    static constexpr std::size_t kCells = kGridW * kGridH;
    /// A half-open range [begin, end) along one axis: a downsample cell's
    /// pixels, or the cells that contain one pixel row or column.
    struct Span {
        int begin;
        int end;
        [[nodiscard]] int size() const { return end - begin; }
    };

    /// Everything about a scene that does not depend on the frame index.
    struct Basis {
        std::size_t scene = kNoScene;
        std::uint64_t scene_seed = 0;
        bool is_static = false;
        /// The scene's frame before motion, row-major.
        std::vector<std::uint8_t> luma;
        /// Pixel sums of dhash's downsample cells over `luma`, their means
        /// (downsample's truncating sum / area), and the hash.
        std::array<int, kCells> cell_sum{};
        std::array<std::uint8_t, kCells> cell_mean{};
        VideoHash video = 0;
        /// frame_detail of `luma`, for a static scene once fingerprint_at
        /// has read it.
        std::optional<std::uint16_t> detail;
    };
    /// One motion perturbation; a second edit of the same pixel starts
    /// from the first edit's value.
    struct PixelEdit {
        int x;
        int y;
        std::size_t index;  // y * width + x
        std::uint8_t before;
        std::uint8_t after;
    };
    struct Motion {
        std::size_t count = 0;
        std::array<PixelEdit, 2> edits{};
    };
    /// Fingerprints of frames first + k * stride, k < count, of one scene.
    struct ReadAhead {
        std::size_t scene = kNoScene;
        std::uint64_t first = 0;
        std::uint64_t stride = 1;
        std::size_t count = 0;
        std::array<FrameFingerprint, kLanes> fingerprints{};
    };

    /// Extends the cached scene schedule to cover `t`.
    void ensure_schedule(SimTime t) const;
    /// The basis of `scene`, rebuilt when it is not the cached one.
    Basis& basis_of(std::size_t scene) const;
    [[nodiscard]] Motion motion_at(const Basis& basis, std::uint64_t frame_index) const;
    /// dhash of the basis frame with `motion` applied.
    [[nodiscard]] VideoHash video_of(const Basis& basis, const Motion& motion) const;
    /// Fills ahead_ with frames first, first + stride, ... of the basis
    /// scene: kLanes of them, or fewer where the scene ends.
    void read_ahead(const Basis& basis, std::uint64_t first, std::uint64_t stride) const;

    std::uint64_t seed_;
    ContentDynamics dynamics_;
    int width_;
    int height_;
    // Lazily-grown deterministic scene schedule: start time of scene i+1.
    mutable std::vector<SimTime> scene_ends_;
    mutable Rng schedule_rng_;
    // Onset-aligned audio windows are scene-constant: cache the analysis.
    mutable std::vector<std::pair<std::size_t, AudioWindow>> audio_cache_;
    // Downsample cell bounds for this frame size, and for each pixel column
    // and row the cells that contain it (several where the frame is
    // narrower or shorter than the grid).
    std::array<Span, kGridW> cell_x_{};
    std::array<Span, kGridH> cell_y_{};
    std::vector<Span> owner_x_;
    std::vector<Span> owner_y_;
    mutable Basis basis_;
    mutable ReadAhead ahead_;
    // Frame index of the last fingerprint_at (none yet: no earlier read).
    mutable std::uint64_t last_frame_ = static_cast<std::uint64_t>(-1);
};

/// Catalog entry for the ACR backend's reference library.
struct ContentInfo {
    std::uint64_t id = 0;
    std::string title;
    Genre genre = Genre::kOther;
    ContentKind kind = ContentKind::kLiveBroadcast;
    SimTime duration = SimTime::minutes(30);
    std::uint64_t seed = 0;  // drives the ContentStream
    ContentDynamics dynamics;
};

}  // namespace tvacr::fp
