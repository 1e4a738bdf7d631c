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

/// A deterministic A/V stream: frame and audio content depend only on
/// (seed, time), so the client and the reference library agree bit-for-bit.
///
/// A frame is its scene's base plane plus at most two motion edits. The
/// stream caches the current scene's plane with its dhash cell sums and
/// FNV-1a prefix states, so synthesis runs once per scene and each frame
/// costs only its edits. Any read order is correct; reading in time order
/// (as the ACR client and the library do) is what makes the cache hit. A
/// stream is not safe to share across threads.
class ContentStream {
  public:
    ContentStream(std::uint64_t seed, ContentDynamics dynamics, int width = 36, int height = 16);

    [[nodiscard]] Frame frame_at(SimTime t) const;
    [[nodiscard]] AudioWindow audio_at(SimTime t) const;
    /// Equals {dhash(frame_at(t)), frame_detail(frame_at(t))}, computed by
    /// patching the scene's cached sums and hash state with the edits.
    [[nodiscard]] FrameFingerprint fingerprint_at(SimTime t) const;

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
    using CellSums = std::array<int, kGridW * kGridH>;
    /// A downsample cell's pixel range along one axis: [begin, end).
    struct Span {
        int begin;
        int end;
        [[nodiscard]] bool contains(int i) const { return begin <= i && i < end; }
        [[nodiscard]] int size() const { return end - begin; }
    };

    /// Everything about a scene that does not depend on the frame index.
    struct Basis {
        std::size_t scene = static_cast<std::size_t>(-1);
        std::uint64_t scene_seed = 0;
        bool is_static = false;
        /// The scene's frame before motion, row-major.
        std::vector<std::uint8_t> luma;
        /// Pixel sums of dhash's downsample cells over `luma`, and the hash.
        CellSums cell_sum{};
        VideoHash video = 0;
        /// fnv[i]: frame_detail's FNV-1a state before pixel i.
        std::vector<std::uint32_t> fnv;
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

    /// Extends the cached scene schedule to cover `t`.
    void ensure_schedule(SimTime t) const;
    /// The basis of the scene containing `t`, rebuilt on a scene change.
    const Basis& basis_at(SimTime t) const;
    [[nodiscard]] Motion motion_at(const Basis& basis, SimTime t) const;
    /// dhash bit `bit` (left cell < right cell) computed from cell sums.
    [[nodiscard]] bool dhash_bit(const CellSums& sum, int bit) const;

    std::uint64_t seed_;
    ContentDynamics dynamics_;
    int width_;
    int height_;
    // Lazily-grown deterministic scene schedule: start time of scene i+1.
    mutable std::vector<SimTime> scene_ends_;
    mutable Rng schedule_rng_;
    // Onset-aligned audio windows are scene-constant: cache the analysis.
    mutable std::vector<std::pair<std::size_t, AudioWindow>> audio_cache_;
    // Downsample cell bounds for this frame size.
    std::array<Span, kGridW> cell_x_{};
    std::array<Span, kGridH> cell_y_{};
    mutable Basis basis_;
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
