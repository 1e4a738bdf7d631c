// Server-side content library: the database of known content (movies, ads,
// live feeds) that uploaded fingerprints are matched against (Figure 1).
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fp/content.hpp"
#include "fp/video_fp.hpp"

namespace tvacr::fp {

class ContentLibrary {
  public:
    /// Reference fingerprints are sampled at this cadence.
    static constexpr SimTime kReferencePeriod = SimTime::millis(500);

    /// Whether add() also builds the per-step audio track. Only a library
    /// that matches audio-bearing batches needs it; without it
    /// reference_audio() is empty for every entry.
    enum class Audio { kIndexed, kNone };

    explicit ContentLibrary(Audio audio) : audio_(audio) {}

    /// Registers content and precomputes its reference hash track (and
    /// audio track when indexed).
    void add(const ContentInfo& info);

    [[nodiscard]] const ContentInfo* find(std::uint64_t content_id) const;
    [[nodiscard]] std::span<const VideoHash> reference_hashes(std::uint64_t content_id) const;
    [[nodiscard]] std::span<const std::uint32_t> reference_audio(std::uint64_t content_id) const;
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

    struct Entry {
        ContentInfo info;
        std::vector<VideoHash> hashes;        // one per kReferencePeriod step
        std::vector<std::uint32_t> audio;     // audio_hash per step, when indexed
    };
    [[nodiscard]] const std::unordered_map<std::uint64_t, Entry>& entries() const noexcept {
        return entries_;
    }

  private:
    Audio audio_;
    std::unordered_map<std::uint64_t, Entry> entries_;
};

/// A small builtin catalog spanning the genres and kinds the scenarios use;
/// deterministic given `seed`.
[[nodiscard]] std::vector<ContentInfo> builtin_catalog(std::uint64_t seed);

}  // namespace tvacr::fp
