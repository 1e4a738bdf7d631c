// Server-side content library: the database of known content (movies, ads,
// live feeds) that uploaded fingerprints are matched against (Figure 1).
#pragma once

#include <mutex>
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

    /// Registers content; hashes nothing until a reference is read.
    void add(const ContentInfo& info);

    [[nodiscard]] const ContentInfo* find(std::uint64_t content_id) const;
    /// The content's video hash at every kReferencePeriod step, built on
    /// first read and valid for the library's lifetime (until the content is
    /// re-added); empty for an unknown id. Safe to call from several threads.
    [[nodiscard]] std::span<const VideoHash> reference_hashes(std::uint64_t content_id) const;
    /// audio_hash of the content's audio at reference step `step`, computed
    /// on demand: the backend reads audio only to corroborate a video match,
    /// a few steps around its alignment. nullopt for an unknown id or a step
    /// outside [0, duration / kReferencePeriod). Thread-safe.
    [[nodiscard]] std::optional<std::uint32_t> reference_audio(std::uint64_t content_id,
                                                               std::int64_t step) const;
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

    struct Entry {
        ContentInfo info;

      private:
        friend class ContentLibrary;
        explicit Entry(const ContentInfo& content)
            : info(content), stream(content.seed, content.dynamics) {}

        ContentStream stream;
        // Filled by the first reference_hashes and never changed after, so
        // the spans handed out stay valid.
        mutable std::vector<VideoHash> hashes;
    };
    [[nodiscard]] const std::unordered_map<std::uint64_t, Entry>& entries() const noexcept {
        return entries_;
    }

  private:
    std::unordered_map<std::uint64_t, Entry> entries_;
    // Guards the entries' streams and lazily filled tracks.
    mutable std::mutex streams_mutex_;
};

/// A small builtin catalog spanning the genres and kinds the scenarios use;
/// deterministic given `seed`.
[[nodiscard]] std::vector<ContentInfo> builtin_catalog(std::uint64_t seed);

}  // namespace tvacr::fp
