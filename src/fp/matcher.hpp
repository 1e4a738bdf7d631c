// The ACR match server: identifies what content a fingerprint batch shows.
//
// Index: each 64-bit reference hash is cut into four 16-bit bands, and
// each (band, value) pair names one of 4 * 65536 buckets. The postings of
// all buckets sit in one contiguous array sorted by bucket (and, within a
// bucket, by content id then position). A rank directory finds a bucket's
// slice: a 4096-word occupancy bitmap (32 KB) with one bit per bucket, one
// uint32 rank per word (16 KB) counting the set bits in the words below it,
// and offsets for the occupied buckets only (at most postings + 1 entries).
// An empty bucket is rejected by one bit test; an occupied bucket's
// ordinal among the occupied ones is rank[w] plus the set bits below it in
// its word (Jacobson's rank), and offsets[ordinal] .. offsets[ordinal + 1]
// is its slice. The slices are the ones a flat offset table over every
// bucket would give (an empty bucket's slice is empty either way), so no
// lookup and no match result depends on the directory. A cell's catalog
// occupies about 7,300 buckets, so its directory is about 78 KB where a
// flat table of 4 * 65536 + 1 offsets was 1 MB.
//
// A batch hash retrieves candidates sharing any band exactly (an LSH
// scheme — a candidate whose flipped bits touch at most three of the four
// bands must agree on the remaining band), and candidates are verified by
// exact Hamming distance over the postings' packed hash column with the
// SWAR kernels in fp/swar.hpp. Verified candidates vote for (content, time
// offset); the best-aligned content wins when enough records agree.
//
// Each distinct hash is posted once, at its least (content id, position).
// A scene's hash repeats at every reference step of the scene, and equal
// hashes have equal distance to any query and share all four buckets, so
// under the (distance, content_id, position) order below only the least of
// them can ever be chosen. Dropping the rest is exact.
//
// match_reference() is the retained scalar engine: brute force over every
// reference hash with std::popcount and no index. Its result is the
// specification. Equality guarantee: whenever a record's nearest reference
// hash lies within 3 bits, the two engines agree bit-for-bit — a <4-bit
// difference cannot touch all four bands, so the brute-force winner (and
// every candidate tied with it) is always retrieved. Beyond that, a
// band-straddling near-collision with an unrelated reference at distance
// 4..max_hamming may be visible only to the brute-force scan, so equality
// for noisier queries is a property of the data, not a theorem. The
// equivalence tests + bench_match enforce the guarantee on its provable
// region and pin the noisier behaviour with seeded workloads.
//
// Determinism: both engines order candidates by (distance, content_id,
// position) and alignments by (votes desc, content_id, bucket), so results
// never depend on hash-map iteration order. (An earlier version leaked
// unordered_multimap order into equal-distance candidate choices and
// equal-vote winners; the tie-break regression tests pin the fix.)
#pragma once

#include <optional>
#include <vector>

#include "fp/batch.hpp"
#include "fp/library.hpp"

namespace tvacr::fp {

struct MatchResult {
    std::uint64_t content_id = 0;
    /// Position within the content where the batch's first record aligned.
    SimTime content_offset;
    int votes = 0;
    double confidence = 0.0;  // votes / records
    /// Fraction of audio-carrying records whose audio hash agrees with the
    /// reference at the aligned position ("frames and/or audio", Figure 1);
    /// -1 when the batch carried no audio.
    double audio_agreement = -1.0;
};

/// Matching thresholds.
struct MatchOptions {
    int max_hamming = 10;
    /// Minimum fraction of batch records that must agree on the same
    /// (content, offset) alignment.
    double min_confidence = 0.35;
    /// Alignment bucket: votes within this window pool together. Must
    /// exceed the typical scene length — per-scene hashes pin a record's
    /// content position only to scene granularity, so a tight bucket
    /// scatters votes that belong to one session.
    SimTime offset_tolerance = SimTime::seconds(8);
    /// Minimum number of *distinct* record hashes that must support the
    /// winning alignment. A batch that dwells on a single scene carries one
    /// hash repeated hundreds of times; one near-collision would otherwise
    /// win with full confidence.
    int min_distinct_evidence = 2;
};

class MatchServer {
  public:
    using Options = MatchOptions;

    explicit MatchServer(const ContentLibrary& library, Options options = Options());

    /// Rebuilds the band index from the library (call after library changes).
    void reindex();

    /// Banded engine: band-LSH retrieval + SWAR-verified voting.
    [[nodiscard]] std::optional<MatchResult> match(const FingerprintBatch& batch) const;

    /// Scalar reference engine: brute force over the whole library, no
    /// index. Slow, obviously correct; the equivalence contract for match().
    [[nodiscard]] std::optional<MatchResult> match_reference(const FingerprintBatch& batch) const;

    /// Reference hashes read from the library by the last reindex().
    [[nodiscard]] std::size_t indexed_hashes() const noexcept { return indexed_hashes_; }
    /// Band postings in the index: four per distinct reference hash.
    [[nodiscard]] std::size_t postings() const noexcept { return posting_hash_.size(); }
    /// Bytes the index holds: the bucket directory plus the posting columns.
    [[nodiscard]] std::size_t index_bytes() const noexcept;

  private:
    static constexpr int kBands = 4;
    static constexpr std::size_t kBucketCount = static_cast<std::size_t>(kBands) << 16;
    static constexpr std::size_t kDirectoryWords = kBucketCount / 64;

    /// Bucket b's postings: [start, end) in the posting columns, empty when
    /// no posting has b's band value.
    struct Slice {
        std::size_t start = 0;
        std::size_t end = 0;
    };
    [[nodiscard]] Slice bucket_slice(std::size_t bucket) const noexcept;
    /// Occupied buckets below `bucket`: its entry in bucket_start_ when it
    /// is occupied itself.
    [[nodiscard]] std::uint32_t ordinal(std::size_t bucket) const noexcept;

    /// Rank directory (built by reindex): bit b of occupied_ is set when
    /// bucket b holds postings; rank_[w] counts the set bits of words below
    /// w; bucket_start_ holds one offset per occupied bucket plus the end.
    std::vector<std::uint64_t> occupied_;        // kDirectoryWords words
    std::vector<std::uint32_t> rank_;            // kDirectoryWords ranks
    std::vector<std::uint32_t> bucket_start_;    // occupied buckets + 1 offsets
    /// Posting columns, sorted by bucket. The hash column is what the SWAR
    /// verification loop streams; content/position are only touched for
    /// surviving candidates.
    std::vector<VideoHash> posting_hash_;        // full 64-bit hash per posting
    std::vector<std::uint64_t> posting_content_;  // parallel: owning content id
    std::vector<std::uint32_t> posting_position_;  // parallel: reference step

    const ContentLibrary& library_;
    Options options_;
    std::size_t indexed_hashes_ = 0;
};

}  // namespace tvacr::fp
