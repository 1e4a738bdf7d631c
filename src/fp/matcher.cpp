#include "fp/matcher.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

#include "fp/swar.hpp"
#include "fp/video_fp.hpp"

namespace tvacr::fp {

namespace {

/// One record's best-verified candidate. Both engines pick the minimum of
/// (distance, content_id, position) — a total order, so the choice is
/// independent of scan order — and report no candidate when nothing lands
/// within max_hamming.
struct Candidate {
    int distance = 0;
    std::uint64_t content_id = 0;
    std::uint32_t position = 0;
    bool valid = false;

    void consider(int d, std::uint64_t content, std::uint32_t pos) noexcept {
        if (!valid || d < distance ||
            (d == distance &&
             (content < content_id || (content == content_id && pos < position)))) {
            distance = d;
            content_id = content;
            position = pos;
            valid = true;
        }
    }
};

/// The (band, value) bucket of a hash's `band`-th 16-bit band.
std::size_t bucket_of(VideoHash hash, int band) noexcept {
    return (static_cast<std::size_t>(band) << 16) |
           static_cast<std::uint16_t>(hash >> (band * 16));
}

/// Fixed-capacity open-addressing set of 64-bit hashes (linear probing),
/// sized for at least `max_size` inserts at a load of at most one half.
/// Slot value 0 marks an empty slot, so the hash 0 is tracked by a flag.
class HashSet {
  public:
    explicit HashSet(std::size_t max_size)
        : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_size, 2)), 0),
          shift_(64 - std::countr_zero(slots_.size())) {}

    /// True when `hash` was not in the set before.
    bool insert(VideoHash hash) {
        if (hash == 0) return !std::exchange(has_zero_, true);
        const std::size_t mask = slots_.size() - 1;
        // Fibonacci hashing: the multiply's top bits spread clustered keys.
        for (std::size_t i = (hash * 0x9E3779B97F4A7C15ULL) >> shift_;; i = (i + 1) & mask) {
            if (slots_[i] == hash) return false;
            if (slots_[i] == 0) {
                slots_[i] = hash;
                return true;
            }
        }
    }

  private:
    std::vector<VideoHash> slots_;
    int shift_;
    bool has_zero_ = false;
};

/// Voting + winner selection + audio corroboration, shared verbatim by the
/// banded and reference engines; only the per-record candidate search
/// (`find_best`) differs. Keeping this in one place is what makes the
/// byte-identity contract between the engines checkable at all.
template <typename FindBest>
std::optional<MatchResult> resolve_match(const ContentLibrary& library,
                                         const MatchOptions& options,
                                         const FingerprintBatch& batch, FindBest&& find_best) {
    if (batch.records.empty()) return std::nullopt;

    // Votes keyed by (content, aligned start bucket). The alignment bucket is
    // where the *batch start* would sit in the content's timeline, so records
    // from different offsets of the same viewing session agree.
    struct Key {
        std::uint64_t content;
        std::int64_t bucket;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const noexcept {
            return std::hash<std::uint64_t>{}(k.content * 0x9E3779B97F4A7C15ULL ^
                                              static_cast<std::uint64_t>(k.bucket));
        }
    };
    struct Tally {
        int votes = 0;
        VideoHash last_hash = 0;
        int distinct = 0;
    };
    std::unordered_map<Key, Tally, KeyHash> votes;

    const std::int64_t tolerance_us = options.offset_tolerance.as_micros();
    const std::int64_t reference_us = ContentLibrary::kReferencePeriod.as_micros();

    // Voting over every record is wasteful for dense batches (LG uploads
    // 1500 records per 15 s); sampling ~4 records per second loses nothing
    // because neighbouring records carry the same scene hash.
    const std::uint32_t period_ms = std::max<std::uint32_t>(batch.capture_period_ms, 1);
    const std::size_t stride = std::max<std::size_t>(1, 250 / period_ms);
    std::size_t sampled = 0;

    for (std::size_t i = 0; i < batch.records.size(); i += stride) {
        const auto& record = batch.records[i];
        ++sampled;
        const Candidate best = find_best(record.video);
        if (!best.valid) continue;
        const std::int64_t content_us = static_cast<std::int64_t>(best.position) * reference_us;
        const std::int64_t start_us =
            content_us - static_cast<std::int64_t>(record.offset_ms) * 1000;
        // Round (not floor) to the bucket centre so a session start near a
        // bucket edge does not split its votes between two buckets.
        const std::int64_t bucket = (start_us + tolerance_us / 2) / tolerance_us;
        auto& tally = votes[Key{best.content_id, bucket}];
        tally.votes += 1;
        if (tally.distinct == 0 || tally.last_hash != record.video) {
            tally.distinct += 1;
            tally.last_hash = record.video;
        }
    }

    // Winner: most votes; equal-vote ties go to the lowest content id, then
    // the earliest alignment bucket. A total order over the tally keys, so
    // the unordered_map's iteration order cannot leak into the result.
    const Key* best_key = nullptr;
    const Tally* best_tally = nullptr;
    for (const auto& [key, tally] : votes) {
        if (best_tally == nullptr || tally.votes > best_tally->votes ||
            (tally.votes == best_tally->votes &&
             (key.content < best_key->content ||
              (key.content == best_key->content && key.bucket < best_key->bucket)))) {
            best_key = &key;
            best_tally = &tally;
        }
    }
    if (best_tally == nullptr) return std::nullopt;
    if (best_tally->distinct < options.min_distinct_evidence) return std::nullopt;

    const double confidence =
        static_cast<double>(best_tally->votes) / static_cast<double>(sampled);
    if (confidence < options.min_confidence) return std::nullopt;

    MatchResult result;
    result.content_id = best_key->content;
    result.content_offset =
        SimTime::micros(std::max<std::int64_t>(0, best_key->bucket * tolerance_us));
    result.votes = best_tally->votes;
    result.confidence = std::min(confidence, 1.0);

    // Audio corroboration: compare the batch's audio hashes against the
    // reference audio at the aligned position, which the library computes
    // only for the steps probed here. Scene granularity makes exact per-step
    // alignment unnecessary — agreement within +/-1 step counts.
    if (batch.has_audio) {
        int audio_checked = 0;
        int audio_agree = 0;
        for (std::size_t i = 0; i < batch.records.size(); i += stride) {
            const auto& record = batch.records[i];
            if (record.audio == 0) continue;
            const std::int64_t position_us = result.content_offset.as_micros() +
                                             static_cast<std::int64_t>(record.offset_ms) * 1000;
            const std::int64_t step = position_us / reference_us;
            ++audio_checked;
            for (std::int64_t probe = step - 1; probe <= step + 1; ++probe) {
                if (library.reference_audio(result.content_id, probe) == record.audio) {
                    ++audio_agree;
                    break;
                }
            }
        }
        if (audio_checked > 0) {
            result.audio_agreement =
                static_cast<double>(audio_agree) / static_cast<double>(audio_checked);
        }
    }
    return result;
}

}  // namespace

MatchServer::MatchServer(const ContentLibrary& library, Options options)
    : library_(library), options_(options) {
    reindex();
}

void MatchServer::reindex() {
    indexed_hashes_ = 0;

    // Deterministic build order — content ids ascending — so the walk below
    // visits reference hashes in (content_id, position) order no matter how
    // the library's hash map is laid out. Reading a track builds it on first
    // use (ContentLibrary::reference_hashes).
    std::vector<std::uint64_t> content_ids;
    content_ids.reserve(library_.entries().size());
    std::size_t total_hashes = 0;
    for (const auto& [content_id, entry] : library_.entries()) {
        content_ids.push_back(content_id);
        total_hashes += library_.reference_hashes(content_id).size();
    }
    std::sort(content_ids.begin(), content_ids.end());

    // Keep each distinct hash once, at its first — least — (content_id,
    // position): the only one of its equals match() could choose (see the
    // header).
    struct Posting {
        VideoHash hash;
        std::uint64_t content_id;
        std::uint32_t position;
    };
    std::vector<Posting> distinct;
    {
        HashSet seen(total_hashes);
        for (const std::uint64_t content_id : content_ids) {
            const auto hashes = library_.reference_hashes(content_id);
            for (std::size_t position = 0; position < hashes.size(); ++position) {
                if (seen.insert(hashes[position])) {
                    distinct.push_back(
                        {hashes[position], content_id, static_cast<std::uint32_t>(position)});
                }
            }
            indexed_hashes_ += hashes.size();
        }
    }

    // Rank directory: mark every occupied (band, value) bucket, then rank
    // each bitmap word by the set bits of the words below it.
    occupied_.assign(kDirectoryWords, 0);
    for (const Posting& posting : distinct) {
        for (int band = 0; band < kBands; ++band) {
            const std::size_t bucket = bucket_of(posting.hash, band);
            occupied_[bucket >> 6] |= 1ULL << (bucket & 63);
        }
    }
    rank_.assign(kDirectoryWords, 0);
    std::uint32_t occupied_buckets = 0;
    for (std::size_t word = 0; word < kDirectoryWords; ++word) {
        rank_[word] = occupied_buckets;
        occupied_buckets += static_cast<std::uint32_t>(swar::popcount64(occupied_[word]));
    }

    // Counting sort over the occupied buckets: count ordinal k's postings in
    // bucket_start_[k], and the running sum makes each entry its bucket's
    // end (the extra last entry, the total). Placing the postings in reverse
    // walk order at --bucket_start_[k] fills each bucket back to front,
    // which keeps the (content_id, position) walk order within the bucket
    // and leaves each entry at its bucket's start.
    bucket_start_.assign(static_cast<std::size_t>(occupied_buckets) + 1, 0);
    for (const Posting& posting : distinct) {
        for (int band = 0; band < kBands; ++band) {
            ++bucket_start_[ordinal(bucket_of(posting.hash, band))];
        }
    }
    for (std::size_t k = 1; k < bucket_start_.size(); ++k) {
        bucket_start_[k] += bucket_start_[k - 1];
    }
    const std::size_t total_postings = distinct.size() * kBands;
    posting_hash_.assign(total_postings, 0);
    posting_content_.assign(total_postings, 0);
    posting_position_.assign(total_postings, 0);
    for (auto posting = distinct.rbegin(); posting != distinct.rend(); ++posting) {
        for (int band = 0; band < kBands; ++band) {
            const std::uint32_t at = --bucket_start_[ordinal(bucket_of(posting->hash, band))];
            posting_hash_[at] = posting->hash;
            posting_content_[at] = posting->content_id;
            posting_position_[at] = posting->position;
        }
    }
}

std::uint32_t MatchServer::ordinal(std::size_t bucket) const noexcept {
    const std::uint64_t below = (1ULL << (bucket & 63)) - 1;
    return rank_[bucket >> 6] +
           static_cast<std::uint32_t>(swar::popcount64(occupied_[bucket >> 6] & below));
}

MatchServer::Slice MatchServer::bucket_slice(std::size_t bucket) const noexcept {
    if (((occupied_[bucket >> 6] >> (bucket & 63)) & 1) == 0) return {};
    const std::uint32_t k = ordinal(bucket);
    return {bucket_start_[k], bucket_start_[k + 1]};
}

std::size_t MatchServer::index_bytes() const noexcept {
    return occupied_.size() * sizeof(std::uint64_t) + rank_.size() * sizeof(std::uint32_t) +
           bucket_start_.size() * sizeof(std::uint32_t) +
           posting_hash_.size() * sizeof(VideoHash) +
           posting_content_.size() * sizeof(std::uint64_t) +
           posting_position_.size() * sizeof(std::uint32_t);
}

std::optional<MatchResult> MatchServer::match(const FingerprintBatch& batch) const {
    const auto find_best = [this](VideoHash query) {
        Candidate best;
        const int max_hamming = options_.max_hamming;
        for (int band = 0; band < kBands; ++band) {
            const Slice slice = bucket_slice(bucket_of(query, band));
            std::size_t i = slice.start;
            const std::size_t end = slice.end;
            // Verify in packed 4-wide blocks; the scalar kernel mops up the
            // tail. Same arithmetic either way (fp/swar.hpp), distances are
            // exact, and the (distance, content, position) total order makes
            // block traversal order irrelevant.
            for (; i + 4 <= end; i += 4) {
                const swar::Distances4 d4 = swar::hamming4(&posting_hash_[i], query);
                if (d4.d0 <= max_hamming) {
                    best.consider(d4.d0, posting_content_[i], posting_position_[i]);
                }
                if (d4.d1 <= max_hamming) {
                    best.consider(d4.d1, posting_content_[i + 1], posting_position_[i + 1]);
                }
                if (d4.d2 <= max_hamming) {
                    best.consider(d4.d2, posting_content_[i + 2], posting_position_[i + 2]);
                }
                if (d4.d3 <= max_hamming) {
                    best.consider(d4.d3, posting_content_[i + 3], posting_position_[i + 3]);
                }
            }
            for (; i < end; ++i) {
                const int distance = swar::hamming1(posting_hash_[i], query);
                if (distance <= max_hamming) {
                    best.consider(distance, posting_content_[i], posting_position_[i]);
                }
            }
        }
        return best;
    };
    return resolve_match(library_, options_, batch, find_best);
}

std::optional<MatchResult> MatchServer::match_reference(const FingerprintBatch& batch) const {
    const auto find_best = [this](VideoHash query) {
        Candidate best;
        // Every reference hash of every content, no index: hamming() is the
        // plain std::popcount scalar path. The candidate total order makes
        // the library's unordered iteration harmless.
        for (const auto& [content_id, entry] : library_.entries()) {
            const auto hashes = library_.reference_hashes(content_id);
            for (std::size_t position = 0; position < hashes.size(); ++position) {
                const int distance = hamming(hashes[position], query);
                if (distance <= options_.max_hamming) {
                    best.consider(distance, content_id, static_cast<std::uint32_t>(position));
                }
            }
        }
        return best;
    };
    return resolve_match(library_, options_, batch, find_best);
}

}  // namespace tvacr::fp
