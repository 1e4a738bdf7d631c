// bench_match — throughput benchmark for the ACR match server's banded
// (band-LSH + SWAR verification) engine against the retained scalar
// brute-force reference.
//
//   bench_match [--out BENCH_match.json]
//
// The workload is deterministic: the builtin content catalog (seeded) is
// indexed, then a fixed population of fingerprint batches is synthesized —
// clean aligned, noisy (≤3 flips per hash, inside the provable region of
// the engine-equality contract: a <4-bit nearest neighbour cannot straddle
// all four bands), and unknown-content batches. The same mix runs against
// a duplicated catalog that registers every content twice, where each
// match must name the lower id, and its index (postings and bytes) must be
// no larger than the plain catalog's. Both engines answer every batch; the run
// *fails* (non-zero exit) if any answer differs, so the published
// queries/sec figure is certified byte-identical to the scalar semantics.
// Throughput for both engines plus the speedup ratio land in a
// machine-readable BENCH_match.json.
//
// Wall-clock readings here are benchmark instrumentation, not simulation
// state — hence the lint allowance.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "fp/batch.hpp"
#include "fp/content.hpp"
#include "fp/library.hpp"
#include "fp/matcher.hpp"
#include "fp/video_fp.hpp"

using namespace tvacr;

namespace {

double now_seconds() {
    using clock = std::chrono::steady_clock;  // tvacr-lint: allow(no-wallclock) bench timing
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Two results are interchangeable iff every observable field is equal.
/// Doubles compare exactly: both engines run the identical voting
/// arithmetic, so any difference is a real divergence.
bool same_result(const std::optional<fp::MatchResult>& a,
                 const std::optional<fp::MatchResult>& b) {
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    // Exact double equality is deliberate: identical voting arithmetic must
    // produce identical bits, and "close enough" would mask a divergence.
    return a->content_id == b->content_id && a->content_offset == b->content_offset &&
           a->votes == b->votes && a->confidence == b->confidence &&
           a->audio_agreement == b->audio_agreement;
}

/// Batch of `records` hashes lifted straight from `track` starting at
/// `base`, with up to `max_flips` bit flips per hash (anywhere in the 64
/// bits). At most 3 flips the nearest reference stays within 3 bits, where
/// the banded engine is provably bit-for-bit equal to the brute-force scan.
fp::FingerprintBatch noisy_batch(std::span<const fp::VideoHash> track, std::size_t base,
                                 int records, int max_flips, Rng& rng) {
    fp::FingerprintBatch batch;
    batch.device_id = 1;
    batch.capture_period_ms = 500;
    for (int i = 0; i < records; ++i) {
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(500 * i);
        fp::VideoHash hash = track[(base + static_cast<std::size_t>(i)) % track.size()];
        const int flips = max_flips > 0 ? static_cast<int>(rng() % (max_flips + 1)) : 0;
        for (int f = 0; f < flips; ++f) hash ^= 1ULL << (rng() % 64);
        record.video = hash;
        batch.records.push_back(record);
    }
    return batch;
}

/// The deterministic query mix over `library`'s `catalog`: per round, a
/// clean aligned and a noisy (≤3 flips) batch per content, then one batch
/// of an unregistered stream.
std::vector<fp::FingerprintBatch> make_queries(const fp::ContentLibrary& library,
                                               const std::vector<fp::ContentInfo>& catalog,
                                               Rng& rng) {
    std::vector<fp::FingerprintBatch> queries;
    for (int round = 0; round < 4; ++round) {
        for (const auto& info : catalog) {
            const auto track = library.reference_hashes(info.id);
            if (track.size() < 40) continue;
            const std::size_t base = static_cast<std::size_t>(rng() % (track.size() - 35));
            queries.push_back(noisy_batch(track, base, 30, 0, rng));
            queries.push_back(noisy_batch(track, base, 30, 3, rng));
        }
        // Unknown content: hashes from an unregistered stream.
        fp::ContentInfo unknown;
        unknown.seed = 0xDEAD0000ULL + static_cast<std::uint64_t>(round);
        unknown.dynamics = fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast);
        const fp::ContentStream stream(unknown.seed, unknown.dynamics);
        fp::FingerprintBatch miss;
        miss.device_id = 2;
        miss.capture_period_ms = 500;
        for (int i = 0; i < 30; ++i) {
            fp::CaptureRecord record;
            record.offset_ms = static_cast<std::uint32_t>(500 * i);
            record.video = fp::dhash(stream.frame_at(SimTime::millis(500 * i)));
            miss.records.push_back(record);
        }
        queries.push_back(miss);
    }
    return queries;
}

/// One query and the server that answers it.
struct Query {
    const fp::MatchServer* server;
    fp::FingerprintBatch batch;
};

int usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s [--out BENCH_match.json]\n", argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_match.json";
    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--out", out_path},
        },
        usage);
    if (!positionals.empty()) return usage(argv[0]);

    fp::ContentLibrary library;
    const auto catalog = fp::builtin_catalog(/*seed=*/555);
    for (const auto& info : catalog) library.add(info);
    const fp::MatchServer server(library);
    std::printf("library: %zu contents, %zu reference hashes indexed, %zu postings, "
                "%zu index bytes\n",
                library.size(), server.indexed_hashes(), server.postings(),
                server.index_bytes());

    // The duplicated catalog registers every content a second time under a
    // higher id, so every reference hash has two owners. The deduplicated
    // index must post no more than for the plain catalog, and every match
    // must name the lower id (the engines' (distance, content_id, position)
    // tie-break).
    constexpr std::uint64_t kTwinIdOffset = 1'000'000;
    fp::ContentLibrary duplicated;
    std::vector<fp::ContentInfo> twins;
    for (const auto& info : catalog) {
        fp::ContentInfo twin = info;
        twin.id += kTwinIdOffset;
        duplicated.add(twin);
        duplicated.add(info);
        twins.push_back(twin);
    }
    const fp::MatchServer duplicated_server(duplicated);
    std::printf("duplicated: %zu contents, %zu reference hashes indexed, %zu postings, "
                "%zu index bytes\n",
                duplicated.size(), duplicated_server.indexed_hashes(),
                duplicated_server.postings(), duplicated_server.index_bytes());
    if (duplicated_server.postings() != server.postings()) {
        std::fprintf(stderr, "DUPLICATED CATALOG POSTS %zu, NOT %zu\n",
                     duplicated_server.postings(), server.postings());
        return 1;
    }
    if (duplicated_server.index_bytes() > server.index_bytes()) {
        std::fprintf(stderr, "DUPLICATED CATALOG INDEX HOLDS %zu BYTES, MORE THAN %zu\n",
                     duplicated_server.index_bytes(), server.index_bytes());
        return 1;
    }

    // ---- workload: a deterministic mix of query batches --------------------
    Rng rng(0xACB9E9C4ULL);
    std::vector<Query> queries;
    for (auto& batch : make_queries(library, catalog, rng)) {
        queries.push_back({&server, std::move(batch)});
    }
    // Queries from the twin ids, so the lower id wins only by the tie-break.
    for (auto& batch : make_queries(duplicated, twins, rng)) {
        queries.push_back({&duplicated_server, std::move(batch)});
    }
    std::printf("workload: %zu query batches\n", queries.size());

    // ---- equivalence gate --------------------------------------------------
    std::vector<std::optional<fp::MatchResult>> expected;
    expected.reserve(queries.size());
    std::size_t hits = 0;
    for (const auto& query : queries) {
        auto reference = query.server->match_reference(query.batch);
        const auto banded = query.server->match(query.batch);
        if (!same_result(banded, reference)) {
            std::fprintf(stderr, "ENGINE DIVERGENCE on query %zu\n", expected.size());
            return 1;
        }
        if (banded.has_value() && query.server == &duplicated_server &&
            banded->content_id >= kTwinIdOffset) {
            std::fprintf(stderr, "TIE-BREAK CHOSE THE HIGHER ID on query %zu\n",
                         expected.size());
            return 1;
        }
        if (banded.has_value()) ++hits;
        expected.push_back(std::move(reference));
    }
    std::printf("equivalence: %zu/%zu queries identical across engines (%zu matched)\n",
                queries.size(), queries.size(), hits);

    // ---- timed runs --------------------------------------------------------
    const auto time_engine = [&](auto&& run) {
        // Warmup pass, then the best-of-three timed passes.
        for (const auto& query : queries) (void)run(query);
        double best = 1e300;
        for (int pass = 0; pass < 3; ++pass) {
            const double t0 = now_seconds();
            for (std::size_t i = 0; i < queries.size(); ++i) {
                if (!same_result(run(queries[i]), expected[i])) {
                    std::fprintf(stderr, "ENGINE DIVERGENCE during timing\n");
                    std::exit(1);
                }
            }
            const double elapsed = now_seconds() - t0;
            if (elapsed < best) best = elapsed;
        }
        return static_cast<double>(queries.size()) / best;
    };
    const double banded_qps =
        time_engine([&](const Query& q) { return q.server->match(q.batch); });
    const double reference_qps =
        time_engine([&](const Query& q) { return q.server->match_reference(q.batch); });
    std::printf("banded:    %.1f queries/s\n", banded_qps);
    std::printf("reference: %.1f queries/s\n", reference_qps);
    std::printf("speedup:   %.2fx\n", banded_qps / reference_qps);

    analysis::JsonWriter json;
    json.begin_object();
    json.key("bench").value("match");
    json.key("contents").value(static_cast<std::uint64_t>(library.size()));
    json.key("indexed_hashes").value(static_cast<std::uint64_t>(server.indexed_hashes()));
    json.key("postings").value(static_cast<std::uint64_t>(server.postings()));
    json.key("index_bytes").value(static_cast<std::uint64_t>(server.index_bytes()));
    json.key("duplicated_contents").value(static_cast<std::uint64_t>(duplicated.size()));
    json.key("duplicated_indexed_hashes")
        .value(static_cast<std::uint64_t>(duplicated_server.indexed_hashes()));
    json.key("duplicated_postings")
        .value(static_cast<std::uint64_t>(duplicated_server.postings()));
    json.key("duplicated_index_bytes")
        .value(static_cast<std::uint64_t>(duplicated_server.index_bytes()));
    json.key("query_batches").value(static_cast<std::uint64_t>(queries.size()));
    json.key("records_per_batch").value(30);
    json.key("banded_queries_per_s").value(banded_qps);
    json.key("reference_queries_per_s").value(reference_qps);
    json.key("speedup").value(banded_qps / reference_qps);
    json.key("engines_identical").value(true);
    json.end_object();

    std::ofstream out(out_path, std::ios::trunc);
    out << std::move(json).take() << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
