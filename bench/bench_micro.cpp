// Micro-benchmarks (google-benchmark) for the hot paths: frame synthesis,
// perceptual hashing, capture fingerprints, reference tracks, the audio
// filter bank, the traffic period search, batch codecs, the match server,
// DNS and pcap codecs, and raw simulator event and capture-tick throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dns/message.hpp"
#include "fp/audio.hpp"
#include "fp/batch.hpp"
#include "fp/library.hpp"
#include "fp/matcher.hpp"
#include "fp/video_fp.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "sim/simulator.hpp"

using namespace tvacr;

namespace {

/// The seed-1 live broadcast that the single-stream benchmarks read.
fp::ContentStream live_stream() {
    return fp::ContentStream(1, fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast));
}

void BM_FrameSynthesis(benchmark::State& state) {
    const fp::ContentStream stream = live_stream();
    std::int64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stream.frame_at(SimTime::millis(t)));
        t += 10;
    }
}
BENCHMARK(BM_FrameSynthesis);

void BM_Dhash(benchmark::State& state) {
    const fp::ContentStream stream = live_stream();
    const fp::Frame frame = stream.frame_at(SimTime::seconds(1));
    for (auto _ : state) benchmark::DoNotOptimize(fp::dhash(frame));
}
BENCHMARK(BM_Dhash);

void BM_CaptureStep(benchmark::State& state) {
    // Full client capture cost: synthesize + dhash + detail.
    const fp::ContentStream stream = live_stream();
    std::int64_t t = 0;
    for (auto _ : state) {
        const fp::Frame frame = stream.frame_at(SimTime::millis(t));
        benchmark::DoNotOptimize(fp::dhash(frame));
        benchmark::DoNotOptimize(fp::frame_detail(frame));
        t += 10;
    }
}
BENCHMARK(BM_CaptureStep);

void BM_FingerprintAt(benchmark::State& state) {
    // The LG client's capture cost: the same fingerprints as
    // BM_CaptureStep, read every 10 ms, so one read-ahead pass fingerprints
    // the next 64 frames (fewer where the scene ends).
    const fp::ContentStream stream = live_stream();
    std::int64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stream.fingerprint_at(SimTime::millis(t)));
        t += 10;
    }
}
BENCHMARK(BM_FingerprintAt);

void BM_FingerprintAtScattered(benchmark::State& state) {
    // Samsung's 500 ms capture cadence: a miss fingerprints the frames
    // at the 50-frame stride up to the scene's end, and the captures that
    // follow in the scene read them.
    const fp::ContentStream stream = live_stream();
    std::int64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stream.fingerprint_at(SimTime::millis(t)));
        t += 500;
    }
}
BENCHMARK(BM_FingerprintAtScattered);

void BM_ReferenceTrack(benchmark::State& state) {
    // One 30-minute catalog entry's reference track (Cartoon Block): the
    // video track the first reference_hashes read builds; reference audio
    // is read lazily at match time.
    const fp::ContentInfo info = fp::builtin_catalog(1)[4];
    for (auto _ : state) {
        fp::ContentLibrary library;
        library.add(info);
        benchmark::DoNotOptimize(library.reference_hashes(info.id).data());
    }
}
BENCHMARK(BM_ReferenceTrack)->Unit(benchmark::kMicrosecond);

void BM_DominantPeriodHour(benchmark::State& state) {
    // identify()'s period search on one domain of an hour: 7,200 500 ms
    // buckets with a burst every 15 s, lags 5 s to 10 min.
    Rng rng(15);
    std::vector<double> hour(7200, 0.0);
    for (std::size_t i = 0; i < hour.size(); i += 30) {
        hour[i] = 20.0 + static_cast<double>(rng.uniform(0, 6));
    }
    for (auto _ : state) benchmark::DoNotOptimize(dominant_period(hour, 10, 1200, 0.25));
}
BENCHMARK(BM_DominantPeriodHour);

void BM_AnalyzeWindow(benchmark::State& state) {
    // One 100 ms window through the 8-band Goertzel bank.
    const fp::ContentStream stream = live_stream();
    const fp::PcmChunk pcm =
        fp::synthesize_audio(stream, SimTime::seconds(1), SimTime::millis(100));
    for (auto _ : state) benchmark::DoNotOptimize(fp::analyze_window(pcm.samples));
}
BENCHMARK(BM_AnalyzeWindow);

fp::FingerprintBatch bench_batch(int records) {
    fp::FingerprintBatch batch;
    batch.capture_period_ms = 10;
    for (int i = 0; i < records; ++i) {
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i * 10);
        record.video = splitmix64(static_cast<std::uint64_t>(i / 6));
        record.detail = static_cast<std::uint16_t>(i / 3);
        batch.records.push_back(record);
    }
    return batch;
}

void BM_BatchSerializeRle(benchmark::State& state) {
    const auto batch = bench_batch(1500);
    for (auto _ : state) {
        benchmark::DoNotOptimize(batch.serialize(fp::BatchEncoding::kCompactRle));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1500 * 12);
}
BENCHMARK(BM_BatchSerializeRle);

void BM_BatchDeserialize(benchmark::State& state) {
    const auto wire = bench_batch(1500).serialize(fp::BatchEncoding::kCompactRle);
    for (auto _ : state) benchmark::DoNotOptimize(fp::FingerprintBatch::deserialize(wire));
}
BENCHMARK(BM_BatchDeserialize);

const fp::ContentLibrary& bench_library() {
    static const fp::ContentLibrary* library = [] {
        // Leaked on purpose: it must outlive google-benchmark's teardown.
        // tvacr-lint: allow(no-raw-new-delete) intentionally leaked static
        auto* lib = new fp::ContentLibrary();
        for (const auto& info : fp::builtin_catalog(5)) lib->add(info);
        return lib;
    }();
    return *library;
}

/// `records` captures 500 ms apart from minute 3 of the library's first
/// entry, with audio hashes when `with_audio`.
fp::FingerprintBatch match_batch(int records, bool with_audio) {
    const auto& info = bench_library().entries().begin()->second.info;
    const fp::ContentStream stream(info.seed, info.dynamics);
    fp::FingerprintBatch batch;
    batch.capture_period_ms = 500;
    batch.has_audio = with_audio;
    for (int i = 0; i < records; ++i) {
        const SimTime t = SimTime::minutes(3) + SimTime::millis(i * 500);
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i * 500);
        record.video = fp::dhash(stream.frame_at(t));
        if (with_audio) record.audio = fp::audio_hash(stream.audio_at(t));
        batch.records.push_back(record);
    }
    return batch;
}

void BM_MatchServer(benchmark::State& state) {
    static const fp::MatchServer server(bench_library());
    const fp::FingerprintBatch batch = match_batch(30, false);
    for (auto _ : state) benchmark::DoNotOptimize(server.match(batch));
}
BENCHMARK(BM_MatchServer);

void BM_MatchServerAudio(benchmark::State& state) {
    // A Samsung-shaped upload: one minute of 500 ms captures with audio.
    // Corroboration reads the reference audio of the 24 scenes it spans,
    // more than the library stream's 8-scene cache holds, so every match
    // pays the analysis the library build no longer does up front.
    static const fp::MatchServer server(bench_library());
    const fp::FingerprintBatch batch = match_batch(120, true);
    for (auto _ : state) benchmark::DoNotOptimize(server.match(batch));
}
BENCHMARK(BM_MatchServerAudio)->Unit(benchmark::kMicrosecond);

void BM_DnsEncodeDecode(benchmark::State& state) {
    const auto name = dns::DomainName::parse("acr-eu-prd.samsungcloud.tv").value();
    const auto query = make_query(1, name, dns::RecordType::kA);
    const auto response = make_response(
        query, {dns::ResourceRecord::a(name, net::Ipv4Address(23, 0, 1, 10))},
        dns::ResponseCode::kNoError);
    for (auto _ : state) {
        const Bytes wire = response.encode();
        benchmark::DoNotOptimize(dns::DnsMessage::decode(wire));
    }
}
BENCHMARK(BM_DnsEncodeDecode);

void BM_FrameBuildParse(benchmark::State& state) {
    const net::FrameBuilder builder(net::MacAddress::local(1), net::MacAddress::local(2));
    const Bytes payload(1400, 0xAB);
    for (auto _ : state) {
        const net::Packet frame =
            builder.tcp(SimTime::millis(1), net::Endpoint{net::Ipv4Address(10, 0, 0, 1), 1000},
                        net::Endpoint{net::Ipv4Address(10, 0, 0, 2), 443}, 1, 1,
                        net::TcpFlags::kAck, payload);
        benchmark::DoNotOptimize(net::parse_packet(frame));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1454);
}
BENCHMARK(BM_FrameBuildParse);

void BM_PcapRoundTrip(benchmark::State& state) {
    const net::FrameBuilder builder(net::MacAddress::local(1), net::MacAddress::local(2));
    std::vector<net::Packet> packets;
    for (int i = 0; i < 100; ++i) {
        packets.push_back(builder.tcp(SimTime::millis(i),
                                      net::Endpoint{net::Ipv4Address(10, 0, 0, 1), 1000},
                                      net::Endpoint{net::Ipv4Address(10, 0, 0, 2), 443},
                                      static_cast<std::uint32_t>(i), 1, net::TcpFlags::kAck,
                                      Bytes(512, 0x11)));
    }
    for (auto _ : state) {
        const Bytes file = net::to_pcap_bytes(packets);
        benchmark::DoNotOptimize(net::from_pcap_bytes(file));
    }
}
BENCHMARK(BM_PcapRoundTrip);

void BM_SimulatorEvents(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulator simulator;
        int counter = 0;
        for (int i = 0; i < 10000; ++i) {
            simulator.at(SimTime::micros(i), [&counter]() { ++counter; });
        }
        simulator.run_all();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEvents);

void BM_CaptureTicks(benchmark::State& state) {
    // One simulated hour of 10 ms capture ticks beside 30 self-rescheduling
    // background events (a testbed's other timers): /1 runs the ticks
    // through Simulator::every, /0 as the guarded after() chain the capture
    // timer replaced, which allocates its closure and locks a weak_ptr on
    // every tick. items_per_second counts ticks.
    const bool timer = state.range(0) == 1;
    struct Background {
        sim::Simulator* simulator;
        Rng* rng;
        void operator()() const {
            simulator->after(SimTime::micros(rng->uniform(300'000, 3'000'000)), *this);
        }
    };
    struct Chain {
        sim::Simulator* simulator;
        std::weak_ptr<bool> alive;
        std::int64_t* ticks;
        void operator()() const {
            const auto lock = alive.lock();
            if (!lock || !*lock) return;
            ++*ticks;
            simulator->after(SimTime::millis(10), *this);
        }
    };
    std::int64_t ticks = 0;
    for (auto _ : state) {
        sim::Simulator simulator;
        Rng rng(7);
        for (int i = 0; i < 30; ++i) {
            simulator.at(SimTime::micros(rng.uniform(0, 3'000'000)), Background{&simulator, &rng});
        }
        const auto alive = std::make_shared<bool>(true);
        if (timer) {
            simulator.every(SimTime::millis(10), SimTime::millis(10), [&ticks]() { ++ticks; });
        } else {
            simulator.after(SimTime::millis(10), Chain{&simulator, alive, &ticks});
        }
        simulator.run_until(SimTime::hours(1));
    }
    state.SetItemsProcessed(ticks);
}
BENCHMARK(BM_CaptureTicks)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
