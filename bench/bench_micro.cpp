// Micro-benchmarks (google-benchmark) for the hot paths: frame synthesis,
// perceptual hashing, capture fingerprints, the audio filter bank, batch
// codecs, the match server, DNS and pcap codecs, and raw simulator event
// throughput.
#include <benchmark/benchmark.h>

#include <sstream>

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

void BM_FrameSynthesis(benchmark::State& state) {
    const fp::ContentStream stream(1, fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast));
    std::int64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stream.frame_at(SimTime::millis(t)));
        t += 10;
    }
}
BENCHMARK(BM_FrameSynthesis);

void BM_Dhash(benchmark::State& state) {
    const fp::ContentStream stream(1, fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast));
    const fp::Frame frame = stream.frame_at(SimTime::seconds(1));
    for (auto _ : state) benchmark::DoNotOptimize(fp::dhash(frame));
}
BENCHMARK(BM_Dhash);

void BM_CaptureStep(benchmark::State& state) {
    // Full client capture cost: synthesize + dhash + detail.
    const fp::ContentStream stream(1, fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast));
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
    // The client's capture cost: the same fingerprints as BM_CaptureStep,
    // patched from the scene's cached sums and hash state.
    const fp::ContentStream stream(1, fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast));
    std::int64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stream.fingerprint_at(SimTime::millis(t)));
        t += 10;
    }
}
BENCHMARK(BM_FingerprintAt);

void BM_AnalyzeWindow(benchmark::State& state) {
    // One 100 ms window through the 8-band Goertzel bank.
    const fp::ContentStream stream(1, fp::ContentDynamics::for_kind(fp::ContentKind::kLiveBroadcast));
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

void BM_MatchServer(benchmark::State& state) {
    static const fp::ContentLibrary* library = [] {
        // tvacr-lint: allow(no-raw-new-delete) intentionally leaked static; destructor order with gbench
        auto* lib = new fp::ContentLibrary();
        for (const auto& info : fp::builtin_catalog(5)) lib->add(info);
        return lib;
    }();
    static const fp::MatchServer server(*library);
    const auto& info = library->entries().begin()->second.info;
    const fp::ContentStream stream(info.seed, info.dynamics);
    fp::FingerprintBatch batch;
    batch.capture_period_ms = 500;
    for (int i = 0; i < 30; ++i) {
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i * 500);
        record.video = fp::dhash(stream.frame_at(SimTime::minutes(3) + SimTime::millis(i * 500)));
        batch.records.push_back(record);
    }
    for (auto _ : state) benchmark::DoNotOptimize(server.match(batch));
}
BENCHMARK(BM_MatchServer);

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

}  // namespace

BENCHMARK_MAIN();
