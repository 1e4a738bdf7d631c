// Property-style tests: parameterized sweeps over wire-format round trips,
// transport invariants, and robustness of every deserializer against
// mutated and random inputs (decoders must fail cleanly, never crash or
// hang, on arbitrary bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dns/message.hpp"
#include "fp/batch.hpp"
#include "net/pcap.hpp"
#include "sim/access_point.hpp"
#include "sim/cloud.hpp"
#include "sim/station.hpp"
#include "sim/tcp.hpp"
#include "tv/acr_backend.hpp"

namespace tvacr {
namespace {

// ----------------------------------------------- batch encoding round trips

using BatchCase = std::tuple<fp::BatchEncoding, bool /*audio*/, int /*records*/, int /*run*/>;

class BatchRoundTrip : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchRoundTrip, PreservesRecords) {
    const auto [encoding, audio, records, run_length] = GetParam();
    fp::FingerprintBatch batch;
    batch.device_id = 0xD00D;
    batch.start_ms = 5'000'000;
    batch.capture_period_ms = 10;
    batch.has_audio = audio;
    for (int i = 0; i < records; ++i) {
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i) * 10;
        record.video = splitmix64(static_cast<std::uint64_t>(i / run_length));
        record.detail = static_cast<std::uint16_t>(i / run_length);
        record.audio = audio ? static_cast<std::uint32_t>(i / run_length) : 0;
        batch.records.push_back(record);
    }
    const auto restored = fp::FingerprintBatch::deserialize(batch.serialize(encoding));
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored.value().records.size(), batch.records.size());
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
        EXPECT_EQ(restored.value().records[i].video, batch.records[i].video);
        EXPECT_EQ(restored.value().records[i].detail, batch.records[i].detail);
        EXPECT_EQ(restored.value().records[i].audio, batch.records[i].audio);
        EXPECT_EQ(restored.value().records[i].offset_ms, batch.records[i].offset_ms);
    }
    EXPECT_EQ(restored.value().device_id, batch.device_id);
    EXPECT_EQ(restored.value().has_audio, batch.has_audio);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, BatchRoundTrip,
    ::testing::Combine(::testing::Values(fp::BatchEncoding::kRaw, fp::BatchEncoding::kDeltaRle,
                                         fp::BatchEncoding::kCompactRaw,
                                         fp::BatchEncoding::kCompactRle),
                       ::testing::Bool(), ::testing::Values(0, 1, 7, 150, 1500),
                       ::testing::Values(1, 4, 50)));

// Backlog-shaped batches: an acr_client outage hold-back flush accumulates
// for far longer than one upload window, so offsets span more than 2^15
// capture periods — beyond what the compact encodings can represent. Every
// encoding must still round-trip exactly (the compact ones by falling back
// to kRaw on the wire).
class BacklogBatchRoundTrip : public ::testing::TestWithParam<fp::BatchEncoding> {};

TEST_P(BacklogBatchRoundTrip, LongOffsetBatchesSurviveEveryEncoding) {
    const auto encoding = GetParam();
    Rng rng(0xACC0 + static_cast<std::uint64_t>(encoding));
    fp::FingerprintBatch batch;
    batch.device_id = 0xBAC7106;
    batch.start_ms = 7'200'000;
    batch.capture_period_ms = 500;  // Samsung cadence
    batch.has_audio = true;
    std::uint32_t offset_units = 0;
    for (int i = 0; i < 400; ++i) {
        // Sparse, period-aligned offsets: mean gap ~150 periods, so the
        // batch spans ~60000 periods, well past the 15-bit compact limit.
        offset_units += static_cast<std::uint32_t>(rng.uniform(1, 300));
        fp::CaptureRecord record;
        record.offset_ms = offset_units * 500U;
        record.video = splitmix64(static_cast<std::uint64_t>(i) * 77 + 1);  // all distinct
        record.detail = static_cast<std::uint16_t>(i);
        record.audio = static_cast<std::uint32_t>(i) + 9;
        batch.records.push_back(record);
    }
    const auto restored = fp::FingerprintBatch::deserialize(batch.serialize(encoding));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value(), batch);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, BacklogBatchRoundTrip,
                         ::testing::Values(fp::BatchEncoding::kRaw, fp::BatchEncoding::kDeltaRle,
                                           fp::BatchEncoding::kCompactRaw,
                                           fp::BatchEncoding::kCompactRle));

// --------------------------------------------------------- DNS name sweeps

class DnsNameRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DnsNameRoundTrip, RandomNamesSurviveCompressionCodec) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    // Build several random-but-valid names, encode them into one buffer
    // with shared compression state, and decode them all back.
    std::vector<dns::DomainName> names;
    ByteWriter out;
    dns::CompressionMap offsets;
    for (int n = 0; n < 8; ++n) {
        std::string text;
        const int labels = static_cast<int>(rng.uniform(1, 5));
        for (int l = 0; l < labels; ++l) {
            if (l != 0) text += '.';
            const int len = static_cast<int>(rng.uniform(1, 12));
            for (int c = 0; c < len; ++c) {
                text += static_cast<char>('a' + rng.uniform(0, 25));
            }
        }
        // Half the names share a suffix to exercise pointer reuse.
        if (n % 2 == 1 && !names.empty()) text += "." + names[0].to_string();
        auto name = dns::DomainName::parse(text);
        ASSERT_TRUE(name.ok()) << text;
        names.push_back(name.value());
        encode_name(names.back(), out, offsets);
    }
    ByteReader in(out.view());
    for (const auto& expected : names) {
        const auto decoded = dns::decode_name(in);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded.value(), expected);
    }
    EXPECT_TRUE(in.at_end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsNameRoundTrip, ::testing::Range(1, 17));

// ------------------------------------------------- TCP exchange size sweeps

struct ExchangeCase {
    std::size_t request;
    std::size_t response;
};

class TcpExchangeSweep : public ::testing::TestWithParam<ExchangeCase> {};

TEST_P(TcpExchangeSweep, PayloadsArriveIntactInBothDirections) {
    const auto param = GetParam();
    sim::Simulator simulator;
    sim::Cloud cloud(simulator, 5);
    sim::AccessPoint ap(simulator, net::MacAddress::local(1), net::Ipv4Address(192, 168, 4, 1),
                        sim::LatencyModel{SimTime::millis(2), SimTime::micros(250)}, 6);
    ap.set_cloud(cloud);
    sim::Station station(simulator, "dev", net::MacAddress::local(2),
                         net::Ipv4Address(192, 168, 4, 23));
    station.attach(ap);

    Bytes seen_request;
    sim::TcpConnection connection(
        simulator, station, cloud, net::Endpoint{net::Ipv4Address(23, 0, 0, 1), 443},
        [&](BytesView request) {
            seen_request.assign(request.begin(), request.end());
            Bytes response(param.response);
            for (std::size_t i = 0; i < response.size(); ++i) {
                response[i] = static_cast<std::uint8_t>(i * 7);
            }
            return response;
        });

    Bytes request(param.request);
    for (std::size_t i = 0; i < request.size(); ++i) {
        request[i] = static_cast<std::uint8_t>(i * 13);
    }
    Bytes got_response;
    connection.connect([&]() {
        connection.exchange(request, [&](Bytes response) { got_response = std::move(response); });
    });
    simulator.run_all();

    EXPECT_EQ(seen_request, request);
    ASSERT_EQ(got_response.size(), std::max<std::size_t>(param.response, 1));
    if (param.response > 0) {
        for (std::size_t i = 0; i < got_response.size(); ++i) {
            ASSERT_EQ(got_response[i], static_cast<std::uint8_t>(i * 7)) << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpExchangeSweep,
                         ::testing::Values(ExchangeCase{1, 1}, ExchangeCase{100, 0},
                                           ExchangeCase{1460, 1460}, ExchangeCase{1461, 2920},
                                           ExchangeCase{20000, 300}, ExchangeCase{64, 50000},
                                           ExchangeCase{17000, 17000}));

// ------------------------------------------------ decoder robustness (fuzz)

Bytes random_bytes(Rng& rng, std::size_t max_size) {
    Bytes out(static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(max_size))));
    for (auto& byte : out) byte = static_cast<std::uint8_t>(rng());
    return out;
}

template <typename Decoder>
void fuzz_decoder(const char* name, std::uint64_t seed, Decoder decode,
                  const Bytes& valid_sample) {
    Rng rng(seed);
    // Pure random inputs.
    for (int i = 0; i < 300; ++i) {
        const Bytes junk = random_bytes(rng, 512);
        decode(junk);  // must not crash; result may be ok or error
    }
    // Mutations of a valid message: truncations and byte flips.
    for (std::size_t cut = 0; cut < valid_sample.size(); cut += 3) {
        Bytes truncated(valid_sample.begin(),
                        valid_sample.begin() + static_cast<std::ptrdiff_t>(cut));
        decode(truncated);
    }
    for (int i = 0; i < 300; ++i) {
        Bytes mutated = valid_sample;
        const auto index =
            static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
        mutated[index] ^= static_cast<std::uint8_t>(1 + (rng() & 0xFE));
        decode(mutated);
    }
    SUCCEED() << name;
}

TEST(FuzzTest, DnsMessageDecoderNeverCrashes) {
    const auto name = dns::DomainName::parse("acr-eu-prd.samsungcloud.tv").value();
    const auto query = make_query(7, name, dns::RecordType::kA);
    const auto sample =
        make_response(query, {dns::ResourceRecord::a(name, net::Ipv4Address(1, 2, 3, 4))},
                      dns::ResponseCode::kNoError)
            .encode();
    fuzz_decoder("dns", 101, [](const Bytes& data) { (void)dns::DnsMessage::decode(data); },
                 sample);
}

TEST(FuzzTest, BatchDecoderNeverCrashes) {
    fp::FingerprintBatch batch;
    batch.capture_period_ms = 10;
    batch.has_audio = true;
    for (int i = 0; i < 40; ++i) {
        batch.records.push_back(
            fp::CaptureRecord{static_cast<std::uint32_t>(i * 10), splitmix64(i / 5U),
                              static_cast<std::uint32_t>(i), static_cast<std::uint16_t>(i)});
    }
    for (const auto encoding : {fp::BatchEncoding::kRaw, fp::BatchEncoding::kDeltaRle,
                                fp::BatchEncoding::kCompactRle}) {
        fuzz_decoder("batch", 202,
                     [](const Bytes& data) { (void)fp::FingerprintBatch::deserialize(data); },
                     batch.serialize(encoding));
    }
}

TEST(FuzzTest, PcapReaderNeverCrashes) {
    const net::FrameBuilder builder(net::MacAddress::local(1), net::MacAddress::local(2));
    std::vector<net::Packet> packets;
    for (int i = 0; i < 5; ++i) {
        packets.push_back(builder.tcp(SimTime::millis(i),
                                      net::Endpoint{net::Ipv4Address(10, 0, 0, 1), 1},
                                      net::Endpoint{net::Ipv4Address(10, 0, 0, 2), 2},
                                      static_cast<std::uint32_t>(i), 0, net::TcpFlags::kAck,
                                      Bytes(64, 0x11)));
    }
    fuzz_decoder("pcap", 303, [](const Bytes& data) { (void)net::from_pcap_bytes(data); },
                 net::to_pcap_bytes(packets));
}

TEST(FuzzTest, PacketParserNeverCrashes) {
    const net::FrameBuilder builder(net::MacAddress::local(1), net::MacAddress::local(2));
    const auto sample = builder.udp(SimTime{}, net::Endpoint{net::Ipv4Address(10, 0, 0, 1), 53},
                                    net::Endpoint{net::Ipv4Address(10, 0, 0, 2), 53},
                                    Bytes(80, 0x22));
    fuzz_decoder("packet", 404,
                 [](const Bytes& data) {
                     (void)net::parse_packet(net::Packet{SimTime{}, data});
                 },
                 sample.data);
}

TEST(FuzzTest, AcrWireDecodersNeverCrash) {
    tv::AcrRequest request;
    request.type = tv::AcrMessageType::kTelemetry;
    request.body = Bytes(64, 0x33);
    fuzz_decoder("acr-request", 505,
                 [](const Bytes& data) { (void)tv::AcrRequest::deserialize(data); },
                 request.serialize());

    tv::AcrResponse response;
    response.recognized = true;
    response.padding_size = 32;
    fuzz_decoder("acr-response", 606,
                 [](const Bytes& data) { (void)tv::AcrResponse::deserialize(data); },
                 response.serialize());
}

TEST(FuzzTest, BackendSurvivesArbitraryPayloads) {
    fp::ContentLibrary library;
    for (const auto& info : fp::builtin_catalog(1)) library.add(info);
    tv::AcrBackend backend(tv::Brand::kSamsung, tv::Country::kUk, library);
    Rng rng(707);
    for (int i = 0; i < 300; ++i) {
        const Bytes junk = random_bytes(rng, 256);
        const Bytes response = backend.handle(junk);
        EXPECT_GE(response.size(), 17U);  // always a well-formed error reply
    }
}

// ------------------------------------------------------ thread pool invariants

TEST(ThreadPoolTest, EveryTaskExecutesExactlyOnce) {
    constexpr int kTasks = 500;
    common::ThreadPool pool(4);
    std::vector<std::atomic<int>> executions(kTasks);
    std::vector<std::future<int>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        // tvacr-lint: allow(no-ref-capture-into-threadpool) executions
        // outlives the pool and every future is drained below
        futures.push_back(pool.submit([&executions, i]() {
            executions[static_cast<std::size_t>(i)].fetch_add(1);
            return i;
        }));
    }
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);  // results map 1:1 to tasks
    }
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(executions[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
    }
}

TEST(ThreadPoolTest, TaskExceptionSurfacesAtFutureGet) {
    common::ThreadPool pool(2);
    auto throwing = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
    auto healthy = pool.submit([]() { return 42; });
    EXPECT_THROW(throwing.get(), std::runtime_error);
    // A failing task must not poison the pool or its neighbours.
    EXPECT_EQ(healthy.get(), 42);
    EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ShutdownDrainsAcceptedTasksUnderConcurrentSubmission) {
    // Submitters race the pool's shutdown (the destructor's drain path).
    // Every submit that was accepted must execute before shutdown returns;
    // every rejected submit must throw — no task is silently dropped.
    common::ThreadPool pool(3);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&]() {
            for (int i = 0; i < 10000; ++i) {
                try {
                    // tvacr-lint: allow(no-ref-capture-into-threadpool) the
                    // atomic outlives the pool's destructor backlog drain
                    auto future = pool.submit([&executed]() { executed.fetch_add(1); });
                    accepted.fetch_add(1);
                    (void)future;  // discarded future must not block shutdown
                } catch (const std::runtime_error&) {
                    rejected.fetch_add(1);
                    break;
                }
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pool.shutdown();  // concurrent with active submitters
    const int executed_at_shutdown = executed.load();
    for (auto& submitter : submitters) submitter.join();
    EXPECT_EQ(executed_at_shutdown, executed.load());  // nothing runs after shutdown returns
    EXPECT_EQ(executed.load(), accepted.load());
    // The pool destructor (second shutdown) must be a clean no-op.
}

TEST(ThreadPoolTest, ObserverSeesEveryTaskWithOrderedTimings) {
    // The profiling observer must fire exactly once per task with a unique
    // sequence number, monotone enqueue <= start <= finish timestamps, a
    // worker index inside the pool, and starts in submission order.
    constexpr int kTasks = 50;
    constexpr std::size_t kWorkers = 3;
    std::mutex mutex;
    std::vector<common::ThreadPool::TaskTiming> timings;
    std::vector<std::future<void>> futures;
    {
        common::ThreadPool pool(kWorkers);
        pool.set_observer([&mutex, &timings](const common::ThreadPool::TaskTiming& timing) {
            const std::lock_guard<std::mutex> lock(mutex);
            timings.push_back(timing);
        });
        futures.reserve(kTasks);
        for (int i = 0; i < kTasks; ++i) {
            futures.push_back(pool.submit([]() {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }));
        }
        for (auto& future : futures) future.get();
        // The observer fires *after* the future is satisfied — only shutdown
        // (joining the workers) guarantees every callback has completed.
        pool.shutdown();
    }
    ASSERT_EQ(timings.size(), static_cast<std::size_t>(kTasks));
    std::vector<bool> seen(kTasks, false);
    for (const auto& timing : timings) {
        ASSERT_LT(timing.sequence, static_cast<std::uint64_t>(kTasks));
        EXPECT_FALSE(seen[static_cast<std::size_t>(timing.sequence)]) << "duplicate observation";
        seen[static_cast<std::size_t>(timing.sequence)] = true;
        EXPECT_LE(timing.enqueue_ns, timing.start_ns);
        EXPECT_LE(timing.start_ns, timing.finish_ns);
        EXPECT_LT(timing.worker, kWorkers);
        EXPECT_GE(timing.queue_wait_ns(), 0);
        EXPECT_GE(timing.run_ns(), 0);
    }
    // The FIFO queue stamps each start as the task leaves it, so tasks
    // start in submission order.
    std::sort(timings.begin(), timings.end(),
              [](const auto& a, const auto& b) { return a.sequence < b.sequence; });
    for (std::size_t i = 1; i < timings.size(); ++i) {
        EXPECT_LE(timings[i - 1].start_ns, timings[i].start_ns) << "sequence " << i;
    }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedBacklog) {
    // One slow worker, many queued tasks, immediate destruction: the
    // destructor must run the entire accepted backlog before joining.
    std::atomic<int> executed{0};
    constexpr int kTasks = 64;
    {
        common::ThreadPool pool(1);
        for (int i = 0; i < kTasks; ++i) {
            // tvacr-lint: allow(no-ref-capture-into-threadpool) the atomic is
            // declared outside the pool's block and outlives the drain
            auto future = pool.submit([&executed]() {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                executed.fetch_add(1);
            });
            (void)future;
        }
    }
    EXPECT_EQ(executed.load(), kTasks);
}

// ------------------------------------------------ simulator determinism sweep

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, SameSeedSameFrameCount) {
    // A miniature topology driven by a pseudo-random workload must produce
    // identical captures for identical seeds.
    const auto run_once = [&]() -> std::size_t {
        sim::Simulator simulator;
        sim::Cloud cloud(simulator, GetParam());
        sim::AccessPoint ap(simulator, net::MacAddress::local(1),
                            net::Ipv4Address(192, 168, 4, 1),
                            sim::LatencyModel{SimTime::millis(2), SimTime::millis(1)},
                            GetParam() + 1);
        ap.set_cloud(cloud);
        sim::Station station(simulator, "dev", net::MacAddress::local(2),
                             net::Ipv4Address(192, 168, 4, 23));
        station.attach(ap);
        std::size_t frames = 0;
        ap.set_tap([&](const net::Packet&) { ++frames; });

        sim::TcpConnection connection(
            simulator, station, cloud, net::Endpoint{net::Ipv4Address(23, 0, 0, 1), 443},
            [](BytesView request) { return Bytes(request.size() / 2 + 1, 0); });
        Rng rng(GetParam());
        connection.connect([&]() {
            for (int i = 0; i < 10; ++i) {
                connection.exchange(Bytes(static_cast<std::size_t>(rng.uniform(1, 5000)), 1),
                                    [](Bytes) {});
            }
        });
        simulator.run_all();
        return frames;
    };
    EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep, ::testing::Values(1, 2, 3, 42, 999));

}  // namespace
}  // namespace tvacr
