// Integration tests for the simulator substrate: event ordering, the
// station/AP/cloud topology with capture tap, DNS over the simulated
// internet, TCP exchanges and TLS sessions as seen by the capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>

#include "common/rng.hpp"
#include "dns/message.hpp"
#include "fault/impairment.hpp"
#include "net/flow.hpp"
#include "sim/access_point.hpp"
#include "sim/cloud.hpp"
#include "sim/dns_client.hpp"
#include "sim/simulator.hpp"
#include "sim/smart_plug.hpp"
#include "sim/station.hpp"
#include "sim/tcp.hpp"
#include "sim/tls.hpp"

namespace tvacr::sim {
namespace {

using net::Ipv4Address;

// ---------------------------------------------------------------- simulator

TEST(SimulatorTest, EventsRunInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.at(SimTime::millis(20), [&]() { order.push_back(2); });
    sim.at(SimTime::millis(10), [&]() { order.push_back(1); });
    sim.at(SimTime::millis(30), [&]() { order.push_back(3); });
    sim.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), SimTime::millis(30));
    EXPECT_EQ(sim.events_processed(), 3U);
}

TEST(SimulatorTest, SameTimeEventsAreFifo) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.at(SimTime::millis(5), [&, i]() { order.push_back(i); });
    }
    sim.run_all();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, SameTimeEventsStayFifoBeyond64kSchedules) {
    // The FIFO tie-break rides on a monotonically growing sequence number;
    // it must not wrap or collide even after far more than 2^16 schedules.
    Simulator sim;
    constexpr int kWarmup = (1 << 16) + 100;
    int warmup_fired = 0;
    for (int i = 0; i < kWarmup; ++i) {
        sim.at(SimTime::millis(1), [&]() { ++warmup_fired; });
    }
    sim.run_all();
    EXPECT_EQ(warmup_fired, kWarmup);

    // Past the 2^16 boundary, same-timestamp events still fire in exact
    // insertion order.
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i) {
        sim.at(sim.now() + SimTime::millis(5), [&, i]() { order.push_back(i); });
    }
    sim.run_all();
    ASSERT_EQ(order.size(), 1000U);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, RunUntilStopsAtLastEventWhenQueueEmptiesEarly) {
    // Documented contract: the clock finishes at min(deadline, last event).
    Simulator sim;
    sim.at(SimTime::seconds(1), []() {});
    sim.at(SimTime::seconds(2), []() {});
    sim.run_until(SimTime::seconds(60));
    EXPECT_EQ(sim.now(), SimTime::seconds(2));  // not fabricated up to 60 s
    EXPECT_EQ(sim.pending_events(), 0U);

    // A later deadline with an empty queue does not move the clock either.
    sim.run_until(SimTime::seconds(90));
    EXPECT_EQ(sim.now(), SimTime::seconds(2));

    // With events beyond the deadline, the clock parks at the deadline.
    sim.at(SimTime::seconds(100), []() {});
    sim.run_until(SimTime::seconds(50));
    EXPECT_EQ(sim.now(), SimTime::seconds(50));
    EXPECT_EQ(sim.pending_events(), 1U);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
    Simulator sim;
    int fired = 0;
    sim.at(SimTime::seconds(1), [&]() { ++fired; });
    sim.at(SimTime::seconds(3), [&]() { ++fired; });
    sim.run_until(SimTime::seconds(2));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), SimTime::seconds(2));
    EXPECT_EQ(sim.pending_events(), 1U);
}

TEST(SimulatorTest, EventsPastDeadlineSurviveToNextRun) {
    // Regression for the deadline contract: run_until *parks* events beyond
    // the deadline, it never drops them. The fault layer leans on this — a
    // retransmission timer armed just before a run_until boundary must still
    // fire once a later run covers its expiry.
    Simulator sim;
    std::vector<int> fired;
    sim.at(SimTime::seconds(1), [&]() { fired.push_back(1); });
    sim.at(SimTime::seconds(10), [&]() { fired.push_back(10); });
    sim.run_until(SimTime::seconds(5));
    EXPECT_EQ(fired, (std::vector<int>{1}));
    EXPECT_EQ(sim.pending_events(), 1U);
    sim.run_until(SimTime::seconds(15));
    EXPECT_EQ(fired, (std::vector<int>{1, 10}));
    EXPECT_EQ(sim.now(), SimTime::seconds(10));  // queue drained before 15 s
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&]() {
        if (++depth < 5) sim.after(SimTime::millis(1), recurse);
    };
    sim.after(SimTime::millis(1), recurse);
    sim.run_all();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), SimTime::millis(5));
}

// -------------------------------------------------------------------- timer

TEST(SimulatorTimerTest, OutsideCancelLeavesOneNoOpEvent) {
    Simulator sim;
    int ticks = 0;
    const auto id = sim.every(SimTime::millis(10), SimTime::millis(10), [&]() { ++ticks; });
    sim.run_until(SimTime::millis(25));
    EXPECT_EQ(ticks, 2);
    EXPECT_EQ(sim.pending_events(), 1U);
    sim.cancel(id);
    sim.cancel(id);  // a second cancel is ignored
    EXPECT_EQ(sim.pending_events(), 1U);
    sim.run_all();
    EXPECT_EQ(ticks, 2);
    EXPECT_EQ(sim.now(), SimTime::millis(30));
    EXPECT_EQ(sim.events_processed(), 3U);
}

TEST(SimulatorTimerTest, SelfCancelLeavesNothing) {
    Simulator sim;
    int ticks = 0;
    Simulator::TimerId id = 0;
    id = sim.every(SimTime{}, SimTime::millis(10), [&]() {
        if (++ticks == 3) sim.cancel(id);
    });
    sim.run_until(SimTime::seconds(1));
    EXPECT_EQ(ticks, 3);
    EXPECT_EQ(sim.pending_events(), 0U);
    EXPECT_EQ(sim.now(), SimTime::millis(20));
    EXPECT_EQ(sim.events_processed(), 3U);
}

enum class Cancel { kNone, kOutside, kInsideTick, kRestart };

/// A periodic tick run by Simulator::every, or by the after() chain that a
/// timer replaces: a handler that re-arms itself as its last statement and
/// checks a liveness flag, so an outside stop leaves its armed event queued
/// and doing nothing.
class Ticker {
  public:
    Ticker(Simulator& sim, bool timer, std::function<void()> body)
        : sim_(sim), timer_(timer), body_(std::move(body)) {}

    void start(SimTime first, SimTime period) {
        if (timer_) {
            id_ = sim_.every(first, period, body_);
            return;
        }
        alive_ = std::make_shared<bool>(true);
        sim_.at(first, Link{this, alive_, period});
    }

    void stop() {
        if (timer_) {
            sim_.cancel(id_);
        } else {
            *alive_ = false;
        }
    }

  private:
    struct Link {
        Ticker* ticker;
        std::shared_ptr<bool> alive;
        SimTime period;
        void operator()() const {
            if (!*alive) return;
            ticker->body_();
            if (*alive) ticker->sim_.after(period, *this);
        }
    };

    Simulator& sim_;
    bool timer_;
    std::function<void()> body_;
    Simulator::TimerId id_ = 0;
    std::shared_ptr<bool> alive_;
};

/// One-shot events around a ticker, drawn from a seed. Shot and deadline
/// times are often exactly on the tick grid, so ties with ticks abound.
struct TimerProgram {
    struct Shot {
        SimTime when;
        bool before_start;  // scheduled before the ticker starts
        std::optional<SimTime> child;  // a one-shot it schedules this far ahead
    };
    SimTime first;
    SimTime period;
    std::vector<Shot> shots;
    std::size_t control_shot;  // stops or restarts the ticker
    std::int64_t child_every;  // every n-th tick schedules a one-shot...
    SimTime tick_child;        // ...this far ahead
    std::int64_t self_cancel_tick;
    SimTime restart_after;  // from the control shot to the restarted first tick
    std::vector<SimTime> deadlines;  // ascending run_until deadlines
};

TimerProgram make_timer_program(std::uint64_t seed) {
    Rng rng(seed);
    TimerProgram p;
    p.period = SimTime::millis(rng.uniform(1, 7));
    p.first = SimTime::millis(rng.uniform(0, 12));
    const auto on_grid = [&]() { return p.first + p.period * rng.uniform(0, 40); };
    const auto any_time = [&]() { return SimTime::millis(rng.uniform(0, 200)); };
    for (int i = 0; i < 40; ++i) {
        TimerProgram::Shot shot{rng.chance(0.5) ? on_grid() : any_time(), rng.chance(0.5), {}};
        if (rng.chance(0.3)) {
            shot.child = rng.chance(0.5) ? p.period * rng.uniform(0, 2)
                                         : SimTime::millis(rng.uniform(0, 9));
        }
        p.shots.push_back(shot);
    }
    p.control_shot = static_cast<std::size_t>(rng.uniform(0, 39));
    p.child_every = rng.uniform(2, 6);
    p.tick_child = p.period * rng.uniform(0, 2);
    p.self_cancel_tick = rng.uniform(1, 30);
    p.restart_after = rng.chance(0.5) ? p.period * rng.uniform(0, 2)
                                      : SimTime::millis(rng.uniform(0, 9));
    for (int i = 0; i < 8; ++i) p.deadlines.push_back(rng.chance(0.5) ? on_grid() : any_time());
    p.deadlines.push_back(SimTime::seconds(1));  // past everything but a live ticker
    std::sort(p.deadlines.begin(), p.deadlines.end());
    return p;
}

/// What a run shows: each event as (label, time), and the clock and queue
/// after each run_until and each trailing step().
struct TimerOutcome {
    std::vector<std::pair<std::int64_t, std::int64_t>> fired;
    std::vector<std::array<std::int64_t, 3>> checkpoints;
};

TimerOutcome run_timer_program(const TimerProgram& p, Cancel cancel, bool timer) {
    Simulator sim;
    TimerOutcome out;
    const auto log = [&](std::int64_t label) {
        out.fired.emplace_back(label, sim.now().as_micros());
    };
    std::int64_t ticks = 0;
    Ticker* self = nullptr;
    Ticker ticker(sim, timer, [&]() {
        log(-++ticks);
        if (ticks % p.child_every == 0) {
            sim.after(p.tick_child, [&log, n = ticks]() { log(-1000 - n); });
        }
        if (cancel == Cancel::kInsideTick && ticks == p.self_cancel_tick) self->stop();
    });
    self = &ticker;
    const auto schedule_shot = [&](std::size_t i) {
        const TimerProgram::Shot& shot = p.shots[i];
        sim.at(shot.when, [&, i]() {
            log(static_cast<std::int64_t>(i));
            if (shot.child) sim.after(*shot.child, [&log, i]() { log(1000 + std::int64_t(i)); });
            if (i != p.control_shot) return;
            if (cancel == Cancel::kOutside || cancel == Cancel::kRestart) ticker.stop();
            if (cancel == Cancel::kRestart) ticker.start(sim.now() + p.restart_after, p.period);
        });
    };
    for (std::size_t i = 0; i < p.shots.size(); ++i) {
        if (p.shots[i].before_start) schedule_shot(i);
    }
    ticker.start(p.first, p.period);
    for (std::size_t i = 0; i < p.shots.size(); ++i) {
        if (!p.shots[i].before_start) schedule_shot(i);
    }
    const auto checkpoint = [&](std::int64_t stepped) {
        out.checkpoints.push_back({sim.now().as_micros() + stepped,
                                   static_cast<std::int64_t>(sim.events_processed()),
                                   static_cast<std::int64_t>(sim.pending_events())});
    };
    for (const SimTime deadline : p.deadlines) {
        sim.run_until(deadline);
        checkpoint(0);
    }
    for (int i = 0; i < 3; ++i) checkpoint(sim.step() ? 0 : -1);
    return out;
}

/// Runs seeded programs with a timer and with the after() chain; both must
/// fire the same events in the same order and agree on the clock and the
/// queue at every checkpoint. Returns how many programs drained their
/// queue before the last deadline.
int expect_timer_matches_chain(Cancel cancel) {
    int drained = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const TimerProgram program = make_timer_program(seed);
        const TimerOutcome chain = run_timer_program(program, cancel, false);
        const TimerOutcome timer = run_timer_program(program, cancel, true);
        EXPECT_EQ(timer.fired, chain.fired) << "seed " << seed;
        EXPECT_EQ(timer.checkpoints, chain.checkpoints) << "seed " << seed;
        if (timer.fired != chain.fired || timer.checkpoints != chain.checkpoints) break;
        if (timer.checkpoints[program.deadlines.size() - 1][0] <
            program.deadlines.back().as_micros()) {
            ++drained;
        }
    }
    return drained;
}

TEST(SimulatorTimerTest, MatchesAfterChainWithoutCancel) {
    EXPECT_EQ(expect_timer_matches_chain(Cancel::kNone), 0);
}

TEST(SimulatorTimerTest, MatchesAfterChainWhenCancelledOutsideATick) {
    // The stale armed tick is still queued, so the queue drains at it.
    EXPECT_GT(expect_timer_matches_chain(Cancel::kOutside), 150);
}

TEST(SimulatorTimerTest, MatchesAfterChainWhenCancelledInsideItsTick) {
    EXPECT_GT(expect_timer_matches_chain(Cancel::kInsideTick), 150);
}

TEST(SimulatorTimerTest, MatchesAfterChainWhenCancelledAndRestartedAtOneInstant) {
    EXPECT_EQ(expect_timer_matches_chain(Cancel::kRestart), 0);
}

// ----------------------------------------------------------------- topology

struct Testbed {
    Simulator sim;
    AccessPoint ap{sim, net::MacAddress::local(0xA9), Ipv4Address(192, 168, 4, 1),
                   LatencyModel{SimTime::millis(2), SimTime::micros(300)}, 101};
    Cloud cloud{sim, 202};
    Station tv{sim, "tv", net::MacAddress::local(0x71), Ipv4Address(192, 168, 4, 23)};
    std::vector<net::Packet> capture;

    Testbed() {
        ap.set_cloud(cloud);
        tv.attach(ap);
        cloud.enable_dns(Ipv4Address(9, 9, 9, 9));
        cloud.set_default_route(LatencyModel{SimTime::millis(12), SimTime::millis(2)});
        ap.set_tap([this](const net::Packet& packet) { capture.push_back(packet); });
    }
};

TEST(TopologyTest, DnsQueryIsAnsweredAndCaptured) {
    Testbed bed;
    bed.cloud.zone().add_a("acr-eu-prd.samsungcloud.tv", Ipv4Address(20, 30, 40, 50));

    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    std::optional<Ipv4Address> answer;
    resolver.resolve("acr-eu-prd.samsungcloud.tv",
                     [&](std::optional<Ipv4Address> address) { answer = address; });
    bed.sim.run_all();

    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(*answer, Ipv4Address(20, 30, 40, 50));
    // Capture holds the query and the response, both UDP port 53.
    ASSERT_EQ(bed.capture.size(), 2U);
    const auto query = net::parse_packet(bed.capture[0]).value();
    const auto response = net::parse_packet(bed.capture[1]).value();
    EXPECT_EQ(query.udp->destination_port, dns::kDnsPort);
    EXPECT_EQ(response.udp->source_port, dns::kDnsPort);
    EXPECT_GT(response.timestamp, query.timestamp);
    const auto decoded = dns::DnsMessage::decode(response.payload);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().answers.size(), 1U);
}

TEST(TopologyTest, DnsCacheSuppressesSecondQuery) {
    Testbed bed;
    bed.cloud.zone().add_a("example.com", Ipv4Address(1, 1, 1, 1));
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    int answers = 0;
    resolver.resolve("example.com", [&](auto) { ++answers; });
    bed.sim.run_all();
    resolver.resolve("example.com", [&](auto) { ++answers; });
    bed.sim.run_all();
    EXPECT_EQ(answers, 2);
    EXPECT_EQ(resolver.queries_sent(), 1U);
    EXPECT_EQ(resolver.cache_hits(), 1U);
}

TEST(TopologyTest, UnknownNameResolvesToNullopt) {
    Testbed bed;
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    bool called = false;
    std::optional<Ipv4Address> answer = Ipv4Address(9, 9, 9, 9);
    resolver.resolve("nonexistent.example.org", [&](std::optional<Ipv4Address> address) {
        called = true;
        answer = address;
    });
    bed.sim.run_all();
    EXPECT_TRUE(called);
    EXPECT_FALSE(answer.has_value());
}

TEST(TopologyTest, OfflineStationSendsNothing) {
    Testbed bed;
    bed.cloud.zone().add_a("example.com", Ipv4Address(1, 1, 1, 1));
    bed.tv.set_online(false);
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    resolver.resolve("example.com", [](auto) {});
    bed.sim.run_until(SimTime::seconds(30));
    EXPECT_TRUE(bed.capture.empty());
    EXPECT_EQ(bed.tv.frames_sent(), 0U);
}

TEST(TopologyTest, CaptureCanBePaused) {
    Testbed bed;
    bed.cloud.zone().add_a("example.com", Ipv4Address(1, 1, 1, 1));
    bed.ap.set_capturing(false);
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    bool answered = false;
    resolver.resolve("example.com", [&](auto address) { answered = address.has_value(); });
    bed.sim.run_all();
    EXPECT_TRUE(answered);  // traffic flows
    EXPECT_TRUE(bed.capture.empty());  // but is not recorded
}

TEST(TopologyTest, DnsTotalLossCompletesExactlyOnceAfterBoundedRetries) {
    // Under 100% resolver loss the client must neither hang (run_all
    // terminates) nor complete more than once: bounded retries, then a
    // single failure callback.
    Testbed bed;
    bed.cloud.zone().add_a("example.com", Ipv4Address(1, 1, 1, 1));
    bed.cloud.set_dns_drop_rate(1.0);
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    int callbacks = 0;
    std::optional<Ipv4Address> answer = Ipv4Address(9, 9, 9, 9);
    resolver.resolve("example.com", [&](std::optional<Ipv4Address> address) {
        ++callbacks;
        answer = address;
    });
    bed.sim.run_all();
    EXPECT_EQ(callbacks, 1);
    EXPECT_FALSE(answer.has_value());
    // Default policy: 3 attempts, 3s apart — the failure lands at 9s.
    EXPECT_EQ(resolver.queries_sent(), 3U);
    EXPECT_EQ(bed.sim.now(), SimTime::seconds(9));
    const auto& metrics = bed.sim.obs().metrics;
    EXPECT_EQ(metrics.counter_value("dns.queries"), 3U);
    EXPECT_EQ(metrics.counter_value("dns.retries"), 2U);
    EXPECT_EQ(metrics.counter_value("dns.timeouts"), 3U);
    EXPECT_EQ(metrics.counter_value("dns.failures"), 1U);
    EXPECT_EQ(metrics.counter_value("dns.answers"), 0U);
}

TEST(TopologyTest, DnsRecoversAfterLossWithSingleCompletion) {
    // First attempt is dropped; the resolver heals before the retry. The
    // retry must succeed with exactly one callback.
    Testbed bed;
    bed.cloud.zone().add_a("example.com", Ipv4Address(1, 1, 1, 1));
    bed.cloud.set_dns_drop_rate(1.0);
    bed.sim.after(SimTime::seconds(1), [&]() { bed.cloud.set_dns_drop_rate(0.0); });
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    int callbacks = 0;
    std::optional<Ipv4Address> answer;
    resolver.resolve("example.com", [&](std::optional<Ipv4Address> address) {
        ++callbacks;
        answer = address;
    });
    bed.sim.run_all();
    EXPECT_EQ(callbacks, 1);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(*answer, Ipv4Address(1, 1, 1, 1));
    const auto& metrics = bed.sim.obs().metrics;
    EXPECT_EQ(metrics.counter_value("dns.queries"), 2U);
    EXPECT_EQ(metrics.counter_value("dns.retries"), 1U);
    EXPECT_EQ(metrics.counter_value("dns.timeouts"), 1U);
    EXPECT_EQ(metrics.counter_value("dns.answers"), 1U);
    EXPECT_EQ(metrics.counter_value("dns.failures"), 0U);
}

TEST(TopologyTest, DnsLateAnswersAfterRetriesNeverDoubleComplete) {
    // The server answers every query, but slower than the retry timeout:
    // every response is a late duplicate arriving after its attempt was
    // already retired (and, for the last ones, after the query completed).
    // None of them may fire the callback a second time.
    Testbed bed;
    bed.cloud.zone().add_a("example.com", Ipv4Address(1, 1, 1, 1));
    DnsClient::Config config;
    config.timeout = SimTime::millis(20);  // < the ~28ms simulated RTT
    config.max_attempts = 3;
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55, config);
    int callbacks = 0;
    std::optional<Ipv4Address> answer = Ipv4Address(9, 9, 9, 9);
    resolver.resolve("example.com", [&](std::optional<Ipv4Address> address) {
        ++callbacks;
        answer = address;
    });
    bed.sim.run_all();
    // All three responses did come back over the wire...
    int dns_responses = 0;
    for (const auto& packet : bed.capture) {
        const auto parsed = net::parse_packet(packet);
        if (parsed && parsed.value().udp &&
            parsed.value().udp->source_port == dns::kDnsPort) {
            ++dns_responses;
        }
    }
    EXPECT_EQ(dns_responses, 3);
    // ...yet each arrived after its attempt was erased: exactly one
    // completion, and it is the timeout-driven failure.
    EXPECT_EQ(callbacks, 1);
    EXPECT_FALSE(answer.has_value());
    const auto& metrics = bed.sim.obs().metrics;
    EXPECT_EQ(metrics.counter_value("dns.timeouts"), 3U);
    EXPECT_EQ(metrics.counter_value("dns.failures"), 1U);
    EXPECT_EQ(metrics.counter_value("dns.answers"), 0U);
}

// ---------------------------------------------------------------------- tcp

TEST(TcpTest, HandshakeExchangeAndCloseProduceExpectedSegments) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    Bytes served_request;
    TcpConnection conn(
        bed.sim, bed.tv, bed.cloud, server,
        [&](BytesView request) -> Bytes {
            served_request.assign(request.begin(), request.end());
            return Bytes(2000, 0xBB);
        });

    bool established = false;
    Bytes response;
    bool closed = false;
    conn.connect([&]() { established = true; });
    conn.exchange(Bytes(3000, 0xAA), [&](Bytes r) {
        response = std::move(r);
        conn.close([&]() { closed = true; });
    });
    bed.sim.run_all();

    EXPECT_TRUE(established);
    EXPECT_TRUE(closed);
    EXPECT_EQ(served_request.size(), 3000U);
    EXPECT_EQ(response.size(), 2000U);
    EXPECT_TRUE(conn.closed());

    // Validate the captured conversation: SYN, SYN-ACK, 3 data segments up
    // (3000 = 1460+1460+80), 2 down, ACKs, FIN exchange.
    net::FlowTable table;
    int syn = 0;
    int fin = 0;
    std::uint64_t up_payload = 0;
    std::uint64_t down_payload = 0;
    for (const auto& raw : bed.capture) {
        const auto packet = net::parse_packet(raw).value();
        ASSERT_TRUE(packet.tcp.has_value());
        table.add(packet);
        if (packet.tcp->has(net::TcpFlags::kSyn)) ++syn;
        if (packet.tcp->has(net::TcpFlags::kFin)) ++fin;
        if (packet.ip->source == bed.tv.ip()) up_payload += packet.payload.size();
        if (packet.ip->destination == bed.tv.ip()) down_payload += packet.payload.size();
    }
    EXPECT_EQ(syn, 2);
    EXPECT_EQ(fin, 2);
    EXPECT_EQ(up_payload, 3000U);
    EXPECT_EQ(down_payload, 2000U);
    EXPECT_EQ(table.flow_count(), 1U);

    // Timestamps are strictly ordered per direction and globally monotone
    // within jitter bounds.
    for (std::size_t i = 1; i < bed.capture.size(); ++i) {
        EXPECT_GE(bed.capture[i].timestamp, bed.capture[i - 1].timestamp);
    }
}

TEST(TcpTest, SequentialExchangesOnOneConnection) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    int served = 0;
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server, [&](BytesView request) -> Bytes {
        ++served;
        return Bytes(request.size() / 2, 0x11);  // half-size echo
    });
    std::vector<std::size_t> responses;
    conn.connect([]() {});
    conn.exchange(Bytes(100, 1), [&](Bytes r) { responses.push_back(r.size()); });
    conn.exchange(Bytes(500, 2), [&](Bytes r) { responses.push_back(r.size()); });
    conn.exchange(Bytes(4000, 3), [&](Bytes r) { responses.push_back(r.size()); });
    bed.sim.run_all();
    EXPECT_EQ(served, 3);
    ASSERT_EQ(responses.size(), 3U);
    EXPECT_EQ(responses[0], 50U);
    EXPECT_EQ(responses[1], 250U);
    EXPECT_EQ(responses[2], 2000U);
}

TEST(TcpTest, SegmentSizesHonourMss) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection::Config config;
    config.mss = 1000;
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(1, 0); }, config);
    conn.connect([]() {});
    conn.exchange(Bytes(2500, 0xCC), [](Bytes) {});
    bed.sim.run_all();

    std::vector<std::size_t> up_sizes;
    for (const auto& raw : bed.capture) {
        const auto packet = net::parse_packet(raw).value();
        if (packet.ip->source == bed.tv.ip() && !packet.payload.empty()) {
            up_sizes.push_back(packet.payload.size());
        }
    }
    EXPECT_EQ(up_sizes, (std::vector<std::size_t>{1000, 1000, 500}));
}

TEST(TcpTest, SlowStartRampsFlightSizes) {
    // A large transfer must leave in RTT-spaced flights that grow: the
    // initial window first, then more per ACK round — not one fixed drip.
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(1, 0); });
    conn.connect([]() {});
    conn.exchange(Bytes(60000, 0xAB), [](Bytes) {});
    bed.sim.run_all();

    // Collect uplink data-segment timestamps and group into flights
    // separated by > 5 ms gaps (the path RTT dwarfs intra-flight pacing).
    std::vector<SimTime> sends;
    for (const auto& raw : bed.capture) {
        const auto packet = net::parse_packet(raw).value();
        if (packet.tcp && packet.ip->source == bed.tv.ip() && !packet.payload.empty()) {
            sends.push_back(packet.timestamp);
        }
    }
    ASSERT_GT(sends.size(), 20U);  // 60000/1460 = 42 segments
    std::vector<int> flights;
    for (std::size_t i = 0; i < sends.size(); ++i) {
        if (i == 0 || (sends[i] - sends[i - 1]) > SimTime::millis(5)) flights.push_back(0);
        flights.back() += 1;
    }
    ASSERT_GE(flights.size(), 2U);          // the transfer needed several rounds
    EXPECT_EQ(flights[0], 10);              // IW10 initial flight
    EXPECT_GT(flights[1], flights[0]);      // window grew after the first round
}

TEST(TcpTest, LargeBidirectionalTransferIsByteExact) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    Bytes seen;
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server, [&](BytesView request) {
        seen.assign(request.begin(), request.end());
        Bytes response(77777);
        for (std::size_t i = 0; i < response.size(); ++i) {
            response[i] = static_cast<std::uint8_t>(i * 31);
        }
        return response;
    });
    Bytes request(123456);
    for (std::size_t i = 0; i < request.size(); ++i) {
        request[i] = static_cast<std::uint8_t>(i * 17);
    }
    Bytes response;
    conn.connect([&]() {
        conn.exchange(request, [&](Bytes r) { response = std::move(r); });
    });
    bed.sim.run_all();
    EXPECT_EQ(seen, request);
    ASSERT_EQ(response.size(), 77777U);
    for (std::size_t i = 0; i < response.size(); ++i) {
        ASSERT_EQ(response[i], static_cast<std::uint8_t>(i * 31)) << i;
    }
}

TEST(TcpTest, RecoversFromHeavyDataLoss) {
    // 10% loss on both directions of the data path: the transfer must still
    // complete byte-exact via RTO / fast-retransmit repair.
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    bed.cloud.set_route_loss(server.address, 0.10);

    Bytes seen;
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server, [&](BytesView request) {
        seen.assign(request.begin(), request.end());
        Bytes response(40000);
        for (std::size_t i = 0; i < response.size(); ++i) {
            response[i] = static_cast<std::uint8_t>(i * 11);
        }
        return response;
    });

    Bytes request(30000);
    for (std::size_t i = 0; i < request.size(); ++i) {
        request[i] = static_cast<std::uint8_t>(i * 3);
    }
    Bytes response;
    conn.connect([&]() {
        conn.exchange(request, [&](Bytes r) { response = std::move(r); });
    });
    bed.sim.run_all();

    EXPECT_EQ(seen, request);
    ASSERT_EQ(response.size(), 40000U);
    for (std::size_t i = 0; i < response.size(); ++i) {
        ASSERT_EQ(response[i], static_cast<std::uint8_t>(i * 11)) << i;
    }
    EXPECT_GT(conn.retransmitted_segments(), 0U);
    EXPECT_GT(bed.cloud.data_segments_dropped(), 0U);
}

TEST(TcpTest, TailLossRepairedByTimeout) {
    // Losing the *final* segment produces no duplicate ACKs — only the RTO
    // can repair it. Use a single-segment response so the tail is all there
    // is, with a loss rate high enough to hit it.
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    bed.cloud.set_route_loss(server.address, 0.45);

    int completed = 0;
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(100, 0x5A); });
    conn.connect([&]() {
        for (int i = 0; i < 10; ++i) {
            conn.exchange(Bytes(100, 0x11), [&](Bytes r) {
                if (r.size() == 100) ++completed;
            });
        }
    });
    bed.sim.run_all();
    EXPECT_EQ(completed, 10);
    EXPECT_GT(conn.retransmitted_segments(), 0U);
}

TEST(TcpTest, NoLossMeansNoRetransmissions) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(20000, 0); });
    conn.connect([]() {});
    conn.exchange(Bytes(20000, 1), [](Bytes) {});
    bed.sim.run_all();
    EXPECT_EQ(conn.retransmitted_segments(), 0U);
    EXPECT_EQ(bed.cloud.data_segments_dropped(), 0U);
}

// ------------------------------------------- tcp under adversarial faults
//
// Scripted frame drops through fault::ImpairmentModel pick off *exactly* the
// control segment under test: the model's per-direction frame index counts
// every frame on the link, and these testbeds carry nothing but the one
// connection. Drops happen before the AP capture tap, so the capture shows
// the repair conversation exactly as a real sniffer would — the lost frame
// absent, its byte-identical retransmission present.

TEST(TcpFaultTest, LostSynIsRetransmittedAndConnectionCompletes) {
    Testbed bed;
    fault::FaultSpec spec;
    spec.drop_uplink_frames = {0};  // the original SYN
    fault::ImpairmentModel model(spec, 3, 1);
    bed.ap.set_impairment(&model);

    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(500, 0xBB); });
    bool established = false;
    Bytes response;
    conn.connect([&]() { established = true; });
    conn.exchange(Bytes(700, 0xAA), [&](Bytes r) { response = std::move(r); });
    bed.sim.run_all();

    EXPECT_TRUE(established);
    EXPECT_EQ(response.size(), 500U);
    EXPECT_GT(conn.control_retransmits(), 0U);
    EXPECT_EQ(model.dropped(), 1U);
    // Only the retransmitted SYN reaches the tap (the original died on the
    // link), and the handshake still parses as one clean flow.
    int syn_up = 0;
    for (const auto& raw : bed.capture) {
        const auto packet = net::parse_packet(raw).value();
        if (packet.tcp->has(net::TcpFlags::kSyn) && packet.ip->source == bed.tv.ip()) ++syn_up;
    }
    EXPECT_EQ(syn_up, 1);
}

TEST(TcpFaultTest, LostSynAckIsReplayedWithoutConsumingSequenceSpace) {
    Testbed bed;
    fault::FaultSpec spec;
    spec.drop_downlink_frames = {0};  // the SYN-ACK
    fault::ImpairmentModel model(spec, 3, 1);
    bed.ap.set_impairment(&model);

    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(500, 0xBB); });
    bool established = false;
    Bytes response;
    conn.connect([&]() { established = true; });
    conn.exchange(Bytes(700, 0xAA), [&](Bytes r) { response = std::move(r); });
    bed.sim.run_all();

    EXPECT_TRUE(established);
    EXPECT_EQ(response.size(), 500U);
    EXPECT_GT(conn.control_retransmits(), 0U);

    // The client's SYN timer fired and resent the SYN; the server answered
    // the duplicate by replaying its SYN-ACK at the recorded ISS. Both SYNs
    // are on the wire with the *same* sequence number — retransmission must
    // never consume fresh sequence space.
    std::vector<std::uint32_t> syn_seqs;
    int syn_ack_down = 0;
    for (const auto& raw : bed.capture) {
        const auto packet = net::parse_packet(raw).value();
        if (!packet.tcp->has(net::TcpFlags::kSyn)) continue;
        if (packet.ip->source == bed.tv.ip()) {
            syn_seqs.push_back(packet.tcp->sequence);
        } else {
            ++syn_ack_down;
        }
    }
    ASSERT_EQ(syn_seqs.size(), 2U);
    EXPECT_EQ(syn_seqs[0], syn_seqs[1]);
    EXPECT_EQ(syn_ack_down, 1);  // the original died before the tap
}

TEST(TcpFaultTest, LostFinIsRetransmittedAndCloseCompletes) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(500, 0xBB); });

    // Installed only once the exchange is done, so the scripted indices
    // count from the close conversation: the next two uplink frames (the
    // final ACK and/or the FIN, depending on emission order) are lost.
    fault::FaultSpec spec;
    spec.drop_uplink_frames = {0, 1};
    fault::ImpairmentModel model(spec, 3, 1);

    bool closed = false;
    conn.connect([&]() {
        conn.exchange(Bytes(700, 0xAA), [&](Bytes) {
            bed.ap.set_impairment(&model);
            conn.close([&]() { closed = true; });
        });
    });
    bed.sim.run_all();

    EXPECT_TRUE(closed);
    EXPECT_TRUE(conn.closed());
    EXPECT_GT(conn.control_retransmits(), 0U);
    EXPECT_EQ(model.dropped(), 2U);
}

TEST(TcpFaultTest, LostCloseRepliesAreRepairedByDuplicateFin) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(500, 0xBB); });

    // Mirror image of the test above: the server's ACK and FIN-ACK die on
    // the downlink, the client's FIN timer fires, and the duplicate FIN is
    // answered with a byte-identical replay.
    fault::FaultSpec spec;
    spec.drop_downlink_frames = {0, 1};
    fault::ImpairmentModel model(spec, 3, 1);

    bool closed = false;
    conn.connect([&]() {
        conn.exchange(Bytes(700, 0xAA), [&](Bytes) {
            bed.ap.set_impairment(&model);
            conn.close([&]() { closed = true; });
        });
    });
    bed.sim.run_all();

    EXPECT_TRUE(closed);
    EXPECT_TRUE(conn.closed());
    EXPECT_GT(conn.control_retransmits(), 0U);

    // Both copies of the client FIN made it to the wire at the same
    // sequence number.
    std::vector<std::uint32_t> fin_seqs;
    for (const auto& raw : bed.capture) {
        const auto packet = net::parse_packet(raw).value();
        if (packet.tcp->has(net::TcpFlags::kFin) && packet.ip->source == bed.tv.ip()) {
            fin_seqs.push_back(packet.tcp->sequence);
        }
    }
    ASSERT_GE(fin_seqs.size(), 2U);
    for (const auto seq : fin_seqs) EXPECT_EQ(seq, fin_seqs[0]);
}

TEST(TcpFaultTest, DuplicateStormDoesNotCorruptTheStream) {
    // 80% frame duplication in both directions: duplicated data must be
    // discarded by the receiver, and duplicated ACKs may at worst trigger a
    // spurious fast retransmit — never corruption or double delivery.
    Testbed bed;
    fault::FaultSpec spec;
    spec.duplicate = 0.8;
    fault::ImpairmentModel model(spec, 11, 1);
    bed.ap.set_impairment(&model);

    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    Bytes seen;
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server, [&](BytesView request) {
        seen.assign(request.begin(), request.end());
        Bytes response(20000);
        for (std::size_t i = 0; i < response.size(); ++i) {
            response[i] = static_cast<std::uint8_t>(i * 11);
        }
        return response;
    });
    Bytes request(15000);
    for (std::size_t i = 0; i < request.size(); ++i) {
        request[i] = static_cast<std::uint8_t>(i * 3);
    }
    int responses = 0;
    Bytes response;
    conn.connect([&]() {
        conn.exchange(request, [&](Bytes r) {
            ++responses;
            response = std::move(r);
        });
    });
    bed.sim.run_all();

    EXPECT_EQ(seen, request);
    EXPECT_EQ(responses, 1);
    ASSERT_EQ(response.size(), 20000U);
    for (std::size_t i = 0; i < response.size(); ++i) {
        ASSERT_EQ(response[i], static_cast<std::uint8_t>(i * 11)) << i;
    }
    EXPECT_GT(model.duplicated(), 0U);
}

TEST(TcpFaultTest, OneLostSegmentCostsOneFastRetransmit) {
    // One data segment lost early in a long response: every later segment
    // of the flight brings a duplicate ACK, but only the third one resends.
    // Resetting the count there resent the window again for every three
    // more duplicates, and each resent window brought more of them.
    Testbed bed;
    fault::FaultSpec spec;
    spec.drop_downlink_frames = {12};
    fault::ImpairmentModel model(spec, 3, 1);
    bed.ap.set_impairment(&model);

    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server, [](BytesView) {
        Bytes response(60000);
        for (std::size_t i = 0; i < response.size(); ++i) {
            response[i] = static_cast<std::uint8_t>(i * 7);
        }
        return response;
    });
    Bytes response;
    conn.connect([&]() {
        conn.exchange(Bytes(300, 0xAA), [&](Bytes r) { response = std::move(r); });
    });
    bed.sim.run_all();

    EXPECT_EQ(model.dropped(), 1U);
    ASSERT_EQ(response.size(), 60000U);
    for (std::size_t i = 0; i < response.size(); ++i) {
        ASSERT_EQ(response[i], static_cast<std::uint8_t>(i * 7)) << i;
    }
    EXPECT_EQ(conn.retransmitted_segments(), 1U);
}

TEST(TcpFaultTest, HandshakeGivesUpCleanlyWhenLinkNeverComesBack) {
    // The link is down for the whole run: every SYN dies, the retry budget
    // is spent with full exponential backoff, and the connection reports a
    // clean terminal failure instead of hanging or crashing run_all.
    Testbed bed;
    fault::FaultSpec spec;
    spec.outages.push_back({SimTime{}, SimTime::minutes(10)});
    fault::ImpairmentModel model(spec, 3, 1);
    bed.ap.set_impairment(&model);

    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(1, 0); });
    bool established = false;
    conn.connect([&]() { established = true; });
    bed.sim.run_all();

    EXPECT_FALSE(established);
    EXPECT_TRUE(conn.closed());
    EXPECT_EQ(conn.control_retransmits(), 8U);  // TcpConfig::max_ctrl_retries
    EXPECT_TRUE(bed.capture.empty());           // nothing survived to the tap
}

TEST(TcpFaultTest, RetransmissionTimerSurvivesRunUntilBoundary) {
    // A data segment is lost, arming the RTO; the first run_until deadline
    // falls between the loss and the timer's expiry. The parked timer must
    // fire in the next run and repair the stream (the TCP-level face of
    // SimulatorTest.EventsPastDeadlineSurviveToNextRun).
    Testbed bed;
    fault::FaultSpec spec;
    spec.drop_uplink_frames = {2};  // frames: 0 SYN, 1 handshake ACK, 2 first data
    fault::ImpairmentModel model(spec, 3, 1);
    bed.ap.set_impairment(&model);

    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    Bytes seen;
    TcpConnection conn(bed.sim, bed.tv, bed.cloud, server, [&](BytesView request) {
        seen.assign(request.begin(), request.end());
        return Bytes(200, 0xBB);
    });
    Bytes response;
    conn.connect([&]() {
        conn.exchange(Bytes(1000, 0xAA), [&](Bytes r) { response = std::move(r); });
    });

    // Park the clock before the ~250 ms RTO can fire; the repair must not
    // have happened yet.
    bed.sim.run_until(SimTime::millis(100));
    EXPECT_TRUE(response.empty());
    EXPECT_EQ(conn.retransmitted_segments(), 0U);

    bed.sim.run_all();
    EXPECT_EQ(seen.size(), 1000U);
    EXPECT_EQ(response.size(), 200U);
    EXPECT_GE(conn.retransmitted_segments(), 1U);
}

// ---------------------------------------------------------------------- tls

TEST(TlsTest, HandshakeThenApplicationData) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    Bytes seen_by_app;
    TlsSession session(
        bed.sim, bed.tv, bed.cloud, server,
        [&](BytesView plaintext) -> Bytes {
            seen_by_app.assign(plaintext.begin(), plaintext.end());
            return Bytes(300, 0x42);
        },
        /*seed=*/77);

    bool ready = false;
    Bytes reply;
    session.open([&]() { ready = true; });
    session.send(Bytes(1200, 0x10), [&](Bytes response) { reply = std::move(response); });
    bed.sim.run_all();

    EXPECT_TRUE(ready);
    EXPECT_EQ(seen_by_app.size(), 1200U);
    ASSERT_EQ(reply.size(), 300U);
    EXPECT_EQ(reply[0], 0x42);
}

TEST(TlsTest, WireBytesExceedPlaintextByRecordOverhead) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TlsSession session(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(1, 0); }, 77);
    EXPECT_EQ(session.sealed_size(100), 122U);          // one record
    EXPECT_EQ(session.sealed_size(16384), 16384U + 22U);
    EXPECT_EQ(session.sealed_size(16385), 16385U + 44U);  // two records
    EXPECT_EQ(session.sealed_size(0), 1U + 22U);

    session.open([]() {});
    bed.sim.run_all();
    // The handshake alone moves at least client_hello + server_flight bytes.
    std::uint64_t payload = 0;
    for (const auto& raw : bed.capture) {
        payload += net::parse_packet(raw).value().payload.size();
    }
    EXPECT_GT(payload, 517U + 4300U);
}

TEST(TlsTest, QueuedSendsPairRequestsWithResponses) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TlsSession session(
        bed.sim, bed.tv, bed.cloud, server,
        [](BytesView plaintext) -> Bytes { return Bytes(plaintext.size(), 0x5A); }, 78);
    std::vector<std::size_t> replies;
    session.open([]() {});
    session.send(Bytes(10, 0), [&](Bytes r) { replies.push_back(r.size()); });
    session.send(Bytes(20, 0), [&](Bytes r) { replies.push_back(r.size()); });
    session.send(Bytes(30, 0), [&](Bytes r) { replies.push_back(r.size()); });
    bed.sim.run_all();
    EXPECT_EQ(replies, (std::vector<std::size_t>{10, 20, 30}));
}

TEST(TlsTest, CloseCompletesFinHandshake) {
    Testbed bed;
    const net::Endpoint server{Ipv4Address(20, 30, 40, 50), 443};
    TlsSession session(bed.sim, bed.tv, bed.cloud, server,
                       [](BytesView) { return Bytes(64, 0); }, 91);
    bool closed = false;
    session.open([&]() {
        session.send(Bytes(100, 1), [&](Bytes) { session.close([&]() { closed = true; }); });
    });
    bed.sim.run_all();
    EXPECT_TRUE(closed);
    EXPECT_TRUE(session.closed());
    EXPECT_FALSE(session.ready());
}

TEST(TopologyTest, DnsCacheHonoursTtlExpiry) {
    Testbed bed;
    // Short-TTL record: the second resolve after expiry re-queries.
    const auto name = dns::DomainName::parse("rotating.example.com").value();
    bed.cloud.zone().add(dns::ResourceRecord::a(name, Ipv4Address(1, 2, 3, 4), /*ttl=*/5));
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);

    resolver.resolve("rotating.example.com", [](auto) {});
    bed.sim.run_all();
    EXPECT_EQ(resolver.queries_sent(), 1U);

    // Within TTL: served from cache.
    bed.sim.at(bed.sim.now() + SimTime::seconds(2), [&]() {
        resolver.resolve("rotating.example.com", [](auto) {});
    });
    bed.sim.run_all();
    EXPECT_EQ(resolver.queries_sent(), 1U);
    EXPECT_EQ(resolver.cache_hits(), 1U);

    // Past TTL: a fresh query goes out.
    bed.sim.at(bed.sim.now() + SimTime::seconds(10), [&]() {
        resolver.resolve("rotating.example.com", [](auto) {});
    });
    bed.sim.run_all();
    EXPECT_EQ(resolver.queries_sent(), 2U);
}

TEST(TopologyTest, NxdomainIsNegativelyCached) {
    Testbed bed;
    DnsClient resolver(bed.sim, bed.tv, bed.cloud.dns_ip(), 55);
    int callbacks = 0;
    for (int i = 0; i < 3; ++i) {
        resolver.resolve("ghost.example.org", [&](std::optional<Ipv4Address> address) {
            EXPECT_FALSE(address.has_value());
            ++callbacks;
        });
        bed.sim.run_all();
    }
    EXPECT_EQ(callbacks, 3);
    EXPECT_EQ(resolver.queries_sent(), 1U);          // first miss hits the wire
    EXPECT_EQ(resolver.negative_cache_hits(), 2U);   // the rest are cached
}

TEST(TopologyTest, PortAllocationSkipsBoundPorts) {
    Testbed bed;
    // Bind a specific port, then allocate until the allocator would collide.
    bed.tv.bind_udp(49153, [](net::Endpoint, Bytes) {});
    std::set<std::uint16_t> seen;
    for (int i = 0; i < 100; ++i) {
        const std::uint16_t port = bed.tv.allocate_port();
        EXPECT_NE(port, 49153);
        EXPECT_TRUE(seen.insert(port).second || true);  // allocator may reuse later
        bed.tv.register_tcp(port, [](const net::ParsedPacket&) {});
    }
}

// --------------------------------------------------------------- smart plug

class FakeTv : public PoweredDevice {
  public:
    void power_on() override { ++ons; }
    void power_off() override { ++offs; }
    int ons = 0;
    int offs = 0;
};

TEST(SmartPlugTest, CycleFiresOnceEachWay) {
    Simulator sim;
    FakeTv tv;
    SmartPlug plug(sim, tv);
    plug.schedule_cycle(SimTime::seconds(1), SimTime::seconds(10));
    EXPECT_FALSE(plug.is_on());
    sim.run_until(SimTime::seconds(5));
    EXPECT_TRUE(plug.is_on());
    sim.run_all();
    EXPECT_FALSE(plug.is_on());
    EXPECT_EQ(tv.ons, 1);
    EXPECT_EQ(tv.offs, 1);
}

TEST(SmartPlugTest, RedundantCommandsAreIdempotent) {
    Simulator sim;
    FakeTv tv;
    SmartPlug plug(sim, tv);
    plug.turn_on();
    plug.turn_on();
    plug.turn_off();
    plug.turn_off();
    EXPECT_EQ(tv.ons, 1);
    EXPECT_EQ(tv.offs, 1);
}

}  // namespace
}  // namespace tvacr::sim
