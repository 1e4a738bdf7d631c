#include "sim/tcp.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"
#include "net/headers.hpp"

namespace tvacr::sim {

using net::TcpFlags;

TcpConnection::TcpConnection(Simulator& simulator, Station& station, Cloud& cloud,
                             net::Endpoint remote, Responder responder, Config config)
    : simulator_(simulator),
      station_(station),
      cloud_(cloud),
      ap_(*station.access_point()),
      local_{station.ip(), station.allocate_port()},
      remote_(remote),
      responder_(std::move(responder)),
      config_(config),
      m_connects_(simulator.obs().metrics.counter("tcp.connects")),
      m_established_(simulator.obs().metrics.counter("tcp.established")),
      m_closed_(simulator.obs().metrics.counter("tcp.closed")),
      m_retransmits_(simulator.obs().metrics.counter("tcp.retransmits")),
      m_ctrl_retransmits_(simulator.obs().metrics.counter("tcp.ctrl_retransmits")),
      m_bytes_up_(simulator.obs().metrics.counter("tcp.bytes_up")),
      m_bytes_down_(simulator.obs().metrics.counter("tcp.bytes_down")),
      m_lifetime_us_(simulator.obs().metrics.histogram("tcp.connection_lifetime_us")) {
    // Deterministic but connection-unique initial sequence numbers.
    const std::uint64_t iss_seed =
        splitmix64((static_cast<std::uint64_t>(local_.port) << 32) ^ remote_.address.value() ^
                   (static_cast<std::uint64_t>(remote_.port) << 16));
    client_snd_nxt_ = static_cast<std::uint32_t>(iss_seed);
    server_snd_nxt_ = static_cast<std::uint32_t>(iss_seed >> 32);

    // Both handlers are guarded: the cloud (and in principle the station)
    // may have copied them into already-scheduled delivery events that fire
    // after this connection is destroyed.
    station_.register_tcp(local_.port, [this, alive = std::weak_ptr<bool>(alive_)](
                                           const net::ParsedPacket& packet) {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        on_server_segment_at_client(packet);
    });
    const net::FiveTuple tuple{local_.address, remote_.address, local_.port, remote_.port,
                               net::IpProtocol::kTcp};
    cloud_.register_tcp_flow(tuple, [this, alive = std::weak_ptr<bool>(alive_)](
                                        const net::ParsedPacket& packet) {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        on_client_segment_at_server(packet);
    });
}

TcpConnection::~TcpConnection() {
    *alive_ = false;
    station_.unregister_tcp(local_.port);
    const net::FiveTuple tuple{local_.address, remote_.address, local_.port, remote_.port,
                               net::IpProtocol::kTcp};
    cloud_.unregister_tcp_flow(tuple);
}

void TcpConnection::connect(std::function<void()> on_established) {
    assert(state_ == State::kIdle);
    on_established_ = std::move(on_established);
    state_ = State::kSynSent;
    connect_at_ = simulator_.now();
    m_connects_.add();
    client_iss_ = client_snd_nxt_;
    client_emit(TcpFlags::kSyn, {});
    arm_ctrl_timer();
}

void TcpConnection::client_send_raw(std::uint8_t flags, std::uint32_t seq, BytesView payload) {
    const net::FrameBuilder builder(station_.mac(), ap_.mac());
    station_.transmit(
        builder.tcp(simulator_.now(), local_, remote_, seq, client_rcv_nxt_, flags, payload));
}

void TcpConnection::client_emit(std::uint8_t flags, BytesView payload) {
    client_send_raw(flags, client_snd_nxt_, payload);
    client_snd_nxt_ += static_cast<std::uint32_t>(payload.size());
    if ((flags & (TcpFlags::kSyn | TcpFlags::kFin)) != 0) client_snd_nxt_ += 1;
}

void TcpConnection::server_send_raw(std::uint8_t flags, std::uint32_t seq, BytesView payload) {
    const std::uint32_t ack = server_rcv_nxt_;

    // Server -> AP path latency, FIFO-clamped so segments stay ordered.
    SimTime arrival = simulator_.now() + cloud_.sample_path_latency(remote_.address);
    if (arrival < last_server_arrival_) arrival = last_server_arrival_ + SimTime::micros(1);
    last_server_arrival_ = arrival;

    Bytes data(payload.begin(), payload.end());
    simulator_.at(arrival, [this, alive = std::weak_ptr<bool>(alive_), flags, seq, ack,
                            data = std::move(data)]() {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        const net::FrameBuilder builder(ap_.mac(), station_.mac());
        ap_.deliver_to_station(
            builder.tcp(SimTime{}, remote_, local_, seq, ack, flags, data));
    });
}

void TcpConnection::server_emit(std::uint8_t flags, BytesView payload) {
    const std::uint32_t seq = server_snd_nxt_;
    server_snd_nxt_ += static_cast<std::uint32_t>(payload.size());
    if ((flags & (TcpFlags::kSyn | TcpFlags::kFin)) != 0) server_snd_nxt_ += 1;
    server_send_raw(flags, seq, payload);
}

void TcpConnection::on_client_segment_at_server(const net::ParsedPacket& packet) {
    if (!packet.tcp) return;
    const auto& tcp = *packet.tcp;

    if (tcp.has(TcpFlags::kSyn)) {
        if (server_syn_seen_) {
            // Retransmitted SYN: our SYN-ACK was lost. Re-emit it from the
            // recorded ISS instead of consuming fresh sequence space.
            ++control_retransmits_;
            m_ctrl_retransmits_.add();
            server_send_raw(TcpFlags::kSyn | TcpFlags::kAck, server_iss_, {});
            return;
        }
        server_syn_seen_ = true;
        server_rcv_nxt_ = tcp.sequence + 1;
        server_iss_ = server_snd_nxt_;
        server_emit(TcpFlags::kSyn | TcpFlags::kAck, {});
        return;
    }
    if (tcp.has(TcpFlags::kFin)) {
        if (server_fin_sent_) {
            // Retransmitted FIN: our ACK and/or FIN-ACK was lost. Replay both
            // byte-identically from the recorded sequence numbers.
            ++control_retransmits_;
            m_ctrl_retransmits_.add();
            server_send_raw(TcpFlags::kAck, server_fin_seq_, {});
            server_send_raw(TcpFlags::kFin | TcpFlags::kAck, server_fin_seq_, {});
            return;
        }
        server_fin_sent_ = true;
        server_rcv_nxt_ = tcp.sequence + static_cast<std::uint32_t>(packet.payload.size()) + 1;
        server_emit(TcpFlags::kAck, {});
        server_fin_seq_ = server_snd_nxt_;
        server_emit(TcpFlags::kFin | TcpFlags::kAck, {});
        return;
    }
    if (packet.payload.empty()) {
        // A pure ACK arriving at the server acknowledges server-stream data.
        on_stream_ack(/*from_client=*/false, tcp.acknowledgment);
        return;
    }

    if (tcp.sequence != server_rcv_nxt_) {
        // Duplicate or out-of-window data (should not occur on FIFO paths):
        // re-acknowledge and drop.
        server_emit(TcpFlags::kAck, {});
        return;
    }
    server_rcv_nxt_ += static_cast<std::uint32_t>(packet.payload.size());
    server_rx_buffer_.insert(server_rx_buffer_.end(), packet.payload.begin(),
                             packet.payload.end());
    server_emit(TcpFlags::kAck, {});

    if (server_expected_ > 0 && server_rx_buffer_.size() >= server_expected_) {
        Bytes request = std::move(server_rx_buffer_);
        server_rx_buffer_.clear();
        server_expected_ = 0;
        const SimTime think = config_.service_delay.sample(cloud_.rng());
        simulator_.after(think, [this, alive = std::weak_ptr<bool>(alive_),
                                 request = std::move(request)]() {
            const auto guard = alive.lock();
            if (!guard || !*guard) return;
            Bytes response = responder_ ? responder_(request) : Bytes{};
            if (response.empty()) response.push_back(0);  // minimal status byte
            client_expected_ = response.size();
            client_rx_buffer_.clear();
            send_stream(/*from_client=*/false, std::move(response));
        });
    }
}

void TcpConnection::on_server_segment_at_client(const net::ParsedPacket& packet) {
    if (!packet.tcp) return;
    const auto& tcp = *packet.tcp;

    if (state_ == State::kSynSent && tcp.has(TcpFlags::kSyn) && tcp.has(TcpFlags::kAck)) {
        client_rcv_nxt_ = tcp.sequence + 1;
        client_emit(TcpFlags::kAck, {});
        state_ = State::kEstablished;
        ++ctrl_epoch_;  // cancel the SYN retransmission timer
        syn_attempts_ = 0;
        m_established_.add();
        if (on_established_) {
            auto callback = std::move(on_established_);
            on_established_ = nullptr;
            callback();
        }
        start_next_exchange();
        return;
    }
    if (tcp.has(TcpFlags::kSyn)) {
        // Duplicate SYN-ACK after establishment (our handshake ACK crossed a
        // retransmitted SYN-ACK on the wire): already handled, ignore.
        return;
    }
    if (tcp.has(TcpFlags::kFin)) {
        if (state_ == State::kClosed) {
            // Retransmitted FIN-ACK: our final ACK was lost. Re-acknowledge
            // without re-running the close bookkeeping.
            client_emit(TcpFlags::kAck, {});
            return;
        }
        client_rcv_nxt_ = tcp.sequence + static_cast<std::uint32_t>(packet.payload.size()) + 1;
        client_emit(TcpFlags::kAck, {});
        finish_close();
        return;
    }
    if (packet.payload.empty()) {
        // A pure ACK arriving at the client acknowledges client-stream data.
        on_stream_ack(/*from_client=*/true, tcp.acknowledgment);
        return;
    }

    if (tcp.sequence != client_rcv_nxt_) {
        client_emit(TcpFlags::kAck, {});
        return;
    }
    client_rcv_nxt_ += static_cast<std::uint32_t>(packet.payload.size());
    client_rx_buffer_.insert(client_rx_buffer_.end(), packet.payload.begin(),
                             packet.payload.end());
    client_emit(TcpFlags::kAck, {});

    if (client_expected_ > 0 && client_rx_buffer_.size() >= client_expected_) {
        client_expected_ = 0;
        exchange_active_ = false;
        Bytes response = std::move(client_rx_buffer_);
        client_rx_buffer_.clear();
        if (on_response_) {
            auto callback = std::move(on_response_);
            on_response_ = nullptr;
            callback(std::move(response));
        }
        start_next_exchange();
    }
}

void TcpConnection::exchange(Bytes request, std::function<void(Bytes)> on_response) {
    assert(!request.empty() && "exchange requires a non-empty request");
    pending_.push_back(Exchange{std::move(request), std::move(on_response)});
    if (state_ == State::kEstablished) start_next_exchange();
}

void TcpConnection::start_next_exchange() {
    if (exchange_active_ || pending_.empty() || state_ != State::kEstablished) return;
    Exchange next = std::move(pending_.front());
    pending_.pop_front();
    exchange_active_ = true;
    on_response_ = std::move(next.on_response);
    server_expected_ = next.request.size();
    server_rx_buffer_.clear();
    send_stream(/*from_client=*/true, std::move(next.request));
}

void TcpConnection::send_stream(bool from_client, Bytes data) {
    // ACK-clocked slow start: an initial flight of initial_cwnd segments,
    // then more per cumulative ACK, so large transfers ramp up in RTT-spaced
    // flights like a real stack. Losses rewind next_offset (Go-Back-N).
    StreamTx& tx = from_client ? client_tx_ : server_tx_;
    (from_client ? m_bytes_up_ : m_bytes_down_).add(data.size());
    tx.data = std::move(data);
    tx.base_seq = from_client ? client_snd_nxt_ : server_snd_nxt_;
    tx.acked = 0;
    tx.next_offset = 0;
    tx.cwnd = config_.initial_cwnd;
    tx.ssthresh = config_.ssthresh;
    tx.duplicate_acks = 0;
    tx.timeouts = 0;
    tx.active = true;
    // Control segments emitted after this stream continue past its range.
    if (from_client) {
        client_snd_nxt_ = tx.base_seq + static_cast<std::uint32_t>(tx.data.size());
    } else {
        server_snd_nxt_ = tx.base_seq + static_cast<std::uint32_t>(tx.data.size());
    }
    transmit_more(from_client);
}

void TcpConnection::emit_data(bool from_client, std::uint32_t seq, std::uint8_t flags,
                              Bytes chunk) {
    if (from_client) {
        const net::FrameBuilder builder(station_.mac(), ap_.mac());
        station_.transmit(
            builder.tcp(simulator_.now(), local_, remote_, seq, client_rcv_nxt_, flags, chunk));
        return;
    }
    // Server data traverses the (possibly lossy) path before reaching the AP.
    if (cloud_.should_drop_data(remote_.address)) return;
    SimTime arrival = simulator_.now() + cloud_.sample_path_latency(remote_.address);
    if (arrival < last_server_arrival_) arrival = last_server_arrival_ + SimTime::micros(1);
    last_server_arrival_ = arrival;
    simulator_.at(arrival, [this, alive = std::weak_ptr<bool>(alive_), seq, flags,
                            ack = server_rcv_nxt_, chunk = std::move(chunk)]() {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        const net::FrameBuilder builder(ap_.mac(), station_.mac());
        ap_.deliver_to_station(builder.tcp(SimTime{}, remote_, local_, seq, ack, flags, chunk));
    });
}

void TcpConnection::transmit_more(bool from_client) {
    StreamTx& tx = from_client ? client_tx_ : server_tx_;
    if (!tx.active) return;
    SimTime at = std::max(simulator_.now(), tx.next_emit);
    const std::size_t window_bytes = tx.cwnd * config_.mss;
    while (tx.next_offset < tx.data.size() && tx.next_offset - tx.acked < window_bytes) {
        const std::size_t length = std::min(config_.mss, tx.data.size() - tx.next_offset);
        const bool last = tx.next_offset + length >= tx.data.size();
        const std::uint32_t seq = tx.base_seq + static_cast<std::uint32_t>(tx.next_offset);
        Bytes chunk(tx.data.begin() + static_cast<std::ptrdiff_t>(tx.next_offset),
                    tx.data.begin() + static_cast<std::ptrdiff_t>(tx.next_offset + length));
        tx.next_offset += length;
        simulator_.at(at, [this, alive = std::weak_ptr<bool>(alive_), from_client, last, seq,
                           chunk = std::move(chunk)]() {
            const auto guard = alive.lock();
            if (!guard || !*guard) return;
            const std::uint8_t flags = TcpFlags::kAck | (last ? TcpFlags::kPsh : 0);
            emit_data(from_client, seq, flags, std::move(const_cast<Bytes&>(chunk)));
        });
        at += config_.segment_interval;
        tx.next_emit = at;
        if (last) break;
    }
    if (tx.active && tx.acked < tx.data.size()) arm_rto(from_client);
}

void TcpConnection::arm_rto(bool from_client) {
    StreamTx& tx = from_client ? client_tx_ : server_tx_;
    const std::uint64_t epoch = ++tx.rto_epoch;
    simulator_.after(backed_off_rto(tx.timeouts), [this, alive = std::weak_ptr<bool>(alive_),
                                                   from_client, epoch]() {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        StreamTx& timer_tx = from_client ? client_tx_ : server_tx_;
        if (!timer_tx.active || timer_tx.rto_epoch != epoch) return;  // superseded
        // Timeout: back off the next timer, collapse the window, and resend
        // everything unacked. During a link outage this decays to one probe
        // flight every max_rto instead of a retransmission storm.
        ++timer_tx.timeouts;
        timer_tx.ssthresh = std::max<std::size_t>(timer_tx.cwnd / 2, 2);
        timer_tx.cwnd = config_.initial_cwnd;
        timer_tx.duplicate_acks = 0;
        timer_tx.next_offset = timer_tx.acked;
        ++retransmits_;
        m_retransmits_.add();
        transmit_more(from_client);
    });
}

SimTime TcpConnection::backed_off_rto(int consecutive_timeouts) const {
    SimTime rto = config_.rto;
    for (int i = 0; i < consecutive_timeouts && rto < config_.max_rto; ++i) rto = rto * 2;
    return std::min(rto, config_.max_rto);
}

void TcpConnection::on_stream_ack(bool from_client, std::uint32_t ack_number) {
    StreamTx& tx = from_client ? client_tx_ : server_tx_;
    if (!tx.active) return;
    // Signed 32-bit distance from the stream base; out-of-range ACKs belong
    // to control segments (handshake/FIN) and are ignored here.
    const auto distance = static_cast<std::int64_t>(
        static_cast<std::int32_t>(ack_number - tx.base_seq));
    if (distance < 0 || distance > static_cast<std::int64_t>(tx.data.size())) return;
    const auto acked_bytes = static_cast<std::size_t>(distance);

    if (acked_bytes > tx.acked) {
        tx.acked = acked_bytes;
        tx.duplicate_acks = 0;
        tx.timeouts = 0;  // forward progress resets the RTO backoff
        if (tx.cwnd < tx.ssthresh) {
            tx.cwnd += 1;  // slow start: doubles per round
        } else if (tx.cwnd < config_.max_cwnd) {
            tx.cwnd += 1;  // coarse congestion avoidance
        }
        if (tx.acked >= tx.data.size()) {
            tx.active = false;
            tx.data.clear();
            ++tx.rto_epoch;  // cancel the timer
            return;
        }
        transmit_more(from_client);
        return;
    }
    if (acked_bytes == tx.acked && tx.acked < tx.data.size()) {
        // Duplicate ACK: the receiver is missing the segment at `acked`.
        // Only the third duplicate retransmits: the counter runs on until a
        // new ACK or an RTO resets it, so one loss event is one fast
        // retransmit, not one per three duplicates of the resent window.
        if (++tx.duplicate_acks == 3) {
            tx.ssthresh = std::max<std::size_t>(tx.cwnd / 2, 2);
            tx.cwnd = std::max(tx.cwnd / 2, config_.initial_cwnd);
            tx.next_offset = tx.acked;  // fast retransmit (Go-Back-N)
            ++retransmits_;
            m_retransmits_.add();
            transmit_more(from_client);
        }
    }
}

void TcpConnection::close(std::function<void()> on_closed) {
    if (state_ != State::kEstablished) return;
    on_closed_ = std::move(on_closed);
    state_ = State::kFinWait;
    client_fin_seq_ = client_snd_nxt_;
    client_emit(TcpFlags::kFin | TcpFlags::kAck, {});
    arm_ctrl_timer();
}

void TcpConnection::finish_close() {
    state_ = State::kClosed;
    ++ctrl_epoch_;  // cancel the FIN retransmission timer
    m_closed_.add();
    m_lifetime_us_.observe(static_cast<double>((simulator_.now() - connect_at_).as_micros()));
    simulator_.obs().trace.span("tcp " + remote_.address.to_string(), "tcp", connect_at_,
                                simulator_.now(), /*tid=*/2,
                                {{"remote", remote_.address.to_string()}});
    if (on_closed_) {
        auto callback = std::move(on_closed_);
        on_closed_ = nullptr;
        callback();
    }
}

void TcpConnection::arm_ctrl_timer() {
    const std::uint64_t epoch = ++ctrl_epoch_;
    const int attempts = state_ == State::kSynSent ? syn_attempts_ : fin_attempts_;
    simulator_.after(backed_off_rto(attempts), [this, alive = std::weak_ptr<bool>(alive_),
                                                epoch]() {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        if (ctrl_epoch_ != epoch) return;  // handshake/teardown advanced
        if (state_ == State::kSynSent) {
            if (syn_attempts_ >= config_.max_ctrl_retries) {
                // Handshake failure: give up deterministically. The pending
                // on_established callback is dropped, the way a connect
                // timeout surfaces as an error to a real application.
                state_ = State::kClosed;
                on_established_ = nullptr;
                return;
            }
            ++syn_attempts_;
            ++control_retransmits_;
            m_ctrl_retransmits_.add();
            client_send_raw(TcpFlags::kSyn, client_iss_, {});
            arm_ctrl_timer();
        } else if (state_ == State::kFinWait) {
            if (fin_attempts_ >= config_.max_ctrl_retries) {
                // Peer unreachable: close unilaterally (a FIN timeout) so the
                // application still observes a terminal state.
                finish_close();
                return;
            }
            ++fin_attempts_;
            ++control_retransmits_;
            m_ctrl_retransmits_.add();
            client_send_raw(TcpFlags::kFin | TcpFlags::kAck, client_fin_seq_, {});
            arm_ctrl_timer();
        }
        // Any other state: the timer is stale; nothing to do.
    });
}

}  // namespace tvacr::sim
