// Resident ingest gateway: tvacr as a service, not a batch tool.
//
// tvacr_analyze walks a finished capture once. The gateway instead ingests
// a *live* stream — a pcap/.tvcr file still being written, or raw pcap
// bytes on a pipe — through a fixed-size ring buffer with explicit
// backpressure, and keeps an analysis::StreamingCaptureAnalyzer warm so
// attribution snapshots are available at any moment, not just at EOF.
//
// Accounting contract (the whole point of the ring):
//     offered == accepted + dropped            -- exactly, always
// where dropped is itemized per reason (ring_full, truncated) in both the
// obs::Registry counters and a compact run-length drop ledger naming the
// precise offer indices that were shed. The determinism contract follows:
// with a ring large enough to avoid drops, the final snapshot is
// byte-identical to the batch analyzer over the same stream; under forced
// drops it is byte-identical to the batch analyzer over the accepted-record
// subset (the ledger tells you which subset that was).
//
// The gateway is single-threaded by design — one event loop offers and
// drains in a fixed order, so a given input and knob setting replays to the
// same accept/drop decisions every run. The analyzer attributes each record
// as it drains, so a snapshot copies what was attributed so far rather
// than re-attributing the whole capture.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/stream.hpp"
#include "common/thread_pool.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"

namespace tvacr::gateway {

enum class DropReason : std::uint8_t {
    kRingFull = 0,   // offered while the ring had no free slot
    kTruncated = 1,  // torn at the source: partial record/block at stream end
};

[[nodiscard]] const char* drop_reason_name(DropReason reason) noexcept;

/// One contiguous run of dropped offers. Backpressure sheds in bursts, so
/// run-length encoding keeps the ledger exact without growing per record:
/// offer indices [first_offer, first_offer + count) were dropped for
/// `reason`. Offer indices count every record the source presented, in
/// stream order, so the ledger maps 1:1 onto positions in the input.
struct DropRun {
    std::uint64_t first_offer = 0;
    std::uint64_t count = 0;
    DropReason reason = DropReason::kRingFull;
};

struct GatewayOptions {
    net::Ipv4Address device_ip;
    /// Ring slots. Offers beyond a full ring are dropped (and ledgered),
    /// never blocked on: a vantage-point tap must keep up with the wire.
    std::size_t ring_capacity = 65536;
    /// Accepted for compatibility and ignored: the analyzer attributes in
    /// one serial pass, and snapshots never depended on either field.
    std::size_t workers = 1;
    common::ThreadPool* pool = nullptr;
};

class Gateway {
  public:
    explicit Gateway(GatewayOptions options);

    /// Offers one decoded record to the ring. Its DNS payload is owned, so
    /// it outlives the source buffer it was decoded from. Returns false (and
    /// ledgers a ring_full drop) when the ring is at capacity.
    bool offer(analysis::DecodedRecord record);

    /// Accounts `records` torn records at the source (partial trailing pcap
    /// record, torn .tvcr block): they are offered and simultaneously
    /// dropped with reason kTruncated, keeping conservation exact.
    void note_truncated(std::uint64_t records);

    /// Drains up to `max_records` from the ring into the analyzer; returns
    /// how many were drained.
    std::size_t drain(std::size_t max_records);
    std::size_t drain_all();

    /// Incremental attribution snapshot over everything drained so far.
    /// Records still sitting in the ring are NOT included — callers that
    /// want "everything accepted so far" (the control SNAPSHOT verb, the
    /// final report) drain first.
    [[nodiscard]] analysis::CaptureAnalyzer snapshot();

    // Accounting. offered() == accepted() + dropped() at every point
    // between calls; conservation_ok() checks it, the daemon asserts it at
    // exit, and the randomized-load test hammers it.
    [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
    [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
    [[nodiscard]] std::uint64_t drained() const noexcept { return drained_; }
    [[nodiscard]] std::uint64_t dropped_ring_full() const noexcept { return dropped_ring_full_; }
    [[nodiscard]] std::uint64_t dropped_truncated() const noexcept { return dropped_truncated_; }
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return dropped_ring_full_ + dropped_truncated_;
    }
    [[nodiscard]] std::size_t ring_occupancy() const noexcept { return ring_size_; }
    [[nodiscard]] std::size_t ring_capacity() const noexcept { return slots_.size(); }
    [[nodiscard]] bool conservation_ok() const noexcept {
        return offered_ == accepted_ + dropped() && accepted_ == drained_ + ring_size_;
    }

    [[nodiscard]] const std::vector<DropRun>& drop_ledger() const noexcept { return ledger_; }
    /// "drop <first> <count> <reason>" per run, newline-terminated; empty
    /// string when nothing was dropped.
    [[nodiscard]] std::string ledger_text() const;

    /// Live metrics (counters mirror the accessors above; ring occupancy is
    /// refreshed on access). Deterministic: no wall-clock enters here.
    [[nodiscard]] const obs::Registry& metrics();

  private:
    void ledger_drop(std::uint64_t first_offer, std::uint64_t count, DropReason reason);

    net::Ipv4Address device_ip_;
    analysis::StreamingCaptureAnalyzer analyzer_;

    // Fixed-capacity ring: slots_ never reallocates after construction.
    std::vector<analysis::DecodedRecord> slots_;
    std::size_t ring_head_ = 0;  // index of the oldest queued record
    std::size_t ring_size_ = 0;

    std::uint64_t offered_ = 0;
    std::uint64_t accepted_ = 0;
    std::uint64_t drained_ = 0;
    std::uint64_t dropped_ring_full_ = 0;
    std::uint64_t dropped_truncated_ = 0;
    std::vector<DropRun> ledger_;

    obs::Registry registry_;
    obs::Registry::Counter m_offered_;
    obs::Registry::Counter m_accepted_;
    obs::Registry::Counter m_drained_;
    obs::Registry::Counter m_dropped_ring_full_;
    obs::Registry::Counter m_dropped_truncated_;
    obs::Registry::Counter m_snapshots_;
    obs::Registry::Gauge m_ring_occupancy_;
};

}  // namespace tvacr::gateway
