#include "gateway/gateway.hpp"

#include <algorithm>

namespace tvacr::gateway {

const char* drop_reason_name(DropReason reason) noexcept {
    switch (reason) {
        case DropReason::kRingFull: return "ring_full";
        case DropReason::kTruncated: return "truncated";
    }
    return "unknown";
}

Gateway::Gateway(GatewayOptions options)
    : device_ip_(options.device_ip),
      analyzer_(options.device_ip),
      capacity_(options.ring_capacity > 0 ? options.ring_capacity : 1),
      m_offered_(registry_.counter("gateway.offered")),
      m_accepted_(registry_.counter("gateway.accepted")),
      m_drained_(registry_.counter("gateway.drained")),
      m_dropped_ring_full_(registry_.counter("gateway.dropped.ring_full")),
      m_dropped_truncated_(registry_.counter("gateway.dropped.truncated")),
      m_snapshots_(registry_.counter("gateway.snapshots")) {
    m_ring_occupancy_ = registry_.gauge("gateway.ring_occupancy");
    registry_.gauge("gateway.ring_capacity").set(static_cast<double>(capacity_));
}

void Gateway::ledger_drop(std::uint64_t first_offer, std::uint64_t count, DropReason reason) {
    if (count == 0) return;
    // Extend the previous run when this drop continues it — backpressure
    // sheds contiguous bursts, so the ledger stays tiny yet exact.
    if (!ledger_.empty()) {
        DropRun& last = ledger_.back();
        if (last.reason == reason && last.first_offer + last.count == first_offer) {
            last.count += count;
            return;
        }
    }
    ledger_.push_back(DropRun{first_offer, count, reason});
}

void Gateway::grow_ring() {
    std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
                slots_.end());
    ring_head_ = 0;
    slots_.resize(std::min(capacity_, std::max<std::size_t>(slots_.size() * 2, 1)));
}

bool Gateway::offer(analysis::DecodedRecord record) {
    const std::uint64_t offer_index = offered_++;
    m_offered_.add();
    if (ring_size_ == capacity_) {
        ++dropped_ring_full_;
        m_dropped_ring_full_.add();
        ledger_drop(offer_index, 1, DropReason::kRingFull);
        return false;
    }
    if (ring_size_ == slots_.size()) grow_ring();
    slots_[(ring_head_ + ring_size_) % slots_.size()] = std::move(record);
    ++ring_size_;
    ++accepted_;
    m_accepted_.add();
    return true;
}

void Gateway::note_truncated(std::uint64_t records) {
    if (records == 0) return;
    const std::uint64_t first = offered_;
    offered_ += records;
    m_offered_.add(records);
    dropped_truncated_ += records;
    m_dropped_truncated_.add(records);
    ledger_drop(first, records, DropReason::kTruncated);
}

std::size_t Gateway::drain(std::size_t max_records) {
    std::size_t taken = 0;
    while (taken < max_records && ring_size_ > 0) {
        analysis::DecodedRecord& record = slots_[ring_head_];
        analyzer_.ingest(record);
        record.dns_payload = Bytes{};  // release payload storage eagerly
        ring_head_ = (ring_head_ + 1) % slots_.size();
        --ring_size_;
        ++taken;
    }
    drained_ += taken;
    m_drained_.add(taken);
    return taken;
}

std::size_t Gateway::drain_all() {
    std::size_t total = 0;
    while (ring_size_ > 0) total += drain(ring_size_);
    return total;
}

analysis::CaptureAnalyzer Gateway::snapshot() {
    m_snapshots_.add();
    return analyzer_.snapshot();
}

std::string Gateway::ledger_text() const {
    std::string out;
    for (const DropRun& run : ledger_) {
        out += "drop " + std::to_string(run.first_offer) + " " + std::to_string(run.count) +
               " " + drop_reason_name(run.reason) + "\n";
    }
    return out;
}

const obs::Registry& Gateway::metrics() {
    m_ring_occupancy_.set(static_cast<double>(ring_size_));
    return registry_;
}

}  // namespace tvacr::gateway
