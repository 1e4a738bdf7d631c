#include "fault/spec.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace tvacr::fault {
namespace {

bool parse_double(std::string_view text, double& out) {
    if (text.empty()) return false;
    const std::string owned(text);
    char* end = nullptr;
    const double value = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) return false;
    out = value;
    return true;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
    if (text.empty()) return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

/// "40ms", "3s", "2m", "500us" — integer magnitude plus a unit suffix.
bool parse_duration(std::string_view text, SimTime& out) {
    std::size_t digits = 0;
    while (digits < text.size() && text[digits] >= '0' && text[digits] <= '9') ++digits;
    if (digits == 0) return false;
    std::uint64_t magnitude = 0;
    if (!parse_u64(text.substr(0, digits), magnitude)) return false;
    const std::string_view unit = text.substr(digits);
    const auto value = static_cast<std::int64_t>(magnitude);
    if (unit == "us") {
        out = SimTime::micros(value);
    } else if (unit == "ms") {
        out = SimTime::millis(value);
    } else if (unit == "s") {
        out = SimTime::seconds(value);
    } else if (unit == "m") {
        out = SimTime::minutes(value);
    } else {
        return false;
    }
    return true;
}

/// "60s+15s": start '+' duration.
bool parse_window(std::string_view text, TimeWindow& out) {
    const auto plus = text.find('+');
    if (plus == std::string_view::npos) return false;
    SimTime start;
    SimTime length;
    if (!parse_duration(text.substr(0, plus), start)) return false;
    if (!parse_duration(text.substr(plus + 1), length)) return false;
    out = TimeWindow{start, start + length};
    return true;
}

/// "0;3;7" — semicolon-separated frame indices.
bool parse_index_list(std::string_view text, std::vector<std::uint64_t>& out) {
    for (const auto& part : split(text, ';')) {
        std::uint64_t index = 0;
        if (!parse_u64(trim(part), index)) return false;
        out.push_back(index);
    }
    return true;
}

std::string format_probability(double p) {
    std::array<char, 32> buffer{};
    std::snprintf(buffer.data(), buffer.size(), "%g", p);
    return std::string(buffer.data());
}

std::string format_duration(SimTime t) {
    const std::int64_t us = t.as_micros();
    if (us % 1'000'000 == 0) return std::to_string(us / 1'000'000) + "s";
    if (us % 1'000 == 0) return std::to_string(us / 1'000) + "ms";
    return std::to_string(us) + "us";
}

std::string format_window(const TimeWindow& w) {
    return format_duration(w.start) + "+" + format_duration(w.end - w.start);
}

std::string format_index_list(const std::vector<std::uint64_t>& indices) {
    std::string out;
    for (const auto index : indices) {
        if (!out.empty()) out += ';';
        out += std::to_string(index);
    }
    return out;
}

}  // namespace

bool FaultSpec::enabled() const noexcept {
    return loss > 0.0 || duplicate > 0.0 || reorder > 0.0 || jitter > SimTime{} ||
           bandwidth_kbps > 0 || !outages.empty() || !dns_outages.empty() ||
           !drop_uplink_frames.empty() || !drop_downlink_frames.empty();
}

std::optional<std::string> FaultSpec::validate() const {
    const auto probability_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
    if (!probability_ok(loss)) return "loss must be in [0,1]";
    if (!probability_ok(duplicate)) return "dup must be in [0,1]";
    if (!probability_ok(reorder)) return "reorder must be in [0,1]";
    if (reorder_delay < SimTime{}) return "reorder_delay must be >= 0";
    if (jitter < SimTime{}) return "jitter must be >= 0";
    for (const auto& window : outages) {
        if (window.start < SimTime{} || window.end <= window.start)
            return "outage windows need start >= 0 and positive duration";
    }
    for (const auto& window : dns_outages) {
        if (window.start < SimTime{} || window.end <= window.start)
            return "dns_outage windows need start >= 0 and positive duration";
    }
    return std::nullopt;
}

std::string FaultSpec::to_string() const {
    std::vector<std::string> parts;
    if (loss > 0.0) parts.push_back("loss=" + format_probability(loss));
    if (duplicate > 0.0) parts.push_back("dup=" + format_probability(duplicate));
    if (reorder > 0.0) {
        parts.push_back("reorder=" + format_probability(reorder));
        parts.push_back("reorder_delay=" + format_duration(reorder_delay));
    }
    if (jitter > SimTime{}) parts.push_back("jitter=" + format_duration(jitter));
    if (bandwidth_kbps > 0) parts.push_back("bw=" + std::to_string(bandwidth_kbps));
    for (const auto& window : outages) parts.push_back("outage=" + format_window(window));
    for (const auto& window : dns_outages) parts.push_back("dns_outage=" + format_window(window));
    if (!drop_uplink_frames.empty())
        parts.push_back("drop_up=" + format_index_list(drop_uplink_frames));
    if (!drop_downlink_frames.empty())
        parts.push_back("drop_down=" + format_index_list(drop_downlink_frames));
    if (parts.empty()) return "none";
    std::string out;
    for (const auto& part : parts) {
        if (!out.empty()) out += ',';
        out += part;
    }
    return out;
}

ParsedFaultSpec parse_fault_spec(std::string_view text) {
    const std::string trimmed = trim(text);
    if (trimmed.empty() || trimmed == "none") return {FaultSpec{}, {}};
    if (trimmed == "canonical") return {canonical_fault_spec(), {}};

    FaultSpec spec;
    for (const auto& raw_part : split(trimmed, ',')) {
        const std::string part = trim(raw_part);
        if (part.empty()) continue;
        const auto equals = part.find('=');
        if (equals == std::string::npos)
            return {std::nullopt, "expected key=value, got '" + part + "'"};
        const std::string key = trim(part.substr(0, equals));
        const std::string value = trim(part.substr(equals + 1));
        bool ok = false;
        if (key == "loss") {
            ok = parse_double(value, spec.loss);
        } else if (key == "dup") {
            ok = parse_double(value, spec.duplicate);
        } else if (key == "reorder") {
            ok = parse_double(value, spec.reorder);
        } else if (key == "reorder_delay") {
            ok = parse_duration(value, spec.reorder_delay);
        } else if (key == "jitter") {
            ok = parse_duration(value, spec.jitter);
        } else if (key == "bw") {
            std::uint64_t kbps = 0;
            ok = parse_u64(value, kbps) && kbps <= 0xFFFFFFFFULL;
            if (ok) spec.bandwidth_kbps = static_cast<std::uint32_t>(kbps);
        } else if (key == "outage") {
            TimeWindow window;
            ok = parse_window(value, window);
            if (ok) spec.outages.push_back(window);
        } else if (key == "dns_outage") {
            TimeWindow window;
            ok = parse_window(value, window);
            if (ok) spec.dns_outages.push_back(window);
        } else if (key == "drop_up") {
            ok = parse_index_list(value, spec.drop_uplink_frames);
        } else if (key == "drop_down") {
            ok = parse_index_list(value, spec.drop_downlink_frames);
        } else {
            return {std::nullopt, "unknown fault key '" + key + "'"};
        }
        if (!ok) return {std::nullopt, "bad value for '" + key + "': '" + value + "'"};
    }
    if (auto reason = spec.validate()) return {std::nullopt, *reason};
    return {spec, {}};
}

FaultSpec canonical_fault_spec() {
    FaultSpec spec;
    spec.loss = 0.02;
    spec.duplicate = 0.01;
    spec.reorder = 0.02;
    spec.reorder_delay = SimTime::millis(30);
    spec.jitter = SimTime::millis(2);
    spec.outages.push_back({SimTime::seconds(60), SimTime::seconds(75)});
    spec.dns_outages.push_back({SimTime::seconds(30), SimTime::seconds(38)});
    return spec;
}

}  // namespace tvacr::fault
