// The complete Figure-2 deployment: both smart TVs running *simultaneously*
// in one country — one access-point server (with its own capture tap) per
// TV, a shared internet behind them, and independent smart plugs. Each TV's
// capture contains exclusively its own traffic, exactly as Mon(IoT)r
// guarantees per-device isolation.
//
// Naming: core::FleetTestbed is this *two-device* lab deployment;
// tvacr::fleet (src/fleet/) is the *population-scale* simulation layer
// (thousands of sampled households, streamed aggregates). They deliberately
// share the word "fleet" at different granularities — the namespaces keep
// them apart, and neither includes the other.
#pragma once

#include <memory>

#include "core/experiment.hpp"

namespace tvacr::core {

struct FleetSpec {
    tv::Country country = tv::Country::kUk;
    tv::Scenario scenario = tv::Scenario::kLinear;
    tv::Phase phase = tv::Phase::kLInOIn;
    SimTime duration = SimTime::hours(1);
    std::uint64_t seed = 42;
};

class FleetTestbed {
  public:
    explicit FleetTestbed(const FleetSpec& spec);

    FleetTestbed(const FleetTestbed&) = delete;
    FleetTestbed& operator=(const FleetTestbed&) = delete;

    /// Runs both TVs' capture workflows concurrently on the shared clock.
    struct Result {
        ExperimentResult lg;
        ExperimentResult samsung;
    };
    [[nodiscard]] Result run();

    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] sim::Cloud& cloud() noexcept { return *cloud_; }

  private:
    struct Unit {
        std::unique_ptr<sim::AccessPoint> access_point;
        std::unique_ptr<tv::AcrBackend> backend;
        std::unique_ptr<tv::SmartTv> tv;
        std::unique_ptr<sim::SmartPlug> plug;
        std::vector<net::Packet> capture;
    };

    void build_unit(Unit& unit, tv::Brand brand, int index);
    void register_server(const std::string& domain, const geo::City& city);

    FleetSpec spec_;
    sim::Simulator simulator_;
    std::unique_ptr<sim::Cloud> cloud_;
    // Shared by both brands.
    fp::ContentLibrary library_;
    geo::GroundTruth truth_;
    const geo::City* vantage_ = nullptr;
    Unit lg_;
    Unit samsung_;
    std::uint32_t next_server_block_ = 0;
};

}  // namespace tvacr::core
