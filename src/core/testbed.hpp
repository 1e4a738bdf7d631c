// Testbed assembly (paper Figure 2): one access-point server per TV with a
// capture tap, the smart TV associated to it, a smart plug, and the
// simulated internet behind the AP's wired interface — DNS, the ACR
// operator's backend, platform services, and ground-truth server placement
// for the geolocation workflow.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stream.hpp"
#include "fault/impairment.hpp"
#include "fp/library.hpp"
#include "geo/ground_truth.hpp"
#include "sim/access_point.hpp"
#include "sim/cloud.hpp"
#include "sim/simulator.hpp"
#include "sim/smart_plug.hpp"
#include "tv/acr_backend.hpp"
#include "tv/smart_tv.hpp"

namespace tvacr::core {

struct TestbedConfig {
    tv::Brand brand = tv::Brand::kSamsung;
    tv::Country country = tv::Country::kUk;
    std::uint64_t seed = 42;
    bool logged_in = true;
    /// Rotation number in effect for eu-acrX/tkacrX domains this boot.
    int domain_rotation = 7;
    /// Record sim-time trace spans in the simulator's obs scope.
    bool trace = false;
    /// Enables the lab TLS-interception proxy (paper §6 future work): the
    /// AP records application plaintext alongside the black-box capture.
    bool mitm = false;
    /// Network impairment scenario. Default (disabled) leaves every code
    /// path byte-identical to an unimpaired testbed.
    fault::FaultSpec faults;
};

class Testbed {
  public:
    explicit Testbed(const TestbedConfig& config);

    Testbed(const Testbed&) = delete;
    Testbed& operator=(const Testbed&) = delete;

    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] sim::AccessPoint& access_point() noexcept { return *access_point_; }
    [[nodiscard]] sim::Cloud& cloud() noexcept { return *cloud_; }
    [[nodiscard]] tv::SmartTv& tv() noexcept { return *tv_; }
    [[nodiscard]] sim::SmartPlug& plug() noexcept { return *plug_; }
    [[nodiscard]] tv::AcrBackend& backend() noexcept { return *backend_; }
    [[nodiscard]] const fp::ContentLibrary& library() const noexcept { return library_; }
    [[nodiscard]] const geo::GroundTruth& ground_truth() const noexcept { return truth_; }
    [[nodiscard]] const TestbedConfig& config() const noexcept { return config_; }

    /// The measurement vantage city (London for UK runs, San Jose for US).
    [[nodiscard]] const geo::City& vantage() const noexcept { return *vantage_; }

    /// Captured frames so far (tap order). Move out with take_capture().
    [[nodiscard]] const std::vector<net::Packet>& capture() const noexcept { return capture_; }
    [[nodiscard]] std::vector<net::Packet> take_capture() { return std::move(capture_); }

    /// Points the tap at a streaming analyzer for the TV's address instead
    /// of the frame store, for callers that only analyze the cell: each
    /// frame is attributed as it is tapped and none is kept, so capture()
    /// stays empty. Tap order is capture order, so finish_analysis() equals
    /// analyze_packets() over the frames the store would have held. Call it
    /// before the run.
    void analyze_at_tap();
    /// The analysis of every frame tapped since analyze_at_tap(); leaves the
    /// analyzer empty.
    [[nodiscard]] analysis::CaptureAnalyzer finish_analysis() {
        return tap_analyzer_.value().finish();
    }

    /// Intercepted plaintext records (only populated when config.mitm).
    [[nodiscard]] const std::vector<sim::AccessPoint::MitmRecord>& mitm_records() const noexcept {
        return mitm_records_;
    }

    /// Registered server address for a domain name, if any.
    [[nodiscard]] std::optional<net::Ipv4Address> address_of(const std::string& domain) const;

    /// The impairment model in effect, or nullptr on a clean testbed.
    [[nodiscard]] fault::ImpairmentModel* impairment() noexcept { return impairment_.get(); }

  private:
    void populate_internet();
    void register_server(const std::string& domain, const geo::City& city,
                         const std::string& ptr_host);

    // First, so it is destroyed last: the TV's ACR client cancels its
    // capture timer in the simulator when it is destroyed.
    sim::Simulator simulator_;
    TestbedConfig config_;
    std::unique_ptr<fault::ImpairmentModel> impairment_;
    std::unique_ptr<sim::Cloud> cloud_;
    std::unique_ptr<sim::AccessPoint> access_point_;
    fp::ContentLibrary library_;
    geo::GroundTruth truth_;
    std::unique_ptr<tv::AcrBackend> backend_;
    std::unique_ptr<tv::SmartTv> tv_;
    std::unique_ptr<sim::SmartPlug> plug_;
    const geo::City* vantage_ = nullptr;
    std::vector<net::Packet> capture_;
    std::optional<analysis::StreamingCaptureAnalyzer> tap_analyzer_;
    std::vector<sim::AccessPoint::MitmRecord> mitm_records_;
    std::uint32_t next_server_block_ = 0;
};

}  // namespace tvacr::core
