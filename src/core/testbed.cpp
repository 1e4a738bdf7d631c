#include "core/testbed.hpp"

#include "tv/background.hpp"
#include "tv/platform.hpp"

namespace tvacr::core {

namespace {

constexpr int kRotationSpan = 10;  // eu-acr0..eu-acr9 all exist server-side

}  // namespace

Testbed::Testbed(const TestbedConfig& config)
    : config_(config) {
    simulator_.obs().trace.set_enabled(config.trace);
    vantage_ = geo::find_city(config.country == tv::Country::kUk ? "London" : "San Jose");

    cloud_ = std::make_unique<sim::Cloud>(simulator_, derive_seed(config.seed, 0xC10D));
    cloud_->enable_dns(net::Ipv4Address(9, 9, 9, 9));
    cloud_->add_route(cloud_->dns_ip(), sim::LatencyModel{SimTime::millis(8), SimTime::millis(2)});

    access_point_ = std::make_unique<sim::AccessPoint>(
        simulator_, net::MacAddress::local(0xA900 + static_cast<int>(config.brand)),
        net::Ipv4Address(192, 168, 4, 1),
        sim::LatencyModel{SimTime::millis(2), SimTime::micros(400)},
        derive_seed(config.seed, 0xA9));
    access_point_->set_cloud(*cloud_);
    if (config.faults.enabled()) {
        // One Wi-Fi link per testbed; the link id mirrors the AP MAC suffix
        // so fleets sharing one seed still get independent RNG substreams.
        impairment_ = std::make_unique<fault::ImpairmentModel>(
            config.faults, config.seed, 0xA900ULL + static_cast<std::uint64_t>(config.brand));
        impairment_->bind(simulator_.obs().metrics);
        access_point_->set_impairment(impairment_.get());
        cloud_->set_impairment(impairment_.get());
        if (!config.faults.dns_outages.empty()) {
            // A DNS failure window only bites the primary resolver; give the
            // TV a live secondary so its failover path decides the outcome.
            const net::Ipv4Address secondary(149, 112, 112, 112);
            cloud_->add_dns_server(secondary);
            cloud_->add_route(secondary,
                              sim::LatencyModel{SimTime::millis(9), SimTime::millis(2)});
        }
    }
    access_point_->set_capturing(config.capture);
    access_point_->set_tap([this](const net::Packet& packet) { capture_.push_back(packet); });
    if (config.mitm) {
        access_point_->set_mitm_tap([this](const sim::AccessPoint::MitmRecord& record) {
            mitm_records_.push_back(record);
        });
    }

    // Shared content world: the ACR operator indexed this catalog; the TV's
    // channels play from it.
    for (const auto& info : fp::builtin_catalog(derive_seed(config.seed, 0x11B))) {
        library_.add(info);
    }
    backend_ = std::make_unique<tv::AcrBackend>(config.brand, config.country, library_);

    populate_internet();

    tv::SmartTv::Config tv_config;
    tv_config.brand = config.brand;
    tv_config.country = config.country;
    tv_config.seed = derive_seed(config.seed, 0x7F);
    tv_config.mac = net::MacAddress::local(0x7100 + static_cast<int>(config.brand));
    tv_config.ip = net::Ipv4Address(192, 168, 4, 23);
    tv_config.logged_in = config.logged_in;
    tv_config.domain_rotation = config.domain_rotation;
    if (config.faults.enabled() && !config.faults.dns_outages.empty()) {
        tv_config.dns.fallback_resolvers.push_back(net::Ipv4Address(149, 112, 112, 112));
    }
    tv_ = std::make_unique<tv::SmartTv>(simulator_, *access_point_, *cloud_, *backend_, library_,
                                        tv_config);
    plug_ = std::make_unique<sim::SmartPlug>(simulator_, *tv_);
}

void Testbed::register_server(const std::string& domain, const geo::City& city,
                              const std::string& ptr_host) {
    // Each server gets its own /24 so the derived GeoIP databases publish
    // one row per server (as commercial databases do for CDN allocations).
    const std::uint32_t block = next_server_block_++;
    const net::Ipv4Address address((23U << 24) | ((block / 200) << 16) | ((block % 200 + 1) << 8) |
                                   10U);
    cloud_->zone().add_a(domain, address);
    cloud_->zone().add_ptr(address, ptr_host);
    truth_.place(address, city, ptr_host);
    // One-way path latency from the AP to this server scales with the real
    // fibre distance from the vantage city.
    const double rtt_ms = geo::min_rtt_ms(*vantage_, city);
    cloud_->add_route(address,
                      sim::LatencyModel{SimTime::micros(static_cast<std::int64_t>(
                                            rtt_ms * 500.0) + 3000),
                                        SimTime::millis(2)});
}

void Testbed::populate_internet() {
    const auto profile = tv::platform_profile(config_.brand, config_.country);
    const bool uk = config_.country == tv::Country::kUk;

    const geo::City& london = *geo::find_city("London");
    const geo::City& amsterdam = *geo::find_city("Amsterdam");
    const geo::City& new_york = *geo::find_city("New York");
    const geo::City& ashburn = *geo::find_city("Ashburn");
    const geo::City& san_jose = *geo::find_city("San Jose");
    const geo::City& frankfurt = *geo::find_city("Frankfurt");
    const geo::City& dublin = *geo::find_city("Dublin");
    const geo::City& seattle = *geo::find_city("Seattle");

    // ACR endpoints, placed per the paper's §4.1/§4.3 geolocation findings.
    for (const auto& domain : profile.acr_domains) {
        const auto place = [&](const std::string& name, const geo::City& city) {
            register_server(name, city, city.iata + "-edge-1." +
                                            name.substr(name.find('.') + 1));
        };
        if (domain.rotates) {
            // All rotations of the numbered domain exist server-side.
            const geo::City& city = uk ? amsterdam : san_jose;
            for (int rotation = 0; rotation < kRotationSpan; ++rotation) {
                place(tv::rotated_name(domain.name, rotation), city);
            }
            continue;
        }
        if (domain.name == "acr-eu-prd.samsungcloud.tv") {
            place(domain.name, london);
        } else if (domain.name == "log-ingestion-eu.samsungacr.com") {
            place(domain.name, london);
        } else if (domain.name == "acr0.samsungcloudsolution.com") {
            place(domain.name, amsterdam);
        } else if (domain.name == "log-config.samsungacr.com") {
            // The one UK endpoint that physically sits in the US (the
            // paper's cross-jurisdiction concern).
            place(domain.name, new_york);
        } else if (domain.name == "acr-us-prd.samsungcloud.tv" ||
                   domain.name == "log-ingestion.samsungacr.com") {
            place(domain.name, ashburn);
        } else {
            place(domain.name, uk ? london : ashburn);
        }
    }

    // Non-ACR platform services spread across ordinary cloud regions.
    std::size_t index = 0;
    for (const auto& domain : profile.other_domains) {
        static const geo::City* const kSpread[4] = {&frankfurt, &dublin, &seattle, &new_york};
        const geo::City& city = *kSpread[index++ % 4];
        register_server(domain, city, city.iata + "-pop." + domain);
    }
    if (!profile.voice_domain.empty()) {
        register_server(profile.voice_domain, uk ? dublin : seattle,
                        (uk ? dublin : seattle).iata + "-voice." + profile.voice_domain);
    }
    register_server(tv::kOttCdnDomain, uk ? london : san_jose, "cache-edge.ottvideo.net");
    register_server(tv::kCastHelperDomain, uk ? dublin : seattle, "cast.ottvideo.net");
}

std::optional<net::Ipv4Address> Testbed::address_of(const std::string& domain) const {
    auto name = dns::DomainName::parse(domain);
    if (!name) return std::nullopt;
    return cloud_->zone().resolve_a(name.value());
}

}  // namespace tvacr::core
