#include "tv/calibration.hpp"

namespace tvacr::tv {

std::string to_string(AcrMode mode) {
    switch (mode) {
        case AcrMode::kOff: return "off";
        case AcrMode::kSuppressed: return "suppressed";
        case AcrMode::kProbe: return "probe";
        case AcrMode::kActive: return "active";
    }
    return "?";
}

AcrMode acr_mode_for(Brand brand, Country country, Scenario scenario) {
    // Linear and HDMI fingerprint everywhere (paper §4.1: "the scenarios
    // with the highest ACR traffic are Linear and HDMI").
    if (scenario == Scenario::kLinear || scenario == Scenario::kHdmi) return AcrMode::kActive;

    if (brand == Brand::kLg) {
        // LG's FAST platform allows ACR in the US but not the UK (§4.3).
        if (scenario == Scenario::kFast && country == Country::kUs) return AcrMode::kActive;
        return AcrMode::kSuppressed;
    }

    // Samsung.
    if (country == Country::kUk) {
        if (scenario == Scenario::kScreenCast) return AcrMode::kProbe;
        return AcrMode::kSuppressed;  // Idle, FAST, OTT
    }
    // US: FAST fingerprints; the channel stays closed otherwise (Tables 4-5
    // show '-' for acr-us-prd in Idle/OTT/Screen Cast).
    if (scenario == Scenario::kFast) return AcrMode::kActive;
    return AcrMode::kOff;
}

AcrSchedule acr_schedule(Brand brand) {
    if (brand == Brand::kLg) {
        // LG: 10 ms captures (LG documentation via paper §4.1), batched and
        // shipped every 15 s; larger peaks each minute. Video-only compact
        // records.
        return AcrSchedule{SimTime::millis(10), SimTime::seconds(15), 4, false,
                           fp::BatchEncoding::kCompactRle};
    }
    // Samsung: 500 ms captures (Samsung Ads guide via paper §4.1), uploads
    // every minute, peaks roughly every five minutes. Audio+video, RLE.
    return AcrSchedule{SimTime::millis(500), SimTime::seconds(60), 5, true,
                       fp::BatchEncoding::kDeltaRle};
}

AcrCalibration acr_calibration(Brand brand, Country country) {
    AcrCalibration c;
    if (brand == Brand::kLg) {
        // Anchors: Table 2 row eu-acrX.alphonso.tv (UK) and Table 4 row
        // tkacrX.alphonso.tv (US).
        c.envelope_recognized = 64;
        c.envelope_unrecognized = 64;
        c.response_recognized = 420;
        c.response_unrecognized = 130;
        c.peak_report_base = 500;
        c.peak_report_per_match = 500;  // viewership events, recognized only

        c.heartbeat_period = SimTime::seconds(15);
        c.heartbeat_size = 430;
        c.heartbeat_response = 140;
        c.heartbeats_per_peak = 4;  // the paper's "peaks every minute"
        c.suppressed_peak_size = 1250;

        // LG has no probe mode or auxiliary domains.
        c.probe_period = SimTime::minutes(2);
        return c;
    }

    // Samsung. Anchors: Tables 2/3 (UK) and 4/5 (US) Samsung rows.
    c.envelope_recognized = country == Country::kUk ? 2450 : 550;
    c.envelope_unrecognized = country == Country::kUk ? 1250 : 900;
    c.response_recognized = country == Country::kUk ? 1300 : 260;
    c.response_unrecognized = 260;
    c.peak_report_base = country == Country::kUk ? 600 : 0;
    c.peak_report_per_match = country == Country::kUk ? 900 : 0;

    c.heartbeat_period = SimTime::minutes(25);
    c.heartbeat_size = 130;
    c.heartbeat_response = 90;
    c.heartbeats_per_peak = 0;
    c.suppressed_peak_size = 0;

    c.probe_period = SimTime::minutes(2);
    c.probe_size = 400;
    c.probe_response = 180;

    // acr0.samsungcloudsolution.com exists only in the UK profile.
    c.keepalive_period = SimTime::minutes(4);
    c.keepalive_size = 350;
    c.keepalive_response = 280;

    c.config_request = 350;
    c.config_response = 1800;

    c.ingestion_period = SimTime::seconds(30);
    c.ingestion_base = country == Country::kUk ? 650 : 600;
    c.ingestion_active_extra = country == Country::kUk ? 1300 : 900;
    return c;
}

std::size_t tls_server_flight(Brand brand) {
    // Samsung's certificate chain is longer than Alphonso's.
    return brand == Brand::kSamsung ? 4600 : 3900;
}

}  // namespace tvacr::tv
