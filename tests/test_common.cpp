// Unit and property tests for the common substrate: byte codecs, RNG
// determinism, statistics, strings, and simulated time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"

namespace tvacr {
namespace {

// ---------------------------------------------------------------- ByteWriter

TEST(ByteWriter, WritesBigEndianIntegers) {
    ByteWriter w;
    w.u8(0xAB);
    w.u16(0x1234);
    w.u32(0xDEADBEEF);
    w.u64(0x0102030405060708ULL);
    const Bytes expected = {0xAB, 0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF,
                            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
    EXPECT_EQ(w.bytes(), expected);
}

TEST(ByteWriter, WritesLittleEndianIntegers) {
    ByteWriter w;
    w.u16le(0x1234);
    w.u32le(0xDEADBEEF);
    const Bytes expected = {0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE};
    EXPECT_EQ(w.bytes(), expected);
}

TEST(ByteWriter, PatchOverwritesInPlace) {
    ByteWriter w;
    w.u16(0);
    w.u16(0xBEEF);
    w.patch_u16(0, 0xCAFE);
    const Bytes expected = {0xCA, 0xFE, 0xBE, 0xEF};
    EXPECT_EQ(w.bytes(), expected);
}

TEST(ByteWriter, FillAppendsRepeatedByte) {
    ByteWriter w;
    w.fill(3, 0x7F);
    EXPECT_EQ(w.size(), 3U);
    EXPECT_EQ(w.bytes()[2], 0x7F);
}

// ---------------------------------------------------------------- ByteReader

TEST(ByteReader, RoundTripsAllWidths) {
    ByteWriter w;
    w.u8(7);
    w.u16(300);
    w.u32(70000);
    w.u64(1ULL << 40);
    w.u16le(300);
    w.u32le(70000);
    ByteReader r(w.view());
    EXPECT_EQ(r.u8().value(), 7);
    EXPECT_EQ(r.u16().value(), 300);
    EXPECT_EQ(r.u32().value(), 70000U);
    EXPECT_EQ(r.u64().value(), 1ULL << 40);
    EXPECT_EQ(r.u16le().value(), 300);
    EXPECT_EQ(r.u32le().value(), 70000U);
    EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, ReadPastEndFails) {
    const Bytes data = {1, 2};
    ByteReader r(data);
    EXPECT_TRUE(r.u16().ok());
    EXPECT_FALSE(r.u8().ok());
    EXPECT_FALSE(r.u16().ok());
    EXPECT_FALSE(r.raw(1).ok());
}

TEST(ByteReader, SkipAndSeek) {
    const Bytes data = {1, 2, 3, 4, 5};
    ByteReader r(data);
    EXPECT_TRUE(r.skip(2).ok());
    EXPECT_EQ(r.u8().value(), 3);
    EXPECT_TRUE(r.seek(0).ok());
    EXPECT_EQ(r.u8().value(), 1);
    EXPECT_FALSE(r.seek(6).ok());
    EXPECT_FALSE(r.skip(10).ok());
}

// --------------------------------------------------------------------- hex

TEST(Hex, RoundTrip) {
    const Bytes data = {0x00, 0x9F, 0xFF, 0x10};
    EXPECT_EQ(to_hex(data), "009fff10");
    EXPECT_EQ(from_hex("009fff10").value(), data);
    EXPECT_EQ(from_hex("009FFF10").value(), data);
}

TEST(Hex, RejectsBadInput) {
    EXPECT_FALSE(from_hex("abc").ok());   // odd length
    EXPECT_FALSE(from_hex("zz").ok());    // non-hex
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniform(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform01();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
    Rng rng(11);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(10.0, 2.0));
    EXPECT_NEAR(mean(samples), 10.0, 0.1);
    EXPECT_NEAR(stddev(samples), 2.0, 0.1);
}

TEST(Rng, ChanceRespectsProbability) {
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, UniformCoversSpansBeyond32Bits) {
    // Regression: the multiply-shift mapping used to overflow for spans over
    // 2^32 (a simulated day in microseconds), capping every draw below ~71
    // minutes. The split multiply must reach the whole range.
    Rng rng(3);
    const std::int64_t day_us = 86'400'000'000LL;
    std::int64_t max_seen = 0;
    for (int i = 0; i < 10000; ++i) {
        const std::int64_t draw = rng.uniform(0, day_us);
        ASSERT_GE(draw, 0);
        ASSERT_LE(draw, day_us);
        max_seen = std::max(max_seen, draw);
    }
    EXPECT_GT(max_seen, day_us / 2);
}

TEST(Rng, PoissonMatchesMeanAndEdgeCases) {
    Rng rng(21);
    double total = 0.0;
    std::uint64_t peak = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t draw = rng.poisson(2.0);
        total += static_cast<double>(draw);
        peak = std::max(peak, draw);
    }
    EXPECT_NEAR(total / 20000.0, 2.0, 0.05);
    EXPECT_GE(peak, 5U);  // the tail exists
    EXPECT_EQ(rng.poisson(0.0), 0U);
    EXPECT_EQ(rng.poisson(-3.0), 0U);
}

TEST(Rng, PoissonIsDeterministicPerSeed) {
    Rng a(77);
    Rng b(77);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.poisson(1.5), b.poisson(1.5));
}

TEST(Rng, DeriveSeedIsStableAndLabelSensitive) {
    EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
    EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
    EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
}

// ----------------------------------------------------------------- loads

TEST(ByteLoads, BigEndianHelpersMatchWireOrder) {
    const std::uint8_t buf[] = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x11};
    EXPECT_EQ(bytes::load_u16be(buf), 0x0123U);
    EXPECT_EQ(bytes::load_u32be(buf), 0x01234567U);
    EXPECT_EQ(bytes::load_u64be(buf), 0x0123456789ABCDEFULL);
    // Odd offset: the helpers must be alignment-agnostic.
    EXPECT_EQ(bytes::load_u16be(buf + 1), 0x2345U);
    EXPECT_EQ(bytes::load_u32be(buf + 1), 0x23456789U);
    EXPECT_EQ(bytes::load_u64be(buf + 1), 0x23456789ABCDEF11ULL);
}

TEST(ByteLoads, LittleEndianHelpersMatchPcapOrder) {
    const std::uint8_t buf[] = {0xD4, 0xC3, 0xB2, 0xA1, 0x5A};
    EXPECT_EQ(bytes::load_u16le(buf), 0xC3D4U);
    EXPECT_EQ(bytes::load_u32le(buf), 0xA1B2C3D4U);
    EXPECT_EQ(bytes::load_u16le(buf + 1), 0xB2C3U);
    EXPECT_EQ(bytes::load_u32le(buf + 1), 0x5AA1B2C3U);
}

// ------------------------------------------------------------------- stats

TEST(Stats, MeanVarianceStddev) {
    const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(variance(xs), 4.0);
    EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, EmptyInputsAreZero) {
    const std::vector<double> none;
    EXPECT_EQ(mean(none), 0.0);
    EXPECT_EQ(variance(none), 0.0);
    EXPECT_EQ(percentile(std::vector<double>{}, 0.5), 0.0);
    EXPECT_EQ(percentile(std::span<double>{}, 0.5), 0.0);
    EXPECT_EQ(coefficient_of_variation(none), 0.0);
}

TEST(Stats, PercentileInterpolates) {
    const std::vector<double> xs = {1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Stats, PercentileSpanOverloadMatchesVectorOverload) {
    // The nth_element-based span overload must agree with the sorting
    // overload at every rank, including duplicates and unsorted input.
    const std::vector<double> xs = {9, 1, 4, 4, 7, 2, 8, 3, 4, 6, 5, 0};
    for (int i = 0; i <= 20; ++i) {
        const double q = static_cast<double>(i) / 20.0;
        std::vector<double> scratch = xs;
        EXPECT_DOUBLE_EQ(percentile(std::span<double>(scratch), q), percentile(xs, q))
            << "q=" << q;
    }
}

TEST(Stats, PercentileLeavesCallerBufferIntact) {
    // Regression: the span overload used to run nth_element directly on the
    // caller's storage, so a p50 query reordered the samples and skewed any
    // p95 taken from the same buffer afterwards (bench_analyze does exactly
    // that). Both quantiles must come out right from one untouched buffer.
    const std::vector<double> expected_order = {40, 10, 90, 20, 80, 30, 70, 50, 60, 100};
    std::vector<double> samples = expected_order;
    const std::span<const double> span(samples);
    EXPECT_DOUBLE_EQ(percentile(span, 0.5), 55.0);
    EXPECT_DOUBLE_EQ(percentile(span, 0.95), 95.5);
    EXPECT_EQ(samples, expected_order);
    // Same answers as sorting the whole thing (vector overload).
    EXPECT_DOUBLE_EQ(percentile(expected_order, 0.5), 55.0);
    EXPECT_DOUBLE_EQ(percentile(expected_order, 0.95), 95.5);
}

TEST(Stats, PercentileSpanSingleElementAndClamping) {
    std::vector<double> one = {42.0};
    EXPECT_DOUBLE_EQ(percentile(std::span<double>(one), 0.5), 42.0);
    std::vector<double> xs = {3, 1, 2};
    EXPECT_DOUBLE_EQ(percentile(std::span<double>(xs), -0.5), 1.0);  // clamps to q=0
    EXPECT_DOUBLE_EQ(percentile(std::span<double>(xs), 1.5), 3.0);   // clamps to q=1
}

// Reference oracle for dominant_period: the normalized autocorrelation at
// one lag, recomputing the mean and the denominator on every call.
double autocorrelation(std::span<const double> xs, std::size_t lag) {
    if (xs.size() <= lag || lag == 0) return 0.0;
    const double m = mean(xs);
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double d = xs[i] - m;
        den += d * d;
        if (i + lag < xs.size()) num += d * (xs[i + lag] - m);
    }
    // tvacr-lint: allow(no-float-equality) den is a sum of squares; exactly 0 iff all terms are 0
    if (den == 0.0) return 0.0;
    return num / den;
}

// The lag-at-a-time period search dominant_period must reproduce.
std::optional<PeriodEstimate> reference_dominant_period(std::span<const double> xs,
                                                        std::size_t min_lag,
                                                        std::size_t max_lag, double threshold) {
    std::optional<PeriodEstimate> best;
    for (std::size_t lag = min_lag; lag <= max_lag && lag < xs.size(); ++lag) {
        const double score = autocorrelation(xs, lag);
        if (score >= threshold && (!best || score > best->score)) {
            best = PeriodEstimate{lag, score};
        }
    }
    return best;
}

void expect_same_period(std::span<const double> xs, std::size_t min_lag, std::size_t max_lag,
                        double threshold) {
    SCOPED_TRACE("n=" + std::to_string(xs.size()) + " lags=[" + std::to_string(min_lag) + ", " +
                 std::to_string(max_lag) + "] threshold=" + std::to_string(threshold));
    const auto want = reference_dominant_period(xs, min_lag, max_lag, threshold);
    const auto got = dominant_period(xs, min_lag, max_lag, threshold);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want) return;
    EXPECT_EQ(got->lag_samples, want->lag_samples);
    EXPECT_EQ(std::memcmp(&got->score, &want->score, sizeof(double)), 0)
        << got->score << " vs " << want->score;
}

TEST(Stats, DominantPeriodMatchesPerLagOracle) {
    Rng rng(2024);
    const double thresholds[] = {-1.5, -0.2, 0.0, 0.25, 0.9};
    // Short series, including n < 4, against every small lag window.
    for (std::size_t n = 0; n <= 40; ++n) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i) xs.push_back(static_cast<double>(rng.uniform(0, 5)));
        for (std::size_t min_lag = 0; min_lag <= n + 1; min_lag += 3) {
            for (std::size_t max_lag = min_lag; max_lag <= min_lag + 19; ++max_lag) {
                for (const double threshold : thresholds) {
                    expect_same_period(xs, min_lag, max_lag, threshold);
                }
            }
        }
    }
    // Lag ranges of every width from 1 to two 32-lag blocks plus one, on a
    // longer real-valued series with bursts: no block, one block plus a
    // remainder, and two blocks plus one lag.
    std::vector<double> bursty;
    for (int i = 0; i < 500; ++i) {
        bursty.push_back((i % 30 < 2 ? 40.0 : 0.0) + rng.uniform01() * 3.0);
    }
    for (std::size_t width = 1; width <= 65; ++width) {
        for (const double threshold : thresholds) {
            expect_same_period(bursty, 10, 10 + width - 1, threshold);
            expect_same_period(bursty, 0, width - 1, threshold);
        }
    }
    expect_same_period(bursty, 5, 499, 0.0);
    expect_same_period(bursty, 5, 500, 0.0);
    expect_same_period(bursty, 480, 10'000, -1.5);
    expect_same_period(bursty, 499, SIZE_MAX, -1.5);
    expect_same_period(bursty, 500, SIZE_MAX, -1.5);
    expect_same_period(bursty, 7, 3, -1.5);
}

TEST(Stats, DominantPeriodMatchesOracleOnDegenerateSeries) {
    const std::vector<double> empty;
    const std::vector<double> constant(64, 3.0);
    for (const double threshold : {-1.0, 0.0, 0.25}) {
        for (const std::size_t min_lag : {0U, 1U, 5U}) {
            expect_same_period(empty, min_lag, 20, threshold);
            expect_same_period(constant, min_lag, 20, threshold);
            expect_same_period(constant, min_lag, 100, threshold);
        }
    }
    // Lag 0 scores 0, so a non-positive threshold can pick it.
    const auto zero = dominant_period(constant, 0, 20, -1.0);
    ASSERT_TRUE(zero.has_value());
    EXPECT_EQ(zero->lag_samples, 0U);
}

/// Compares the whole identify() window (lags 10 to 1200) and every window
/// of one 32-lag block's width, so each lane of a block, tail included, is
/// the winner somewhere and its score bits are compared.
void expect_same_period_in_every_block(std::span<const double> hour) {
    for (const double threshold : {-1.0, 0.25}) expect_same_period(hour, 10, 1200, threshold);
    for (std::size_t lag = 10; lag + 31 <= 1200; ++lag) {
        expect_same_period(hour, lag, lag + 31, -1.0);
    }
}

TEST(Stats, DominantPeriodMatchesOracleOnAnHourSeries) {
    // An LG-like hour in 500 ms buckets, shaped as identify() builds it:
    // integer packet counts, a burst every 15 s plus stray packets.
    Rng rng(15);
    std::vector<double> hour(7200, 0.0);
    for (std::size_t i = 0; i < hour.size(); ++i) {
        if (i % 30 == 0) hour[i] += 20.0 + static_cast<double>(rng.uniform(0, 6));
        if (rng.uniform01() < 0.05) hour[i] += 1.0;
    }
    expect_same_period_in_every_block(hour);
}

TEST(Stats, DominantPeriodMatchesOracleOnARealValuedHour) {
    // Real values whose products and partial sums round in nearly every
    // term, so a reordered or fused sum would show in the score bits.
    Rng rng(7);
    std::vector<double> hour(7200);
    for (std::size_t i = 0; i < hour.size(); ++i) {
        hour[i] = (i % 120 < 3 ? 9.75 : 0.0) + rng.normal(1.0, 0.4) + rng.uniform01() * 1e-3;
    }
    expect_same_period_in_every_block(hour);
}

TEST(Stats, AutocorrelationDetectsPeriodicSignal) {
    // Period-10 impulse train: lag 10 correlates strongly, lag 7 does not.
    std::vector<double> xs(200, 0.0);
    for (std::size_t i = 0; i < xs.size(); i += 10) xs[i] = 1.0;
    EXPECT_GT(autocorrelation(xs, 10), 0.8);
    EXPECT_LT(autocorrelation(xs, 7), 0.2);
}

TEST(Stats, DominantPeriodFindsImpulseTrain) {
    std::vector<double> xs(300, 0.0);
    for (std::size_t i = 0; i < xs.size(); i += 15) xs[i] = 1.0;
    const auto period = dominant_period(xs, 2, 50, 0.5);
    ASSERT_TRUE(period.has_value());
    EXPECT_EQ(period->lag_samples, 15U);
}

TEST(Stats, DominantPeriodRejectsNoise) {
    Rng rng(3);
    std::vector<double> xs;
    for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform01());
    EXPECT_FALSE(dominant_period(xs, 2, 50, 0.6).has_value());
}

TEST(Stats, EmpiricalCdfIsMonotonic) {
    const auto cdf = empirical_cdf({3, 1, 2});
    ASSERT_EQ(cdf.size(), 3U);
    EXPECT_DOUBLE_EQ(cdf[0].x, 1.0);
    EXPECT_DOUBLE_EQ(cdf[2].x, 3.0);
    EXPECT_DOUBLE_EQ(cdf[2].p, 1.0);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_LE(cdf[i - 1].x, cdf[i].x);
        EXPECT_LT(cdf[i - 1].p, cdf[i].p);
    }
}

// ------------------------------------------------------------------ strings

TEST(Strings, SplitAndJoin) {
    const auto parts = split("a.b..c", '.');
    ASSERT_EQ(parts.size(), 4U);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, "."), "a.b..c");
}

TEST(Strings, CaseHelpers) {
    EXPECT_EQ(to_lower("AcR-EU"), "acr-eu");
    EXPECT_TRUE(contains_ci("eu-ACR7.alphonso.tv", "acr"));
    EXPECT_FALSE(contains_ci("samsungads.com", "acr"));
    EXPECT_TRUE(starts_with("acr0.samsung", "acr"));
    EXPECT_TRUE(ends_with("log-config.samsungacr.com", ".com"));
}

TEST(Strings, TrimStripsWhitespace) {
    EXPECT_EQ(trim("  x y \n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, FormatKbMatchesPaperStyle) {
    EXPECT_EQ(format_kb(4759.71), "4759.7");
    EXPECT_EQ(format_kb(0.0), "-");  // paper renders zero traffic as '-'
    EXPECT_EQ(format_kb(9.54), "9.5");
}

TEST(Strings, Padding) {
    EXPECT_EQ(pad_right("ab", 4), "ab  ");
    EXPECT_EQ(pad_left("ab", 4), "  ab");
    EXPECT_EQ(pad_left("abcdef", 4), "abcdef");  // never truncates
}

// -------------------------------------------------------------------- time

TEST(SimTimeTest, ConversionsAreExact) {
    EXPECT_EQ(SimTime::seconds(2).as_micros(), 2'000'000);
    EXPECT_EQ(SimTime::millis(1500).as_millis(), 1500);
    EXPECT_EQ(SimTime::minutes(2).as_micros(), 120'000'000);
    EXPECT_EQ(SimTime::hours(1).as_micros(), 3'600'000'000LL);
    EXPECT_DOUBLE_EQ(SimTime::millis(2500).as_seconds(), 2.5);
}

TEST(SimTimeTest, Arithmetic) {
    const auto t = SimTime::seconds(10) + SimTime::millis(500) - SimTime::millis(1500);
    EXPECT_EQ(t.as_millis(), 9000);
    EXPECT_EQ((SimTime::seconds(1) * 15).as_micros(), 15'000'000);
    EXPECT_EQ(SimTime::minutes(1) / SimTime::seconds(15), 4);
}

TEST(SimTimeTest, Ordering) {
    EXPECT_LT(SimTime::millis(999), SimTime::seconds(1));
    EXPECT_EQ(SimTime::seconds(60), SimTime::minutes(1));
}

TEST(SimTimeTest, FormatMmSs) {
    EXPECT_EQ(format_mmss(SimTime::millis(0)), "00:00.000");
    EXPECT_EQ(format_mmss(SimTime::seconds(75) + SimTime::millis(42)), "01:15.042");
}

// ----------------------------------------------------------------- parse_int

TEST(ParseInt, AcceptsFullStringDecimals) {
    EXPECT_EQ(common::parse_int("0", -100, 100).value(), 0);
    EXPECT_EQ(common::parse_int("42", 1, 100).value(), 42);
    EXPECT_EQ(common::parse_int("-7", -100, 100).value(), -7);
    EXPECT_EQ(common::parse_int("+8", 1, 100).value(), 8);
    EXPECT_EQ(common::parse_int("9223372036854775807", INT64_MIN, INT64_MAX).value(), INT64_MAX);
    EXPECT_EQ(common::parse_int("-9223372036854775808", INT64_MIN, INT64_MAX).value(), INT64_MIN);
}

TEST(ParseInt, RejectsEverythingAtoiWouldAccept) {
    // The whole point: atoi("8garbage") == 8 and atoi("abc") == 0 — both
    // must be loud errors here.
    EXPECT_FALSE(common::parse_int("8garbage", 1, 100).ok());
    EXPECT_FALSE(common::parse_int("abc", 1, 100).ok());
    EXPECT_FALSE(common::parse_int("", 1, 100).ok());
    EXPECT_FALSE(common::parse_int(" 8", 1, 100).ok());
    EXPECT_FALSE(common::parse_int("8 ", 1, 100).ok());
    EXPECT_FALSE(common::parse_int("0x10", 1, 100).ok());
    EXPECT_FALSE(common::parse_int("1.5", 1, 100).ok());
    EXPECT_FALSE(common::parse_int("-", 1, 100).ok());
    EXPECT_FALSE(common::parse_int("+", 1, 100).ok());
}

TEST(ParseInt, EnforcesRangeAndOverflow) {
    EXPECT_FALSE(common::parse_int("0", 1, 1024).ok());    // below min
    EXPECT_FALSE(common::parse_int("1025", 1, 1024).ok());  // above max
    EXPECT_TRUE(common::parse_int("1024", 1, 1024).ok());
    EXPECT_FALSE(common::parse_int("9223372036854775808", INT64_MIN, INT64_MAX).ok());
    EXPECT_FALSE(common::parse_int("-9223372036854775809", INT64_MIN, INT64_MAX).ok());
    EXPECT_FALSE(common::parse_int("99999999999999999999999", INT64_MIN, INT64_MAX).ok());
}

TEST(ParseU64, CoversTheFullUnsignedRange) {
    EXPECT_EQ(common::parse_u64("0").value(), 0U);
    EXPECT_EQ(common::parse_u64("18446744073709551615").value(), UINT64_MAX);
    EXPECT_FALSE(common::parse_u64("18446744073709551616").ok());
    EXPECT_FALSE(common::parse_u64("-1").ok());
    EXPECT_FALSE(common::parse_u64("seed").ok());
}

TEST(ParseEnvInt, UnsetReturnsFallback) {
    // (Malformed-value exit-2 behavior is pinned by the CLI regression
    // tests in tools/CMakeLists.txt — it exits, so it can't run in-process.)
    EXPECT_EQ(common::parse_env_int("TVACR_TEST_UNSET_VARIABLE", 7, 1, 1024), 7);
}

// ---------------------------------------------------------------- parse_flags

int test_usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s [--jobs N] [--count N] [--out F] [--pick ok] [--seed S]\n",
                 argv0);
    return 2;
}

struct FlagRun {
    long long jobs = 0;
    std::uint64_t count = 0;
    std::string out;
    bool follow = false;
    std::string seed_text;
    std::vector<std::string> positionals;
};

FlagRun run_flags(std::vector<std::string> args) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    FlagRun run;
    run.positionals = common::parse_flags(
        static_cast<int>(argv.size()), argv.data(),
        {
            {"--jobs", run.jobs, 1, 1024},
            {"--count", run.count},
            {"--out", run.out},
            {"--follow", run.follow},
            {"--pick", [](std::string_view v) { return v == "ok"; }},
            {"--seed",
             [&](std::string_view v) {
                 run.seed_text = v;
                 return true;
             }},
        },
        test_usage);
    return run;
}

TEST(FlagsTest, UnknownFlagExitsWithUsage) {
    EXPECT_EXIT(run_flags({"--bogus", "1"}), testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(run_flags({"-x"}), testing::ExitedWithCode(2), "usage");
}

TEST(FlagsTest, HelpIsAnUnknownFlag) {
    EXPECT_EXIT(run_flags({"--help"}), testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(run_flags({"-h"}), testing::ExitedWithCode(2), "usage");
}

TEST(FlagsTest, TrailingValueFlagExitsWithUsage) {
    EXPECT_EXIT(run_flags({"--out", "x", "--jobs"}), testing::ExitedWithCode(2), "usage");
}

TEST(FlagsTest, RejectedValueExitsWithUsage) {
    EXPECT_TRUE(run_flags({"--pick", "ok"}).positionals.empty());
    EXPECT_EXIT(run_flags({"--pick", "nope"}), testing::ExitedWithCode(2), "usage");
}

TEST(FlagsTest, SwitchDoesNotTakeTheNextToken) {
    const FlagRun run = run_flags({"--follow", "--jobs", "3"});
    EXPECT_TRUE(run.follow);
    EXPECT_EQ(run.jobs, 3);
    EXPECT_EXIT(run_flags({"--follow", "--jobs"}), testing::ExitedWithCode(2), "usage");
}

TEST(FlagsTest, PositionalsInterleavedWithFlagsKeepTheirOrder) {
    const FlagRun run = run_flags({"a", "--jobs", "2", "b", "--follow", "", "c", "--out", "o"});
    EXPECT_EQ(run.positionals, (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(run.jobs, 2);
    EXPECT_EQ(run.out, "o");
    EXPECT_TRUE(run.follow);
    EXPECT_EXIT(run_flags({"a", "--bogus", "b"}), testing::ExitedWithCode(2), "usage");
}

TEST(FlagsTest, ValueStartingWithDashReachesItsHandler) {
    EXPECT_EQ(run_flags({"--seed", "-1"}).seed_text, "-1");
    EXPECT_EQ(run_flags({"--out", "--jobs"}).out, "--jobs");
    // Numeric flags keep parse_flag_int/parse_flag_u64's message naming the flag.
    EXPECT_EXIT(run_flags({"--count", "-1"}), testing::ExitedWithCode(2), "--count");
    EXPECT_EXIT(run_flags({"--jobs", "0"}), testing::ExitedWithCode(2), "--jobs");
}

}  // namespace
}  // namespace tvacr
