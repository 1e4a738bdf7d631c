#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace tvacr {

double mean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    const double m = mean(xs);
    double sum = 0.0;
    for (const double x : xs) sum += (x - m) * (x - m);
    return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

namespace {

// Selection on a buffer the caller has already ceded: place element `lo`,
// then the next order statistic (when distinct) is the minimum of the
// upper partition.
double percentile_select(std::span<double> xs, double q) {
    if (xs.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    const auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin(), lo_it, xs.end());
    const double lo_value = *lo_it;
    double hi_value = lo_value;
    if (hi != lo) hi_value = *std::min_element(lo_it + 1, xs.end());
    return lo_value + (hi_value - lo_value) * frac;
}

constexpr std::size_t kLagBlock = 32;

// Sets num[k], for every k < kLagBlock, to the sum of d[i] * partner[i + k]
// over i in [0, shared), from 0.0 in ascending i. Each clone vectorizes
// across k (one lane per lag), so no lane reorders its own sum, and with
// contraction off no clone fuses the multiply into the add: every clone
// gives the bits of the lag-at-a-time loop. Not under TSan, as hash_lanes
// in fp/content.cpp.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("fp-contract=off")))
#endif
void lag_block_sums(const double* d, const double* partner, std::size_t shared, double* num) {
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
    std::array<double, kLagBlock> acc{};
    for (std::size_t i = 0; i < shared; ++i) {
        const double di = d[i];
        for (std::size_t k = 0; k < kLagBlock; ++k) acc[k] += di * partner[i + k];
    }
    std::copy(acc.begin(), acc.end(), num);
}

}  // namespace

double percentile(std::span<const double> xs, double q) {
    // nth_element needs mutable storage; reordering the caller's samples
    // would corrupt any later quantile taken from the same buffer, so the
    // scratch copy lives here.
    std::vector<double> scratch(xs.begin(), xs.end());
    return percentile_select(scratch, q);
}

double percentile(std::vector<double> xs, double q) {
    return percentile_select(std::span<double>(xs), q);
}

double coefficient_of_variation(std::span<const double> xs) {
    const double m = mean(xs);
    // tvacr-lint: allow(no-float-equality) exact-zero mean guards the division, not a tolerance
    if (m == 0.0) return 0.0;
    return stddev(xs) / m;
}

std::optional<PeriodEstimate> dominant_period(std::span<const double> xs, std::size_t min_lag,
                                              std::size_t max_lag, double threshold) {
    const std::size_t n = xs.size();
    if (min_lag > max_lag || min_lag >= n) return std::nullopt;
    const std::size_t last_lag = std::min(max_lag, n - 1);

    const double m = mean(xs);
    std::vector<double> d(n);
    double den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        d[i] = xs[i] - m;
        den += d[i] * d[i];
    }

    std::optional<PeriodEstimate> best;
    const auto consider = [&](std::size_t lag, double num) {
        // tvacr-lint: allow(no-float-equality) den is a sum of squares: 0 iff every term is 0
        const double score = lag == 0 || den == 0.0 ? 0.0 : num / den;
        if (score >= threshold && (!best || score > best->score)) {
            best = PeriodEstimate{lag, score};
        }
    };

    // kLagBlock lags per pass: the kernel sums each over the indices all of
    // them share, then each finishes its own tail, so every sum still runs
    // in ascending i.
    std::size_t lag = min_lag;
    for (; lag <= last_lag && last_lag - lag >= kLagBlock - 1; lag += kLagBlock) {
        std::array<double, kLagBlock> num;
        const std::size_t shared = n - (lag + kLagBlock - 1);
        lag_block_sums(d.data(), d.data() + lag, shared, num.data());
        for (std::size_t k = 0; k < kLagBlock; ++k) {
            for (std::size_t i = shared; i + lag + k < n; ++i) num[k] += d[i] * d[i + lag + k];
            consider(lag + k, num[k]);
        }
    }
    for (; lag <= last_lag; ++lag) {
        double num = 0.0;
        for (std::size_t i = 0; i + lag < n; ++i) num += d[i] * d[i + lag];
        consider(lag, num);
    }
    return best;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    std::vector<CdfPoint> out;
    out.reserve(xs.size());
    const double n = static_cast<double>(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        out.push_back(CdfPoint{xs[i], static_cast<double>(i + 1) / n});
    }
    return out;
}

}  // namespace tvacr
