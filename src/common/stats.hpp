// Descriptive statistics used by the traffic-analysis layer: moments,
// percentiles, empirical CDFs, and autocorrelation-based period detection
// (the paper infers LG's 15 s and Samsung's 60 s ACR burst periods from
// traffic timing alone; we implement that inference).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace tvacr {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  // population variance
[[nodiscard]] double stddev(std::span<const double> xs);

/// Linear-interpolated percentile; q in [0,1]. Returns 0 for empty input.
/// Selection-based (std::nth_element on an internal scratch copy — O(n)
/// instead of a full sort); the caller's buffer is never reordered, so one
/// sample buffer can serve several quantile queries.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

/// Convenience overload taking its scratch copy by value; selection runs
/// directly on the moved-in buffer. Same result as the span overload.
[[nodiscard]] double percentile(std::vector<double> xs, double q);

/// Coefficient of variation (stddev/mean); 0 when the mean is 0.
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs);

/// Searches lags in [min_lag, max_lag] for the peak of the normalized
/// autocorrelation (in [-1, 1]; lag 0 and a zero-variance series score 0).
/// Returns nullopt if no lag scores at least `threshold`; ties keep the
/// smaller lag. Used to recover ACR burst periods from packets-per-bucket
/// series. The mean, deviations and denominator are computed once and 32
/// lags share each pass over the series (a kernel built for AVX-512F, AVX2
/// and the baseline ISA, one vector lane per lag), but every lag's
/// numerator is still summed from 0.0 in ascending index order, so scores
/// are bit-equal to a lag-at-a-time evaluation on every clone. Contraction
/// is off in that kernel: the compiler would otherwise fuse each multiply
/// and add into one FMA in the AVX-512F clone (GCC's default in C++), and
/// an FMA rounds once instead of twice, which changes the score bits.
struct PeriodEstimate {
    std::size_t lag_samples = 0;
    double score = 0.0;
};
[[nodiscard]] std::optional<PeriodEstimate> dominant_period(std::span<const double> xs,
                                                            std::size_t min_lag,
                                                            std::size_t max_lag,
                                                            double threshold);

/// Empirical CDF over sample values: point i is (value_sorted[i], (i+1)/n).
struct CdfPoint {
    double x = 0.0;
    double p = 0.0;
};
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(std::vector<double> xs);

}  // namespace tvacr
