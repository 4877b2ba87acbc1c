#pragma once
// Metric records, order statistics and the one-line JSON result the
// benchmark prints last.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Metric and span names: [A-Za-z0-9_.-]+, at most 64 characters, starting
/// with a letter or digit.
[[nodiscard]] bool valid_name(std::string_view name) noexcept;

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// An ordered set of named metrics. add() rejects invalid or duplicate
/// names and non-finite values (std::invalid_argument).
class MetricSet {
public:
    void add(std::string name, double value, std::string unit);
    [[nodiscard]] const std::vector<Metric>& all() const noexcept { return m_; }
    [[nodiscard]] const Metric* find(std::string_view name) const noexcept;

private:
    std::vector<Metric> m_;
};

/// Median of the samples (mean of the middle two for an even count).
/// Throws std::invalid_argument on an empty input.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile p in (0, 100] of `sorted` (ascending, non-empty):
/// the value at rank ceil(p/100 * n).
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double p);

/// The highest of the standard percentiles (99.9, 99, 95, 90, 75, 50) that
/// has at least `beyond` samples ranked above it, with its value. When even
/// the median lacks them, pct is 0 and value the maximum.
struct Tail {
    double pct = 0;
    double value = 0;
    std::size_t samples = 0;
};
[[nodiscard]] Tail tail_percentile(std::vector<double> v, std::size_t beyond = 10);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on
/// one line, every value printed with full precision.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const MetricSet& metrics);

/// JSON string literal with escapes.
[[nodiscard]] std::string json_string(std::string_view s);
/// Shortest round-trip decimal form of a finite double.
[[nodiscard]] std::string json_number(double v);

} // namespace perfbench
