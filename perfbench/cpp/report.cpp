#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

bool valid_name(std::string_view name) noexcept {
    if (name.empty() || name.size() > 64) return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

void MetricSet::add(std::string name, double value, std::string unit) {
    if (!valid_name(name)) throw std::invalid_argument("bad metric name: " + name);
    if (find(name) != nullptr)
        throw std::invalid_argument("duplicate metric: " + name);
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite metric: " + name);
    m_.push_back({std::move(name), value, std::move(unit)});
}

const Metric* MetricSet::find(std::string_view name) const noexcept {
    for (const auto& m : m_)
        if (m.name == name) return &m;
    return nullptr;
}

double median(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("median of no samples");
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2;
}

namespace {

std::size_t rank_of(std::size_t n, double p) {
    // ceil(p/100 * n) computed in integer tenths of a percent so 99.9 and
    // 50 land exactly.
    const auto per_mille = static_cast<std::uint64_t>(std::llround(p * 10));
    const std::uint64_t num = per_mille * n;
    std::size_t rank = static_cast<std::size_t>((num + 999) / 1000);
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
    return sorted[rank_of(sorted.size(), p) - 1];
}

Tail tail_percentile(std::vector<double> v, std::size_t beyond) {
    if (v.empty()) return {};
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
        if (n - rank_of(n, p) >= beyond) return {p, nearest_rank(v, p), n};
    return {0, v.back(), n};
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char* hex = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) throw std::invalid_argument("non-finite JSON number");
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics.all()) {
        if (!first) out += ", ";
        first = false;
        out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}}";
}

} // namespace perfbench
