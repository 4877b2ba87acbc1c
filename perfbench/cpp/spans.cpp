#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

namespace {
thread_local std::vector<std::int64_t> open_stack;
} // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::open(std::string name, std::uint64_t run,
                          std::int64_t parent) {
    if (!enabled_) return -1;
    if (parent == kCurrent) parent = open_stack.empty() ? -1 : open_stack.back();
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
    std::int64_t id = 0;
    {
        const std::lock_guard lock(mu_);
        id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back({std::move(name), now, now, parent, run});
    }
    open_stack.push_back(id);
    return id;
}

void Tracer::close(std::int64_t id) {
    if (id < 0) return;
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
    {
        const std::lock_guard lock(mu_);
        spans_.at(static_cast<std::size_t>(id)).end_ns = now;
    }
    const auto it = std::find(open_stack.rbegin(), open_stack.rend(), id);
    if (it != open_stack.rend()) open_stack.erase(std::next(it).base());
}

std::vector<Span> Tracer::spans() const {
    const std::lock_guard lock(mu_);
    return spans_;
}

void Tracer::write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write spans to " + path);
    os << "{\"spans\": [\n";
    const auto all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        os << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
           << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
           << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}"
           << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    if (!os) throw std::runtime_error("short write to " + path);
}

std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::map<std::string, double> out;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
        // Union of the children's intervals, clipped to the parent.
        iv.clear();
        for (const std::size_t c : children[i]) {
            const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
            const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
            if (b > a) iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = 0;
        for (const auto& [a, b] : iv) {
            const std::uint64_t from = std::max(a, reach);
            if (b > from) covered += b - from;
            reach = std::max(reach, b);
        }
        out[layer_of(s.name)] += static_cast<double>(dur - covered) * 1e-9;
    }
    return out;
}

} // namespace perfbench
