#pragma once
// In-memory spans recorded by the benchmark around its own calls into each
// layer's public API. A span is named "<layer>.<what>"; its layer is the
// part before the first dot. Spans are kept in memory during the run and
// written out once at the end; a disabled tracer records nothing.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::uint64_t start_ns = 0; ///< since the tracer's epoch
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
    std::uint64_t run = 0;      ///< operation the span belongs to
};

class Tracer {
public:
    static constexpr std::int64_t kCurrent = -2; ///< parent: innermost open span on this thread

    explicit Tracer(bool enabled);

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Open a span; returns its index (-1 when disabled). Thread-safe.
    std::int64_t open(std::string name, std::uint64_t run,
                      std::int64_t parent = kCurrent);
    void close(std::int64_t id);

    /// RAII open/close.
    class Scope {
    public:
        Scope(Tracer& t, std::string name, std::uint64_t run,
              std::int64_t parent = kCurrent)
            : t_(t), id_(t.open(std::move(name), run, parent)) {}
        ~Scope() { t_.close(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        [[nodiscard]] std::int64_t id() const noexcept { return id_; }

    private:
        Tracer& t_;
        std::int64_t id_;
    };

    [[nodiscard]] std::vector<Span> spans() const;
    /// Write every span as one JSON document.
    void write_json(const std::string& path) const;

private:
    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_; // guards spans_
    std::vector<Span> spans_;
};

/// Layer of a span name: the text before the first '.', or the whole name.
[[nodiscard]] std::string layer_of(const std::string& name);

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval covered by its direct children (overlapping children are
/// counted once), summed over the layer's spans.
[[nodiscard]] std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

} // namespace perfbench
