#pragma once
// The three benchmark workloads. Each runs operations (one simulation, or
// one campaign pass) for at least the requested number of seconds, checks
// every operation's outputs, and fills either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "host.hpp"
#include "kernel/simulator.hpp"
#include "report.hpp"
#include "rtos/processor.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;      ///< per-layer run: spans, host profiles, counters
    std::string scratch_dir; ///< exports, journals and the span file
    std::string validator;   ///< perfetto_validate executable
};

/// Metric names and units, mirrored by BENCHMARK.json. An untraced run
/// reports every end-to-end metric, a traced run every per-layer one; a
/// layer a workload does not exercise reads 0.
struct CatalogueEntry {
    const char* name;
    const char* unit;
};
[[nodiscard]] const std::vector<CatalogueEntry>& end_to_end_catalogue();
[[nodiscard]] const std::vector<CatalogueEntry>& per_layer_catalogue();

/// What a workload run produced: catalogue names with values (per-layer
/// names left unset read 0), and the operation tally.
struct Outcome {
    std::vector<std::pair<std::string, double>> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< one line per failed check
    std::vector<std::string> notes;  ///< extra lines printed before the result

    void set(const std::string& name, double v);
    /// Record why an operation failed; its attempt() returns false.
    void fail(std::string what);
    /// Run `op` as one attempted operation; a throw counts as a failure.
    template <typename F>
    void attempt(F&& op) {
        ++attempted;
        try {
            if (!op()) ++failed;
        } catch (const std::exception& e) {
            ++failed;
            fail(std::string("exception: ") + e.what());
        }
    }
};

/// Convert an Outcome into the final metric set for the mode, in
/// catalogue order; unset names read 0. Throws if a workload set a name
/// the catalogue lacks or, with `complete`, left an end-to-end metric unset.
[[nodiscard]] MetricSet finish_metrics(const Outcome& out, bool trace, bool complete);

Outcome run_ring(const RunOptions& opt);
Outcome run_mpeg2(const RunOptions& opt);
Outcome run_campaign(const RunOptions& opt);

// ---- shared helpers ----

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Drives an operation loop: true while the run has not yet spent
/// `seconds` or done `min_ops` operations.
class Budget {
public:
    Budget(double seconds, std::uint64_t min_ops)
        : start_(Clock::now()), seconds_(seconds), min_ops_(min_ops) {}
    [[nodiscard]] bool more(std::uint64_t done) const {
        return done < min_ops_ ||
               seconds_between(start_, Clock::now()) < seconds_;
    }

private:
    Clock::time_point start_;
    double seconds_;
    std::uint64_t min_ops_;
};

/// Host-time samples of a run, kept raw and rescaled to nominal host speed
/// with the HostSpeed measured right after their operation.
struct Samples {
    std::vector<double> raw, nominal;
    void rate(double per_s, const HostSpeed& hs) {
        raw.push_back(per_s);
        nominal.push_back(hs.rate(per_s));
    }
    void seconds(double s, const HostSpeed& hs) {
        raw.push_back(s);
        nominal.push_back(hs.seconds(s));
    }
};

/// The seven end-to-end metrics of an untraced run. report() sets the
/// nominal-speed medians and adds a note with the raw medians.
struct EndToEnd {
    Samples dispatch_rate, dispatch_rate_threaded, scenarios_per_s, setup_s;
    std::vector<double> reference_s; ///< raw reference block times
    double activations_per_dispatch = 0;
    double activations_per_dispatch_threaded = 0;
    double peak_rss_mib = 0;
    void report(Outcome& out) const;
};

/// Exact kernel and engine counts of one simulation or a sum of several,
/// with the kernel's host-phase profile (zero unless profiling was on).
struct SimCounts {
    std::uint64_t dispatches = 0;
    std::uint64_t scheduler_runs = 0;
    std::uint64_t activations = 0;
    std::uint64_t delta_cycles = 0;
    std::uint64_t timed_compactions = 0;
    std::size_t timed_arena = 0; ///< largest of the simulations
    std::size_t processes = 0;   ///< largest of the simulations
    rtsc::kernel::Simulator::HostProfile profile{};

    /// Fold in a finished simulation (call add_cpu for its processors).
    void add_sim(const rtsc::kernel::Simulator& sim);
    void add_cpu(const rtsc::rtos::Processor& cpu);
    void add(const SimCounts& other);
    [[nodiscard]] double activations_per_dispatch() const {
        return static_cast<double>(activations) / static_cast<double>(dispatches);
    }
};

/// Per-layer kernel.* and rtos.* metrics of a traced run: the counts of one
/// operation on each engine, the host-phase profiles of its traced
/// operations and the simulation host times of its untraced ones.
struct KernelLayer {
    std::vector<double> run_s, evaluate_s, update_s, delta_notify_s, advance_s;
    void add_profile(const rtsc::kernel::Simulator::HostProfile& p);
    void report(Outcome& out, const SimCounts& proc, const SimCounts& thr) const;
};

/// Set the tracing-overhead and span-derived per-layer metrics from the
/// spans of a traced run, and write the spans out under `scratch_dir`.
void finish_trace(Outcome& out, const Tracer& tracer, const RunOptions& opt,
                  const char* workload, const std::vector<double>& traced_wall,
                  const std::vector<double>& untraced_wall);

} // namespace perfbench
