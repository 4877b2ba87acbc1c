#pragma once
// Streaming Perfetto / Chrome trace-event exporter with bounded memory.
//
// Where obs::write_perfetto_file serialises a whole trace::Recorder after
// the run, PerfettoStreamWriter observes the model directly (TaskObserver +
// CommObserver + MarkerSink) and spools events to disk *as the simulation
// runs*: resident state is one append window of at most ~window_bytes plus
// O(#tasks) per-task cursors, independent of trace length. A long-horizon
// scenario that would hold millions of records in a Recorder streams in a
// few tens of kilobytes (tests/obs/test_perfetto_stream.cpp pins the peak
// window occupancy).
//
// Layout: the events are rendered by obs::pfmt::EventWriter, the same
// writer obs::write_perfetto_json replays a trace::Recorder through. For one
// run observed by both a Recorder and a PerfettoStreamWriter (same
// processors/relations attached, markers fanned out through
// trace::MarkerTee), the streamed file therefore holds exactly the batch
// export's events; only the event *order* differs (the stream interleaves
// tracks as time advances). Canonically sorting both files' event lines
// yields identical bytes; tests and CI check this on both engines with
// skip-ahead on and off. Counter tracks (see counter() and
// obs::MetricsSampler) exist only in streamed exports, so a sampled export
// is written as a separate artifact, not sort-compared.
//
// Spool format: events are appended to `path + ".spool-<pid>-<n>"`
// (spool_path(); unique per writer, so concurrent runs targeting the same
// output never share a spool) — a valid, growing prefix of the final JSON
// ({"traceEvents": [ <events so far>) that crash diagnostics can inspect;
// finish() closes open task segments, emits the metadata and optional
// attribution events, writes the footer and atomically renames the spool
// onto `path`. A writer destroyed without finish() removes its spool.
//
// Requirements: attach every processor/relation *before* the simulation
// starts (pid numbering follows attach order, and events emitted mid-run
// bake their pids in), and call finish() while the model is still alive.

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/time.hpp"
#include "mcse/relation.hpp"
#include "obs/attribution.hpp"
#include "obs/perfetto_format.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"
#include "trace/marker.hpp"

namespace rtsc::obs {

class PerfettoStreamWriter final : public rtos::TaskObserver,
                                   public mcse::CommObserver,
                                   public trace::MarkerSink {
public:
    struct Options {
        /// Flush the in-memory window to the spool once it reaches this many
        /// bytes. Peak residency stays below window_bytes + one event.
        std::size_t window_bytes = 64 * 1024;
    };

    using Stats = pfmt::EventWriter::Stats;

    /// Opens a writer-unique spool file (see spool_path()) and emits the
    /// JSON header. Throws kernel::SimulationError when the spool cannot be
    /// created.
    explicit PerfettoStreamWriter(std::string path)
        : PerfettoStreamWriter(std::move(path), Options()) {}
    PerfettoStreamWriter(std::string path, Options opts);
    ~PerfettoStreamWriter() override;

    PerfettoStreamWriter(const PerfettoStreamWriter&) = delete;
    PerfettoStreamWriter& operator=(const PerfettoStreamWriter&) = delete;

    /// Observe a processor (all of its tasks, present and future). Its pid
    /// is the attach index + 1, matching the batch exporter's layout.
    void attach(rtos::Processor& cpu);
    /// Observe a communication relation (thread attach index + 1 under the
    /// "comm" process).
    void attach(mcse::Relation& rel);

    // TaskObserver
    void on_task_state(const rtos::Task& task, rtos::TaskState from,
                       rtos::TaskState to) override;
    void on_overhead(const rtos::Processor& cpu, rtos::OverheadKind kind,
                     kernel::Time start, kernel::Time duration,
                     const rtos::Task* about) override;

    // CommObserver
    void on_access(const mcse::Relation& rel, const rtos::Task* task,
                   mcse::AccessKind kind, bool blocked) override;

    // MarkerSink (fault layer: set_trace(&writer), or through a MarkerTee)
    void mark(std::string category, std::string name) override;

    /// Emit one counter sample on `cpu`'s process track. The value renders
    /// with %.17g; `at` must be non-decreasing per counter name (the
    /// validator checks). Throws kernel::SimulationError when `cpu` was
    /// never attached or `value` is NaN or infinite.
    void counter(const rtos::Processor& cpu, kernel::Time at,
                 std::string_view name, double value) {
        writer_.counter(cpu, at, name, value);
    }

    /// Emit one counter sample on the auxiliary process `process` (e.g.
    /// "kernel"), allocated a pid past the marker process on first use.
    /// Throws kernel::SimulationError when `value` is NaN or infinite.
    void counter(std::string_view process, kernel::Time at,
                 std::string_view name, double value) {
        writer_.counter(process, at, name, value);
    }

    /// Close open task segments at the end of the trace, emit process/thread
    /// metadata (plus attribution events when given), write the footer and
    /// atomically rename the spool onto the final path. Must be called
    /// exactly once, while the model is still alive. Throws
    /// kernel::SimulationError on I/O failure, std::logic_error on reuse.
    void finish(const Attribution* attribution = nullptr,
                const std::vector<Attribution::DeadlineMissReport>* misses =
                    nullptr);

    [[nodiscard]] bool finished() const noexcept { return finished_; }
    [[nodiscard]] const Stats& stats() const noexcept {
        return writer_.stats();
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    /// Where events spool until finish() renames them onto path().
    [[nodiscard]] const std::string& spool_path() const noexcept {
        return spool_path_;
    }

private:
    std::string path_;
    std::string spool_path_;
    std::ofstream os_;
    pfmt::EventWriter writer_; ///< writes into os_, so declared after it
    bool finished_ = false;
};

} // namespace rtsc::obs
