#pragma once
// The one Perfetto / Chrome trace-event writer behind both exports.
//
// EventWriter owns the whole track layout documented in obs/perfetto.hpp:
// pid/tid numbering (from the registered processor and relation lists),
// per-task state cursors, the trace end, auxiliary counter processes, the
// process/thread metadata and the causal-attribution events. Every entry
// point takes an explicit simulated time, so the same code serves
//   - obs::PerfettoStreamWriter, which feeds it live from its observer
//     hooks at the simulator's now(), and
//   - obs::write_perfetto_json, which replays a trace::Recorder's records
//     at their recorded times.
// The two exports therefore carry the same events, byte-for-byte per
// event; only the order in which the records arrive differs.
//
// Events are appended, ",\n"-separated, to an in-memory window that is
// written to the ostream once it reaches window_bytes (0 writes every event
// through). Each event is rendered in place at the window's end:
// std::to_chars for integers and counter values, integer arithmetic for
// microsecond times (trace::append_us) and JSON escaping that copies a name
// unchanged when no byte needs escaping. No event builds a temporary string
// or calls snprintf, so the steady state allocates nothing once the window
// has reached its working size.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/time.hpp"
#include "mcse/relation.hpp"
#include "obs/attribution.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::obs::pfmt {

/// Append `s` escaped for a JSON string literal (without the quotes):
/// quote, backslash and control characters are escaped (\u00XX for those
/// without a short form), every other byte is copied.
void append_escaped(std::string& out, std::string_view s);

/// Append the %.17g rendering of a finite `value` (round-trippable).
void append_number(std::string& out, double value);

class EventWriter {
public:
    struct Stats {
        std::size_t events = 0;            ///< events emitted so far
        std::size_t window_bytes = 0;      ///< current window occupancy
        std::size_t peak_window_bytes = 0; ///< high-water mark of the window
        std::size_t flushes = 0;           ///< window spills to the ostream
        std::size_t spooled_bytes = 0;     ///< bytes written to the ostream
    };

    /// Writes the JSON header ({"traceEvents": [) to `os`.
    EventWriter(std::ostream& os, std::size_t window_bytes);

    /// Register a processor (pid = registration index + 1) or a relation
    /// (thread registration index + 1 under the "comm" process). Register
    /// everything before the first event: events bake their pids in.
    void add(const rtos::Processor& cpu) { processors_.push_back(&cpu); }
    void add(const mcse::Relation& rel) { relations_.push_back(&rel); }

    /// One task state transition at `at`; from == to announces creation.
    /// Emits the slice of the state the task leaves.
    void task_state(kernel::Time at, const rtos::Task& task,
                    rtos::TaskState from, rtos::TaskState to);
    /// One RTOS overhead charge on tid 0 of `cpu`'s process.
    void overhead(const rtos::Processor& cpu, rtos::OverheadKind kind,
                  kernel::Time start, kernel::Time duration,
                  const rtos::Task* about);
    /// One communication access (`task` nullptr for hardware accesses).
    void access(kernel::Time at, const mcse::Relation& rel,
                const rtos::Task* task, mcse::AccessKind kind, bool blocked);
    /// One global instant on the "events" process.
    void marker(kernel::Time at, std::string_view category,
                std::string_view name);

    /// Counter samples on `cpu`'s process, or on the auxiliary process
    /// `process`, allocated a pid past the marker process on first use.
    /// Throw kernel::SimulationError for an unregistered processor or a
    /// non-finite value (it has no JSON rendering).
    void counter(const rtos::Processor& cpu, kernel::Time at,
                 std::string_view name, double value);
    void counter(std::string_view process, kernel::Time at,
                 std::string_view name, double value);

    /// Close open task segments at the trace end, emit the metadata (and,
    /// with `attribution`, its job/chain/flow/miss events), then write the
    /// window and the footer and flush `os`. Call once, after the last
    /// event and while the model is still alive.
    void finish(const Attribution* attribution,
                const std::vector<Attribution::DeadlineMissReport>* misses);

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

private:
    struct TaskCursor {
        kernel::Time prev_at{};
        rtos::TaskState prev_state = rtos::TaskState::created;
        int pid = 0;
        int tid = 0;
    };

    /// Start an event: the separator, then the caller appends the object
    /// to the returned window, all but its closing brace.
    std::string& open_event();
    /// Close the object, count the event and flush a full window.
    void close_event();
    void meta(std::string_view kind, int pid, int tid, std::string_view name,
              std::string_view suffix = {});
    void counter_sample(int pid, kernel::Time at, std::string_view name,
                        double value);
    void flow(char ph, std::uint64_t id, kernel::Time at, int pid, int tid);
    void flush_window();
    void emit_attribution(
        const Attribution& attribution,
        const std::vector<Attribution::DeadlineMissReport>* misses);
    [[nodiscard]] int pid_of(const rtos::Processor& cpu) const;
    [[nodiscard]] int comm_pid() const noexcept {
        return static_cast<int>(processors_.size()) + 1;
    }
    [[nodiscard]] int marker_pid() const noexcept { return comm_pid() + 1; }
    void note_time(kernel::Time t) noexcept {
        if (t > trace_end_) trace_end_ = t;
    }

    std::ostream& os_;
    std::size_t window_limit_;
    std::string window_;
    bool first_ = true;
    bool any_marker_ = false;
    Stats stats_;
    kernel::Time trace_end_{};

    std::vector<const rtos::Processor*> processors_;
    std::vector<const mcse::Relation*> relations_;
    std::map<const rtos::Task*, TaskCursor> cursors_;
    std::vector<std::string> counter_procs_; ///< aux counter process names
};

} // namespace rtsc::obs::pfmt
