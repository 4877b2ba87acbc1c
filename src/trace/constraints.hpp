#pragma once
// Automatic timing-constraint verification by simulation — the paper's §6
// future work: "Another improvement we can imagine now is automatic
// verification of timing constraints by simulation after setting these
// constraints in the initial system model."
//
// Two constraint kinds cover the measurements the paper extracts manually
// from TimeLine charts:
//   - response constraints: every job of a task must complete within a
//     bound of its release — per-job response time, with jobs delimited by
//     the one rule of Task::set_state (rtos/fwd.hpp JobEdge);
//   - latency constraints: the n-th occurrence of a sink access (e.g. a
//     write to an output queue) must follow the n-th occurrence of a source
//     access (e.g. the interrupt event's signal) within a bound — "the time
//     spent between an external event and the system's reaction" (§5).
//
// The monitor observes processors and relations like the Recorder does, and
// collects violations for inspection or test assertions.

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "mcse/relation.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::trace {

class ConstraintMonitor final : public rtos::TaskObserver,
                                public mcse::CommObserver {
public:
    struct Violation {
        std::string constraint;
        kernel::Time at;       ///< when the violation was detected
        kernel::Time measured;
        kernel::Time bound;
        /// Task the violated rule monitors (response rules; nullptr for
        /// latency rules). Recovery handlers use it to kill/restart/demote.
        const rtos::Task* task = nullptr;
        /// Task::job_index() of the job the response rule measured.
        std::uint64_t job = 0;
    };

    /// Every job of `task` must complete within `bound` of its release
    /// (rtos/fwd.hpp JobEdge). A job aborted by kill or crash can never
    /// complete: it is a violation named "<rule> [killed]".
    void require_response(rtos::Task& task, kernel::Time bound,
                          std::string name = {});

    /// Occurrence i of (to, to_kind) must happen within `bound` of
    /// occurrence i of (from, from_kind).
    void require_latency(std::string name, mcse::Relation& from,
                         mcse::AccessKind from_kind, mcse::Relation& to,
                         mcse::AccessKind to_kind, kernel::Time bound);

    [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
        return violations_;
    }
    [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
    [[nodiscard]] std::uint64_t checks_performed() const noexcept {
        return checks_;
    }
    void print(std::ostream& os) const;

    /// Invoked synchronously on every recorded violation (after it is
    /// appended to violations()). The callback runs inside the task state /
    /// access notification, possibly on the violating task's own thread: it
    /// must not block or kill tasks directly — defer recovery to a separate
    /// process (fault::DeadlineMissHandler does exactly that).
    void set_violation_callback(std::function<void(const Violation&)> cb) {
        on_violation_ = std::move(cb);
    }

    // TaskObserver
    void on_job(const rtos::Task& task, rtos::JobEdge edge) override;
    // CommObserver
    void on_access(const mcse::Relation& rel, const rtos::Task* task,
                   mcse::AccessKind kind, bool blocked) override;

private:
    struct ResponseRule {
        const rtos::Task* task;
        kernel::Time bound;
        std::string name;
    };
    struct LatencyRule {
        std::string name;
        const mcse::Relation* from;
        mcse::AccessKind from_kind;
        const mcse::Relation* to;
        mcse::AccessKind to_kind;
        kernel::Time bound;
        std::vector<kernel::Time> pending; ///< unmatched source occurrences
    };

    void add_violation(Violation v);

    std::vector<ResponseRule> response_rules_;
    std::vector<LatencyRule> latency_rules_;
    std::vector<Violation> violations_;
    std::uint64_t checks_ = 0;
    std::function<void(const Violation&)> on_violation_;
};

} // namespace rtsc::trace
