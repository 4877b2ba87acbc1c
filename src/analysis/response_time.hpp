#pragma once
// Analytical schedulability baselines for periodic task sets, after
// Buttazzo, "Hard Real-Time Computing Systems" (the paper's reference [10]).
//
// These closed-form/fixed-point analyses serve two purposes in this repo:
//   1. validation — the simulator's observed worst-case response times must
//      match exact response-time analysis (tests/analysis);
//   2. baseline — benches compare simulated behaviour against what a purely
//      analytical flow would predict, including context-switch overheads.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace rtsc::analysis {

/// One periodic task for analysis purposes. Priorities follow the library
/// convention: bigger number = more urgent.
struct PeriodicTask {
    std::string name;
    kernel::Time period{};
    kernel::Time wcet{};              ///< worst-case execution time
    kernel::Time deadline{};          ///< relative; zero => deadline = period
    int priority = 0;
    kernel::Time blocking{};          ///< max blocking from lower-prio tasks (B_i)

    [[nodiscard]] kernel::Time effective_deadline() const noexcept {
        return deadline.is_zero() ? period : deadline;
    }
};

/// Total processor utilisation sum(C_i / T_i).
[[nodiscard]] double utilization(const std::vector<PeriodicTask>& tasks);

/// Liu & Layland rate-monotonic bound n(2^{1/n}-1); a set is schedulable
/// under RM if utilization() <= this (sufficient, not necessary).
[[nodiscard]] double rm_utilization_bound(std::size_t n);

/// EDF bound: schedulable iff utilization <= 1 (implicit deadlines).
[[nodiscard]] bool edf_schedulable(const std::vector<PeriodicTask>& tasks);

/// Exact fixed-priority response-time analysis:
///   R_i = C_i + B_i + sum_{j in hp(i)} ceil(R_i / T_j) * C_j
/// iterated to the fixed point. `context_switch` adds the classic 2*CS term
/// per preempting job and CS on the task's own dispatch, so simulated runs
/// with RTOS overheads can be cross-checked. Returns nullopt for a task
/// whose iteration exceeds its deadline (unschedulable).
struct RtaOptions {
    kernel::Time context_switch{}; ///< save+sched+load lumped per switch
    std::uint64_t max_iterations = 1000;
};

struct RtaResult {
    std::string name;
    std::optional<kernel::Time> response; ///< worst-case response time
    bool schedulable = false;
};

[[nodiscard]] std::vector<RtaResult> response_time_analysis(
    const std::vector<PeriodicTask>& tasks, const RtaOptions& opts = {});

/// Hyperperiod (LCM of periods) — the natural simulation horizon for
/// validating a periodic set exhaustively. Saturates at Time::max() when the
/// LCM does not fit in 64 bits of picoseconds.
[[nodiscard]] kernel::Time hyperperiod(const std::vector<PeriodicTask>& tasks);

} // namespace rtsc::analysis
