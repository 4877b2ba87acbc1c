#pragma once
// Shared vocabulary of the RTOS model layer.

#include <cstdint>

namespace rtsc::rtos {

class Task;
class Processor;
class SchedulerEngine;
class SchedulingPolicy;
class DvfsModel;

/// Accumulated energy in model units of kHz·mV²·ps (see rtos/dvfs.hpp).
/// 128-bit because a full-speed point (f·V² ≈ 2.5e13 units) sustained over a
/// millisecond-scale run (1e9 ps) already overflows 64 bits. All energy
/// arithmetic is exact integer math — the conservation invariant (per-task
/// energies summing to the per-CPU ledger) holds bit-exactly.
__extension__ typedef unsigned __int128 Energy;

/// Task states from the paper's §4 (Buttazzo [10]): Waiting / Ready /
/// Running, extended with the TimeLine-chart states of §5 (Creation,
/// Waiting-for-resource, Destruction).
enum class TaskState : std::uint8_t {
    created,          ///< exists, not yet released
    ready,            ///< waiting for the processor (in the ReadyTaskQueue)
    running,          ///< executing on the processor
    waiting,          ///< waiting for a synchronization (event/queue/sleep)
    waiting_resource, ///< waiting for a mutual-exclusion resource
    terminated,       ///< body returned
};

[[nodiscard]] constexpr const char* to_string(TaskState s) noexcept {
    switch (s) {
        case TaskState::created: return "created";
        case TaskState::ready: return "ready";
        case TaskState::running: return "running";
        case TaskState::waiting: return "waiting";
        case TaskState::waiting_resource: return "waiting_resource";
        case TaskState::terminated: return "terminated";
    }
    return "?";
}

/// A job boundary, decided once by Task::set_state. A job is released when
/// the task is readied out of Waiting or Created (§4.2 TaskIsReady) and ends
/// when it blocks on a synchronization or terminates (TaskIsBlocked).
enum class JobEdge : std::uint8_t {
    release,  ///< Waiting/Created -> Ready: a new job starts
    complete, ///< the open job blocks on a synchronization or ends normally
    abort,    ///< kill() or a crash terminates the task with a job open
};

/// Why a running task lost the processor; used by the engines and recorded
/// for the preempted-ratio statistic of Figure 8.
enum class PreemptReason : std::uint8_t {
    none,
    higher_priority, ///< the scheduling policy preferred a newly ready task
    slice_expired,   ///< round-robin / time-sharing quantum elapsed
    yielded,         ///< the task invoked yield_cpu()
};

/// The three RTOS overhead components of §3.2, plus the DVFS
/// frequency-switch cost (charged when a policy changes the operating
/// point; kept explicit rather than folded into exec time, per CHRONOS).
enum class OverheadKind : std::uint8_t {
    scheduling,
    context_load,
    context_save,
    frequency_switch,
};

[[nodiscard]] constexpr const char* to_string(OverheadKind k) noexcept {
    switch (k) {
        case OverheadKind::scheduling: return "scheduling";
        case OverheadKind::context_load: return "context_load";
        case OverheadKind::context_save: return "context_save";
        case OverheadKind::frequency_switch: return "frequency_switch";
    }
    return "?";
}

} // namespace rtsc::rtos
