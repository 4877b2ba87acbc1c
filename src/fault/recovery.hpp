#pragma once
// Recovery actions shared by the fault-tolerance supervisors (Watchdog,
// DeadlineMissHandler). All actions are executed from a dedicated daemon
// process — never from inside an engine transition or observer callback —
// so killing/restarting cannot corrupt an in-flight scheduling pass.

#include <cstdint>
#include <string>

#include "kernel/time.hpp"

namespace rtsc::rtos {
class Task;
}
namespace rtsc::trace {
class MarkerSink;
}

namespace rtsc::fault {

enum class RecoveryAction : std::uint8_t {
    log,             ///< report the incident, change nothing
    kill,            ///< terminate the offending task
    restart,         ///< kill (if alive) then restart after a delay
    demote_priority, ///< lower the task's base priority
};

[[nodiscard]] constexpr const char* to_string(RecoveryAction a) noexcept {
    switch (a) {
        case RecoveryAction::log: return "log";
        case RecoveryAction::kill: return "kill";
        case RecoveryAction::restart: return "restart";
        case RecoveryAction::demote_priority: return "demote_priority";
    }
    return "?";
}

/// How to react to an incident on one task.
struct RecoveryPolicy {
    RecoveryAction action = RecoveryAction::log;
    kernel::Time restart_delay{}; ///< restart action: release delay
    int demote_to = 0;            ///< demote_priority action: new base priority
};

/// The one recovery executor behind Watchdog and DeadlineMissHandler: mark
/// "<incident>:<task> (<action>)" in `category` on `trace` (may be null),
/// warn "<category> <incident> on task ...", then apply `policy`. Call it
/// from a supervisor's own process: a restart waits for the killed
/// incarnation to retire (Task::retired_event). Returns whether a live task
/// was killed.
bool recover(rtos::Task& task, const RecoveryPolicy& policy,
             trace::MarkerSink* trace, const std::string& category,
             const std::string& incident);

} // namespace rtsc::fault
