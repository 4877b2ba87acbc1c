#include "fault/recovery.hpp"

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"
#include "trace/marker.hpp"

namespace rtsc::fault {

bool recover(rtos::Task& task, const RecoveryPolicy& policy,
             trace::MarkerSink* trace, const std::string& category,
             const std::string& incident) {
    kernel::Simulator& sim = task.processor().simulator();
    const std::string action = to_string(policy.action);
    if (trace != nullptr)
        trace->mark(category, incident + ":" + task.name() + " (" + action + ")");
    sim.reporter().report(kernel::Severity::warning,
                          category + " " + incident + " on task '" +
                              task.name() + "' at " + sim.now().to_string() +
                              " (action: " + action + ")");
    const bool killed = (policy.action == RecoveryAction::kill ||
                         policy.action == RecoveryAction::restart) &&
                        !task.body_finished();
    if (killed) task.kill();
    if (policy.action == RecoveryAction::restart) {
        if (!task.retired()) kernel::wait(task.retired_event());
        task.processor().restart_task(task, policy.restart_delay);
    } else if (policy.action == RecoveryAction::demote_priority) {
        task.set_base_priority(policy.demote_to);
    }
    return killed;
}

} // namespace rtsc::fault
