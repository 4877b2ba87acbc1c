#include "fault/watchdog.hpp"

#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::fault {

namespace k = rtsc::kernel;

Watchdog::Watchdog(rtos::Task& task, k::Time deadline, RecoveryPolicy policy)
    : task_(task),
      deadline_(deadline),
      policy_(policy),
      beat_("watchdog." + task.name() + ".beat") {
    proc_ = &task.processor().simulator().spawn(
        "watchdog." + task.name(), [this] { body(); });
    proc_->set_daemon(true);
}

void Watchdog::pet() {
    last_beat_ = task_.processor().simulator().now();
    beat_.notify();
}

void Watchdog::body() {
    k::Simulator& sim = task_.processor().simulator();
    for (;;) {
        const auto reason = sim.wait(deadline_, beat_);
        if (reason == k::Process::WakeReason::event) continue;
        // A task that ended on its own stops being supervised (only the
        // restart policy has business with a dead task).
        if (task_.body_finished() && policy_.action != RecoveryAction::restart)
            return;
        ++timeouts_;
        recover(task_, policy_, trace_, "watchdog", "timeout");
        if (policy_.action == RecoveryAction::kill) {
            // The corpse stays dead: wait out the unwind and stop, so the
            // watchdog does not fire forever against it.
            if (!task_.retired()) k::wait(task_.retired_event());
            return;
        }
    }
}

} // namespace rtsc::fault
