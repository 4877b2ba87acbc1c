#include "fault/deadline_handler.hpp"

#include <algorithm>

#include "kernel/simulator.hpp"
#include "rtos/task.hpp"

namespace rtsc::fault {

namespace k = rtsc::kernel;

DeadlineMissHandler::DeadlineMissHandler(trace::ConstraintMonitor& monitor)
    : wake_("deadline_handler.wake") {
    monitor.set_violation_callback(
        [this](const trace::ConstraintMonitor::Violation& v) {
            on_violation(v);
        });
    agent_ = &k::Simulator::current().spawn("deadline_handler.agent",
                                            [this] { agent_body(); });
    agent_->set_daemon(true);
}

void DeadlineMissHandler::set_policy(rtos::Task& task, RecoveryPolicy policy) {
    for (auto& [t, p] : policies_) {
        if (t == &task) {
            p = policy;
            return;
        }
    }
    policies_.emplace_back(&task, policy);
}

void DeadlineMissHandler::on_violation(
    const trace::ConstraintMonitor::Violation& v) {
    // Called inside a state-transition notification: only enqueue here.
    if (v.task != nullptr) {
        for (auto& [t, p] : policies_) {
            if (t == v.task) {
                pending_.push_back({t, p});
                wake_.notify();
                return;
            }
        }
    }
    ++unhandled_;
}

void DeadlineMissHandler::agent_body() {
    for (;;) {
        while (pending_.empty()) k::wait(wake_);
        // Drain one batch, deduplicating per task: several violations of the
        // same task at one instant warrant one recovery, not a kill storm.
        std::vector<Entry> batch;
        while (!pending_.empty()) {
            Entry e = pending_.front();
            pending_.pop_front();
            const bool seen =
                std::any_of(batch.begin(), batch.end(),
                            [&e](const Entry& b) { return b.task == e.task; });
            if (!seen) batch.push_back(e);
        }
        for (const Entry& e : batch) {
            ++handled_;
            if (recover(*e.task, e.policy, trace_, "deadline", "miss")) ++kills_;
            if (e.policy.action == RecoveryAction::restart) ++restarts_;
            if (e.policy.action == RecoveryAction::demote_priority) ++demotions_;
        }
    }
}

} // namespace rtsc::fault
