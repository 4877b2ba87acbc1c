#pragma once
// Simulation events with SystemC sc_event semantics.
//
// An event carries no value; it wakes the processes that are waiting on it.
// Each waiting process is registered with exactly one event (Simulator::wait
// takes one), so an event's waiter list is the whole of its wake fan-out.
// At most one *pending* (delayed) notification exists per event at any time,
// with SystemC's override rules:
//   - notify()            immediate: triggers right now, cancels any pending
//   - notify_delta()      next delta cycle; overrides a pending timed notify
//   - notify(Time)        at now+delay; kept only if earlier than the pending
//   - cancel()            discards the pending notification, if any

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "kernel/timing_wheel.hpp"

namespace rtsc::kernel {

class Simulator;
class Process;

class Event {
public:
    /// Binds to the simulator currently active on this thread
    /// (Simulator must be constructed first).
    explicit Event(std::string name = "event");

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    /// Safe to destroy while processes wait on it: the waiters are
    /// unregistered, so only a timeout (or a kill) can still wake them.
    ~Event();

    /// Immediate notification: every process waiting on this event becomes
    /// runnable in the *current* evaluation phase.
    void notify();

    /// Notification in the next delta cycle (same simulated time).
    void notify_delta();

    /// Timed notification at now()+delay. notify(Time::zero()) is equivalent
    /// to notify_delta(), as in SystemC.
    void notify(Time delay);

    /// Discard the pending (delta or timed) notification, if any.
    void cancel();

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] bool has_pending() const noexcept { return pending_ != Pending::none; }
    /// Absolute time of the pending timed notification (valid only when a
    /// timed notification is pending).
    [[nodiscard]] Time pending_time() const noexcept { return timed_at_; }

    [[nodiscard]] Simulator& simulator() const noexcept { return sim_; }

private:
    friend class Simulator;

    enum class Pending : std::uint8_t { none, delta, timed };

    Simulator& sim_;
    std::string name_;
    std::vector<Process*> waiters_;
    Pending pending_ = Pending::none;
    Time timed_at_{};
    /// Wheel entry of the pending timed notification; cancelled (never left
    /// to go stale) on every reschedule/cancel and on event destruction.
    TimingWheel::Handle timed_handle_;
};

} // namespace rtsc::kernel
