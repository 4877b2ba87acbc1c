#pragma once
// A simulation process: a named coroutine scheduled by the Simulator.
//
// Processes correspond to SystemC SC_THREADs; the kernel has no other kind.
// They are created via Simulator::spawn() and run for the first time at
// simulation start (or, if spawned mid-simulation, in the next evaluation
// phase). A process suspends itself through the wait() family, registered
// with at most one event at a time, and terminates by returning from its
// body.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "kernel/context.hpp"
#include "kernel/event.hpp"
#include "kernel/time.hpp"
#include "kernel/timing_wheel.hpp"

namespace rtsc::kernel {

class Simulator;

class Process {
public:
    /// Why the last wait() returned. `killed` never reaches user code: the
    /// kill wake turns into a ProcessKilled throw before wait() returns.
    enum class WakeReason : std::uint8_t { none, event, timeout, killed };

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] bool terminated() const noexcept { return terminated_; }
    /// Notified (delta) when the process body returns; usable for joins.
    [[nodiscard]] Event& done_event() noexcept { return *done_event_; }
    /// Number of times the scheduler switched into this process.
    [[nodiscard]] std::uint64_t activations() const noexcept { return activations_; }
    [[nodiscard]] Simulator& simulator() const noexcept { return sim_; }

    /// Opaque back-pointer for higher layers (the RTOS layer stores its Task
    /// here so communication relations can identify the calling task).
    void* user_data = nullptr;

    /// Daemon processes are infrastructure that legitimately waits forever
    /// (a dedicated RTOS scheduler thread, a watchdog); the deadlock/stall
    /// detector skips them.
    void set_daemon(bool on) noexcept { daemon_ = on; }
    [[nodiscard]] bool daemon() const noexcept { return daemon_; }

    /// Background processes never keep an *open-ended* run() alive: their
    /// timed waits are not counted as pending work, so a simulation whose
    /// only future activity is background heartbeats (obs::MetricsSampler)
    /// goes dry instead of ticking forever. run_until() is unaffected —
    /// with an explicit horizon, background processes run to the horizon.
    /// Distinct from daemon: the threaded engine's RTOS kernel process is a
    /// daemon (exempt from stall diagnostics) yet does real scheduling work.
    void set_background(bool on) noexcept { background_ = on; }
    [[nodiscard]] bool background() const noexcept { return background_; }

    /// A kill has been requested but the ProcessKilled unwind has not run
    /// yet (the process terminates at its next resumption).
    [[nodiscard]] bool kill_requested() const noexcept { return kill_requested_; }

private:
    friend class Simulator;

    Process(Simulator& sim, std::string name, std::function<void()> body,
            std::size_t stack_bytes);

    Simulator& sim_;
    std::string name_;
    std::unique_ptr<Coroutine> coro_;
    std::unique_ptr<Event> done_event_;
    bool terminated_ = false;
    bool runnable_ = false;              ///< already queued for execution
    bool daemon_ = false;                ///< excluded from stall diagnostics
    bool background_ = false;            ///< timed waits aren't live work
    bool kill_requested_ = false;        ///< throw ProcessKilled on next resume
    std::uint64_t activations_ = 0;

    // --- wait bookkeeping (owned by Simulator) ---
    Event* waiting_on_ = nullptr;        ///< the event this process is registered with
    bool timeout_armed_ = false;
    bool timeout_counted_ = false;       ///< armed timeout counted as live work
    std::uint64_t timeout_seq_ = 0;      ///< invalidates stale zero-waiter entries
    TimingWheel::Handle timeout_handle_; ///< wheel entry of the armed timeout
    WakeReason wake_reason_ = WakeReason::none;
};

} // namespace rtsc::kernel
