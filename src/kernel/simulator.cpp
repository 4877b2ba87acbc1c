#include "kernel/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <utility>

namespace rtsc::kernel {

namespace {
thread_local Simulator* g_current_sim = nullptr;
} // namespace

// ---------------------------------------------------------------- Process

Process::Process(Simulator& sim, std::string name, std::function<void()> body,
                 std::size_t stack_bytes)
    : sim_(sim),
      name_(std::move(name)),
      coro_(std::make_unique<Coroutine>(std::move(body), stack_bytes)),
      done_event_(std::make_unique<Event>(name_ + ".done")) {}

// ------------------------------------------------------------------ Event

Event::Event(std::string name) : sim_(Simulator::current()), name_(std::move(name)) {}

Event::~Event() { sim_.purge_event(*this); }

void Event::notify() {
    if (pending_ == Pending::timed) sim_.cancel_timed(*this);
    pending_ = Pending::none;
    sim_.trigger(*this);
}

void Event::notify_delta() {
    if (pending_ == Pending::delta) return;
    if (pending_ == Pending::timed) sim_.cancel_timed(*this);
    pending_ = Pending::delta;
    sim_.add_delta_pending(*this);
}

void Event::notify(Time delay) {
    if (delay.is_zero()) {
        notify_delta();
        return;
    }
    if (pending_ == Pending::delta) return; // delta wins over timed
    const Time at = sim_.now() + delay;
    if (pending_ == Pending::timed && timed_at_ <= at) return; // earlier pending wins
    pending_ = Pending::timed;
    timed_at_ = at;
    sim_.schedule_timed(*this, at);
}

void Event::cancel() {
    if (pending_ == Pending::timed) sim_.cancel_timed(*this);
    pending_ = Pending::none;
}

// -------------------------------------------------------------- Simulator

Simulator::Simulator() {
    prev_current_ = g_current_sim;
    g_current_sim = this;
}

Simulator::~Simulator() { g_current_sim = prev_current_; }

Simulator& Simulator::current() {
    if (!g_current_sim) throw SimulationError("no active Simulator on this thread");
    return *g_current_sim;
}

Simulator* Simulator::current_or_null() noexcept { return g_current_sim; }

Process& Simulator::spawn(std::string name, std::function<void()> body,
                          std::size_t stack_bytes) {
    auto proc = std::unique_ptr<Process>(
        new Process(*this, std::move(name), std::move(body), stack_bytes));
    Process& p = *proc;
    processes_.push_back(std::move(proc));
    p.runnable_ = true;
    runnable_.push_back(&p);
    return p;
}

Process& Simulator::require_process(const char* what) const {
    if (!current_process_)
        throw SimulationError(std::string(what) + " called outside of a process");
    return *current_process_;
}

// ---- event machinery ----

void Simulator::schedule_timed(Event& e, Time at) {
    // Rescheduling earlier: the previous wheel entry is cancelled through
    // its handle, never left to go stale.
    if (e.timed_handle_.valid())
        wheel_.cancel(e.timed_handle_);
    else
        ++live_timed_; // a reschedule is already counted
    e.timed_handle_ = wheel_.insert(at, now_, order_counter_++,
                                    TimingWheel::Kind::event_notify, &e, nullptr);
}

void Simulator::cancel_timed(Event& e) noexcept {
    if (e.timed_handle_.valid()) {
        wheel_.cancel(e.timed_handle_);
        e.timed_handle_.reset();
        --live_timed_;
    }
}

void Simulator::add_delta_pending(Event& e) { delta_pending_.push_back(&e); }

void Simulator::trigger(Event& e) {
    if (e.waiters_.empty()) return;
    // Waking modifies e.waiters_ via clear_wait_state; iterate over a
    // swapped-out copy. wake() runs no user code, so trigger() never
    // re-enters and one recycled scratch buffer keeps it allocation-free.
    trigger_scratch_.clear();
    trigger_scratch_.swap(e.waiters_);
    for (Process* p : trigger_scratch_) wake(*p, Process::WakeReason::event);
}

void Simulator::purge_event(Event& e) {
    // Unregister from any process still waiting on e (an armed timeout is
    // then its only wake source).
    for (Process* p : e.waiters_) p->waiting_on_ = nullptr;
    e.waiters_.clear();
    std::erase(delta_pending_, &e);
    // Cancel a pending timed notification through the handle: the wheel
    // never dereferences the Event, so destroying one mid-schedule is safe
    // (the old priority queue popped and inspected the dangling pointer).
    cancel_timed(e);
}

void Simulator::wake(Process& p, Process::WakeReason reason) {
    if (p.runnable_ || p.terminated_) return;
    clear_wait_state(p);
    p.wake_reason_ = reason;
    p.runnable_ = true;
    runnable_.push_back(&p);
}

void Simulator::clear_wait_state(Process& p) {
    if (p.waiting_on_ != nullptr) {
        std::erase(p.waiting_on_->waiters_, &p);
        p.waiting_on_ = nullptr;
    }
    if (p.timeout_armed_) {
        ++p.timeout_seq_; // invalidates a zero-waiter entry, if any
        p.timeout_armed_ = false;
        if (p.timeout_counted_) {
            p.timeout_counted_ = false;
            --live_timed_;
        }
        if (hot_.proc == &p) {
            hot_.proc = nullptr; // staged: dropped in place, no tombstone
        } else if (p.timeout_handle_.valid()) {
            wheel_.cancel(p.timeout_handle_);
            p.timeout_handle_.reset();
        }
    }
}

void Simulator::arm_timeout(Process& p, Time timeout) {
    ++p.timeout_seq_;
    p.timeout_armed_ = true;
    const Time at = now_ + timeout; // saturating: Time::max() means "never"
    if (at == Time::max()) return;  // no wheel entry: the timeout cannot fire
    if (!p.background_) {
        // Snapshot the background flag at arm time: toggling it while the
        // timeout is in flight must not unbalance the live-work count.
        p.timeout_counted_ = true;
        ++live_timed_;
    }
    if (skip_ahead_) {
        // Stage the newest timeout; in the dominant compute/charge pattern
        // it is also the next to fire and never touches the wheel.
        if (hot_.proc != nullptr) flush_hot();
        hot_ = HotTimeout{&p, at, order_counter_++};
        return;
    }
    p.timeout_handle_ = wheel_.insert(
        at, now_, order_counter_++, TimingWheel::Kind::process_timeout,
        nullptr, &p);
}

void Simulator::flush_hot() {
    Process* p = hot_.proc;
    hot_.proc = nullptr;
    // The original order stamp keeps the FIFO tie-break identical to a
    // direct insert at arm time.
    p->timeout_handle_ = wheel_.insert(
        hot_.at, now_, hot_.order, TimingWheel::Kind::process_timeout,
        nullptr, p);
}

void Simulator::suspend_current() {
    Process& p = *current_process_;
    p.wake_reason_ = Process::WakeReason::none;
    p.coro_->yield();
    // A kill posted while this process was suspended surfaces here, on the
    // process's own stack, so the wait()er's frames unwind with RAII intact.
    if (p.kill_requested_) {
        p.kill_requested_ = false;
        throw ProcessKilled(p.name_);
    }
}

void Simulator::kill_process(Process& p) {
    if (p.terminated_) return;
    if (&p == current_process_) {
        p.kill_requested_ = false;
        throw ProcessKilled(p.name_);
    }
    if (!p.coro_->started()) {
        // No live stack to unwind: retire the process in place.
        p.terminated_ = true;
        clear_wait_state(p);
        std::erase(runnable_, &p);
        p.runnable_ = false;
        p.done_event_->notify_delta();
        return;
    }
    p.kill_requested_ = true;
    wake(p, Process::WakeReason::killed);
}

// ---- wait services ----

void Simulator::yield() {
    Process& p = require_process("yield()");
    // The evaluate sweep already dequeued this process (runnable_ false);
    // re-appending lets the same index-based FIFO sweep pick it up again
    // after everything queued ahead of it.
    p.runnable_ = true;
    runnable_.push_back(&p);
    suspend_current();
}

bool Simulator::pending_activity_at_current_time() const noexcept {
    // Timed entries due at now() are left out on purpose: the run loop
    // advances the timed queue only once the runnable queue, the delta
    // notifications and the zero-time waiters have all drained, so they
    // cannot fire between the caller's suspension and its resumption.
    return sweep_cursor_ + 1 < runnable_.size() || !delta_pending_.empty() ||
           !zero_waiters_.empty() || !update_requests_.empty() ||
           stop_requested_;
}

void Simulator::wait(Time duration) {
    Process& p = require_process("wait(Time)");
    if (duration.is_zero()) {
        // One delta cycle: a private delta-notified wake through the done
        // machinery would be heavier; reuse the timeout path at +0 is wrong
        // (same-instant timeouts fire in a later *timed* batch). Use a
        // dedicated delta wake instead.
        ++p.timeout_seq_;
        p.timeout_armed_ = true;
        zero_waiters_.push_back({&p, p.timeout_seq_});
        suspend_current();
        return;
    }
    arm_timeout(p, duration);
    suspend_current();
}

void Simulator::wait(Event& e) {
    Process& p = require_process("wait(Event)");
    e.waiters_.push_back(&p);
    p.waiting_on_ = &e;
    suspend_current();
}

Process::WakeReason Simulator::wait(Time timeout, Event& e) {
    Process& p = require_process("wait(Time, Event)");
    e.waiters_.push_back(&p);
    p.waiting_on_ = &e;
    arm_timeout(p, timeout);
    suspend_current();
    return p.wake_reason_;
}

void Simulator::request_update(UpdateHook& hook) {
    if (std::find(update_requests_.begin(), update_requests_.end(), &hook) ==
        update_requests_.end())
        update_requests_.push_back(&hook);
}

// ---- the scheduling loop ----

bool Simulator::advance_time(Time limit) {
    if (hot_.proc != nullptr) {
        if (hot_.at.raw_ps() < wheel_.next_lower_bound()) {
            // Skip-ahead fast path: the staged timeout fires strictly before
            // anything the wheel could produce (the bound is conservative:
            // a tie or a stale bound falls through to the general path,
            // which restores the event-before-timeout and FIFO ordering).
            if (hot_.at > limit) return false;
            Process* p = hot_.proc;
            hot_.proc = nullptr;
            if (hot_.at > now_) {
                now_ = hot_.at;
                deltas_this_instant_ = 0;
            }
            p->timeout_armed_ = false;
            if (p->timeout_counted_) {
                p->timeout_counted_ = false;
                --live_timed_;
            }
            wake(*p, Process::WakeReason::timeout);
            return true;
        }
        flush_hot();
    }
    Time t{};
    if (!wheel_.pop_due(limit, t, fired_batch_)) return false;
    if (t > now_) {
        now_ = t;
        deltas_this_instant_ = 0;
    }
    for (const TimingWheel::Fired& f : fired_batch_) {
        // An earlier wake in this batch may have cancelled the entry
        // (e.g. an event waking a process whose timeout shares the
        // instant); take() claims it exactly once.
        if (!wheel_.take(f.h)) continue;
        if (f.kind == TimingWheel::Kind::event_notify) {
            f.ev->timed_handle_.reset();
            f.ev->pending_ = Event::Pending::none;
            --live_timed_;
            trigger(*f.ev);
        } else {
            f.proc->timeout_handle_.reset();
            f.proc->timeout_armed_ = false;
            if (f.proc->timeout_counted_) {
                f.proc->timeout_counted_ = false;
                --live_timed_;
            }
            wake(*f.proc, Process::WakeReason::timeout);
        }
    }
    fired_batch_.clear();
    return true;
}

void Simulator::evaluate_phase() {
    // Index-based FIFO over a plain vector: processes woken mid-phase append
    // and are picked up by the same sweep. Visited slots are nulled so a
    // kill_process() erase (which only matches live queue entries) cannot
    // shift unvisited elements across the cursor. If a process body throws,
    // the nulls are dropped so only unprocessed entries remain queued.
    try {
    for (sweep_cursor_ = 0; sweep_cursor_ < runnable_.size(); ++sweep_cursor_) {
        Process* p = runnable_[sweep_cursor_];
        if (p == nullptr) continue;
        runnable_[sweep_cursor_] = nullptr;
        p->runnable_ = false;
        if (p->terminated_) continue;
        current_process_ = p;
        ++activations_;
        ++p->activations_;
        p->coro_->resume();
        current_process_ = nullptr;
        if (p->coro_->finished()) {
            p->terminated_ = true;
            clear_wait_state(*p);
            p->done_event_->notify_delta();
        }
    }
    } catch (...) {
        std::erase(runnable_, static_cast<Process*>(nullptr));
        throw;
    }
    runnable_.clear();
}

void Simulator::update_phase() {
    if (update_requests_.empty()) return;
    update_scratch_.clear();
    update_scratch_.swap(update_requests_);
    for (UpdateHook* h : update_scratch_) h->update();
}

void Simulator::delta_notify_phase() {
    if (!delta_pending_.empty()) {
        delta_scratch_.clear();
        delta_scratch_.swap(delta_pending_);
        for (Event* e : delta_scratch_) {
            if (e->pending_ != Event::Pending::delta) continue; // cancelled/overridden
            e->pending_ = Event::Pending::none;
            trigger(*e);
        }
    }
    if (!zero_waiters_.empty()) {
        zero_scratch_.clear();
        zero_scratch_.swap(zero_waiters_);
        for (const ZeroWaiter& z : zero_scratch_) {
            if (z.proc->timeout_armed_ && z.proc->timeout_seq_ == z.seq) {
                z.proc->timeout_armed_ = false;
                wake(*z.proc, Process::WakeReason::timeout);
            }
        }
    }
    ++delta_count_;
    if (++deltas_this_instant_ > max_deltas_per_instant_)
        reporter_.report(Severity::error,
                         "delta-cycle limit exceeded at t=" + now_.to_string() +
                             " (zero-delay activity loop?)");
}

void Simulator::run_loop(Time limit) {
    if (running_) {
        // Re-entrant invocation (typically run()/run_until() called from
        // inside a process) would corrupt the scheduler state; refuse with a
        // diagnostic through the Reporter (error severity throws).
        std::string msg = "Simulator::run()/run_until() is not reentrant";
        if (current_process_ != nullptr)
            msg += " (called from inside process '" + current_process_->name_ + "')";
        reporter_.report(Severity::error, msg);
        return; // unreachable: error severity throws
    }
    running_ = true;
    stop_requested_ = false;
    // Host self-profiling wraps each phase in two steady_clock reads; the
    // timed wrapper compiles down to the plain call when disabled. It must
    // not perturb the phase sequencing in any way — only measure it.
    const auto timed = [this](auto&& phase, std::uint64_t& acc) {
        if (!host_profiling_) return phase();
        const auto t0 = std::chrono::steady_clock::now();
        using R = decltype(phase());
        if constexpr (std::is_void_v<R>) {
            phase();
            acc += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        } else {
            R r = phase();
            acc += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            return r;
        }
    };
    try {
        while (!stop_requested_) {
            if (runnable_.empty() && delta_pending_.empty() && zero_waiters_.empty()) {
                // Open-ended run: background heartbeats alone are not work.
                // An explicit run_until() horizon keeps them ticking to it.
                if (limit == Time::max() && live_timed_ == 0) break;
                if (!timed([&] { return advance_time(limit); },
                           host_profile_.advance_ns))
                    break;
            }
            timed([&] { evaluate_phase(); }, host_profile_.evaluate_ns);
            if (skip_ahead_ && update_requests_.empty() &&
                delta_pending_.empty() && zero_waiters_.empty()) {
                // Skip-ahead: the update and delta-notification phases have
                // nothing to do; count the empty delta cycle exactly as
                // delta_notify_phase() would and return to the timed queue.
                // The per-instant delta guard is not needed here: with no
                // pending delta activity, time strictly advances (or the run
                // ends) before the next evaluation.
                ++delta_count_;
                ++deltas_this_instant_;
                continue;
            }
            timed([&] { update_phase(); }, host_profile_.update_ns);
            timed([&] { delta_notify_phase(); }, host_profile_.delta_notify_ns);
        }
    } catch (...) {
        running_ = false;
        throw;
    }
    running_ = false;
}

void Simulator::check_for_stall() {
    stall_report_ = StallReport{};
    stall_report_.at = now_;
    for (const auto& up : processes_) {
        const Process& p = *up;
        if (p.terminated_ || p.runnable_ || p.daemon_ || !p.coro_->started())
            continue;
        stall_report_.blocked.push_back(
            {p.name_, p.waiting_on_ != nullptr ? p.waiting_on_->name()
                                               : "<nothing: suspended forever>"});
    }
    if (stall_report_.detected())
        reporter_.report(Severity::warning, stall_report_.to_string());
}

std::string Simulator::StallReport::to_string() const {
    std::string msg = "deadlock/stall at t=" + at.to_string() + ": " +
                      std::to_string(blocked.size()) +
                      " process(es) blocked with no pending activity";
    for (const auto& b : blocked) {
        msg += "\n  " + b.process + " waits on: " + b.waiting_on;
    }
    return msg;
}

void Simulator::run() {
    run_loop(Time::max());
    // The run went dry (rather than being stopped): with detection enabled,
    // diagnose processes that are still blocked and can never wake.
    if (deadlock_detection_ && !stop_requested_) check_for_stall();
}

void Simulator::run_until(Time t) {
    run_loop(t);
    if (now_ < t && !stop_requested_) now_ = t;
}

} // namespace rtsc::kernel
