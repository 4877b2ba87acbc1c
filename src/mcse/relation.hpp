#pragma once
// Base machinery for MCSE functional-model communication relations (§2).
//
// The MCSE methodology describes a system as functions (tasks) communicating
// through three kinds of relations: events (synchronization), message queues
// (producer/consumer) and shared variables (data under mutual exclusion).
// These relations are RTOS-aware: a *software* task blocking on one enters
// the RTOS Waiting state and frees its processor; a *hardware* process
// (plain kernel process) blocks at kernel level. A relation can therefore
// connect HW and SW sides of a co-simulated model transparently.
//
// One blocking path. Every blocking operation has a single body taking a
// Deadline: the untimed call (await, read, acquire, ...) passes none, the
// bounded one (await_for, read_for, acquire_for) passes now() + timeout —
// the ITRON shape, where wai_sem is twai_sem(TMO_FEVR). The body suspends
// through one of two helpers:
//   block_until — a software task registers a TaskWaiter and blocks in the
//                 RTOS (the paper's TaskIsBlocked); without a deadline via
//                 the engine's block(), with one via block_timed();
//   hw_wait     — a hardware process waits on hw_wake(); without a deadline
//                 a plain kernel::wait.
// Wakers *deliver* a task waiter: they reserve what it waits for (a message,
// a unit, an occurrence), mark it and make its task ready, skipping waiters
// whose task is already gone. Hardware processes re-check their predicate
// after every notification. An Access carries one operation's blocked
// bookkeeping into record().

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "kernel/event.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"
#include "rtos/processor.hpp"
#include "rtos/task.hpp"

namespace rtsc::mcse {

class Relation;

/// What a task/process did on a relation; recorded for the TimeLine chart
/// ("a vertical arrow represents a task accessing a communications link and
/// the arrow style informs on the kind of access").
enum class AccessKind : std::uint8_t {
    signal_op, ///< event signalled
    await_op,  ///< event awaited
    write_op,  ///< message/data written
    read_op,   ///< message/data read
    lock_op,   ///< mutual-exclusion resource acquired
    unlock_op, ///< mutual-exclusion resource released
};

[[nodiscard]] constexpr const char* to_string(AccessKind k) noexcept {
    switch (k) {
        case AccessKind::signal_op: return "signal";
        case AccessKind::await_op: return "await";
        case AccessKind::write_op: return "write";
        case AccessKind::read_op: return "read";
        case AccessKind::lock_op: return "lock";
        case AccessKind::unlock_op: return "unlock";
    }
    return "?";
}

/// Observer of communication accesses; the trace layer implements this.
class CommObserver {
public:
    virtual ~CommObserver() = default;
    /// `task` is nullptr for hardware-process accesses. `blocked` tells
    /// whether the caller had to wait before the access completed.
    virtual void on_access(const Relation& rel, const rtos::Task* task,
                           AccessKind kind, bool blocked) = 0;
};

class Relation {
public:
    explicit Relation(std::string name)
        : sim_(kernel::Simulator::current()),
          name_(std::move(name)),
          hw_wake_(name_ + ".hw_wake") {}

    virtual ~Relation() = default;
    Relation(const Relation&) = delete;
    Relation& operator=(const Relation&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] virtual const char* type_name() const noexcept = 0;

    /// Subscribe `obs`; subscribing the same observer again is a no-op.
    void add_observer(CommObserver& obs) {
        if (std::find(observers_.begin(), observers_.end(), &obs) == observers_.end())
            observers_.push_back(&obs);
    }

    // ---- accumulated statistics (Figure 8 "(4)" channel utilisation) ----
    struct AccessStats {
        std::uint64_t accesses = 0;      ///< total operations
        std::uint64_t blocked_accesses = 0;
        kernel::Time blocked_time{};     ///< total time callers spent blocked
    };
    [[nodiscard]] const AccessStats& access_stats() const noexcept { return stats_; }

    /// Relation-type-specific utilisation in [0,1] over the elapsed time
    /// (queues: fraction of time non-empty; shared variables: fraction of
    /// time locked; events: fraction of awaits that had to block).
    [[nodiscard]] virtual double utilization() const = 0;

    // ---- fault injection ----

    /// Loss hook: consulted on each transfer the relation chooses to subject
    /// to loss (MessageQueue writes); returning true drops the transfer.
    /// Installed by fault::FaultInjector; one hook per relation.
    void set_loss_hook(std::function<bool()> hook) { loss_hook_ = std::move(hook); }
    /// Transfers dropped by the loss hook so far.
    [[nodiscard]] std::uint64_t lost() const noexcept { return lost_; }

protected:
    /// When a blocking operation gives up; std::nullopt waits forever.
    using Deadline = std::optional<kernel::Time>;

    /// A registered software-task waiter; lives on the waiting task's stack.
    struct TaskWaiter {
        rtos::Task* task;
        bool delivered = false;

        /// The task was killed, crashed or terminated: its stack is
        /// unwinding, so a delivery would lose the wake-up.
        [[nodiscard]] bool stale() const noexcept {
            return task->killed() || task->crashed() || task->terminated();
        }
    };

    /// RAII deregistration: removes the waiter from its list on scope exit,
    /// so a kill()/crash unwinding through a blocked task never leaves a
    /// dangling stack pointer registered with the relation. Erasing an
    /// already-removed waiter is a no-op.
    class WaiterGuard {
    public:
        WaiterGuard(TaskWaiter& w, std::deque<TaskWaiter*>& list)
            : w_(w), list_(list) {}
        ~WaiterGuard() {
            const auto it = std::find(list_.begin(), list_.end(), &w_);
            if (it != list_.end()) list_.erase(it);
        }
        WaiterGuard(const WaiterGuard&) = delete;
        WaiterGuard& operator=(const WaiterGuard&) = delete;

    private:
        TaskWaiter& w_;
        std::deque<TaskWaiter*>& list_;
    };

    /// One operation in flight: who performs it (nullptr for a hardware
    /// process), when it started, and whether it had to suspend.
    struct Access {
        explicit Access(const Relation& rel)
            : task(rtos::current_task()), started(rel.now()) {}
        rtos::Task* task;
        kernel::Time started;
        bool blocked = false;
    };

    /// True when the loss hook decides to drop this transfer (also counts it).
    bool lose_transfer() {
        if (loss_hook_ && loss_hook_()) {
            ++lost_;
            return true;
        }
        return false;
    }

    [[nodiscard]] kernel::Time now() const noexcept { return sim_.now(); }
    [[nodiscard]] bool expired(const Deadline& deadline) const noexcept {
        return deadline && now() >= *deadline;
    }

    /// Record a completed access. The single accounting rule every relation
    /// op follows: `blocked` is whether the caller had to suspend before the
    /// operation could proceed (even when it was woken within the same
    /// instant), `blocked_for` is `now() - started` when it did and zero
    /// otherwise — see blocked_for(Access).
    void record(const rtos::Task* task, AccessKind kind,
                kernel::Time blocked_for, bool blocked) {
        ++stats_.accesses;
        if (blocked) {
            ++stats_.blocked_accesses;
            stats_.blocked_time += blocked_for;
        }
        for (CommObserver* o : observers_)
            o->on_access(*this, task, kind, blocked);
    }
    /// A non-blocking access.
    void record(const rtos::Task* task, AccessKind kind) {
        record(task, kind, kernel::Time::zero(), false);
    }
    void record(const Access& a, AccessKind kind) {
        record(a.task, kind, blocked_for(a), a.blocked);
    }
    [[nodiscard]] kernel::Time blocked_for(const Access& a) const noexcept {
        return a.blocked ? now() - a.started : kernel::Time::zero();
    }

    /// Block the calling software task in `state` until a waker delivers
    /// `w` or `deadline` passes; returns whether `w` was delivered (a
    /// delivery racing the deadline at the same instant wins). Suspends at
    /// least once — callers that must not block on an already expired
    /// deadline check expired() first — and re-blocks after a re-dispatch
    /// that was neither a delivery nor the deadline.
    bool block_until(Access& a, TaskWaiter& w, std::deque<TaskWaiter*>& list,
                     rtos::TaskState state, const Deadline& deadline) {
        list.push_back(&w);
        WaiterGuard guard(w, list); // unwind/timeout-safe deregistration
        rtos::SchedulerEngine& eng = w.task->processor().engine();
        a.blocked = true;
        do {
            eng.set_block_context(this);
            if (deadline)
                (void)eng.block_timed(*w.task, state,
                                      kernel::Time::sat_sub(*deadline, now()));
            else
                eng.block(*w.task, state);
        } while (!w.delivered && !expired(deadline));
        return w.delivered;
    }

    /// Hardware side: suspend on hw_wake() until notified or `deadline`.
    /// Call only while !expired(deadline). Returns whether the notification
    /// (rather than the deadline) ended the wait.
    bool hw_wait(Access& a, const Deadline& deadline) {
        a.blocked = true;
        if (!deadline) {
            kernel::wait(hw_wake_);
            return true;
        }
        return kernel::wait(*deadline - now(), hw_wake_) ==
               kernel::Process::WakeReason::event;
    }

    /// Drop stale waiters and take the next one to serve: the front, or
    /// `by_priority` the first with the best effective priority. nullptr
    /// when none is left.
    static TaskWaiter* take_waiter(std::deque<TaskWaiter*>& list,
                                   bool by_priority = false) {
        std::erase_if(list, [](const TaskWaiter* w) { return w->stale(); });
        if (list.empty()) return nullptr;
        auto it = list.begin();
        if (by_priority)
            it = std::max_element(list.begin(), list.end(),
                                  [](const TaskWaiter* a, const TaskWaiter* b) {
                                      return a->task->effective_priority() <
                                             b->task->effective_priority();
                                  });
        TaskWaiter* w = *it;
        list.erase(it);
        return w;
    }

    /// Mark `w` delivered and make its task ready (TaskIsReady).
    static void deliver(TaskWaiter& w) {
        w.delivered = true;
        w.task->processor().engine().make_ready(*w.task);
    }

    /// Deliver the oldest live waiter if any; returns whether one was woken.
    static bool wake_one(std::deque<TaskWaiter*>& list) {
        TaskWaiter* w = take_waiter(list);
        if (w != nullptr) deliver(*w);
        return w != nullptr;
    }

    /// Deliver every registered waiter.
    static void wake_all(std::deque<TaskWaiter*>& list) {
        while (wake_one(list)) {
        }
    }

    /// Kernel-level wake-up channel for hardware processes blocked on this
    /// relation; they re-check their predicate after every notification.
    kernel::Event& hw_wake() noexcept { return hw_wake_; }

private:
    kernel::Simulator& sim_;
    std::string name_;
    kernel::Event hw_wake_;
    std::vector<CommObserver*> observers_;
    AccessStats stats_;
    std::function<bool()> loss_hook_;
    std::uint64_t lost_ = 0;
};

} // namespace rtsc::mcse
