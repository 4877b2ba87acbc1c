#pragma once
// MCSE counting-semaphore relation. The paper lists synchronization "based
// on events or semaphores" among the standard RTOS communication mechanisms
// (§2); the Event relation covers the signal/await style, this class covers
// resource-counting synchronization: acquire() blocks while the count is
// zero, release() increments it and wakes a waiter.
//
// Like every relation, it is RTOS-aware (software tasks block in the Waiting
// state and free their processor) and usable from hardware processes (kernel
// level blocking), so it can guard resources shared across the HW/SW
// boundary. Waiters are served in FIFO order by default, or by effective
// priority (the common RTOS option) when constructed with WakeOrder::priority.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>

#include "mcse/relation.hpp"
#include "rtos/engine.hpp"

namespace rtsc::mcse {

enum class WakeOrder : std::uint8_t { fifo, priority };

class Semaphore final : public Relation {
public:
    Semaphore(std::string name, std::uint64_t initial,
              WakeOrder order = WakeOrder::fifo)
        : Relation(std::move(name)),
          count_(initial),
          order_(order),
          was_zero_(initial == 0) {}

    [[nodiscard]] const char* type_name() const noexcept override {
        return "semaphore";
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return count_; }
    [[nodiscard]] WakeOrder wake_order() const noexcept { return order_; }

    /// Take one unit, blocking while the count is zero. A blocked task
    /// waiter receives its unit by *reservation*: release() decrements the
    /// count on the waiter's behalf before waking it, so no try_acquire or
    /// later-arriving caller can barge in between wake-up and resumption.
    void acquire() { (void)acquire_until(std::nullopt); }

    /// Bounded-wait acquire: gives up after `timeout`; returns whether a
    /// unit was taken. A delivery racing the deadline at the same instant
    /// wins (the unit is already reserved for this waiter), matching the
    /// kernel's wait(Time, Event&) tie rule. (Extension: timed acquires are
    /// a standard RTOS semaphore primitive.)
    [[nodiscard]] bool acquire_for(kernel::Time timeout) {
        return acquire_until(now() + timeout);
    }

    /// Take one unit if available; never blocks. Units already reserved for
    /// blocked waiters are invisible here (the count is zero), so a waiter
    /// can never lose its delivery to a try_acquire.
    [[nodiscard]] bool try_acquire() {
        if (count_ == 0) return false;
        take_unit();
        if (rtos::Task* task = rtos::current_task()) notify_acquire(*task);
        record(rtos::current_task(), AccessKind::lock_op);
        return true;
    }

    /// Give one unit back (or produce one). If a task waiter is registered,
    /// the unit is reserved for it on the spot (FIFO or best effective
    /// priority per the wake order): the count goes straight back to zero
    /// and the chosen waiter is made ready with `delivered` set.
    void release() {
        ++count_;
        account_zero();
        if (rtos::Task* task = rtos::current_task()) {
            task->processor().notify(&rtos::TaskObserver::on_resource_release,
                                     task->processor(), *task, *this);
        }
        deliver_one();
        hw_wake().notify();
        record(rtos::current_task(), AccessKind::unlock_op);
    }

    /// RAII guard: acquire on construction, release on destruction.
    class Guard {
    public:
        explicit Guard(Semaphore& s) : s_(s) { s_.acquire(); }
        ~Guard() { s_.release(); }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;

    private:
        Semaphore& s_;
    };

    /// Fraction of elapsed time the semaphore was exhausted (count == 0) —
    /// the natural contention measure for Figure-8-style reports.
    [[nodiscard]] double utilization() const override {
        auto exhausted = exhausted_time_;
        if (count_ == 0) exhausted += now() - last_zero_edge_;
        const double total = now().to_sec();
        return total <= 0.0 ? 0.0 : exhausted.to_sec() / total;
    }

private:
    /// The one acquire body. A blocked task waiter receives its unit by
    /// reservation (deliver_one); a hardware caller re-checks the count
    /// after every notification. Neither suspends once the deadline has
    /// passed.
    bool acquire_until(const Deadline& deadline) {
        Access a(*this);
        bool got = true;
        if (a.task != nullptr && count_ == 0) {
            got = false;
            if (!expired(deadline)) {
                TaskWaiter w{a.task};
                UnitGuard unit(*this, w); // unwind-safe: never leak the unit
                got = block_until(a, w, waiters_, rtos::TaskState::waiting,
                                  deadline);
                unit.armed = false; // a delivery reserved our unit; consume it
            }
        } else {
            while (count_ == 0) {
                if (expired(deadline)) {
                    got = false;
                    break;
                }
                hw_wait(a, deadline);
            }
            if (got) {
                take_unit();
                if (a.task != nullptr) notify_acquire(*a.task);
            }
        }
        record(a, AccessKind::lock_op);
        return got;
    }

    void take_unit() {
        --count_;
        account_zero();
    }

    /// Reserve one available unit for one live task waiter (if both exist):
    /// decrement the count on the waiter's behalf and deliver it. FIFO order
    /// serves the front of the queue; priority order the best effective
    /// priority. Ownership of the unit transfers at the reservation instant.
    void deliver_one() {
        if (count_ == 0) return;
        TaskWaiter* w = take_waiter(waiters_, order_ == WakeOrder::priority);
        if (w == nullptr) return;
        take_unit();
        notify_acquire(*w->task);
        deliver(*w);
    }

    void notify_acquire(rtos::Task& task) {
        task.processor().notify(&rtos::TaskObserver::on_resource_acquire,
                                task.processor(), task, *this);
    }

    /// A delivered-but-unconsumed unit flows back when the waiter's stack
    /// unwinds (kill/crash between delivery and resumption); the next waiter
    /// inherits it.
    struct UnitGuard {
        Semaphore& s;
        TaskWaiter& w;
        bool armed = true;
        UnitGuard(Semaphore& sem, TaskWaiter& waiter) : s(sem), w(waiter) {}
        ~UnitGuard() {
            if (!armed || !w.delivered) return;
            ++s.count_;
            s.account_zero();
            s.deliver_one();
            s.hw_wake().notify();
        }
    };

    /// Track time spent at count == 0.
    void account_zero() {
        const bool zero_now = count_ == 0;
        if (zero_now && !was_zero_) {
            last_zero_edge_ = now();
        } else if (!zero_now && was_zero_) {
            exhausted_time_ += now() - last_zero_edge_;
        }
        was_zero_ = zero_now;
    }

    std::uint64_t count_;
    WakeOrder order_;
    std::deque<TaskWaiter*> waiters_;
    bool was_zero_ = false;
    kernel::Time last_zero_edge_{};
    kernel::Time exhausted_time_{};
};

} // namespace rtsc::mcse
