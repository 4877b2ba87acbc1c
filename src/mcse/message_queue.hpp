#pragma once
// MCSE Message-queue relation (§2): "it implements a producer/consumer type
// of relation. Its message capacity is a parameter."
//
// Bounded or unbounded FIFO of typed messages. read() blocks on empty,
// write() blocks on full (bounded queues). Software tasks block in the RTOS
// Waiting state; hardware processes block at kernel level, so queues can
// cross the HW/SW boundary.

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "mcse/relation.hpp"
#include "rtos/engine.hpp"

namespace rtsc::mcse {

template <typename T>
class MessageQueue final : public Relation {
public:
    /// capacity == 0 means unbounded.
    MessageQueue(std::string name, std::size_t capacity)
        : Relation(std::move(name)), capacity_(capacity) {}

    [[nodiscard]] const char* type_name() const noexcept override {
        return "message_queue";
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool unbounded() const noexcept { return capacity_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] bool full() const noexcept {
        return !unbounded() && buf_.size() >= capacity_;
    }

    /// Append a message, blocking while the queue is full. If a task reader
    /// is blocked on the queue, the message is handed to it by *reservation*
    /// at write time (popped into the waiter's slot before it is woken), so
    /// no try_read or later-arriving reader can barge in between its wake-up
    /// and resumption.
    void write(T msg) {
        Access a(*this);
        while (full()) {
            if (a.task != nullptr) {
                TaskWaiter w{a.task};
                block_until(a, w, write_waiters_, rtos::TaskState::waiting,
                            std::nullopt);
            } else {
                hw_wait(a, std::nullopt);
            }
        }
        // Fault injection: the sender believes the message went out; the
        // queue never sees it.
        if (!lose_transfer()) {
            push(std::move(msg));
            deliver_reader();
            hw_wake().notify();
        }
        record(a, AccessKind::write_op);
    }

    /// Remove the oldest message, blocking while the queue is empty.
    [[nodiscard]] T read() { return *read_until(std::nullopt); }

    /// Bounded-wait read: like read(), but gives up after `timeout`.
    /// Returns whether a message was received. A delivery racing the
    /// deadline at the same instant wins (the message already sits in this
    /// waiter's slot), matching the kernel's wait(Time, Event&) tie rule.
    /// (Extension: timed receives are a standard RTOS message-queue
    /// primitive.)
    [[nodiscard]] bool read_for(T& out, kernel::Time timeout) {
        std::optional<T> msg = read_until(now() + timeout);
        if (msg) out = std::move(*msg);
        return msg.has_value();
    }

    /// Non-blocking write; returns false when full.
    [[nodiscard]] bool try_write(T msg) {
        if (full()) return false;
        // A lost message still reports success: the sender believes it went out.
        if (!lose_transfer()) {
            push(std::move(msg));
            deliver_reader();
            hw_wake().notify();
        }
        record(rtos::current_task(), AccessKind::write_op);
        return true;
    }

    /// Non-blocking read; returns false when empty. Messages already
    /// reserved for blocked readers are invisible here (the buffer is
    /// empty), so a waiter can never lose its delivery to a try_read.
    [[nodiscard]] bool try_read(T& out) {
        if (buf_.empty()) return false;
        out = pop();
        wake_one(write_waiters_);
        hw_wake().notify();
        record(rtos::current_task(), AccessKind::read_op);
        return true;
    }

    // ---- occupancy statistics ----
    [[nodiscard]] std::uint64_t messages_written() const noexcept { return written_; }
    [[nodiscard]] std::size_t max_occupancy() const noexcept { return max_occupancy_; }
    /// Time-averaged occupancy (messages).
    [[nodiscard]] double average_occupancy() const {
        const double total = now().to_sec();
        return total <= 0.0 ? 0.0 : occupancy_integral_sec() / total;
    }
    /// Fraction of elapsed time the queue was non-empty.
    [[nodiscard]] double utilization() const override {
        const auto busy = non_empty_time_ +
                          (buf_.empty() ? kernel::Time::zero() : now() - last_change_);
        const double total = now().to_sec();
        return total <= 0.0 ? 0.0 : busy.to_sec() / total;
    }

private:
    /// A blocked task reader; delivery fills `slot` before the wake-up.
    struct ReadWaiter : TaskWaiter {
        std::optional<T> slot;
    };

    /// The one read body. A task reader with an empty buffer registers a
    /// ReadWaiter and is handed its message by reservation (deliver_reader);
    /// a hardware reader re-checks the buffer after every notification.
    /// Neither suspends once the deadline has passed.
    std::optional<T> read_until(const Deadline& deadline) {
        Access a(*this);
        std::optional<T> msg;
        if (a.task != nullptr && buf_.empty()) {
            if (!expired(deadline)) {
                ReadWaiter w{{a.task}, {}};
                MsgGuard msg_guard(*this, w); // unwind-safe: re-queue the msg
                if (block_until(a, w, read_waiters_, rtos::TaskState::waiting,
                                deadline)) {
                    msg_guard.armed = false;
                    msg = std::move(w.slot);
                }
            }
            record(a, AccessKind::read_op);
            return msg;
        }
        while (buf_.empty()) {
            if (expired(deadline)) {
                record(a, AccessKind::read_op);
                return msg;
            }
            hw_wait(a, deadline);
        }
        msg = pop();
        wake_one(write_waiters_);
        hw_wake().notify();
        record(a, AccessKind::read_op);
        return msg;
    }

    /// Hand the oldest buffered message to the oldest live task reader, if
    /// both exist: pop it into the waiter's slot and deliver it. Freeing the
    /// buffer slot may in turn admit a blocked writer. Only read_until
    /// registers waiters in read_waiters_, so the downcast is safe.
    void deliver_reader() {
        bool popped = false;
        while (!buf_.empty()) {
            TaskWaiter* w = take_waiter(read_waiters_);
            if (w == nullptr) break;
            static_cast<ReadWaiter*>(w)->slot = pop();
            popped = true;
            deliver(*w);
        }
        if (popped) {
            wake_one(write_waiters_);
            hw_wake().notify();
        }
    }

    /// A delivered-but-unconsumed message flows back to the front of the
    /// buffer when the reader's stack unwinds (kill/crash between delivery
    /// and resumption); the next reader inherits it.
    struct MsgGuard {
        MessageQueue& q;
        ReadWaiter& w;
        bool armed = true;
        MsgGuard(MessageQueue& queue, ReadWaiter& waiter) : q(queue), w(waiter) {}
        ~MsgGuard() {
            if (!armed || !w.delivered || !w.slot.has_value()) return;
            q.account_change();
            q.buf_.push_front(std::move(*w.slot));
            q.max_occupancy_ = std::max(q.max_occupancy_, q.buf_.size());
            q.deliver_reader();
            q.hw_wake().notify();
        }
    };

    void account_change() {
        const kernel::Time t = now();
        const kernel::Time d = t - last_change_;
        occupancy_time_weight_ += static_cast<double>(buf_.size()) * d.to_sec();
        if (!buf_.empty()) non_empty_time_ += d;
        last_change_ = t;
    }

    [[nodiscard]] double occupancy_integral_sec() const {
        return occupancy_time_weight_ +
               static_cast<double>(buf_.size()) * (now() - last_change_).to_sec();
    }

    void push(T msg) {
        account_change();
        buf_.push_back(std::move(msg));
        ++written_;
        max_occupancy_ = std::max(max_occupancy_, buf_.size());
    }

    [[nodiscard]] T pop() {
        account_change();
        T msg = std::move(buf_.front());
        buf_.pop_front();
        return msg;
    }

    std::size_t capacity_;
    std::deque<T> buf_;
    std::deque<TaskWaiter*> read_waiters_;
    std::deque<TaskWaiter*> write_waiters_;

    std::uint64_t written_ = 0;
    std::size_t max_occupancy_ = 0;
    kernel::Time last_change_{};
    kernel::Time non_empty_time_{};
    double occupancy_time_weight_ = 0.0;
};

} // namespace rtsc::mcse
