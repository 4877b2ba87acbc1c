// Unit tests for Event notification semantics (immediate / delta / timed,
// SystemC override rules) and the wait() family.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/simulator.hpp"

namespace k = rtsc::kernel;
using k::Event;
using k::Process;
using k::Simulator;
using k::Time;
using namespace rtsc::kernel::time_literals;

TEST(EventTest, TimedNotifyWakesWaiterAtExactTime) {
    Simulator sim;
    Event e("e");
    Time woke_at;
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke_at = sim.now();
    });
    sim.spawn("notifier", [&] {
        k::wait(10_us);
        e.notify(5_us);
    });
    sim.run();
    EXPECT_EQ(woke_at, 15_us);
}

TEST(EventTest, ImmediateNotifyWakesInCurrentEvaluationPhase) {
    Simulator sim;
    Event e("e");
    std::vector<int> order;
    sim.spawn("waiter", [&] {
        k::wait(e);
        order.push_back(2);
    });
    sim.spawn("notifier", [&] {
        k::wait(1_us);
        order.push_back(1);
        e.notify(); // immediate: waiter runs in this same evaluation phase
        order.push_back(3);
    });
    const auto deltas_before = sim.delta_count();
    sim.run();
    // Waiter resumed after the notifier yielded, same time, and because the
    // notification was immediate no extra delta cycle was required for it.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(sim.now(), 1_us);
    (void)deltas_before;
}

TEST(EventTest, DeltaNotifyWakesNextDeltaSameTime) {
    Simulator sim;
    Event e("e");
    Time woke_at = Time::max();
    std::uint64_t woke_delta = 0;
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke_at = sim.now();
        woke_delta = sim.delta_count();
    });
    sim.spawn("notifier", [&] {
        k::wait(3_us);
        e.notify_delta();
    });
    sim.run();
    EXPECT_EQ(woke_at, 3_us);
    EXPECT_GE(woke_delta, 1u);
}

TEST(EventTest, NotifyZeroIsDelta) {
    Simulator sim;
    Event e("e");
    bool woke = false;
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke = true;
        EXPECT_EQ(sim.now(), Time::zero());
    });
    sim.spawn("notifier", [&] { e.notify(Time::zero()); });
    sim.run();
    EXPECT_TRUE(woke);
}

TEST(EventTest, EarlierTimedNotifyWinsOverLater) {
    Simulator sim;
    Event e("e");
    Time woke_at;
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke_at = sim.now();
    });
    sim.spawn("notifier", [&] {
        e.notify(10_us);
        e.notify(4_us); // earlier: replaces the pending one
        e.notify(8_us); // later than pending: discarded
    });
    sim.run();
    EXPECT_EQ(woke_at, 4_us);
}

TEST(EventTest, DeltaOverridesTimed) {
    Simulator sim;
    Event e("e");
    Time woke_at = Time::max();
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke_at = sim.now();
    });
    sim.spawn("notifier", [&] {
        k::wait(2_us);
        e.notify(10_us);
        e.notify_delta(); // overrides the timed notification
    });
    sim.run();
    EXPECT_EQ(woke_at, 2_us);
}

TEST(EventTest, CancelDiscardsPendingNotification) {
    Simulator sim;
    Event e("e");
    bool woke = false;
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke = true;
    });
    sim.spawn("notifier", [&] {
        e.notify(5_us);
        k::wait(1_us);
        e.cancel();
    });
    sim.run();
    EXPECT_FALSE(woke);
}

TEST(EventTest, CancelThenRenotifyWorks) {
    Simulator sim;
    Event e("e");
    Time woke_at = Time::max();
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke_at = sim.now();
    });
    sim.spawn("notifier", [&] {
        e.notify(5_us);
        e.cancel();
        e.notify(9_us);
    });
    sim.run();
    EXPECT_EQ(woke_at, 9_us);
}

TEST(EventTest, NotifyWithNoWaitersIsLost) {
    // "Fugitive" kernel-event semantics: no memorization (the paper's
    // Event relation adds boolean/counter memorization on top of this).
    Simulator sim;
    Event e("e");
    bool woke = false;
    sim.spawn("notifier", [&] { e.notify(); });
    sim.spawn("late_waiter", [&] {
        k::wait(1_us); // starts waiting after the notify
        k::wait(e);
        woke = true;
    });
    sim.run();
    EXPECT_FALSE(woke);
}

TEST(EventTest, MultipleWaitersAllWake) {
    Simulator sim;
    Event e("e");
    int woken = 0;
    for (int i = 0; i < 5; ++i) {
        sim.spawn("w" + std::to_string(i), [&] {
            k::wait(e);
            ++woken;
        });
    }
    sim.spawn("notifier", [&] {
        k::wait(2_us);
        e.notify();
    });
    sim.run();
    EXPECT_EQ(woken, 5);
}

TEST(EventTest, WaitWithTimeoutTimesOut) {
    Simulator sim;
    Event e("e");
    Process::WakeReason reason{};
    sim.spawn("waiter", [&] {
        reason = sim.wait(5_us, e);
        EXPECT_EQ(sim.now(), 5_us);
    });
    sim.run();
    EXPECT_EQ(reason, Process::WakeReason::timeout);
}

TEST(EventTest, WaitWithTimeoutEventFirst) {
    Simulator sim;
    Event e("e");
    Process::WakeReason reason{};
    sim.spawn("waiter", [&] {
        reason = sim.wait(5_us, e);
        EXPECT_EQ(sim.now(), 2_us);
    });
    sim.spawn("notifier", [&] {
        k::wait(2_us);
        e.notify();
    });
    sim.run();
    EXPECT_EQ(reason, Process::WakeReason::event);
    // After an event wake the timeout must not fire later.
    EXPECT_EQ(sim.now(), 2_us);
}

TEST(EventTest, DestroyedEventUnregistersWaiter) {
    Simulator sim;
    auto e = std::make_unique<Event>("short_lived");
    Process::WakeReason reason{};
    Time woke_at;
    sim.spawn("waiter", [&] {
        reason = sim.wait(5_us, *e);
        woke_at = sim.now();
    });
    sim.spawn("killer", [&] {
        k::wait(1_us);
        e.reset(); // destroy while waited upon
        // A fresh event (possibly at the freed address) must not reach the
        // waiter through a stale registration.
        e = std::make_unique<Event>("fresh");
        k::wait(1_us);
        e->notify();
    });
    sim.run();
    EXPECT_EQ(reason, Process::WakeReason::timeout);
    EXPECT_EQ(woke_at, 5_us);
}

TEST(EventTest, WaitZeroIsOneDeltaNotATimeAdvance) {
    Simulator sim;
    std::vector<int> order;
    sim.spawn("a", [&] {
        k::wait(Time::zero());
        order.push_back(2);
        EXPECT_EQ(sim.now(), Time::zero());
    });
    sim.spawn("b", [&] { order.push_back(1); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventTest, HasPendingReflectsState) {
    Simulator sim;
    Event e("e");
    sim.spawn("p", [&] {
        EXPECT_FALSE(e.has_pending());
        e.notify(5_us);
        EXPECT_TRUE(e.has_pending());
        EXPECT_EQ(e.pending_time(), sim.now() + 5_us);
        e.cancel();
        EXPECT_FALSE(e.has_pending());
    });
    sim.run();
}

TEST(EventTest, MaxTimeoutMeansNever) {
    // Regression: now + Time::max() used to wrap and fire the "infinite"
    // timeout in the past, i.e. immediately. A Time::max() timeout must
    // never fire: the event still wins whenever it is delivered...
    Simulator sim;
    Event e("e");
    Process::WakeReason reason{};
    Time woke_at;
    sim.spawn("waiter", [&] {
        k::wait(25_us); // start the wait from a non-zero now()
        reason = sim.wait(Time::max(), e);
        woke_at = sim.now();
    });
    sim.spawn("notifier", [&] {
        k::wait(40_us);
        e.notify();
    });
    sim.run();
    EXPECT_EQ(reason, Process::WakeReason::event);
    EXPECT_EQ(woke_at, 40_us);
}

TEST(EventTest, MaxTimeoutWithoutDeliveryBlocksForever) {
    // ...and with no delivery the waiter stays blocked: the run goes dry at
    // the last real activity instead of jumping to t = Time::max().
    Simulator sim;
    Event e("never");
    bool woke = false;
    sim.spawn("waiter", [&] {
        (void)sim.wait(Time::max(), e);
        woke = true;
    });
    sim.spawn("other", [&] { k::wait(10_us); });
    sim.run();
    EXPECT_FALSE(woke);
    EXPECT_EQ(sim.now(), 10_us);
}

TEST(EventTest, MaxTimeoutFromTimeZero) {
    // The sentinel also holds at now() == 0 (no offset to saturate away).
    Simulator sim;
    Event e("never");
    bool woke = false;
    sim.spawn("waiter", [&] {
        (void)sim.wait(Time::max(), e);
        woke = true;
    });
    sim.run();
    EXPECT_FALSE(woke);
    EXPECT_EQ(sim.now(), Time::zero());
}

// ---- timeout-tie semantics: "on an exact tie the event wins" ----
//
// The tie must hold regardless of which side armed its timed entry first.
// Before kind-aware ordering in the timed heap, a timeout armed *before* the
// event's timed notification popped first and stole the tie.

TEST(EventTest, TimeoutTieEventWinsWhenTimeoutArmedFirst) {
    Simulator sim;
    Event e("e");
    Process::WakeReason reason{};
    Time woke_at;
    sim.spawn("waiter", [&] {
        reason = sim.wait(5_us, e); // arms the timeout entry first
        woke_at = sim.now();
    });
    sim.spawn("notifier", [&] {
        e.notify(5_us); // timed notify lands on the exact deadline
    });
    sim.run();
    EXPECT_EQ(reason, Process::WakeReason::event);
    EXPECT_EQ(woke_at, 5_us);
}

TEST(EventTest, TimeoutTieEventWinsWhenNotifyArmedFirst) {
    Simulator sim;
    Event e("e");
    Process::WakeReason reason{};
    sim.spawn("notifier", [&] { e.notify(5_us); });
    sim.spawn("waiter", [&] { reason = sim.wait(5_us, e); });
    sim.run();
    EXPECT_EQ(reason, Process::WakeReason::event);
}

TEST(EventTest, TimeoutTieLosesToEventEvenAcrossReArm) {
    // A canceled-then-re-armed notification still beats a timeout armed
    // earlier at the same instant.
    Simulator sim;
    Event e("e");
    Process::WakeReason reason{};
    sim.spawn("waiter", [&] { reason = sim.wait(10_us, e); });
    sim.spawn("notifier", [&] {
        e.notify(4_us);
        e.cancel();
        e.notify(10_us);
    });
    sim.run();
    EXPECT_EQ(reason, Process::WakeReason::event);
    EXPECT_EQ(sim.now(), 10_us);
}
