// Kernel robustness and edge-case tests: reporter behaviour, stale timed
// entries, stop/resume, mid-run spawning, event lifetime corner cases and
// large-scale stability.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"

namespace k = rtsc::kernel;
using k::Event;
using k::Simulator;
using k::Time;
using namespace rtsc::kernel::time_literals;

TEST(ReporterTest, ThresholdFiltersAndCounts) {
    k::Reporter rep;
    std::vector<std::string> seen;
    rep.set_sink([&](k::Severity s, const std::string& msg) {
        seen.push_back(std::string(k::to_string(s)) + ":" + msg);
    });
    rep.set_threshold(k::Severity::warning);
    rep.report(k::Severity::debug, "d");
    rep.report(k::Severity::info, "i");
    rep.report(k::Severity::warning, "w");
    EXPECT_EQ(seen, (std::vector<std::string>{"warning:w"}));
    EXPECT_EQ(rep.count(k::Severity::debug), 1u);
    EXPECT_EQ(rep.count(k::Severity::info), 1u);
    EXPECT_EQ(rep.count(k::Severity::warning), 1u);
    EXPECT_THROW(rep.report(k::Severity::error, "boom"), k::SimulationError);
    EXPECT_EQ(rep.count(k::Severity::error), 1u);
    EXPECT_EQ(seen.back(), "error:boom"); // sink sees errors before the throw
}

TEST(RobustnessTest, RepeatedRenotifyLeavesNoStaleWakeups) {
    // Hammer the timed queue with overridden notifications: only the final
    // schedule must fire.
    Simulator sim;
    Event e("e");
    int wakes = 0;
    sim.spawn("waiter", [&] {
        for (;;) {
            k::wait(e);
            ++wakes;
        }
    });
    sim.spawn("renotifier", [&] {
        for (int i = 100; i >= 1; --i) e.notify(Time::us(static_cast<Time::rep>(i)));
        // pending is now at +1us; all later ones were discarded/overridden
    });
    sim.run_until(500_us);
    EXPECT_EQ(wakes, 1);
}

TEST(RobustnessTest, CancelInsideHandlerChain) {
    Simulator sim;
    Event a("a"), b("b");
    int b_wakes = 0;
    sim.spawn("w", [&] {
        k::wait(a);
        b.cancel(); // cancel b's pending notification from within a handler
    });
    sim.spawn("w2", [&] {
        k::wait(b);
        ++b_wakes;
    });
    sim.spawn("driver", [&] {
        b.notify(10_us);
        a.notify(5_us);
    });
    sim.run();
    EXPECT_EQ(b_wakes, 0);
}

TEST(RobustnessTest, StopAndResumeKeepsState) {
    Simulator sim;
    int ticks = 0;
    sim.spawn("p", [&] {
        for (;;) {
            k::wait(10_us);
            ++ticks;
            if (ticks == 3) sim.stop();
        }
    });
    sim.run();
    EXPECT_EQ(ticks, 3);
    sim.run_until(100_us); // resume after stop
    EXPECT_EQ(ticks, 10);
}

TEST(RobustnessTest, CascadedMidRunSpawns) {
    Simulator sim;
    int leaves = 0;
    std::function<void(int)> spawn_tree = [&](int depth) {
        if (depth == 0) {
            ++leaves;
            return;
        }
        for (int i = 0; i < 2; ++i) {
            sim.spawn("n", [&, depth] {
                k::wait(1_us);
                spawn_tree(depth - 1);
            });
        }
    };
    sim.spawn("root", [&] { spawn_tree(4); });
    sim.run();
    EXPECT_EQ(leaves, 16);
    EXPECT_EQ(sim.process_count(), 1u + 2 + 4 + 8 + 16);
}

TEST(RobustnessTest, ManyProcessesManyEvents) {
    // Stability at scale: 200 processes ping-ponging through 200 events for
    // many rounds; checks completion and bounded delta counts.
    Simulator sim;
    constexpr int n = 200;
    constexpr int rounds = 50;
    std::vector<std::unique_ptr<Event>> evs;
    for (int i = 0; i < n; ++i)
        evs.push_back(std::make_unique<Event>("e" + std::to_string(i)));
    int done = 0;
    for (int i = 0; i < n; ++i) {
        sim.spawn("p" + std::to_string(i), [&, i] {
            for (int round = 0; round < rounds; ++round) {
                if (i == 0) {
                    k::wait(1_us);
                    evs[1]->notify();
                    if (n > 2) k::wait(*evs[0]);
                } else {
                    k::wait(*evs[static_cast<std::size_t>(i)]);
                    evs[static_cast<std::size_t>((i + 1) % n)]->notify();
                }
            }
            ++done;
        });
    }
    sim.run_until(1_sec);
    EXPECT_EQ(done, n);
}

TEST(RobustnessTest, TerminatedProcessIgnoresLateNotifications) {
    Simulator sim;
    Event e("e");
    auto& p = sim.spawn("short", [&] { k::wait(1_us); });
    sim.spawn("late", [&] {
        k::wait(10_us);
        e.notify(); // p is long gone
    });
    sim.run();
    EXPECT_TRUE(p.terminated());
}

TEST(RobustnessTest, RunIsNotReentrant) {
    Simulator sim;
    sim.spawn("p", [&] {
        EXPECT_THROW(sim.run(), k::SimulationError);
        k::wait(1_us);
    });
    sim.run();
}

TEST(RobustnessTest, ZeroLengthRunUntil) {
    Simulator sim;
    bool ran = false;
    sim.spawn("p", [&] { ran = true; });
    sim.run_until(Time::zero()); // processes at t=0 still execute
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), Time::zero());
}

TEST(RobustnessTest, EventNotifyFromSchedulerContextBeforeRun) {
    Simulator sim;
    Event e("e");
    bool woke = false;
    sim.spawn("waiter", [&] {
        k::wait(e);
        woke = true;
    });
    e.notify(5_us); // scheduled from outside any process
    sim.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(sim.now(), 5_us);
}

TEST(RobustnessTest, ManyWaitersLeaveTheEventOnWake) {
    // After a wake the event's waiter list is empty: a second notify, while
    // every former waiter sits in a plain timed wait, wakes nobody early.
    Simulator sim;
    Event e("e");
    std::vector<Time> resumed;
    for (int i = 0; i < 64; ++i)
        sim.spawn("w" + std::to_string(i), [&] {
            k::wait(e);
            k::wait(10_us);
            resumed.push_back(sim.now());
        });
    sim.spawn("notifier", [&] {
        k::wait(3_us);
        e.notify();
        k::wait(2_us);
        e.notify();
    });
    sim.run();
    ASSERT_EQ(resumed.size(), 64u);
    for (const Time t : resumed) EXPECT_EQ(t, 13_us);
    // 64 waiters x 3 activations each, plus the notifier's 3.
    EXPECT_EQ(sim.process_activations(), 64u * 3 + 3);
}

TEST(RobustnessTest, LongHorizonTimeArithmetic) {
    // Days of simulated time with microsecond events must not overflow.
    Simulator sim;
    Time last{};
    sim.spawn("p", [&] {
        for (int i = 0; i < 5; ++i) {
            k::wait(Time::sec(86400)); // one day per step
            last = sim.now();
        }
    });
    sim.run();
    EXPECT_EQ(last, Time::sec(5 * 86400));
}
