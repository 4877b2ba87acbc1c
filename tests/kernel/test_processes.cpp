// Unit tests for process scheduling: spawn, wait(Time), termination,
// done-events, run/run_until, stop, statistics, error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"

namespace k = rtsc::kernel;
using k::Event;
using k::Simulator;
using k::Time;
using namespace rtsc::kernel::time_literals;

TEST(ProcessTest, RunsAtTimeZero) {
    Simulator sim;
    Time started = Time::max();
    sim.spawn("p", [&] { started = sim.now(); });
    sim.run();
    EXPECT_EQ(started, Time::zero());
}

TEST(ProcessTest, WaitAdvancesTime) {
    Simulator sim;
    std::vector<Time> stamps;
    sim.spawn("p", [&] {
        stamps.push_back(sim.now());
        k::wait(10_us);
        stamps.push_back(sim.now());
        k::wait(5_us);
        stamps.push_back(sim.now());
    });
    sim.run();
    EXPECT_EQ(stamps, (std::vector<Time>{Time::zero(), 10_us, 15_us}));
}

TEST(ProcessTest, ProcessesInterleaveByTime) {
    Simulator sim;
    std::vector<std::string> log;
    sim.spawn("a", [&] {
        k::wait(2_us);
        log.push_back("a@2");
        k::wait(4_us);
        log.push_back("a@6");
    });
    sim.spawn("b", [&] {
        k::wait(3_us);
        log.push_back("b@3");
        k::wait(4_us);
        log.push_back("b@7");
    });
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a@2", "b@3", "a@6", "b@7"}));
}

TEST(ProcessTest, EqualTimeWakesAreFifoOrdered) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        sim.spawn("p" + std::to_string(i), [&, i] {
            k::wait(5_us);
            order.push_back(i);
        });
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ProcessTest, DoneEventFiresOnTermination) {
    Simulator sim;
    bool joined = false;
    auto& worker = sim.spawn("worker", [&] { k::wait(7_us); });
    sim.spawn("joiner", [&] {
        k::wait(worker.done_event());
        joined = true;
        EXPECT_EQ(sim.now(), 7_us);
        EXPECT_TRUE(worker.terminated());
    });
    sim.run();
    EXPECT_TRUE(joined);
}

TEST(ProcessTest, SpawnDuringSimulationRunsSameInstant) {
    Simulator sim;
    Time child_started = Time::max();
    sim.spawn("parent", [&] {
        k::wait(4_us);
        sim.spawn("child", [&] { child_started = sim.now(); });
        k::wait(1_us);
    });
    sim.run();
    EXPECT_EQ(child_started, 4_us);
}

TEST(ProcessTest, RunUntilStopsAtBoundaryAndSetsNow) {
    Simulator sim;
    int ticks = 0;
    sim.spawn("p", [&] {
        for (;;) {
            k::wait(10_us);
            ++ticks;
        }
    });
    sim.run_until(35_us);
    EXPECT_EQ(ticks, 3);
    EXPECT_EQ(sim.now(), 35_us);
    sim.run_until(40_us);
    EXPECT_EQ(ticks, 4);
    EXPECT_EQ(sim.now(), 40_us);
}

TEST(ProcessTest, RunUntilIsResumable) {
    Simulator sim;
    std::vector<Time> stamps;
    sim.spawn("p", [&] {
        for (int i = 0; i < 4; ++i) {
            k::wait(10_us);
            stamps.push_back(sim.now());
        }
    });
    sim.run_until(15_us);
    EXPECT_EQ(stamps.size(), 1u);
    sim.run_until(45_us);
    EXPECT_EQ(stamps.size(), 4u);
    EXPECT_EQ(stamps.back(), 40_us);
}

TEST(ProcessTest, StopRequestEndsRun) {
    Simulator sim;
    int iterations = 0;
    sim.spawn("p", [&] {
        for (;;) {
            k::wait(1_us);
            if (++iterations == 5) sim.stop();
        }
    });
    sim.run();
    EXPECT_EQ(iterations, 5);
    EXPECT_EQ(sim.now(), 5_us);
}

TEST(ProcessTest, ActivationCountsTracked) {
    Simulator sim;
    auto& p = sim.spawn("p", [&] {
        k::wait(1_us);
        k::wait(1_us);
    });
    sim.run();
    // initial start + two wake-ups
    EXPECT_EQ(p.activations(), 3u);
    EXPECT_GE(sim.process_activations(), 3u);
}

TEST(ProcessTest, WaitOutsideProcessThrows) {
    Simulator sim;
    EXPECT_THROW(sim.wait(1_us), k::SimulationError);
    Event e("e");
    EXPECT_THROW(sim.wait(e), k::SimulationError);
}

TEST(ProcessTest, ExceptionInProcessPropagatesFromRun) {
    Simulator sim;
    sim.spawn("bad", [&] {
        k::wait(1_us);
        throw std::runtime_error("model bug");
    });
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(ProcessTest, DeltaLoopDetected) {
    Simulator sim;
    sim.set_max_deltas_per_instant(1000);
    sim.reporter().set_sink([](k::Severity, const std::string&) {});
    Event ping("ping"), pong("pong");
    sim.spawn("a", [&] {
        for (;;) {
            ping.notify_delta();
            k::wait(pong);
        }
    });
    sim.spawn("b", [&] {
        for (;;) {
            k::wait(ping);
            pong.notify_delta();
        }
    });
    EXPECT_THROW(sim.run(), k::SimulationError);
}

TEST(ProcessTest, CurrentSimulatorRestoredAfterDestruction) {
    Simulator outer;
    {
        Simulator inner;
        EXPECT_EQ(&Simulator::current(), &inner);
    }
    EXPECT_EQ(&Simulator::current(), &outer);
}

TEST(ProcessTest, NamesAreKept) {
    Simulator sim;
    auto& p = sim.spawn("my_process", [] {});
    EXPECT_EQ(p.name(), "my_process");
    EXPECT_EQ(p.done_event().name(), "my_process.done");
}

TEST(ProcessTest, UserDataRoundTrips) {
    Simulator sim;
    int tag = 42;
    auto& p = sim.spawn("p", [] {});
    p.user_data = &tag;
    EXPECT_EQ(*static_cast<int*>(p.user_data), 42);
}

// ---- pending_activity_at_current_time (IEEE 1666's
// sc_pending_activity_at_current_time): one case per clause that makes it
// true, each checked false just before its trigger. A terminating process
// delta-notifies its done event, so the probes park on `never` instead of
// returning. ----

TEST(PendingActivityTest, LoneProcessSeesNothing) {
    Simulator sim;
    std::vector<bool> seen;
    Event later("later");
    sim.spawn("sleeper", [&] { k::wait(later); });
    sim.spawn("p", [&] {
        k::wait(1_us);
        // Timed activity at a later instant is not activity now.
        later.notify(2_us);
        seen.push_back(sim.pending_activity_at_current_time());
        k::wait(Time::zero());
        seen.push_back(sim.pending_activity_at_current_time());
    });
    sim.run();
    EXPECT_EQ(seen, (std::vector<bool>{false, false}));
}

TEST(PendingActivityTest, ProcessQueuedLaterInTheSweep) {
    Simulator sim;
    std::vector<std::string> seen;
    Event go("go");
    const auto probe = [&](const char* who) {
        seen.push_back(std::string(who) + "=" +
                       (sim.pending_activity_at_current_time() ? "1" : "0"));
    };
    Event never("never");
    sim.spawn("woken", [&] {
        k::wait(go);
        probe("woken");
        k::wait(never);
    });
    sim.spawn("first", [&] {
        probe("first");
        k::wait(never);
    });
    sim.spawn("second", [&] {
        probe("second");
        // A process woken by an immediate notify joins this very sweep.
        go.notify();
        probe("second");
        k::wait(never);
    });
    sim.run();
    EXPECT_EQ(seen, (std::vector<std::string>{"first=1", "second=0",
                                              "second=1", "woken=0"}));
}

TEST(PendingActivityTest, DeltaNotificationPending) {
    Simulator sim;
    std::vector<bool> seen;
    Event e("e");
    sim.spawn("p", [&] {
        seen.push_back(sim.pending_activity_at_current_time());
        e.notify(Time::zero());
        seen.push_back(sim.pending_activity_at_current_time());
    });
    sim.run();
    EXPECT_EQ(seen, (std::vector<bool>{false, true}));
}

TEST(PendingActivityTest, AnotherProcessWaitsZeroTime) {
    Simulator sim;
    std::vector<bool> seen;
    Event never("never");
    sim.spawn("waiter", [&] {
        k::wait(Time::zero());
        k::wait(never);
    });
    sim.spawn("p", [&] {
        seen.push_back(sim.pending_activity_at_current_time());
        k::wait(Time::zero());
        // The waiter resumed ahead of us and parked.
        seen.push_back(sim.pending_activity_at_current_time());
    });
    sim.run();
    EXPECT_EQ(seen, (std::vector<bool>{true, false}));
}

TEST(PendingActivityTest, UpdateRequestPending) {
    struct Hook final : k::UpdateHook {
        void update() override {}
    } hook;
    Simulator sim;
    std::vector<bool> seen;
    sim.spawn("p", [&] {
        seen.push_back(sim.pending_activity_at_current_time());
        sim.request_update(hook);
        seen.push_back(sim.pending_activity_at_current_time());
    });
    sim.run();
    EXPECT_EQ(seen, (std::vector<bool>{false, true}));
}

// The update phase between evaluate and delta notification: a value
// committed in update() is invisible for the rest of the evaluate phase and
// visible one delta later, repeated requests in one delta run update() once,
// and a delta notification issued from update() wakes its waiter in the
// next delta. Checked with and without the skip-ahead fast path.
TEST(UpdatePhaseTest, CommitsOncePerDeltaBeforeDeltaNotifications) {
    for (const bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "skip-ahead on" : "skip-ahead off");
        Simulator sim;
        sim.set_skip_ahead(skip);
        struct Cell final : k::UpdateHook {
            Event changed{"changed"};
            int next = 0;
            int value = 0;
            int updates = 0;
            void update() override {
                value = next;
                ++updates;
                changed.notify_delta();
            }
        } cell;
        std::vector<int> writer_sees, reader_sees;
        std::vector<std::uint64_t> writer_deltas, reader_deltas;
        sim.spawn("reader", [&] {
            for (int i = 0; i < 2; ++i) {
                k::wait(cell.changed);
                reader_sees.push_back(cell.value);
                reader_deltas.push_back(sim.delta_count());
            }
        });
        sim.spawn("writer", [&] {
            for (const int v : {42, 7}) {
                writer_deltas.push_back(sim.delta_count());
                cell.next = v;
                sim.request_update(cell);
                sim.request_update(cell);
                writer_sees.push_back(cell.value);
                k::wait(Time::zero());
                writer_deltas.push_back(sim.delta_count());
                writer_sees.push_back(cell.value);
            }
        });
        sim.run();
        EXPECT_EQ(cell.updates, 2);
        EXPECT_EQ(writer_sees, (std::vector<int>{0, 42, 42, 7}));
        EXPECT_EQ(writer_deltas, (std::vector<std::uint64_t>{0, 1, 1, 2}));
        EXPECT_EQ(reader_sees, (std::vector<int>{42, 7}));
        EXPECT_EQ(reader_deltas, (std::vector<std::uint64_t>{1, 2}));
        EXPECT_EQ(sim.now(), Time::zero());
    }
}

TEST(PendingActivityTest, StopRequested) {
    Simulator sim;
    std::vector<bool> seen;
    sim.spawn("p", [&] {
        seen.push_back(sim.pending_activity_at_current_time());
        sim.stop();
        seen.push_back(sim.pending_activity_at_current_time());
    });
    sim.run();
    EXPECT_EQ(seen, (std::vector<bool>{false, true}));
}
