// Regression tests for the timing-wheel timed queue: generation-checked
// lazy cancellation must keep the queue bounded under arm/cancel storms
// (tombstones are reclaimed by slot drains and compaction sweeps), and
// tombstoned entries must never count as pending work — a run that goes
// dry with only dead entries still produces a StallReport naming the stuck
// processes instead of advancing time to the corpses' expiry instants.
#include <gtest/gtest.h>

#include "kernel/simulator.hpp"

namespace k = rtsc::kernel;
using k::Event;
using k::Process;
using k::Simulator;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

// Arms 10k long timeouts that are each cancelled by an event arriving
// first. Without compaction every cancellation would leave a tombstone in
// the 1s bucket and the queue would grow without bound; with it the arena
// high-water mark stays a small constant.
void arm_cancel_storm(bool skip_ahead) {
    Simulator sim;
    sim.set_skip_ahead(skip_ahead);
    Event ev("ev");
    constexpr int kRounds = 10000;
    int woken_by_event = 0;
    sim.spawn("waiter", [&] {
        for (int i = 0; i < kRounds; ++i)
            if (k::wait(1_sec, ev) == Process::WakeReason::event)
                ++woken_by_event;
    });
    sim.spawn("notifier", [&] {
        for (int i = 0; i < kRounds; ++i) {
            k::wait(1_us);
            ev.notify();
        }
    });
    sim.run();
    EXPECT_EQ(woken_by_event, kRounds);
    // Every cancelled timeout was reclaimed: nothing live is left, the
    // tombstone backlog is below the compaction threshold, and the arena
    // never grew anywhere near the 10k entries that were armed.
    EXPECT_EQ(sim.timed_live(), 0u);
    EXPECT_LE(sim.timed_tombstones(), 32u);
    EXPECT_LE(sim.timed_arena_size(), 64u);
    EXPECT_GE(sim.timed_compactions(), 1u);
}

} // namespace

TEST(TimingWheelTest, ArmCancelStormStaysBounded) {
    arm_cancel_storm(/*skip_ahead=*/false);
}

TEST(TimingWheelTest, ArmCancelStormStaysBoundedWithSkipAhead) {
    arm_cancel_storm(/*skip_ahead=*/true);
}

namespace {

// A process arms a long timeout, is woken early by an event (leaving a
// tombstone in the wheel), then blocks forever. The run must go dry at the
// wake instant — the tombstone is not pending work — and the stall report
// must name the stuck process.
void tombstone_only_stall(bool skip_ahead) {
    Simulator sim;
    sim.set_skip_ahead(skip_ahead);
    sim.set_deadlock_detection(true);
    Event ev("ev");
    Event never("never");
    sim.spawn("victim", [&] {
        const auto r = k::wait(Time::sec(3600), ev); // 1h timeout, cancelled by the notify below
        EXPECT_EQ(r, Process::WakeReason::event);
        k::wait(never); // no one will ever notify this
    });
    sim.spawn("notifier", [&] {
        k::wait(1_us);
        ev.notify();
    });
    sim.run();
    // The cancelled 1h timeout is still a tombstone (far below the
    // compaction threshold), yet the run ended at the wake instant: dead
    // entries neither hold the simulation alive nor advance time.
    EXPECT_GE(sim.timed_tombstones(), 1u);
    EXPECT_EQ(sim.timed_live(), 0u);
    EXPECT_EQ(sim.now(), 1_us);
    const Simulator::StallReport& report = sim.deadlock_report();
    ASSERT_TRUE(report.detected());
    EXPECT_EQ(report.at, 1_us);
    ASSERT_EQ(report.blocked.size(), 1u);
    EXPECT_EQ(report.blocked[0].process, "victim");
    EXPECT_EQ(report.blocked[0].waiting_on, "never");
}

} // namespace

TEST(TimingWheelTest, TombstoneOnlyQueueStillReportsStall) {
    tombstone_only_stall(/*skip_ahead=*/false);
}

TEST(TimingWheelTest, TombstoneOnlyQueueStillReportsStallWithSkipAhead) {
    tombstone_only_stall(/*skip_ahead=*/true);
}
