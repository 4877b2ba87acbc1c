// Core RTOS scheduling semantics, exercised under BOTH engine
// implementations (§4.1 dedicated RTOS thread, §4.2 procedure calls) via a
// parameterized suite: the two engines must produce identical simulated-time
// behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "rtos/processor.hpp"
#include "recording.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using rtsc::test::RecordingObserver;
using rtsc::test::Transition;
using k::Time;
using namespace rtsc::kernel::time_literals;

class SchedulingTest : public ::testing::TestWithParam<r::EngineKind> {
protected:
    [[nodiscard]] r::EngineKind engine() const { return GetParam(); }
};

TEST_P(SchedulingTest, SingleTaskTimeline) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    RecordingObserver rec;
    cpu.add_observer(rec);

    auto& a = cpu.create_task({.name = "A", .priority = 1},
                              [](r::Task& self) { self.compute(100_us); });
    sim.run();

    // ready@0, sched 0-5, load 5-10, run 10-110, save 110-115, sched 115-120.
    const std::vector<Transition> expected{
        {0_us, "A", r::TaskState::ready},
        {10_us, "A", r::TaskState::running},
        {110_us, "A", r::TaskState::terminated},
    };
    EXPECT_EQ(rec.log, expected);
    EXPECT_EQ(a.stats().running_time, 100_us);
    EXPECT_EQ(a.stats().ready_time, 10_us);
    EXPECT_EQ(a.stats().dispatches, 1u);
    EXPECT_EQ(sim.now(), 120_us);

    const auto ps = cpu.engine().phase_stats();
    EXPECT_EQ(ps.busy_time, 100_us);
    EXPECT_EQ(ps.overhead_time, 20_us); // sched+load+save+sched
    EXPECT_EQ(ps.dispatches, 1u);
}

TEST_P(SchedulingTest, ZeroOverheadSingleTask) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    RecordingObserver rec;
    cpu.add_observer(rec);
    cpu.create_task({.name = "A", .priority = 1},
                    [](r::Task& self) { self.compute(42_us); });
    sim.run();
    const std::vector<Transition> expected{
        {0_us, "A", r::TaskState::ready},
        {0_us, "A", r::TaskState::running},
        {42_us, "A", r::TaskState::terminated},
    };
    EXPECT_EQ(rec.log, expected);
}

TEST_P(SchedulingTest, PriorityOrderAtStart) {
    // All tasks ready at t=0: they execute sequentially by priority, exactly
    // as the beginning of the paper's Figure 6 shows.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    RecordingObserver rec;
    cpu.add_observer(rec);

    std::vector<std::string> run_order;
    auto body = [&](r::Task& self) {
        run_order.push_back(self.name());
        self.compute(30_us);
    };
    cpu.create_task({.name = "low", .priority = 2}, body);
    cpu.create_task({.name = "mid", .priority = 3}, body);
    cpu.create_task({.name = "high", .priority = 5}, body);
    sim.run();

    EXPECT_EQ(run_order, (std::vector<std::string>{"high", "mid", "low"}));
    // high: sched 0-5, load 5-10, run 10-40; then save+sched+load = 15 us gap
    // before mid runs (Figure 6 annotation "(a)").
    EXPECT_EQ(rec.of("high")[1], (Transition{10_us, "high", r::TaskState::running}));
    EXPECT_EQ(rec.of("mid")[1], (Transition{55_us, "mid", r::TaskState::running}));
    EXPECT_EQ(rec.of("low")[1], (Transition{100_us, "low", r::TaskState::running}));
}

TEST_P(SchedulingTest, InterruptPreemptsAtExactTime) {
    // A hardware process signals an event at t=50us; the high-priority
    // handler task preempts the running low-priority task at *exactly* 50us
    // — the paper's time-accurate preemption claim.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    RecordingObserver rec;
    cpu.add_observer(rec);

    m::Event irq("irq", m::EventPolicy::fugitive);
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        irq.await();
        self.compute(20_us);
    });
    cpu.create_task({.name = "L", .priority = 1},
                    [](r::Task& self) { self.compute(100_us); });
    sim.spawn("hw", [&] {
        k::wait(50_us);
        irq.signal();
    });
    sim.run();

    // t0: sched 0-5 selects H; load 5-10; H runs 10-10 (awaits immediately):
    // block at 10, save 10-15, sched 15-20, L load 20-25, L runs 25...
    // irq at 50: L preempted at exactly 50 (25us of its 100 done),
    // save 50-55, sched 55-60, H load 60-65, H runs 65-85, terminates;
    // save 85-90, sched 90-95, L load 95-100, L runs 100-175.
    const std::vector<Transition> expected{
        {0_us, "H", r::TaskState::ready},
        {0_us, "L", r::TaskState::ready},
        {10_us, "H", r::TaskState::running},
        {10_us, "H", r::TaskState::waiting},
        {25_us, "L", r::TaskState::running},
        {50_us, "H", r::TaskState::ready},
        {50_us, "L", r::TaskState::ready},
        {65_us, "H", r::TaskState::running},
        {85_us, "H", r::TaskState::terminated},
        {100_us, "L", r::TaskState::running},
        {175_us, "L", r::TaskState::terminated},
    };
    EXPECT_EQ(rec.strings(), [&] {
        std::vector<std::string> s;
        for (const auto& t : expected) s.push_back(t.str());
        return s;
    }());

    // The preempted task accounts one preemption and 50us of preempted time
    // (ready again at 50, resumes at 100).
    const auto& tasks = cpu.tasks();
    const r::Task& l = *tasks[1];
    EXPECT_EQ(l.stats().preemptions, 1u);
    EXPECT_EQ(l.stats().preempted_time, 50_us);
    EXPECT_EQ(l.stats().running_time, 100_us);
}

TEST_P(SchedulingTest, NonPreemptiveModeDefersDispatch) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    RecordingObserver rec;
    cpu.add_observer(rec);
    cpu.set_preemptive(false);

    m::Event irq("irq", m::EventPolicy::boolean);
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        irq.await();
        self.compute(10_us);
    });
    cpu.create_task({.name = "L", .priority = 1},
                    [](r::Task& self) { self.compute(100_us); });
    sim.spawn("hw", [&] {
        k::wait(30_us);
        irq.signal();
    });
    sim.run();

    // Zero overheads: H runs 0-0 (awaits), L runs 0-100. The irq at t=30 does
    // NOT preempt L; H runs only after L completes, at t=100.
    // H's log: ready@0, running@0, waiting@0, ready@30, running@100, ...
    const auto h = rec.of("H");
    ASSERT_GE(h.size(), 5u);
    EXPECT_EQ(h[3], (Transition{30_us, "H", r::TaskState::ready}));
    EXPECT_EQ(h[4], (Transition{100_us, "H", r::TaskState::running}));
    const auto& l = *cpu.tasks()[1];
    EXPECT_EQ(l.stats().preemptions, 0u);
}

TEST_P(SchedulingTest, PreemptionReenableTriggersImmediateSwitch) {
    // Model a critical region: preemption disabled while L computes; when L
    // re-enables it mid-computation, the pending higher-priority task
    // preempts at that exact point.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    RecordingObserver rec;
    cpu.add_observer(rec);

    m::Event irq("irq", m::EventPolicy::boolean);
    cpu.create_task({.name = "H", .priority = 5}, [&](r::Task& self) {
        irq.await();
        self.compute(10_us);
    });
    cpu.create_task({.name = "L", .priority = 1}, [&](r::Task& self) {
        cpu.lock_preemption();
        self.compute(60_us); // irq at 30 arrives inside the critical region
        cpu.unlock_preemption();
        self.compute(40_us);
    });
    sim.spawn("hw", [&] {
        k::wait(30_us);
        irq.signal();
    });
    sim.run();

    // H's log: ready@0, running@0, waiting@0, ready@30, running@60, ...
    const auto h = rec.of("H");
    ASSERT_GE(h.size(), 5u);
    EXPECT_EQ(h[3].at, 30_us);                     // ready at the interrupt
    EXPECT_EQ(h[4].at, 60_us);                     // runs when region ends
    EXPECT_EQ(h[4].to, r::TaskState::running);
    const auto l = rec.of("L");
    // L: running 0, preempted(ready) at 60, running 70+... terminated 110.
    EXPECT_EQ(l.back().at, 110_us);
    EXPECT_EQ(l.back().to, r::TaskState::terminated);
}

TEST_P(SchedulingTest, SleepForBlocksAndWakes) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    RecordingObserver rec;
    cpu.add_observer(rec);

    cpu.create_task({.name = "A", .priority = 1}, [](r::Task& self) {
        self.compute(10_us);
        self.sleep_for(100_us);
        self.compute(10_us);
    });
    sim.run();

    // A runs 10-20; sleeps: timer starts at 20 (when it stops running), so
    // wake at 120 regardless of the 10us of save+sched overhead; then the
    // idle wake-up costs sched+load (no save) => running again at 130.
    const auto a = rec.of("A");
    const std::vector<Transition> expected{
        {0_us, "A", r::TaskState::ready},
        {10_us, "A", r::TaskState::running},
        {20_us, "A", r::TaskState::waiting},
        {120_us, "A", r::TaskState::ready},
        {130_us, "A", r::TaskState::running},
        {140_us, "A", r::TaskState::terminated},
    };
    EXPECT_EQ(a, expected);
}

TEST_P(SchedulingTest, SleepShorterThanOverheadStillWorks) {
    // Sleep shorter than the RTOS overhead: the task re-enters the ready
    // queue only after the scheduling pass triggered by its own blocking.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    RecordingObserver rec;
    cpu.add_observer(rec);
    cpu.create_task({.name = "A", .priority = 1}, [](r::Task& self) {
        self.compute(10_us);
        self.sleep_for(2_us); // < save+sched = 10us
        self.compute(10_us);
    });
    sim.run();
    const auto a = rec.of("A");
    ASSERT_EQ(a.size(), 6u);
    EXPECT_EQ(a[2], (Transition{20_us, "A", r::TaskState::waiting}));
    // save 20-25, sched 25-30 (finds nothing); wake timer (22) already
    // elapsed -> ready at 30, idle kick: sched 30-35, load 35-40.
    EXPECT_EQ(a[3], (Transition{30_us, "A", r::TaskState::ready}));
    EXPECT_EQ(a[4], (Transition{40_us, "A", r::TaskState::running}));
    EXPECT_EQ(a[5], (Transition{50_us, "A", r::TaskState::terminated}));
}

TEST_P(SchedulingTest, EqualPrioritiesRunFifoWithoutPreemption) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    RecordingObserver rec;
    cpu.add_observer(rec);
    std::vector<std::string> order;
    auto body = [&](r::Task& self) {
        order.push_back(self.name());
        self.compute(10_us);
    };
    cpu.create_task({.name = "A", .priority = 3}, body);
    cpu.create_task({.name = "B", .priority = 3}, body);
    cpu.create_task({.name = "C", .priority = 3}, body);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"A", "B", "C"}));
    for (const auto& t : cpu.tasks()) EXPECT_EQ(t->stats().preemptions, 0u);
}

TEST_P(SchedulingTest, StartTimeDelaysRelease) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    RecordingObserver rec;
    cpu.add_observer(rec);
    cpu.create_task({.name = "late", .priority = 5, .start_time = 40_us},
                    [](r::Task& self) { self.compute(10_us); });
    cpu.create_task({.name = "early", .priority = 1},
                    [](r::Task& self) { self.compute(100_us); });
    sim.run();
    const auto late = rec.of("late");
    EXPECT_EQ(late[0], (Transition{40_us, "late", r::TaskState::ready}));
    EXPECT_EQ(late[1], (Transition{40_us, "late", r::TaskState::running}));
    // "early" was preempted at 40 and resumed at 50.
    const auto& early = *cpu.tasks()[1];
    EXPECT_EQ(early.stats().preemptions, 1u);
    EXPECT_EQ(early.stats().running_time, 100_us);
    EXPECT_EQ(sim.now(), 110_us);
}

TEST_P(SchedulingTest, ObserverSubscribesOnceAndUnsubscribes) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    RecordingObserver once;
    RecordingObserver twice;
    RecordingObserver removed;
    cpu.add_observer(once);
    cpu.add_observer(twice);
    cpu.add_observer(twice); // ignored: already subscribed
    cpu.add_observer(removed);
    cpu.remove_observer(removed);
    cpu.remove_observer(removed); // no-op: not subscribed
    cpu.create_task({.name = "A", .priority = 1},
                    [](r::Task& self) { self.compute(100_us); });
    sim.run();
    EXPECT_EQ(once.log.size(), 3u); // ready, running, terminated
    EXPECT_EQ(twice.log, once.log);
    EXPECT_EQ(twice.overheads.size(), once.overheads.size());
    EXPECT_TRUE(removed.log.empty());
    EXPECT_TRUE(removed.overheads.empty());
}

TEST_P(SchedulingTest, YieldRotatesEqualPriorityTasks) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    RecordingObserver rec;
    cpu.add_observer(rec);
    std::vector<std::string> segments;
    auto body = [&](r::Task& self) {
        for (int i = 0; i < 2; ++i) {
            segments.push_back(self.name());
            self.compute(10_us);
            self.yield_cpu();
        }
    };
    cpu.create_task({.name = "A", .priority = 1}, body);
    cpu.create_task({.name = "B", .priority = 1}, body);
    sim.run();
    EXPECT_EQ(segments, (std::vector<std::string>{"A", "B", "A", "B"}));
}

TEST_P(SchedulingTest, YieldAloneIsNoop) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    cpu.create_task({.name = "A", .priority = 1}, [](r::Task& self) {
        self.compute(10_us);
        self.yield_cpu(); // nobody else ready: no overhead, no state change
        self.compute(10_us);
    });
    sim.run();
    // sched 0-5, load 5-10, run 10-30, save 30-35, sched 35-40.
    EXPECT_EQ(sim.now(), 40_us);
}

TEST_P(SchedulingTest, ComputeOutsideOwnThreadRejected) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine());
    auto& a = cpu.create_task({.name = "A", .priority = 1},
                              [](r::Task& self) { self.compute(1_us); });
    sim.spawn("hw", [&] { a.compute(1_us); });
    EXPECT_THROW(sim.run(), k::SimulationError);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SchedulingTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread),
                         [](const auto& info) {
                             return info.param == r::EngineKind::procedure_calls
                                        ? "procedural"
                                        : "threaded";
                         });
