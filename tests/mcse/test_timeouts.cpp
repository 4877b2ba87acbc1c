// Timed-blocking primitives (RTOS-standard extension): Event::await_for,
// MessageQueue::read_for, Semaphore::acquire_for — success before the
// deadline, timeout expiry, exact timeout instants, interplay with
// priorities and overheads, hardware-side variants, and the untimed ops
// behaving exactly like their never-expiring timed forms. Both engines.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/message_queue.hpp"
#include "mcse/semaphore.hpp"
#include "rtos/processor.hpp"
#include "trace/recorder.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
using k::Time;
using namespace rtsc::kernel::time_literals;

class TimeoutTest : public ::testing::TestWithParam<r::EngineKind> {};

TEST_P(TimeoutTest, EventAwaitForSucceedsBeforeDeadline) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::Event ev("ev", m::EventPolicy::counter);
    bool got = false;
    Time woke_at;
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task&) {
        got = ev.await_for(100_us);
        woke_at = sim.now();
    });
    sim.spawn("hw", [&] {
        k::wait(30_us);
        ev.signal();
    });
    sim.run();
    EXPECT_TRUE(got);
    EXPECT_EQ(woke_at, 30_us);
}

TEST_P(TimeoutTest, EventAwaitForTimesOutAtExactInstant) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::Event ev("ev", m::EventPolicy::counter);
    bool got = true;
    Time woke_at;
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task&) {
        got = ev.await_for(40_us);
        woke_at = sim.now();
    });
    sim.run();
    EXPECT_FALSE(got);
    EXPECT_EQ(woke_at, 40_us); // zero overheads: re-dispatched at the deadline
    // A later signal is memorized normally (the stale waiter was removed).
    EXPECT_EQ(ev.pending(), 0u);
}

TEST_P(TimeoutTest, EventAwaitForPendingConsumedImmediately) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::Event ev("ev", m::EventPolicy::boolean);
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task& self) {
        ev.signal(); // memorized
        EXPECT_TRUE(ev.await_for(10_us));
        EXPECT_EQ(sim.now(), Time::zero());
        self.compute(1_us);
    });
    sim.run();
}

TEST_P(TimeoutTest, TimeoutWithRtosOverheadsStillReDispatches) {
    // With overheads, the deadline marks the wake-up; the task runs again
    // after the idle-dispatch overhead like any other activation.
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    m::Event ev("ev", m::EventPolicy::counter);
    Time resumed_at;
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task&) {
        (void)ev.await_for(50_us);
        resumed_at = sim.now();
    });
    sim.run();
    // Runs at 10 (sched+load), awaits at 10; wake at 60; sched+load -> 70.
    EXPECT_EQ(resumed_at, 70_us);
}

TEST_P(TimeoutTest, QueueReadForReceivesAndTimesOut) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::MessageQueue<int> q("q", 4);
    std::vector<std::pair<bool, Time>> outcomes;
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task&) {
        int v = 0;
        const bool first = q.read_for(v, 100_us); // message at 20: success
        outcomes.emplace_back(first, sim.now());
        const bool second = q.read_for(v, 30_us); // nothing: timeout at +30
        outcomes.emplace_back(second, sim.now());
    });
    sim.spawn("hw", [&] {
        k::wait(20_us);
        q.write(7);
    });
    sim.run();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].first);
    EXPECT_EQ(outcomes[0].second, 20_us);
    EXPECT_FALSE(outcomes[1].first);
    EXPECT_EQ(outcomes[1].second, 50_us);
}

TEST_P(TimeoutTest, QueueReadForStolenMessageKeepsWaiting) {
    // Two readers, one message: the higher-priority reader consumes it; the
    // lower-priority one must keep waiting until ITS deadline, then fail.
    k::Simulator sim;
    r::Processor cpu1("cpu1", std::make_unique<r::PriorityPreemptivePolicy>(),
                      GetParam());
    r::Processor cpu2("cpu2", std::make_unique<r::PriorityPreemptivePolicy>(),
                      GetParam());
    m::MessageQueue<int> q("q", 4);
    bool loser_got = true;
    Time loser_done;
    cpu1.create_task({.name = "winner", .priority = 9}, [&](r::Task&) {
        int v = 0;
        EXPECT_TRUE(q.read_for(v, 1_ms));
    });
    cpu2.create_task({.name = "loser", .priority = 1, .start_time = 1_us},
                     [&](r::Task&) {
                         int v = 0;
                         loser_got = q.read_for(v, 100_us);
                         loser_done = sim.now();
                     });
    sim.spawn("hw", [&] {
        k::wait(50_us);
        q.write(1);
    });
    sim.run();
    EXPECT_FALSE(loser_got);
    EXPECT_EQ(loser_done, 101_us);
}

TEST_P(TimeoutTest, SemaphoreAcquireFor) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::Semaphore sem("sem", 0);
    std::vector<bool> got;
    std::vector<Time> at;
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task&) {
        got.push_back(sem.acquire_for(25_us)); // release at 60: timeout at 25
        at.push_back(sim.now());
        got.push_back(sem.acquire_for(100_us)); // release at 60: success
        at.push_back(sim.now());
    });
    sim.spawn("hw", [&] {
        k::wait(60_us);
        sem.release();
    });
    sim.run();
    EXPECT_EQ(got, (std::vector<bool>{false, true}));
    EXPECT_EQ(at[0], 25_us);
    EXPECT_EQ(at[1], 60_us);
    EXPECT_EQ(sem.value(), 0u);
}

TEST_P(TimeoutTest, HardwareSideTimedWaits) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::Event ev("ev", m::EventPolicy::counter);
    m::Semaphore sem("sem", 0);
    m::MessageQueue<int> q("q", 2);
    std::vector<bool> results;
    sim.spawn("hw", [&] {
        results.push_back(ev.await_for(10_us));   // timeout
        results.push_back(sem.acquire_for(10_us)); // timeout
        int v = 0;
        results.push_back(q.read_for(v, 10_us));  // timeout
        // now the task provides all three:
        results.push_back(ev.await_for(1_ms));
        results.push_back(sem.acquire_for(1_ms));
        results.push_back(q.read_for(v, 1_ms));
        EXPECT_EQ(v, 5);
    });
    cpu.create_task({.name = "producer", .priority = 1, .start_time = 50_us},
                    [&](r::Task& self) {
                        ev.signal();
                        self.compute(5_us);
                        sem.release();
                        self.compute(5_us);
                        q.write(5);
                    });
    sim.run();
    EXPECT_EQ(results,
              (std::vector<bool>{false, false, false, true, true, true}));
}

TEST_P(TimeoutTest, ZeroTimeoutActsAsTry) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     GetParam());
    m::Event ev("ev", m::EventPolicy::counter);
    m::Semaphore sem("sem", 1);
    cpu.create_task({.name = "t", .priority = 1}, [&](r::Task& self) {
        EXPECT_FALSE(ev.await_for(Time::zero()));
        EXPECT_TRUE(sem.acquire_for(Time::zero()));
        EXPECT_FALSE(sem.acquire_for(Time::zero()));
        self.compute(1_us);
    });
    sim.run();
}

// ---- the untimed op is the timed op with no deadline ----

namespace {

enum class Rel { event, queue, semaphore };

/// A waiter (task or hardware process) blocks twice on one relation —
/// untimed, or bounded by a timeout that never expires — while a
/// lower-priority task provides, with RTOS overheads on. Returns every
/// Recorder row (states, overheads, comms) and the access stats as text.
std::vector<std::string> trace_wait(r::EngineKind engine, Rel rel,
                                    bool hw_caller, bool timed) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     engine);
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    m::Event ev("ev", m::EventPolicy::counter);
    m::MessageQueue<int> q("q", 2);
    m::Semaphore sem("sem", 0);
    rtsc::trace::Recorder rec;
    rec.attach(cpu);
    rec.attach(ev);
    rec.attach(q);
    rec.attach(sem);

    bool got = true;
    const auto wait_once = [&] {
        int v = 0;
        switch (rel) {
            case Rel::event:
                if (timed) got = ev.await_for(Time::max()) && got;
                else ev.await();
                break;
            case Rel::queue:
                if (timed) got = q.read_for(v, Time::max()) && got;
                else v = q.read();
                break;
            case Rel::semaphore:
                if (timed) got = sem.acquire_for(Time::max()) && got;
                else sem.acquire();
                break;
        }
    };
    const auto provide = [&] {
        switch (rel) {
            case Rel::event: ev.signal(); break;
            case Rel::queue: q.write(1); break;
            case Rel::semaphore: sem.release(); break;
        }
    };
    if (hw_caller) {
        sim.spawn("waiter", [&] {
            wait_once();
            k::wait(10_us);
            wait_once();
        });
    } else {
        cpu.create_task({.name = "waiter", .priority = 5}, [&](r::Task& self) {
            wait_once();
            self.compute(10_us);
            wait_once();
        });
    }
    cpu.create_task({.name = "provider", .priority = 1}, [&](r::Task& self) {
        self.compute(30_us);
        provide();
        self.compute(30_us);
        provide();
        self.compute(5_us);
    });
    sim.run();
    EXPECT_TRUE(got);

    const auto name = [](const r::Task* t) { return t ? t->name() : "hw"; };
    std::vector<std::string> rows;
    for (const auto& s : rec.states()) {
        std::ostringstream o;
        o << "state " << s.at << ' ' << name(s.task) << ' '
          << r::to_string(s.from) << "->" << r::to_string(s.to);
        rows.push_back(o.str());
    }
    for (const auto& ov : rec.overheads()) {
        std::ostringstream o;
        o << "overhead " << ov.at << ' ' << ov.duration << ' '
          << r::to_string(ov.kind) << ' ' << name(ov.about);
        rows.push_back(o.str());
    }
    for (const auto& c : rec.comms()) {
        std::ostringstream o;
        o << "comm " << c.at << ' ' << c.relation->name() << ' ' << name(c.task)
          << ' ' << m::to_string(c.kind) << (c.blocked ? " blocked" : "");
        rows.push_back(o.str());
    }
    for (const m::Relation* x : {static_cast<m::Relation*>(&ev),
                                 static_cast<m::Relation*>(&q),
                                 static_cast<m::Relation*>(&sem)}) {
        const auto& st = x->access_stats();
        std::ostringstream o;
        o << "stats " << x->name() << ' ' << st.accesses << ' '
          << st.blocked_accesses << ' ' << st.blocked_time;
        rows.push_back(o.str());
    }
    return rows;
}

} // namespace

TEST_P(TimeoutTest, UntimedOpsMatchNeverExpiringTimedOps) {
    for (const Rel rel : {Rel::event, Rel::queue, Rel::semaphore}) {
        for (const bool hw_caller : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "relation " << static_cast<int>(rel)
                         << (hw_caller ? ", hardware caller" : ", task caller"));
            const auto untimed = trace_wait(GetParam(), rel, hw_caller, false);
            const auto timed = trace_wait(GetParam(), rel, hw_caller, true);
            EXPECT_GT(untimed.size(), 10u);
            EXPECT_EQ(untimed, timed);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BothEngines, TimeoutTest,
                         ::testing::Values(r::EngineKind::procedure_calls,
                                           r::EngineKind::rtos_thread),
                         [](const auto& info) {
                             return info.param == r::EngineKind::procedure_calls
                                        ? "procedural"
                                        : "threaded";
                         });
