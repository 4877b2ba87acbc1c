// Property test: the paper's two RTOS model implementations (§4.1 dedicated
// RTOS thread, §4.2 procedure calls) must produce IDENTICAL simulated-time
// behaviour — same task-state transitions at the same instants — differing
// only in simulation cost (kernel context switches).
//
// Randomly generated task programs (computes, event signal/await, queue
// read/write, shared-variable accesses, sleeps, yields, plus hardware
// interrupt sources) are interpreted under both engines and the full
// transition logs are compared. The procedure-call engine must also never
// use more kernel activations than the RTOS-thread engine.
#include <gtest/gtest.h>

#include <memory>
#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "mcse/message_queue.hpp"
#include "mcse/shared_variable.hpp"
#include "rtos/processor.hpp"
#include "trace/recorder.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace tr = rtsc::trace;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

struct Op {
    enum class Kind {
        compute,
        signal_event,
        await_event,
        queue_write,
        queue_read,
        sv_read,
        sv_write,
        sleep,
        yield,
        lock_region,   // lock_preemption around a compute
        await_timeout, // Event::await_for
        read_timeout,  // MessageQueue::read_for
    };
    Kind kind;
    int target = 0; ///< which event/queue/svar
    Time dur{};
};

struct TaskProgram {
    int priority;
    Time start;
    std::vector<Op> ops;
};

struct Program {
    enum class Policy { priority, round_robin, edf };
    Policy policy;
    Time quantum{};
    Time overhead{};
    bool formula_overhead = false;
    int n_events = 2;
    int n_queues = 1;
    int n_svars = 1;
    std::vector<TaskProgram> tasks;
    std::vector<std::pair<Time, int>> hw_signals; ///< (time, event index)
    Time horizon{};
};

Program random_program(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    Program p;
    switch (pick(0, 2)) {
        case 0: p.policy = Program::Policy::priority; break;
        case 1:
            p.policy = Program::Policy::round_robin;
            p.quantum = Time::us(static_cast<Time::rep>(pick(5, 20)));
            break;
        default: p.policy = Program::Policy::edf; break;
    }
    p.overhead = Time::us(static_cast<Time::rep>(pick(0, 6)));
    p.formula_overhead = pick(0, 3) == 0;
    const int n_tasks = pick(2, 6);
    for (int i = 0; i < n_tasks; ++i) {
        TaskProgram tp;
        tp.priority = pick(1, 5);
        tp.start = Time::us(static_cast<Time::rep>(pick(0, 30)));
        const int n_ops = pick(2, 8);
        for (int j = 0; j < n_ops; ++j) {
            Op op;
            switch (pick(0, 11)) {
                case 0:
                case 1:
                case 2:
                    op.kind = Op::Kind::compute;
                    op.dur = Time::us(static_cast<Time::rep>(pick(1, 40)));
                    break;
                case 3:
                    op.kind = Op::Kind::signal_event;
                    op.target = pick(0, p.n_events - 1);
                    break;
                case 4:
                    op.kind = Op::Kind::await_event;
                    op.target = pick(0, p.n_events - 1);
                    break;
                case 5:
                    op.kind = Op::Kind::queue_write;
                    op.target = 0;
                    break;
                case 6:
                    op.kind = Op::Kind::queue_read;
                    op.target = 0;
                    break;
                case 7:
                    op.kind = pick(0, 1) != 0 ? Op::Kind::sv_read : Op::Kind::sv_write;
                    op.target = 0;
                    op.dur = Time::us(static_cast<Time::rep>(pick(1, 15)));
                    break;
                case 8:
                    op.kind = Op::Kind::sleep;
                    op.dur = Time::us(static_cast<Time::rep>(pick(1, 25)));
                    break;
                case 9:
                    op.kind = pick(0, 1) != 0 ? Op::Kind::yield : Op::Kind::lock_region;
                    op.dur = Time::us(static_cast<Time::rep>(pick(1, 10)));
                    break;
                case 10:
                    op.kind = Op::Kind::await_timeout;
                    op.target = pick(0, p.n_events - 1);
                    op.dur = Time::us(static_cast<Time::rep>(pick(1, 30)));
                    break;
                default:
                    op.kind = Op::Kind::read_timeout;
                    op.dur = Time::us(static_cast<Time::rep>(pick(1, 30)));
                    break;
            }
            tp.ops.push_back(op);
        }
        p.tasks.push_back(std::move(tp));
    }
    const int n_irq = pick(0, 5);
    for (int i = 0; i < n_irq; ++i)
        p.hw_signals.emplace_back(Time::us(static_cast<Time::rep>(pick(5, 200))),
                                  pick(0, p.n_events - 1));
    p.horizon = 2_ms;
    return p;
}

struct RunResult {
    std::vector<std::string> log;
    std::uint64_t kernel_activations = 0;
    Time end{};
};

RunResult run_program(const Program& p, r::EngineKind kind) {
    k::Simulator sim;
    std::unique_ptr<r::SchedulingPolicy> pol;
    switch (p.policy) {
        case Program::Policy::priority:
            pol = std::make_unique<r::PriorityPreemptivePolicy>();
            break;
        case Program::Policy::round_robin:
            pol = std::make_unique<r::RoundRobinPolicy>(p.quantum);
            break;
        case Program::Policy::edf:
            pol = std::make_unique<r::EdfPolicy>();
            break;
    }
    r::Processor cpu("cpu", std::move(pol), kind);
    if (p.formula_overhead) {
        r::RtosOverheads ov;
        const Time base = p.overhead;
        ov.scheduling = r::OverheadModel::formula([base](const r::SystemState& s) {
            return base + Time::us(1) * static_cast<Time::rep>(s.ready_tasks);
        });
        ov.context_load = base;
        ov.context_save = base;
        cpu.set_overheads(ov);
    } else {
        cpu.set_overheads(r::RtosOverheads::uniform(p.overhead));
    }

    tr::Recorder rec;
    rec.attach(cpu);

    std::vector<std::unique_ptr<m::Event>> events;
    for (int i = 0; i < p.n_events; ++i)
        events.push_back(std::make_unique<m::Event>(
            "ev" + std::to_string(i),
            i % 3 == 0 ? m::EventPolicy::counter
                       : (i % 3 == 1 ? m::EventPolicy::boolean
                                     : m::EventPolicy::fugitive)));
    m::MessageQueue<int> queue("q0", 3);
    m::SharedVariable<int> svar("sv0", 0);

    for (std::size_t i = 0; i < p.tasks.size(); ++i) {
        const TaskProgram& tp = p.tasks[i];
        auto& task = cpu.create_task(
            {.name = "t" + std::to_string(i),
             .priority = tp.priority,
             .start_time = tp.start},
            [&, tp](r::Task& self) {
                for (const Op& op : tp.ops) {
                    switch (op.kind) {
                        case Op::Kind::compute: self.compute(op.dur); break;
                        case Op::Kind::signal_event:
                            events[static_cast<std::size_t>(op.target)]->signal();
                            break;
                        case Op::Kind::await_event:
                            events[static_cast<std::size_t>(op.target)]->await();
                            break;
                        case Op::Kind::queue_write: queue.write(1); break;
                        case Op::Kind::queue_read: (void)queue.read(); break;
                        case Op::Kind::sv_read: (void)svar.read(op.dur); break;
                        case Op::Kind::sv_write: svar.write(1, op.dur); break;
                        case Op::Kind::sleep: self.sleep_for(op.dur); break;
                        case Op::Kind::yield: self.yield_cpu(); break;
                        case Op::Kind::lock_region: {
                            r::Processor::PreemptionGuard g(cpu);
                            self.compute(op.dur);
                            break;
                        }
                        case Op::Kind::await_timeout:
                            (void)events[static_cast<std::size_t>(op.target)]
                                ->await_for(op.dur);
                            break;
                        case Op::Kind::read_timeout: {
                            int v = 0;
                            (void)queue.read_for(v, op.dur);
                            break;
                        }
                    }
                    // EDF needs live deadlines; derive one deterministically.
                    self.set_absolute_deadline(
                        k::Simulator::current().now() +
                        Time::us(50) * static_cast<Time::rep>(tp.priority));
                }
            });
        (void)task;
    }
    for (const auto& [at, ev] : p.hw_signals) {
        sim.spawn("hw", [&, at = at, ev = ev] {
            k::wait(at);
            events[static_cast<std::size_t>(ev)]->signal();
        });
    }

    sim.run_until(p.horizon);

    RunResult res;
    res.kernel_activations = sim.process_activations();
    res.end = sim.now();
    // Collect (time, record) pairs and canonicalize the order of records
    // within one instant: the engines may interleave independent same-instant
    // activities differently (e.g. a sleep timer firing vs a context load
    // completing), which is not an observable scheduling difference. Any
    // *consequential* difference shows up as a different state or timestamp
    // and still fails the comparison.
    std::vector<std::pair<Time, std::string>> rows;
    for (const auto& s : rec.states()) {
        if (s.from == s.to) continue;
        rows.emplace_back(s.at, s.task->name() + " " + r::to_string(s.to));
    }
    std::sort(rows.begin(), rows.end());
    for (const auto& [at, text] : rows) {
        std::ostringstream os;
        os << at.raw_ps() << ' ' << text;
        res.log.push_back(os.str());
    }
    return res;
}

} // namespace

class EquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceTest, EnginesProduceIdenticalSchedules) {
    const Program p = random_program(GetParam());
    const RunResult proc = run_program(p, r::EngineKind::procedure_calls);
    const RunResult thrd = run_program(p, r::EngineKind::rtos_thread);
    auto context = [&](std::size_t row) {
        std::ostringstream os;
        os << "seed " << GetParam() << " around row " << row << "\n";
        const std::size_t lo = row > 6 ? row - 6 : 0;
        for (std::size_t j = lo; j < row + 6; ++j) {
            os << j << "  proc: "
               << (j < proc.log.size() ? proc.log[j] : "<none>") << "  |  thrd: "
               << (j < thrd.log.size() ? thrd.log[j] : "<none>") << "\n";
        }
        return os.str();
    };
    ASSERT_EQ(proc.log.size(), thrd.log.size())
        << context(std::min(proc.log.size(), thrd.log.size()));
    for (std::size_t i = 0; i < proc.log.size(); ++i)
        ASSERT_EQ(proc.log[i], thrd.log[i]) << context(i);
    // §4.2's raison d'être: the procedure-call engine needs no more kernel
    // context switches than the RTOS-thread engine.
    EXPECT_LE(proc.kernel_activations, thrd.kernel_activations);
}

TEST_P(EquivalenceTest, RunsAreDeterministic) {
    const Program p = random_program(GetParam());
    const RunResult a = run_program(p, r::EngineKind::procedure_calls);
    const RunResult b = run_program(p, r::EngineKind::procedure_calls);
    EXPECT_EQ(a.log, b.log);
    EXPECT_EQ(a.kernel_activations, b.kernel_activations);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, EquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 41));

namespace {

/// Recorder rows (state transitions, then overhead charges) in recorded
/// order.
std::vector<std::string> recorder_rows(const tr::Recorder& rec) {
    std::vector<std::string> rows;
    for (const auto& s : rec.states()) {
        if (s.from == s.to) continue;
        rows.push_back(s.at.to_string() + " " + s.task->name() + " " +
                       r::to_string(s.from) + "->" + r::to_string(s.to));
    }
    for (const auto& o : rec.overheads())
        rows.push_back(o.at.to_string() + " " + r::to_string(o.kind) + " " +
                       o.duration.to_string() + " " +
                       (o.about != nullptr ? o.about->name() : "-"));
    return rows;
}

/// At 50 us two hardware processes ready T1 and T2 on an idle CPU. T1's own
/// bounded wait expires at that instant too, so its thread is already
/// queued in the evaluate sweep between the two wakers: the procedural
/// engine's kicked pass runs in T1's thread before H2 has readied T2. Only
/// the one-delta deferral, taken because H2 is still queued after T1, lets
/// that pass see both arrivals, as the threaded engine's RTOS thread
/// (queued behind H2 by the kick) does. The scheduling charge counts ready
/// tasks, so a pass run too early charges 1 us instead of 2 us.
std::vector<std::string> run_same_instant_wakers(r::EngineKind kind) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(),
                     kind);
    r::RtosOverheads ov;
    ov.scheduling = r::OverheadModel::formula([](const r::SystemState& s) {
        return Time::us(1) * static_cast<Time::rep>(s.ready_tasks);
    });
    ov.context_load = 2_us;
    ov.context_save = 3_us;
    cpu.set_overheads(ov);
    tr::Recorder rec;
    rec.attach(cpu);
    m::Event e1("e1");
    m::Event e2("e2");
    cpu.create_task({.name = "T1", .priority = 2}, [&](r::Task& self) {
        // The bound ends at 50 us, when H1 signals.
        EXPECT_TRUE(e1.await_for(50_us - sim.now()));
        self.compute(10_us);
    });
    // T2 arrives while T1's first pass is charged, so no pass before 50 us
    // depends on the sweep order.
    cpu.create_task({.name = "T2", .priority = 1, .start_time = 1_us},
                    [&](r::Task& self) {
                        e2.await();
                        self.compute(10_us);
                    });
    // Same-instant timed wakes run in arming order: H1 (armed at 0), T1's
    // bound (armed once its leave pass ended, before 20 us), H2 (armed at
    // 20 us). The wakers park instead of returning: a terminating process
    // delta-notifies its done event, which would defer the pass anyway.
    k::Event never("never");
    sim.spawn("H1", [&] {
        k::wait(50_us);
        e1.signal();
        k::wait(never);
    });
    sim.spawn("H2", [&] {
        k::wait(20_us);
        k::wait(30_us);
        e2.signal();
        k::wait(never);
    });
    sim.run();
    return recorder_rows(rec);
}

} // namespace

TEST(EngineEquivalence, SameInstantWakersShareTheKickedPass) {
    const auto proc = run_same_instant_wakers(r::EngineKind::procedure_calls);
    const auto thrd = run_same_instant_wakers(r::EngineKind::rtos_thread);
    EXPECT_EQ(proc, thrd);
    // The threaded engine's pass at 50 us sees both T1 and T2 ready.
    EXPECT_NE(std::find(thrd.begin(), thrd.end(), "50 us scheduling 2 us T1"),
              thrd.end());
}
