// Engine-equivalence of the instrumentation hooks: a preemption-heavy
// scenario run under the threaded engine (§4.1) and the procedural engine
// (§4.2) must fill the metrics registry with IDENTICAL values — every hook
// reading derives from simulated time and shared scheduler state, never from
// engine internals or host time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "obs/collector.hpp"
#include "rtos/processor.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

/// Three tasks, repeated interrupts: H preempts whatever runs every 100us,
/// M wakes twice, L grinds through a long compute. Several preemptions,
/// nested ones included.
struct Scenario {
    k::Simulator sim;
    r::Processor cpu;
    m::Event tick{"tick", m::EventPolicy::fugitive};
    m::Event nudge{"nudge", m::EventPolicy::fugitive};

    explicit Scenario(r::EngineKind engine)
        : cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), engine) {
        cpu.set_overheads(r::RtosOverheads::uniform(3_us));
        cpu.create_task({.name = "H", .priority = 9}, [this](r::Task& self) {
            for (int i = 0; i < 5; ++i) {
                tick.await();
                self.compute(15_us);
            }
        });
        cpu.create_task({.name = "M", .priority = 5}, [this](r::Task& self) {
            for (int i = 0; i < 2; ++i) {
                nudge.await();
                self.compute(40_us);
            }
        });
        cpu.create_task({.name = "L", .priority = 1},
                        [](r::Task& self) { self.compute(400_us); });
        sim.spawn("hw", [this] {
            for (int i = 0; i < 5; ++i) {
                k::wait(100_us);
                tick.signal();
                if (i == 1 || i == 3) nudge.signal();
            }
        });
    }
};

std::vector<o::MetricSample> run_scenario(r::EngineKind engine) {
    Scenario sc(engine);
    o::MetricsRegistry reg;
    o::MetricsCollector collector(reg);
    collector.attach(sc.cpu);
    sc.sim.run();
    return reg.snapshot();
}

} // namespace

TEST(MetricsEquivalence, BothEnginesProduceIdenticalSnapshots) {
    const auto procedural = run_scenario(r::EngineKind::procedure_calls);
    const auto threaded = run_scenario(r::EngineKind::rtos_thread);

    ASSERT_FALSE(procedural.empty());
    ASSERT_EQ(procedural.size(), threaded.size());
    for (std::size_t i = 0; i < procedural.size(); ++i) {
        EXPECT_EQ(procedural[i].name, threaded[i].name);
        EXPECT_DOUBLE_EQ(procedural[i].value, threaded[i].value)
            << procedural[i].name;
    }
}

TEST(MetricsEquivalence, CollectorCatalogueIsPlausible) {
    k::Simulator sim;
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>());
    cpu.set_overheads(r::RtosOverheads::uniform(5_us));
    o::MetricsRegistry reg;
    o::MetricsCollector collector(reg);
    collector.attach(cpu);

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

    // One preemption: H interrupts L at 50us.
    ASSERT_NE(reg.find_counter("cpu.cpu.preemptions"), nullptr);
    EXPECT_EQ(reg.find_counter("cpu.cpu.preemptions")->value(), 1u);
    // Four dispatches: H (runs to its await), L, H again, L again.
    ASSERT_NE(reg.find_counter("cpu.cpu.ctx_switches"), nullptr);
    EXPECT_EQ(reg.find_counter("cpu.cpu.ctx_switches")->value(), 4u);
    // Scheduler ran at least once per dispatch.
    ASSERT_NE(reg.find_counter("cpu.cpu.scheduler_runs"), nullptr);
    EXPECT_GE(reg.find_counter("cpu.cpu.scheduler_runs")->value(), 4u);
    // H has two activations (creation -> first await, irq -> termination),
    // both completed: two response samples. Same release/completion rule as
    // trace::ConstraintMonitor.
    ASSERT_NE(reg.find_histogram("task.H.response_ps"), nullptr);
    EXPECT_EQ(reg.find_histogram("task.H.response_ps")->count(), 2u);
    ASSERT_NE(reg.find_counter("task.H.activations"), nullptr);
    EXPECT_EQ(reg.find_counter("task.H.activations")->value(), 2u);
    ASSERT_NE(reg.find_counter("task.L.activations"), nullptr);
    EXPECT_EQ(reg.find_counter("task.L.activations")->value(), 1u);
    // First H episode: sched(5) + load(5) before it reaches the await at
    // 10us; the irq episode adds the 20us compute plus switch overheads.
    const auto* hr = reg.find_histogram("task.H.response_ps");
    EXPECT_GE(hr->min(), Time::us(10).raw_ps());
    EXPECT_GE(hr->max(), Time::us(20).raw_ps());
    // Latency histograms saw every dispatch.
    ASSERT_NE(reg.find_histogram("cpu.cpu.sched_latency_ps"), nullptr);
    EXPECT_EQ(reg.find_histogram("cpu.cpu.sched_latency_ps")->count(), 4u);
    ASSERT_NE(reg.find_histogram("cpu.cpu.dispatch_latency_ps"), nullptr);
    EXPECT_EQ(reg.find_histogram("cpu.cpu.dispatch_latency_ps")->count(), 4u);
    // Ready-queue length sampled once per scheduler run.
    ASSERT_NE(reg.find_histogram("cpu.cpu.ready_queue_len"), nullptr);
    EXPECT_EQ(reg.find_histogram("cpu.cpu.ready_queue_len")->count(),
              reg.find_counter("cpu.cpu.scheduler_runs")->value());
}

TEST(MetricsEquivalence, DestructorUnsubscribesCollector) {
    for (const auto engine :
         {r::EngineKind::procedure_calls, r::EngineKind::rtos_thread}) {
        Scenario sc(engine);
        o::MetricsRegistry reg;
        auto collector = std::make_unique<o::MetricsCollector>(reg);
        collector->attach(sc.cpu);
        // The catalogue exists as soon as attach() runs (stable snapshots
        // even for processors that never schedule).
        ASSERT_NE(reg.find_counter("cpu.cpu.ctx_switches"), nullptr);
        EXPECT_EQ(reg.find_counter("cpu.cpu.ctx_switches")->value(), 0u);

        // Destroy the collector mid-model, between the second and third
        // tick, and keep simulating: the processor must not call into the
        // freed observer (the sanitizer legs catch a dangling subscription)
        // and the registry keeps exactly what it held at destruction.
        sc.sim.run_until(250_us);
        const std::uint64_t dispatched = sc.cpu.engine().phase_stats().dispatches;
        ASSERT_GT(dispatched, 0u);
        EXPECT_EQ(reg.find_counter("cpu.cpu.ctx_switches")->value(), dispatched);
        const auto at_destruction = reg.snapshot();
        collector.reset();
        sc.sim.run();

        EXPECT_GT(sc.cpu.engine().phase_stats().dispatches, dispatched);
        const auto after = reg.snapshot();
        ASSERT_EQ(after.size(), at_destruction.size());
        for (std::size_t i = 0; i < after.size(); ++i) {
            EXPECT_EQ(after[i].name, at_destruction[i].name);
            EXPECT_DOUBLE_EQ(after[i].value, at_destruction[i].value)
                << after[i].name;
        }
    }
}
