#pragma once
// The §4 token-ring workload behind bench_engine_compare (experiment F3/F5),
// shared with the kernel-activation gate in tests/integration: n tasks pass
// a token around through counter events, so every hop is one RTOS block +
// one wake + one dispatch, and a periodic HW interrupt preempts the ring to
// exercise the preemption path too.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "rtos/processor.hpp"

namespace rtsc::bench {

struct RingStats {
    std::uint64_t activations = 0; ///< kernel process activations
    std::uint64_t dispatches = 0;  ///< RTOS Ready -> Running transitions
    kernel::Time end{};
};

inline RingStats run_token_ring(rtos::EngineKind kind, int n_tasks, int rounds) {
    using namespace kernel::time_literals;
    kernel::Simulator sim;
    rtos::Processor cpu("cpu", std::make_unique<rtos::PriorityPreemptivePolicy>(),
                        kind);
    cpu.set_overheads(rtos::RtosOverheads::uniform(1_us));

    std::vector<std::unique_ptr<mcse::Event>> ring;
    ring.reserve(static_cast<std::size_t>(n_tasks));
    for (int i = 0; i < n_tasks; ++i)
        ring.push_back(std::make_unique<mcse::Event>(
            "ev" + std::to_string(i), mcse::EventPolicy::counter));
    mcse::Event irq("irq", mcse::EventPolicy::counter);

    for (int i = 0; i < n_tasks; ++i) {
        cpu.create_task(
            {.name = "t" + std::to_string(i), .priority = 1},
            [&, i, rounds](rtos::Task& self) {
                for (int round = 0; round < rounds; ++round) {
                    ring[static_cast<std::size_t>(i)]->await();
                    self.compute(5_us);
                    ring[static_cast<std::size_t>((i + 1) % n_tasks)]->signal();
                }
            });
    }
    cpu.create_task({.name = "isr", .priority = 9}, [&](rtos::Task& self) {
        for (;;) {
            irq.await();
            self.compute(2_us);
        }
    });
    sim.spawn("hw", [&] {
        for (;;) {
            kernel::wait(100_us);
            irq.signal();
        }
    });
    sim.spawn("starter", [&] { ring[0]->signal(); });

    sim.run_until(kernel::Time::ms(static_cast<kernel::Time::rep>(rounds) * 2u));

    RingStats stats;
    stats.activations = sim.process_activations();
    stats.dispatches = cpu.engine().phase_stats().dispatches;
    stats.end = sim.now();
    return stats;
}

} // namespace rtsc::bench
