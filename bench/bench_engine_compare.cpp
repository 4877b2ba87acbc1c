// Experiment F3/F5 (paper §4, Figures 3 vs 5): the procedure-call RTOS model
// implementation simulates faster than the dedicated-RTOS-thread one because
// it needs fewer simulator context switches — "the only thread switches are
// those of the tasks of the system we're designing".
//
// google-benchmark measures wall-clock simulation time of an identical
// workload under both engines across task counts; the counters report kernel
// process activations (the metric behind the speed difference) and the final
// summary prints the activation ratio per configuration.
#include <benchmark/benchmark.h>

#include <iostream>

#include "token_ring.hpp"

namespace r = rtsc::rtos;
using rtsc::bench::run_token_ring;

namespace {

void BM_Engine(benchmark::State& state, r::EngineKind kind) {
    const int n_tasks = static_cast<int>(state.range(0));
    const int rounds = 200;
    rtsc::bench::RingStats last;
    for (auto _ : state) last = run_token_ring(kind, n_tasks, rounds);
    state.counters["kernel_activations"] =
        static_cast<double>(last.activations);
    state.counters["rtos_dispatches"] = static_cast<double>(last.dispatches);
    state.counters["activations_per_dispatch"] =
        static_cast<double>(last.activations) /
        static_cast<double>(last.dispatches);
}

} // namespace

BENCHMARK_CAPTURE(BM_Engine, procedural, r::EngineKind::procedure_calls)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Engine, rtos_thread, r::EngineKind::rtos_thread)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    std::cout << "\n=== engine comparison summary (identical simulated "
                 "behaviour, different simulation cost) ===\n";
    std::cout << "tasks  proc_activations  thread_activations  ratio\n";
    for (const int n : {2, 4, 8, 16, 32}) {
        const auto proc = run_token_ring(r::EngineKind::procedure_calls, n, 200);
        const auto thrd = run_token_ring(r::EngineKind::rtos_thread, n, 200);
        std::cout << "  " << n << "        " << proc.activations
                  << "              " << thrd.activations << "        "
                  << static_cast<double>(thrd.activations) /
                         static_cast<double>(proc.activations)
                  << "\n";
    }
    std::cout << "The RTOS-thread engine pays roughly one extra pair of kernel "
                 "context switches per scheduling action (paper §4.2).\n";
    return 0;
}
