// Kernel-activation gate for the §4 engine comparison (experiment F3/F5).
// bench_engine_compare's token ring must cost exactly the pinned number of
// kernel process activations and RTOS dispatches on each engine. Both are
// deterministic, so any change to an engine's blocking, scheduling-pass or
// dispatch path shows up here: an intended change updates the pins and the
// F3/F5 table in EXPERIMENTS.md, an accidental one fails. The §4 ordering
// itself (the procedural engine needs fewer activations) is gated at every
// ring size of the F3/F5 table.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "token_ring.hpp"

namespace r = rtsc::rtos;

namespace {

struct Pin {
    r::EngineKind engine;
    int tasks;
    std::uint64_t activations;
    std::uint64_t dispatches;
};

constexpr int kRounds = 20;

class ActivationGate : public ::testing::TestWithParam<Pin> {};

TEST_P(ActivationGate, TokenRingMatchesPinnedCounts) {
    const Pin& pin = GetParam();
    const auto stats = rtsc::bench::run_token_ring(pin.engine, pin.tasks, kRounds);
    EXPECT_EQ(stats.activations, pin.activations);
    EXPECT_EQ(stats.dispatches, pin.dispatches);
}

INSTANTIATE_TEST_SUITE_P(
    TokenRing, ActivationGate,
    ::testing::Values(Pin{r::EngineKind::procedure_calls, 2, 3051, 442},
                      Pin{r::EngineKind::rtos_thread, 2, 3966, 442},
                      Pin{r::EngineKind::procedure_calls, 8, 3794, 570},
                      Pin{r::EngineKind::rtos_thread, 8, 5053, 570},
                      Pin{r::EngineKind::procedure_calls, 32, 6764, 1080},
                      Pin{r::EngineKind::rtos_thread, 32, 9399, 1080}),
    [](const auto& info) {
        return std::string(info.param.engine == r::EngineKind::procedure_calls
                               ? "procedural"
                               : "threaded") +
               "_" + std::to_string(info.param.tasks) + "tasks";
    });

class EngineOrdering : public ::testing::TestWithParam<int> {};

TEST_P(EngineOrdering, ProceduralNeedsFewerActivationsThanThreaded) {
    const int tasks = GetParam();
    const auto procedural =
        rtsc::bench::run_token_ring(r::EngineKind::procedure_calls, tasks, kRounds);
    const auto threaded =
        rtsc::bench::run_token_ring(r::EngineKind::rtos_thread, tasks, kRounds);
    EXPECT_LT(procedural.activations, threaded.activations);
}

INSTANTIATE_TEST_SUITE_P(TokenRing, EngineOrdering,
                         ::testing::Values(2, 4, 8, 16, 32),
                         [](const auto& info) {
                             return std::to_string(info.param) + "tasks";
                         });

} // namespace
