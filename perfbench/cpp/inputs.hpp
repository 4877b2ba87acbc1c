#pragma once
// Seeded input generation for the three workloads. The model code only ever
// sees what these functions return; each input set has a fingerprint so a
// run can check that regenerating from the same seed gives the same inputs.

#include <cstdint>
#include <vector>

#include "workload/mpeg2.hpp"
#include "workload/taskset.hpp"

namespace perfbench {

/// SplitMix64 stream.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() noexcept;
    /// Uniform integer in [lo, hi].
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept;
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;

private:
    std::uint64_t s_;
};

/// §4 token ring: `tasks` ring tasks pass a token `rounds` times; a HW
/// timer interrupts the ring through an ISR task.
struct RingInputs {
    int tasks = 8;
    int rounds = 0;
    std::vector<std::uint64_t> hop_ns;     ///< compute per hop, round-major
    std::vector<std::uint64_t> irq_gap_ns; ///< HW interrupt inter-arrival, cycled
    std::uint64_t isr_ns = 0;              ///< ISR compute per interrupt
    std::uint64_t overhead_ns = 0;         ///< save = sched = load
};
[[nodiscard]] RingInputs make_ring_inputs(std::uint64_t seed);
[[nodiscard]] std::uint64_t fingerprint(const RingInputs& in);

/// §5 MPEG-2 SoC configuration.
struct Mpeg2Inputs {
    rtsc::workload::Mpeg2Config config;
    rtsc::kernel::Time horizon{}; ///< long enough for every frame to display
};
[[nodiscard]] Mpeg2Inputs make_mpeg2_inputs(std::uint64_t seed);
[[nodiscard]] std::uint64_t fingerprint(const Mpeg2Inputs& in);

/// One schedulability scenario: a UUniFast set with unique rate-monotonic
/// priorities.
struct TaskSetInput {
    double utilization = 0;
    std::vector<rtsc::workload::PeriodicSpec> specs;
};
[[nodiscard]] std::vector<TaskSetInput> make_campaign_inputs(std::uint64_t seed,
                                                             std::size_t scenarios);
[[nodiscard]] std::uint64_t fingerprint(const std::vector<TaskSetInput>& in);

} // namespace perfbench
