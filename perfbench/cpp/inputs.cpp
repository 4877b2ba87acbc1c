#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "campaign/campaign.hpp"
#include "campaign/fnv.hpp"

namespace perfbench {

namespace k = rtsc::kernel;
namespace w = rtsc::workload;

std::uint64_t Rng::next() noexcept {
    s_ += 0x9e3779b97f4a7c15ull;
    return rtsc::campaign::splitmix64(s_);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + next() % (hi - lo + 1);
}

double Rng::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

// Ring size: 8 tasks is where the procedural engine lost its §4 advantage;
// the round count sets how much work one simulation is.
constexpr int kRingTasks = 8;
constexpr int kRingRounds = 600;

RingInputs make_ring_inputs(std::uint64_t seed) {
    Rng rng(seed ^ 0x72696e67ull);
    RingInputs in;
    in.tasks = kRingTasks;
    in.rounds = kRingRounds;
    in.hop_ns.resize(static_cast<std::size_t>(in.tasks * in.rounds));
    for (auto& h : in.hop_ns) h = rng.range(3'000, 8'000);
    in.irq_gap_ns.resize(64);
    for (auto& g : in.irq_gap_ns) g = rng.range(80'000, 120'000);
    in.isr_ns = rng.range(1'500, 2'500);
    in.overhead_ns = rng.range(800, 1'200);
    return in;
}

std::uint64_t fingerprint(const RingInputs& in) {
    rtsc::campaign::Fnv1a h;
    h.u64(static_cast<std::uint64_t>(in.tasks));
    h.u64(static_cast<std::uint64_t>(in.rounds));
    for (const auto v : in.hop_ns) h.u64(v);
    for (const auto v : in.irq_gap_ns) h.u64(v);
    h.u64(in.isr_ns);
    h.u64(in.overhead_ns);
    return h.value();
}

constexpr std::uint64_t kMpeg2Frames = 400;

Mpeg2Inputs make_mpeg2_inputs(std::uint64_t seed) {
    Rng rng(seed ^ 0x6d706567ull);
    Mpeg2Inputs in;
    auto& c = in.config;
    c.frames = kMpeg2Frames;
    c.frame_period = k::Time::us(rng.range(900, 1'100));
    c.gop = static_cast<std::size_t>(3 * rng.range(3, 5)); // 9, 12 or 15
    c.queue_capacity = static_cast<std::size_t>(rng.range(3, 5));
    c.sw_speed_factor = rng.uniform(0.8, 1.2); // frame complexity scale
    c.engine = rtsc::rtos::EngineKind::procedure_calls;
    in.horizon = c.frame_period * c.frames + k::Time::ms(50);
    return in;
}

std::uint64_t fingerprint(const Mpeg2Inputs& in) {
    const auto& c = in.config;
    rtsc::campaign::Fnv1a h;
    h.u64(c.frames);
    h.u64(c.frame_period.raw_ps());
    h.u64(c.display_deadline.raw_ps());
    h.u64(c.gop);
    h.u64(c.queue_capacity);
    h.f64(c.sw_speed_factor);
    h.u64(in.horizon.raw_ps());
    return h.value();
}

std::vector<TaskSetInput> make_campaign_inputs(std::uint64_t seed,
                                               std::size_t scenarios) {
    Rng rng(seed ^ 0x73636865ull);
    std::vector<TaskSetInput> out(scenarios);
    for (std::size_t i = 0; i < scenarios; ++i) {
        auto& s = out[i];
        // Stratified, so every seed carries about the same work: task
        // counts cycle through 4..16; utilisations take one seeded point in
        // each of `scenarios` equal bins of [0.55, 0.99), visited in an
        // order uncorrelated with the task count (7 is coprime to it).
        const std::size_t n = 4 + i % 13;
        const std::size_t bin = (i * 7) % scenarios;
        s.utilization = 0.55 + 0.44 * (static_cast<double>(bin) + rng.uniform(0, 1)) /
                                   static_cast<double>(scenarios);
        // Per task: a UUniFast share of the utilisation and a period
        // log-uniform over [1, 20] ms, one per equal stratum of the log
        // range in shuffled order, rounded to whole microseconds.
        const auto utils = w::uunifast(n, s.utilization, rng.next());
        std::vector<std::size_t> stratum(n);
        std::iota(stratum.begin(), stratum.end(), std::size_t{0});
        for (std::size_t j = n; j > 1; --j) std::swap(stratum[j - 1], stratum[rng.range(0, j - 1)]);
        const double lo = std::log(1'000.0), hi = std::log(20'000.0);
        s.specs.resize(n);
        for (std::size_t j = 0; j < n; ++j) {
            const double x = (static_cast<double>(stratum[j]) + rng.uniform(0, 1)) /
                             static_cast<double>(n);
            const auto period_us = static_cast<k::Time::rep>(std::exp(lo + (hi - lo) * x));
            auto& sp = s.specs[j];
            sp.name = "task";
            sp.name += std::to_string(j);
            sp.period = k::Time::us(period_us);
            sp.wcet = k::Time::ps(std::max<k::Time::rep>(
                1'000, static_cast<k::Time::rep>(
                           static_cast<double>(sp.period.raw_ps()) * utils[j])));
        }
        // Unique rate-monotonic priorities (ties broken by index), so RTA
        // and the simulation agree on one order.
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
            return s.specs[a].period < s.specs[b].period;
        });
        for (std::size_t rank = 0; rank < n; ++rank)
            s.specs[order[rank]].priority = static_cast<int>(n - rank);
    }
    return out;
}

std::uint64_t fingerprint(const std::vector<TaskSetInput>& in) {
    rtsc::campaign::Fnv1a h;
    for (const auto& s : in) {
        h.f64(s.utilization);
        for (const auto& sp : s.specs) {
            h.str(sp.name);
            h.u64(sp.period.raw_ps());
            h.u64(sp.wcet.raw_ps());
            h.u64(static_cast<std::uint64_t>(sp.priority));
        }
    }
    return h.value();
}

} // namespace perfbench
