#pragma once
// Host calibration recorded with every result, so numbers from different
// hosts are never compared blindly, and the host-speed reference that
// rescales end-to-end host times.

#include <string>

namespace perfbench {

struct HostRecord {
    unsigned nproc = 0;        ///< online CPUs
    double spin_scaling = 0;   ///< work rate at nproc threads / rate at 1 thread
    double switch_ns = 0;      ///< kernel::Coroutine resume+yield round trip
    std::string compiler;
    std::string build_type;
};

/// Median round trip of resuming a kernel::Coroutine that yields straight
/// back, in ns, over `round_trips` switches.
[[nodiscard]] double measure_switch_ns(int round_trips);

/// Rate of a CPU-bound spin on `threads` threads relative to one thread.
/// Close to `threads` on a host with that many free cores; close to 1 where
/// the container gets about one core's worth of throughput.
[[nodiscard]] double measure_spin_scaling(unsigned threads);

/// The reference block's nominal duration: host times are reported as if
/// the block took exactly this long (see HostSpeed).
inline constexpr double kNominalReferenceSeconds = 1e-3;

/// Rescales host times measured now to the nominal host speed. The host
/// this benchmark runs on drifts by up to ±20 % over tens of seconds; a
/// reference block timed beside each operation cancels that drift.
struct HostSpeed {
    double reference_s = kNominalReferenceSeconds;
    /// Seconds at nominal speed for `s` seconds measured now.
    [[nodiscard]] double seconds(double s) const noexcept {
        return s * kNominalReferenceSeconds / reference_s;
    }
    /// Events per second at nominal speed for `per_s` measured now.
    [[nodiscard]] double rate(double per_s) const noexcept {
        return per_s * reference_s / kNominalReferenceSeconds;
    }
    /// The speed over an operation timed between two measurements.
    [[nodiscard]] static HostSpeed across(const HostSpeed& before,
                                          const HostSpeed& after) noexcept {
        return {(before.reference_s + after.reference_s) / 2};
    }
};

/// Time the reference block — a fixed block of work that uses nothing from
/// the library (libc ucontext switches, a dependent multiply/load/store
/// loop, number formatting) — on `threads` threads at once, one per
/// concurrently working process or thread of the operation. Workloads
/// measure it just before and just after each timed operation.
[[nodiscard]] HostSpeed measure_host_speed(unsigned threads = 1);

[[nodiscard]] HostRecord calibrate_host();
[[nodiscard]] std::string host_json(const HostRecord& h);

/// Peak RSS in MiB of this process or, with `children`, the largest of it
/// and every waited-for child (getrusage).
[[nodiscard]] double peak_rss_mib(bool children);

} // namespace perfbench
