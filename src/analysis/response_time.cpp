#include "analysis/response_time.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rtsc::analysis {

namespace k = rtsc::kernel;

double utilization(const std::vector<PeriodicTask>& tasks) {
    double u = 0.0;
    for (const auto& t : tasks)
        u += t.wcet.to_sec() / t.period.to_sec();
    return u;
}

double rm_utilization_bound(std::size_t n) {
    if (n == 0) return 0.0;
    const double nd = static_cast<double>(n);
    return nd * (std::pow(2.0, 1.0 / nd) - 1.0);
}

bool edf_schedulable(const std::vector<PeriodicTask>& tasks) {
    return utilization(tasks) <= 1.0 + 1e-12;
}

std::vector<RtaResult> response_time_analysis(
    const std::vector<PeriodicTask>& tasks, const RtaOptions& opts) {
    std::vector<RtaResult> out;
    out.reserve(tasks.size());
    const k::Time cs = opts.context_switch;

    for (const auto& ti : tasks) {
        // Higher-priority set; ties are NOT interference under our engines
        // (equal priorities never preempt each other).
        std::vector<const PeriodicTask*> hp;
        for (const auto& tj : tasks)
            if (&tj != &ti && tj.priority > ti.priority) hp.push_back(&tj);

        // Own cost: WCET plus one dispatch worth of context switch, plus the
        // blocking term. Each preempting job costs its WCET plus two context
        // switches (one out of ti, one back into it).
        const k::Time own = ti.wcet + cs + ti.blocking;
        k::Time r = own;
        RtaResult res{ti.name, std::nullopt, false};
        for (std::uint64_t iter = 0; iter < opts.max_iterations; ++iter) {
            k::Time interference{};
            for (const auto* tj : hp) {
                const k::Time::rep jobs =
                    (r.raw_ps() + tj->period.raw_ps() - 1) / tj->period.raw_ps();
                interference += jobs * (tj->wcet + 2u * cs);
            }
            const k::Time next = own + interference;
            if (next == r) {
                res.response = r;
                res.schedulable = r <= ti.effective_deadline();
                break;
            }
            if (next > ti.effective_deadline() && next > 1000u * ti.period) break;
            r = next;
        }
        // A fixed point above the deadline is still a meaningful response
        // time; recompute convergence without the deadline cut-off when the
        // loop exited by divergence guard.
        out.push_back(res);
    }
    return out;
}

kernel::Time hyperperiod(const std::vector<PeriodicTask>& tasks) {
    k::Time::rep l = 1;
    for (const auto& t : tasks) {
        const k::Time::rep p = t.period.raw_ps();
        if (p == 0) return k::Time::zero(); // as std::lcm: lcm(x, 0) == 0
        // lcm(l, p) = l / gcd * p, checked: random period sets in ps easily
        // exceed 64 bits, and std::lcm's overflow is undefined.
        if (__builtin_mul_overflow(l / std::gcd(l, p), p, &l))
            return k::Time::max();
    }
    return k::Time::ps(l);
}

} // namespace rtsc::analysis
