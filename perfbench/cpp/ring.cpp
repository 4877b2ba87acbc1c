// `ring`: the paper's §4 token ring, simulated once on each RTOS engine per
// operation. The kernel coroutine switch and the engine's scheduling pass
// do almost all of the work: a one-deep ready queue and event-driven wakes.

#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "host.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "rtos/processor.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;

namespace {

/// prefix + index (avoids GCC 12's false -Wrestrict on literal + to_string).
std::string indexed(const char* prefix, std::size_t i) {
    std::string s = prefix;
    s += std::to_string(i);
    return s;
}

struct RingRun {
    // simulated observables (must agree across engines, with counts.dispatches)
    std::uint64_t hops = 0;
    k::Time last_hop{};
    k::Time end{};
    k::Time busy{};
    SimCounts counts;
    // host time
    double setup_s = 0;
    double run_s = 0;
};

RingRun simulate(const RingInputs& in, r::EngineKind kind, bool profile,
                 Tracer& tr, std::uint64_t op) {
    RingRun out;
    const auto t0 = Clock::now();
    std::unique_ptr<Tracer::Scope> build =
        std::make_unique<Tracer::Scope>(tr, "rtos.build", op);
    k::Simulator sim;
    sim.set_host_profiling(profile);
    r::Processor cpu("cpu", std::make_unique<r::PriorityPreemptivePolicy>(), kind);
    cpu.set_overheads(r::RtosOverheads::uniform(k::Time::ns(in.overhead_ns)));

    const auto n = static_cast<std::size_t>(in.tasks);
    const auto rounds = static_cast<std::size_t>(in.rounds);
    std::vector<std::unique_ptr<m::Event>> ring;
    ring.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        ring.push_back(std::make_unique<m::Event>(indexed("ev", i),
                                                  m::EventPolicy::counter));
    m::Event irq("irq", m::EventPolicy::counter);
    bool done = false;

    for (std::size_t i = 0; i < n; ++i) {
        cpu.create_task(
            {.name = indexed("t", i), .priority = 1},
            [&, i](r::Task& self) {
                for (std::size_t round = 0; round < rounds; ++round) {
                    ring[i]->await();
                    self.compute(k::Time::ns(in.hop_ns[round * n + i]));
                    out.last_hop = sim.now();
                    if (++out.hops == n * rounds) done = true;
                    ring[(i + 1) % n]->signal();
                }
            });
    }
    cpu.create_task({.name = "isr", .priority = 9}, [&](r::Task& self) {
        for (;;) {
            irq.await();
            self.compute(k::Time::ns(in.isr_ns));
        }
    });
    sim.spawn("hw", [&] {
        for (std::size_t g = 0; !done; ++g) {
            k::wait(k::Time::ns(in.irq_gap_ns[g % in.irq_gap_ns.size()]));
            if (!done) irq.signal();
        }
    });
    sim.spawn("starter", [&] { ring[0]->signal(); });
    build.reset();
    const auto t1 = Clock::now();
    {
        const Tracer::Scope run(tr, "kernel.run", op);
        sim.run();
    }
    out.busy = cpu.engine().phase_stats().busy_time;
    const auto t2 = Clock::now();

    out.end = sim.now();
    out.counts.add_sim(sim);
    out.counts.add_cpu(cpu);
    out.setup_s = seconds_between(t0, t1);
    out.run_s = seconds_between(t1, t2);
    return out;
}

/// Both engines must simulate the identical ring: same dispatches, same
/// simulated end and last-hop instants, same busy time, every hop done.
bool check(Outcome& out, const RingInputs& in, const RingRun& proc,
           const RingRun& thr) {
    const auto hops = static_cast<std::uint64_t>(in.tasks) *
                      static_cast<std::uint64_t>(in.rounds);
    bool ok = true;
    const auto expect = [&](bool cond, const std::string& what) {
        if (!cond) {
            out.fail("ring: " + what);
            ok = false;
        }
    };
    expect(proc.hops == hops, "procedural engine did " + std::to_string(proc.hops) +
                                  " of " + std::to_string(hops) + " hops");
    expect(thr.hops == hops, "threaded engine did " + std::to_string(thr.hops) +
                                 " of " + std::to_string(hops) + " hops");
    expect(proc.counts.dispatches == thr.counts.dispatches,
           "dispatches differ: " + std::to_string(proc.counts.dispatches) + " vs " +
               std::to_string(thr.counts.dispatches));
    expect(proc.end == thr.end, "simulated end differs: " + proc.end.to_string() +
                                    " vs " + thr.end.to_string());
    expect(proc.last_hop == thr.last_hop, "last hop instant differs");
    expect(proc.busy == thr.busy, "busy time differs");
    return ok;
}

} // namespace

Outcome run_ring(const RunOptions& opt) {
    Outcome out;
    Tracer tracer(opt.trace);
    Tracer off(false);
    const std::uint64_t expected = fingerprint(make_ring_inputs(opt.seed));

    EndToEnd e2e;
    KernelLayer kernel;
    std::vector<double> traced_wall, untraced_wall, gen_s;
    RingRun last_proc, last_thr;

    const auto one_op = [&](std::uint64_t op, bool timed) {
        const bool traced = opt.trace && op % 2 == 0;
        Tracer& tr = traced ? tracer : off;
        const HostSpeed before = measure_host_speed();
        const auto t0 = Clock::now();
        const Tracer::Scope root(tr, "bench.op", op);
        RingInputs in;
        {
            const Tracer::Scope gen(tr, "workload.gen", op);
            in = make_ring_inputs(opt.seed);
        }
        const auto t_gen = Clock::now();
        if (fingerprint(in) != expected) {
            out.fail("ring: regenerated inputs differ for one seed");
            return false;
        }
        // Alternate which engine runs first so slow drift biases neither.
        RingRun proc, thr;
        if (op % 2 == 0) {
            proc = simulate(in, r::EngineKind::procedure_calls, traced, tr, op);
            thr = simulate(in, r::EngineKind::rtos_thread, traced, tr, op);
        } else {
            thr = simulate(in, r::EngineKind::rtos_thread, traced, tr, op);
            proc = simulate(in, r::EngineKind::procedure_calls, traced, tr, op);
        }
        const bool ok = check(out, in, proc, thr);
        const double wall = seconds_between(t0, Clock::now());
        if (!timed || !ok) return ok;
        const HostSpeed hs = HostSpeed::across(before, measure_host_speed());
        e2e.reference_s.push_back(hs.reference_s);
        e2e.dispatch_rate.rate(static_cast<double>(proc.counts.dispatches) / proc.run_s, hs);
        e2e.dispatch_rate_threaded.rate(
            static_cast<double>(thr.counts.dispatches) / thr.run_s, hs);
        const double gen = seconds_between(t0, t_gen);
        e2e.setup_s.seconds(gen + proc.setup_s + thr.setup_s, hs);
        e2e.scenarios_per_s.rate(1.0 / wall, hs);
        (traced ? traced_wall : untraced_wall).push_back(wall);
        gen_s.push_back(gen);
        if (traced)
            kernel.add_profile(proc.counts.profile);
        else
            kernel.run_s.push_back(proc.run_s);
        last_proc = proc;
        last_thr = thr;
        return true;
    };

    // Warm-up: caches, allocator and page faults settle before timing.
    out.attempt([&] { return one_op(0, false); });
    const Budget budget(opt.seconds, 4);
    for (std::uint64_t op = 1; budget.more(op - 1);) {
        const std::uint64_t id = op++;
        out.attempt([&] { return one_op(id, true); });
    }
    if (e2e.reference_s.empty()) return out;

    out.notes.push_back("ring: dispatches " + std::to_string(last_proc.counts.dispatches) +
                        ", activations procedural " +
                        std::to_string(last_proc.counts.activations) + " threaded " +
                        std::to_string(last_thr.counts.activations) + ", simulated end " +
                        last_proc.end.to_string());
    if (!opt.trace) {
        e2e.activations_per_dispatch = last_proc.counts.activations_per_dispatch();
        e2e.activations_per_dispatch_threaded = last_thr.counts.activations_per_dispatch();
        e2e.peak_rss_mib = peak_rss_mib(false);
        e2e.report(out);
        return out;
    }
    kernel.report(out, last_proc.counts, last_thr.counts);
    out.set("workload.gen_s", median(gen_s));
    out.set("host.reference_ms", median(e2e.reference_s) * 1e3);
    finish_trace(out, tracer, opt, "ring", traced_wall, untraced_wall);
    return out;
}

} // namespace perfbench
