// `sched_campaign`: a sharded schedulability campaign. Each scenario is a
// seeded UUniFast set of 4-16 tasks at utilisation 0.55-0.99, analysed with
// exact RTA and simulated under RM, EDF and RM with 50 us RTOS overheads.
// One operation is one ShardCoordinator pass over all scenarios with two
// worker processes, alternately on each engine. Serial in-process
// CampaignRunner passes give the reference digest and the kernel counters.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/response_time.hpp"
#include "campaign/campaign.hpp"
#include "campaign/shard/coordinator.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "kernel/simulator.hpp"
#include "rtos/processor.hpp"
#include "workload/taskset.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace w = rtsc::workload;
namespace a = rtsc::analysis;
namespace c = rtsc::campaign;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kScenarios = 40;
constexpr unsigned kWorkers = 2;
const k::Time kHorizon = k::Time::ms(200);
const k::Time kOverhead = k::Time::us(50);

/// Host-side counters of one scenario, collected by in-process passes only
/// (kept out of the report so the digest covers simulated results only).
struct Tally {
    SimCounts counts;
    double run_s = 0;
    double rta_s = 0;
};

struct Env {
    std::shared_ptr<const std::vector<TaskSetInput>> sets;
    r::EngineKind engine = r::EngineKind::procedure_calls;
    std::vector<Tally>* tally = nullptr; ///< in-process passes only
    Tracer* tracer = nullptr;            ///< in-process passes only
    std::int64_t parent = -1;
    std::uint64_t op = 0;
};

struct SetRun {
    std::uint64_t misses = 0;
    std::uint64_t dispatches = 0;
    double response_sum_ns = 0;
};

SetRun simulate_set(const Env& env, const std::vector<w::PeriodicSpec>& specs,
                    bool edf, k::Time overhead, Tally* tally,
                    std::vector<std::uint64_t>* first_ok,
                    std::vector<k::Time>* max_response) {
    Tracer off(false);
    Tracer& tr = env.tracer != nullptr ? *env.tracer : off;
    SetRun out;
    auto build = std::make_unique<Tracer::Scope>(tr, "rtos.build", env.op);
    k::Simulator sim;
    sim.set_host_profiling(tally != nullptr && tr.enabled());
    std::unique_ptr<r::SchedulingPolicy> policy;
    if (edf)
        policy = std::make_unique<r::EdfPolicy>();
    else
        policy = std::make_unique<r::PriorityPreemptivePolicy>();
    r::Processor cpu("cpu", std::move(policy), env.engine);
    cpu.set_overheads(r::RtosOverheads::uniform(overhead));
    auto adjusted = specs;
    for (auto& s : adjusted) s.edf_deadlines = edf;
    w::PeriodicTaskSet ts(cpu, adjusted);
    build.reset();
    const auto t0 = Clock::now();
    {
        const Tracer::Scope run(tr, "kernel.run", env.op);
        sim.run_until(kHorizon);
    }
    const double run_s = seconds_between(t0, Clock::now());

    out.misses = ts.total_misses();
    out.dispatches = cpu.engine().phase_stats().dispatches;
    for (const auto& t : ts.results()) {
        out.response_sum_ns += static_cast<double>(t.max_response.raw_ps() / 1000);
        if (first_ok != nullptr)
            first_ok->push_back(!t.jobs.empty() && t.misses == 0 ? 1 : 0);
        if (max_response != nullptr) max_response->push_back(t.max_response);
    }
    if (tally != nullptr) {
        tally->counts.add_sim(sim);
        tally->counts.add_cpu(cpu);
        tally->run_s += run_s;
    }
    return out;
}

/// One scenario: RTA plus three simulations. Every recorded metric is a
/// simulated or analytical result, identical on both engines.
void scenario(c::ScenarioContext& ctx, const Env& env) {
    Tracer off(false);
    Tracer& tr = env.tracer != nullptr ? *env.tracer : off;
    const Tracer::Scope root(tr, "campaign.scenario", env.op, env.parent);
    const TaskSetInput& in = (*env.sets).at(ctx.index());
    Tally* tally = env.tally != nullptr ? &env.tally->at(ctx.index()) : nullptr;
    if (tally != nullptr) *tally = Tally{};

    const auto t0 = Clock::now();
    std::vector<a::RtaResult> rta;
    {
        const Tracer::Scope s(tr, "analysis.rta", env.op);
        std::vector<a::PeriodicTask> at;
        for (const auto& sp : in.specs)
            at.push_back({sp.name, sp.period, sp.wcet, sp.deadline, sp.priority,
                          k::Time::zero()});
        rta = a::response_time_analysis(at);
    }
    if (tally != nullptr) tally->rta_s = seconds_between(t0, Clock::now());

    std::vector<std::uint64_t> first_ok;
    std::vector<k::Time> max_response;
    const SetRun rm = simulate_set(env, in.specs, false, k::Time::zero(), tally,
                                   &first_ok, &max_response);
    const SetRun edf = simulate_set(env, in.specs, true, k::Time::zero(), tally,
                                    nullptr, nullptr);
    const SetRun ovh = simulate_set(env, in.specs, false, kOverhead, tally,
                                    nullptr, nullptr);

    // RTA must predict the zero-overhead RM simulation task by task: the
    // same verdict, and for schedulable tasks the exact worst response
    // (synchronous release is the critical instant).
    std::uint64_t mispredicts = 0;
    std::uint64_t schedulable = 0;
    for (std::size_t i = 0; i < rta.size(); ++i) {
        const bool sim_ok = first_ok.at(i) != 0;
        if (rta[i].schedulable) ++schedulable;
        if (rta[i].schedulable != sim_ok ||
            (sim_ok && rta[i].response && *rta[i].response != max_response.at(i)))
            ++mispredicts;
    }
    ctx.metric("tasks", static_cast<double>(in.specs.size()));
    ctx.metric("utilization", in.utilization);
    ctx.metric("rta_schedulable_tasks", static_cast<double>(schedulable));
    ctx.metric("rta_mispredicts", static_cast<double>(mispredicts));
    ctx.metric("rm_misses", static_cast<double>(rm.misses));
    ctx.metric("edf_misses", static_cast<double>(edf.misses));
    ctx.metric("rm_overhead_misses", static_cast<double>(ovh.misses));
    ctx.metric("response_sum_ns",
               rm.response_sum_ns + edf.response_sum_ns + ovh.response_sum_ns);
    ctx.metric("dispatches",
               static_cast<double>(rm.dispatches + edf.dispatches + ovh.dispatches));
}

std::vector<c::ScenarioSpec> make_specs(const Env& env) {
    std::vector<c::ScenarioSpec> specs;
    specs.reserve(env.sets->size());
    for (std::size_t i = 0; i < env.sets->size(); ++i) {
        std::string name = "set";
        name += std::to_string(i);
        specs.push_back({std::move(name),
                         [env](c::ScenarioContext& ctx) { scenario(ctx, env); }});
    }
    return specs;
}

double metric_sum(const c::CampaignReport& rep, const std::string& name) {
    double sum = 0;
    for (const auto& res : rep.results)
        for (const auto& [n, v] : res.metrics)
            if (n == name) sum += v;
    return sum;
}

/// A pass's counts and host times, summed over its scenarios.
Tally total(const std::vector<Tally>& tallies) {
    Tally sum;
    for (const auto& t : tallies) {
        sum.counts.add(t.counts);
        sum.run_s += t.run_s;
        sum.rta_s += t.rta_s;
    }
    return sum;
}

} // namespace

Outcome run_campaign(const RunOptions& opt) {
    Outcome out;
    Tracer tracer(opt.trace);
    Tracer off(false);
    const std::uint64_t expected = fingerprint(make_campaign_inputs(opt.seed, kScenarios));
    const std::string journal = opt.scratch_dir + "/campaign-seed" +
                                std::to_string(opt.seed) + ".journal";

    // Serial in-process reference passes, one per engine: the digest every
    // sharded pass must reproduce, and the exact kernel counters.
    const auto sets = std::make_shared<const std::vector<TaskSetInput>>(
        make_campaign_inputs(opt.seed, kScenarios));
    std::vector<Tally> tally_proc(kScenarios), tally_thr(kScenarios);
    std::uint64_t reference = 0;
    std::uint64_t mispredicts = 0;
    const auto serial = [&](r::EngineKind kind, std::vector<Tally>& tally,
                            Tracer& tr, std::uint64_t op, double* wall) {
        const Tracer::Scope pass(tr, "campaign.serial_run", op);
        const Env env{sets, kind, &tally, &tr, pass.id(), op};
        const auto t0 = Clock::now();
        c::CampaignRunner::Options ro;
        ro.workers = 1;
        ro.seed = opt.seed;
        const auto rep = c::CampaignRunner(ro).run(make_specs(env));
        if (wall != nullptr) *wall = seconds_between(t0, Clock::now());
        mispredicts += static_cast<std::uint64_t>(metric_sum(rep, "rta_mispredicts"));
        return rep;
    };
    out.attempt([&] {
        const auto proc = serial(r::EngineKind::procedure_calls, tally_proc, off, 0, nullptr);
        const auto thr = serial(r::EngineKind::rtos_thread, tally_thr, off, 0, nullptr);
        reference = proc.digest();
        bool ok = true;
        if (proc.failures() != 0 || thr.failures() != 0) {
            out.fail("sched_campaign: serial reference pass had failed scenarios");
            ok = false;
        }
        if (thr.digest() != reference) {
            out.fail("sched_campaign: engines disagree on the serial campaign digest");
            ok = false;
        }
        if (mispredicts != 0) {
            out.fail("sched_campaign: RTA mispredicted " + std::to_string(mispredicts) +
                     " tasks");
            ok = false;
        }
        return ok;
    });

    EndToEnd e2e;
    std::vector<double> gen_s;
    std::vector<double> traced_wall, untraced_wall, shard1_wall, serial_wall;
    KernelLayer kernel; // kernel.run_s: serial in-process passes
    std::vector<double> body_ms, busy_frac, rta_s;
    double result_bytes = 0, journal_bytes = 0, spawns = 0;
    std::size_t retries = 0, crashes = 0, timeouts = 0, passes = 0;

    struct Pass {
        c::shard::ShardOutcome res;
        double wall = 0;
        std::uintmax_t journal_bytes = 0;
    };
    const auto shard_pass = [&](const std::vector<c::ScenarioSpec>& specs,
                                unsigned workers, Tracer& tr, std::uint64_t op) {
        Pass p;
        const auto t0 = Clock::now();
        {
            const Tracer::Scope run(tr, "campaign.shard_run", op);
            c::shard::ShardOptions so;
            so.workers = workers;
            so.seed = opt.seed;
            so.timeout = std::chrono::milliseconds(60'000);
            so.checkpoint_path = journal;
            p.res = c::shard::ShardCoordinator(so).run(specs);
        }
        p.wall = seconds_between(t0, Clock::now());
        std::error_code ec;
        p.journal_bytes = fs::file_size(journal, ec);
        fs::remove(journal, ec);
        return p;
    };
    // A sharded report must match the serial reference exactly.
    const auto check_report = [&](const c::CampaignReport& rep, const char* what) {
        bool ok = true;
        if (rep.failures() != 0) {
            out.fail(std::string("sched_campaign: ") + what + " had " +
                     std::to_string(rep.failures()) + " failed scenarios");
            ok = false;
        }
        if (rep.digest() != reference) {
            out.fail(std::string("sched_campaign: ") + what +
                     " digest differs from CampaignRunner's");
            ok = false;
        }
        const auto mis = static_cast<std::uint64_t>(metric_sum(rep, "rta_mispredicts"));
        mispredicts += mis;
        if (mis != 0) {
            out.fail(std::string("sched_campaign: RTA mispredicted in ") + what);
            ok = false;
        }
        return ok;
    };

    const auto one_pass = [&](std::uint64_t op) {
        const bool threaded = op % 2 == 1;
        const bool traced = opt.trace && (op / 2) % 2 == 0;
        Tracer& tr = traced ? tracer : off;
        const HostSpeed before1 = measure_host_speed(1);
        const HostSpeed before2 = measure_host_speed(kWorkers);
        const auto t0 = Clock::now();
        const Tracer::Scope root(tr, "bench.op", op);
        std::shared_ptr<const std::vector<TaskSetInput>> pass_sets;
        {
            const Tracer::Scope gen(tr, "workload.gen", op);
            pass_sets = std::make_shared<const std::vector<TaskSetInput>>(
                make_campaign_inputs(opt.seed, kScenarios));
        }
        const auto t_gen = Clock::now();
        if (fingerprint(*pass_sets) != expected) {
            out.fail("sched_campaign: regenerated inputs differ for one seed");
            return false;
        }
        const Env env{pass_sets,
                      threaded ? r::EngineKind::rtos_thread : r::EngineKind::procedure_calls,
                      nullptr, nullptr, -1, op};
        const auto specs = make_specs(env);
        const auto t1 = Clock::now();
        const Pass pass = shard_pass(specs, kWorkers, tr, op);
        const auto& res = pass.res;
        const double wall = pass.wall;
        if (!check_report(res.report, "sharded pass")) return false;

        const double dispatches = metric_sum(res.report, "dispatches");
        // The pass keeps two workers busy, so its host speed is measured on
        // two threads; set-up is single-threaded.
        const HostSpeed hs1 = HostSpeed::across(before1, measure_host_speed(1));
        const HostSpeed hs2 = HostSpeed::across(before2, measure_host_speed(kWorkers));
        e2e.reference_s.push_back(hs1.reference_s);
        (threaded ? e2e.dispatch_rate_threaded : e2e.dispatch_rate).rate(dispatches / wall, hs2);
        if (!threaded) e2e.scenarios_per_s.rate(static_cast<double>(kScenarios) / wall, hs2);
        const double gen = seconds_between(t0, t_gen);
        e2e.setup_s.seconds(seconds_between(t0, t1), hs1);
        gen_s.push_back(gen);
        double body = 0;
        for (const auto& s : res.report.results) {
            body_ms.push_back(s.wall_ms);
            body += s.wall_ms;
        }
        busy_frac.push_back(body / 1e3 / (kWorkers * wall));
        if (const auto* h = res.metrics.find_histogram("shard.worker.result_bytes"))
            result_bytes = h->sum();
        if (const auto* sp = res.metrics.find_counter("shard.spawns"))
            spawns += static_cast<double>(sp->value());
        journal_bytes = static_cast<double>(pass.journal_bytes);
        retries += res.retries;
        crashes += res.crashes;
        timeouts += res.timeouts;
        ++passes;
        (traced ? traced_wall : untraced_wall).push_back(wall);

        if (opt.trace && !threaded) {
            // The same pass serially in-process (kernel counters), and on one
            // worker process: their difference is the fork/IPC/journal cost,
            // independent of how many cores the host really gives.
            std::vector<Tally> tally(kScenarios);
            double swall = 0;
            const auto rep = serial(r::EngineKind::procedure_calls, tally, tr, op, &swall);
            if (rep.digest() != reference) {
                out.fail("sched_campaign: serial rerun digest differs");
                return false;
            }
            if (!traced) {
                const Pass one = shard_pass(specs, 1, off, op);
                if (!check_report(one.res.report, "one-worker pass")) return false;
                shard1_wall.push_back(one.wall);
                serial_wall.push_back(swall);
            }
            const Tally sum = total(tally);
            if (traced) {
                kernel.add_profile(sum.counts.profile);
            } else {
                kernel.run_s.push_back(sum.run_s);
                rta_s.push_back(sum.rta_s);
            }
        }
        return true;
    };

    const Budget budget(opt.seconds, opt.trace ? 8 : 4);
    for (std::uint64_t op = 0; budget.more(op);) {
        const std::uint64_t id = op++;
        out.attempt([&] { return one_pass(id); });
    }
    if (e2e.dispatch_rate.raw.empty() || e2e.dispatch_rate_threaded.raw.empty()) return out;

    const SimCounts proc = total(tally_proc).counts;
    const SimCounts thr = total(tally_thr).counts;
    out.notes.push_back("sched_campaign: digest " + std::to_string(reference) +
                        ", dispatches " + std::to_string(proc.dispatches) +
                        ", activations procedural " + std::to_string(proc.activations) +
                        " threaded " + std::to_string(thr.activations));
    if (!opt.trace) {
        e2e.activations_per_dispatch = proc.activations_per_dispatch();
        e2e.activations_per_dispatch_threaded = thr.activations_per_dispatch();
        e2e.peak_rss_mib = peak_rss_mib(true);
        e2e.report(out);
        return out;
    }
    kernel.report(out, proc, thr);
    const Tail tail = tail_percentile(body_ms);
    out.set("campaign.scenarios", static_cast<double>(kScenarios));
    out.set("campaign.body_p50_ms", median(body_ms));
    out.set("campaign.body_tail_ms", tail.value);
    out.set("campaign.body_tail_pct", tail.pct);
    out.set("campaign.body_samples", static_cast<double>(tail.samples));
    out.set("campaign.ipc_ms_per_scenario",
            (median(shard1_wall) - median(serial_wall)) * 1e3 / kScenarios);
    out.set("campaign.worker_busy_frac", median(busy_frac));
    out.set("campaign.result_bytes", result_bytes);
    out.set("campaign.journal_bytes", journal_bytes);
    out.set("campaign.spawns", spawns / static_cast<double>(passes));
    out.set("campaign.retries", static_cast<double>(retries));
    out.set("campaign.crashes", static_cast<double>(crashes));
    out.set("campaign.timeouts", static_cast<double>(timeouts));
    out.set("workload.gen_s", median(gen_s));
    out.set("host.reference_ms", median(e2e.reference_s) * 1e3);
    out.set("analysis.rta_s", median(rta_s));
    out.set("analysis.rta_mispredicts", static_cast<double>(mispredicts));
    finish_trace(out, tracer, opt, "sched_campaign", traced_wall, untraced_wall);
    return out;
}

} // namespace perfbench
