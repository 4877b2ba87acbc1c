// `mpeg2_traced`: the paper's §5 MPEG-2 SoC (18 tasks, 3 RTOS CPUs, queues,
// a shared variable) with the full observability stack attached to every
// SW CPU and relation: MetricsCollector + Attribution, PerfettoStreamWriter
// and MetricsSampler. Each operation simulates it on both engines; the
// export is written to the scratch directory, measured and deleted.

#include <spawn.h>
#include <sys/wait.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "campaign/fnv.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "kernel/simulator.hpp"
#include "mcse/relation.hpp"
#include "obs/attribution.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_stream.hpp"
#include "obs/sampler.hpp"
#include "workload/mpeg2.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace o = rtsc::obs;
namespace w = rtsc::workload;
namespace fs = std::filesystem;

namespace {

/// Benchmark-side access counter on every relation (traced runs only).
class AccessCounter final : public rtsc::mcse::CommObserver {
public:
    void on_access(const rtsc::mcse::Relation&, const r::Task*,
                   rtsc::mcse::AccessKind, bool) override {
        ++accesses;
    }
    std::uint64_t accesses = 0;
};

enum class Obs { bare, observed };

struct SocRun {
    std::uint64_t sim_digest = 0; ///< simulated results only
    std::uint64_t displayed = 0;
    std::uint64_t frames = 0;
    SimCounts counts;
    std::uint64_t accesses = 0;
    std::uintmax_t bytes = 0;
    std::size_t events = 0;
    double setup_s = 0;
    double run_s = 0;    ///< simulation only
    double finish_s = 0; ///< PerfettoStreamWriter::finish()
};

/// Digest of the simulated results: every displayed frame's stamps, the
/// encode count, misses and each SW CPU's dispatches and busy time.
std::uint64_t sim_digest(const w::Mpeg2System& soc) {
    rtsc::campaign::Fnv1a h;
    for (const auto& f : soc.displayed_frames()) {
        h.u64(f.index);
        h.u64(static_cast<std::uint64_t>(f.type));
        h.u64(f.captured.raw_ps());
        h.u64(f.displayed.raw_ps());
        h.u64(f.missed_deadline ? 1 : 0);
    }
    h.u64(soc.frames_encoded());
    h.u64(soc.deadline_misses());
    for (const auto* cpu : soc.sw_processors()) {
        const auto s = cpu->engine().phase_stats();
        h.u64(s.dispatches);
        h.u64(s.busy_time.raw_ps());
        h.u64(s.overhead_time.raw_ps());
    }
    return h.value();
}

SocRun simulate(const Mpeg2Inputs& in, r::EngineKind kind, Obs obs,
                bool traced, Tracer& tr, std::uint64_t op,
                const std::string& export_path) {
    SocRun out;
    auto cfg = in.config;
    cfg.engine = kind;
    const auto t0 = Clock::now();
    auto build = std::make_unique<Tracer::Scope>(tr, "workload.build", op);
    k::Simulator sim;
    sim.set_host_profiling(traced);
    w::Mpeg2System soc(cfg);
    build.reset();

    o::MetricsRegistry registry;
    std::unique_ptr<o::MetricsCollector> collector;
    std::unique_ptr<o::Attribution> attribution;
    std::unique_ptr<o::PerfettoStreamWriter> writer;
    std::unique_ptr<o::MetricsSampler> sampler;
    AccessCounter counter;
    if (obs == Obs::observed) {
        const Tracer::Scope attach(tr, "obs.attach", op);
        collector = std::make_unique<o::MetricsCollector>(registry);
        attribution = std::make_unique<o::Attribution>();
        collector->set_attribution(attribution.get());
        writer = std::make_unique<o::PerfettoStreamWriter>(export_path);
        sampler = std::make_unique<o::MetricsSampler>(*writer);
        for (auto* cpu : soc.sw_processors()) {
            collector->attach(*cpu);
            writer->attach(*cpu);
            sampler->attach(*cpu);
        }
        for (auto* rel : soc.relations()) writer->attach(*rel);
        sampler->start(sim);
    }
    if (traced)
        for (auto* rel : soc.relations()) rel->add_observer(counter);
    const auto t1 = Clock::now();
    {
        const Tracer::Scope run(tr, "kernel.run", op);
        sim.run_until(in.horizon);
    }
    const auto t2 = Clock::now();
    if (writer) {
        const Tracer::Scope fin(tr, "obs.finish", op);
        writer->finish(attribution.get());
    }
    const auto t3 = Clock::now();

    out.sim_digest = sim_digest(soc);
    out.displayed = soc.displayed_frames().size();
    out.frames = cfg.frames;
    out.counts.add_sim(sim);
    for (const auto* cpu : soc.sw_processors()) out.counts.add_cpu(*cpu);
    out.accesses = counter.accesses;
    if (writer) {
        out.events = writer->stats().events;
        out.bytes = fs::file_size(export_path);
    }
    out.setup_s = seconds_between(t0, t1);
    out.run_s = seconds_between(t1, t2);
    out.finish_s = seconds_between(t2, t3);
    return out;
}

/// Run the repo's perfetto_validate on an export; true when it accepts it.
bool validate_export(const std::string& validator, const std::string& path) {
    std::vector<std::string> args = {validator, path, "--require-counter",
                                     "utilization_pct"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, validator.c_str(), nullptr, nullptr, argv.data(),
                      environ) != 0)
        return false;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) return false;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace

Outcome run_mpeg2(const RunOptions& opt) {
    Outcome out;
    Tracer tracer(opt.trace);
    Tracer off(false);
    const std::uint64_t expected = fingerprint(make_mpeg2_inputs(opt.seed));
    const std::string export_path =
        opt.scratch_dir + "/mpeg2-seed" + std::to_string(opt.seed) + ".perfetto.json";

    EndToEnd e2e;
    std::vector<double> gen_s;
    KernelLayer kernel; // kernel.run_s: observed runs of untraced operations
    std::vector<double> traced_wall, untraced_wall, bare_run_s;
    std::vector<double> finish_s, export_rate;
    SocRun last_proc, last_thr;
    std::uint64_t accesses = 0;

    // Reference: the bare model (no observers) on the procedural engine.
    // Observers must not perturb it, and neither engine may differ from it.
    std::uint64_t reference = 0;
    out.attempt([&] {
        const SocRun bare = simulate(make_mpeg2_inputs(opt.seed),
                                     r::EngineKind::procedure_calls, Obs::bare,
                                     false, off, 0, export_path);
        reference = bare.sim_digest;
        if (bare.displayed != bare.frames) {
            out.fail("mpeg2: bare run displayed " + std::to_string(bare.displayed) +
                     " of " + std::to_string(bare.frames) + " frames");
            return false;
        }
        return true;
    });

    const auto check = [&](const SocRun& s, const char* what) {
        bool ok = true;
        if (s.displayed != s.frames) {
            out.fail(std::string("mpeg2: ") + what + " displayed " +
                     std::to_string(s.displayed) + " of " +
                     std::to_string(s.frames) + " frames");
            ok = false;
        }
        if (s.sim_digest != reference) {
            out.fail(std::string("mpeg2: ") + what +
                     " simulated results differ from the bare reference");
            ok = false;
        }
        if (s.bytes == 0) {
            out.fail(std::string("mpeg2: ") + what + " exported nothing");
            ok = false;
        }
        return ok;
    };

    const auto one_op = [&](std::uint64_t op, bool timed) {
        const bool traced = opt.trace && op % 2 == 0;
        Tracer& tr = traced ? tracer : off;
        const HostSpeed before = measure_host_speed();
        const auto t0 = Clock::now();
        const Tracer::Scope root(tr, "bench.op", op);
        Mpeg2Inputs in;
        {
            const Tracer::Scope gen(tr, "workload.gen", op);
            in = make_mpeg2_inputs(opt.seed);
        }
        const auto t_gen = Clock::now();
        if (fingerprint(in) != expected) {
            out.fail("mpeg2: regenerated inputs differ for one seed");
            return false;
        }
        const auto run = [&](r::EngineKind kind) {
            SocRun s = simulate(in, kind, Obs::observed, traced, tr, op, export_path);
            if (op == 0 && kind == r::EngineKind::procedure_calls && opt.trace) {
                const Tracer::Scope v(tr, "obs.validate", op);
                if (!validate_export(opt.validator, export_path)) {
                    out.fail("mpeg2: perfetto_validate rejected the export");
                    s.bytes = 0;
                }
            }
            fs::remove(export_path);
            return s;
        };
        SocRun proc, thr;
        if (op % 2 == 0) {
            proc = run(r::EngineKind::procedure_calls);
            thr = run(r::EngineKind::rtos_thread);
        } else {
            thr = run(r::EngineKind::rtos_thread);
            proc = run(r::EngineKind::procedure_calls);
        }
        bool ok = check(proc, "procedural traced run");
        ok = check(thr, "threaded traced run") && ok;
        const double wall = seconds_between(t0, Clock::now());
        if (!timed || !ok) return ok;
        const double gen = seconds_between(t0, t_gen);
        const HostSpeed hs = HostSpeed::across(before, measure_host_speed());
        e2e.reference_s.push_back(hs.reference_s);
        e2e.dispatch_rate.rate(static_cast<double>(proc.counts.dispatches) /
                                   (proc.run_s + proc.finish_s), hs);
        e2e.dispatch_rate_threaded.rate(static_cast<double>(thr.counts.dispatches) /
                                            (thr.run_s + thr.finish_s), hs);
        e2e.setup_s.seconds(gen + proc.setup_s + thr.setup_s, hs);
        e2e.scenarios_per_s.rate(1.0 / wall, hs);
        gen_s.push_back(gen);
        (traced ? traced_wall : untraced_wall).push_back(wall);
        if (opt.trace && !traced) {
            // Hook cost: the same model with nothing attached, timed here.
            const SocRun bare = simulate(in, r::EngineKind::procedure_calls,
                                         Obs::bare, false, off, op, export_path);
            if (bare.sim_digest != reference) {
                out.fail("mpeg2: bare rerun differs from the reference");
                return false;
            }
            bare_run_s.push_back(bare.run_s);
            kernel.run_s.push_back(proc.run_s);
            finish_s.push_back(proc.finish_s);
            export_rate.push_back(static_cast<double>(proc.bytes) / (1 << 20) /
                                  (proc.run_s + proc.finish_s));
        }
        if (traced) {
            kernel.add_profile(proc.counts.profile);
            accesses = proc.accesses;
        }
        last_proc = proc;
        last_thr = thr;
        return true;
    };

    out.attempt([&] { return one_op(0, false); });
    const Budget budget(opt.seconds, opt.trace ? 6 : 3);
    for (std::uint64_t op = 1; budget.more(op - 1);) {
        const std::uint64_t id = op++;
        out.attempt([&] { return one_op(id, true); });
    }
    if (e2e.reference_s.empty()) return out;

    out.notes.push_back("mpeg2: sim digest " + std::to_string(reference) +
                        ", dispatches " + std::to_string(last_proc.counts.dispatches) +
                        ", activations procedural " +
                        std::to_string(last_proc.counts.activations) + " threaded " +
                        std::to_string(last_thr.counts.activations) + ", export " +
                        std::to_string(last_proc.bytes) + " B");
    if (!opt.trace) {
        e2e.activations_per_dispatch = last_proc.counts.activations_per_dispatch();
        e2e.activations_per_dispatch_threaded = last_thr.counts.activations_per_dispatch();
        e2e.peak_rss_mib = peak_rss_mib(false);
        e2e.report(out);
        return out;
    }
    kernel.report(out, last_proc.counts, last_thr.counts);
    out.set("mcse.accesses", static_cast<double>(accesses));
    out.set("obs.bytes", static_cast<double>(last_proc.bytes));
    out.set("obs.events", static_cast<double>(last_proc.events));
    out.set("obs.finish_s", median(finish_s));
    out.set("obs.hook_overhead_frac", median(kernel.run_s) / median(bare_run_s) - 1.0);
    out.set("obs.export_mib_per_s", median(export_rate));
    out.set("workload.gen_s", median(gen_s));
    out.set("host.reference_ms", median(e2e.reference_s) * 1e3);
    finish_trace(out, tracer, opt, "mpeg2_traced", traced_wall, untraced_wall);
    return out;
}

} // namespace perfbench
