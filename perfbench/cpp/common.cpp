#include <algorithm>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

const std::vector<CatalogueEntry>& end_to_end_catalogue() {
    static const std::vector<CatalogueEntry> c = {
        {"dispatch_rate", "dispatches/s"},
        {"dispatch_rate_threaded", "dispatches/s"},
        {"activations_per_dispatch", "ratio"},
        {"activations_per_dispatch_threaded", "ratio"},
        {"scenarios_per_s", "scenarios/s"},
        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},
    };
    return c;
}

const std::vector<CatalogueEntry>& per_layer_catalogue() {
    static const std::vector<CatalogueEntry> c = {
        {"host.nproc", "count"},
        {"host.spin_scaling", "ratio"},
        {"host.reference_ms", "ms"},
        {"kernel.switch_ns", "ns"},
        {"kernel.activations", "count"},
        {"kernel.activations_threaded", "count"},
        {"kernel.delta_cycles", "count"},
        {"kernel.run_s", "s"},
        {"kernel.evaluate_s", "s"},
        {"kernel.update_s", "s"},
        {"kernel.delta_notify_s", "s"},
        {"kernel.advance_s", "s"},
        {"kernel.timed_arena", "count"},
        {"kernel.timed_compactions", "count"},
        {"kernel.stack_mib", "MiB"},
        {"kernel.self_s", "s"},
        {"rtos.dispatches", "count"},
        {"rtos.scheduler_runs", "count"},
        {"rtos.activation_ratio", "ratio"},
        {"rtos.self_s", "s"},
        {"mcse.accesses", "count"},
        {"obs.bytes", "B"},
        {"obs.events", "count"},
        {"obs.finish_s", "s"},
        {"obs.hook_overhead_frac", "ratio"},
        {"obs.export_mib_per_s", "MiB/s"},
        {"obs.self_s", "s"},
        {"campaign.scenarios", "count"},
        {"campaign.body_p50_ms", "ms"},
        {"campaign.body_tail_ms", "ms"},
        {"campaign.body_tail_pct", "%"},
        {"campaign.body_samples", "count"},
        {"campaign.ipc_ms_per_scenario", "ms"},
        {"campaign.worker_busy_frac", "ratio"},
        {"campaign.result_bytes", "B"},
        {"campaign.journal_bytes", "B"},
        {"campaign.spawns", "count/pass"},
        {"campaign.retries", "count"},
        {"campaign.crashes", "count"},
        {"campaign.timeouts", "count"},
        {"campaign.self_s", "s"},
        {"workload.gen_s", "s"},
        {"workload.self_s", "s"},
        {"analysis.rta_s", "s"},
        {"analysis.rta_mispredicts", "count"},
        {"analysis.self_s", "s"},
        {"bench.self_s", "s"},
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
        {"fail_frac", "ratio"},
    };
    return c;
}

void Outcome::set(const std::string& name, double v) {
    for (auto& [n, val] : values)
        if (n == name) {
            val = v;
            return;
        }
    values.emplace_back(name, v);
}

void Outcome::fail(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
}

MetricSet finish_metrics(const Outcome& out, bool trace, bool complete) {
    const auto& cat = trace ? per_layer_catalogue() : end_to_end_catalogue();
    const auto& other = trace ? end_to_end_catalogue() : per_layer_catalogue();
    const auto in = [](const std::vector<CatalogueEntry>& c, const std::string& n) {
        for (const auto& e : c)
            if (n == e.name) return true;
        return false;
    };
    for (const auto& [n, v] : out.values)
        if (!in(cat, n) && !in(other, n))
            throw std::logic_error("metric outside the catalogue: " + n);
    MetricSet set;
    for (const auto& e : cat) {
        const double* found = nullptr;
        for (const auto& [n, v] : out.values)
            if (n == e.name) found = &v;
        if (found == nullptr && !trace && complete)
            throw std::logic_error(std::string("end-to-end metric unset: ") + e.name);
        set.add(e.name, found != nullptr ? *found : 0.0, e.unit);
    }
    return set;
}

void EndToEnd::report(Outcome& out) const {
    out.set("dispatch_rate", median(dispatch_rate.nominal));
    out.set("dispatch_rate_threaded", median(dispatch_rate_threaded.nominal));
    out.set("activations_per_dispatch", activations_per_dispatch);
    out.set("activations_per_dispatch_threaded", activations_per_dispatch_threaded);
    out.set("scenarios_per_s", median(scenarios_per_s.nominal));
    out.set("setup_s", median(setup_s.nominal));
    out.set("peak_rss_mib", peak_rss_mib);
    out.notes.push_back(
        "raw host time (not rescaled): dispatch_rate " +
        json_number(median(dispatch_rate.raw)) + ", dispatch_rate_threaded " +
        json_number(median(dispatch_rate_threaded.raw)) + ", scenarios_per_s " +
        json_number(median(scenarios_per_s.raw)) + ", setup_s " +
        json_number(median(setup_s.raw)) + "; reference block " +
        json_number(median(reference_s) * 1e3) + " ms (nominal " +
        json_number(kNominalReferenceSeconds * 1e3) + " ms)");
}

void SimCounts::add_sim(const rtsc::kernel::Simulator& sim) {
    activations += sim.process_activations();
    delta_cycles += sim.delta_count();
    timed_compactions += sim.timed_compactions();
    timed_arena = std::max(timed_arena, sim.timed_arena_size());
    processes = std::max(processes, sim.process_count());
    const auto& p = sim.host_profile();
    profile.evaluate_ns += p.evaluate_ns;
    profile.update_ns += p.update_ns;
    profile.delta_notify_ns += p.delta_notify_ns;
    profile.advance_ns += p.advance_ns;
}

void SimCounts::add_cpu(const rtsc::rtos::Processor& cpu) {
    const auto stats = cpu.engine().phase_stats();
    dispatches += stats.dispatches;
    scheduler_runs += stats.scheduler_runs;
}

void SimCounts::add(const SimCounts& o) {
    dispatches += o.dispatches;
    scheduler_runs += o.scheduler_runs;
    activations += o.activations;
    delta_cycles += o.delta_cycles;
    timed_compactions += o.timed_compactions;
    timed_arena = std::max(timed_arena, o.timed_arena);
    processes = std::max(processes, o.processes);
    profile.evaluate_ns += o.profile.evaluate_ns;
    profile.update_ns += o.profile.update_ns;
    profile.delta_notify_ns += o.profile.delta_notify_ns;
    profile.advance_ns += o.profile.advance_ns;
}

void KernelLayer::add_profile(const rtsc::kernel::Simulator::HostProfile& p) {
    evaluate_s.push_back(static_cast<double>(p.evaluate_ns) * 1e-9);
    update_s.push_back(static_cast<double>(p.update_ns) * 1e-9);
    delta_notify_s.push_back(static_cast<double>(p.delta_notify_ns) * 1e-9);
    advance_s.push_back(static_cast<double>(p.advance_ns) * 1e-9);
}

void KernelLayer::report(Outcome& out, const SimCounts& proc, const SimCounts& thr) const {
    out.set("kernel.activations", static_cast<double>(proc.activations));
    out.set("kernel.activations_threaded", static_cast<double>(thr.activations));
    out.set("kernel.delta_cycles", static_cast<double>(proc.delta_cycles));
    out.set("kernel.run_s", median(run_s));
    out.set("kernel.evaluate_s", median(evaluate_s));
    out.set("kernel.update_s", median(update_s));
    out.set("kernel.delta_notify_s", median(delta_notify_s));
    out.set("kernel.advance_s", median(advance_s));
    out.set("kernel.timed_arena", static_cast<double>(proc.timed_arena));
    out.set("kernel.timed_compactions", static_cast<double>(proc.timed_compactions));
    out.set("kernel.stack_mib", static_cast<double>(proc.processes) *
                                    rtsc::kernel::Coroutine::default_stack_bytes /
                                    (1 << 20));
    out.set("rtos.dispatches", static_cast<double>(proc.dispatches));
    out.set("rtos.scheduler_runs", static_cast<double>(proc.scheduler_runs));
    out.set("rtos.activation_ratio", static_cast<double>(proc.activations) /
                                         static_cast<double>(thr.activations));
}

void finish_trace(Outcome& out, const Tracer& tracer, const RunOptions& opt,
                  const char* workload, const std::vector<double>& traced_wall,
                  const std::vector<double>& untraced_wall) {
    const auto spans = tracer.spans();
    for (const auto& [layer, s] : self_seconds(spans)) out.set(layer + ".self_s", s);
    out.set("trace.spans", static_cast<double>(spans.size()));
    if (!traced_wall.empty() && !untraced_wall.empty())
        out.set("trace.overhead_frac",
                median(traced_wall) / median(untraced_wall) - 1.0);
    const std::string path = opt.scratch_dir + "/spans-" + workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    tracer.write_json(path);
    out.notes.push_back("spans written to " + path);
}

} // namespace perfbench
