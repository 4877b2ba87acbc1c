// Differential engine-equivalence fuzzer.
//
// Generates seeded random RTOS models (src/fuzz/generate.hpp), runs each on
// BOTH engine implementations — threaded (§4.1) and procedural (§4.2) — and
// compares the full observable behavior bit-for-bit: every trace record
// (task states, overhead charges, communication accesses, fault markers),
// the obs metrics snapshot and the simulated end time. Any difference is a
// bug in one of the engines (their equivalence is the paper's core claim).
//
//   fuzz_engines --seeds 500              # seeds 0..499, serial
//   fuzz_engines --seeds 500 --jobs 8     # campaign fan-out, 8 workers
//   fuzz_engines --seed 1234567           # one seed, verbose
//   fuzz_engines --replay file.model      # re-run a corpus spec
//   fuzz_engines --print 42               # dump the generated spec text
//   fuzz_engines --seeds 200 --bench BENCH_fuzz.json
//
// On divergence the harness prints the first divergent record, delta-debugs
// the model down to a minimal reproducer (--no-shrink to skip), writes the
// shrunk spec next to the cwd as fuzz_divergence_<seed>.model and, with
// --emit-test <path>, renders a self-contained GoogleTest regression file.
// Every sweep summary also reports the §4 count: kernel activations summed
// per engine and the models where the procedural engine was not cheaper.
// Exit status: 0 = all seeds equivalent, 1 = divergence found, 2 = usage.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/shrink.hpp"

namespace fuzz = rtsc::fuzz;
namespace campaign = rtsc::campaign;

namespace {

struct Options {
    std::uint64_t seeds = 100;
    std::uint64_t start = 0;
    bool single_seed = false;
    std::uint64_t seed = 0;
    unsigned jobs = 0;      ///< 0/1 = serial in-process
    bool do_shrink = true;
    std::string emit_test;  ///< path for the generated regression test
    std::string replay;     ///< corpus spec to re-run
    bool print_spec = false;
    std::string bench;      ///< BENCH_fuzz.json path
    bool quiet = false;
    bool dump = false;
};

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--start S] [--seed X] [--jobs J]\n"
                 "          [--no-shrink] [--emit-test FILE] [--replay FILE]\n"
                 "          [--print SEED] [--bench FILE] [--quiet] [--dump]\n",
                 argv0);
}

std::uint64_t parse_u64(const char* s) {
    // Reject signs (strtoull negates "-1" silently), garbage and overflow:
    // a mistyped seed must fail loudly, not run a different sweep.
    errno = 0;
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s, &end, 10);
    if (*s == '\0' || s[0] == '-' || s[0] == '+' || errno != 0 ||
        end == s || *end != '\0') {
        std::fprintf(stderr, "fuzz_engines: bad number: '%s'\n", s);
        std::exit(2);
    }
    return v;
}

/// The paper's §4 count over a sweep: kernel activations summed per engine,
/// and the models on which the procedural engine was not the cheaper one.
struct ActivationTally {
    std::uint64_t procedural = 0;
    std::uint64_t threaded = 0;
    std::uint64_t not_cheaper = 0;

    void add(std::uint64_t proc, std::uint64_t thrd) {
        procedural += proc;
        threaded += thrd;
        if (proc >= thrd) ++not_cheaper;
    }

    void print() const {
        std::printf("activations: procedural %llu, threaded %llu; "
                    "procedural >= threaded on %llu models\n",
                    static_cast<unsigned long long>(procedural),
                    static_cast<unsigned long long>(threaded),
                    static_cast<unsigned long long>(not_cheaper));
    }
};

/// Tally the per-scenario activation metrics of a campaign sweep.
ActivationTally tally_of(const campaign::CampaignReport& report) {
    ActivationTally tally;
    for (const auto& res : report.results) {
        if (!res.ok) continue;
        double proc = 0, thrd = 0;
        for (const auto& [name, value] : res.metrics) {
            if (name == "procedural_activations") proc = value;
            if (name == "threaded_activations") thrd = value;
        }
        tally.add(static_cast<std::uint64_t>(proc),
                  static_cast<std::uint64_t>(thrd));
    }
    return tally;
}

/// Handle one confirmed divergence: report, shrink, persist artifacts.
int report_divergence(const fuzz::ModelSpec& spec, const fuzz::Divergence& d,
                      const Options& opt) {
    std::printf("seed %llu: DIVERGENCE\n%s\n",
                static_cast<unsigned long long>(spec.seed),
                d.to_string().c_str());
    fuzz::ModelSpec minimal = spec;
    if (opt.do_shrink) {
        fuzz::ShrinkStats stats;
        minimal = fuzz::shrink(spec, fuzz::engines_diverge, &stats);
        const fuzz::Divergence after = fuzz::diff_engines(minimal);
        std::printf("shrunk: %zu/%zu reductions accepted\n%s\n",
                    stats.accepted, stats.attempts, after.to_string().c_str());
    }
    const std::string path =
        "fuzz_divergence_" + std::to_string(spec.seed) + ".model";
    std::ofstream(path) << fuzz::to_text(minimal);
    std::printf("reproducer written to %s\n", path.c_str());
    if (!opt.emit_test.empty()) {
        std::ofstream(opt.emit_test) << fuzz::emit_cpp_test(
            minimal, "Seed" + std::to_string(spec.seed));
        std::printf("regression test written to %s\n", opt.emit_test.c_str());
    }
    return 1;
}

void dump_streams(const fuzz::RunResult& proc, const fuzz::RunResult& thrd) {
    const auto dump = [](const char* name, const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
        std::printf("---- %s (procedural | threaded) ----\n", name);
        const std::size_t n = std::max(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i) {
            const std::string& l = i < a.size() ? a[i] : "<missing>";
            const std::string& r = i < b.size() ? b[i] : "<missing>";
            std::printf("%c %-55s | %s\n", l == r ? ' ' : '!', l.c_str(),
                        r.c_str());
        }
    };
    dump("states", proc.states, thrd.states);
    dump("overheads", proc.overheads, thrd.overheads);
    dump("comms", proc.comms, thrd.comms);
    dump("markers", proc.markers, thrd.markers);
    dump("metrics", proc.metrics, thrd.metrics);
}

int run_one(const fuzz::ModelSpec& spec, const Options& opt) {
    fuzz::RunResult proc, thrd;
    const fuzz::Divergence d = fuzz::diff_engines(spec, &proc, &thrd);
    if (opt.dump) dump_streams(proc, thrd);
    if (!opt.quiet)
        std::printf("seed %llu: %s (%zu state records, end %llu ps, "
                    "activations %llu/%llu)\n",
                    static_cast<unsigned long long>(spec.seed),
                    d.diverged ? "DIVERGED" : "ok", proc.states.size(),
                    static_cast<unsigned long long>(proc.end_ps),
                    static_cast<unsigned long long>(proc.kernel_activations),
                    static_cast<unsigned long long>(thrd.kernel_activations));
    if (!d.diverged) return 0;
    return report_divergence(spec, d, opt);
}

/// Serial sweep: generate + diff each seed inline, stop at first divergence.
int sweep_serial(const Options& opt) {
    std::uint64_t checked = 0;
    ActivationTally tally;
    for (std::uint64_t i = 0; i < opt.seeds; ++i) {
        const std::uint64_t seed = opt.start + i;
        const fuzz::ModelSpec spec = fuzz::generate(seed);
        fuzz::RunResult proc, thrd;
        const fuzz::Divergence d = fuzz::diff_engines(spec, &proc, &thrd);
        ++checked;
        tally.add(proc.kernel_activations, thrd.kernel_activations);
        if (d.diverged) {
            std::printf("[%llu/%llu seeds]\n",
                        static_cast<unsigned long long>(checked),
                        static_cast<unsigned long long>(opt.seeds));
            return report_divergence(spec, d, opt);
        }
        if (!opt.quiet && checked % 50 == 0)
            std::printf("[%llu/%llu] all equivalent so far\n",
                        static_cast<unsigned long long>(checked),
                        static_cast<unsigned long long>(opt.seeds));
    }
    std::printf("%llu seeds: all equivalent\n",
                static_cast<unsigned long long>(checked));
    tally.print();
    return 0;
}

campaign::CampaignReport sweep_campaign(const Options& opt, unsigned workers) {
    std::vector<campaign::ScenarioSpec> scenarios;
    scenarios.reserve(opt.seeds);
    for (std::uint64_t i = 0; i < opt.seeds; ++i) {
        const std::uint64_t seed = opt.start + i;
        scenarios.push_back(
            {"fuzz_seed_" + std::to_string(seed),
             [seed](campaign::ScenarioContext& ctx) {
                 const fuzz::ModelSpec spec = fuzz::generate(seed);
                 fuzz::RunResult proc, thrd;
                 const fuzz::Divergence d =
                     fuzz::diff_engines(spec, &proc, &thrd);
                 ctx.metric("diverged", d.diverged ? 1.0 : 0.0);
                 ctx.metric("state_records",
                            static_cast<double>(proc.states.size()));
                 ctx.metric("end_us",
                            static_cast<double>(proc.end_ps) / 1e6);
                 ctx.metric("procedural_activations",
                            static_cast<double>(proc.kernel_activations));
                 ctx.metric("threaded_activations",
                            static_cast<double>(thrd.kernel_activations));
                 if (d.diverged) ctx.note("divergence", d.to_string());
             }});
    }
    campaign::CampaignRunner::Options ro;
    ro.workers = workers;
    ro.seed = opt.start; // informational; model seeds are explicit
    return campaign::CampaignRunner(ro).run(scenarios);
}

/// Campaign fan-out over a worker pool; re-diffs divergent seeds inline for
/// shrinking/reporting.
int sweep_parallel(const Options& opt) {
    const campaign::CampaignReport report = sweep_campaign(opt, opt.jobs);
    int rc = 0;
    std::uint64_t divergent = 0;
    for (const auto& res : report.results) {
        if (!res.ok) {
            std::printf("%s: scenario failed: %s\n", res.name.c_str(),
                        res.error.c_str());
            rc = 1;
            continue;
        }
        for (const auto& [name, value] : res.metrics)
            if (name == "diverged" && value != 0.0) {
                ++divergent;
                const std::uint64_t seed =
                    opt.start + static_cast<std::uint64_t>(res.index);
                if (rc == 0) { // shrink only the first; report the rest
                    const fuzz::ModelSpec spec = fuzz::generate(seed);
                    const fuzz::Divergence d = fuzz::diff_engines(spec);
                    rc = report_divergence(spec, d, opt);
                } else {
                    std::printf("seed %llu: DIVERGED (not shrunk)\n",
                                static_cast<unsigned long long>(seed));
                }
            }
    }
    std::printf("%zu seeds via %u workers: %llu divergent, %zu failed\n",
                report.results.size(), report.workers,
                static_cast<unsigned long long>(divergent),
                report.failures());
    tally_of(report).print();
    return rc;
}

/// --bench: serial vs parallel campaign over the seed range; writes one
/// BENCH_fuzz.json entry (throughput + determinism certificate).
/// Time one engine over the bench seed block; returns models per second.
/// This is the §4 comparison the paper motivates the procedural engine with:
/// fewer kernel activations -> faster simulation of the same behavior.
double engine_throughput(const Options& opt, rtsc::rtos::EngineKind kind) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < opt.seeds; ++i)
        (void)fuzz::run_model(fuzz::generate(opt.start + i), kind);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return sec > 0 ? static_cast<double>(opt.seeds) / sec : 0.0;
}

struct LaneThroughput {
    double procedural = 0; ///< models/s
    double threaded = 0;   ///< models/s
};

/// Median throughput of each engine lane. One untimed pass warms both lanes
/// up; the timed repetitions then alternate which lane runs first, so
/// neither lane is always measured on a cold process.
LaneThroughput lane_throughput(const Options& opt) {
    using rtsc::rtos::EngineKind;
    constexpr int kReps = 5;
    (void)engine_throughput(opt, EngineKind::procedure_calls);
    (void)engine_throughput(opt, EngineKind::rtos_thread);
    std::vector<double> proc, thrd;
    for (int r = 0; r < kReps; ++r) {
        if (r % 2 == 0) {
            proc.push_back(engine_throughput(opt, EngineKind::procedure_calls));
            thrd.push_back(engine_throughput(opt, EngineKind::rtos_thread));
        } else {
            thrd.push_back(engine_throughput(opt, EngineKind::rtos_thread));
            proc.push_back(engine_throughput(opt, EngineKind::procedure_calls));
        }
    }
    const auto median = [](std::vector<double>& v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    return {median(proc), median(thrd)};
}

/// A whole-sweep figure in the per-metric summary shape.
campaign::MetricSummary sweep_summary(const std::string& name, double value,
                                      std::size_t n) {
    campaign::MetricSummary m;
    m.name = name;
    m.count = n;
    m.min = m.max = m.mean = m.p50 = m.p90 = m.p99 = value;
    return m;
}

int bench(const Options& opt) {
    const campaign::CampaignReport serial = sweep_campaign(opt, 1);
    const campaign::CampaignReport parallel =
        sweep_campaign(opt, opt.jobs != 0 ? opt.jobs : 0);
    campaign::BenchEntry entry;
    entry.name = "fuzz_engines";
    entry.scenarios = serial.results.size();
    entry.hardware_cores = std::thread::hardware_concurrency();
    entry.workers = parallel.workers;
    entry.serial_ms = serial.wall_ms;
    entry.parallel_ms = parallel.wall_ms;
    entry.speedup =
        parallel.wall_ms > 0 ? serial.wall_ms / parallel.wall_ms : 0;
    entry.digest = serial.digest();
    entry.digests_match = serial.digest() == parallel.digest();
    entry.metrics = serial.aggregate_metrics();
    const auto [proc_tput, thrd_tput] = lane_throughput(opt);
    entry.metrics.push_back(sweep_summary(
        "procedural_models_per_sec", proc_tput, opt.seeds));
    entry.metrics.push_back(sweep_summary(
        "threaded_models_per_sec", thrd_tput, opt.seeds));
    const ActivationTally tally = tally_of(serial);
    entry.metrics.push_back(sweep_summary(
        "procedural_activations_total",
        static_cast<double>(tally.procedural), opt.seeds));
    entry.metrics.push_back(sweep_summary(
        "threaded_activations_total", static_cast<double>(tally.threaded),
        opt.seeds));
    entry.metrics.push_back(sweep_summary(
        "procedural_not_cheaper_models",
        static_cast<double>(tally.not_cheaper), opt.seeds));
    campaign::write_bench_entry(opt.bench, entry);
    std::printf("throughput: procedural %.1f models/s, threaded %.1f models/s "
                "(x%.2f)\n",
                proc_tput, thrd_tput,
                thrd_tput > 0 ? proc_tput / thrd_tput : 0.0);
    tally.print();
    std::printf("bench: %zu models, serial %.1f ms, parallel %.1f ms "
                "(x%.2f, %u workers), digests %s -> %s\n",
                entry.scenarios, entry.serial_ms, entry.parallel_ms,
                entry.speedup, entry.workers,
                entry.digests_match ? "match" : "MISMATCH",
                opt.bench.c_str());
    // A scenario that crashed or threw never reported a `diverged` metric at
    // all — a bench over failed runs is not a clean bench.
    if (serial.failures() != 0 || parallel.failures() != 0) {
        std::printf("bench campaign contained %zu failed scenarios\n",
                    serial.failures() + parallel.failures());
        return 1;
    }
    for (const auto& m : entry.metrics)
        if (m.name == "diverged" && m.max != 0.0) {
            std::printf("bench campaign contained divergent seeds\n");
            return 1;
        }
    return entry.digests_match ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seeds") opt.seeds = parse_u64(need_value("--seeds"));
        else if (arg == "--start") opt.start = parse_u64(need_value("--start"));
        else if (arg == "--seed") {
            opt.single_seed = true;
            opt.seed = parse_u64(need_value("--seed"));
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(parse_u64(need_value("--jobs")));
        } else if (arg == "--no-shrink") opt.do_shrink = false;
        else if (arg == "--emit-test") opt.emit_test = need_value("--emit-test");
        else if (arg == "--replay") opt.replay = need_value("--replay");
        else if (arg == "--print") {
            opt.print_spec = true;
            opt.seed = parse_u64(need_value("--print"));
        } else if (arg == "--bench") opt.bench = need_value("--bench");
        else if (arg == "--quiet") opt.quiet = true;
        else if (arg == "--dump") opt.dump = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (opt.print_spec) {
        std::fputs(fuzz::to_text(fuzz::generate(opt.seed)).c_str(), stdout);
        return 0;
    }
    if (!opt.replay.empty()) {
        std::ifstream in(opt.replay);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", opt.replay.c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        return run_one(fuzz::from_text(ss.str()), opt);
    }
    if (opt.single_seed) return run_one(fuzz::generate(opt.seed), opt);
    if (!opt.bench.empty()) return bench(opt);
    if (opt.jobs > 1) return sweep_parallel(opt);
    return sweep_serial(opt);
}
