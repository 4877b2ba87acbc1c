// Bounded exhaustive schedule-space explorer (ROADMAP item 5).
//
// Where fuzz_engines samples one pinned schedule per seed, this tool
// enumerates EVERY reachable resolution of a model's scheduling decision
// points — same-instant ready-queue tie-breaks (via the ScheduleOracle
// record/replay hook), sporadic arrival offsets and fault-plan crash
// placements — and checks each schedule with the full differential arsenal:
// 4-way engine equivalence (both engines x skip-ahead on/off), conservation
// invariants, decision-stream agreement and schedule-dependent failures.
//
//   explore_schedules --corpus tests/fuzz/corpus            # verify corpus
//   explore_schedules --model foo.model                     # one spec file
//   explore_schedules --seed 42                             # one generated model
//   explore_schedules --seeds 20 --start 100 --jobs 8       # generated sweep
//   explore_schedules --model m.model --offsets 4 --window 1000000
//   explore_schedules --corpus DIR --bench BENCH_explore.json
//   explore_schedules --model m.model --frontier f.txt --max-schedules 100
//
// On a violation the model is delta-debugged down to a minimal spec whose
// exploration still finds a violating schedule (--no-shrink to skip), the
// reproducer is written as explore_violation_<name>.model and, with
// --emit-test FILE, a GoogleTest regression is rendered.
//
// Exit status: 0 = every model exhaustively verified clean,
//              1 = violation found (also under --jobs fan-out),
//              2 = usage / IO error,
//              3 = clean but incomplete (a bound clipped enumeration).

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/bench_json.hpp"
#include "campaign/campaign.hpp"
#include "explore/explorer.hpp"
#include "explore/model_check.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/spec.hpp"

namespace fuzz = rtsc::fuzz;
namespace explore = rtsc::explore;
namespace campaign = rtsc::campaign;

namespace {

struct Options {
    std::vector<std::string> models; ///< spec files (--model, repeatable)
    std::string corpus;              ///< directory of .model files
    std::vector<std::uint64_t> gen_seeds; ///< generated models (--seed/--seeds)
    explore::ModelCheckConfig cfg;
    unsigned jobs = 0; ///< 0/1 = serial in-process
    bool do_shrink = true;
    bool keep_going = false; ///< keep enumerating past the first violation
    std::string emit_test;
    std::string bench;
    std::string frontier; ///< resume file (single model, base variant)
    std::string trace;    ///< replay one decision trace instead of exploring
    bool dump = false;    ///< with --trace: dump procedural-vs-threaded streams
    bool quiet = false;
};

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--model FILE]... [--corpus DIR] [--seed X]\n"
        "          [--seeds N] [--start S] [--jobs J]\n"
        "          [--max-schedules N] [--max-decisions N] [--max-group N]\n"
        "          [--max-variants N] [--no-prune] [--keep-going]\n"
        "          [--offsets K --window PS]\n"
        "          [--crash-offsets K --crash-window PS]\n"
        "          [--frontier FILE] [--bench FILE] [--trace T] [--dump]\n"
        "          [--no-shrink] [--emit-test FILE] [--quiet]\n",
        argv0);
}

/// Strict decimal parse: rejects empty strings, signs, trailing garbage and
/// out-of-range values instead of silently wrapping or clamping.
bool parse_u64_checked(const char* s, std::uint64_t* out) {
    if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE || end == s || *end != '\0') return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
}

std::uint64_t parse_u64_or_die(const char* flag, const char* s) {
    std::uint64_t v = 0;
    if (!parse_u64_checked(s, &v)) {
        std::fprintf(stderr, "%s: '%s' is not a valid non-negative integer\n",
                     flag, s);
        std::exit(2);
    }
    return v;
}

struct ModelItem {
    std::string name;
    fuzz::ModelSpec spec;
};

bool load_models(const Options& opt, std::vector<ModelItem>* out) {
    for (const std::string& path : opt.models) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return false;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        try {
            out->push_back({std::filesystem::path(path).filename().string(),
                            fuzz::from_text(ss.str())});
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
            return false;
        }
    }
    if (!opt.corpus.empty()) {
        std::error_code ec;
        std::vector<std::filesystem::path> files;
        for (const auto& entry :
             std::filesystem::directory_iterator(opt.corpus, ec))
            if (entry.path().extension() == ".model")
                files.push_back(entry.path());
        if (ec) {
            std::fprintf(stderr, "cannot read %s: %s\n", opt.corpus.c_str(),
                         ec.message().c_str());
            return false;
        }
        std::sort(files.begin(), files.end());
        if (files.empty()) {
            std::fprintf(stderr, "no .model files in %s\n", opt.corpus.c_str());
            return false;
        }
        for (const auto& p : files) {
            std::ifstream in(p);
            std::ostringstream ss;
            ss << in.rdbuf();
            try {
                out->push_back({p.filename().string(),
                                fuzz::from_text(ss.str())});
            } catch (const std::exception& e) {
                std::fprintf(stderr, "%s: %s\n", p.string().c_str(), e.what());
                return false;
            }
        }
    }
    for (const std::uint64_t seed : opt.gen_seeds)
        out->push_back(
            {"gen_seed" + std::to_string(seed), fuzz::generate(seed)});
    return true;
}

std::string emit_explore_test(const fuzz::ModelSpec& spec,
                              const std::string& test_name) {
    std::string out;
    out += "// Auto-generated by tools/explore_schedules --emit-test: shrunk\n";
    out += "// model whose schedule-space exploration found an invariant\n";
    out += "// violation. Keep as a permanent regression: after the fix, no\n";
    out += "// reachable schedule may violate.\n";
    out += "#include <gtest/gtest.h>\n\n";
    out += "#include \"explore/model_check.hpp\"\n";
    out += "#include \"fuzz/spec.hpp\"\n\n";
    out += "TEST(FuzzRegression, " + test_name + ") {\n";
    out += "    const rtsc::fuzz::ModelSpec spec = "
           "rtsc::fuzz::from_text(R\"spec(\n";
    out += fuzz::to_text(spec);
    out += ")spec\");\n";
    out += "    rtsc::explore::ModelCheckConfig cfg;\n";
    out += "    const rtsc::explore::ModelReport r =\n";
    out += "        rtsc::explore::explore_model(spec, cfg);\n";
    out += "    EXPECT_FALSE(r.violation) << r.diagnosis;\n";
    out += "}\n";
    return out;
}

/// Handle one confirmed violation: report, shrink, persist artifacts.
void report_violation(const ModelItem& item, const explore::ModelReport& r,
                      const Options& opt) {
    std::printf("%s: VIOLATION in variant '%s' at trace %s\n  %s\n",
                item.name.c_str(), r.violating_variant.c_str(),
                explore::to_text(r.counterexample).c_str(),
                r.diagnosis.c_str());
    fuzz::ModelSpec minimal = r.violating_spec;
    if (opt.do_shrink) {
        fuzz::ShrinkStats stats;
        minimal = fuzz::shrink(r.violating_spec,
                               explore::explore_finds_violation, &stats);
        std::printf("shrunk: %zu/%zu reductions accepted\n", stats.accepted,
                    stats.attempts);
    }
    std::string stem = std::filesystem::path(item.name).stem().string();
    const std::string path = "explore_violation_" + stem + ".model";
    std::ofstream(path) << fuzz::to_text(minimal);
    std::printf("reproducer written to %s\n", path.c_str());
    if (!opt.emit_test.empty()) {
        for (char& c : stem)
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        std::ofstream(opt.emit_test)
            << emit_explore_test(minimal, "Explore_" + stem);
        std::printf("regression test written to %s\n", opt.emit_test.c_str());
    }
}

void print_report(const ModelItem& item, const explore::ModelReport& r,
                  const Options& opt) {
    if (opt.quiet && !r.violation) return;
    std::printf("%s: %s — %llu schedules (%zu variants, %llu pruned, "
                "%llu clipped)%s\n",
                item.name.c_str(),
                r.violation ? "VIOLATION"
                            : (r.complete ? "verified" : "incomplete"),
                static_cast<unsigned long long>(r.schedules),
                r.variants.size(),
                static_cast<unsigned long long>(r.pruned_branches),
                static_cast<unsigned long long>(r.clipped_branches),
                r.complete ? "" : " [bounds clipped enumeration]");
}

int run_serial(const std::vector<ModelItem>& items, const Options& opt) {
    int rc = 0;
    for (const ModelItem& item : items) {
        const explore::ModelReport r = explore::explore_model(item.spec,
                                                              opt.cfg);
        print_report(item, r, opt);
        if (r.violation) {
            report_violation(item, r, opt);
            rc = 1;
            if (!opt.keep_going) return rc;
        } else if (!r.complete && rc == 0) {
            rc = 3;
        }
    }
    return rc;
}

/// One campaign pass over the models on `workers` threads (0 = one per
/// hardware thread); each model's exploration verdict becomes its metrics.
campaign::CampaignReport run_campaign(const std::vector<ModelItem>& items,
                                      const Options& opt, unsigned workers) {
    std::vector<campaign::ScenarioSpec> scenarios;
    scenarios.reserve(items.size());
    for (const ModelItem& item : items)
        scenarios.push_back(
            {item.name, [&item, &opt](campaign::ScenarioContext& ctx) {
                 const explore::ModelReport r =
                     explore::explore_model(item.spec, opt.cfg);
                 ctx.metric("schedules", static_cast<double>(r.schedules));
                 ctx.metric("pruned", static_cast<double>(r.pruned_branches));
                 ctx.metric("violation", r.violation ? 1.0 : 0.0);
                 ctx.metric("complete", r.complete ? 1.0 : 0.0);
                 if (r.violation)
                     ctx.note("diagnosis", r.violating_variant + " " +
                                               explore::to_text(
                                                   r.counterexample) +
                                               ": " + r.diagnosis);
             }});
    campaign::CampaignRunner::Options ro;
    ro.workers = workers;
    return campaign::CampaignRunner(ro).run(scenarios);
}

/// Campaign fan-out over a worker pool. A violation in ANY scenario — or a
/// scenario that failed outright — makes the sweep exit nonzero.
int run_parallel(const std::vector<ModelItem>& items, const Options& opt,
                 campaign::CampaignReport* out_report) {
    const campaign::CampaignReport report = run_campaign(items, opt, opt.jobs);
    int rc = 0;
    for (const auto& res : report.results) {
        if (!res.ok) {
            std::printf("%s: scenario failed: %s\n", res.name.c_str(),
                        res.error.c_str());
            rc = 1; // a crashed checker is never a clean sweep
            continue;
        }
        bool violation = false, complete = true;
        double schedules = 0;
        for (const auto& [name, value] : res.metrics) {
            if (name == "violation" && value != 0.0) violation = true;
            if (name == "complete" && value == 0.0) complete = false;
            if (name == "schedules") schedules = value;
        }
        if (violation) {
            // Re-run inline for the full shrink/report path (first only).
            const ModelItem& item = items[static_cast<std::size_t>(res.index)];
            if (rc != 1) {
                const explore::ModelReport r =
                    explore::explore_model(item.spec, opt.cfg);
                print_report(item, r, opt);
                if (r.violation) report_violation(item, r, opt);
            } else {
                std::printf("%s: VIOLATION (not shrunk)\n", item.name.c_str());
            }
            rc = 1;
        } else if (!opt.quiet) {
            std::printf("%s: %s — %.0f schedules\n", res.name.c_str(),
                        complete ? "verified" : "incomplete", schedules);
        }
        if (!complete && rc == 0) rc = 3;
    }
    std::printf("%zu models via %u workers: %zu failed\n",
                report.results.size(), report.workers, report.failures());
    if (out_report != nullptr) *out_report = report;
    return rc;
}

/// --trace: replay ONE decision trace through the 4-way check and report;
/// with --dump, print the procedural-vs-threaded streams side by side.
int run_trace(const ModelItem& item, const Options& opt) {
    explore::DecisionTrace trace;
    try {
        trace = explore::trace_from_text(opt.trace);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "--trace: %s\n", e.what());
        return 2;
    }
    const std::string baseline =
        fuzz::run_model(item.spec, rtsc::rtos::EngineKind::procedure_calls)
            .error;
    const explore::RunOutcome out =
        explore::check_model_once(item.spec, trace, baseline);
    if (opt.dump) {
        explore::TraceOracle po(&trace), to(&trace);
        const fuzz::RunResult proc = fuzz::run_model(
            item.spec, rtsc::rtos::EngineKind::procedure_calls, true, &po);
        const fuzz::RunResult thrd = fuzz::run_model(
            item.spec, rtsc::rtos::EngineKind::rtos_thread, true, &to);
        const auto dump = [](const char* name,
                             const std::vector<std::string>& a,
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
        dump("attribution", proc.attribution, thrd.attribution);
        std::printf("---- decisions ----\n%s",
                    explore::log_to_text(po.take_log()).c_str());
    }
    std::printf("%s @ %s: %s%s\n", item.name.c_str(),
                explore::to_text(trace).c_str(),
                out.violation ? "VIOLATION: " : "ok",
                out.violation ? out.diagnosis.c_str() : "");
    return out.violation ? 1 : 0;
}

/// --frontier: resumable single-model DFS over the base variant. Loads the
/// frontier if the file exists; saves it back when the budget stops the run
/// early, removes it on completion.
int run_frontier(const ModelItem& item, const Options& opt) {
    explore::Explorer explorer(explore::make_model_check(item.spec),
                               opt.cfg.bounds);
    const bool resuming = std::filesystem::exists(opt.frontier);
    if (resuming) {
        std::ifstream in(opt.frontier);
        try {
            explorer.load_frontier(in);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s: %s\n", opt.frontier.c_str(), e.what());
            return 2;
        }
    }
    const explore::ExploreResult r = explorer.run();
    std::printf("%s: %s — %llu schedules total (%llu pruned, %llu clipped)%s\n",
                item.name.c_str(),
                r.violation ? "VIOLATION"
                            : (r.complete ? "verified" : "paused"),
                static_cast<unsigned long long>(r.schedules),
                static_cast<unsigned long long>(r.pruned_branches),
                static_cast<unsigned long long>(r.clipped_branches),
                resuming ? " [resumed]" : "");
    if (r.violation) {
        std::printf("counterexample: %s\n  %s\n",
                    explore::to_text(r.counterexample).c_str(),
                    r.diagnosis.c_str());
        explore::ModelReport mr;
        mr.violation = true;
        mr.diagnosis = r.diagnosis;
        mr.violating_variant = "base";
        mr.violating_spec = item.spec;
        mr.counterexample = r.counterexample;
        report_violation(item, mr, opt);
        return 1;
    }
    if (!explorer.frontier_empty()) {
        std::ofstream out(opt.frontier);
        explorer.save_frontier(out);
        std::printf("frontier saved to %s — rerun to continue\n",
                    opt.frontier.c_str());
        return 3;
    }
    std::error_code ec;
    std::filesystem::remove(opt.frontier, ec);
    return r.complete ? 0 : 3;
}

/// --bench: a serial campaign pass and a pass on the worker pool over the
/// models; both wall times, their ratio and the digest comparison are
/// recorded, and per-model schedule counts become the bench metrics so CI
/// can pin/inspect enumeration sizes.
int bench(const std::vector<ModelItem>& items, const Options& opt) {
    const campaign::CampaignReport serial = run_campaign(items, opt, 1);
    campaign::CampaignReport report;
    const int rc = run_parallel(items, opt, &report);
    campaign::BenchEntry entry;
    entry.name = "explore_schedules";
    entry.scenarios = report.results.size();
    entry.hardware_cores = std::thread::hardware_concurrency();
    entry.workers = report.workers;
    entry.serial_ms = serial.wall_ms;
    entry.parallel_ms = report.wall_ms;
    entry.speedup = report.wall_ms > 0 ? serial.wall_ms / report.wall_ms : 0;
    entry.digest = serial.digest();
    entry.digests_match = report.digest() == serial.digest();
    entry.metrics = report.aggregate_metrics();
    // Per-model schedule counts, pinned by name.
    for (const auto& res : report.results)
        for (const auto& [name, value] : res.metrics)
            if (name == "schedules") {
                campaign::MetricSummary m;
                m.name = "schedules." + res.name;
                m.count = 1;
                m.min = m.max = m.mean = m.p50 = m.p90 = m.p99 = value;
                entry.metrics.push_back(m);
            }
    campaign::write_bench_entry(opt.bench, entry);
    std::printf("bench: %zu models, serial %.1f ms, %u workers %.1f ms, "
                "digests %s -> %s\n",
                entry.scenarios, serial.wall_ms, report.workers,
                report.wall_ms, entry.digests_match ? "match" : "MISMATCH",
                opt.bench.c_str());
    // A worker count that changes the results is a determinism bug.
    return entry.digests_match ? rc : 1;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    bool seeds_sweep = false;
    std::uint64_t seeds_n = 0, seeds_start = 0;
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
        if (arg == "--model") opt.models.push_back(need_value("--model"));
        else if (arg == "--corpus") opt.corpus = need_value("--corpus");
        else if (arg == "--seed")
            opt.gen_seeds.push_back(
                parse_u64_or_die("--seed", need_value("--seed")));
        else if (arg == "--seeds") {
            seeds_sweep = true;
            seeds_n = parse_u64_or_die("--seeds", need_value("--seeds"));
        } else if (arg == "--start")
            seeds_start = parse_u64_or_die("--start", need_value("--start"));
        else if (arg == "--jobs")
            opt.jobs = static_cast<unsigned>(
                parse_u64_or_die("--jobs", need_value("--jobs")));
        else if (arg == "--max-schedules")
            opt.cfg.bounds.max_schedules =
                parse_u64_or_die("--max-schedules",
                                 need_value("--max-schedules"));
        else if (arg == "--max-decisions")
            opt.cfg.bounds.max_decisions = static_cast<std::size_t>(
                parse_u64_or_die("--max-decisions",
                                 need_value("--max-decisions")));
        else if (arg == "--max-group")
            opt.cfg.bounds.max_group = static_cast<std::size_t>(
                parse_u64_or_die("--max-group", need_value("--max-group")));
        else if (arg == "--max-variants")
            opt.cfg.max_variants = static_cast<std::size_t>(
                parse_u64_or_die("--max-variants",
                                 need_value("--max-variants")));
        else if (arg == "--no-prune") opt.cfg.bounds.prune = false;
        else if (arg == "--keep-going") {
            opt.keep_going = true;
            opt.cfg.bounds.stop_at_violation = false;
        } else if (arg == "--offsets")
            opt.cfg.offsets = static_cast<std::uint32_t>(
                parse_u64_or_die("--offsets", need_value("--offsets")));
        else if (arg == "--window")
            opt.cfg.offset_window_ps =
                parse_u64_or_die("--window", need_value("--window"));
        else if (arg == "--crash-offsets")
            opt.cfg.crash_offsets = static_cast<std::uint32_t>(
                parse_u64_or_die("--crash-offsets",
                                 need_value("--crash-offsets")));
        else if (arg == "--crash-window")
            opt.cfg.crash_window_ps =
                parse_u64_or_die("--crash-window", need_value("--crash-window"));
        else if (arg == "--frontier") opt.frontier = need_value("--frontier");
        else if (arg == "--trace") opt.trace = need_value("--trace");
        else if (arg == "--dump") opt.dump = true;
        else if (arg == "--bench") opt.bench = need_value("--bench");
        else if (arg == "--no-shrink") opt.do_shrink = false;
        else if (arg == "--emit-test") opt.emit_test = need_value("--emit-test");
        else if (arg == "--quiet") opt.quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (seeds_sweep)
        for (std::uint64_t i = 0; i < seeds_n; ++i)
            opt.gen_seeds.push_back(seeds_start + i);

    std::vector<ModelItem> items;
    if (!load_models(opt, &items)) return 2;
    if (items.empty()) {
        std::fprintf(stderr, "no models given (--model/--corpus/--seed)\n");
        usage(argv[0]);
        return 2;
    }
    if (!opt.trace.empty() || opt.dump) {
        if (items.size() != 1) {
            std::fprintf(stderr, "--trace/--dump need exactly one model\n");
            return 2;
        }
        return run_trace(items[0], opt);
    }
    if (!opt.frontier.empty()) {
        if (items.size() != 1) {
            std::fprintf(stderr, "--frontier needs exactly one model\n");
            return 2;
        }
        return run_frontier(items[0], opt);
    }
    if (!opt.bench.empty()) return bench(items, opt);
    if (opt.jobs > 1) return run_parallel(items, opt, nullptr);
    return run_serial(items, opt);
}
