// rtsc_perfbench — the repository benchmark program.
//
//   rtsc_perfbench --workload ring|mpeg2_traced|sched_campaign --seed N
//                  --seconds S --trace 0|1 --scratch DIR --validator PATH
//
// Prints a host-calibration line, the metrics as a table, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// perfbench/run.py builds this binary and is the documented entry point.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "rtsc_perfbench: " << why
              << "\nusage: rtsc_perfbench --workload ring|mpeg2_traced|sched_campaign"
                 " --seed N --seconds S --trace 0|1 --scratch DIR --validator PATH\n";
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    try {
        return std::stoull(v);
    } catch (const std::exception&) {
        usage(flag + " out of range: " + v);
    }
}

} // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    std::string workload;
    RunOptions opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--seed") {
            opt.seed = parse_u64(flag, v);
            have_seed = true;
        } else if (flag == "--seconds") {
            const auto s = parse_u64(flag, v);
            if (s < 1 || s > 600) usage("--seconds must be 1..600");
            opt.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") usage("--trace must be 0 or 1");
            opt.trace = v == "1";
            have_trace = true;
        } else if (flag == "--scratch") {
            opt.scratch_dir = v;
        } else if (flag == "--validator") {
            opt.validator = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || opt.scratch_dir.empty() ||
        opt.validator.empty())
        usage("missing a required flag");

    Outcome (*run)(const RunOptions&) = nullptr;
    if (workload == "ring")
        run = run_ring;
    else if (workload == "mpeg2_traced")
        run = run_mpeg2;
    else if (workload == "sched_campaign")
        run = run_campaign;
    else
        usage("unknown workload '" + workload + "'");

    try {
        const HostRecord host = calibrate_host();
        std::cout << host_json(host) << "\n";

        Outcome out = run(opt);
        if (opt.trace) {
            out.set("host.nproc", host.nproc);
            out.set("host.spin_scaling", host.spin_scaling);
            out.set("kernel.switch_ns", host.switch_ns);
            out.set("fail_frac", out.attempted == 0
                                     ? 1.0
                                     : static_cast<double>(out.failed) /
                                           static_cast<double>(out.attempted));
        }
        for (const auto& e : out.errors) std::cerr << "FAILED " << e << "\n";
        for (const auto& n : out.notes) std::cout << n << "\n";
        // Medians of a failed run are meaningless: report its tally with
        // whatever metrics exist, zero-filled.
        const bool correct = out.failed == 0 && out.attempted > 0;
        const MetricSet metrics = finish_metrics(out, opt.trace, correct);
        for (const auto& m : metrics.all())
            std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        std::cout << result_json(correct, out.attempted, out.failed, metrics) << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "rtsc_perfbench: " << e.what() << "\n";
        return 1;
    }
}
