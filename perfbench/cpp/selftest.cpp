// Self-tests for the benchmark's own code: names, percentiles, span
// self-time and seeded input generation. run.py runs this binary before
// every benchmark run; it exits non-zero on the first failed check.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool cond, const std::string& what) {
    if (!cond) {
        ++failures;
        std::cerr << "selftest FAILED: " << what << "\n";
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void names() {
    using perfbench::valid_name;
    check(valid_name("kernel.switch_ns"), "dotted name accepted");
    check(valid_name("a-b_c.1"), "dash/underscore accepted");
    check(valid_name("9lives"), "leading digit accepted");
    check(!valid_name(""), "empty name rejected");
    check(!valid_name("a b"), "space rejected");
    check(!valid_name("x/y"), "slash rejected");
    check(!valid_name(".hidden"), "leading dot rejected");
    check(!valid_name(std::string(65, 'a')), "65 characters rejected");
    check(valid_name(std::string(64, 'a')), "64 characters accepted");
    for (const auto* cat : {&perfbench::end_to_end_catalogue(),
                            &perfbench::per_layer_catalogue()})
        for (const auto& e : *cat) check(valid_name(e.name), std::string("catalogue name ") + e.name);
    perfbench::MetricSet set;
    set.add("x", 1, "s");
    bool threw = false;
    try {
        set.add("x", 2, "s");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    check(threw, "duplicate metric rejected");
}

void percentiles() {
    using namespace perfbench;
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    check(near(nearest_rank(v, 50), 50), "p50 of 1..100 is 50");
    check(near(nearest_rank(v, 99), 99), "p99 of 1..100 is 99");
    check(near(nearest_rank(v, 100), 100), "p100 of 1..100 is 100");
    check(near(nearest_rank({7}, 1), 7), "single sample");
    check(near(median({3, 1, 2}), 2), "odd median");
    check(near(median({4, 1, 3, 2}), 2.5), "even median");

    // Highest percentile with at least ten samples ranked above it.
    const Tail t100 = tail_percentile(v);
    check(near(t100.pct, 90) && near(t100.value, 90) && t100.samples == 100,
          "100 samples report p90");
    std::vector<double> k(1000);
    for (int i = 0; i < 1000; ++i) k[static_cast<std::size_t>(i)] = 1000 - i;
    const Tail t1000 = tail_percentile(k);
    check(near(t1000.pct, 99) && near(t1000.value, 990), "1000 samples report p99");
    std::vector<double> m(999, 1.0);
    check(near(tail_percentile(m).pct, 95), "999 samples fall back to p95");
    check(near(tail_percentile(std::vector<double>(20, 1.0)).pct, 50),
          "20 samples report the median");
    const Tail few = tail_percentile({1, 5, 3});
    check(near(few.pct, 0) && near(few.value, 5), "too few samples report the max");
}

void self_time() {
    using perfbench::Span;
    // root [0,100] with children a [10,40] and b [30,60] overlapping; a has
    // a grandchild [15,20]; c [90,120] sticks out of the root.
    std::vector<Span> s = {
        {"bench.op", 0, 100, -1, 0},
        {"kernel.run", 10, 40, 0, 0},
        {"kernel.run", 30, 60, 0, 0},
        {"obs.finish", 15, 20, 1, 0},
        {"rtos.build", 90, 120, 0, 0},
    };
    auto self = perfbench::self_seconds(s);
    check(near(self["bench"], 40e-9), "root self = 100 - |[10,60] u [90,100]|");
    check(near(self["kernel"], (25 + 30) * 1e-9), "children self sums per layer");
    check(near(self["obs"], 5e-9), "leaf self = duration");
    check(near(self["rtos"], 30e-9), "span self is not clipped to its parent");
    check(perfbench::layer_of("kernel.run") == "kernel", "layer of dotted name");
    check(perfbench::layer_of("bench") == "bench", "layer of undotted name");

    // Two roots in different runs do not interact.
    std::vector<Span> two = {{"bench.op", 0, 10, -1, 0}, {"bench.op", 5, 30, -1, 1}};
    check(near(perfbench::self_seconds(two)["bench"], 35e-9), "roots are independent");

    perfbench::Tracer off(false);
    check(off.open("x.y", 0) == -1 && off.spans().empty(), "disabled tracer records nothing");
    perfbench::Tracer on(true);
    {
        const perfbench::Tracer::Scope outer(on, "bench.op", 3);
        const perfbench::Tracer::Scope inner(on, "kernel.run", 3);
    }
    const auto rec = on.spans();
    check(rec.size() == 2 && rec[1].parent == 0 && rec[0].parent == -1 && rec[1].run == 3,
          "scopes nest through the thread's open span");
}

void seeds() {
    using namespace perfbench;
    check(fingerprint(make_ring_inputs(1)) == fingerprint(make_ring_inputs(1)),
          "ring: same seed, same inputs");
    check(fingerprint(make_ring_inputs(1)) != fingerprint(make_ring_inputs(2)),
          "ring: different seed, different inputs");
    check(fingerprint(make_mpeg2_inputs(1)) == fingerprint(make_mpeg2_inputs(1)),
          "mpeg2: same seed, same inputs");
    check(fingerprint(make_mpeg2_inputs(1)) != fingerprint(make_mpeg2_inputs(2)),
          "mpeg2: different seed, different inputs");
    check(fingerprint(make_campaign_inputs(1, 8)) == fingerprint(make_campaign_inputs(1, 8)),
          "campaign: same seed, same inputs");
    check(fingerprint(make_campaign_inputs(1, 8)) != fingerprint(make_campaign_inputs(2, 8)),
          "campaign: different seed, different inputs");
    for (const auto& s : make_campaign_inputs(7, 50)) {
        check(s.specs.size() >= 4 && s.specs.size() <= 16, "campaign: 4-16 tasks");
        check(s.utilization >= 0.55 && s.utilization < 0.99, "campaign: U in [0.55, 0.99)");
    }
    const auto ring = make_ring_inputs(5);
    check(ring.hop_ns.size() == static_cast<std::size_t>(ring.tasks * ring.rounds),
          "ring: one compute time per hop");
}

void json() {
    perfbench::MetricSet set;
    set.add("latency_ms", 1.25, "ms");
    const std::string j = perfbench::result_json(true, 3, 0, set);
    check(j == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
               "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}",
          "result line format: " + j);
    check(perfbench::json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "string escapes");
    check(perfbench::json_number(0.1) == "0.1", "shortest round-trip number");
}

} // namespace

int main() {
    names();
    percentiles();
    self_time();
    seeds();
    json();
    if (failures != 0) {
        std::cerr << failures << " selftest check(s) failed\n";
        return 1;
    }
    std::cout << "selftest: all checks passed\n";
    return 0;
}
