// Golden Perfetto exports: the FNV-1a digest and byte length of three
// exports are pinned on both engines, so a rendering change that the
// stream-vs-batch comparison cannot see (both paths share
// obs::pfmt::EventWriter) still fails here.
//   - the paper's Figure 6 model, batch export with attribution;
//   - the same run's streamed export with attribution;
//   - a small MPEG-2 SoC streamed with Attribution, deadline-miss reports
//     and a MetricsSampler (per-CPU and auxiliary "kernel" counter tracks).
// A deliberate change to the export format has to re-pin these values. So
// does a change to the procedural engine's kernel cost: the sampler's
// "activations" and "delta_cycles" counters are part of the MPEG-2 export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "campaign/fnv.hpp"
#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/perfetto_stream.hpp"
#include "obs/sampler.hpp"
#include "rtos/processor.hpp"
#include "trace/constraints.hpp"
#include "trace/recorder.hpp"
#include "workload/mpeg2.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace tr = rtsc::trace;
using namespace rtsc::kernel::time_literals;

namespace {

struct Golden {
    std::uint64_t digest;
    std::size_t bytes;
};

Golden golden_of(const std::string& text) {
    rtsc::campaign::Fnv1a h;
    h.bytes(text.data(), text.size());
    return {h.value(), text.size()};
}

std::string slurp(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::string text{std::istreambuf_iterator<char>(is), {}};
    std::remove(path.c_str());
    return text;
}

/// A per-process file name: ctest runs the cases concurrently.
std::string temp_path(const std::string& stem) {
    return ::testing::TempDir() + stem + "-" + std::to_string(::getpid()) +
           ".perfetto.json";
}

const char* engine_name(r::EngineKind e) {
    return e == r::EngineKind::procedure_calls ? "procedural" : "threaded";
}

/// The Figure 6 application (examples/figure6_timeline.cpp) to 400 us,
/// exported by the batch writer and the streaming writer, both with
/// attribution.
struct Figure6Exports {
    std::string batch;
    std::string stream;
};

Figure6Exports figure6(r::EngineKind engine) {
    const std::string stream_path = temp_path(
        std::string("golden-figure6-") + engine_name(engine));
    Figure6Exports out;
    {
        k::Simulator sim;
        r::Processor cpu("Processor",
                         std::make_unique<r::PriorityPreemptivePolicy>(),
                         engine);
        cpu.set_overheads(r::RtosOverheads::uniform(5_us));
        tr::Recorder rec;
        rec.attach(cpu);
        o::PerfettoStreamWriter stream(stream_path);
        stream.attach(cpu);
        o::Attribution attr;
        attr.attach(cpu);
        m::Event clk("Clk", m::EventPolicy::fugitive);
        m::Event event1("Event_1", m::EventPolicy::boolean);
        rec.attach(clk);
        rec.attach(event1);
        stream.attach(clk);
        stream.attach(event1);
        cpu.create_task({.name = "Function_1", .priority = 5},
                        [&](r::Task& self) {
                            for (;;) {
                                clk.await();
                                self.compute(30_us);
                                event1.signal();
                                self.compute(20_us);
                            }
                        });
        cpu.create_task({.name = "Function_2", .priority = 3},
                        [&](r::Task& self) {
                            for (;;) {
                                event1.await();
                                self.compute(25_us);
                            }
                        });
        cpu.create_task({.name = "Function_3", .priority = 2},
                        [](r::Task& self) { self.compute(1_ms); });
        sim.spawn("Clock", [&] {
            k::wait(140_us);
            clk.signal();
        });
        sim.run_until(400_us);

        std::ostringstream batch;
        o::write_perfetto_json(batch, rec, {.attribution = &attr});
        out.batch = batch.str();
        stream.finish(&attr);
    }
    out.stream = slurp(stream_path);
    return out;
}

/// Eight frames of the §5 MPEG-2 SoC streamed with attribution, the miss
/// reports of a too-tight response bound on one task, and a 1 ms counter
/// sampler mirrored into a registry.
std::string mpeg2_stream(r::EngineKind engine) {
    const std::string path =
        temp_path(std::string("golden-mpeg2-") + engine_name(engine));
    {
        k::Simulator sim;
        rtsc::workload::Mpeg2Config cfg;
        cfg.frames = 8;
        cfg.engine = engine;
        rtsc::workload::Mpeg2System soc(cfg);
        o::Attribution attr;
        o::PerfettoStreamWriter writer(path);
        o::MetricsSampler sampler(writer);
        o::MetricsRegistry registry;
        sampler.set_registry(&registry);
        for (auto* cpu : soc.sw_processors()) {
            attr.attach(*cpu);
            writer.attach(*cpu);
            sampler.attach(*cpu);
        }
        for (auto* rel : soc.relations()) writer.attach(*rel);
        tr::ConstraintMonitor mon;
        mon.require_response(*soc.sw_processors().front()->tasks().front(),
                             1_us, "tight");
        sampler.start(sim);
        sim.run_until(12_ms);
        const auto misses = attr.miss_reports(mon);
        EXPECT_FALSE(misses.empty());
        writer.finish(&attr, &misses);
        EXPECT_GT(sampler.samples(), 0u);
        EXPECT_NE(registry.find_gauge("kernel.timed_tombstones"), nullptr);
        EXPECT_NE(registry.find_gauge(
                      soc.sw_processors().front()->name() + ".ready_depth"),
                  nullptr);
    }
    return slurp(path);
}

void expect_golden(const std::string& text, Golden want,
                   const std::string& what) {
    const Golden got = golden_of(text);
    EXPECT_EQ(got.digest, want.digest)
        << what << ": digest 0x" << std::hex << got.digest;
    EXPECT_EQ(got.bytes, want.bytes) << what;
}

} // namespace

TEST(PerfettoGolden, Figure6BatchAndStreamedExports) {
    const struct {
        r::EngineKind engine;
        Golden batch;
        Golden stream;
    } cases[] = {
        {r::EngineKind::procedure_calls,
         {0xe4a0fad5e12bc624ull, 7225},
         {0x7620495502695e1cull, 7225}},
        {r::EngineKind::rtos_thread,
         {0xe4a0fad5e12bc624ull, 7225},
         {0x7620495502695e1cull, 7225}},
    };
    for (const auto& c : cases) {
        const Figure6Exports ex = figure6(c.engine);
        expect_golden(ex.batch, c.batch,
                      std::string("figure6 batch, ") + engine_name(c.engine));
        expect_golden(ex.stream, c.stream,
                      std::string("figure6 stream, ") + engine_name(c.engine));
    }
}

TEST(PerfettoGolden, Mpeg2StreamWithAttributionAndSampler) {
    const struct {
        r::EngineKind engine;
        Golden stream;
    } cases[] = {
        {r::EngineKind::procedure_calls, {0x3bcf73a589a73429ull, 170156}},
        {r::EngineKind::rtos_thread, {0x54b67e93b7739441ull, 170157}},
    };
    for (const auto& c : cases)
        expect_golden(mpeg2_stream(c.engine), c.stream,
                      std::string("mpeg2 stream, ") + engine_name(c.engine));
}
