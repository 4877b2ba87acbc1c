#include "obs/perfetto.hpp"

#include <fstream>

#include "kernel/report.hpp"
#include "obs/perfetto_format.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    pfmt::append_escaped(out, s);
    return out;
}

void write_perfetto_json(std::ostream& os, const trace::Recorder& rec,
                         const PerfettoOptions& opts) {
    // Replay the recorder through the streaming writer's layout at the
    // recorded times. Each list is in time order per track, which is all
    // the per-task cursors need; the ostream does the buffering.
    pfmt::EventWriter out(os, 0);
    for (const rtos::Processor* cpu : rec.processors()) out.add(*cpu);
    for (const mcse::Relation* rel : rec.relations()) out.add(*rel);
    for (const auto& s : rec.states())
        out.task_state(s.at, *s.task, s.from, s.to);
    for (const auto& o : rec.overheads())
        out.overhead(*o.cpu, o.kind, o.at, o.duration, o.about);
    for (const auto& c : rec.comms())
        out.access(c.at, *c.relation, c.task, c.kind, c.blocked);
    for (const auto& m : rec.markers()) out.marker(m.at, m.category, m.name);
    out.finish(opts.attribution, opts.misses);
}

void write_perfetto_file(const std::string& path, const trace::Recorder& rec,
                         const PerfettoOptions& opts) {
    std::ofstream os(path);
    if (!os)
        throw k::SimulationError("cannot open perfetto output file: " + path);
    write_perfetto_json(os, rec, opts);
    os.flush();
    if (!os)
        throw k::SimulationError("failed writing perfetto output file: " + path);
}

} // namespace rtsc::obs
