#include "obs/perfetto_stream.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace rtsc::obs {

namespace k = rtsc::kernel;

namespace {

// Unique per writer so concurrent runs targeting the same output path never
// share a spool (they would interleave events and race the final rename);
// like the batch exporter, the last finish() wins and every renamed file is
// internally consistent.
std::string unique_spool_path(const std::string& path) {
    static std::atomic<unsigned> seq{0};
    return path + ".spool-" + std::to_string(::getpid()) + "-" +
           std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

PerfettoStreamWriter::PerfettoStreamWriter(std::string path, Options opts)
    : path_(std::move(path)), spool_path_(unique_spool_path(path_)),
      os_(spool_path_, std::ios::trunc), writer_(os_, opts.window_bytes) {
    if (!os_.is_open())
        throw k::SimulationError("cannot open perfetto spool file: " +
                                 spool_path_);
    if (!os_)
        throw k::SimulationError("failed writing perfetto spool file: " +
                                 spool_path_);
}

PerfettoStreamWriter::~PerfettoStreamWriter() {
    if (!finished_) {
        // Abandoned mid-run (exception unwound past us, test bailed):
        // leave no half-written artifact behind.
        os_.close();
        std::remove(spool_path_.c_str());
    }
}

void PerfettoStreamWriter::attach(rtos::Processor& cpu) {
    cpu.add_observer(*this);
    writer_.add(cpu);
}

void PerfettoStreamWriter::attach(mcse::Relation& rel) {
    rel.add_observer(*this);
    writer_.add(rel);
}

void PerfettoStreamWriter::on_task_state(const rtos::Task& task,
                                         rtos::TaskState from,
                                         rtos::TaskState to) {
    writer_.task_state(task.processor().simulator().now(), task, from, to);
}

void PerfettoStreamWriter::on_overhead(const rtos::Processor& cpu,
                                       rtos::OverheadKind kind,
                                       kernel::Time start,
                                       kernel::Time duration,
                                       const rtos::Task* about) {
    writer_.overhead(cpu, kind, start, duration, about);
}

void PerfettoStreamWriter::on_access(const mcse::Relation& rel,
                                     const rtos::Task* task,
                                     mcse::AccessKind kind, bool blocked) {
    const k::Time at = task != nullptr
                           ? task->processor().simulator().now()
                           : k::Simulator::current().now();
    writer_.access(at, rel, task, kind, blocked);
}

void PerfettoStreamWriter::mark(std::string category, std::string name) {
    writer_.marker(k::Simulator::current().now(), category, name);
}

void PerfettoStreamWriter::finish(
    const Attribution* attribution,
    const std::vector<Attribution::DeadlineMissReport>* misses) {
    if (finished_)
        throw std::logic_error("PerfettoStreamWriter::finish() called twice");
    writer_.finish(attribution, misses);
    if (!os_)
        throw k::SimulationError("failed writing perfetto spool file: " +
                                 spool_path_);
    os_.close();
    if (std::rename(spool_path_.c_str(), path_.c_str()) != 0)
        throw k::SimulationError("cannot rename perfetto spool onto: " +
                                 path_);
    finished_ = true;
}

} // namespace rtsc::obs
