#include "obs/perfetto_format.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "kernel/report.hpp"
#include "obs/perfetto.hpp"
#include "rtos/dvfs.hpp"
#include "trace/csv.hpp"

namespace rtsc::obs::pfmt {

namespace k = rtsc::kernel;

namespace {

bool visible_state(rtos::TaskState s) {
    return s != rtos::TaskState::created && s != rtos::TaskState::terminated;
}

/// %.17g has no JSON rendering for NaN or +-inf.
void require_finite(std::string_view name, double value) {
    if (!std::isfinite(value))
        throw k::SimulationError("counter '" + std::string(name) +
                                 "' sampled a non-finite value");
}

/// Energy in joules as a round-trippable JSON number.
std::string format_joules(rtos::Energy e) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", rtos::energy_to_joules(e));
    return buf;
}

std::string ps(k::Time t) { return std::to_string(t.raw_ps()); }

std::string time_map(const std::vector<std::pair<std::string, k::Time>>& m) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, t] : m) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + json_escape(name) + "\": " + ps(t);
    }
    return out + "}";
}

std::string str_list(const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ", ";
        out += "\"" + json_escape(v[i]) + "\"";
    }
    return out + "]";
}

std::string meta_process(int pid, std::string_view name) {
    std::string e = "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": 0, \"args\": {\"name\": \"";
    e += json_escape(name);
    e += "\"}}";
    return e;
}

std::string meta_thread(int pid, int tid, std::string_view name) {
    std::string e = "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    e += ", \"args\": {\"name\": \"";
    e += json_escape(name);
    e += "\"}}";
    return e;
}

std::string slice(int pid, int tid, k::Time at, k::Time dur,
                  std::string_view cat, std::string_view name,
                  const std::string& args_json = {}) {
    std::string e = "{\"name\": \"";
    e += json_escape(name);
    e += "\", \"cat\": \"";
    e += json_escape(cat);
    e += "\", \"ph\": \"X\", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"dur\": ";
    e += trace::format_us(dur);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    if (!args_json.empty()) {
        e += ", \"args\": ";
        e += args_json;
    }
    e += '}';
    return e;
}

std::string instant(int pid, int tid, k::Time at, char scope,
                    std::string_view cat, std::string_view name,
                    const std::string& args_json = {}) {
    std::string e = "{\"name\": \"";
    e += json_escape(name);
    e += "\", \"cat\": \"";
    e += json_escape(cat);
    e += "\", \"ph\": \"i\", \"s\": \"";
    e += scope;
    e += "\", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    if (!args_json.empty()) {
        e += ", \"args\": ";
        e += args_json;
    }
    e += '}';
    return e;
}

std::string counter_sample(int pid, k::Time at, std::string_view name,
                           double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    std::string e = "{\"name\": \"";
    e += json_escape(name);
    e += "\", \"ph\": \"C\", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": 0, \"args\": {\"value\": ";
    e += buf;
    e += "}}";
    return e;
}

/// Flow endpoint of a culprit->victim blocking arrow: ph 's' starts it,
/// 'f' finishes it bound to the enclosing slice.
std::string flow(char ph, std::uint64_t id, k::Time at, int pid, int tid) {
    std::string e =
        "{\"name\": \"blocking\", \"cat\": \"blocking\", \"ph\": \"";
    e += ph;
    e += ph == 'f' ? "\", \"bp\": \"e\", \"id\": " : "\", \"id\": ";
    e += std::to_string(id);
    e += ", \"ts\": ";
    e += trace::format_us(at);
    e += ", \"pid\": ";
    e += std::to_string(pid);
    e += ", \"tid\": ";
    e += std::to_string(tid);
    e += '}';
    return e;
}

/// Where a task's slices live: its processor's pid, its state track and its
/// jobs track. Keyed by task name: Attribution records names so its
/// results outlive the model.
struct Track {
    int pid = 0;
    int state_tid = 0;
    int jobs_tid = 0;
};

} // namespace

EventWriter::EventWriter(std::ostream& os, std::size_t window_bytes)
    : os_(os), window_limit_(window_bytes) {
    os_ << "{\"traceEvents\": [\n";
}

void EventWriter::emit(const std::string& event) {
    if (!first_) window_ += ",\n";
    first_ = false;
    window_ += event;
    ++stats_.events;
    stats_.window_bytes = window_.size();
    if (window_.size() > stats_.peak_window_bytes)
        stats_.peak_window_bytes = window_.size();
    if (window_.size() >= window_limit_) flush_window();
}

void EventWriter::flush_window() {
    if (window_.empty()) return;
    os_ << window_;
    stats_.spooled_bytes += window_.size();
    ++stats_.flushes;
    window_.clear();
    stats_.window_bytes = 0;
}

int EventWriter::pid_of(const rtos::Processor& cpu) const {
    for (std::size_t pi = 0; pi < processors_.size(); ++pi)
        if (processors_[pi] == &cpu) return static_cast<int>(pi) + 1;
    return 0;
}

void EventWriter::task_state(k::Time at, const rtos::Task& task,
                             rtos::TaskState from, rtos::TaskState to) {
    note_time(at);
    const auto [it, first_seen] = cursors_.try_emplace(&task);
    TaskCursor& cur = it->second;
    if (first_seen) {
        cur.prev_at = at;
        cur.prev_state = from;
        cur.pid = pid_of(task.processor());
        const auto& tasks = task.processor().tasks();
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            if (tasks[ti].get() == &task) cur.tid = static_cast<int>(ti) + 1;
    }
    if (from == to) return; // creation announcement
    if (visible_state(cur.prev_state) && at > cur.prev_at)
        emit(slice(cur.pid, cur.tid, cur.prev_at, at - cur.prev_at,
                   "task_state", rtos::to_string(cur.prev_state)));
    cur.prev_at = at;
    cur.prev_state = to;
}

void EventWriter::overhead(const rtos::Processor& cpu, rtos::OverheadKind kind,
                           k::Time start, k::Time duration,
                           const rtos::Task* about) {
    note_time(start + duration);
    if (duration.is_zero()) return;
    const int pid = pid_of(cpu);
    if (pid == 0) return; // overhead of an unregistered processor
    std::string args;
    if (about != nullptr)
        args = "{\"task\": \"" + json_escape(about->name()) + "\"}";
    emit(slice(pid, 0, start, duration, "rtos", rtos::to_string(kind), args));
}

void EventWriter::access(k::Time at, const mcse::Relation& rel,
                         const rtos::Task* task, mcse::AccessKind kind,
                         bool blocked) {
    note_time(at);
    int tid = 0;
    for (std::size_t ri = 0; ri < relations_.size(); ++ri)
        if (relations_[ri] == &rel) tid = static_cast<int>(ri) + 1;
    if (tid == 0) return;
    std::string args = "{\"task\": \"";
    args += task != nullptr ? json_escape(task->name()) : "<hw>";
    args += blocked ? "\", \"blocked\": true}" : "\", \"blocked\": false}";
    emit(instant(comm_pid(), tid, at, 't', "comm",
                 std::string(mcse::to_string(kind)) +
                     (blocked ? " [blocked]" : ""),
                 args));
}

void EventWriter::marker(k::Time at, std::string_view category,
                         std::string_view name) {
    note_time(at);
    any_marker_ = true;
    emit(instant(marker_pid(), 1, at, 'g', category, name));
}

void EventWriter::counter(const rtos::Processor& cpu, k::Time at,
                          std::string_view name, double value) {
    const int pid = pid_of(cpu);
    if (pid == 0)
        throw k::SimulationError("counter() on a processor never attached "
                                 "to this PerfettoStreamWriter");
    require_finite(name, value);
    emit(counter_sample(pid, at, name, value));
}

void EventWriter::counter(std::string_view process, k::Time at,
                          std::string_view name, double value) {
    require_finite(name, value);
    int idx = -1;
    for (std::size_t i = 0; i < counter_procs_.size(); ++i)
        if (counter_procs_[i] == process) idx = static_cast<int>(i);
    if (idx < 0) {
        idx = static_cast<int>(counter_procs_.size());
        counter_procs_.emplace_back(process);
    }
    emit(counter_sample(marker_pid() + 1 + idx, at, name, value));
}

void EventWriter::finish(
    const Attribution* attribution,
    const std::vector<Attribution::DeadlineMissReport>* misses) {
    // Close every open task segment at the end of the trace: the latest
    // instant any record reached (an overhead's end, a marker, ...).
    for (const rtos::Processor* cpu : processors_) {
        for (const auto& t : cpu->tasks()) {
            const auto it = cursors_.find(t.get());
            if (it == cursors_.end()) continue;
            const TaskCursor& cur = it->second;
            const k::Time end = std::max(cur.prev_at, trace_end_);
            if (visible_state(cur.prev_state) && end > cur.prev_at)
                emit(slice(cur.pid, cur.tid, cur.prev_at, end - cur.prev_at,
                           "task_state", rtos::to_string(cur.prev_state)));
        }
    }

    // Metadata last, so the jobs tracks' tids use the final task count:
    // pid i+1 = processor i; within it tid 0 = RTOS overhead track, tid j+1
    // = task j in creation order and (with attribution) tid N+1+j = its
    // jobs track. The numbering depends only on registration and creation
    // order, so repeated exports of one model agree.
    for (std::size_t pi = 0; pi < processors_.size(); ++pi) {
        const int pid = static_cast<int>(pi) + 1;
        const auto& tasks = processors_[pi]->tasks();
        emit(meta_process(pid, processors_[pi]->name()));
        emit(meta_thread(pid, 0, processors_[pi]->name() + ".rtos"));
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            emit(meta_thread(pid, static_cast<int>(ti) + 1, tasks[ti]->name()));
        if (attribution != nullptr)
            for (std::size_t ti = 0; ti < tasks.size(); ++ti)
                emit(meta_thread(pid, static_cast<int>(tasks.size() + 1 + ti),
                                 tasks[ti]->name() + ".jobs"));
    }
    if (!relations_.empty()) {
        emit(meta_process(comm_pid(), "comm"));
        for (std::size_t ri = 0; ri < relations_.size(); ++ri)
            emit(meta_thread(comm_pid(), static_cast<int>(ri) + 1,
                             relations_[ri]->name() + " (" +
                                 relations_[ri]->type_name() + ")"));
    }
    if (any_marker_) emit(meta_process(marker_pid(), "events"));
    for (std::size_t ci = 0; ci < counter_procs_.size(); ++ci)
        emit(meta_process(marker_pid() + 1 + static_cast<int>(ci),
                          counter_procs_[ci]));

    if (attribution != nullptr) emit_attribution(*attribution, misses);

    flush_window();
    os_ << "\n]}\n";
    os_.flush();
}

void EventWriter::emit_attribution(
    const Attribution& attribution,
    const std::vector<Attribution::DeadlineMissReport>* misses) {
    // Locate each task's tracks by name; tasks absent from the index (not
    // on a registered processor) are skipped.
    std::map<std::string, Track> tracks;
    for (std::size_t pi = 0; pi < processors_.size(); ++pi) {
        const auto& tasks = processors_[pi]->tasks();
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            tracks.emplace(tasks[ti]->name(),
                           Track{static_cast<int>(pi) + 1,
                                 static_cast<int>(ti) + 1,
                                 static_cast<int>(tasks.size() + 1 + ti)});
    }

    // One complete slice per job on the task's jobs track, blame
    // decomposition as args in exact picoseconds. Jobs of one task are
    // recorded in completion order == release order, so each track stays
    // monotonic; zero-response jobs are dropped (the validator rejects
    // zero-width slices) — their decomposition is all-zero anyway.
    for (const auto& [name, tr] : tracks) {
        for (const auto* j : attribution.jobs_for(name)) {
            if (j->response().is_zero()) continue;
            std::string args = "{\"task\": \"" + json_escape(j->task) +
                               "\", \"index\": " + std::to_string(j->index) +
                               ", \"release_ps\": " + ps(j->release) +
                               ", \"end_ps\": " + ps(j->end) +
                               ", \"response_ps\": " + ps(j->response()) +
                               ", \"aborted\": " +
                               (j->aborted ? "true" : "false") +
                               ", \"exec_ps\": " + ps(j->exec) +
                               ", \"preempt_ps\": " + ps(j->preemption) +
                               ", \"block_ps\": " + ps(j->blocking) +
                               ", \"overhead_ps\": " + ps(j->overhead) +
                               ", \"interrupt_ps\": " + ps(j->interrupt) +
                               ", \"ov_sched_ps\": " + ps(j->ov_scheduling) +
                               ", \"ov_load_ps\": " + ps(j->ov_load) +
                               ", \"ov_save_ps\": " + ps(j->ov_save) +
                               ", \"ov_switch_ps\": " + ps(j->ov_switch) +
                               ", \"residual_ps\": " + ps(j->residual) +
                               // Raw model units as strings (128-bit,
                               // exact); joules as doubles for humans.
                               ", \"energy_exec_fj\": \"" +
                               rtos::energy_to_string(j->energy_exec) +
                               "\", \"energy_overhead_fj\": \"" +
                               rtos::energy_to_string(j->energy_overhead) +
                               "\", \"energy_exec_j\": " +
                               format_joules(j->energy_exec) +
                               ", \"energy_overhead_j\": " +
                               format_joules(j->energy_overhead) +
                               ", \"preempted_by\": " +
                               time_map(j->preempted_by) +
                               ", \"blocked_on\": " +
                               time_map(j->blocked_on) + "}";
            emit(slice(tr.pid, tr.jobs_tid, j->release, j->response(), "job",
                       "job #" + std::to_string(j->index) +
                           (j->aborted ? " (aborted)" : ""),
                       args));
        }
    }

    // Blocking episodes: a chain instant on the victim's jobs track plus
    // a culprit -> victim flow ("s" on the owner's state track, "f" on
    // the victim's).
    std::uint64_t flow_id = 1;
    for (const auto& e : attribution.episodes()) {
        const auto vit = tracks.find(e.victim);
        if (vit == tracks.end()) continue;
        std::string args =
            "{\"victim\": \"" + json_escape(e.victim) +
            "\", \"job\": " + std::to_string(e.job_index) +
            ", \"resource\": \"" + json_escape(e.resource) +
            "\", \"owner\": \"" + json_escape(e.owner) +
            "\", \"victim_priority\": " + std::to_string(e.victim_priority) +
            ", \"owner_priority\": " + std::to_string(e.owner_priority) +
            ", \"duration_ps\": " + ps(e.duration()) +
            ", \"inversion\": " + (e.inversion ? "true" : "false") +
            ", \"chain\": " + str_list(e.chain) +
            ", \"aggravators\": " + str_list(e.aggravators) + "}";
        emit(instant(vit->second.pid, vit->second.jobs_tid, e.start, 't',
                     "blocking_chain",
                     "blocked on " + e.resource +
                         (e.inversion ? " [inversion]" : ""),
                     args));
        const auto oit = tracks.find(e.owner);
        if (oit == tracks.end()) continue;
        emit(flow('s', flow_id, e.start, oit->second.pid,
                  oit->second.state_tid));
        emit(flow('f', flow_id, e.end, vit->second.pid,
                  vit->second.state_tid));
        ++flow_id;
    }

    // Deadline misses with their critical path.
    if (misses != nullptr) {
        for (const auto& m : *misses) {
            const auto vit = tracks.find(m.task);
            if (vit == tracks.end()) continue;
            std::string args =
                "{\"task\": \"" + json_escape(m.task) +
                "\", \"constraint\": \"" + json_escape(m.constraint) +
                "\", \"measured_ps\": " + ps(m.measured) +
                ", \"bound_ps\": " + ps(m.bound) + ", \"critical_path\": [";
            for (std::size_t i = 0; i < m.critical_path.size(); ++i) {
                const auto& item = m.critical_path[i];
                if (i != 0) args += ", ";
                args += "{\"start_ps\": " + ps(item.start) +
                        ", \"dur_ps\": " + ps(item.duration) +
                        ", \"culprit\": \"" + json_escape(item.culprit) +
                        "\", \"reason\": \"" + json_escape(item.reason) +
                        "\"}";
            }
            args += "]}";
            emit(instant(vit->second.pid, vit->second.jobs_tid, m.at, 't',
                         "deadline_miss", "deadline miss: " + m.constraint,
                         args));
        }
    }
}

} // namespace rtsc::obs::pfmt
