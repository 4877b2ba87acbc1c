#include "obs/perfetto_format.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <ostream>

#include "kernel/report.hpp"
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

/// put() pieces: JSON string content to escape, a time in microseconds.
struct Esc {
    std::string_view s;
};
struct Us {
    k::Time t;
};

void put1(std::string& w, std::string_view raw) { w += raw; }
void put1(std::string& w, char c) { w += c; }
void put1(std::string& w, Esc e) { append_escaped(w, e.s); }
void put1(std::string& w, Us u) { trace::append_us(w, u.t); }
void put1(std::string& w, double v) { append_number(w, v); }
template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
void put1(std::string& w, T v) {
    char buf[24];
    w.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Append each piece in place: text as is, Esc escaped, Us as microseconds,
/// integers and doubles as JSON numbers.
template <class... P>
void put(std::string& w, const P&... p) {
    (put1(w, p), ...);
}

/// A complete slice up to its optional args; `name` is put() pieces.
template <class... Name>
void slice(std::string& w, int pid, int tid, k::Time at, k::Time dur,
           std::string_view cat, const Name&... name) {
    put(w, "{\"name\": \"", name..., "\", \"cat\": \"", Esc{cat},
        "\", \"ph\": \"X\", \"ts\": ", Us{at}, ", \"dur\": ", Us{dur},
        ", \"pid\": ", pid, ", \"tid\": ", tid);
}

/// An instant of `scope` ('t' thread, 'g' global) up to its optional args.
template <class... Name>
void instant(std::string& w, int pid, int tid, k::Time at, char scope,
             std::string_view cat, const Name&... name) {
    put(w, "{\"name\": \"", name..., "\", \"cat\": \"", Esc{cat},
        "\", \"ph\": \"i\", \"s\": \"", scope, "\", \"ts\": ", Us{at},
        ", \"pid\": ", pid, ", \"tid\": ", tid);
}

void put_time_map(std::string& w,
                  const std::vector<std::pair<std::string, k::Time>>& m) {
    w += '{';
    for (std::size_t i = 0; i < m.size(); ++i)
        put(w, i == 0 ? "\"" : ", \"", Esc{m[i].first}, "\": ",
            m[i].second.raw_ps());
    w += '}';
}

void put_str_list(std::string& w, const std::vector<std::string>& v) {
    w += '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        put(w, i == 0 ? "\"" : ", \"", Esc{v[i]}, '"');
    w += ']';
}

/// Where a task's slices live: its processor's pid, its state track and its
/// jobs track, plus its recorded jobs in release order. Keyed by task name:
/// Attribution records names so its results outlive the model.
struct Track {
    int pid = 0;
    int state_tid = 0;
    int jobs_tid = 0;
    std::vector<const Attribution::JobRecord*> jobs;
};

} // namespace

void append_escaped(std::string& out, std::string_view s) {
    static constexpr char hex[] = "0123456789abcdef";
    // Copy the longest prefix that needs no escaping in one go: for the
    // usual name that is all of it.
    std::size_t i = 0;
    while (i < s.size() && static_cast<unsigned char>(s[i]) >= 0x20 &&
           s[i] != '"' && s[i] != '\\')
        ++i;
    out.append(s.data(), i);
    for (; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    out += "\\u00";
                    out += hex[c >> 4];
                    out += hex[c & 0xf];
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
}

void append_number(std::string& out, double value) {
    char buf[32]; // "-d.dddddddddddddddde-308" fits
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value,
                                  std::chars_format::general, 17)
                        .ptr);
}

EventWriter::EventWriter(std::ostream& os, std::size_t window_bytes)
    : os_(os), window_limit_(window_bytes) {
    os_ << "{\"traceEvents\": [\n";
}

std::string& EventWriter::open_event() {
    if (!first_) window_ += ",\n";
    first_ = false;
    return window_;
}

void EventWriter::close_event() {
    window_ += '}';
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
    if (visible_state(cur.prev_state) && at > cur.prev_at) {
        slice(open_event(), cur.pid, cur.tid, cur.prev_at, at - cur.prev_at,
              "task_state", rtos::to_string(cur.prev_state));
        close_event();
    }
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
    std::string& w = open_event();
    slice(w, pid, 0, start, duration, "rtos", rtos::to_string(kind));
    if (about != nullptr)
        put(w, ", \"args\": {\"task\": \"", Esc{about->name()}, "\"}");
    close_event();
}

void EventWriter::access(k::Time at, const mcse::Relation& rel,
                         const rtos::Task* task, mcse::AccessKind kind,
                         bool blocked) {
    note_time(at);
    int tid = 0;
    for (std::size_t ri = 0; ri < relations_.size(); ++ri)
        if (relations_[ri] == &rel) tid = static_cast<int>(ri) + 1;
    if (tid == 0) return;
    std::string& w = open_event();
    instant(w, comm_pid(), tid, at, 't', "comm", mcse::to_string(kind),
            blocked ? " [blocked]" : "");
    put(w, ", \"args\": {\"task\": \"",
        Esc{task != nullptr ? std::string_view(task->name()) : "<hw>"},
        blocked ? "\", \"blocked\": true}" : "\", \"blocked\": false}");
    close_event();
}

void EventWriter::marker(k::Time at, std::string_view category,
                         std::string_view name) {
    note_time(at);
    any_marker_ = true;
    instant(open_event(), marker_pid(), 1, at, 'g', category, Esc{name});
    close_event();
}

void EventWriter::counter(const rtos::Processor& cpu, k::Time at,
                          std::string_view name, double value) {
    const int pid = pid_of(cpu);
    if (pid == 0)
        throw k::SimulationError("counter() on a processor never attached "
                                 "to this PerfettoStreamWriter");
    require_finite(name, value);
    counter_sample(pid, at, name, value);
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
    counter_sample(marker_pid() + 1 + idx, at, name, value);
}

void EventWriter::counter_sample(int pid, k::Time at, std::string_view name,
                                 double value) {
    put(open_event(), "{\"name\": \"", Esc{name}, "\", \"ph\": \"C\", \"ts\": ",
        Us{at}, ", \"pid\": ", pid, ", \"tid\": 0, \"args\": {\"value\": ",
        value, '}');
    close_event();
}

void EventWriter::meta(std::string_view kind, int pid, int tid,
                       std::string_view name, std::string_view suffix) {
    put(open_event(), "{\"name\": \"", kind, "\", \"ph\": \"M\", \"pid\": ",
        pid, ", \"tid\": ", tid, ", \"args\": {\"name\": \"", Esc{name},
        Esc{suffix}, "\"}");
    close_event();
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
            if (visible_state(cur.prev_state) && end > cur.prev_at) {
                slice(open_event(), cur.pid, cur.tid, cur.prev_at,
                      end - cur.prev_at, "task_state",
                      rtos::to_string(cur.prev_state));
                close_event();
            }
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
        meta("process_name", pid, 0, processors_[pi]->name());
        meta("thread_name", pid, 0, processors_[pi]->name(), ".rtos");
        for (std::size_t ti = 0; ti < tasks.size(); ++ti)
            meta("thread_name", pid, static_cast<int>(ti) + 1,
                 tasks[ti]->name());
        if (attribution != nullptr)
            for (std::size_t ti = 0; ti < tasks.size(); ++ti)
                meta("thread_name", pid,
                     static_cast<int>(tasks.size() + 1 + ti),
                     tasks[ti]->name(), ".jobs");
    }
    if (!relations_.empty()) {
        meta("process_name", comm_pid(), 0, "comm");
        for (std::size_t ri = 0; ri < relations_.size(); ++ri)
            meta("thread_name", comm_pid(), static_cast<int>(ri) + 1,
                 relations_[ri]->name(),
                 std::string(" (") + relations_[ri]->type_name() + ")");
    }
    if (any_marker_) meta("process_name", marker_pid(), 0, "events");
    for (std::size_t ci = 0; ci < counter_procs_.size(); ++ci)
        meta("process_name", marker_pid() + 1 + static_cast<int>(ci), 0,
             counter_procs_[ci]);

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
                                 static_cast<int>(tasks.size() + 1 + ti),
                                 {}});
    }
    // Group the jobs by task in one pass, keeping jobs() order per task.
    for (const auto& j : attribution.jobs())
        if (const auto it = tracks.find(j.task); it != tracks.end())
            it->second.jobs.push_back(&j);

    // One complete slice per job on the task's jobs track, blame
    // decomposition as args in exact picoseconds. Jobs of one task are
    // recorded in completion order == release order, so each track stays
    // monotonic; zero-response jobs are dropped (the validator rejects
    // zero-width slices) — their decomposition is all-zero anyway.
    for (const auto& [name, tr] : tracks) {
        for (const auto* j : tr.jobs) {
            if (j->response().is_zero()) continue;
            std::string& w = open_event();
            slice(w, tr.pid, tr.jobs_tid, j->release, j->response(), "job",
                  "job #", j->index, j->aborted ? " (aborted)" : "");
            put(w, ", \"args\": {\"task\": \"", Esc{j->task},
                "\", \"index\": ", j->index,
                ", \"release_ps\": ", j->release.raw_ps(),
                ", \"end_ps\": ", j->end.raw_ps(),
                ", \"response_ps\": ", j->response().raw_ps(),
                j->aborted ? ", \"aborted\": true" : ", \"aborted\": false",
                ", \"exec_ps\": ", j->exec.raw_ps(),
                ", \"preempt_ps\": ", j->preemption.raw_ps(),
                ", \"block_ps\": ", j->blocking.raw_ps(),
                ", \"overhead_ps\": ", j->overhead.raw_ps(),
                ", \"interrupt_ps\": ", j->interrupt.raw_ps(),
                ", \"ov_sched_ps\": ", j->ov_scheduling.raw_ps(),
                ", \"ov_load_ps\": ", j->ov_load.raw_ps(),
                ", \"ov_save_ps\": ", j->ov_save.raw_ps(),
                ", \"ov_switch_ps\": ", j->ov_switch.raw_ps(),
                ", \"residual_ps\": ", j->residual.raw_ps(),
                // Raw model units as strings (128-bit, exact); joules as
                // doubles for humans.
                ", \"energy_exec_fj\": \"",
                rtos::energy_to_string(j->energy_exec),
                "\", \"energy_overhead_fj\": \"",
                rtos::energy_to_string(j->energy_overhead),
                "\", \"energy_exec_j\": ",
                rtos::energy_to_joules(j->energy_exec),
                ", \"energy_overhead_j\": ",
                rtos::energy_to_joules(j->energy_overhead),
                ", \"preempted_by\": ");
            put_time_map(w, j->preempted_by);
            w += ", \"blocked_on\": ";
            put_time_map(w, j->blocked_on);
            w += '}';
            close_event();
        }
    }

    // Blocking episodes: a chain instant on the victim's jobs track plus
    // a culprit -> victim flow ("s" on the owner's state track, "f" on
    // the victim's).
    std::uint64_t flow_id = 1;
    for (const auto& e : attribution.episodes()) {
        const auto vit = tracks.find(e.victim);
        if (vit == tracks.end()) continue;
        std::string& w = open_event();
        instant(w, vit->second.pid, vit->second.jobs_tid, e.start, 't',
                "blocking_chain", "blocked on ", Esc{e.resource},
                e.inversion ? " [inversion]" : "");
        put(w, ", \"args\": {\"victim\": \"", Esc{e.victim},
            "\", \"job\": ", e.job_index, ", \"resource\": \"",
            Esc{e.resource}, "\", \"owner\": \"", Esc{e.owner},
            "\", \"victim_priority\": ", e.victim_priority,
            ", \"owner_priority\": ", e.owner_priority,
            ", \"duration_ps\": ", e.duration().raw_ps(),
            e.inversion ? ", \"inversion\": true" : ", \"inversion\": false",
            ", \"chain\": ");
        put_str_list(w, e.chain);
        w += ", \"aggravators\": ";
        put_str_list(w, e.aggravators);
        w += '}';
        close_event();
        const auto oit = tracks.find(e.owner);
        if (oit == tracks.end()) continue;
        flow('s', flow_id, e.start, oit->second.pid, oit->second.state_tid);
        flow('f', flow_id, e.end, vit->second.pid, vit->second.state_tid);
        ++flow_id;
    }

    // Deadline misses with their critical path.
    if (misses == nullptr) return;
    for (const auto& m : *misses) {
        const auto vit = tracks.find(m.task);
        if (vit == tracks.end()) continue;
        std::string& w = open_event();
        instant(w, vit->second.pid, vit->second.jobs_tid, m.at, 't',
                "deadline_miss", "deadline miss: ", Esc{m.constraint});
        put(w, ", \"args\": {\"task\": \"", Esc{m.task},
            "\", \"constraint\": \"", Esc{m.constraint},
            "\", \"measured_ps\": ", m.measured.raw_ps(),
            ", \"bound_ps\": ", m.bound.raw_ps(), ", \"critical_path\": [");
        for (std::size_t i = 0; i < m.critical_path.size(); ++i) {
            const auto& item = m.critical_path[i];
            put(w, i == 0 ? "{\"start_ps\": " : ", {\"start_ps\": ",
                item.start.raw_ps(), ", \"dur_ps\": ",
                item.duration.raw_ps(), ", \"culprit\": \"",
                Esc{item.culprit}, "\", \"reason\": \"", Esc{item.reason},
                "\"}");
        }
        w += "]}";
        close_event();
    }
}

/// Flow endpoint of a culprit->victim blocking arrow: ph 's' starts it,
/// 'f' finishes it bound to the enclosing slice.
void EventWriter::flow(char ph, std::uint64_t id, k::Time at, int pid,
                       int tid) {
    put(open_event(), "{\"name\": \"blocking\", \"cat\": \"blocking\", "
        "\"ph\": \"", ph, ph == 'f' ? "\", \"bp\": \"e\", \"id\": " : "\", \"id\": ",
        id, ", \"ts\": ", Us{at}, ", \"pid\": ", pid, ", \"tid\": ", tid);
    close_event();
}

} // namespace rtsc::obs::pfmt
