#pragma once
// Offline trace query layer behind tools/trace_query: loads a Perfetto
// export written by obs::write_perfetto_json or obs::PerfettoStreamWriter
// (with attribution enabled; event order does not matter) and answers
// "why was this task late?" without re-running the simulation.
//
// The loader understands exactly the event schema the exporter writes:
//   cat "job"            -> JobRow    (per-job blame decomposition, args in
//                                      exact picoseconds)
//   cat "blocking_chain" -> ChainRow  (victim/owner/chain/inversion flag)
//   cat "deadline_miss"  -> MissRow   (violated constraint + critical path)
// Everything else (task_state slices, rtos overheads, comm instants, flow
// events) is skipped. Exports made without PerfettoOptions::attribution
// simply yield empty row sets.
//
// Renderers produce either a fixed-width human table or a JSON document
// (--json); the JSON is itself valid obs::json input, which trace_query uses
// as a built-in schema self-check.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rtsc::obs::query {

/// One job slice (cat "job") with its blame decomposition. Times are the
/// exporter's *_ps args: exact picosecond integers carried in doubles (all
/// values fit well below 2^53).
struct JobRow {
    std::string task;
    std::uint64_t index = 0;
    double release_ps = 0;
    double end_ps = 0;
    double response_ps = 0;
    bool aborted = false;
    double exec_ps = 0;
    double preempt_ps = 0;
    double block_ps = 0;
    double overhead_ps = 0;
    double interrupt_ps = 0;
    /// Energy blame, present in exports of DVFS runs (absent keys in older
    /// exports leave has_energy false and the fields zero / empty). The _fj
    /// strings carry the exact 128-bit model units; the _j doubles are the
    /// human-scale joule rendering.
    bool has_energy = false;
    std::string energy_exec_fj;
    std::string energy_overhead_fj;
    double energy_exec_j = 0;
    double energy_overhead_j = 0;
    std::vector<std::pair<std::string, double>> preempted_by;
    std::vector<std::pair<std::string, double>> blocked_on;
};

/// One blocking episode (cat "blocking_chain").
struct ChainRow {
    std::string victim;
    std::uint64_t job = 0;
    std::string resource;
    std::string owner;
    int victim_priority = 0;
    int owner_priority = 0;
    double start_ps = 0;    ///< block instant (from the event ts, us -> ps)
    double duration_ps = 0;
    bool inversion = false;
    std::vector<std::string> chain;
    std::vector<std::string> aggravators;
};

/// One deadline-miss report (cat "deadline_miss").
struct MissRow {
    std::string task;
    std::string constraint;
    double at_ps = 0;       ///< detection instant (from the event ts)
    double measured_ps = 0;
    double bound_ps = 0;
    struct PathItem {
        double start_ps = 0;
        double dur_ps = 0;
        std::string culprit;
        std::string reason;
    };
    std::vector<PathItem> critical_path;
};

struct TraceData {
    std::vector<JobRow> jobs;     ///< (task, release) order
    std::vector<ChainRow> chains; ///< start order
    std::vector<MissRow> misses;  ///< detection order
};

/// Parse a Perfetto export. Throws std::runtime_error (which includes
/// json::ParseError) on unreadable files, malformed JSON or events whose
/// attribution args don't match the exporter's schema.
[[nodiscard]] TraceData load(const std::string& path);

/// Per-job blame table, optionally restricted to one task ("" = all), plus a
/// per-task summary footer. JSON form: {"jobs": [...], "summary": [...]}.
[[nodiscard]] std::string render_blame(const TraceData& d,
                                       const std::string& task_filter,
                                       bool json);

/// Blocking-chain table; `inversions_only` keeps flagged episodes only.
/// JSON form: {"chains": [...]}.
[[nodiscard]] std::string render_chains(const TraceData& d,
                                        bool inversions_only, bool json);

/// Deadline-miss reports with their critical path. JSON form:
/// {"misses": [...]}.
[[nodiscard]] std::string render_misses(const TraceData& d, bool json);

} // namespace rtsc::obs::query
