// Rendering edge cases of the Perfetto appenders, each checked against an
// snprintf reference written here: microsecond times (trace::append_us),
// counter values (pfmt::append_number against %.17g) and JSON escaping
// (pfmt::append_escaped, whose fast path copies names that need no escape).
// The last test drives obs::pfmt::EventWriter directly with hostile names
// as processor, task, relation, marker and counter names and compares every
// event line with its snprintf rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/simulator.hpp"
#include "mcse/event.hpp"
#include "obs/json.hpp"
#include "obs/perfetto.hpp"
#include "obs/perfetto_format.hpp"
#include "rtos/processor.hpp"
#include "trace/csv.hpp"

namespace k = rtsc::kernel;
namespace r = rtsc::rtos;
namespace m = rtsc::mcse;
namespace o = rtsc::obs;
namespace pfmt = rtsc::obs::pfmt;
namespace tr = rtsc::trace;
using k::Time;
using namespace rtsc::kernel::time_literals;

namespace {

/// The microsecond rendering as it was written with snprintf.
std::string ref_us(Time t) {
    const unsigned long long ps = t.raw_ps();
    char buf[48];
    if (ps % 1'000'000u == 0) {
        std::snprintf(buf, sizeof buf, "%llu", ps / 1'000'000u);
        return buf;
    }
    std::snprintf(buf, sizeof buf, "%llu.%06llu", ps / 1'000'000u,
                  ps % 1'000'000u);
    std::string out = buf;
    while (out.back() == '0') out.pop_back();
    return out;
}

std::string ref_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string ref_escape(std::string_view s) {
    std::string out;
    for (const unsigned char c : s) {
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
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
    return out;
}

const Time kTimes[] = {
    Time::ps(0),
    Time::ps(1),                 // smallest fraction
    Time::ps(10),                // trailing zero after a leading-zero run
    Time::ps(999'999),           // all six digits
    Time::ps(1'500'000),         // five trailing zeros stripped
    Time::ps(123'456'789),
    Time::ps(1'000'010),
    Time::us(1),                 // whole microseconds
    Time::us(42),
    Time::ps(100'000'000'000'000), // whole, many integral digits
    Time::ps(std::numeric_limits<std::uint64_t>::max()),
};

const double kValues[] = {
    0.1,
    -0.0,
    1e-300,
    5e-324, // smallest subnormal
    1e21,
    123456789012345678.0,
    100.0,
    0.0,
    14.116,
    1.0 / 3.0,
    -2.5,
    1e16,
    1e17,
    std::numeric_limits<double>::max(),
    std::numeric_limits<double>::min(),
};

const std::string_view kNames[] = {
    "plain_name",                   // fast path: copied as is
    "",                             // empty
    "quote\"d",                     // quote
    "back\\slash",                  // backslash
    "new\nline",                    // short escape
    "ctl\x01",                      // \u0001
    "\x1f\t\b\f\r",                 // escapes only
    "utf8 Z\xC3\xBCrich \xE2\x86\x92", // UTF-8 bytes pass through
    "\"lead and trail\\",
    "del\x7f",                      // 0x7f needs no escape in JSON
};

/// Event lines of an export, trailing separators stripped.
std::vector<std::string> event_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == ',') line.pop_back();
        lines.push_back(line);
    }
    return lines;
}

bool has_line(const std::vector<std::string>& lines, const std::string& l) {
    for (const auto& x : lines)
        if (x == l) return true;
    return false;
}

} // namespace

TEST(PerfettoRender, MicrosecondsMatchTheSnprintfReference) {
    for (const Time t : kTimes) {
        EXPECT_EQ(tr::format_us(t), ref_us(t)) << t.raw_ps();
        std::string out = "ts=";
        tr::append_us(out, t);
        EXPECT_EQ(out, "ts=" + ref_us(t)) << t.raw_ps();
    }
    EXPECT_EQ(tr::format_us(Time::ps(std::numeric_limits<std::uint64_t>::max())),
              "18446744073709.551615");
}

TEST(PerfettoRender, CounterValuesMatchPercent17g) {
    for (const double v : kValues) {
        std::string out = "v=";
        pfmt::append_number(out, v);
        EXPECT_EQ(out, "v=" + ref_number(v)) << ref_number(v);
    }
}

TEST(PerfettoRender, EscapingMatchesTheReference) {
    for (const std::string_view name : kNames) {
        std::string out = "\"";
        pfmt::append_escaped(out, name);
        EXPECT_EQ(out, "\"" + ref_escape(name)) << name;
        EXPECT_EQ(o::json_escape(name), ref_escape(name)) << name;
    }
    // Every byte value, one at a time and all together.
    std::string all;
    for (int c = 0; c < 256; ++c) {
        const std::string one(1, static_cast<char>(c));
        std::string out;
        pfmt::append_escaped(out, one);
        EXPECT_EQ(out, ref_escape(one)) << c;
        all += one;
    }
    std::string out;
    pfmt::append_escaped(out, all);
    EXPECT_EQ(out, ref_escape(all));
}

TEST(PerfettoRender, EveryEventKindMatchesItsSnprintfRendering) {
    for (const std::string_view hostile : kNames) {
        if (hostile.empty()) continue;
        const std::string name(hostile);
        const std::string esc = ref_escape(hostile);
        k::Simulator sim;
        r::Processor cpu(name, std::make_unique<r::PriorityPreemptivePolicy>());
        r::Task& task =
            cpu.create_task({.name = name, .priority = 1}, [](r::Task&) {});
        m::Event rel(name, m::EventPolicy::boolean);

        std::ostringstream os;
        pfmt::EventWriter w(os, 0);
        w.add(cpu);
        w.add(rel);
        const Time t1 = Time::ps(1'500'000);
        const Time t2 = Time::ps(123'456'789);
        w.task_state(Time::ps(0), task, r::TaskState::created,
                     r::TaskState::created);
        w.task_state(t1, task, r::TaskState::created, r::TaskState::ready);
        w.task_state(t2, task, r::TaskState::ready, r::TaskState::running);
        w.overhead(cpu, r::OverheadKind::scheduling, t1, Time::ps(1), &task);
        w.access(t2, rel, &task, m::AccessKind::signal_op, true);
        w.access(t2, rel, nullptr, m::AccessKind::await_op, false);
        w.marker(t2, name, name);
        for (const double v : kValues) {
            w.counter(cpu, t1, name, v);
            w.counter(name, t2, name, v);
        }
        w.finish(nullptr, nullptr);
        const std::string text = os.str();
        ASSERT_NO_THROW((void)o::json::parse(text)) << esc;
        const auto lines = event_lines(text);

        char buf[512];
        const auto expect = [&](int n) {
            ASSERT_LT(static_cast<std::size_t>(n), sizeof buf);
            EXPECT_TRUE(has_line(lines, buf)) << buf << "\n---\n" << text;
        };
        const char* e = esc.c_str();
        expect(std::snprintf(
            buf, sizeof buf,
            "{\"name\": \"ready\", \"cat\": \"task_state\", \"ph\": \"X\", "
            "\"ts\": %s, \"dur\": %s, \"pid\": 1, \"tid\": 1}",
            ref_us(t1).c_str(), ref_us(t2 - t1).c_str()));
        expect(std::snprintf(
            buf, sizeof buf,
            "{\"name\": \"scheduling\", \"cat\": \"rtos\", \"ph\": \"X\", "
            "\"ts\": %s, \"dur\": %s, \"pid\": 1, \"tid\": 0, "
            "\"args\": {\"task\": \"%s\"}}",
            ref_us(t1).c_str(), ref_us(Time::ps(1)).c_str(), e));
        expect(std::snprintf(
            buf, sizeof buf,
            "{\"name\": \"signal [blocked]\", \"cat\": \"comm\", "
            "\"ph\": \"i\", \"s\": \"t\", \"ts\": %s, \"pid\": 2, "
            "\"tid\": 1, \"args\": {\"task\": \"%s\", \"blocked\": true}}",
            ref_us(t2).c_str(), e));
        expect(std::snprintf(
            buf, sizeof buf,
            "{\"name\": \"await\", \"cat\": \"comm\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": %s, \"pid\": 2, \"tid\": 1, "
            "\"args\": {\"task\": \"<hw>\", \"blocked\": false}}",
            ref_us(t2).c_str()));
        expect(std::snprintf(
            buf, sizeof buf,
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", \"s\": \"g\", "
            "\"ts\": %s, \"pid\": 3, \"tid\": 1}",
            e, e, ref_us(t2).c_str()));
        for (const double v : kValues) {
            expect(std::snprintf(
                buf, sizeof buf,
                "{\"name\": \"%s\", \"ph\": \"C\", \"ts\": %s, \"pid\": 1, "
                "\"tid\": 0, \"args\": {\"value\": %.17g}}",
                e, ref_us(t1).c_str(), v));
            expect(std::snprintf(
                buf, sizeof buf,
                "{\"name\": \"%s\", \"ph\": \"C\", \"ts\": %s, \"pid\": 4, "
                "\"tid\": 0, \"args\": {\"value\": %.17g}}",
                e, ref_us(t2).c_str(), v));
        }
        // The running segment closes at the trace end (t2: nothing later).
        // Metadata: processor, its RTOS track, the task, the relation, the
        // marker process and the auxiliary counter process.
        const auto meta = [&](const char* kind, int pid, int tid,
                              const std::string& n) {
            expect(std::snprintf(
                buf, sizeof buf,
                "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
                "\"args\": {\"name\": \"%s\"}}",
                kind, pid, tid, n.c_str()));
        };
        meta("process_name", 1, 0, esc);
        meta("thread_name", 1, 0, esc + ".rtos");
        meta("thread_name", 1, 1, esc);
        meta("process_name", 2, 0, "comm");
        meta("thread_name", 2, 1, esc + " (" + rel.type_name() + ")");
        meta("process_name", 3, 0, "events");
        meta("process_name", 4, 0, esc);
        // 2 slices + 3 instants + 2 counters per value + 7 metadata.
        EXPECT_EQ(w.stats().events, 5 + 2 * std::size(kValues) + 7);
    }
}
