#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <ucontext.h>
#include <vector>

#include "kernel/context.hpp"
#include "report.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t spin(std::uint64_t iterations) {
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (std::uint64_t i = 0; i < iterations; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
}

/// One reference block on the calling thread: the kinds of work the
/// workloads do — coroutine switches through libc, integer arithmetic with
/// dependent loads and stores, and number formatting into a string.
void reference_block() {
    struct Ctx {
        ucontext_t main{}, co{};
    };
    static thread_local Ctx ctx;
    static thread_local std::vector<char> stack(64 * 1024);
    static thread_local std::vector<std::uint64_t> buf(16 * 1024);
    static thread_local std::string text;
    ::getcontext(&ctx.co);
    ctx.co.uc_stack.ss_sp = stack.data();
    ctx.co.uc_stack.ss_size = stack.size();
    ctx.co.uc_link = nullptr;
    ::makecontext(&ctx.co, +[] {
        for (;;) ::swapcontext(&ctx.co, &ctx.main);
    }, 0);
    std::uint64_t x = 1;
    char num[32];
    for (int rep = 0; rep < 4; ++rep) {
        for (int i = 0; i < 400; ++i) ::swapcontext(&ctx.main, &ctx.co);
        for (std::size_t i = 0; i < buf.size(); ++i) {
            x = x * 6364136223846793005ull + buf[(i * 7919) & (buf.size() - 1)];
            buf[i] = x;
        }
        text.clear();
        for (int i = 0; i < 250; ++i) {
            const int n = std::snprintf(num, sizeof num, "%.17g",
                                        static_cast<double>(x >> 11) * 0x1.0p-40);
            text.append(num, static_cast<std::size_t>(n));
            x += static_cast<std::uint64_t>(n);
        }
    }
}

} // namespace

HostSpeed measure_host_speed(unsigned threads) {
    const auto t0 = Clock::now();
    if (threads <= 1) {
        reference_block();
    } else {
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < threads; ++i) pool.emplace_back(reference_block);
        for (auto& t : pool) t.join();
    }
    return HostSpeed{seconds_since(t0)};
}

double measure_switch_ns(int round_trips) {
    using rtsc::kernel::Coroutine;
    bool stop = false;
    Coroutine co([&stop] {
        while (!stop) Coroutine::current()->yield();
    });
    co.resume(); // first entry runs the body up to its first yield
    constexpr int kBatches = 9;
    const int per_batch = std::max(1, round_trips / kBatches);
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < per_batch; ++i) co.resume();
        ns.push_back(seconds_since(t0) * 1e9 / per_batch);
    }
    stop = true;
    co.resume();
    return median(ns);
}

double measure_spin_scaling(unsigned threads) {
    constexpr std::uint64_t kWork = 20'000'000;
    volatile std::uint64_t sink = 0;
    auto t0 = Clock::now();
    sink = sink + spin(kWork);
    const double one = seconds_since(t0);

    std::vector<std::uint64_t> out(threads);
    t0 = Clock::now();
    {
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < threads; ++i)
            pool.emplace_back([&out, i] { out[i] = spin(kWork + i); });
        for (auto& t : pool) t.join();
    }
    const double many = seconds_since(t0);
    for (const auto v : out) sink = sink + v;
    return static_cast<double>(threads) * one / many;
}

HostRecord calibrate_host() {
    HostRecord h;
    h.nproc = static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
    h.spin_scaling = measure_spin_scaling(h.nproc);
    h.switch_ns = measure_switch_ns(200'000);
#if defined(__clang__)
    h.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    h.compiler = "gcc " __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.build_type = PERFBENCH_BUILD_TYPE;
    return h;
}

std::string host_json(const HostRecord& h) {
    return "{\"host\": {\"nproc\": " + std::to_string(h.nproc) +
           ", \"spin_scaling\": " + json_number(h.spin_scaling) +
           ", \"switch_ns\": " + json_number(h.switch_ns) +
           ", \"compiler\": " + json_string(h.compiler) +
           ", \"build_type\": " + json_string(h.build_type) + "}}";
}

double peak_rss_mib(bool children) {
    // VmHWM is this address space's own peak. getrusage's RUSAGE_SELF
    // maximum survives execve, so it would report the launching process's
    // footprint whenever that was larger.
    long kib = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0) kib = std::strtol(line.c_str() + 6, nullptr, 10);
    if (kib == 0) {
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        kib = ru.ru_maxrss;
    }
    if (children) {
        rusage rc{};
        ::getrusage(RUSAGE_CHILDREN, &rc);
        kib = std::max(kib, rc.ru_maxrss);
    }
    return static_cast<double>(kib) / 1024.0;
}

} // namespace perfbench
