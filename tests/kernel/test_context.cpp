// Unit tests for the stackful coroutine layer.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/report.hpp"

using rtsc::kernel::Coroutine;
using rtsc::kernel::SimulationError;

TEST(CoroutineTest, RunsToCompletion) {
    bool ran = false;
    Coroutine co([&] { ran = true; });
    EXPECT_FALSE(co.started());
    co.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(co.finished());
}

TEST(CoroutineTest, YieldSuspendsAndResumeContinues) {
    std::vector<int> order;
    Coroutine* self = nullptr;
    Coroutine co([&] {
        order.push_back(1);
        self->yield();
        order.push_back(3);
        self->yield();
        order.push_back(5);
    });
    self = &co;
    co.resume();
    order.push_back(2);
    co.resume();
    order.push_back(4);
    co.resume();
    EXPECT_TRUE(co.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(CoroutineTest, CurrentTracksExecution) {
    EXPECT_EQ(Coroutine::current(), nullptr);
    Coroutine* seen = nullptr;
    Coroutine co([&] { seen = Coroutine::current(); });
    co.resume();
    EXPECT_EQ(seen, &co);
    EXPECT_EQ(Coroutine::current(), nullptr);
}

TEST(CoroutineTest, NestedCoroutines) {
    std::vector<int> order;
    Coroutine inner([&] { order.push_back(2); });
    Coroutine outer([&] {
        order.push_back(1);
        inner.resume();
        order.push_back(3);
    });
    outer.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(inner.finished());
    EXPECT_TRUE(outer.finished());
}

TEST(CoroutineTest, ExceptionPropagatesToResumer) {
    Coroutine co([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(co.resume(), std::runtime_error);
    EXPECT_TRUE(co.finished());
}

TEST(CoroutineTest, ResumeAfterFinishThrows) {
    Coroutine co([] {});
    co.resume();
    EXPECT_THROW(co.resume(), SimulationError);
}

TEST(CoroutineTest, DestroySuspendedCoroutineIsSafe) {
    auto* co = new Coroutine([] {
        Coroutine::current()->yield();
        FAIL() << "should never run past the yield";
    });
    co->resume();
    delete co; // releases stack without unwinding
    SUCCEED();
}

TEST(CoroutineTest, ManyCoroutinesInterleave) {
    constexpr int n = 50;
    std::vector<std::unique_ptr<Coroutine>> cos;
    int sum = 0;
    for (int i = 0; i < n; ++i) {
        cos.push_back(std::make_unique<Coroutine>([&sum, i] {
            sum += i;
            Coroutine::current()->yield();
            sum += 1000;
        }));
    }
    for (auto& c : cos) c->resume();
    EXPECT_EQ(sum, n * (n - 1) / 2);
    for (auto& c : cos) c->resume();
    EXPECT_EQ(sum, n * (n - 1) / 2 + 1000 * n);
    for (auto& c : cos) EXPECT_TRUE(c->finished());
}

TEST(CoroutineTest, DeepStackUsageWithinLimit) {
    // Recursion that uses a good chunk of the default 128 KiB stack.
    std::function<int(int)> rec = [&](int d) -> int {
        char pad[512];
        pad[0] = static_cast<char>(d);
        if (d == 0) return pad[0];
        return rec(d - 1) + (pad[0] ? 0 : 1);
    };
    int result = -1;
    Coroutine co([&] { result = rec(100); });
    co.resume();
    EXPECT_EQ(result, 0);
}

namespace {
// Recurses until the stack runs out. The volatile frame contents and the
// work after the call keep it a real, non-tail recursion at any -O level.
[[gnu::noinline]] int recurse_past_stack_end(volatile int* depth) {
    volatile char pad[256];
    *depth = *depth + 1;
    pad[0] = static_cast<char>(*depth);
    if (*depth < 0) return pad[0]; // never: the guard page stops us first
    return recurse_past_stack_end(depth) + pad[0];
}
} // namespace

TEST(CoroutineDeathTest, StackOverflowHitsGuardPage) {
    // A plain build dies of SIGSEGV on the guard page, an ASan build with
    // its stack-overflow report; either way the process must not survive
    // by writing below the stack into whatever is mapped there.
    EXPECT_DEATH(
        {
            volatile int depth = 0;
            Coroutine co([&] { recurse_past_stack_end(&depth); }, 16 * 1024);
            co.resume();
        },
        "");
}

TEST(CoroutineTest, FloatingPointControlStateIsPerCoroutine) {
    // 1/3 rounds differently to nearest and upward, so the quotient tells
    // which SSE rounding mode (MXCSR) is live; fegetround() reads the x87
    // control word.
    volatile double one = 1.0, three = 3.0;
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    const double nearest = one / three;
    int mode_after_resume = -1;
    double quotient_after_resume = 0;
    Coroutine co([&] {
        std::fesetround(FE_UPWARD);
        Coroutine::current()->yield();
        mode_after_resume = std::fegetround();
        quotient_after_resume = one / three;
    });
    co.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(one / three, nearest);
    co.resume();
    EXPECT_EQ(mode_after_resume, FE_UPWARD);
    EXPECT_GT(quotient_after_resume, nearest);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(one / three, nearest);
}

TEST(CoroutineTest, FreshStackIsAlignedForSse) {
    // The volatile round trip hides the address from the optimizer, which
    // would otherwise fold the check to true on the alignas promise.
    std::uintptr_t misalignment = 1;
    char text[32] = {};
    Coroutine co([&] {
        alignas(16) char local[16] = {};
        volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(local);
        misalignment = addr % 16;
        // printf's floating-point path spills SSE registers with aligned
        // stores; a misaligned entry frame faults here.
        std::snprintf(text, sizeof text, "%f", 0.5);
    });
    co.resume();
    EXPECT_EQ(misalignment, 0u);
    EXPECT_STREQ(text, "0.500000");
}
