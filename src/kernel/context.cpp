#include "kernel/context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "kernel/report.hpp"

// ASan cannot follow a stack switch on its own (it sees one linear stack and
// reports false use-after-scope when we land on another fiber); the fiber
// annotations below tell it about every switch so sanitized builds are
// clean. See https://github.com/google/sanitizers/issues/189.
#if defined(__SANITIZE_ADDRESS__)
#define RTSC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RTSC_ASAN_FIBERS 1
#endif
#endif
#ifdef RTSC_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer likewise needs to be told about fiber switches, or it
// attributes one fiber's accesses to another's stack and reports bogus
// races (and misses real ones) when several simulators run on separate
// threads (src/campaign/).
#if defined(__SANITIZE_THREAD__)
#define RTSC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RTSC_TSAN_FIBERS 1
#endif
#endif
#ifdef RTSC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// rtsc_kernel_swap_stacks(void** save_sp, void* load_sp): push what the
// SysV psABI makes callee-saved (rbp, rbx, r12-r15, the MXCSR control bits
// and the x87 control word), store rsp to *save_sp, load rsp from load_sp
// and pop the same frame off the other stack. The ret lands wherever the
// other side last called in, or, on a fresh stack, in the first frame the
// Coroutine constructor built. No signal mask, no syscall.
extern "C" void rtsc_kernel_swap_stacks(void** save_sp, void* load_sp);
asm(".pushsection .text\n"
    ".globl rtsc_kernel_swap_stacks\n"
    ".hidden rtsc_kernel_swap_stacks\n"
    ".type rtsc_kernel_swap_stacks, @function\n"
    ".p2align 4\n"
    "rtsc_kernel_swap_stacks:\n"
    "    pushq %rbp\n"
    "    pushq %rbx\n"
    "    pushq %r12\n"
    "    pushq %r13\n"
    "    pushq %r14\n"
    "    pushq %r15\n"
    "    subq $16, %rsp\n"
    "    stmxcsr 8(%rsp)\n"
    "    fnstcw (%rsp)\n"
    "    movq %rsp, (%rdi)\n"
    "    movq %rsi, %rsp\n"
    "    fldcw (%rsp)\n"
    "    ldmxcsr 8(%rsp)\n"
    "    addq $16, %rsp\n"
    "    popq %r15\n"
    "    popq %r14\n"
    "    popq %r13\n"
    "    popq %r12\n"
    "    popq %rbx\n"
    "    popq %rbp\n"
    "    ret\n"
    ".size rtsc_kernel_swap_stacks, .-rtsc_kernel_swap_stacks\n"
    ".popsection\n");
#endif

namespace rtsc::kernel {

namespace {
thread_local Coroutine* g_current = nullptr;

/// Announce an upcoming switch to the stack [bottom, bottom+size); the
/// current context's fake stack is parked in *fake_save (nullptr destroys
/// it — only valid when this context never runs again).
void start_switch_fiber([[maybe_unused]] void** fake_save,
                        [[maybe_unused]] const void* bottom,
                        [[maybe_unused]] std::size_t size) {
#ifdef RTSC_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_save, bottom, size);
#endif
}

/// First call on the destination stack after a switch: restore this
/// context's fake stack and report where the switch came from.
void finish_switch_fiber([[maybe_unused]] void* fake_save,
                         [[maybe_unused]] const void** from_bottom,
                         [[maybe_unused]] std::size_t* from_size) {
#ifdef RTSC_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_save, from_bottom, from_size);
#endif
}

[[nodiscard]] void* tsan_this_fiber() {
#ifdef RTSC_TSAN_FIBERS
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

void tsan_switch_fiber([[maybe_unused]] void* fiber) {
#ifdef RTSC_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#endif
}

std::size_t page_size() {
    static const std::size_t sz = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return sz;
}

std::size_t round_up(std::size_t v, std::size_t align) {
    return (v + align - 1) / align * align;
}
} // namespace

Coroutine* Coroutine::current() noexcept { return g_current; }

Coroutine::Coroutine(Body body, std::size_t stack_bytes) : body_(std::move(body)) {
    const std::size_t pg = page_size();
    const std::size_t usable = round_up(stack_bytes < 4 * pg ? 4 * pg : stack_bytes, pg);
    const std::size_t map_bytes = usable + pg; // one guard page below the stack
    void* mem = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc{};
    if (::mprotect(mem, pg, PROT_NONE) != 0) {
        ::munmap(mem, map_bytes);
        throw std::bad_alloc{};
    }
    stack_ = static_cast<char*>(mem) + pg;
    stack_bytes_ = usable;
#ifdef RTSC_ASAN_FIBERS
    // The mapping may reuse a destroyed coroutine's addresses, whose shadow
    // still holds the redzones of frames that never returned.
    ASAN_UNPOISON_MEMORY_REGION(stack_, stack_bytes_);
#endif

#if defined(__x86_64__)
    // The first frame rtsc_kernel_swap_stacks pops: this thread's FP control
    // state, zeroed registers (rbp = 0 ends frame-pointer walks), then a ret
    // into trampoline() with rsp as a call leaves it (16-byte aligned + 8)
    // over a null return address, where unwinders stop.
    std::uint32_t mxcsr = 0;
    std::uint16_t fpu_cw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpu_cw));
    const std::uintptr_t frame[] = {
        fpu_cw, mxcsr,
        0, 0, 0, 0, 0, 0, // r15 r14 r13 r12 rbx rbp
        reinterpret_cast<std::uintptr_t>(&Coroutine::trampoline),
        0,
    };
    sp_ = static_cast<char*>(stack_) + usable - sizeof frame;
    std::memcpy(sp_, frame, sizeof frame);
#else
    ::getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_;
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = nullptr; // bodies always return through run_body -> yield
    ::makecontext(&ctx_, &Coroutine::trampoline, 0);
#endif

#ifdef RTSC_TSAN_FIBERS
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Coroutine::~Coroutine() {
#ifdef RTSC_TSAN_FIBERS
    if (tsan_fiber_) __tsan_destroy_fiber(tsan_fiber_);
#endif
    if (stack_)
        ::munmap(static_cast<char*>(stack_) - page_size(), stack_bytes_ + page_size());
}

void Coroutine::trampoline() {
    // resume() sets g_current before every switch in, the first one too.
    // run_body() never returns: it ends with the final switch out.
    g_current->run_body();
}

void Coroutine::switch_in() {
#if defined(__x86_64__)
    rtsc_kernel_swap_stacks(&return_sp_, sp_);
#else
    ::swapcontext(&return_ctx_, &ctx_);
#endif
}

void Coroutine::switch_out() {
#if defined(__x86_64__)
    rtsc_kernel_swap_stacks(&sp_, return_sp_);
#else
    ::swapcontext(&ctx_, &return_ctx_);
#endif
}

void Coroutine::run_body() {
    // First instruction on this fiber's stack: complete the switch that
    // resume() started and learn the resumer's stack for the way back.
    finish_switch_fiber(nullptr, &asan_return_stack_, &asan_return_stack_size_);
    try {
        body_();
    } catch (const ProcessKilled&) {
        // Simulator::kill_process unwound the body: a normal termination.
    } catch (...) {
        eptr_ = std::current_exception();
    }
    finished_ = true;
    // Final switch back to the scheduler; this coroutine never runs again,
    // so its fake stack is destroyed (nullptr) rather than parked.
    start_switch_fiber(nullptr, asan_return_stack_, asan_return_stack_size_);
    tsan_switch_fiber(tsan_caller_);
    switch_out();
}

void Coroutine::resume() {
    if (finished_)
        throw SimulationError("Coroutine::resume() on a finished coroutine");
    Coroutine* prev = g_current;
    g_current = this;
    started_ = true;
    void* caller_fake = nullptr;
    start_switch_fiber(&caller_fake, stack_, stack_bytes_);
    tsan_caller_ = tsan_this_fiber();
    tsan_switch_fiber(tsan_fiber_);
    switch_in();
    finish_switch_fiber(caller_fake, nullptr, nullptr);
    g_current = prev;
    if (eptr_) {
        auto e = std::exchange(eptr_, nullptr);
        std::rethrow_exception(e);
    }
}

void Coroutine::yield() {
    start_switch_fiber(&asan_fake_stack_, asan_return_stack_,
                       asan_return_stack_size_);
    tsan_switch_fiber(tsan_caller_);
    switch_out();
    // Re-entered: refresh the resumer's stack extents — a different context
    // (e.g. a task performing a kill) may have resumed us this time.
    finish_switch_fiber(asan_fake_stack_, &asan_return_stack_,
                        &asan_return_stack_size_);
}

} // namespace rtsc::kernel
