#pragma once
// Stackful cooperative coroutines.
//
// The discrete-event kernel runs every simulation process on its own stack
// and switches between them cooperatively — exactly one coroutine (or the
// scheduler) executes at any moment, which is the same execution model as the
// OSCI SystemC reference simulator. Stacks are mmap-allocated with a guard
// page below the stack so an overflow faults instead of corrupting a
// neighbouring coroutine.
//
// On x86-64 a switch is a register-only stack swap: push the callee-saved
// registers, MXCSR and the x87 control word, exchange rsp, pop. That is
// more than ten times cheaper than glibc swapcontext, which also saves and
// restores the signal mask with a sigprocmask syscall on every call. Other
// architectures switch with POSIX ucontext.

#include <cstddef>
#include <exception>
#include <functional>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace rtsc::kernel {

class Coroutine {
public:
    using Body = std::function<void()>;

    static constexpr std::size_t default_stack_bytes = 128 * 1024;

    /// The body starts executing on the first resume().
    explicit Coroutine(Body body, std::size_t stack_bytes = default_stack_bytes);

    Coroutine(const Coroutine&) = delete;
    Coroutine& operator=(const Coroutine&) = delete;

    /// Destroying a suspended (unfinished) coroutine simply releases its
    /// stack; the body's local objects are NOT unwound. The kernel only
    /// destroys coroutines after simulation ends, mirroring SystemC.
    ~Coroutine();

    /// Switch from the caller into the coroutine. Returns when the coroutine
    /// yields or finishes. If the body exited with an exception, resume()
    /// rethrows it in the caller.
    void resume();

    /// Called from inside the coroutine body: suspend and return control to
    /// the most recent resume() caller.
    void yield();

    [[nodiscard]] bool finished() const noexcept { return finished_; }
    [[nodiscard]] bool started() const noexcept { return started_; }

    /// The coroutine currently executing on this thread, or nullptr when the
    /// scheduler (plain stack) is running.
    [[nodiscard]] static Coroutine* current() noexcept;

private:
    static void trampoline();
    void run_body();
    void switch_in();  // resumer -> coroutine
    void switch_out(); // coroutine -> resumer

    Body body_;
    void* stack_ = nullptr;        // usable stack; the guard page sits just below
    std::size_t stack_bytes_ = 0;
#if defined(__x86_64__)
    void* sp_ = nullptr;           // the coroutine's rsp while suspended
    void* return_sp_ = nullptr;    // the resumer's rsp while the coroutine runs
#else
    ucontext_t ctx_{};
    ucontext_t return_ctx_{};
#endif
    bool started_ = false;
    bool finished_ = false;
    std::exception_ptr eptr_;
    // AddressSanitizer fiber-switch bookkeeping (unused in plain builds):
    // the fiber's saved fake-stack while suspended, and the resumer's stack
    // extents captured on each entry so yield() can announce the switch back.
    void* asan_fake_stack_ = nullptr;
    const void* asan_return_stack_ = nullptr;
    std::size_t asan_return_stack_size_ = 0;
    // ThreadSanitizer fiber handles (unused in plain builds): this fiber and
    // the fiber that most recently resumed it.
    void* tsan_fiber_ = nullptr;
    void* tsan_caller_ = nullptr;
};

} // namespace rtsc::kernel
