/**
 * @file
 * Cooperative fibers for simulated threads.
 *
 * Each simulated thread runs its program on a fiber; blocking simulator
 * operations (memory accesses, delays) suspend it, so the same
 * straight-line lock code runs unmodified under simulation. A fiber either
 * yields back to its resumer or hands the host thread straight to another
 * fiber (switch_to), which is how the timed engine dispatches events
 * without a round trip through its scheduling loop.
 *
 * On x86-64 Linux the switch is ~20 instructions of hand-rolled register
 * save/restore (callee-saved GPRs + stack pointer). glibc's swapcontext
 * makes a rt_sigprocmask syscall in each direction to preserve the signal
 * mask; at half a million switches per benchmark run those syscalls were
 * ~30% of engine wall time. The simulator never changes the signal mask on
 * a fiber, so skipping it is safe. Other platforms keep the portable
 * ucontext path.
 *
 * Stacks have no guard page: the pool carves them side by side out of
 * huge-page slabs (sim/stack_pool.hpp), and an mprotect'ed page would split
 * the huge page. A fiber that ran past the low end of its stack would
 * silently overwrite the suspended frames of the fiber below it, so every
 * switch away from a fiber checks its stack instead: a canary word written
 * near the stack's low end must be intact, and the switching frame must
 * lie a small reserve above it. A fiber that fails the check hands the
 * host thread back to its resumer, whose resume() panics with "fiber
 * stack overflow"; no other fiber runs.
 */
#ifndef NUCALOCK_SIM_FIBER_HPP
#define NUCALOCK_SIM_FIBER_HPP

#include <cstddef>
#include <cstdint>
#include <functional>

#if defined(__x86_64__) && defined(__linux__)
#define NUCALOCK_FIBER_FAST_SWITCH 1
#else
#include <ucontext.h>
#endif

// Under AddressSanitizer every switch tells it the stack it enters
// (sim/fiber.cpp); the fields that takes are compiled in only there.
#if defined(__SANITIZE_ADDRESS__)
#define NUCALOCK_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NUCALOCK_ASAN_FIBERS 1
#endif
#endif

#ifdef NUCALOCK_FIBER_FAST_SWITCH
/** Assembly entry shim: recovers the Fiber* and enters Fiber::run(). */
extern "C" void nucalock_fiber_entry(void* fiber);
#endif

namespace nucalock::sim {

/**
 * A single cooperative fiber. Not thread-safe: resume(), yield() and
 * switch_to() must be called from one host thread (the simulator is
 * single-threaded by design — that is what makes runs deterministic).
 * Distinct fibers may live on distinct host threads (the Executor runs
 * whole machines per worker).
 */
class Fiber
{
  public:
    using Entry = std::function<void()>;

    /** Create a fiber that will run @p entry when first resumed. */
    explicit Fiber(Entry entry, std::size_t stack_bytes = kDefaultStackBytes);

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /** Returns the stack to the per-host-thread StackPool. */
    ~Fiber();

    /**
     * Switch into the fiber; returns when the fiber calls yield() or its
     * entry function returns — or when a fiber it handed over to with
     * switch_to() does. Must not be called on a finished fiber.
     */
    void resume();

    /** Called from inside the fiber: switch back to the resumer. */
    void yield();

    /**
     * Called from inside the fiber: suspend it and enter @p next directly,
     * without passing through the resumer. @p next inherits this fiber's
     * resumer, so its yield() (or its finish) returns to the resume() that
     * entered the chain. This fiber continues when something later resumes
     * or switches to it. @p next must be neither finished nor running.
     */
    void switch_to(Fiber& next);

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

    /**
     * Host stack pointer the fiber is suspended at (fast-switch builds;
     * nullptr elsewhere or while the fiber is running). The engine caches
     * this in its hot per-thread record right after each switch so that its
     * resume-path prefetches read one flat array instead of chasing
     * ThreadHot -> Fiber -> stack through two dependent cold misses.
     */
    const void* suspended_sp() const
    {
#ifdef NUCALOCK_FIBER_FAST_SWITCH
        return inside_ ? nullptr : switch_sp_;
#else
        return nullptr;
#endif
    }

    /** Stack size of a bare Fiber. The simulator gives its threads
     *  SimConfig::fiber_stack_bytes instead. */
    static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  private:
#ifdef NUCALOCK_FIBER_FAST_SWITCH
    friend void ::nucalock_fiber_entry(void* fiber);
#else
    static void trampoline(unsigned int hi, unsigned int lo);
#endif
    void run();
    /** yield() without the stack check. */
    void switch_to_resumer();
    /** Called as the fiber gives up the host thread: stack_overflow()
     *  unless the fiber is inside its stack and the canary is intact. */
    void check_stack();
    /** Switch to the resumer, whose resume() panics. */
    void stack_overflow();
    /** Finish ASan's switch into this fiber, on its stack (ASan only). */
    void asan_switched_in();

    Entry entry_;
    char* stack_ = nullptr; // from StackPool; released by the destructor
    std::size_t stack_bytes_ = 0;
#ifdef NUCALOCK_FIBER_FAST_SWITCH
    void* switch_sp_ = nullptr; // suspended fiber's stack pointer
    void* caller_sp_ = nullptr; // resumer's stack pointer while inside
#else
    ucontext_t context_{};
    ucontext_t resumer_{};         // saved by this fiber's resume()
    ucontext_t* caller_ = nullptr; // where yield() returns (maybe inherited)
#endif
    bool finished_ = false;
    bool inside_ = false;
    /** How far above stack_ the canary sits: the stack's cache color. It
     *  fills the flags' padding; a pointer member made the Fiber 96 bytes
     *  instead of 88, and the machine builds measurably slower. */
    std::uint16_t canary_offset_ = 0;
    void* tsan_fiber_ = nullptr;  // TSan's view of this fiber (TSan only)
    void* tsan_caller_ = nullptr; // TSan fiber to return to on yield
#ifdef NUCALOCK_ASAN_FIBERS
    void* asan_fake_stack_ = nullptr; // ASan's fake frames while suspended
    /** The stack yield() returns to (the resumer's, maybe inherited). */
    const void* asan_caller_bottom_ = nullptr;
    std::size_t asan_caller_size_ = 0;
#endif
};

} // namespace nucalock::sim

#endif // NUCALOCK_SIM_FIBER_HPP
