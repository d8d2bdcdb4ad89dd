#include "sim/fiber.hpp"

#include <cstdint>
#include <cstring>

#include "common/logging.hpp"
#include "sim/stack_pool.hpp"

// ThreadSanitizer has to be told about manual context switches, or it sees
// one host thread's shadow stack teleporting between fiber stacks and
// reports bogus races. Annotations are compiled in only under TSan; the
// normal build pays nothing.
#if defined(__SANITIZE_THREAD__)
#define NUCALOCK_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NUCALOCK_TSAN_FIBERS 1
#endif
#endif

#ifdef NUCALOCK_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// AddressSanitizer has to be told which stack the host thread runs on, or
// it takes every fiber stack for the host thread's: a noreturn call made
// on a fiber (a NUCA_PANIC in a simulated thread) then warns that it is
// "ignoring requested __asan_handle_no_return", and fake frames
// (detect_stack_use_after_return) are misattributed. Every switch starts
// with __sanitizer_start_switch_fiber(the stack it enters), and the code
// it lands in finishes it (asan_switched_in). NUCALOCK_ASAN_FIBERS is set
// in fiber.hpp, which holds the fields it needs.
#ifdef NUCALOCK_ASAN_FIBERS
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

#ifdef NUCALOCK_FIBER_FAST_SWITCH

/**
 * Save the SysV callee-saved GPRs on the current stack, park the stack
 * pointer in *save_sp, switch to restore_sp and pop the same registers.
 * The xmm registers are caller-saved, and nothing in the simulator changes
 * mxcsr/x87 control modes or the signal mask, so none of those are touched
 * — that omission (vs swapcontext) is the entire speedup.
 */
extern "C" void nucalock_fiber_swap(void** save_sp, void* restore_sp);

// clang-format off
asm(R"(
        .text
        .align  16
        .globl  nucalock_fiber_swap
        .hidden nucalock_fiber_swap
        .type   nucalock_fiber_swap, @function
nucalock_fiber_swap:
        endbr64
        pushq   %rbp
        pushq   %rbx
        pushq   %r12
        pushq   %r13
        pushq   %r14
        pushq   %r15
        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        popq    %r15
        popq    %r14
        popq    %r13
        popq    %r12
        popq    %rbx
        popq    %rbp
        ret
        .size   nucalock_fiber_swap, . - nucalock_fiber_swap

        /* First activation of a fiber "returns" here (the constructor
           plants this address as the return address on the fresh stack,
           and the Fiber* in the r12 slot). */
        .align  16
        .globl  nucalock_fiber_thunk
        .hidden nucalock_fiber_thunk
        .type   nucalock_fiber_thunk, @function
nucalock_fiber_thunk:
        endbr64
        movq    %r12, %rdi
        callq   nucalock_fiber_entry
        ud2
        .size   nucalock_fiber_thunk, . - nucalock_fiber_thunk
)");
// clang-format on

extern "C" void nucalock_fiber_thunk();

extern "C" void
nucalock_fiber_entry(void* fiber)
{
    static_cast<nucalock::sim::Fiber*>(fiber)->run();
    __builtin_trap(); // run() never returns on this path
}

#endif // NUCALOCK_FIBER_FAST_SWITCH

namespace nucalock::sim {

namespace {

/** Written near the low end of every stack; an overflow overwrites it. */
constexpr std::uint64_t kStackCanary = 0xfe11ba5eca11ab1eULL;

/**
 * Bytes above the canary that a fiber may not give up the host thread
 * within. A fiber that fails its stack check still switches back to its
 * resumer from there, and the reserve holds that switch's frames.
 */
constexpr std::size_t kStackReserve = 2 * 1024;

/**
 * A per-stack cache color of 0..63 lines, hashed from the base address.
 * Equal-size stacks carved side by side start at multiples of their size,
 * so anything at a fixed offset into every stack (the canary, the top
 * frames) lands in the same few L1/L2 sets for all fibers; at 1024 fibers
 * (big-topology runs) those sets thrash on every switch. The stack top
 * slides down by the color and the canary up by it. This changes host
 * addresses only; simulated results don't see it.
 */
std::size_t
stack_color(const char* stack)
{
    return static_cast<std::size_t>(
        ((reinterpret_cast<std::uintptr_t>(stack) *
          std::uintptr_t{0x9E3779B97F4A7C15ull}) >>
         58)
        << 6);
}

/**
 * Stack size of the fiber that failed its stack check on this host
 * thread, 0 while none has. That fiber hands the host thread back to its
 * resumer, and resume() panics on the resumer's stack: the overflowed one
 * has no room for NUCA_PANIC, which takes 10 KiB (fprintf to stderr
 * formats in an 8 KiB stack buffer).
 */
thread_local std::size_t t_overflowed_stack_bytes = 0;

[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void
stack_overflow_panic()
{
    NUCA_PANIC("fiber stack overflow: a fiber ran past the low end of its ",
               t_overflowed_stack_bytes,
               "-byte stack (SimConfig::fiber_stack_bytes)");
}

} // namespace

void
Fiber::check_stack()
{
    const char* canary = stack_ + canary_offset_;
    std::uint64_t word = 0;
    std::memcpy(&word, canary, sizeof word);
    const auto* frame = static_cast<const char*>(__builtin_frame_address(0));
    if (word != kStackCanary || frame < canary + kStackReserve) [[unlikely]]
        stack_overflow();
}

[[gnu::cold]] [[gnu::noinline]] void
Fiber::stack_overflow()
{
    t_overflowed_stack_bytes = stack_bytes_;
    switch_to_resumer();
}

Fiber::Fiber(Entry entry, std::size_t stack_bytes)
    : entry_(std::move(entry)), stack_(StackPool::acquire(stack_bytes)),
      stack_bytes_(stack_bytes),
      canary_offset_(static_cast<std::uint16_t>(stack_color(stack_)))
{
    NUCA_ASSERT(entry_ != nullptr);
    NUCA_ASSERT(stack_bytes >= 16 * 1024, "fiber stack too small");
    std::memcpy(stack_ + canary_offset_, &kStackCanary, sizeof kStackCanary);

#ifdef NUCALOCK_FIBER_FAST_SWITCH
    // Build the stack image nucalock_fiber_swap will "return" into: six
    // callee-saved register slots (r12 carries `this` to the thunk) below
    // the thunk's address. The return-address slot sits at B-8 for a
    // 16-aligned B, so the thunk starts with rsp % 16 == 0 — the state the
    // ABI prescribes immediately before a call instruction. The top is
    // slid down by the stack's cache color.
    std::uintptr_t top =
        ((reinterpret_cast<std::uintptr_t>(stack_) + stack_bytes) &
         ~std::uintptr_t{15}) -
        stack_color(stack_);
    auto* sp = reinterpret_cast<std::uint64_t*>(top);
    *--sp = reinterpret_cast<std::uint64_t>(&nucalock_fiber_thunk);
    *--sp = 0;                                      // rbp
    *--sp = 0;                                      // rbx
    *--sp = reinterpret_cast<std::uint64_t>(this);  // r12
    *--sp = 0;                                      // r13
    *--sp = 0;                                      // r14
    *--sp = 0;                                      // r15
    switch_sp_ = sp;
#else
    if (getcontext(&context_) != 0)
        NUCA_PANIC("getcontext failed");
    context_.uc_stack.ss_sp = stack_;
    context_.uc_stack.ss_size = stack_bytes;
    // run() never falls off the end: it switches to its (possibly
    // inherited) resumer itself, so there is no fixed uc_link to return to.
    context_.uc_link = nullptr;

    // makecontext only passes ints, so split `this` across two of them.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    const auto hi = static_cast<unsigned int>(self >> 32);
    const auto lo = static_cast<unsigned int>(self & 0xffffffffu);
    makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                hi, lo);
#endif

#ifdef NUCALOCK_TSAN_FIBERS
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
#ifdef NUCALOCK_TSAN_FIBERS
    if (tsan_fiber_ != nullptr)
        __tsan_destroy_fiber(tsan_fiber_);
#endif
    StackPool::release(stack_, stack_bytes_);
}

#ifndef NUCALOCK_FIBER_FAST_SWITCH
void
Fiber::trampoline(unsigned int hi, unsigned int lo)
{
    const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                      static_cast<std::uintptr_t>(lo);
    reinterpret_cast<Fiber*>(self)->run();
}
#endif

void
Fiber::run()
{
    asan_switched_in();
    entry_();
    check_stack();
    finished_ = true;
    inside_ = false;
#ifdef NUCALOCK_TSAN_FIBERS
    // The switch below bypasses yield(), so announce it here.
    __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#ifdef NUCALOCK_ASAN_FIBERS
    // Never switched back into: ASan frees this fiber's fake stack.
    __sanitizer_start_switch_fiber(nullptr, asan_caller_bottom_,
                                   asan_caller_size_);
#endif
    // Final switch back to the resumer, inherited if this fiber was entered
    // by switch_to(). The fiber is never entered again (resume() and
    // switch_to() reject finished fibers), so its saved state is write-only.
#ifdef NUCALOCK_FIBER_FAST_SWITCH
    nucalock_fiber_swap(&switch_sp_, caller_sp_);
#else
    setcontext(caller_);
    NUCA_PANIC("setcontext back to the resumer failed");
#endif
}

void
Fiber::resume()
{
    NUCA_ASSERT(!finished_, "resume of finished fiber");
    NUCA_ASSERT(!inside_, "recursive resume");
    inside_ = true;
#ifdef NUCALOCK_TSAN_FIBERS
    tsan_caller_ = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#ifdef NUCALOCK_ASAN_FIBERS
    // The fiber learns the resumer's stack as it finishes this switch.
    void* resumer_fake_stack = nullptr;
    asan_caller_bottom_ = nullptr;
    __sanitizer_start_switch_fiber(&resumer_fake_stack, stack_, stack_bytes_);
#endif
    // Control comes back here when this fiber, or any fiber it handed the
    // host thread to with switch_to(), yields or finishes. Whichever it is
    // cleared its own inside_ on the way out, so nothing after the switch
    // may touch this fiber's state.
#ifdef NUCALOCK_FIBER_FAST_SWITCH
    nucalock_fiber_swap(&caller_sp_, switch_sp_);
#else
    caller_ = &resumer_;
    if (swapcontext(&resumer_, &context_) != 0)
        NUCA_PANIC("swapcontext into fiber failed");
#endif
#ifdef NUCALOCK_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(resumer_fake_stack, nullptr, nullptr);
#endif
    if (t_overflowed_stack_bytes != 0) [[unlikely]]
        stack_overflow_panic();
}

void
Fiber::yield()
{
    NUCA_ASSERT(inside_, "yield outside of fiber");
    check_stack();
    switch_to_resumer();
}

void
Fiber::switch_to_resumer()
{
    inside_ = false;
#ifdef NUCALOCK_TSAN_FIBERS
    __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#ifdef NUCALOCK_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&asan_fake_stack_, asan_caller_bottom_,
                                   asan_caller_size_);
#endif
#ifdef NUCALOCK_FIBER_FAST_SWITCH
    nucalock_fiber_swap(&switch_sp_, caller_sp_);
#else
    if (swapcontext(&context_, caller_) != 0)
        NUCA_PANIC("swapcontext out of fiber failed");
#endif
    asan_switched_in();
}

void
Fiber::asan_switched_in()
{
#ifdef NUCALOCK_ASAN_FIBERS
    const void* from_bottom = nullptr;
    std::size_t from_size = 0;
    __sanitizer_finish_switch_fiber(asan_fake_stack_, &from_bottom, &from_size);
    // Entered by resume(): the stack left is the resumer's. A switch_to()
    // set the inherited resumer's already.
    if (asan_caller_bottom_ == nullptr) {
        asan_caller_bottom_ = from_bottom;
        asan_caller_size_ = from_size;
    }
#endif
}

void
Fiber::switch_to(Fiber& next)
{
    NUCA_ASSERT(inside_, "switch_to outside of fiber");
    NUCA_ASSERT(!next.finished_, "switch_to into finished fiber");
    NUCA_ASSERT(!next.inside_, "switch_to into running fiber");
    check_stack();
    inside_ = false;
    next.inside_ = true;
    // One stack switch instead of yield() + resume(): @p next takes over
    // this fiber's resumer (and TSan's view of it), so the chain unwinds to
    // the original resume() whichever fiber eventually yields or finishes.
#ifdef NUCALOCK_TSAN_FIBERS
    next.tsan_caller_ = tsan_caller_;
    __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
#ifdef NUCALOCK_ASAN_FIBERS
    next.asan_caller_bottom_ = asan_caller_bottom_;
    next.asan_caller_size_ = asan_caller_size_;
    __sanitizer_start_switch_fiber(&asan_fake_stack_, next.stack_,
                                   next.stack_bytes_);
#endif
#ifdef NUCALOCK_FIBER_FAST_SWITCH
    next.caller_sp_ = caller_sp_;
    nucalock_fiber_swap(&switch_sp_, next.switch_sp_);
#else
    next.caller_ = caller_;
    if (swapcontext(&context_, &next.context_) != 0)
        NUCA_PANIC("swapcontext between fibers failed");
#endif
    asan_switched_in();
}

} // namespace nucalock::sim
