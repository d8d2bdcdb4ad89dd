#include "native/machine.hpp"

#include <chrono>
#include <thread>

#include "common/logging.hpp"
#include "topology/affinity.hpp"

namespace nucalock::native {

int
NativeContext::num_nodes() const
{
    return machine_->topology().num_nodes();
}

std::uint64_t
NativeContext::spin_while_equal(Ref ref, std::uint64_t value)
{
    std::uint32_t polls = 0;
    while (true) {
        const std::uint64_t observed = ref.word->load(std::memory_order_acquire);
        if (observed != value)
            return observed;
        cpu_relax();
        if (++polls >= yield_every_) {
            polls = 0;
            std::this_thread::yield();
        }
    }
}

void
NativeContext::delay_ns(std::uint64_t ns)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < deadline)
        cpu_relax();
}

void
NativeContext::touch_array(Ref first, std::uint32_t count, bool write)
{
    for (std::uint32_t i = 0; i < count; ++i) {
        const Ref ref = first.at(i);
        const std::uint64_t v = ref.word->load(std::memory_order_acquire);
        if (write)
            ref.word->store(v + 1, std::memory_order_release);
    }
}

NativeMachine::NativeMachine(Topology topo, NativeConfig cfg)
    : topo_(std::move(topo)), cfg_(std::move(cfg)),
      node_gates_(static_cast<std::size_t>(topo_.num_nodes()))
{
    if (cfg_.pin)
        NUCA_ASSERT(static_cast<int>(cfg_.os_cpu_of.size()) >= topo_.num_cpus(),
                    "pinning requested but os_cpu_of has ",
                    cfg_.os_cpu_of.size(), " entries for ", topo_.num_cpus(),
                    " cpus");
    NUCA_ASSERT(cfg_.yield_every > 0);
}

NativeRef
NativeMachine::alloc(std::uint64_t init, int home_node)
{
    return alloc_array(1, init, home_node);
}

NativeRef
NativeMachine::alloc_array(std::uint32_t count, std::uint64_t init, int home_node)
{
    NUCA_ASSERT(count > 0);
    NUCA_ASSERT(home_node >= 0 && home_node < topo_.num_nodes());
    const std::lock_guard<std::mutex> guard(alloc_mutex_);
    return new_chunk_locked(count, init);
}

NativeRef
NativeMachine::node_gate(int node)
{
    NUCA_ASSERT(node >= 0 && node < topo_.num_nodes());
    const std::lock_guard<std::mutex> guard(alloc_mutex_);
    auto& gate = node_gates_[static_cast<std::size_t>(node)];
    if (!gate.valid())
        gate = new_chunk_locked(1, 0);
    return gate;
}

NativeRef
NativeMachine::new_chunk_locked(std::uint32_t count, std::uint64_t init)
{
    // Over-allocate so the first word can be rounded up to a line boundary.
    const std::uint32_t total = count * kWordsPerLine + kWordsPerLine;
    Chunk chunk(new std::atomic<std::uint64_t>[total]);
    auto addr = reinterpret_cast<std::uintptr_t>(chunk.get());
    const std::uintptr_t aligned =
        (addr + kCacheLineBytes - 1) & ~static_cast<std::uintptr_t>(kCacheLineBytes - 1);
    auto* first = reinterpret_cast<std::atomic<std::uint64_t>*>(aligned);
    for (std::uint32_t i = 0; i < count; ++i)
        first[i * kWordsPerLine].store(init, std::memory_order_relaxed);
    chunks_.push_back(std::move(chunk));
    return NativeRef{first};
}

NativeContext
NativeMachine::make_context(int tid, int cpu)
{
    NUCA_ASSERT(tid >= 0 && tid < max_threads(), "tid=", tid);
    NUCA_ASSERT(cpu >= 0 && cpu < topo_.num_cpus(), "cpu=", cpu);
    NativeContext ctx;
    ctx.machine_ = this;
    ctx.tid_ = tid;
    ctx.cpu_ = cpu;
    ctx.node_ = topo_.node_of_cpu(cpu);
    ctx.chip_ = topo_.chip_of_cpu(cpu);
    ctx.yield_every_ = cfg_.yield_every;
    ctx.probe_ = probe_;
    ctx.phase_ = phase_hooks_ != nullptr ? phase_hooks_->bind_thread(tid, cpu)
                                         : nullptr;
    ctx.rng_ = Xoshiro256(cfg_.seed * std::uint64_t{0x9e3779b97f4a7c15} +
                          static_cast<std::uint64_t>(tid));
    return ctx;
}

void
NativeMachine::run_threads(int count, Placement policy,
                           const std::function<void(NativeContext&, int)>& body)
{
    const std::vector<int> cpus = map_threads(topo_, count, policy);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const int cpu = cpus[static_cast<std::size_t>(i)];
        threads.emplace_back([this, body, i, cpu] {
            if (cfg_.pin)
                pin_current_thread(cfg_.os_cpu_of[static_cast<std::size_t>(cpu)]);
            NativeContext ctx = make_context(i, cpu);
            body(ctx, i);
        });
    }
    for (auto& t : threads)
        t.join();
}

} // namespace nucalock::native
