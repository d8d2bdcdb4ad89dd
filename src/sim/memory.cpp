#include "sim/memory.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"
#include "sim/trace.hpp"

namespace nucalock::sim {
namespace {

bool
is_atomic(MemOp op)
{
    return op == MemOp::Cas || op == MemOp::Swap || op == MemOp::Tas;
}

} // namespace

SimMemory::SimMemory(const Topology& topo, const LatencyModel& lat)
    : topo_(topo), lat_(lat), global_link_("global-link")
{
    NUCA_ASSERT(topo_.num_cpus() <= kMaxCpus, "simulator supports at most ",
                kMaxCpus, " cpus, topology has ", topo_.num_cpus());
    NUCA_ASSERT(topo_.num_nodes() <= kMaxNodes, "simulator supports at most ",
                kMaxNodes, " nodes, topology has ", topo_.num_nodes());
    node_buses_.reserve(static_cast<std::size_t>(topo_.num_nodes()));
    for (int n = 0; n < topo_.num_nodes(); ++n)
        node_buses_.emplace_back("node-bus-" + std::to_string(n));
    node_tx_.resize(static_cast<std::size_t>(topo_.num_nodes()));

    words_per_line_ = static_cast<std::uint32_t>(topo_.num_cpus() + 63) / 64;
    rec_.pre_sharers.resize(words_per_line_);
    rec_.post_sharers.resize(words_per_line_);

    // Dense cpu -> node/chip lookups: Topology answers these with binary
    // searches, which is fine for setup but not for the per-access path.
    cpu_node_.resize(static_cast<std::size_t>(topo_.num_cpus()));
    cpu_chip_.resize(static_cast<std::size_t>(topo_.num_cpus()));
    for (int c = 0; c < topo_.num_cpus(); ++c) {
        cpu_node_[static_cast<std::size_t>(c)] =
            static_cast<std::int16_t>(topo_.node_of_cpu(c));
        cpu_chip_[static_cast<std::size_t>(c)] =
            static_cast<std::int16_t>(topo_.chip_of_cpu(c));
    }

    // Each node's cpus are a contiguous bit range of the sharer bitset;
    // precompute the word span and edge masks so per-node holder checks
    // touch only that node's words.
    node_spans_.resize(static_cast<std::size_t>(topo_.num_nodes()));
    for (int n = 0; n < topo_.num_nodes(); ++n) {
        const int first = topo_.first_cpu_of_node(n);
        const int last = first + topo_.cpus_in_node(n) - 1;
        NodeSpan& span = node_spans_[static_cast<std::size_t>(n)];
        span.first_word = first >> 6;
        span.last_word = last >> 6;
        span.first_mask = ~std::uint64_t{0} << (first & 63);
        span.last_mask = ~std::uint64_t{0} >> (63 - (last & 63));
    }
}

MemRef
SimMemory::alloc(std::uint64_t init, int home_node)
{
    return alloc_array(1, init, home_node);
}

MemRef
SimMemory::alloc_array(std::uint32_t count, std::uint64_t init, int home_node)
{
    NUCA_ASSERT(count > 0);
    NUCA_ASSERT(home_node >= 0 && home_node < topo_.num_nodes(),
                "home_node=", home_node);
    const auto first = static_cast<std::uint32_t>(lines_.size());
    Line line;
    line.value = init;
    line.home_node = static_cast<std::int16_t>(home_node);
    for (std::uint32_t i = 0; i < count; ++i)
        lines_.push_back(line);
    sharer_words_.resize(lines_.size() * words_per_line_, 0);
    return MemRef{first};
}

SimMemory::Line&
SimMemory::line_of(MemRef ref)
{
    NUCA_ASSERT(ref.valid() && ref.line < lines_.size(), "bad MemRef ", ref.line);
    return lines_[ref.line];
}

const SimMemory::Line&
SimMemory::line_of(MemRef ref) const
{
    NUCA_ASSERT(ref.valid() && ref.line < lines_.size(), "bad MemRef ", ref.line);
    return lines_[ref.line];
}

Resource&
SimMemory::node_bus(int node)
{
    NUCA_ASSERT(node >= 0 && node < topo_.num_nodes());
    return node_buses_[static_cast<std::size_t>(node)];
}

const Resource&
SimMemory::node_bus(int node) const
{
    NUCA_ASSERT(node >= 0 && node < topo_.num_nodes());
    return node_buses_[static_cast<std::size_t>(node)];
}

void
SimMemory::set_tx_context(std::uint64_t lock_id, TxPhase phase)
{
    tx_phase_ = phase;
    if (lock_id != tx_lock_) {
        tx_lock_ = lock_id;
        tx_lock_row_ = lock_id == 0 ? kNoRow : lock_tx_.index_of(lock_id);
    }
}

void
SimMemory::count_tx(bool global, std::uint64_t TrafficStats::* kind)
{
    if (global)
        ++traffic_.global_tx;
    else
        ++traffic_.local_tx;
    ++(traffic_.*kind);

    TxCount& node_row = node_tx_[static_cast<std::size_t>(requester_node_)];
    if (global)
        ++node_row.global_tx;
    else
        ++node_row.local_tx;

    if (tx_lock_row_ != kNoRow) {
        TxCount& cell = lock_tx_.row(tx_lock_row_)
                            .by_phase[static_cast<std::size_t>(tx_phase_)];
        if (global)
            ++cell.global_tx;
        else
            ++cell.local_tx;
    }
}

TrafficAttribution
SimMemory::attribution() const
{
    TrafficAttribution a;
    a.per_lock = lock_tx_.rows();
    std::sort(a.per_lock.begin(), a.per_lock.end(),
              [](const LockTrafficStats& x, const LockTrafficStats& y) {
                  return x.lock_id < y.lock_id;
              });
    a.per_node = node_tx_;
    return a;
}

void
SimMemory::enable_contention_series(SimTime bin_ns)
{
    for (Resource& bus : node_buses_)
        bus.enable_series(bin_ns);
    global_link_.enable_series(bin_ns);
}

ContentionStats
SimMemory::contention(SimTime now) const
{
    ContentionStats c;
    c.sim_time_ns = now;
    c.series_bin_ns = global_link_.series_bin_ns();
    c.resources.reserve(node_buses_.size() + 1);
    for (int n = 0; n < topo_.num_nodes(); ++n)
        c.resources.push_back(node_buses_[static_cast<std::size_t>(n)].usage(n));
    c.resources.push_back(global_link_.usage(-1));
    return c;
}

SimTime
SimMemory::serve(Resource& r, SimTime arrival, SimTime occupancy)
{
    const SimTime end = r.serve(arrival, occupancy);
    if (rec_.active && rec_.idle) {
        if (end == arrival + occupancy &&
            rec_.num_serves < LineRecord::kMaxServes)
            rec_.serves[rec_.num_serves++] = {&r, arrival, occupancy};
        else
            rec_.idle = false;
    }
    return end;
}

SimTime
SimMemory::route(SimTime t, int from_node, int to_node)
{
    t = serve(node_bus(from_node), t, lat_.node_bus_occupancy);
    if (from_node != to_node) {
        // A fault-injected link spike lengthens the service time, so the
        // spike also queues every later transaction behind it (congestion).
        const SimTime extra = link_hook_ ? link_hook_(t) : 0;
        t = serve(global_link_, t, lat_.global_link_occupancy + extra);
        t = serve(node_bus(to_node), t, lat_.node_bus_occupancy);
    }
    return t;
}

SimTime
SimMemory::fetch(const Line& line, int cpu, SimTime t,
                 std::uint64_t TrafficStats::* kind)
{
    const int rnode = cpu_node_[static_cast<std::size_t>(cpu)];
    SimTime wire = 0;
    int source_node = 0;
    if (line.owner_cpu >= 0) {
        // Cache-to-cache transfer from the current owner.
        const int onode = cpu_node_[static_cast<std::size_t>(line.owner_cpu)];
        source_node = onode;
        if (onode != rnode) {
            wire = lat_.remote_c2c;
        } else if (cpu_chip_[static_cast<std::size_t>(line.owner_cpu)] ==
                       cpu_chip_[static_cast<std::size_t>(cpu)] &&
                   !topo_.flat_chips()) {
            wire = lat_.same_chip_c2c;
        } else {
            wire = lat_.same_node_c2c;
        }
    } else {
        // Fetch from the home node's memory.
        source_node = line.home_node;
        wire = source_node == rnode ? lat_.local_mem : lat_.remote_mem;
    }
    count_tx(source_node != rnode, kind);
    t = route(t, rnode, source_node);
    return t + wire;
}

bool
SimMemory::node_has_sharer_other_than(const std::uint64_t* sw, int node,
                                      int cpu) const
{
    const NodeSpan& span = node_spans_[static_cast<std::size_t>(node)];
    const auto self_word = static_cast<std::int32_t>(cpu >> 6);
    const std::uint64_t self_bit = std::uint64_t{1} << (cpu & 63);
    for (std::int32_t w = span.first_word; w <= span.last_word; ++w) {
        std::uint64_t word = sw[w];
        if (w == span.first_word)
            word &= span.first_mask;
        if (w == span.last_word)
            word &= span.last_mask;
        if (w == self_word)
            word &= ~self_bit;
        if (word != 0)
            return true;
    }
    return false;
}

SimTime
SimMemory::invalidate_others(Line& line, const std::uint64_t* sw, int cpu,
                             SimTime t)
{
    const int rnode = cpu_node_[static_cast<std::size_t>(cpu)];

    // Nodes that might hold a copy: the per-line summary plus (defensively)
    // the owner's node. Bits are visited in ascending node order, matching
    // the full node scan this replaces, so transaction counts and the
    // farthest-acknowledgement time are bit-identical.
    std::uint64_t candidates = line.sharer_nodes;
    if (line.owner_cpu >= 0) {
        candidates |= std::uint64_t{1}
                      << cpu_node_[static_cast<std::size_t>(line.owner_cpu)];
    }

    // One invalidation transaction per node holding a copy; the requester
    // waits for the farthest acknowledgement, the buses see each one.
    SimTime done = t;
    while (candidates != 0) {
        const int n = std::countr_zero(candidates);
        candidates &= candidates - 1;
        const bool holds =
            node_has_sharer_other_than(sw, n, cpu) ||
            (line.owner_cpu >= 0 && line.owner_cpu != cpu &&
             cpu_node_[static_cast<std::size_t>(line.owner_cpu)] == n);
        if (!holds)
            continue;
        const bool global = n != rnode;
        count_tx(global, &TrafficStats::invalidation_tx);
        const SimTime arrive = route(t, rnode, n);
        done = std::max(done, arrive + (global ? lat_.inval_remote : lat_.inval_local));
    }
    return done;
}

AccessOutcome
SimMemory::access(MemOp op, int cpu, SimTime now, MemRef ref, std::uint64_t a,
                  std::uint64_t b)
{
    NUCA_ASSERT(cpu >= 0 && cpu < topo_.num_cpus(), "cpu=", cpu);
    Line& line = line_of(ref);
    std::uint64_t* const sw = sharers_of(ref.line);
    ++accesses_;
    requester_node_ = cpu_node_[static_cast<std::size_t>(cpu)];

    const auto self_word = static_cast<std::uint32_t>(cpu >> 6);
    const std::uint64_t self_bit = std::uint64_t{1} << (cpu & 63);
    const bool holds_copy =
        line.owner_cpu == cpu || (sw[self_word] & self_bit) != 0;

    AccessOutcome out;
    out.old_value = line.value;
    SimTime t = now + lat_.issue;

    if (op == MemOp::Load) {
        if (!holds_copy) {
            t = fetch(line, cpu, t, &TrafficStats::data_fetch_tx);
            sw[self_word] |= self_bit;
            line.sharer_nodes |= std::uint64_t{1} << requester_node_;
        } else {
            t += lat_.cache_hit;
        }
        out.complete = t;
        if (trace_hook_) {
            trace_hook_(TraceEvent{now, out.complete, cpu, op, ref.line,
                                   out.old_value, line.value});
        }
        return out;
    }

    // Writes and atomics need the line exclusively. The ownership-acquiring
    // transaction (data fetch or shared-copy upgrade) is kinded atomic_tx
    // when the op is an atomic read-modify-write, so the by-cause breakdown
    // partitions the local/global totals exactly.
    std::uint64_t TrafficStats::* const own_kind =
        is_atomic(op) ? &TrafficStats::atomic_tx : &TrafficStats::data_fetch_tx;
    // "No sharer besides self" via the exact node summary: another node's
    // bit set means a foreign sharer exists; otherwise only this node's
    // span (a word or two) needs scanning — O(1) regardless of machine
    // size, where a raw bitset scan would touch words_per_line_ words on
    // every repeat write.
    const std::uint64_t self_node_bit = std::uint64_t{1} << requester_node_;
    const bool exclusive_already =
        line.owner_cpu == cpu &&
        (line.sharer_nodes & ~self_node_bit) == 0 &&
        !node_has_sharer_other_than(sw, requester_node_, cpu);
    if (exclusive_already) {
        t += is_atomic(op) ? lat_.own_atomic : lat_.own_store;
    } else {
        if (!holds_copy)
            t = fetch(line, cpu, t, own_kind);
        t = invalidate_others(line, sw, cpu, t);
        if (holds_copy && line.owner_cpu != cpu) {
            // Upgrade of a shared copy: ownership request, no data moved.
            count_tx(line.owner_cpu >= 0 &&
                         cpu_node_[static_cast<std::size_t>(line.owner_cpu)] !=
                             requester_node_,
                     own_kind);
        }
        line.owner_cpu = static_cast<std::int16_t>(cpu);
        // Clear only the spans of nodes that actually hold sharer bits
        // (every set bit's node is in sharer_nodes, which is exact), not
        // the whole multi-word bitset.
        std::uint64_t clear_nodes = line.sharer_nodes;
        while (clear_nodes != 0) {
            const int n = std::countr_zero(clear_nodes);
            clear_nodes &= clear_nodes - 1;
            const NodeSpan& span = node_spans_[static_cast<std::size_t>(n)];
            for (std::int32_t w = span.first_word; w <= span.last_word; ++w)
                sw[w] = 0;
        }
        sw[self_word] = self_bit;
        line.sharer_nodes = self_node_bit;
    }

    switch (op) {
      case MemOp::Store:
        line.value = a;
        break;
      case MemOp::Swap:
        line.value = a;
        break;
      case MemOp::Tas:
        line.value = 1;
        break;
      case MemOp::Cas:
        if (line.value == a)
            line.value = b;
        break;
      case MemOp::Load:
        NUCA_PANIC("unreachable");
    }

    // Any write/atomic by this cpu invalidated every other spinner's copy;
    // they must be woken to re-fetch (models the refill burst).
    out.wakes_watchers = line.watcher_head != -1;
    out.complete = t;
    if (trace_hook_) {
        trace_hook_(TraceEvent{now, out.complete, cpu, op, ref.line,
                               out.old_value, line.value});
    }
    return out;
}

bool
SimMemory::begin_line(MemRef ref)
{
    const Line& line = line_of(ref);
    if (line.watcher_head != -1)
        return false;
    rec_.active = true;
    rec_.idle = true;
    rec_.pre = line;
    const std::uint64_t* sw = sharers_of(ref.line);
    std::copy(sw, sw + words_per_line_, rec_.pre_sharers.begin());
    rec_.traffic = traffic_;
    rec_.accesses = accesses_;
    rec_.num_serves = 0;
    return true;
}

bool
SimMemory::end_line(MemRef ref)
{
    NUCA_ASSERT(rec_.active, "end_line without a line record");
    rec_.active = false;
    if (!rec_.idle)
        return false;
    rec_.post = line_of(ref);
    const std::uint64_t* sw = sharers_of(ref.line);
    std::copy(sw, sw + words_per_line_, rec_.post_sharers.begin());
    rec_.traffic = traffic_ - rec_.traffic;
    rec_.accesses = accesses_ - rec_.accesses;
    return true;
}

bool
SimMemory::matches_line(MemRef ref) const
{
    // All of the state but the value, and the watcher tail, which is -1
    // exactly when the head is.
    const Line& line = line_of(ref);
    const Line& pre = rec_.pre;
    const std::uint64_t* sw = sharers_of(ref.line);
    return line.sharer_nodes == pre.sharer_nodes &&
           line.watcher_head == pre.watcher_head &&
           line.owner_cpu == pre.owner_cpu &&
           line.home_node == pre.home_node && line.is_gate == pre.is_gate &&
           std::equal(sw, sw + words_per_line_, rec_.pre_sharers.begin());
}

void
SimMemory::replay_lines(MemRef first, std::uint32_t n, bool write,
                        SimTime period)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        const MemRef ref = first.at(i);
        Line& line = line_of(ref);
        line.owner_cpu = rec_.post.owner_cpu;
        line.sharer_nodes = rec_.post.sharer_nodes;
        if (write)
            ++line.value;
        std::copy(rec_.post_sharers.begin(), rec_.post_sharers.end(),
                  sharers_of(ref.line));
    }
    // Every line counts the recorded transactions, from the walker's node
    // in the walk's op context: both are still those of the recorded line.
    const TrafficStats& d = rec_.traffic;
    traffic_.local_tx += n * d.local_tx;
    traffic_.global_tx += n * d.global_tx;
    traffic_.data_fetch_tx += n * d.data_fetch_tx;
    traffic_.invalidation_tx += n * d.invalidation_tx;
    traffic_.atomic_tx += n * d.atomic_tx;
    const TxCount tx{n * d.local_tx, n * d.global_tx};
    node_tx_[static_cast<std::size_t>(requester_node_)] += tx;
    if (tx_lock_row_ != kNoRow)
        lock_tx_.row(tx_lock_row_).by_phase[static_cast<std::size_t>(tx_phase_)] +=
            tx;
    for (std::size_t s = 0; s < rec_.num_serves; ++s) {
        const LineRecord::Serve& serve = rec_.serves[s];
        serve.resource->serve_idle(n, serve.arrival + n * period,
                                   serve.occupancy);
    }
    accesses_ += n * rec_.accesses;
}

std::uint64_t
SimMemory::peek(MemRef ref) const
{
    return line_of(ref).value;
}

void
SimMemory::poke(MemRef ref, std::uint64_t value)
{
    line_of(ref).value = value;
}

bool
SimMemory::watch(MemRef ref, int tid, std::uint64_t watched)
{
    Line& line = line_of(ref);
    if (line.value != watched)
        return false;
    NUCA_ASSERT(tid >= 0, "tid=", tid);
    if (static_cast<std::size_t>(tid) >= watcher_next_.size()) {
        watcher_next_.resize(static_cast<std::size_t>(tid) + 1, -1);
        watcher_line_.resize(static_cast<std::size_t>(tid) + 1,
                             MemRef::kInvalid);
    }
    NUCA_ASSERT(watcher_line_[static_cast<std::size_t>(tid)] ==
                    MemRef::kInvalid,
                "thread ", tid, " already watching line ",
                watcher_line_[static_cast<std::size_t>(tid)]);
    // FIFO append onto the line's intrusive list: wake order matches the
    // old vector's push_back order exactly.
    watcher_next_[static_cast<std::size_t>(tid)] = -1;
    watcher_line_[static_cast<std::size_t>(tid)] = ref.line;
    if (line.watcher_head == -1)
        line.watcher_head = tid;
    else
        watcher_next_[static_cast<std::size_t>(line.watcher_tail)] = tid;
    line.watcher_tail = tid;
    return true;
}

void
SimMemory::take_watchers(MemRef ref, std::vector<int>& out)
{
    Line& line = line_of(ref);
    out.clear();
    for (std::int32_t tid = line.watcher_head; tid != -1;) {
        out.push_back(tid);
        watcher_line_[static_cast<std::size_t>(tid)] = MemRef::kInvalid;
        const std::int32_t next = watcher_next_[static_cast<std::size_t>(tid)];
        watcher_next_[static_cast<std::size_t>(tid)] = -1;
        tid = next;
    }
    line.watcher_head = -1;
    line.watcher_tail = -1;
}

void
SimMemory::unwatch(MemRef ref, int tid)
{
    Line& line = line_of(ref);
    NUCA_ASSERT(tid >= 0 &&
                    static_cast<std::size_t>(tid) < watcher_line_.size() &&
                    watcher_line_[static_cast<std::size_t>(tid)] == ref.line,
                "thread ", tid, " does not watch line ", ref.line);
    std::int32_t prev = -1;
    for (std::int32_t w = line.watcher_head; w != tid;
         w = watcher_next_[static_cast<std::size_t>(w)])
        prev = w;
    const std::int32_t next = watcher_next_[static_cast<std::size_t>(tid)];
    if (prev == -1)
        line.watcher_head = next;
    else
        watcher_next_[static_cast<std::size_t>(prev)] = next;
    if (line.watcher_tail == tid)
        line.watcher_tail = prev;
    watcher_next_[static_cast<std::size_t>(tid)] = -1;
    watcher_line_[static_cast<std::size_t>(tid)] = MemRef::kInvalid;
}

void
SimMemory::mark_node_gate(MemRef ref)
{
    line_of(ref).is_gate = true;
}

int
SimMemory::home_node(MemRef ref) const
{
    return line_of(ref).home_node;
}

int
SimMemory::owner_cpu(MemRef ref) const
{
    return line_of(ref).owner_cpu;
}

bool
SimMemory::caches(MemRef ref, int cpu) const
{
    const Line& line = line_of(ref);
    if (line.owner_cpu == cpu)
        return true;
    const std::uint64_t* sw = sharers_of(ref.line);
    return (sw[static_cast<std::uint32_t>(cpu >> 6)] &
            (std::uint64_t{1} << (cpu & 63))) != 0;
}

} // namespace nucalock::sim
