#include "sim/engine.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"

namespace nucalock::sim {

static_assert(ReadyQueue::kMaxThreads >=
                  static_cast<std::size_t>(SimMemory::kMaxCpus),
              "every simulated cpu's thread needs a ready-queue tid");

namespace {

SchedOp
sched_op_of(MemOp op)
{
    switch (op) {
      case MemOp::Load: return SchedOp::Load;
      case MemOp::Store: return SchedOp::Store;
      case MemOp::Cas: return SchedOp::Cas;
      case MemOp::Swap: return SchedOp::Swap;
      case MemOp::Tas: return SchedOp::Tas;
    }
    return SchedOp::Load;
}

} // namespace

// ---------------------------------------------------------------------------
// SimContext
// ---------------------------------------------------------------------------

int
SimContext::num_nodes() const
{
    return machine_->topology().num_nodes();
}

SimTime
SimContext::now() const
{
    return machine_->now();
}

std::uint64_t
SimContext::peek(Ref ref) const
{
    return machine_->memory().peek(ref);
}

obs::ProbeSink*
SimContext::probe_sink() const
{
    return machine_->probe();
}

std::uint64_t
SimContext::load(Ref ref)
{
    return machine_->do_access(*this, MemOp::Load, ref, 0, 0).old_value;
}

void
SimContext::store(Ref ref, std::uint64_t value)
{
    machine_->do_access(*this, MemOp::Store, ref, value, 0);
}

std::uint64_t
SimContext::cas(Ref ref, std::uint64_t expected, std::uint64_t desired)
{
    return machine_->do_access(*this, MemOp::Cas, ref, expected, desired).old_value;
}

std::uint64_t
SimContext::swap(Ref ref, std::uint64_t value)
{
    return machine_->do_access(*this, MemOp::Swap, ref, value, 0).old_value;
}

std::uint64_t
SimContext::tas(Ref ref)
{
    return machine_->do_access(*this, MemOp::Tas, ref, 0, 0).old_value;
}

std::uint64_t
SimContext::spin_while_equal(Ref ref, std::uint64_t value)
{
    while (true) {
        const std::uint64_t observed = load(ref);
        if (observed != value)
            return observed;
        machine_->wait_on(*this, ref, value);
    }
}

void
SimContext::delay(std::uint64_t iterations)
{
    delay_ns(iterations * machine_->latency().ns_per_delay_iteration);
}

void
SimContext::delay_ns(SimTime ns)
{
    machine_->block_until(*this, machine_->now() + ns);
}

SimContext::PollOutcome
SimContext::lazy_backoff_poll(Ref word, std::uint64_t held, std::uint32_t* b,
                              std::uint32_t factor, std::uint32_t cap,
                              bool jitter, std::uint64_t max_polls,
                              std::uint64_t deadline)
{
    return machine_->lazy_poll(*this, word, held, b, factor, cap, jitter,
                               max_polls, deadline);
}

void
SimContext::touch_array(Ref first, std::uint32_t count, bool write)
{
    machine_->walk(*this, first, count, write);
}

void
SimContext::cs_wait_begin()
{
    if (machine_->scheduler_ != nullptr)
        machine_->decision_point(*this, PendingOp{SchedOp::CsWaitBegin,
                                                  MemRef::kInvalid});
    if (machine_->checker_ != nullptr)
        machine_->checker_->on_wait_begin(tid_, node_, machine_->now_);
}

void
SimContext::cs_wait_abort()
{
    if (machine_->scheduler_ != nullptr)
        machine_->decision_point(*this, PendingOp{SchedOp::CsWaitAbort,
                                                  MemRef::kInvalid});
    if (machine_->checker_ != nullptr)
        machine_->checker_->on_wait_abort(tid_, node_, machine_->now_);
}

void
SimContext::cs_enter()
{
    if (machine_->scheduler_ != nullptr)
        machine_->decision_point(*this, PendingOp{SchedOp::CsEnter,
                                                  MemRef::kInvalid});
    if (machine_->checker_ != nullptr)
        machine_->checker_->on_enter(tid_, node_, machine_->now_);
    if (machine_->injector_ != nullptr) {
        const SimTime p = machine_->injector_->on_cs_enter(tid_, machine_->now_);
        if (p != 0)
            machine_->block_until(*this, machine_->now_ + p);
    }
}

void
SimContext::cs_exit()
{
    if (machine_->scheduler_ != nullptr)
        machine_->decision_point(*this, PendingOp{SchedOp::CsExit,
                                                  MemRef::kInvalid});
    if (machine_->checker_ != nullptr)
        machine_->checker_->on_exit(tid_, node_, machine_->now_);
}

// ---------------------------------------------------------------------------
// SimMachine
// ---------------------------------------------------------------------------

SimMachine::SimMachine(Topology topo, LatencyModel lat, SimConfig cfg)
    : topo_(std::move(topo)), lat_(lat), cfg_(cfg), memory_(topo_, lat_),
      node_gates_(static_cast<std::size_t>(topo_.num_nodes())),
      cpu_used_(static_cast<std::size_t>(topo_.num_cpus()), false)
{
    NUCA_ASSERT(cfg_.max_sim_time < ReadyQueue::kMaxWake, "max_sim_time ",
                cfg_.max_sim_time, " ns is beyond the ready queue's keys (< ",
                ReadyQueue::kMaxWake, " ns)");
}

SimMachine::~SimMachine() = default;

MemRef
SimMachine::alloc(std::uint64_t init, int home_node)
{
    return memory_.alloc(init, home_node);
}

MemRef
SimMachine::alloc_array(std::uint32_t count, std::uint64_t init, int home_node)
{
    return memory_.alloc_array(count, init, home_node);
}

MemRef
SimMachine::node_gate(int node)
{
    NUCA_ASSERT(node >= 0 && node < topo_.num_nodes(), "node=", node);
    auto& gate = node_gates_[static_cast<std::size_t>(node)];
    if (!gate.valid()) {
        gate = memory_.alloc(kGateDummy, node);
        memory_.mark_node_gate(gate);
    }
    return gate;
}

SimMachine::SimThread::SimThread(SimMachine& machine,
                                 std::function<void(SimContext&)> b,
                                 std::size_t stack_bytes)
    : body(std::move(b)),
      fiber(
          [&machine, this] {
              machine.note_switched_in(); // first entry may be a direct switch
              body(ctx);
          },
          stack_bytes)
{
}

int
SimMachine::add_thread(int cpu, std::function<void(SimContext&)> body)
{
    NUCA_ASSERT(!running_ && !ran_, "add_thread after run()");
    NUCA_ASSERT(cpu >= 0 && cpu < topo_.num_cpus(), "cpu=", cpu);
    NUCA_ASSERT(!cpu_used_[static_cast<std::size_t>(cpu)],
                "cpu ", cpu, " already has a thread");
    cpu_used_[static_cast<std::size_t>(cpu)] = true;

    const int tid = static_cast<int>(threads_.size());
    SimThread& thr =
        threads_.emplace_back(*this, std::move(body), cfg_.fiber_stack_bytes);
    thr.tid = tid;
    thr.cpu = cpu;
    thr.ctx.machine_ = this;
    thr.ctx.tid_ = tid;
    thr.ctx.cpu_ = cpu;
    thr.ctx.node_ = topo_.node_of_cpu(cpu);
    thr.ctx.chip_ = topo_.chip_of_cpu(cpu);
    thr.ctx.rng_ = Xoshiro256(cfg_.seed * std::uint64_t{0x9e3779b97f4a7c15} +
                              static_cast<std::uint64_t>(tid));

    if (cfg_.preemption) {
        // First preemption point, exponentially distributed.
        const double u = thr.ctx.rng_.next_double();
        thr.next_preempt = static_cast<SimTime>(
            -std::log(1.0 - u) * static_cast<double>(cfg_.preempt_mean_interval));
    }

    ThreadHot hot;
    hot.fiber = &thr.fiber;
    hot_.push_back(hot);
    return tid;
}

void
SimMachine::add_threads(int count, Placement policy,
                        std::function<void(SimContext&, int)> body)
{
    const std::vector<int> cpus = map_threads(topo_, count, policy);
    const auto* shared = &shared_bodies_.emplace_front(std::move(body));
    hot_.reserve(hot_.size() + static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        add_thread(cpus[static_cast<std::size_t>(i)],
                   [shared, i](SimContext& ctx) { (*shared)(ctx, i); });
    }
}

SimMachine::SimThread&
SimMachine::current()
{
    NUCA_ASSERT(current_tid_ >= 0, "no current thread");
    return threads_[static_cast<std::size_t>(current_tid_)];
}

[[gnu::always_inline]] inline SimTime
SimMachine::preempt(SimTime wake, Xoshiro256& rng, SimTime& next_preempt) const
{
    if (wake < next_preempt)
        return wake;
    wake += cfg_.preempt_duration;
    const double u = rng.next_double();
    next_preempt = wake + static_cast<SimTime>(
                              -std::log(1.0 - u) *
                              static_cast<double>(cfg_.preempt_mean_interval));
    return wake;
}

SimTime
SimMachine::apply_preemption(SimThread& thr, SimTime wake)
{
    if (!cfg_.preemption)
        return wake;
    return preempt(wake, thr.ctx.rng_, thr.next_preempt);
}

SimTime
SimMachine::disturb_wake(SimThread& thr, SimTime wake)
{
    wake = apply_preemption(thr, wake);
    if (injector_ != nullptr)
        wake = injector_->adjust_wake(thr.tid, wake);
    return wake;
}

[[gnu::always_inline]] inline SimTime
SimMachine::wake_at(int tid, SimTime t)
{
    // Skip the cold-struct deref unless preemption/faults can disturb the
    // wake time (disturb_wake is the identity otherwise).
    return cfg_.preemption || injector_ != nullptr
               ? disturb_wake(threads_[static_cast<std::size_t>(tid)], t)
               : t;
}

[[gnu::always_inline]] inline bool
SimMachine::run_ahead_or_queue(int tid, SimTime wake)
{
    ThreadHot& hot = hot_[static_cast<std::size_t>(tid)];
    hot.wake = wake;
    hot.state = ThreadState::Runnable;
    // The running thread is not in the ready queue. While it is still the
    // earliest event it keeps running on its own stack, and the queue is
    // not written. With faults installed it always goes through the
    // queue — insert, death sweep, pick — so fault plans see the same
    // sequence of death checks. A wake past the time limit does too: its
    // pick fails, after rolling any parked polls forward (pick_next).
    if (injector_ == nullptr && hot.wake <= cfg_.max_sim_time &&
        ready_.before_top(tid, hot.wake)) {
        ++run_ahead_picks_;
        advance_to(hot.wake);
        return true;
    }
    ready_.push_or_update(tid, hot.wake);
    return false;
}

void
SimMachine::block_until(SimContext& ctx, SimTime t)
{
    if (scheduler_ != nullptr) {
        // Controlled mode: a delay is a voluntary yield point. The clock
        // still advances (deadlines depend on it) but does not decide who
        // runs next.
        decision_point(ctx, PendingOp{SchedOp::Delay, MemRef::kInvalid});
        now_ = std::max(now_, t);
        return;
    }
    NUCA_ASSERT(ctx.tid_ == current_tid_, "block from non-current thread");
    if (!run_ahead_or_queue(ctx.tid_, wake_at(ctx.tid_, t)))
        dispatch();
}

[[gnu::always_inline]] inline SimMachine::PollRoll
SimMachine::load_roll(const PollState& p)
{
    return PollRoll{.rng = p.thr->ctx.rng_,
                    .at = p.at,
                    .next_preempt = p.thr->next_preempt,
                    .polls = p.polls,
                    .b = p.b,
                    .stage = p.stage};
}

[[gnu::always_inline]] inline void
SimMachine::store_roll(PollState& p, const PollRoll& r)
{
    p.thr->ctx.rng_ = r.rng;
    p.thr->next_preempt = r.next_preempt;
    p.at = r.at;
    p.polls = r.polls;
    p.b = r.b;
    p.stage = r.stage;
}

[[gnu::always_inline]] inline void
SimMachine::backoff_step(const PollState& p, PollRoll& r) const
{
    const std::uint64_t d = backoff_delay(r.rng, r.b, p.jitter);
    r.b = std::min(r.b * p.factor, p.cap);
    r.stage = PollStage::Backoff;
    const SimTime end = r.at + d * lat_.ns_per_delay_iteration;
    r.at = cfg_.preemption ? preempt(end, r.rng, r.next_preempt) : end;
}

[[gnu::always_inline]] inline void
SimMachine::hit_step(PollRoll& r) const
{
    ++r.polls;
    r.stage = PollStage::Reload;
    const SimTime end = r.at + lat_.issue + lat_.cache_hit;
    r.at = cfg_.preemption ? preempt(end, r.rng, r.next_preempt) : end;
}

[[gnu::always_inline]] inline void
SimMachine::poll_step(const PollState& p, PollRoll& r) const
{
    if (r.stage == PollStage::Reload)
        backoff_step(p, r);
    else
        hit_step(r);
}

SimContext::PollOutcome
SimMachine::lazy_poll(SimContext& ctx, MemRef word, std::uint64_t held,
                      std::uint32_t* b, std::uint32_t factor,
                      std::uint32_t cap, bool jitter, std::uint64_t max_polls,
                      std::uint64_t deadline)
{
    NUCA_ASSERT(parks_polls_ && ctx.tid_ == current_tid_,
                "lazy poll outside a timed run's current thread");
    constexpr std::uint64_t kNone = ~std::uint64_t{0};
    const int tid = ctx.tid_;
    PollState& p = polls_[static_cast<std::size_t>(tid)];
    p = PollState{.thr = &threads_[static_cast<std::size_t>(tid)],
                  .at = now_,
                  .max_polls = std::max<std::uint64_t>(max_polls, 1),
                  .deadline = deadline,
                  .b = *b,
                  .factor = factor,
                  .cap = cap,
                  .jitter = jitter,
                  .bounded = max_polls != kNone || deadline != kNone,
                  .stage = PollStage::Reload};
    ThreadHot& hot = hot_[static_cast<std::size_t>(tid)];
    while (true) {
        if (p.stage == PollStage::Reload) {
            // A reload read `held` and ended now (or the poll starts):
            // end the poll where backoff_poll()'s loop does, or back off.
            if (p.polls >= p.max_polls || now_ >= p.deadline) {
                *b = p.b;
                return SimContext::PollOutcome{held, p.polls,
                                               p.polls < p.max_polls};
            }
            PollRoll r = load_roll(p);
            backoff_step(p, r);
            store_roll(p, r);
            if (!run_ahead_or_queue(tid, r.at))
                dispatch();
        }
        // The backoff is over: reload the word.
        const AccessOutcome out =
            access_core(ctx, hot, MemOp::Load, word, 0, 0);
        ++p.polls;
        if (out.old_value != held) {
            block_until(ctx, out.complete);
            *b = p.b;
            return SimContext::PollOutcome{out.old_value, p.polls};
        }
        p.stage = PollStage::Reload;
        p.at = wake_at(tid, out.complete);
        if (p.polls >= p.max_polls || p.at >= p.deadline) {
            // The poll's last round: it ends when this reload does.
            if (!run_ahead_or_queue(tid, p.at))
                dispatch();
            continue;
        }
        // The reload read `held`, and this cpu's copy of the line stays
        // valid until another cpu writes it. Until then every reload hits,
        // so park on the line: that write unparks the poll (unpark_poll),
        // and the fiber resumes at the end of the stage then in flight. A
        // bounded poll also waits in the ready queue for its end.
        const bool watching = memory_.watch(word, tid, held);
        NUCA_ASSERT(watching, "a poll parked on a changed word");
        hot.state = ThreadState::Waiting;
        hot.waiting_line = word.line;
        hot.lazy = true;
        ++parked_polls_;
        do {
            if (p.bounded)
                queue_key(tid);
            dispatch();
        } while (hot.lazy && !reach_key(tid, word));
    }
}

void
SimMachine::queue_key(int tid)
{
    PollState& p = polls_[static_cast<std::size_t>(tid)];
    PollRoll r = load_roll(p);
    std::uint32_t steps = 0;
    for (; steps < kPollLookahead && !poll_over(p, r); ++steps)
        poll_step(p, r);
    p.key_steps = steps;
    hot_[static_cast<std::size_t>(tid)].wake = r.at;
    ready_.push_or_update(tid, r.at);
}

bool
SimMachine::reach_key(int tid, MemRef word)
{
    PollState& p = polls_[static_cast<std::size_t>(tid)];
    PollRoll r = load_roll(p);
    for (std::uint32_t i = 0; i < p.key_steps; ++i)
        poll_step(p, r);
    NUCA_ASSERT(r.at == now_, "a poll reached its key at ", r.at,
                " ns, picked at ", now_, " ns");
    const bool end = poll_over(p, r);
    if (!end)
        poll_step(p, r); // the stage this checkpoint's pick starts
    memory_.count_skipped_hits(r.polls - p.polls);
    store_roll(p, r);
    fiber_switches_ += p.key_steps;
    lazy_picks_ += p.key_steps;
    if (end) {
        memory_.unwatch(word, tid);
        ThreadHot& hot = hot_[static_cast<std::size_t>(tid)];
        hot.state = ThreadState::Runnable;
        hot.waiting_line = MemRef::kInvalid;
        hot.lazy = false;
        --parked_polls_;
    }
    return end;
}

void
SimMachine::wait_on(SimContext& ctx, MemRef ref, std::uint64_t v)
{
    NUCA_ASSERT(ctx.tid_ == current_tid_, "wait from non-current thread");
    if (!memory_.watch(ref, ctx.tid_, v))
        return; // value already changed; caller re-loads
    ThreadHot& hot = hot_[static_cast<std::size_t>(ctx.tid_)];
    hot.state = ThreadState::Waiting;
    hot.wake = kTimeInfinity;
    hot.waiting_line = ref.line;
    if (scheduler_ != nullptr) {
        hot.fiber->yield(); // back to run_controlled
        return;
    }
    dispatch();
}

void
SimMachine::wake_watchers(MemRef ref, SimTime t)
{
    memory_.take_watchers(ref, watcher_scratch_);
    if (watcher_scratch_.empty())
        return;
    const bool disturb = cfg_.preemption || injector_ != nullptr;
    wake_batch_.clear();
    for (int tid : watcher_scratch_) {
        ThreadHot& hot = hot_[static_cast<std::size_t>(tid)];
        if (hot.state == ThreadState::Done)
            continue; // died (injected fault) while spin-waiting
        NUCA_ASSERT(hot.state == ThreadState::Waiting, "woken thread not waiting");
        if (hot.lazy) {
            // A parked poll's copy of the line is gone. Its stages that
            // come before this write's pick ran as before; the first one
            // after it is queued. Not a handover: the literal poller never
            // waited on the line.
            unpark_poll(tid, now_, current_tid_);
            wake_batch_.push_back(ReadyQueue::Entry{hot.wake, tid});
            continue;
        }
        hot.state = ThreadState::Runnable;
        hot.wake = disturb
                       ? disturb_wake(threads_[static_cast<std::size_t>(tid)], t)
                       : t;
        hot.waiting_line = MemRef::kInvalid;
        // The woken thread's next access is the refill after the writer's
        // invalidation — under a lock's acquire spin that is the handover
        // burst, which the attribution layer tags as TxPhase::Handover.
        hot.handover_pending = true;
        if (scheduler_ != nullptr) {
            // The wakeup itself is a local step: when scheduled, the thread
            // returns from wait_on and advertises its re-poll as the next
            // decision point. Only controlled mode reads pending; the timed
            // loop instead needs the thread back in the ready queue.
            threads_[static_cast<std::size_t>(tid)].pending =
                PendingOp{SchedOp::Wakeup, ref.line};
        } else {
            // The woken thread typically runs as soon as the waker blocks;
            // starting its cold-stack fetch here gives the prefetch the
            // whole remainder of the waker's event to land.
            prefetch_resume_state(tid);
            wake_batch_.push_back(ReadyQueue::Entry{hot.wake, tid});
        }
    }
    // A release wakes every spinner of the line at once (the refill storm),
    // which enters the ready queue as one batch.
    if (scheduler_ == nullptr)
        ready_.push_bulk(wake_batch_.data(), wake_batch_.size());
}

[[gnu::always_inline]] inline AccessOutcome
SimMachine::access_core(SimContext& ctx, ThreadHot& hot, MemOp op, MemRef ref,
                        std::uint64_t a, std::uint64_t b)
{
    // Resolve the attribution phase for this access: a one-shot transient
    // (gate publish store) wins, else a pending wakeup upgrades an acquire
    // spin to the handover burst. Pure labelling — no timing effect.
    TxPhase phase = ctx.op_phase_;
    if (ctx.op_transient_ != TxPhase::None) {
        phase = ctx.op_transient_;
        ctx.op_transient_ = TxPhase::None;
    } else if (hot.handover_pending && phase == TxPhase::AcquireSpin) {
        phase = TxPhase::Handover;
    }
    hot.handover_pending = false;
    // A write that will wake a spin-waiter: start the waiter's cold state
    // (ThreadHot line, fiber, stack) on its way into cache now, so the
    // whole route/serve/invalidate sequence below overlaps the misses.
    // The dependent loads here are off every critical path — nothing in
    // access() consumes them. Timed mode only: controlled runs are tiny
    // and their wakes go through `pending`, not the ready queue.
    if (op != MemOp::Load && scheduler_ == nullptr) {
        const int w = memory_.first_watcher(ref);
        if (w >= 0)
            prefetch_resume_state(w);
    }
    memory_.set_tx_context(ctx.op_lock_, phase);
    const AccessOutcome out = memory_.access(op, ctx.cpu_, now_, ref, a, b);
    if (out.wakes_watchers)
        wake_watchers(ref, out.complete);
    return out;
}

AccessOutcome
SimMachine::do_access(SimContext& ctx, MemOp op, MemRef ref, std::uint64_t a,
                      std::uint64_t b)
{
    if (scheduler_ != nullptr)
        decision_point(ctx, PendingOp{sched_op_of(op), ref.line});
    const AccessOutcome out = access_core(
        ctx, hot_[static_cast<std::size_t>(ctx.tid_)], op, ref, a, b);
    SimTime resume = out.complete;
    if (injector_ != nullptr) {
        // Structural fault points: a swap is a queue lock's tail enqueue
        // (the window before the node publish), a nonzero store to a node
        // gate is an is_spinning registration. The write itself completes —
        // watchers woke above — only the issuing thread is descheduled
        // inside the vulnerable window.
        const bool publish_window = op == MemOp::Swap;
        const bool gate_closed =
            op == MemOp::Store && a != kGateDummy && is_node_gate(ref);
        if (publish_window || gate_closed)
            resume += injector_->on_access(ctx.tid_, now_, publish_window,
                                           gate_closed);
    }
    if (scheduler_ != nullptr) {
        // The decision point already happened before the access; the
        // thread keeps running until its next one.
        now_ = std::max(now_, resume);
        return out;
    }
    block_until(ctx, resume);
    return out;
}

std::uint64_t
SimMachine::walk_access(SimContext& ctx, ThreadHot& hot, MemOp op, MemRef ref,
                        std::uint64_t a, bool& ahead)
{
    const AccessOutcome out = access_core(ctx, hot, op, ref, a, 0);
    if (!run_ahead_or_queue(ctx.tid_, wake_at(ctx.tid_, out.complete))) {
        // Other threads run next: their transactions are not the line's.
        memory_.drop_line();
        ahead = false;
        dispatch();
    }
    return out.old_value;
}

void
SimMachine::walk(SimContext& ctx, MemRef first, std::uint32_t count,
                 bool write)
{
    // Batching a walk into one engine step would serve its transactions
    // ahead of earlier-arriving ones of other threads, a FIFO violation
    // that distorts handover latency under contention. A replay instead
    // covers only lines that complete before any other thread's event.
    const int tid = ctx.tid_;
    ThreadHot& hot = hot_[static_cast<std::size_t>(tid)];
    for (std::uint32_t i = 0; i < count;) {
        const MemRef ref = first.at(i++);
        if (!replays_walks_ || i == count || hot.handover_pending ||
            ctx.op_transient_ != TxPhase::None || !memory_.begin_line(ref)) {
            const std::uint64_t v = ctx.load(ref);
            if (write)
                ctx.store(ref, v + 1);
            continue;
        }
        // The template: both accesses labelled with the op phase alone.
        const SimTime start = now_;
        bool ahead = true;
        const std::uint64_t v =
            walk_access(ctx, hot, MemOp::Load, ref, 0, ahead);
        if (write)
            walk_access(ctx, hot, MemOp::Store, ref, v + 1, ahead);
        if (!ahead || !memory_.end_line(ref))
            continue;
        // Each line after it that is in its state would run ahead through
        // the same accesses, one period later, while its last completion
        // precedes the root's (wake, tid) and the time limit. Past those,
        // the next line runs literally: it dispatches or fails there.
        const SimTime period = now_ - start;
        std::uint32_t n = 0;
        while (i + n < count && memory_.matches_line(first.at(i + n))) {
            const SimTime end = now_ + (n + 1) * period;
            if (end > cfg_.max_sim_time || !ready_.before_top(tid, end))
                break;
            ++n;
        }
        if (n == 0)
            continue;
        memory_.replay_lines(first.at(i), n, write, period);
        i += n;
        now_ += n * period;
        hot.wake = now_;
        const std::uint64_t picks = std::uint64_t{n} * (write ? 2 : 1);
        fiber_switches_ += picks;
        replayed_picks_ += picks;
    }
}

void
SimMachine::unpark_poll(int tid, SimTime t, int by)
{
    ThreadHot& hot = hot_[static_cast<std::size_t>(tid)];
    PollState& p = polls_[static_cast<std::size_t>(tid)];
    hot.state = ThreadState::Runnable;
    hot.waiting_line = MemRef::kInvalid;
    hot.lazy = false;
    --parked_polls_;
    // Until (t, by) nothing the poller reads has changed, so its stages
    // depend on its own state alone: the draws from its generator (the
    // jitter, then preemption) and the fixed latency of a reload that
    // hits in its cache. A bounded poll's key is not before (t, by), so
    // neither is its end.
    PollRoll r = load_roll(p);
    const SimTime stop = t + (tid < by);
    std::uint64_t picks = 0;
    // poll_step() in pairs, so that each half knows its stage.
    if (r.stage == PollStage::Backoff && r.at < stop) {
        ++picks;
        hit_step(r);
    }
    while (r.at < stop) {
        ++picks;
        backoff_step(p, r);
        if (r.at >= stop)
            break;
        ++picks;
        hit_step(r);
    }
    memory_.count_skipped_hits(r.polls - p.polls);
    store_roll(p, r);
    hot.wake = r.at;
    fiber_switches_ += picks;
    lazy_picks_ += picks;
}

void
SimMachine::unpark_polls_for_time_limit()
{
    for (std::size_t i = 0; parked_polls_ != 0; ++i) {
        ThreadHot& hot = hot_[i];
        if (!hot.lazy)
            continue;
        const int tid = static_cast<int>(i);
        unpark_poll(tid, cfg_.max_sim_time + 1, 0);
        ready_.push_or_update(tid, hot.wake);
    }
}

void
SimMachine::decision_point(SimContext& ctx, PendingOp op)
{
    NUCA_ASSERT(ctx.tid_ == current_tid_, "decision from non-current thread");
    threads_[static_cast<std::size_t>(ctx.tid_)].pending = op;
    ThreadHot& hot = hot_[static_cast<std::size_t>(ctx.tid_)];
    hot.state = ThreadState::Runnable;
    hot.wake = now_;
    hot.fiber->yield();
}

void
SimMachine::install_faults(FaultInjector* injector)
{
    NUCA_ASSERT(!running_ && !ran_, "install_faults after run()");
    injector_ = injector;
    if (injector_ != nullptr)
        memory_.set_link_hook(
            [this](SimTime t) { return injector_->link_penalty(t); });
    else
        memory_.set_link_hook({});
}

void
SimMachine::install_invariants(InvariantChecker* checker)
{
    NUCA_ASSERT(!running_ && !ran_, "install_invariants after run()");
    checker_ = checker;
}

void
SimMachine::install_scheduler(Scheduler* scheduler)
{
    NUCA_ASSERT(!running_ && !ran_, "install_scheduler after run()");
    scheduler_ = scheduler;
}

void
SimMachine::install_probe(obs::ProbeSink* sink)
{
    NUCA_ASSERT(!running_ && !ran_, "install_probe after run()");
    probe_ = sink;
}

void
SimMachine::sweep_deaths(std::size_t& done)
{
    for (std::size_t i = 0; i < hot_.size(); ++i) {
        ThreadHot& hot = hot_[i];
        if (hot.state == ThreadState::Done)
            continue;
        const int tid = static_cast<int>(i);
        // Earliest time the thread could possibly run again: its wake time
        // when scheduled, or "now" when blocked on a line watcher.
        const SimTime next_run =
            hot.state == ThreadState::Waiting ? now_ : hot.wake;
        if (!injector_->should_die(tid, next_run))
            continue;
        hot.state = ThreadState::Done;
        threads_[i].finish = next_run == kTimeInfinity ? now_ : next_run;
        if (scheduler_ == nullptr)
            ready_.remove(tid);
        ++done;
        if (checker_ != nullptr)
            checker_->on_thread_death(tid, now_);
    }
}

void
SimMachine::run()
{
    NUCA_ASSERT(!ran_, "run() may only be called once");
    NUCA_ASSERT(!threads_.empty(), "no threads to run");
    running_ = true;
    parks_polls_ = scheduler_ == nullptr && injector_ == nullptr &&
                   probe_ == nullptr && !memory_.has_trace_hook() &&
                   (checker_ == nullptr ||
                    checker_->config().watchdog_window_ns == 0);
    replays_walks_ = parks_polls_ && !cfg_.preemption &&
                     memory_.global_link().series_bin_ns() == 0;
    if (scheduler_ != nullptr)
        run_controlled();
    else
        run_timed();
    running_ = false;
    ran_ = true;
}

void
SimMachine::run_timed()
{
    // Seed the ready queue: every thread starts Runnable at wake time 0.
    // Also seed resume_sp — before the first entry it is the entry frame
    // the Fiber constructor prepared.
    ready_.reset(threads_.size());
    if (parks_polls_)
        polls_.resize(threads_.size());
    for (std::size_t tid = 0; tid < hot_.size(); ++tid) {
        ThreadHot& hot = hot_[tid];
        hot.resume_sp = hot.fiber->suspended_sp();
        ready_.push_or_update(static_cast<int>(tid), hot.wake);
    }
    // Enter the first pick. From then on the fibers hand the host thread
    // to each other (dispatch()); it comes back here only when the running
    // fiber finishes, or when every thread is done.
    while (done_ < threads_.size()) {
        const int tid = pick_next();
        if (tid < 0)
            break;
        current_tid_ = tid;
        hot_[static_cast<std::size_t>(tid)].fiber->resume();
        if (!diagnosis_.empty())
            panic_with_diagnosis(diagnosis_);
        const int ran = current_tid_; // the fiber that handed control back
        current_tid_ = -1;
        ThreadHot& hot = hot_[static_cast<std::size_t>(ran)];
        if (hot.fiber->finished()) {
            hot.state = ThreadState::Done;
            threads_[static_cast<std::size_t>(ran)].finish = now_;
            ++done_;
        }
    }
}

int
SimMachine::pick_next()
{
    if (injector_ != nullptr) {
        sweep_deaths(done_);
        if (done_ >= threads_.size())
            return -1;
    }
    // The runnable thread with the earliest wake time, ties broken by
    // thread id (determinism): the ready queue's top, which leaves the
    // queue while it runs. Waiting threads (wake == infinity) and parked
    // polls are not in the queue either; wake_watchers reinserts them.
    if (ready_.empty() || ready_.top_wake() > cfg_.max_sim_time) {
        // No thread, or the time limit. Parked polls are still polling in
        // the literal loops, so the pick fails the time limit at the
        // earliest of their picks past it and the top's.
        if (parked_polls_ != 0)
            unpark_polls_for_time_limit();
        if (ready_.empty())
            fail("deadlock: no runnable thread");
    }
    const int next_tid = ready_.top_tid();
    ready_.remove(next_tid);
    // Overlap the picked fiber's cold-stack misses with the watchdog and
    // time-limit bookkeeping below (see prefetch_resume_state). A run-ahead
    // pick is the running thread itself, whose state is already hot.
    if (next_tid != current_tid_)
        prefetch_resume_state(next_tid);
    // Also start on the likely pick after this one, the new top: timer
    // wakes (backoff/pause expiries) never pass through wake_watchers, so
    // this is their only early notice.
    if (!ready_.empty())
        prefetch_resume_state(ready_.top_tid());
    advance_to(hot_[static_cast<std::size_t>(next_tid)].wake);
    return next_tid;
}

void
SimMachine::advance_to(SimTime wake)
{
    NUCA_ASSERT(wake >= now_, "time went backwards");
    now_ = wake;
    if (checker_ != nullptr && checker_->watchdog_expired(now_))
        fail("progress watchdog expired: threads are waiting but no "
             "critical-section activity for " +
             std::to_string(checker_->config().watchdog_window_ns) + " ns");
    if (now_ > cfg_.max_sim_time)
        fail("simulated time exceeded max_sim_time (livelock?)");
    ++fiber_switches_;
}

void
SimMachine::dispatch()
{
    const int self = current_tid_;
    const int next_tid = pick_next();
    if (next_tid == self) {
        // This thread is still the earliest event, so it keeps running:
        // with faults installed, block_until queued it; or it parked a
        // bounded poll whose key comes first.
        ++run_ahead_picks_;
        return;
    }
    ThreadHot& from = hot_[static_cast<std::size_t>(self)];
    if (next_tid < 0) {
        // The death sweep retired every thread, this one included: hand
        // the host thread back to run_timed(), never to return here.
        from.fiber->yield();
        return;
    }
    current_tid_ = next_tid;
    switched_out_ = &from;
    from.fiber->switch_to(*hot_[static_cast<std::size_t>(next_tid)].fiber);
    note_switched_in();
}

void
SimMachine::fail(std::string what)
{
    if (current_tid_ < 0)
        panic_with_diagnosis(what);
    diagnosis_ = std::move(what);
    hot_[static_cast<std::size_t>(current_tid_)].fiber->yield();
    NUCA_PANIC("failed fiber resumed");
}

void
SimMachine::run_controlled()
{
    std::size_t done = 0;
    std::vector<SchedChoice> runnable;
    stop_ = StopReason::Completed;
    while (done < threads_.size()) {
        if (injector_ != nullptr)
            sweep_deaths(done);
        if (done >= threads_.size())
            break;
        runnable.clear();
        for (std::size_t i = 0; i < hot_.size(); ++i)
            if (hot_[i].state == ThreadState::Runnable)
                runnable.push_back(
                    SchedChoice{static_cast<int>(i), threads_[i].pending});
        if (runnable.empty()) {
            // Every remaining thread is parked on a line watcher: a real
            // deadlock under this schedule. A verdict, not a crash.
            stop_ = StopReason::Deadlock;
            return;
        }
        if (now_ > cfg_.max_sim_time) {
            stop_ = StopReason::TimeLimit;
            return;
        }
        const int tid = scheduler_->pick(now_, runnable);
        if (tid == kStopRun) {
            stop_ = StopReason::SchedulerStop;
            return;
        }
        ThreadHot& next = hot_[static_cast<std::size_t>(tid)];
        NUCA_ASSERT(next.state == ThreadState::Runnable,
                    "scheduler picked non-runnable thread ", tid);
        ++sched_steps_;
        current_tid_ = tid;
        ++fiber_switches_;
        next.fiber->resume();
        current_tid_ = -1;

        if (next.fiber->finished()) {
            next.state = ThreadState::Done;
            threads_[static_cast<std::size_t>(tid)].finish = now_;
            ++done;
        }
    }
}

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
SimMachine::panic_with_diagnosis(const std::string& what) const
{
    std::ostringstream oss;
    oss << what << " at t=" << now_ << " ns\n";
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        const SimThread& thr = threads_[i];
        const ThreadHot& hot = hot_[i];
        oss << "  t" << thr.tid << " cpu=" << thr.cpu << " ";
        switch (hot.state) {
          case ThreadState::Runnable:
            oss << "runnable, wake=" << hot.wake << " ns";
            break;
          case ThreadState::Waiting:
            oss << "waiting on line " << hot.waiting_line;
            break;
          case ThreadState::Done:
            oss << "done at " << thr.finish << " ns";
            break;
        }
        oss << "\n";
    }
    if (checker_ != nullptr)
        oss << checker_->report();
    if (injector_ != nullptr && injector_->injected() != 0)
        oss << "applied faults (" << injector_->injected() << "):\n"
            << injector_->log();

    // CI-friendly death: a diagnosed failure is a *verdict* (a checked
    // property did not hold under this schedule), not a simulator crash, so
    // it exits with kDiagnosisExitCode instead of abort()ing — CI can tell
    // the two apart by wait status. NUCALOCK_DIAG_JSON=<path> additionally
    // writes the diagnosis as a machine-readable report.
    if (const char* path = std::getenv("NUCALOCK_DIAG_JSON");
        path != nullptr && *path != '\0') {
        std::ofstream json(path);
        json << "{\n  \"error\": \"" << json_escape(what) << "\",\n"
             << "  \"time_ns\": " << now_ << ",\n"
             << "  \"exit_code\": " << kDiagnosisExitCode << ",\n";
        if (checker_ != nullptr) {
            json << "  \"acquisitions\": " << checker_->acquisitions() << ",\n"
                 << "  \"mutual_exclusion_violations\": "
                 << checker_->mutual_exclusion_violations() << ",\n"
                 << "  \"violations\": [";
            for (std::size_t i = 0; i < checker_->violations().size(); ++i)
                json << (i == 0 ? "" : ", ") << "\""
                     << json_escape(checker_->violations()[i]) << "\"";
            json << "],\n";
        }
        if (injector_ != nullptr)
            json << "  \"faults_injected\": " << injector_->injected()
                 << ",\n  \"fault_log\": \"" << json_escape(injector_->log())
                 << "\",\n";
        json << "  \"threads\": [\n";
        for (std::size_t i = 0; i < threads_.size(); ++i) {
            const SimThread& thr = threads_[i];
            const ThreadState st = hot_[i].state;
            const char* state = st == ThreadState::Runnable ? "runnable"
                                : st == ThreadState::Waiting ? "waiting"
                                                             : "done";
            json << "    {\"tid\": " << thr.tid << ", \"cpu\": " << thr.cpu
                 << ", \"state\": \"" << state << "\"}"
                 << (i + 1 < threads_.size() ? "," : "") << "\n";
        }
        json << "  ]\n}\n";
    }
    std::fprintf(stderr, "diagnosed failure: %s\n", oss.str().c_str());
    std::exit(kDiagnosisExitCode);
}

void
SimMachine::print_stats(std::ostream& os) const
{
    os << "simulated time: " << static_cast<double>(now_) / 1e6 << " ms, "
       << num_threads() << " threads, " << fiber_switches_
       << " scheduling events, " << memory_.num_accesses()
       << " memory accesses\n";
    const TrafficStats t = memory_.traffic();
    os << "traffic: " << t.local_tx << " local / " << t.global_tx
       << " global transactions (" << t.data_fetch_tx << " fetches, "
       << t.invalidation_tx << " invalidations, " << t.atomic_tx
       << " atomics)\n";

    auto utilization = [this](const Resource& r) {
        return now_ == 0 ? 0.0
                         : 100.0 * static_cast<double>(r.busy_time()) /
                               static_cast<double>(now_);
    };
    for (int n = 0; n < topo_.num_nodes(); ++n) {
        const Resource& bus = memory_.node_bus(n);
        os << "  " << bus.name() << ": " << bus.transactions() << " tx, "
           << utilization(bus) << "% busy, "
           << (bus.transactions() == 0
                   ? 0.0
                   : static_cast<double>(bus.queue_time()) /
                         static_cast<double>(bus.transactions()))
           << " ns avg queue (p99 " << bus.queue_delay().percentile(99.0)
           << " ns)\n";
    }
    const Resource& link = memory_.global_link();
    os << "  " << link.name() << ": " << link.transactions() << " tx, "
       << utilization(link) << "% busy, "
       << (link.transactions() == 0
               ? 0.0
               : static_cast<double>(link.queue_time()) /
                     static_cast<double>(link.transactions()))
       << " ns avg queue (p99 " << link.queue_delay().percentile(99.0)
       << " ns)\n";
}

SimTime
SimMachine::finish_time(int tid) const
{
    NUCA_ASSERT(tid >= 0 && tid < num_threads(), "tid=", tid);
    NUCA_ASSERT(hot_[static_cast<std::size_t>(tid)].state == ThreadState::Done,
                "thread ", tid, " not finished");
    return threads_[static_cast<std::size_t>(tid)].finish;
}

} // namespace nucalock::sim
