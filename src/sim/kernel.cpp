#include "sim/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace daelite::sim {

namespace {

/// Per-thread dispatch context for trace staging. While a dispatch loop is
/// running with staging enabled, `stage` points at the buffer records park
/// in and `key` is the registration index of the component currently being
/// dispatched (the merge key — an agent relaying a record through its host
/// element stages under the agent's slot, exactly where the record lands in
/// a serial run). Thread-local so every shard worker stages into its own
/// buffer with no synchronization on the hot path.
struct DispatchCtx {
  std::vector<Kernel::StagedTrace>* stage = nullptr;
  std::uint32_t key = 0;
};
thread_local DispatchCtx tls_dispatch;

} // namespace

Kernel::~Kernel() {
  stop_workers();
  for (Component* c : components_) {
    if (c != nullptr) c->kernel_ = nullptr; // outlives us: detach (see ~Component)
  }
}

void Kernel::add(Component* c) {
  assert(!in_parallel_ && "components may not be constructed inside a parallel phase");
  c->index_ = static_cast<std::uint32_t>(components_.size());
  components_.push_back(c);
  ++live_count_;
  schedule_dirty_ = true;
}

void Kernel::remove(Component* c) {
  assert(!in_parallel_ && "components may not be destroyed inside a parallel phase");
  const std::uint32_t i = c->index_;
  if (i >= components_.size() || components_[i] != c) return;
  components_[i] = nullptr; // tombstone; swept between cycles
  --live_count_;
  has_tombstones_ = true;
  if (!c->active_) --sleeping_count_;
  schedule_dirty_ = true;
}

void Kernel::notify_external_write(Component* c) {
  if (scheduler_ == Scheduler::kReference) return; // commits every cycle anyway
  assert(!in_parallel_ && "external_write() is a serial-phase service");
  if (c->touch_pending_) return;
  c->touch_pending_ = true;
  touched_.push_back(c->index_);
}

void Kernel::set_shards(std::uint32_t n) {
  if (scheduler_ == Scheduler::kReference) return; // oracle stays serial
  n = std::clamp<std::uint32_t>(n, 1, 64);
  if (n == shards_) return;
  stop_workers();
  shards_ = n;
  stage_.assign(static_cast<std::size_t>(shards_) + 1, {}); // + the serial buffer
  schedule_dirty_ = true;
}

void Kernel::assign_shard(Component& c, std::uint32_t shard) {
  assert(!in_parallel_);
  if (c.shard_ == shard) return;
  c.shard_ = shard;
  schedule_dirty_ = true;
}

void Kernel::sleep_component(Component& c, Cycle wake_at) {
  if (scheduler_ == Scheduler::kReference) return;
  assert(!in_parallel_ && "sleep()/suspend() are serial-phase services");
  // Waking happens at the start of the next step, so a wake this cycle or
  // the next would never skip a dispatch: don't churn the schedule.
  if (wake_at != kNoCycle && wake_at <= now_ + 1) return;
  if (c.active_) {
    c.active_ = false;
    ++sleeping_count_;
    schedule_dirty_ = true;
  }
  c.wake_at_ = wake_at;
  next_wake_ = std::min(next_wake_, wake_at);
}

void Kernel::wake(Component& c) {
  if (scheduler_ == Scheduler::kReference) return;
  assert(!in_parallel_ && "wake() is a serial-phase service");
  if (c.active_) return;
  c.active_ = true;
  c.wake_at_ = kNoCycle;
  --sleeping_count_;
  schedule_dirty_ = true;
  // next_wake_ may now be stale (too early); wake_due() tolerates that.
}

void Kernel::wake_due() {
  if (sleeping_count_ == 0) {
    next_wake_ = kNoCycle;
    return;
  }
  if (next_wake_ > now_) return;
  Cycle next = kNoCycle;
  for (Component* c : components_) {
    if (c == nullptr || c->active_) continue;
    if (c->wake_at_ <= now_) {
      c->active_ = true;
      c->wake_at_ = kNoCycle;
      --sleeping_count_;
      schedule_dirty_ = true;
    } else {
      next = std::min(next, c->wake_at_);
    }
  }
  next_wake_ = next;
}

void Kernel::rebuild_schedule() {
  period_ = 1;
  for (const Component* c : components_) {
    if (c == nullptr || !c->active_) continue;
    const Cycle l = std::lcm(period_, static_cast<Cycle>(c->cadence_.stride));
    if (l <= kMaxPeriod) period_ = l;
  }
  due_.assign(period_, {});
  guarded_.clear();
  for (std::uint32_t i = 0; i < components_.size(); ++i) {
    const Component* c = components_[i];
    if (c == nullptr || !c->active_) continue;
    const Cycle s = c->cadence_.stride;
    if (period_ % s == 0) {
      for (Cycle r = c->cadence_.phase % s; r < period_; r += s) due_[r].push_back(i);
    } else {
      guarded_.push_back(i); // stride overflowed the period cap: check per cycle
    }
  }
  // Shard partition of the due table. Guarded components always dispatch
  // serially (their per-cycle residue check keeps them off the wide path);
  // a shard id beyond the current shard count folds in, so a partition
  // computed for more shards than configured still distributes evenly.
  // The partition also exists at shards_ == 1 when a component is
  // shard-assigned (a batched engine): its dispatch then runs inline
  // before the serial set, the order the staged path guarantees.
  bool any_assigned = shards_ > 1;
  for (const Component* c : components_) {
    if (any_assigned) break;
    any_assigned = c != nullptr && c->active_ && c->shard_ != kNoShard;
  }
  has_partition_ = any_assigned;
  if (has_partition_) {
    if (stage_.size() != static_cast<std::size_t>(shards_) + 1) {
      stage_.assign(static_cast<std::size_t>(shards_) + 1, {}); // + the serial buffer
    }
    due_shard_.assign(static_cast<std::size_t>(period_) * shards_, {});
    due_shard_weight_.assign(static_cast<std::size_t>(period_) * shards_, 0);
    due_serial_.assign(period_, {});
    for (Cycle r = 0; r < period_; ++r) {
      for (std::uint32_t i : due_[r]) {
        const std::uint32_t s = components_[i]->shard_;
        if (s == kNoShard) {
          due_serial_[r].push_back(i);
        } else {
          const std::size_t slot = static_cast<std::size_t>(r) * shards_ + s % shards_;
          due_shard_[slot].push_back(i);
          due_shard_weight_[slot] += components_[i]->weight_;
        }
      }
    }
  }
  schedule_dirty_ = false;
}

void Kernel::sweep_tombstones() {
  std::size_t w = 0;
  for (Component* c : components_) {
    if (c == nullptr) continue;
    c->index_ = static_cast<std::uint32_t>(w);
    components_[w++] = c;
  }
  components_.resize(w);
  has_tombstones_ = false;
  schedule_dirty_ = true;
}

bool Kernel::due_now(const Component& c, Cycle cycle) const {
  return c.active_ && cycle % c.cadence_.stride == c.cadence_.phase;
}

bool Kernel::cycle_is_idle(Cycle cycle) const {
  if (!touched_.empty()) return false; // pending end-of-cycle commit
  if (!due_[cycle % period_].empty()) return false;
  for (std::uint32_t i : guarded_) {
    const Component* c = components_[i];
    if (c != nullptr && due_now(*c, cycle)) return false;
  }
  return true;
}

Cycle Kernel::next_due_cycle(Cycle from, Cycle limit) const {
  Cycle best = limit;
  for (std::uint32_t i : guarded_) {
    const Component* c = components_[i];
    if (c == nullptr || !c->active_) continue;
    const Cycle s = c->cadence_.stride;
    const Cycle p = c->cadence_.phase % s;
    best = std::min(best, from + (p + s - from % s) % s);
  }
  const Cycle scan_end = std::min(best, from + period_); // table is periodic
  for (Cycle c = from; c < scan_end; ++c) {
    if (!due_[c % period_].empty()) return std::min(best, c);
  }
  return best;
}

void Kernel::record_trace(const Component& c, Tracer& t, TraceEvent event, std::uint64_t arg0,
                          std::uint64_t arg1) {
  if (tls_dispatch.stage != nullptr) {
    // Inside a staged dispatch loop (any phase of a sharded cycle): park
    // the record; flush_staged_traces() interns and appends it on the
    // driving thread once the phase joins. Contract: the emitter pointer
    // must stay valid to the end of the cycle (destroying a component that
    // traced earlier in the same sharded cycle is unsupported).
    tls_dispatch.stage->push_back({tls_dispatch.key, &c, event, arg0, arg1});
    return;
  }
  if (c.trace_owner_ != &t) { // interned id is per-tracer; revalidate on swap
    c.trace_id_ = t.intern(c.name_);
    c.trace_owner_ = &t;
  }
  t.record(now_, c.trace_id_, event, arg0, arg1);
}

void Kernel::set_stage_key(const Component& c) {
  if (tls_dispatch.stage != nullptr) tls_dispatch.key = c.index_;
}

void Kernel::set_dispatch_weight(Component& c, std::uint32_t weight) {
  const std::uint32_t w = std::max<std::uint32_t>(1, weight);
  if (c.weight_ == w) return;
  c.weight_ = w;
  schedule_dirty_ = true;
}

void Kernel::flush_staged_traces() {
  const std::size_t nb = stage_.size();
  bool any = false;
  for (const auto& b : stage_) any = any || !b.empty();
  if (!any) return;
  Tracer* t = tracer_;
  // k-way merge ascending by key. Every buffer is already ascending (each
  // dispatch list is ascending by registration index) and a key appears in
  // exactly one buffer (one component dispatches in exactly one list), so
  // the merged stream is the serial dispatch order — records AND first-use
  // interning land byte-identically to an unsharded run.
  std::vector<std::size_t> cur(nb, 0);
  for (;;) {
    std::size_t best = nb;
    std::uint32_t best_key = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      if (cur[b] >= stage_[b].size()) continue;
      const std::uint32_t k = stage_[b][cur[b]].key;
      if (best == nb || k < best_key) {
        best = b;
        best_key = k;
      }
    }
    if (best == nb) break;
    const StagedTrace& s = stage_[best][cur[best]++];
    if (t != nullptr) {
      if (s.emitter->trace_owner_ != t) {
        s.emitter->trace_id_ = t->intern(s.emitter->name_);
        s.emitter->trace_owner_ = t;
      }
      t->record(now_, s.emitter->trace_id_, s.event, s.arg0, s.arg1);
    }
  }
  for (auto& b : stage_) b.clear();
}

void Kernel::run_shard_list(const std::vector<std::uint32_t>& list, int phase,
                            std::vector<StagedTrace>* stage) {
  tls_dispatch.stage = stage;
  if (phase == 0) {
    for (std::uint32_t i : list) {
      Component* c = components_[i];
      if (c != nullptr) {
        tls_dispatch.key = i;
        c->tick();
      }
    }
  } else {
    for (std::uint32_t i : list) {
      Component* c = components_[i];
      if (c != nullptr) {
        tls_dispatch.key = i;
        c->commit();
        c->touch_pending_ = false;
      }
    }
  }
  tls_dispatch.stage = nullptr;
}

void Kernel::start_workers() {
  if (workers_.size() + 1 == shards_) return;
  stop_workers();
  workers_.reserve(shards_ - 1);
  for (std::uint32_t s = 1; s < shards_; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

void Kernel::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  pool_stop_ = false;
}

void Kernel::worker_loop(std::uint32_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    int phase;
    const std::vector<std::uint32_t>* list;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [&] { return pool_stop_ || round_ != seen; });
      if (pool_stop_) return;
      seen = round_;
      phase = round_phase_;
      list = &round_lists_[shard];
    }
    run_shard_list(*list, phase, &stage_[shard]);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      --round_remaining_;
    }
    done_cv_.notify_one();
  }
}

void Kernel::run_parallel_round(int phase) {
  in_parallel_ = true;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    round_phase_ = phase;
    round_remaining_ = shards_ - 1;
    ++round_; // publishes round_lists_/phase to the workers (mutex ordering)
  }
  pool_cv_.notify_all();
  run_shard_list(round_lists_[0], phase, &stage_[0]); // driver is shard 0
  {
    std::unique_lock<std::mutex> lk(pool_mu_);
    done_cv_.wait(lk, [&] { return round_remaining_ == 0; });
  }
  in_parallel_ = false;
}

void Kernel::step_reference() {
  // Index loops (not iterators): remove() tombstones in place, so the
  // vector never reallocates or shifts mid-phase.
  const std::size_t n = components_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Component* c = components_[i];
    if (c != nullptr) c->tick();
  }
  for (std::size_t i = 0; i < n; ++i) {
    Component* c = components_[i];
    if (c != nullptr) c->commit();
  }
  if (has_tombstones_) sweep_tombstones();
  ++now_;
}

void Kernel::step_stride() {
  wake_due();
  if (schedule_dirty_) rebuild_schedule();

  // Snapshot which guarded components are due: a component may sleep
  // during its own tick, and it must still commit this cycle.
  guarded_due_.clear();
  for (std::uint32_t i : guarded_) {
    const Component* c = components_[i];
    if (c != nullptr && due_now(*c, now_)) guarded_due_.push_back(i);
  }

  const std::size_t r = static_cast<std::size_t>(now_ % period_);

  // Any cycle with shard-assigned work due goes through the staged path
  // (shard lists before the serial set — required for batched engines,
  // byte-identical for plain sharded components). The worker pool engages
  // only when the wide TDM dispatch (the whole mesh due at a slot start)
  // offers enough weighted work per shard to amortize the round
  // handshake; narrow cycles run the shard lists inline on the driver.
  if (has_partition_) {
    std::size_t weighted = 0;
    for (std::uint32_t s = 0; s < shards_; ++s) {
      weighted += due_shard_weight_[r * shards_ + s];
    }
    if (weighted > 0) {
      step_stride_staged(r, shards_ > 1 && weighted >= static_cast<std::size_t>(shards_) * 2);
      return;
    }
  }

  const std::vector<std::uint32_t>& due = due_[r];
  for (std::uint32_t i : due) {
    Component* c = components_[i];
    if (c != nullptr) c->tick();
  }
  for (std::uint32_t i : guarded_due_) {
    Component* c = components_[i];
    if (c != nullptr) c->tick();
  }

  for (std::uint32_t i : due) {
    Component* c = components_[i];
    if (c != nullptr) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  for (std::uint32_t i : guarded_due_) {
    Component* c = components_[i];
    if (c != nullptr) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  // Externally mutated components commit at the end of the cycle of the
  // mutation, exactly as under the reference scheduler. Index loop: ticks
  // above may have appended (shells pushing into NI queues).
  for (std::size_t k = 0; k < touched_.size(); ++k) {
    Component* c = components_[touched_[k]];
    if (c != nullptr && c->touch_pending_) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  touched_.clear();

  if (has_tombstones_) sweep_tombstones();
  ++now_;
}

void Kernel::step_stride_staged(std::size_t r, bool use_pool) {
  // Tick phase. Parallel ticks are safe because sharded components read
  // only state committed at the previous edge (nothing writes committed
  // state during tick) and write only their own next-state; serial ticks
  // run after the join, preserving every host-element/agent ordering the
  // single-threaded loop has (a serial agent mutating its sharded host is
  // observed by the host only next cycle, exactly as in index order).
  // Without the pool the same shard lists run inline on the driver —
  // identical order and staging, no handshake.
  if (use_pool) {
    start_workers();
    round_lists_ = &due_shard_[r * shards_];
    run_parallel_round(0);
  } else {
    for (std::uint32_t s = 0; s < shards_; ++s) {
      run_shard_list(due_shard_[r * shards_ + s], 0, &stage_[s]);
    }
  }
  const std::vector<std::uint32_t>& serial = due_serial_[r];
  tls_dispatch.stage = &stage_[shards_];
  for (std::uint32_t i : serial) {
    Component* c = components_[i];
    if (c != nullptr) {
      tls_dispatch.key = i;
      c->tick();
    }
  }
  tls_dispatch.stage = nullptr;
  flush_staged_traces();
  // Guarded components tick after every scheduled one in the serial loop
  // too, so recording directly (post-merge) preserves the record order.
  for (std::uint32_t i : guarded_due_) {
    Component* c = components_[i];
    if (c != nullptr) c->tick();
  }

  // Commit phase. Parallel commits are the default register latch (the
  // sharded-component contract), touching only the component's own state;
  // overriding commits with cross-component behaviour — the fault injector
  // corrupting committed link registers, the health monitor sampling them —
  // live in the serial set and run after the join, so they observe every
  // latch exactly as they do when they commit last in index order.
  if (use_pool) {
    run_parallel_round(1);
  } else {
    for (std::uint32_t s = 0; s < shards_; ++s) {
      run_shard_list(due_shard_[r * shards_ + s], 1, &stage_[s]);
    }
  }
  flush_staged_traces(); // default latches never trace: normally a no-op
  for (std::uint32_t i : serial) {
    Component* c = components_[i];
    if (c != nullptr) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  for (std::uint32_t i : guarded_due_) {
    Component* c = components_[i];
    if (c != nullptr) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  for (std::size_t k = 0; k < touched_.size(); ++k) {
    Component* c = components_[touched_[k]];
    if (c != nullptr && c->touch_pending_) {
      c->commit();
      c->touch_pending_ = false;
    }
  }
  touched_.clear();

  if (has_tombstones_) sweep_tombstones();
  ++now_;
}

bool Kernel::all_quiescent() const {
  for (const Component* c : components_) {
    if (c == nullptr || !c->active_) continue;
    if (!c->quiescent()) return false;
  }
  return true;
}

void Kernel::advance_or_skip(Cycle end) {
  wake_due();
  if (schedule_dirty_) rebuild_schedule();
  const Cycle limit = std::min(end, next_wake_);
  if (limit > now_ + 1) {
    if (cycle_is_idle(now_)) {
      now_ = next_due_cycle(now_ + 1, limit);
      return;
    }
    // Components may be due, but if every active one certifies its tick a
    // no-op (see Component::quiescent()) the network state is a fixed
    // point: nothing can change before a wake or an external write, both
    // of which happen at or after `limit`.
    if (touched_.empty() && all_quiescent()) {
      now_ = limit;
      return;
    }
  }
  step_stride();
}

void Kernel::step() {
  if (scheduler_ == Scheduler::kReference) {
    step_reference();
  } else {
    step_stride();
  }
}

void Kernel::run(Cycle n) {
  const Cycle end = now_ + n;
  if (scheduler_ == Scheduler::kReference) {
    while (now_ < end) step_reference();
    return;
  }
  while (now_ < end) advance_or_skip(end);
}

bool Kernel::run_until(const std::function<bool()>& pred, Cycle max_cycles) {
  const Cycle end = now_ + max_cycles;
  if (scheduler_ == Scheduler::kReference) {
    while (now_ < end) {
      step_reference();
      if (pred()) return true;
    }
    return false;
  }
  while (now_ < end) {
    advance_or_skip(end);
    if (pred()) return true;
  }
  return false;
}

} // namespace daelite::sim
