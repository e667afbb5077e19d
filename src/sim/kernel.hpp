#pragma once
// The simulation kernel: a registry of Components and the cycle loop.
//
// One Kernel models one synchronous clock domain (the paper's daelite
// prototype is fully synchronous; aelite's mesochronous links are out of
// scope, as in the paper's experiments).
//
// Two schedulers are provided:
//
//   kStride    — the default. Each component registers a tick cadence
//                (stride + phase offset); the kernel precomputes per-residue
//                activation lists over the least common multiple of all
//                strides and dispatches only the components due in the
//                current cycle. Components may additionally sleep until a
//                known cycle (or indefinitely, woken by an external event),
//                and externally mutated components (NI queue pushes/pops,
//                config enqueues) are committed at the end of the cycle of
//                the mutation via the touched list. run()/run_until()
//                fast-forward now_ across spans where no component is due.
//   kReference — the original per-cycle loop: every component ticks and
//                commits every cycle, cadences and sleeps are ignored.
//                Kept as the oracle for the byte-identity ctests.
//
// Both schedulers dispatch components in registration order within a cycle,
// so trace record order and interned trace ids are identical between them.
//
// Sharded execution (stride scheduler only): set_shards(N > 1) partitions
// the per-cycle bulk work across N threads inside this one Kernel run.
// Components explicitly assigned a shard (assign_shard()) tick and commit
// concurrently, one thread per shard; everything else — the "serial set" —
// runs on the driving thread, after the parallel ticks and after the
// parallel commits respectively. The contract a sharded component must
// satisfy is exactly the two-phase register discipline the component model
// already imposes:
//
//   * tick() reads only committed Reg state (its own and other
//     components'), writes only its own next-state/private members, and
//     calls no kernel service except trace();
//   * commit() latches only the component's own registers (an override may
//     latch a subset, e.g. those written this cycle) and reads or writes no
//     other component.
//
// Routers and NIs satisfy this by construction; components with
// cross-component tick or commit behaviour (config agents mutating their
// host element, the fault injector corrupting committed link registers,
// the health monitor sampling them, shells pushing into NI queues) stay in
// the serial set, where the single-threaded dispatch order is preserved.
// Because parallel ticks still read only state committed at the previous
// edge, the result is cycle-for-cycle identical to the serial schedule;
// trace records emitted inside parallel phases are staged per shard and
// merged back in registration order, keeping traces and interned ids
// byte-identical to an unsharded run (the ctests diff them).
//
// The TDM schedule is what makes this partitioning profitable: routers and
// NIs act only at slot boundaries (stride words_per_slot), so dispatched
// cycles alternate between empty ones (fast-forwarded) and slot starts
// where the whole mesh is due at once — a wide, perfectly balanced
// parallel region with one slot of guaranteed lookahead on every
// cross-shard link (a flit committed into a boundary register this slot
// cannot be observed by the downstream shard before the next one).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/types.hpp"

namespace daelite::sim {

class Component;
class Tracer;
enum class TraceEvent : std::uint16_t;

/// Which cycle loop a Kernel runs. See file comment.
enum class Scheduler { kStride, kReference };

/// A component's tick/commit cadence: due at cycles where
/// cycle % stride == phase. The default (stride 1) is "every cycle".
struct Cadence {
  std::uint32_t stride = 1;
  std::uint32_t phase = 0;
};

class Kernel {
 public:
  /// Shard id of components that run in the serial set (the default).
  static constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;

  explicit Kernel(Scheduler scheduler = Scheduler::kStride)
      : scheduler_(scheduler) {}
  /// Components still alive are detached, not destroyed: one may outlive
  /// its kernel (instrumentation a soc::RunSpec::on_network hook owns) as
  /// long as it is only destroyed afterwards, never run.
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Scheduler scheduler() const { return scheduler_; }

  /// Number of shard workers (1 = fully serial execution, the default).
  /// Call between steps only. Values are clamped to [1, 64]. No-op under
  /// kReference (the oracle stays single-threaded by definition).
  void set_shards(std::uint32_t n);
  std::uint32_t shards() const { return shards_; }

  /// Assign a component to shard `shard` in [0, shards()), or back to the
  /// serial set with kNoShard. Only components obeying the sharded-tick
  /// contract (see file comment) may be assigned. Call between steps only.
  void assign_shard(Component& c, std::uint32_t shard);

  /// Current cycle number. Cycle N covers the Nth tick/commit pair;
  /// now() increments after the commit phase.
  Cycle now() const { return now_; }

  /// Advance exactly one cycle: tick all due components, then commit.
  void step();

  /// Advance n cycles. Under the stride scheduler, spans where no
  /// component is due (and none has a pending external write) are
  /// fast-forwarded without per-cycle work; so are spans where every
  /// active component certifies its tick a no-op (Component::quiescent()),
  /// e.g. a fully drained network carrying only empty slots.
  void run(Cycle n);

  /// Advance until pred() is true (checked after each cycle boundary) or
  /// max_cycles elapse. Returns true iff the predicate fired within the
  /// budget; on timeout the predicate is NOT re-evaluated and the call
  /// returns false with now() == start + max_cycles.
  ///
  /// Contract under the stride scheduler: idle spans are fast-forwarded,
  /// so a predicate's value may only change at cycles where some component
  /// is dispatched or woken (this holds for any predicate over committed
  /// component state, and for time-dependent predicates such as
  /// ConfigModule::idle() whose flip cycle coincides with the component's
  /// own wake cycle). Predicates violating this may be observed late.
  bool run_until(const std::function<bool()>& pred, Cycle max_cycles);

  /// Number of live (not yet destroyed) components.
  std::size_t component_count() const { return live_count_; }

  /// Deactivate a component until wake(): it stops ticking and committing
  /// from the next cycle on. The caller asserts the component is quiescent
  /// (its registers hold values that re-committing would not change and
  /// its tick is a no-op while suspended). No-op under kReference.
  void suspend(Component& c) { sleep_component(c, kNoCycle); }

  /// Put a component to sleep until cycle wake_at (it still commits the
  /// current cycle). No-op under kReference or when wake_at is next cycle.
  void sleep(Component& c, Cycle wake_at) { sleep_component(c, wake_at); }

  /// Reactivate a suspended/sleeping component from the next dispatch
  /// point (the cycle of the call if invoked between steps, the next
  /// cycle if invoked mid-step). No-op when already active.
  void wake(Component& c);

  /// Attach a structured event tracer (sim/trace.hpp). The kernel does not
  /// own it; pass nullptr to detach. Components check this pointer on
  /// every trace() call, so attaching before or after construction both
  /// work — attach before for complete traces.
  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }

  // --- Batched-dispatch engine services (hw::SlotEngine) ---------------------
  // A batched engine is one Component that ticks and commits a whole band
  // of suspended elements itself. These two hooks keep its dispatch
  // byte-identical to per-component dispatch: records an element emits
  // while the engine dispatches it merge at the element's registration
  // index, and the staged-path width threshold sees the band's true
  // element count rather than "one component".

  /// Re-key staged records to component `c` for the rest of the current
  /// dispatch (no-op outside a staged phase). For engines that call into
  /// an element's own tick body, whose trace() calls would otherwise
  /// stage under the engine's index.
  void set_stage_key(const Component& c);

  /// Weight of `c` in the staged-path width threshold (default 1). A
  /// batched engine reports its band's element count so the pool
  /// engages exactly where per-component dispatch would have.
  void set_dispatch_weight(Component& c, std::uint32_t weight);

  /// One trace record emitted inside a staged dispatch phase, parked until
  /// the phase joins. `key` is the registration index of the *dispatched*
  /// component (an agent relaying into its host element stages under the
  /// agent's slot, exactly where the record lands serially); records with
  /// equal keys keep their emission order within one buffer. Public only
  /// for the kernel-internal thread-local dispatch context.
  struct StagedTrace {
    std::uint32_t key;
    const Component* emitter; ///< whose name the record carries
    TraceEvent event;
    std::uint64_t arg0;
    std::uint64_t arg1;
  };

 private:
  friend class Component;

  /// Longest supported precomputed schedule. Components whose stride does
  /// not divide the (capped) period fall back to a per-cycle residue check.
  static constexpr Cycle kMaxPeriod = 4096;

  void add(Component* c);
  /// Deferred removal: tombstone the slot now, sweep between cycles —
  /// safe to call from inside tick()/commit() (components destroying
  /// other components, or themselves, mid-phase).
  void remove(Component* c);
  /// Register c for a commit at the end of the current cycle because its
  /// state was mutated outside its own tick (queue push/pop from a shell,
  /// the runner, or a host). No-op under kReference.
  void notify_external_write(Component* c);

  /// Trace-record path shared by every Component::trace() call: appends
  /// directly to `t` outside parallel phases, stages into the calling
  /// shard's buffer inside them (merged back in registration order at the
  /// phase join). Interned-id caching lives here so staged records resolve
  /// their ids in merged order — identical to the serial interning order.
  void record_trace(const Component& c, Tracer& t, TraceEvent event, std::uint64_t arg0,
                    std::uint64_t arg1);

  void sleep_component(Component& c, Cycle wake_at);
  void wake_due();
  void rebuild_schedule();
  void sweep_tombstones();
  bool due_now(const Component& c, Cycle cycle) const;
  bool cycle_is_idle(Cycle cycle) const;
  /// True when every active component certifies quiescence (see
  /// Component::quiescent()) — the network state is a fixed point and
  /// run()/run_until() may skip ahead to the next wake or budget end.
  bool all_quiescent() const;
  /// First cycle in [from, limit) where a scheduled or guarded component
  /// is due; limit if none (the due table is periodic, so scanning one
  /// period is exhaustive).
  Cycle next_due_cycle(Cycle from, Cycle limit) const;
  void step_reference();
  void step_stride();
  /// The cycle body when the residue-`r` due lists carry shard-assigned
  /// work: shard lists run first (on the worker pool when `use_pool`,
  /// inline on the driver otherwise), then the serial set, with
  /// staged-trace merges at the joins. Shard-before-serial is the order
  /// the serial loop already implies — every element registers before
  /// its config agent, and the cross-component commits (injector,
  /// monitor) live in the serial set — so both variants are
  /// byte-identical to plain index-order dispatch.
  void step_stride_staged(std::size_t r, bool use_pool);
  /// Shared by run()/run_until(): advance one dispatch point, either by
  /// executing the current cycle or by fast-forwarding to the next cycle
  /// (< end) where anything is due. Returns the kernel to a state where
  /// now() has advanced by at least one.
  void advance_or_skip(Cycle end);

  // --- Sharded execution (see file comment) ----------------------------------
  /// Run one parallel round: every worker (and the driving thread, as
  /// shard 0) executes `phase` (0 = tick, 1 = commit) over its per-shard
  /// due list, then all join.
  void run_parallel_round(int phase);
  void run_shard_list(const std::vector<std::uint32_t>& list, int phase,
                      std::vector<StagedTrace>* stage);
  /// Merge per-shard staged records (each ascending by key) into the
  /// tracer in global registration order and clear the buffers.
  void flush_staged_traces();
  void start_workers();
  void stop_workers();
  void worker_loop(std::uint32_t shard);

  Scheduler scheduler_;
  std::vector<Component*> components_; ///< registration order; null = tombstone
  std::size_t live_count_ = 0;
  bool has_tombstones_ = false;

  // Precomputed dispatch schedule (stride scheduler only).
  bool schedule_dirty_ = true;
  Cycle period_ = 1;
  std::vector<std::vector<std::uint32_t>> due_; ///< per residue, ascending indices
  std::vector<std::uint32_t> guarded_;          ///< stride doesn't divide period_
  std::vector<std::uint32_t> guarded_due_;      ///< per-cycle scratch of due guarded
  std::vector<std::uint32_t> touched_;          ///< pending end-of-cycle commits
  std::size_t sleeping_count_ = 0;
  Cycle next_wake_ = kNoCycle;

  // Shard partition of the due table (built when shards_ > 1 or any
  // active component is shard-assigned — batched engines are assigned
  // even single-threaded, so their band dispatch lands before the serial
  // set): due_shard_[r * shards_ + s] holds the shard-s subset of
  // due_[r], due_serial_[r] the serial-set subset, both ascending.
  // due_shard_weight_[r * shards_ + s] is the summed dispatch weight of
  // that list (elements covered, not components listed).
  std::uint32_t shards_ = 1;
  bool has_partition_ = false;
  std::vector<std::vector<std::uint32_t>> due_shard_;
  std::vector<std::vector<std::uint32_t>> due_serial_;
  std::vector<std::size_t> due_shard_weight_;
  std::vector<std::vector<StagedTrace>> stage_;   ///< per shard + one serial buffer
  bool staging_ = false;      ///< inside a parallel phase with a live tracer
  bool in_parallel_ = false;  ///< workers running (guards kernel services)

  // Worker pool (lazily started by the first parallel cycle).
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;   ///< wakes workers on a new round
  std::condition_variable done_cv_;   ///< wakes the driver when a round ends
  std::uint64_t round_ = 0;           ///< generation counter of rounds
  int round_phase_ = 0;               ///< 0 = tick, 1 = commit
  std::size_t round_remaining_ = 0;
  const std::vector<std::uint32_t>* round_lists_ = nullptr; ///< [shards_] due lists
  bool pool_stop_ = false;

  Cycle now_ = 0;
  Tracer* tracer_ = nullptr;
};

} // namespace daelite::sim
