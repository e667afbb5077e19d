#pragma once
// Online allocation service under churn — the paper's fast-connection-
// set-up claim turned into a long-running server (ROADMAP: "millions of
// connections"). Instead of the offline front end that dimensions one
// use-case and stops, a ChurnService fields an open-loop stream of
// set-up / tear-down / modify requests against a live SlotAllocator:
//
//  * admission control bounds what a request may ask for (slots, path
//    length, worst-case latency, schedule utilization) before and after
//    the route search;
//  * the allocator's incremental mode (AllocatorOptions::incremental)
//    memoizes k-shortest candidate paths per (src, dst) pair and keeps
//    per-link free-slot bitmasks, so the per-request cost no longer grows
//    with schedule occupancy;
//  * fragmentation gauges sample how much per-link capacity has become
//    unusable because no injection slot lines up across a whole path —
//    the signal a compaction pass would act on.
//
// The search formulation follows Even & Fais, "Algorithms for NoC Design
// with Guaranteed QoS" (PAPERS.md): incremental path/slot search over a
// live reservation state rather than a from-scratch recomputation.
//
// Determinism contract: everything here is seeded and single-threaded.
// run_churn() produces a byte-stable report (decision digest included)
// for a given (options, allocator mode) pair, and the digest is identical
// between incremental and from-scratch allocators — the oracle CI pins.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/usecase.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace daelite::alloc {

/// Bounds a set-up or modify request must satisfy to be admitted. All
/// limits default to "unbounded".
struct AdmissionControl {
  std::uint32_t max_request_slots = 0;  ///< per-channel bandwidth cap (0 = none)
  std::uint32_t max_path_hops = 0;      ///< longest admissible route, in links (0 = none)
  std::uint64_t max_latency_cycles = 0; ///< worst-case scheduling+path latency (0 = none)
  double max_utilization = 1.0;         ///< refuse set-ups once the schedule is this full

  /// Per-service-class quota layered under the global bounds (multi-tenant
  /// quotas): indexed by ServiceClass value. The defaults keep every class
  /// unbounded, i.e. behaviour and digests identical to pre-class builds.
  struct ClassQuota {
    std::uint64_t max_live = 0;   ///< live connections of this class (0 = unbounded)
    double max_utilization = 1.0; ///< refuse this class's set-ups above this occupancy
  };
  std::array<ClassQuota, kServiceClassCount> quota{};

  /// Allow a guaranteed set-up that found no route to tear down best-effort
  /// connections along a candidate path (SlotAllocator::plan_preemption,
  /// min-victims). Off by default: preemption changes decisions, so it must
  /// be an explicit policy choice.
  bool preempt_best_effort = false;
};

enum class ChurnStatus : std::uint8_t {
  kAdmitted = 0,
  kRejectedAdmission = 1, ///< violated an AdmissionControl bound
  kRejectedNoRoute = 2,   ///< no path/slot combination fit
  kUnknownConnection = 3, ///< tear_down/modify of an id not live
};

/// Worst-case cycles from "word ready at the source NI" to "word accepted
/// at the deepest destination": longest wait for the next owned injection
/// slot plus the pipeline depth. The admission controller's latency bound
/// checks this against AdmissionControl::max_latency_cycles.
std::uint64_t worst_case_latency_cycles(const RouteTree& route, const tdm::TdmParams& params);

struct ChurnMetrics {
  sim::Counter setups;             ///< set-up requests fielded
  sim::Counter admitted;           ///< ... of which were admitted
  sim::Counter rejected_admission; ///< ... refused by admission control
  sim::Counter rejected_no_route;  ///< ... refused for lack of path/slots
  sim::Counter rejected_fragmentation; ///< set-up no-route rejects where capacity existed but misaligned
  sim::Counter teardowns;
  sim::Counter modifies;
  sim::Counter modify_failed_restored; ///< failed modifies whose old route was restored
  sim::Counter rollback_failures;      ///< restores that failed (must stay 0)
  sim::Counter preemptions;            ///< best-effort connections torn down for guaranteed set-ups
  sim::Gauge utilization;              ///< sampled schedule occupancy
  sim::Gauge fragmentation;            ///< sampled misalignment gauge (see sample_fragmentation)
  sim::Histogram admitted_hops{64};    ///< request-route depth of admitted connections
};

/// Per-service-class slice of a churn run (ChurnReport::per_class, indexed
/// by ServiceClass value). `setups` counts first attempts only; retries of
/// the overload queue are counted separately, and `admitted` counts both.
struct ClassStats {
  std::uint64_t setups = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_admission = 0;
  std::uint64_t rejected_no_route = 0;
  std::uint64_t shed = 0;     ///< dropped by overload control (queue full / retries spent)
  std::uint64_t retries = 0;  ///< re-attempts the overload queue replayed
  std::uint64_t preempted = 0; ///< live connections torn down for guaranteed traffic
  sim::Histogram latency_cycles{64}; ///< worst-case latency of admitted request routes
};

/// A long-running connection-request service over one live allocator —
/// the one owner of live reservations for both of its callers: run_churn
/// below (open-loop request streams) and the recovery runner
/// (soc::run_scenario), which adopts the dimensioned allocation and
/// drives every repair, preemption and compaction through here.
/// Connections are bidirectional like the use-case layer's (request
/// channel plus, for unicast specs with response_slots > 0, a response
/// channel); multicast requests carry no response.
class ChurnService {
 public:
  struct Result {
    ChurnStatus status = ChurnStatus::kRejectedNoRoute;
    std::uint64_t connection = 0; ///< service-level id, valid iff admitted
  };

  explicit ChurnService(SlotAllocator& alloc, AdmissionControl admission = {});

  /// Set up a connection. On kAdmitted the returned id names the live
  /// connection for tear_down/modify.
  Result set_up(const ConnectionSpec& spec);

  /// Tear a live connection down, releasing both channels (their
  /// ChannelIds return to the allocator's recycling free-list).
  ChurnStatus tear_down(std::uint64_t connection);

  /// Change a live connection's bandwidth. Transactional: the old
  /// reservations are released, the new request is allocated under the
  /// same admission rules, and on any failure the old reservations are
  /// restored exactly (same ChannelIds — restore_connection, as the
  /// switching roll-back does).
  Result modify(std::uint64_t connection, std::uint32_t request_slots,
                std::uint32_t response_slots);

  /// Take over a connection routed elsewhere (a dimensioned allocation):
  /// restore its request and response as a unit and register it under the
  /// next id, so adopting a list in order numbers it 0, 1, 2, ...
  /// kRejectedNoRoute (nothing registered) if a reservation is taken.
  Result adopt(const AllocatedConnection& conn);

  /// Route a live connection again under its own spec, keeping its id —
  /// the repair of a connection whose route crosses a quarantined link.
  /// Both channels are released and re-allocated; a guaranteed connection
  /// that finds no route preempts best-effort ones when
  /// AdmissionControl::preempt_best_effort is set (victims in
  /// last_preempted()). On failure the connection is torn down.
  Result reroute(std::uint64_t connection);

  const AllocatedConnection* connection(std::uint64_t id) const;
  std::size_t live_connections() const { return live_order_.size(); }
  /// The i-th live connection id, in a deterministic (insertion /
  /// swap-remove) order — the workload generator picks tear-down and
  /// modify victims through this.
  std::uint64_t live_id_at(std::size_t i) const { return live_order_[i]; }

  const ChurnMetrics& metrics() const { return metrics_; }
  SlotAllocator& allocator() { return *alloc_; }

  /// Live connections of one service class (quota bookkeeping).
  std::uint64_t live_of_class(ServiceClass c) const {
    return live_by_class_[static_cast<std::size_t>(c)];
  }

  /// Service ids the most recent set_up() or reroute() preempted
  /// (ascending; victims are best-effort by construction). Cleared on
  /// every set_up and reroute — the replay harness folds them into the
  /// decision digest.
  const std::vector<std::uint64_t>& last_preempted() const { return last_preempted_; }

  /// One background compaction pass: walk live non-guaranteed connections
  /// in id order and re-allocate each under kFirstFit (close-before-open at
  /// the allocator level), keeping a move only when it strictly lowers the
  /// (highest inject slot, route depth) packing score; otherwise the old
  /// reservations are restored exactly (same ChannelIds). Guaranteed
  /// channels are never touched mid-stream. Deterministic; the digest over
  /// every accepted move is the audit trail CI compares across modes.
  struct CompactionResult {
    std::size_t examined = 0;
    std::size_t moved = 0;
    std::uint64_t digest = 14695981039346656037ull; ///< FNV-1a over the moves
    std::vector<std::uint64_t> moves; ///< ids of the moved connections, ascending
  };
  CompactionResult compact(std::size_t max_moves);

  /// Sample the fragmentation gauge over probe paths: for each path with
  /// min-free capacity > 0, the fraction of that capacity no injection
  /// slot can actually use (1 - aligned/min_free), averaged. 0 = every
  /// free slot is usable somewhere; 1 = capacity exists but none aligns.
  /// Also feeds the utilization gauge.
  double sample_fragmentation(const std::vector<topo::Path>& probes);

 private:
  /// Allocate request (+response) under admission control; used by set_up,
  /// modify and compact. Does not touch connection bookkeeping.
  /// `new_connection = false` (modify / compact re-admission) skips the
  /// per-class quota checks — the class population does not grow.
  Result allocate_connection(const ConnectionSpec& spec, AllocatedConnection* out,
                             bool new_connection = true);
  /// Guaranteed fallback of set_up and reroute: plan a min-victims
  /// preemption for the failing channel, tear the victims down, retry.
  /// Bounded rounds.
  Result preempt_and_retry(const ConnectionSpec& spec, AllocatedConnection* out,
                           bool new_connection);
  bool admit_route(const RouteTree& route) const;
  /// After a no-route reject: did any candidate path have enough free
  /// slots on every link (capacity) without enough aligned injection
  /// slots? That is fragmentation, not exhaustion.
  bool reject_was_fragmentation(const ChannelSpec& spec);

  using ConnMap = std::unordered_map<std::uint64_t, AllocatedConnection>;
  void insert_live(std::uint64_t id, AllocatedConnection conn);
  void own_channels(std::uint64_t id, const AllocatedConnection& c);
  void release_channels(const AllocatedConnection& c);
  /// Release a connection's channels (a no-op for already-released ones)
  /// and forget it: the one removal path of tear-down, preemption, failed
  /// re-routes and failed roll-backs.
  void remove(ConnMap::iterator it);
  /// Roll a re-allocation back: put `old`'s reservations back as a unit
  /// (restore_connection), or drop the connection if they are taken.
  bool restore_or_drop(ConnMap::iterator it, const AllocatedConnection& old);
  void unlink_live(std::uint64_t id);

  /// Whether the most recent kRejectedNoRoute from allocate_connection was
  /// diagnosed as fragmentation (classified before any partial release).
  bool last_no_route_was_frag_ = false;

  SlotAllocator* alloc_;
  AdmissionControl admission_;
  ChurnMetrics metrics_;
  std::uint64_t next_id_ = 0;
  ConnMap conns_;
  std::unordered_map<std::uint64_t, std::size_t> live_index_; ///< id -> slot in live_order_
  std::vector<std::uint64_t> live_order_;
  /// By ChannelId (dense: the allocator recycles ids): the owning service
  /// id and the best-effort bit the preemption planner asks per slot.
  struct ChannelOwner {
    std::uint64_t id = 0;
    bool best_effort = false;
  };
  std::vector<ChannelOwner> channel_owner_;
  std::array<std::uint64_t, kServiceClassCount> live_by_class_{};
  std::vector<std::uint64_t> last_preempted_;
};

// --- Open-loop workload ------------------------------------------------------

/// Parameters of the open-loop request stream: Poisson set-up arrivals,
/// exponential connection lifetimes (tear-downs fire when their simulated
/// expiry passes, independent of the service's responses — open loop),
/// and a fraction of arrivals that modify a live connection instead.
struct ChurnWorkloadOptions {
  std::uint64_t seed = 1;
  double arrival_rate = 0.001;      ///< set-ups per simulated cycle
  double mean_hold_cycles = 200000; ///< mean connection lifetime
  double modify_fraction = 0.10;    ///< arrivals that modify instead of set up
  double multicast_fraction = 0.10; ///< set-ups with >1 destination
  std::uint32_t max_fanout = 3;     ///< destinations of a multicast set-up
  std::uint32_t min_slots = 1;
  std::uint32_t max_slots = 4;
  std::uint32_t response_slots = 1; ///< 0 = unidirectional connections
  /// Service-class mix of generated set-ups; the remainder after the two
  /// fractions is standard. Both zero (the default) skips the class draw
  /// entirely, keeping the RNG stream — and every legacy digest — intact.
  double guaranteed_fraction = 0.0;
  double best_effort_fraction = 0.0;
};

/// Deterministic request generator. Draws sources/destinations uniformly
/// from `endpoints` (the mesh's NIs), keeps a simulated clock, and owns
/// the expiry queue of live connections it created.
class ChurnWorkload {
 public:
  struct Op {
    enum class Kind : std::uint8_t { kSetUp, kTearDown, kModify } kind = Kind::kSetUp;
    double time = 0.0;              ///< simulated cycle of the event
    ConnectionSpec spec;            ///< kSetUp: what to allocate
    std::uint64_t connection = 0;   ///< kTearDown/kModify: the victim
    std::uint32_t request_slots = 0, response_slots = 0; ///< kModify: new bandwidth
  };

  ChurnWorkload(std::vector<topo::NodeId> endpoints, ChurnWorkloadOptions options);

  /// The next operation in simulated-time order. Tear-downs of expired
  /// connections fire before the next arrival; modify victims are drawn
  /// from the service's live set.
  Op next(const ChurnService& service);

  /// Tell the workload the service's verdict on its last set-up so it can
  /// schedule the connection's expiry.
  void on_setup_result(const ChurnService::Result& r);

  /// Schedule an expiry for a connection admitted outside the normal
  /// set-up flow (the overload queue's retried set-ups). `at` is absolute
  /// simulated time.
  void schedule_expiry(double at, std::uint64_t connection);

  double now() const { return now_; }

 private:
  ConnectionSpec draw_spec();

  std::vector<topo::NodeId> endpoints_;
  ChurnWorkloadOptions opt_;
  sim::Xoshiro256 rng_;
  std::uint64_t seq_ = 0; ///< names generated specs r0, r1, ...
  double now_ = 0.0;
  double next_arrival_ = 0.0;
  /// Min-heap of (expiry time, connection id) for open-loop tear-downs.
  std::vector<std::pair<double, std::uint64_t>> expiry_;
  std::optional<double> pending_hold_; ///< lifetime drawn for the in-flight set-up
};

// --- Replay harness ----------------------------------------------------------

/// Overload control for rejected set-ups: a bounded pending queue replays
/// them with exponential backoff and deterministic seeded jitter; when the
/// queue is full, shedding is class-aware — a more important arrival
/// evicts the least important waiter, so open-loop overload degrades
/// best-effort first.
struct OverloadControl {
  bool enabled = false;
  std::size_t pending_capacity = 64; ///< retry-queue bound
  std::uint32_t max_attempts = 3;    ///< total tries including the first
  double backoff_cycles = 2000.0;    ///< first retry delay; doubles per attempt
  double jitter = 0.5;               ///< uniform extra fraction of the delay
};

/// Mid-run quarantine schedule: flip links in and out of quarantine before
/// the given request index. Exercises the incremental path-cache
/// invalidation on both add and clear under the decision digest, and
/// creates the fragmentation churn a compaction pass cleans up.
struct QuarantineEvent {
  std::uint64_t at_request = 0;
  topo::LinkId link = 0;
  bool clear = false; ///< true: clear the whole quarantine set (link ignored)
};

/// Background slot compaction: a ChurnService::compact pass every `every`
/// requests (0 = never) and after every quarantine event when
/// `after_quarantine`.
struct CompactionOptions {
  std::uint64_t every = 0;
  std::size_t max_moves = 256;
  bool after_quarantine = true;
};

struct ChurnRunOptions {
  std::uint64_t requests = 100000; ///< total operations to field
  ChurnWorkloadOptions workload;
  AdmissionControl admission;
  OverloadControl overload;
  CompactionOptions compaction;
  std::vector<QuarantineEvent> quarantine_events;
  std::size_t fragmentation_samples = 64; ///< gauge samples over the run
  std::size_t probe_paths = 32;           ///< probe paths per gauge sample
  /// Called with every admitted connection (bench hooks: set-up cost
  /// models). Not part of the deterministic report.
  std::function<void(const AllocatedConnection&)> on_admit;
  /// Record per-request wall-clock service latency (bench only — the
  /// histogram is excluded from the deterministic digest).
  bool measure_latency = false;
};

struct FragSample {
  std::uint64_t at_request = 0;
  double utilization = 0.0;
  double fragmentation = 0.0;
};

struct ChurnReport {
  ChurnMetrics metrics;
  /// FNV-1a over every (op kind, status, channel ids, inject slots) —
  /// byte-stable across runs, identical between incremental and
  /// from-scratch allocators.
  std::uint64_t decision_digest = 0;
  double final_utilization = 0.0;
  std::size_t final_live = 0;
  tdm::ChannelId channel_id_watermark = 0;
  std::vector<FragSample> frag_timeline;
  /// True when any QoS feature shaped the run (class mix, quotas,
  /// preemption, overload control, compaction, quarantine events) — the
  /// tools gate the per-class report sections on this so legacy outputs
  /// stay byte-identical.
  bool qos_enabled = false;
  std::array<ClassStats, kServiceClassCount> per_class{}; ///< indexed by ServiceClass
  std::uint64_t shed_total = 0;      ///< set-ups dropped by overload control
  std::uint64_t retry_attempts = 0;  ///< replays the overload queue performed
  std::uint64_t preempted_connections = 0;
  std::uint64_t compaction_passes = 0;
  std::uint64_t compaction_moves = 0;
  /// FNV-1a over every accepted compaction move — the digest-checked
  /// decision trail (also folded into decision_digest).
  std::uint64_t compaction_digest = 0;
  /// Wall-clock nanoseconds per request, only if measure_latency.
  sim::Histogram request_latency_ns{1024};
  double wall_seconds = 0.0; ///< wall time of the whole drive loop
};

/// Drive `service`'s allocator with `options.requests` operations from a
/// fresh ChurnWorkload and collect the report. Single-threaded and fully
/// deterministic apart from the (optional) wall-clock histogram.
ChurnReport run_churn(SlotAllocator& alloc, const ChurnRunOptions& options);

} // namespace daelite::alloc
