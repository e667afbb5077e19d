#pragma once
// Contention-free slot allocation — the "network dimensioning" half of the
// Æthereal toolflow the paper leverages ("we leverage on existing tools for
// network dimensioning, analysis and instantiation", §I; the schedule "is
// typically computed at design time", §IV).
//
// A channel asking for B slots per TDM wheel needs a path (or multicast
// tree) plus a set of injection slots q such that every tree link at depth
// k is free in slot slot_at_link(q, k). The allocator searches candidate
// paths (k-shortest) and picks injection slots by policy.
//
// Two usage modes share this class:
//  * offline dimensioning (the historical front end): each request runs a
//    fresh k-shortest search plus a per-slot scan of the schedule;
//  * the online churn service (alloc/churn.hpp): `incremental = true`
//    reuses prior search state — k-shortest results are memoized per
//    (src, dst) pair until the quarantine set changes, and the injection
//    slot scan is replaced by rotate-and-AND over per-link free-slot
//    bitmasks maintained on every reserve/release. Both modes make
//    byte-identical admit/reject decisions and pick identical routes; the
//    incremental mode only removes redundant work (tests/test_churn.cpp
//    pins the equivalence on replayed request logs).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alloc/route.hpp"
#include "tdm/params.hpp"
#include "tdm/schedule.hpp"
#include "topology/graph.hpp"
#include "topology/path.hpp"

namespace daelite::alloc {

/// QoS service class of a channel / connection — the degradation order
/// every robustness path honors: guaranteed-throughput traffic keeps its
/// reservations at the expense of best-effort traffic (preemption,
/// admission quotas, overload shedding), standard traffic sits between.
/// The numeric values are stable: they enter decision digests and reports.
enum class ServiceClass : std::uint8_t {
  kGuaranteed = 0, ///< never shed, never preempted; may preempt best-effort
  kStandard = 1,   ///< default; shed under overload after best-effort
  kBestEffort = 2, ///< first to shed, only class eligible for preemption
};
inline constexpr std::size_t kServiceClassCount = 3;
std::string_view service_class_name(ServiceClass c);
/// Inverse of service_class_name ("guaranteed" / "standard" / "best_effort").
bool parse_service_class(std::string_view token, ServiceClass* out);

struct ChannelSpec {
  topo::NodeId src_ni = topo::kInvalidNode;
  std::vector<topo::NodeId> dst_nis;
  std::uint32_t slots_required = 1; ///< bandwidth, in slots per wheel
  ServiceClass service_class = ServiceClass::kStandard;
};

enum class SlotPolicy {
  kFirstFit, ///< lowest free injection slots
  kSpread,   ///< spread slots evenly around the wheel (lower scheduling latency)
};

struct AllocatorOptions {
  std::size_t path_candidates = 8; ///< k for the k-shortest path search
  SlotPolicy slot_policy = SlotPolicy::kSpread;
  /// Reuse search state across requests: memoized k-shortest paths and
  /// bitmask-based injection-slot search. Decision-identical to the
  /// from-scratch mode; only the per-request cost changes.
  bool incremental = false;
};

/// kSpread slot picking: `want` entries of `avail` (sorted ascending) at
/// evenly spread positions, in integer arithmetic. Exposed as a free
/// function so the churn property tests can drive it with arbitrary
/// (avail, want) pairs. For want <= avail.size() the picked positions
/// (i * avail.size()) / want are strictly increasing — the historical
/// accumulated-double implementation (`pos += stride`) could repeat or
/// overrun an index once rounding error built up.
std::vector<tdm::Slot> spread_pick(const std::vector<tdm::Slot>& avail, std::uint32_t want);

class SlotAllocator {
 public:
  SlotAllocator(const topo::Topology& topo, tdm::TdmParams params,
                AllocatorOptions options = {});

  const tdm::Schedule& schedule() const { return schedule_; }
  const tdm::TdmParams& params() const { return params_; }
  const topo::Topology& topology() const { return *topo_; }
  const AllocatorOptions& options() const { return options_; }

  /// Switch the slot-picking policy mid-life. The compaction pass re-packs
  /// live connections under kFirstFit regardless of the service's steady-
  /// state policy, then restores the original.
  void set_slot_policy(SlotPolicy p) { options_.slot_policy = p; }

  /// Allocate a channel (unicast or multicast). Returns the route with a
  /// fresh (possibly recycled) ChannelId, or nullopt if the spec is
  /// invalid (see valid_spec) or no path/slot combination fits.
  std::optional<RouteTree> allocate(const ChannelSpec& spec);

  /// Allocate along a caller-chosen path (slots only). Used by tests and
  /// by the multipath allocator. Rejects empty paths and zero-slot
  /// requests (a zero-bandwidth channel would leak ChannelIds and
  /// live-channel accounting).
  std::optional<RouteTree> allocate_on_path(const topo::Path& path, std::uint32_t slots_required);

  /// A spec is allocatable only if it asks for at least one slot, names a
  /// valid source NI and at least one destination NI, and its destination
  /// list contains no duplicates and not the source.
  bool valid_spec(const ChannelSpec& spec) const;

  /// Free every reservation of the route's channel and recycle its
  /// ChannelId (a later allocate() may hand the id out again). Releasing
  /// an already-released route is a no-op.
  void release(const RouteTree& route);

  /// Reserve one raw (link, slot) pair for an externally-managed channel.
  /// Used by tests and ablation studies to shape residual capacity. Raw
  /// channel ids never enter the recycling free-list; callers should keep
  /// them far from the allocator's own id range (which stays dense near
  /// the peak live-channel count).
  bool reserve_raw(topo::LinkId link, tdm::Slot slot, tdm::ChannelId ch);

  /// Re-reserve a previously released route exactly as it was (same
  /// channel id, same slots). Returns false and rolls back if any of its
  /// (link, slot) pairs has been taken in the meantime. Used by the
  /// use-case switching flow to restore state after a failed switch, and
  /// by the recovery runner to mirror the dimensioned allocation into a
  /// live allocator. A successful restore re-claims the route's ChannelId:
  /// it is removed from the recycling free-list if it was waiting there,
  /// and the fresh-id watermark advances past it — a later allocate() must
  /// never hand out an id that would alias a restored route's reservations.
  bool restore(const RouteTree& route);

  // --- Preemptive healing ------------------------------------------------------

  /// What tearing down a set of channels would buy a (guaranteed) request
  /// that allocate() rejected: a candidate path plus the minimal set of
  /// preemptable channels whose release makes >= slots_required injection
  /// slots feasible on it. The caller releases the victims' routes (it
  /// owns the ChannelId -> route mapping) and re-runs allocate().
  struct PreemptionPlan {
    topo::Path path;              ///< candidate path the plan frees up
    std::size_t path_index = 0;   ///< its index among candidate_paths()
    std::vector<tdm::ChannelId> victims; ///< channels to release, ascending
  };

  /// Min-victims scoring pass over the candidate paths of a unicast spec:
  /// per path, every injection slot whose (link, slot) pairs are each free
  /// or owned by a channel `preemptable` approves is feasible; slots are
  /// chosen greedily to add the fewest new victims; the path with the
  /// smallest victim set wins (ties: lower path index). Returns nullopt
  /// for multicast specs or when no path can be freed even with every
  /// preemptable channel gone. Deterministic and read-only on the
  /// schedule; identical between incremental and from-scratch modes.
  /// `preemptable` is any bool(tdm::ChannelId) callable, called inline.
  template <typename Preemptable>
  std::optional<PreemptionPlan> plan_preemption(const ChannelSpec& spec,
                                                const Preemptable& preemptable);

  // --- Link quarantine ---------------------------------------------------------

  /// Exclude a link from every future allocation (health-monitor verdict:
  /// the link drops or corrupts words). Existing reservations that cross
  /// the link are untouched — tearing the affected connections down and
  /// re-allocating them around the quarantine is the recovery runner's
  /// job. Idempotent. Invalidates the incremental path cache.
  void quarantine_link(topo::LinkId link);
  void clear_quarantine();
  bool is_quarantined(topo::LinkId link) const {
    return link < quarantined_.size() && quarantined_[link];
  }
  /// Quarantined link ids, ascending (the report's `recovery.quarantined`).
  std::vector<topo::LinkId> quarantined_links() const;

  /// Injection slots currently available for the given route tree shape.
  std::vector<tdm::Slot> free_inject_slots(const RouteTree& shape) const;

  /// k-shortest candidate paths src -> dst under the current quarantine.
  /// Incremental mode memoizes the answer until the quarantine changes;
  /// from-scratch mode recomputes (identical result either way). Also used
  /// by the churn service to diagnose fragmentation-caused rejections.
  const std::vector<topo::Path>& candidate_paths(topo::NodeId src, topo::NodeId dst);

  std::size_t allocated_channels() const { return live_channels_; }

  // --- Incremental-search summaries -------------------------------------------

  /// Free slots on a link right now, from the maintained per-link bitmask
  /// summary (O(1), exact mirror of the schedule).
  std::uint32_t link_free_slots(topo::LinkId link) const;

  /// Fraction of all (link, slot) pairs reserved — O(1) from the running
  /// counter (Schedule::utilization() is the O(links x slots) oracle; the
  /// two always agree).
  double utilization() const;

  // --- ChannelId recycling introspection (tests, fragmentation reports) --------

  /// Ids currently waiting for reuse.
  std::size_t free_id_count() const { return free_ids_.size(); }
  /// Lowest id never handed out: the high-water mark of id consumption.
  /// With recycling this tracks the peak live-channel count, not the total
  /// number of allocations.
  tdm::ChannelId channel_id_watermark() const { return next_channel_; }

 private:
  tdm::ChannelId next_channel_id();
  void recycle_channel_id(tdm::ChannelId ch);
  /// Drop `ch` from the free-list if present (restore() re-claims ids).
  void unrecycle_channel_id(tdm::ChannelId ch);

  /// Pick `want` slots from `avail` (sorted) per the slot policy.
  std::vector<tdm::Slot> choose_slots(const std::vector<tdm::Slot>& avail, std::uint32_t want) const;

  /// Reserve all (link, slot) pairs of the route. Asserts availability.
  void commit(const RouteTree& route);

  // Bitmask / counter bookkeeping around every schedule mutation.
  void note_reserved(topo::LinkId link, tdm::Slot slot);
  void note_released(topo::LinkId link, tdm::Slot slot);

  std::optional<RouteTree> allocate_unicast(const ChannelSpec& spec);
  std::optional<RouteTree> allocate_multicast(const ChannelSpec& spec);

  /// Grow `tree` (the route of `trunk`) into a multicast tree, attaching
  /// the remaining destinations by shortest non-tree branches. Returns
  /// false if some destination cannot be attached.
  bool grow_tree(RouteTree& tree, const topo::Path& trunk, const ChannelSpec& spec) const;

  /// Greedy min-victims cover of `want` slots out of `feasible` (at least
  /// `want` entries, each the sorted victims that free one injection slot,
  /// in slot order): repeatedly take the unchosen slot adding the fewest
  /// channels not already condemned (ties: lowest slot). Returns the
  /// condemned channels, ascending.
  static std::vector<tdm::ChannelId> min_victim_cover(
      const std::vector<std::vector<tdm::ChannelId>>& feasible, std::uint32_t want);

  const topo::Topology* topo_;
  tdm::TdmParams params_;
  AllocatorOptions options_;
  tdm::Schedule schedule_;
  topo::PathFinder finder_;
  tdm::ChannelId next_channel_ = 0;
  std::size_t live_channels_ = 0;
  std::vector<bool> quarantined_; ///< empty until the first quarantine

  // Per-link free-slot bitmasks (bit s set = slot s free) plus the global
  // reservation counter. Maintained on every reserve/release so the
  // incremental mode can answer free_inject_slots with |edges| word ops
  // and utilization() in O(1).
  std::vector<std::uint64_t> free_mask_;
  std::uint64_t wheel_mask_ = 0;
  std::size_t reserved_pairs_ = 0;

  /// Released ChannelIds awaiting reuse, kept as a min-heap so the lowest
  /// id is recycled first (deterministic, keeps the id space dense).
  std::vector<tdm::ChannelId> free_ids_;

  /// Memoized k-shortest results, keyed by (src << 32) | dst. Cleared
  /// whenever the quarantine set changes (the only input besides the
  /// static topology). Only consulted in incremental mode.
  std::unordered_map<std::uint64_t, std::vector<topo::Path>> path_cache_;
  std::vector<topo::Path> scratch_paths_; ///< from-scratch mode's return slot

  // grow_tree scratch: depth + 1 of each tree node (0 = off the tree), and
  // the links no branch may use.
  mutable std::vector<std::uint32_t> tree_depth_;
  mutable std::vector<std::uint8_t> tree_blocked_;
};

template <typename Preemptable>
std::optional<SlotAllocator::PreemptionPlan> SlotAllocator::plan_preemption(
    const ChannelSpec& spec, const Preemptable& preemptable) {
  if (!valid_spec(spec) || spec.dst_nis.size() != 1) return std::nullopt;

  std::optional<PreemptionPlan> best;
  const auto& paths = candidate_paths(spec.src_ni, spec.dst_nis[0]);
  for (std::size_t pi = 0; pi < paths.size(); ++pi) {
    const topo::Path& p = paths[pi];
    if (p.empty()) continue;

    // Feasible injection slots under "free OR preemptable" occupancy, each
    // with the channels that would have to go (sorted, unique). Link j of a
    // path sits at depth j of its route.
    std::vector<std::vector<tdm::ChannelId>> feasible;
    for (tdm::Slot q = 0; q < params_.num_slots; ++q) {
      std::vector<tdm::ChannelId> victims;
      bool ok = true;
      for (std::size_t j = 0; j < p.links.size(); ++j) {
        const tdm::ChannelId owner = schedule_.owner(p.links[j], params_.slot_at_link(q, j));
        if (owner == tdm::kNoChannel) continue;
        if (!preemptable(owner)) {
          ok = false;
          break;
        }
        const auto it = std::lower_bound(victims.begin(), victims.end(), owner);
        if (it == victims.end() || *it != owner) victims.insert(it, owner);
      }
      if (ok) feasible.push_back(std::move(victims));
    }
    if (feasible.size() < spec.slots_required) continue;

    std::vector<tdm::ChannelId> condemned = min_victim_cover(feasible, spec.slots_required);
    if (!best || condemned.size() < best->victims.size()) {
      best.emplace();
      best->path = p;
      best->path_index = pi;
      best->victims = std::move(condemned);
      if (best->victims.empty()) break; // cannot beat a free path
    }
  }
  return best;
}

} // namespace daelite::alloc
