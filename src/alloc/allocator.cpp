#include "alloc/allocator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace daelite::alloc {

namespace {

/// Rotate an S-bit slot mask right by d positions: bit q of the result is
/// bit (q + d) mod S of the input. Used to express "link at depth k is
/// free in slot slot_at_link(q, k)" as a plain AND over rotated masks.
std::uint64_t rotate_slots_right(std::uint64_t mask, std::uint32_t d, std::uint32_t num_slots,
                                 std::uint64_t wheel_mask) {
  d %= num_slots;
  if (d == 0) return mask; // << (num_slots - 0) would be UB for 64-slot wheels
  return ((mask >> d) | (mask << (num_slots - d))) & wheel_mask;
}

} // namespace

std::string_view service_class_name(ServiceClass c) {
  switch (c) {
    case ServiceClass::kGuaranteed: return "guaranteed";
    case ServiceClass::kStandard: return "standard";
    case ServiceClass::kBestEffort: return "best_effort";
  }
  return "?";
}

bool parse_service_class(std::string_view token, ServiceClass* out) {
  for (std::size_t c = 0; c < kServiceClassCount; ++c) {
    if (token != service_class_name(static_cast<ServiceClass>(c))) continue;
    *out = static_cast<ServiceClass>(c);
    return true;
  }
  return false;
}

std::vector<tdm::Slot> spread_pick(const std::vector<tdm::Slot>& avail, std::uint32_t want) {
  std::vector<tdm::Slot> picked;
  if (avail.size() < want) return picked;
  picked.reserve(want);
  // Integer arithmetic: position i maps to index (i * N) / want, which is
  // strictly increasing for want <= N (consecutive indices differ by at
  // least floor(N / want) >= 1). No accumulated floating-point error can
  // repeat or overrun an index.
  const std::size_t n = avail.size();
  for (std::uint32_t i = 0; i < want; ++i) {
    const std::size_t idx = (static_cast<std::size_t>(i) * n) / want;
#ifndef NDEBUG
    if (i > 0) {
      const std::size_t prev = (static_cast<std::size_t>(i - 1) * n) / want;
      assert(idx > prev && "spread_pick indices must be strictly increasing");
    }
    assert(idx < n);
#endif
    picked.push_back(avail[idx]);
  }
  return picked;
}

SlotAllocator::SlotAllocator(const topo::Topology& topo, tdm::TdmParams params,
                             AllocatorOptions options)
    : topo_(&topo),
      params_(params),
      options_(options),
      schedule_(topo.link_count(), params),
      finder_(topo) {
  assert(params_.valid());
  wheel_mask_ = params_.num_slots == 64 ? ~0ull : ((1ull << params_.num_slots) - 1);
  free_mask_.assign(topo.link_count(), wheel_mask_);
}

void SlotAllocator::note_reserved(topo::LinkId link, tdm::Slot slot) {
  const std::uint64_t bit = 1ull << slot;
  assert((free_mask_[link] & bit) != 0 && "summary out of sync: slot already reserved");
  free_mask_[link] &= ~bit;
  ++reserved_pairs_;
}

void SlotAllocator::note_released(topo::LinkId link, tdm::Slot slot) {
  const std::uint64_t bit = 1ull << slot;
  assert((free_mask_[link] & bit) == 0 && "summary out of sync: slot already free");
  free_mask_[link] |= bit;
  assert(reserved_pairs_ > 0);
  --reserved_pairs_;
}

std::uint32_t SlotAllocator::link_free_slots(topo::LinkId link) const {
  assert(link < free_mask_.size());
  return static_cast<std::uint32_t>(std::popcount(free_mask_[link]));
}

double SlotAllocator::utilization() const {
  const std::size_t total = free_mask_.size() * params_.num_slots;
  if (total == 0) return 0.0;
  return static_cast<double>(reserved_pairs_) / static_cast<double>(total);
}

bool SlotAllocator::reserve_raw(topo::LinkId link, tdm::Slot slot, tdm::ChannelId ch) {
  const bool was_free = schedule_.is_free(link, slot);
  if (!schedule_.reserve(link, slot, ch)) return false;
  if (was_free) note_reserved(link, slot); // idempotent re-reserve: no change
  return true;
}

std::vector<tdm::Slot> SlotAllocator::free_inject_slots(const RouteTree& shape) const {
  if (options_.incremental) {
    // AND of the per-link masks, each rotated so its depth-k slot lines up
    // with the injection slot: |edges| word operations instead of a
    // num_slots x |edges| schedule scan.
    std::uint64_t m = wheel_mask_;
    const std::uint32_t shift = params_.slot_shift_per_hop();
    for (const RouteEdge& e : shape.edges) {
      m &= rotate_slots_right(free_mask_[e.link], e.depth * shift, params_.num_slots, wheel_mask_);
      if (m == 0) break;
    }
    std::vector<tdm::Slot> out;
    out.reserve(static_cast<std::size_t>(std::popcount(m)));
    while (m != 0) {
      const auto q = static_cast<tdm::Slot>(std::countr_zero(m));
      out.push_back(q);
      m &= m - 1;
    }
#ifndef NDEBUG
    // The mask summary must agree with the schedule scan exactly.
    std::vector<tdm::Slot> check;
    for (tdm::Slot q = 0; q < params_.num_slots; ++q) {
      bool ok = true;
      for (const RouteEdge& e : shape.edges) {
        if (!schedule_.is_free(e.link, params_.slot_at_link(q, e.depth))) {
          ok = false;
          break;
        }
      }
      if (ok) check.push_back(q);
    }
    assert(out == check && "free-slot mask summary diverged from the schedule");
#endif
    return out;
  }
  std::vector<tdm::Slot> out;
  for (tdm::Slot q = 0; q < params_.num_slots; ++q) {
    bool ok = true;
    for (const RouteEdge& e : shape.edges) {
      if (!schedule_.is_free(e.link, params_.slot_at_link(q, e.depth))) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(q);
  }
  return out;
}

std::vector<tdm::Slot> SlotAllocator::choose_slots(const std::vector<tdm::Slot>& avail,
                                                   std::uint32_t want) const {
  if (avail.size() < want) return {};
  if (options_.slot_policy == SlotPolicy::kFirstFit || want == 0) {
    return {avail.begin(), avail.begin() + want};
  }
  // kSpread keeps the worst-case scheduling latency (wait for the next
  // owned slot) low by picking evenly spaced available slots.
  return spread_pick(avail, want);
}

void SlotAllocator::commit(const RouteTree& route) {
  for (tdm::Slot q : route.inject_slots) {
    for (const RouteEdge& e : route.edges) {
      const tdm::Slot s = params_.slot_at_link(q, e.depth);
      const bool ok = schedule_.reserve(e.link, s, route.channel);
      assert(ok && "commit of an infeasible route");
      (void)ok;
      note_reserved(e.link, s);
    }
  }
}

bool SlotAllocator::valid_spec(const ChannelSpec& spec) const {
  // A zero-bandwidth channel must not "succeed": committing an empty route
  // burns a ChannelId and bumps live_channels_ for a channel release()
  // can never decrement (release frees 0 slots).
  if (spec.slots_required == 0) return false;
  if (spec.dst_nis.empty()) return false;
  if (spec.src_ni >= topo_->node_count() || !topo_->is_ni(spec.src_ni)) return false;
  for (std::size_t i = 0; i < spec.dst_nis.size(); ++i) {
    const topo::NodeId dst = spec.dst_nis[i];
    if (dst >= topo_->node_count() || !topo_->is_ni(dst)) return false;
    if (dst == spec.src_ni) return false;
    for (std::size_t j = i + 1; j < spec.dst_nis.size(); ++j)
      if (spec.dst_nis[j] == dst) return false;
  }
  return true;
}

tdm::ChannelId SlotAllocator::next_channel_id() {
  if (!free_ids_.empty()) {
    std::pop_heap(free_ids_.begin(), free_ids_.end(), std::greater<>{});
    const tdm::ChannelId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  return next_channel_++;
}

void SlotAllocator::recycle_channel_id(tdm::ChannelId ch) {
  if (ch == tdm::kNoChannel) return;
#ifndef NDEBUG
  assert(std::find(free_ids_.begin(), free_ids_.end(), ch) == free_ids_.end() &&
         "double-recycled ChannelId");
#endif
  free_ids_.push_back(ch);
  std::push_heap(free_ids_.begin(), free_ids_.end(), std::greater<>{});
}

void SlotAllocator::unrecycle_channel_id(tdm::ChannelId ch) {
  const auto it = std::find(free_ids_.begin(), free_ids_.end(), ch);
  if (it == free_ids_.end()) return;
  free_ids_.erase(it);
  std::make_heap(free_ids_.begin(), free_ids_.end(), std::greater<>{});
}

std::optional<RouteTree> SlotAllocator::allocate_on_path(const topo::Path& path,
                                                         std::uint32_t slots_required) {
  if (path.empty() || slots_required == 0) return std::nullopt;
  // The path finder never proposes quarantined links, but caller-chosen
  // paths (tests, the multipath allocator's precomputed candidates) must
  // hit the same wall.
  for (topo::LinkId l : path.links)
    if (is_quarantined(l)) return std::nullopt;
  if (options_.incremental) {
    // Capacity prune: a link with fewer free slots than requested caps the
    // feasible injection set below the request, whatever the alignment —
    // skip the per-slot search entirely. Decision-identical: the full
    // search would return < slots_required available slots.
    for (topo::LinkId l : path.links)
      if (link_free_slots(l) < slots_required) return std::nullopt;
  }
  RouteTree shape = RouteTree::from_path(*topo_, path, {}, tdm::kNoChannel);
  const auto avail = free_inject_slots(shape);
  auto slots = choose_slots(avail, slots_required);
  if (slots.size() < slots_required) return std::nullopt;
  shape.inject_slots = std::move(slots);
  std::sort(shape.inject_slots.begin(), shape.inject_slots.end());
  shape.channel = next_channel_id();
  commit(shape);
  ++live_channels_;
  return shape;
}

bool SlotAllocator::restore(const RouteTree& route) {
  std::vector<std::pair<topo::LinkId, tdm::Slot>> taken;
  for (tdm::Slot q : route.inject_slots) {
    for (const RouteEdge& e : route.edges) {
      const tdm::Slot s = params_.slot_at_link(q, e.depth);
      if (!schedule_.reserve(e.link, s, route.channel)) {
        for (const auto& [l, slot] : taken) {
          schedule_.release(l, slot);
          note_released(l, slot);
        }
        return false;
      }
      note_reserved(e.link, s);
      taken.emplace_back(e.link, s);
    }
  }
  ++live_channels_;
  // Re-claim the id: it must not be handed out again while the restored
  // route holds reservations — neither from the recycling free-list (the
  // release that preceded this restore put it there) nor from the fresh-id
  // watermark (mirroring into a fresh allocator, as the recovery runner
  // does, restores ids the allocator never issued).
  if (route.channel != tdm::kNoChannel) {
    unrecycle_channel_id(route.channel);
    if (route.channel >= next_channel_) next_channel_ = route.channel + 1;
  }
  return true;
}

void SlotAllocator::release(const RouteTree& route) {
  if (route.channel == tdm::kNoChannel) return;
  // Targeted release: the route names every (link, slot) pair its channel
  // owns, so freeing is O(|route|) instead of a full-schedule scan — the
  // difference between O(1) and O(links x slots) tear-downs under churn.
  std::size_t freed = 0;
  for (tdm::Slot q : route.inject_slots) {
    for (const RouteEdge& e : route.edges) {
      const tdm::Slot s = params_.slot_at_link(q, e.depth);
      if (schedule_.owner(e.link, s) != route.channel) continue; // already released
      schedule_.release(e.link, s);
      note_released(e.link, s);
      ++freed;
    }
  }
  if (freed > 0 && live_channels_ > 0) {
    assert(schedule_.reservations_of(route.channel) == 0 &&
           "release left reservations the route did not name");
    --live_channels_;
    // The id is free for reuse only when this release actually tore the
    // channel down (a double release must not double-recycle: the next
    // owner of the id would alias the first).
    recycle_channel_id(route.channel);
  }
}

std::vector<tdm::ChannelId> SlotAllocator::min_victim_cover(
    const std::vector<std::vector<tdm::ChannelId>>& feasible, std::uint32_t want) {
  std::vector<tdm::ChannelId> condemned;
  std::vector<bool> chosen(feasible.size(), false);
  const auto new_victims = [&](const std::vector<tdm::ChannelId>& victims) {
    std::size_t n = 0;
    for (tdm::ChannelId v : victims)
      if (!std::binary_search(condemned.begin(), condemned.end(), v)) ++n;
    return n;
  };
  for (std::uint32_t picked = 0; picked < want; ++picked) {
    std::size_t best_i = feasible.size();
    std::size_t best_add = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < feasible.size(); ++i) {
      if (chosen[i]) continue;
      const std::size_t add = new_victims(feasible[i]);
      if (add < best_add) {
        best_add = add;
        best_i = i;
      }
    }
    chosen[best_i] = true;
    for (tdm::ChannelId v : feasible[best_i]) {
      const auto it = std::lower_bound(condemned.begin(), condemned.end(), v);
      if (it == condemned.end() || *it != v) condemned.insert(it, v);
    }
  }
  return condemned;
}

void SlotAllocator::quarantine_link(topo::LinkId link) {
  if (quarantined_.size() != topo_->link_count()) quarantined_.resize(topo_->link_count(), false);
  if (link < quarantined_.size()) quarantined_[link] = true;
  finder_.exclude_link(link);
  path_cache_.clear(); // memoized paths may cross the newly excluded link
}

void SlotAllocator::clear_quarantine() {
  quarantined_.assign(quarantined_.size(), false);
  finder_.clear_exclusions();
  path_cache_.clear(); // shorter paths may be legal again
}

std::vector<topo::LinkId> SlotAllocator::quarantined_links() const {
  std::vector<topo::LinkId> out;
  for (topo::LinkId l = 0; l < quarantined_.size(); ++l)
    if (quarantined_[l]) out.push_back(l);
  return out;
}

const std::vector<topo::Path>& SlotAllocator::candidate_paths(topo::NodeId src,
                                                              topo::NodeId dst) {
  if (!options_.incremental) {
    scratch_paths_ = finder_.k_shortest(src, dst, options_.path_candidates);
    return scratch_paths_;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  const auto it = path_cache_.find(key);
  if (it != path_cache_.end()) return it->second;
  return path_cache_.emplace(key, finder_.k_shortest(src, dst, options_.path_candidates))
      .first->second;
}

std::optional<RouteTree> SlotAllocator::allocate(const ChannelSpec& spec) {
#ifndef NDEBUG
  const tdm::ChannelId pre_next = next_channel_;
  const std::size_t pre_live = live_channels_;
  const std::size_t pre_free = free_ids_.size();
#endif
  std::optional<RouteTree> r;
  if (valid_spec(spec)) {
    r = spec.dst_nis.size() == 1 ? allocate_unicast(spec) : allocate_multicast(spec);
  }
#ifndef NDEBUG
  // The no-leak invariant release() depends on: a failed allocation burns
  // no ChannelId (fresh or recycled) and bumps no live-channel count; a
  // successful one claims exactly one — either the next fresh id or the
  // smallest recycled one.
  if (!r) {
    assert(next_channel_ == pre_next && live_channels_ == pre_live &&
           free_ids_.size() == pre_free &&
           "failed allocation leaked a ChannelId or live-channel count");
  } else {
    assert(live_channels_ == pre_live + 1 && "allocation must claim exactly one live channel");
    const bool fresh = r->channel == pre_next && next_channel_ == pre_next + 1 &&
                       free_ids_.size() == pre_free;
    const bool recycled = r->channel < pre_next && next_channel_ == pre_next &&
                          free_ids_.size() == pre_free - 1;
    assert((fresh || recycled) && "allocation must claim exactly one fresh or recycled id");
  }
#endif
  return r;
}

std::optional<RouteTree> SlotAllocator::allocate_unicast(const ChannelSpec& spec) {
  const auto& paths = candidate_paths(spec.src_ni, spec.dst_nis[0]);
  for (const topo::Path& p : paths) {
    if (auto r = allocate_on_path(p, spec.slots_required)) return r;
  }
  return std::nullopt;
}

bool SlotAllocator::grow_tree(RouteTree& tree, const topo::Path& trunk,
                              const ChannelSpec& spec) const {
  tree.dst_nis = {trunk.dest(*topo_)};

  // Depth + 1 of every node currently on the tree (0 = off the tree).
  tree_depth_.assign(topo_->node_count(), 0);
  // Branch paths may not pass *through* other tree nodes (that would break
  // the tree property), so links into tree nodes are blocked; NIs cannot
  // forward, so no branch may leave one either.
  tree_blocked_.assign(topo_->link_count(), 0);
  const auto join = [&](topo::NodeId node, std::uint32_t d) {
    tree_depth_[node] = d + 1;
    for (topo::LinkId l : topo_->node(node).in_links) tree_blocked_[l] = 1;
    if (topo_->is_ni(node))
      for (topo::LinkId l : topo_->node(node).out_links) tree_blocked_[l] = 1;
  };
  join(tree.src_ni, 0);
  for (const RouteEdge& e : tree.edges) join(topo_->link(e.link).dst, e.depth + 1);

  for (std::size_t i = 1; i < spec.dst_nis.size(); ++i) {
    const topo::NodeId dst = spec.dst_nis[i];
    if (tree_depth_[dst] != 0) return false; // dst interior to tree: not allowed

    // Branch from the tree router that yields the shortest attachment
    // (ties: lowest node id). Routers are tried in ascending id and only a
    // strictly shorter branch replaces the best, so each search is bounded
    // by one hop less than the best so far.
    topo::Path best;
    std::uint32_t best_depth = 0;
    for (topo::NodeId node = 0; node < tree_depth_.size(); ++node) {
      if (tree_depth_[node] == 0 || !topo_->is_router(node)) continue;
      const std::size_t bound = best.empty() ? topo::PathFinder::kUnbounded : best.hop_count() - 1;
      if (bound == 0) break; // nothing beats a one-link branch
      topo::Path p = finder_.shortest(node, dst, tree_blocked_, bound);
      if (p.empty()) continue;
      best = std::move(p);
      best_depth = tree_depth_[node] - 1;
    }
    if (best.empty()) return false;

    for (std::size_t j = 0; j < best.links.size(); ++j) {
      const auto edge_depth = best_depth + static_cast<std::uint32_t>(j);
      tree.edges.push_back(RouteEdge{best.links[j], edge_depth});
      join(topo_->link(best.links[j]).dst, edge_depth + 1);
    }
    tree.dst_nis.push_back(dst);
  }

  std::sort(tree.edges.begin(), tree.edges.end(), [](const RouteEdge& a, const RouteEdge& b) {
    return a.depth < b.depth || (a.depth == b.depth && a.link < b.link);
  });
  return true;
}

std::optional<RouteTree> SlotAllocator::allocate_multicast(const ChannelSpec& spec) {
  const auto& trunks = candidate_paths(spec.src_ni, spec.dst_nis[0]);
  for (const topo::Path& trunk : trunks) {
    RouteTree tree = RouteTree::from_path(*topo_, trunk, {}, tdm::kNoChannel);
    // Trunk prune: a grown tree keeps the trunk's edges at the same depths,
    // so its free inject slots are a subset of the trunk's. A trunk short
    // of slots cannot carry any tree — skip the fan-out search. The prune
    // changes no decision.
    if (free_inject_slots(tree).size() < spec.slots_required) continue;
    if (!grow_tree(tree, trunk, spec)) continue;
    const auto avail = free_inject_slots(tree);
    auto slots = choose_slots(avail, spec.slots_required);
    if (slots.size() < spec.slots_required) continue;
    tree.inject_slots = std::move(slots);
    std::sort(tree.inject_slots.begin(), tree.inject_slots.end());
    tree.channel = next_channel_id();
    // Keep destination order as specified (grow_tree appends in order).
    commit(tree);
    ++live_channels_;
    return tree;
  }
  return std::nullopt;
}

} // namespace daelite::alloc
