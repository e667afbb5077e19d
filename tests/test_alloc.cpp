// Unit and property tests for the allocation toolflow: route trees,
// configuration segments (including the paper's Fig. 6 example), the slot
// allocator, multipath allocation and use-case allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "alloc/allocator.hpp"
#include "alloc/multipath.hpp"
#include "alloc/route.hpp"
#include "alloc/usecase.hpp"
#include "alloc/validate.hpp"
#include "sim/random.hpp"
#include "topology/generators.hpp"
#include "topology/path.hpp"

namespace {

using namespace daelite;
using namespace daelite::alloc;

topo::Path path_between(const topo::Topology& t, topo::NodeId a, topo::NodeId b) {
  return topo::PathFinder(t).shortest(a, b);
}

TEST(RouteTree, FromPathDepthsAreSequential) {
  const auto m = topo::make_mesh(3, 3);
  const auto p = path_between(m.topo, m.ni(0, 0), m.ni(2, 2));
  const RouteTree r = RouteTree::from_path(m.topo, p, {0, 3}, 5);
  EXPECT_EQ(r.channel, 5u);
  EXPECT_EQ(r.src_ni, m.ni(0, 0));
  ASSERT_EQ(r.edges.size(), p.hop_count());
  for (std::size_t i = 0; i < r.edges.size(); ++i) EXPECT_EQ(r.edges[i].depth, i);
  EXPECT_TRUE(validate_route_tree(m.topo, r).empty());
}

TEST(RouteTree, DepthAndRxSlot) {
  const auto m = topo::make_mesh(3, 3);
  const auto p = path_between(m.topo, m.ni(0, 0), m.ni(1, 0)); // 3 links
  const RouteTree r = RouteTree::from_path(m.topo, p, {2});
  const tdm::TdmParams params = tdm::daelite_params(8);
  EXPECT_EQ(*r.dst_link_count(m.topo, m.ni(1, 0)), 3u);
  // dst NI acts 3 stages after the source: slot 2 + 3 = 5.
  EXPECT_EQ(r.rx_slot(m.topo, params, m.ni(1, 0), 2), 5u);
  EXPECT_EQ(*r.depth_of(m.topo, m.ni(0, 0)), 0u);
}

TEST(RouteTree, ValidateRejectsBrokenTrees) {
  const auto m = topo::make_mesh(3, 3);
  const auto p = path_between(m.topo, m.ni(0, 0), m.ni(2, 2));
  RouteTree r = RouteTree::from_path(m.topo, p, {0});

  RouteTree bad = r;
  bad.edges[2].depth = 7; // inconsistent depth
  EXPECT_FALSE(validate_route_tree(m.topo, bad).empty());

  bad = r;
  bad.edges.push_back(bad.edges.front()); // duplicate link
  EXPECT_FALSE(validate_route_tree(m.topo, bad).empty());

  bad = r;
  bad.dst_nis.push_back(m.ni(1, 1)); // unreached destination
  EXPECT_FALSE(validate_route_tree(m.topo, bad).empty());

  bad = r;
  bad.edges.pop_back(); // destination no longer reached, dangling leaf
  EXPECT_FALSE(validate_route_tree(m.topo, bad).empty());
}

// --- Fig. 6: the paper's worked set-up example -------------------------------
//
// Path NI10 - R10 - R11 - NI11, slot table size 8, destination slots {4,7}.
// Expected per-element slots after rotation: NI11 {4,7}, R11 {3,6},
// R10 {2,5}, NI10 {1,4} — so the injection slots are {1,4}.
TEST(CfgSegments, PaperFigure6Example) {
  const auto m = topo::make_mesh(2, 2);
  const tdm::TdmParams params = tdm::daelite_params(8);
  const auto p = path_between(m.topo, m.ni(1, 0), m.ni(1, 1));
  ASSERT_EQ(p.hop_count(), 3u); // NI10->R10, R10->R11, R11->NI11

  RouteTree r = RouteTree::from_path(m.topo, p, {1, 4}, 0);
  const auto segs = make_cfg_segments(m.topo, params, r, /*tx_queue=*/0, {/*rx=*/0});
  ASSERT_EQ(segs.size(), 1u);
  const CfgSegment& s = segs[0];

  // Mask at the head (destination NI) = injection slots + 3 = {4,7}.
  EXPECT_EQ(s.slots_at_head, (std::vector<tdm::Slot>{4, 7}));

  ASSERT_EQ(s.elements.size(), 4u);
  EXPECT_EQ(s.elements[0].node, m.ni(1, 1)); // destination first
  EXPECT_TRUE(s.elements[0].is_ni);
  EXPECT_FALSE(s.elements[0].is_source_ni);
  EXPECT_EQ(s.elements[1].node, m.router(1, 1));
  EXPECT_EQ(s.elements[2].node, m.router(1, 0));
  EXPECT_EQ(s.elements[3].node, m.ni(1, 0)); // source last
  EXPECT_TRUE(s.elements[3].is_source_ni);

  // Router port words name real ports of the path.
  const topo::Link& r10_out = m.topo.link(p.links[1]);
  EXPECT_EQ(s.elements[2].out_port, r10_out.src_port);
  const topo::Link& r10_in = m.topo.link(p.links[0]);
  EXPECT_EQ(s.elements[2].in_port, r10_in.dst_port);
}

TEST(CfgSegments, MulticastProducesPartialSegments) {
  const auto m = topo::make_mesh(3, 3);
  const tdm::TdmParams params = tdm::daelite_params(16);
  SlotAllocator alloc(m.topo, params);

  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(2, 0), m.ni(2, 2)};
  spec.slots_required = 2;
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(validate_route_tree(m.topo, *r).empty());

  const auto segs = make_cfg_segments(m.topo, params, *r, 0, {0, 1});
  ASSERT_EQ(segs.size(), 2u);
  // Branch segment first, trunk (with the source NI) last.
  EXPECT_TRUE(segs.back().elements.back().is_source_ni);
  EXPECT_FALSE(segs.front().elements.back().is_ni); // branch ends at a router
}

// --- SlotAllocator -------------------------------------------------------------

TEST(SlotAllocator, UnicastReservesConsistentSlots) {
  const auto m = topo::make_mesh(4, 4);
  const tdm::TdmParams params = tdm::daelite_params(8);
  SlotAllocator alloc(m.topo, params);

  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(3, 3)};
  spec.slots_required = 3;
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->inject_slots.size(), 3u);
  const std::vector<RouteTree> routes{*r};
  EXPECT_EQ(validate_allocation(m.topo, params, alloc.schedule(), routes), "");
  EXPECT_EQ(alloc.schedule().reservations_of(r->channel), 3u * r->edges.size());
}

TEST(SlotAllocator, ReleaseRestoresSchedule) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator alloc(m.topo, tdm::daelite_params(8));
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(2, 2)};
  spec.slots_required = 4;
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(alloc.schedule().utilization(), 0.0);
  alloc.release(*r);
  EXPECT_DOUBLE_EQ(alloc.schedule().utilization(), 0.0);
  EXPECT_EQ(alloc.allocated_channels(), 0u);
}

TEST(SlotAllocator, FailsWhenWheelExhausted) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(1, 1)};
  spec.slots_required = 4; // the whole wheel on one source link
  ASSERT_TRUE(alloc.allocate(spec).has_value());
  // Source NI link is now fully booked: nothing further can leave NI00.
  spec.slots_required = 1;
  EXPECT_FALSE(alloc.allocate(spec).has_value());
}

TEST(SlotAllocator, AvoidsOccupiedSlotsViaAlternatePath) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  // Fill the direct x-then-y path's middle link by a conflicting channel.
  ChannelSpec a;
  a.src_ni = m.ni(0, 0);
  a.dst_nis = {m.ni(1, 0)};
  a.slots_required = 4;
  ASSERT_TRUE(alloc.allocate(a).has_value());
  // A second channel from NI00 cannot exist (source link full) but from
  // NI01 to NI11 everything is free.
  ChannelSpec b;
  b.src_ni = m.ni(0, 1);
  b.dst_nis = {m.ni(1, 1)};
  b.slots_required = 2;
  EXPECT_TRUE(alloc.allocate(b).has_value());
}

TEST(SlotAllocator, MulticastTreeCoversAllDestinations) {
  const auto m = topo::make_mesh(4, 4);
  const tdm::TdmParams params = tdm::daelite_params(16);
  SlotAllocator alloc(m.topo, params);
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(3, 0), m.ni(0, 3), m.ni(3, 3)};
  spec.slots_required = 2;
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(validate_route_tree(m.topo, *r), "");
  EXPECT_EQ(r->dst_nis.size(), 3u);
  const std::vector<RouteTree> routes{*r};
  EXPECT_EQ(validate_allocation(m.topo, params, alloc.schedule(), routes), "");
}

TEST(SlotAllocator, MulticastTreeSharesTrunkLinks) {
  // Destinations on the same row: the tree must use the source's NI link
  // once, not once per destination (the paper's efficiency argument vs
  // separate connections).
  const auto m = topo::make_mesh(4, 1);
  SlotAllocator alloc(m.topo, tdm::daelite_params(8));
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(2, 0), m.ni(3, 0)};
  spec.slots_required = 1;
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  // Links: NI->R0, R0->R1, R1->R2, R2->NI2, R2->R3, R3->NI3 = 6 links,
  // versus 4 + 5 = 9 for separate connections.
  EXPECT_EQ(r->edges.size(), 6u);
}

// Multicast tree oracle: the tree grown the plain way, with one unbounded
// search from every tree router (ascending id, first strictly shorter
// branch wins) over a node -> depth map, starting from the first trunk.
// Empty if that trunk cannot carry every destination.
std::vector<RouteEdge> reference_tree(const topo::Topology& t, const topo::PathFinder& f,
                                      const ChannelSpec& spec) {
  const topo::Path trunk = f.shortest(spec.src_ni, spec.dst_nis[0]);
  if (trunk.empty()) return {};
  std::vector<RouteEdge> edges = RouteTree::from_path(t, trunk, {}, tdm::kNoChannel).edges;
  std::map<topo::NodeId, std::uint32_t> depth;
  std::vector<std::uint8_t> blocked(t.link_count(), 0);
  const auto join = [&](topo::NodeId node, std::uint32_t d) {
    depth[node] = d;
    for (topo::LinkId l : t.node(node).in_links) blocked[l] = 1;
    if (t.is_ni(node))
      for (topo::LinkId l : t.node(node).out_links) blocked[l] = 1;
  };
  join(spec.src_ni, 0);
  for (const RouteEdge& e : edges) join(t.link(e.link).dst, e.depth + 1);
  for (std::size_t i = 1; i < spec.dst_nis.size(); ++i) {
    const topo::NodeId dst = spec.dst_nis[i];
    if (depth.count(dst) != 0) return {};
    topo::Path best;
    std::uint32_t best_depth = 0;
    for (const auto& [node, d] : depth) {
      if (!t.is_router(node)) continue;
      topo::Path p = f.shortest(node, dst, blocked);
      if (!p.empty() && (best.empty() || p.hop_count() < best.hop_count())) {
        best = std::move(p);
        best_depth = d;
      }
    }
    if (best.empty()) return {};
    for (std::size_t j = 0; j < best.links.size(); ++j) {
      const auto d = best_depth + static_cast<std::uint32_t>(j);
      edges.push_back(RouteEdge{best.links[j], d});
      join(t.link(best.links[j]).dst, d + 1);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const RouteEdge& a, const RouteEdge& b) {
    return a.depth < b.depth || (a.depth == b.depth && a.link < b.link);
  });
  return edges;
}

TEST(SlotAllocator, MulticastTreesMatchUnboundedReference) {
  // Fresh allocators, so the first trunk always has free slots and the tree
  // the allocator returns is the one grown from it.
  const auto m = topo::make_mesh(8, 8);
  const std::vector<topo::NodeId> nis = m.all_nis();
  std::mt19937_64 rng(26);
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::size_t compared = 0;
  for (int round = 0; round < 200; ++round) {
    SlotAllocator alloc(m.topo, tdm::daelite_params(32));
    topo::PathFinder f(m.topo);
    for (std::size_t q = pick(4); q > 0; --q) {
      const auto l = static_cast<topo::LinkId>(pick(m.topo.link_count()));
      alloc.quarantine_link(l);
      f.exclude_link(l);
    }
    ChannelSpec spec;
    spec.src_ni = nis[pick(nis.size())];
    const std::size_t dsts = 2 + pick(3);
    while (spec.dst_nis.size() < dsts) {
      const topo::NodeId d = nis[pick(nis.size())];
      if (d == spec.src_ni) continue;
      if (std::find(spec.dst_nis.begin(), spec.dst_nis.end(), d) == spec.dst_nis.end())
        spec.dst_nis.push_back(d);
    }
    spec.slots_required = 1 + static_cast<std::uint32_t>(pick(2));

    const std::vector<RouteEdge> want = reference_tree(m.topo, f, spec);
    const auto r = alloc.allocate(spec);
    if (want.empty()) continue; // a later trunk may still carry the tree
    ASSERT_TRUE(r.has_value()) << "round " << round;
    EXPECT_EQ(r->dst_nis, spec.dst_nis) << "round " << round;
    ASSERT_EQ(r->edges.size(), want.size()) << "round " << round;
    for (std::size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(r->edges[e].link, want[e].link) << "round " << round << " edge " << e;
      EXPECT_EQ(r->edges[e].depth, want[e].depth) << "round " << round << " edge " << e;
    }
    ++compared;
  }
  EXPECT_GT(compared, 150u); // the skip above stays rare
}

TEST(SlotAllocator, RejectsInvalidSpecs) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator alloc(m.topo, tdm::daelite_params(8));
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(2, 2)};

  // Zero bandwidth must fail cleanly, not commit an empty reservation: the
  // old behaviour burned a ChannelId and bumped the live-channel count for
  // a channel release() could never free.
  spec.slots_required = 0;
  EXPECT_FALSE(alloc.valid_spec(spec));
  EXPECT_FALSE(alloc.allocate(spec).has_value());
  EXPECT_EQ(alloc.allocated_channels(), 0u);
  EXPECT_DOUBLE_EQ(alloc.schedule().utilization(), 0.0);

  spec.slots_required = 1;
  spec.dst_nis = {};
  EXPECT_FALSE(alloc.allocate(spec).has_value());
  spec.dst_nis = {spec.src_ni}; // destination == source
  EXPECT_FALSE(alloc.allocate(spec).has_value());
  spec.dst_nis = {m.ni(2, 2), m.ni(2, 2)}; // duplicate destination
  EXPECT_FALSE(alloc.allocate(spec).has_value());
  spec.dst_nis = {m.router(1, 1)}; // router is not a valid endpoint
  EXPECT_FALSE(alloc.allocate(spec).has_value());

  // The rejections left no residue.
  spec.dst_nis = {m.ni(2, 2)};
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->channel, 0u); // no ChannelId was burned by the failures
  EXPECT_EQ(alloc.allocated_channels(), 1u);
}

TEST(SlotAllocator, AllocateOnPathRejectsDegenerateRequests) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator alloc(m.topo, tdm::daelite_params(8));
  EXPECT_FALSE(alloc.allocate_on_path(topo::Path{}, 1).has_value());
  const topo::Path p = path_between(m.topo, m.ni(0, 0), m.ni(2, 2));
  EXPECT_FALSE(alloc.allocate_on_path(p, 0).has_value());
  EXPECT_EQ(alloc.allocated_channels(), 0u);
  EXPECT_TRUE(alloc.allocate_on_path(p, 1).has_value());
}

TEST(SlotAllocator, MulticastReleaseAndRestoreAccounting) {
  const auto m = topo::make_mesh(4, 4);
  SlotAllocator alloc(m.topo, tdm::daelite_params(16));
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(3, 0), m.ni(0, 3), m.ni(3, 3)};
  spec.slots_required = 2;
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  // One live channel for the whole tree, not one per destination.
  EXPECT_EQ(alloc.allocated_channels(), 1u);
  const std::size_t reservations = alloc.schedule().reservations_of(r->channel);
  EXPECT_EQ(reservations, 2u * r->edges.size());

  alloc.release(*r);
  EXPECT_EQ(alloc.allocated_channels(), 0u);
  EXPECT_DOUBLE_EQ(alloc.schedule().utilization(), 0.0);
  // Releasing an already-released route must not underflow the count.
  alloc.release(*r);
  EXPECT_EQ(alloc.allocated_channels(), 0u);

  // Restore re-reserves the identical (link, slot, channel) set.
  ASSERT_TRUE(alloc.restore(*r));
  EXPECT_EQ(alloc.allocated_channels(), 1u);
  EXPECT_EQ(alloc.schedule().reservations_of(r->channel), reservations);
}

TEST(SlotAllocator, RestoreRollsBackOnConflict) {
  const auto m = topo::make_mesh(4, 4);
  SlotAllocator alloc(m.topo, tdm::daelite_params(16));
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(3, 0), m.ni(3, 3)};
  spec.slots_required = 2;
  const auto r = alloc.allocate(spec);
  ASSERT_TRUE(r.has_value());
  alloc.release(*r);

  // Steal one of the released (link, slot) pairs for another channel.
  const RouteEdge& e = r->edges.front();
  const tdm::Slot stolen = alloc.params().slot_at_link(r->inject_slots[0], e.depth);
  ASSERT_TRUE(alloc.reserve_raw(e.link, stolen, r->channel + 1));

  // Restore must fail and leave none of its own reservations behind.
  EXPECT_FALSE(alloc.restore(*r));
  EXPECT_EQ(alloc.allocated_channels(), 0u);
  EXPECT_EQ(alloc.schedule().reservations_of(r->channel), 0u);
}

TEST(SlotAllocator, FirstFitPicksLowestSlots) {
  const auto m = topo::make_mesh(2, 2);
  alloc::AllocatorOptions opt;
  opt.slot_policy = SlotPolicy::kFirstFit;
  SlotAllocator a(m.topo, tdm::daelite_params(8), opt);
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(1, 0)};
  spec.slots_required = 3;
  const auto r = a.allocate(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->inject_slots, (std::vector<tdm::Slot>{0, 1, 2}));
}

TEST(SlotAllocator, SpreadPolicyMaximizesSlotSpacing) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator a(m.topo, tdm::daelite_params(8)); // default kSpread
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(1, 0)};
  spec.slots_required = 4;
  const auto r = a.allocate(spec);
  ASSERT_TRUE(r.has_value());
  // 4 of 8 free slots, evenly spread: every other slot.
  EXPECT_EQ(r->inject_slots, (std::vector<tdm::Slot>{0, 2, 4, 6}));
}

TEST(SlotAllocator, MorePathCandidatesFindHarderFits) {
  const auto m = topo::make_mesh(3, 3);
  const tdm::TdmParams params = tdm::daelite_params(8);

  auto congest = [&](SlotAllocator& a) {
    // Saturate the minimal routes' last hops into R11; detours via R21 or
    // R12 remain open but are longer than any minimal path.
    const topo::LinkId l1 = m.topo.find_link(m.router(1, 0), m.router(1, 1));
    const topo::LinkId l2 = m.topo.find_link(m.router(0, 1), m.router(1, 1));
    for (tdm::Slot s = 0; s < 8; ++s) {
      a.reserve_raw(l1, s, 900);
      a.reserve_raw(l2, s, 901);
    }
  };

  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(1, 1)};
  spec.slots_required = 2;

  alloc::AllocatorOptions narrow;
  narrow.path_candidates = 2; // only the two (blocked) minimal routes
  SlotAllocator a1(m.topo, params, narrow);
  congest(a1);
  EXPECT_FALSE(a1.allocate(spec).has_value());

  alloc::AllocatorOptions wide;
  wide.path_candidates = 8; // detours allowed
  SlotAllocator a2(m.topo, params, wide);
  congest(a2);
  EXPECT_TRUE(a2.allocate(spec).has_value());
}

// --- Multipath -------------------------------------------------------------------

TEST(Multipath, SplitsWhenSinglePathInsufficient) {
  const auto m = topo::make_mesh(2, 2);
  const tdm::TdmParams params = tdm::daelite_params(8);
  SlotAllocator alloc(m.topo, params);

  // NI00 -> NI11 has two minimal routes: via R10 (through link R00->R10)
  // and via R01 (through link R00->R01). Block complementary halves of the
  // wheel on those two interior links so that each single route can carry
  // at most 4 slots, but together they can carry 8.
  const topo::LinkId via_r10 = m.topo.find_link(m.router(0, 0), m.router(1, 0));
  const topo::LinkId via_r01 = m.topo.find_link(m.router(0, 0), m.router(0, 1));
  ASSERT_NE(via_r10, topo::kInvalidLink);
  ASSERT_NE(via_r01, topo::kInvalidLink);
  for (tdm::Slot s = 0; s < 4; ++s) ASSERT_TRUE(alloc.reserve_raw(via_r10, s, 1000));
  for (tdm::Slot s = 4; s < 8; ++s) ASSERT_TRUE(alloc.reserve_raw(via_r01, s, 1001));

  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(1, 1)};
  spec.slots_required = 8; // the full wheel: impossible on any single path

  SlotAllocator single_check(m.topo, params); // fresh allocator, same blocks
  for (tdm::Slot s = 0; s < 4; ++s) single_check.reserve_raw(via_r10, s, 1000);
  for (tdm::Slot s = 4; s < 8; ++s) single_check.reserve_raw(via_r01, s, 1001);
  EXPECT_FALSE(single_check.allocate(spec).has_value());

  MultipathAllocator mp(alloc);
  const auto r = mp.allocate(spec);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->total_slots(), 8u);
  EXPECT_GE(r->parts.size(), 2u);
  mp.release(*r);
  // Only the raw blocker reservations remain.
  EXPECT_EQ(alloc.schedule().reservations_of(1000), 4u);
  EXPECT_EQ(alloc.schedule().reservations_of(1001), 4u);
  for (const auto& part : r->parts) EXPECT_EQ(alloc.schedule().reservations_of(part.channel), 0u);
}

TEST(Multipath, AllOrNothingOnFailure) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  const double util_before = alloc.schedule().utilization();
  MultipathAllocator mp(alloc, 4);
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(1, 1)};
  spec.slots_required = 5; // > wheel size: impossible (source link has 4 slots)
  EXPECT_FALSE(mp.allocate(spec).has_value());
  EXPECT_DOUBLE_EQ(alloc.schedule().utilization(), util_before);
}

// --- Use cases --------------------------------------------------------------------

TEST(UseCase, AllocatesRequestAndResponseChannels) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator alloc(m.topo, tdm::daelite_params(16));
  UseCase uc;
  uc.name = "pair";
  uc.connections.push_back({"c0", m.ni(0, 0), {m.ni(2, 2)}, 4, 2});
  uc.connections.push_back({"c1", m.ni(1, 0), {m.ni(0, 2)}, 2, 1});
  const auto a = allocate_use_case(alloc, uc);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->connections.size(), 2u);
  for (const auto& c : a->connections) {
    EXPECT_TRUE(c.has_response);
    EXPECT_EQ(c.request.inject_slots.size(), c.spec.request_slots);
    EXPECT_EQ(c.response.inject_slots.size(), c.spec.response_slots);
    EXPECT_EQ(c.response.src_ni, c.spec.dst_nis[0]);
  }
  release_use_case(alloc, *a);
  EXPECT_DOUBLE_EQ(alloc.schedule().utilization(), 0.0);
}

TEST(UseCase, MulticastConnectionHasNoResponse) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator alloc(m.topo, tdm::daelite_params(16));
  UseCase uc;
  uc.connections.push_back({"mc", m.ni(0, 0), {m.ni(2, 0), m.ni(2, 2)}, 2, 0});
  const auto a = allocate_use_case(alloc, uc);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(a->connections[0].has_response);
}

TEST(UseCase, RollsBackOnFailure) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  UseCase uc;
  uc.connections.push_back({"ok", m.ni(0, 0), {m.ni(1, 1)}, 3, 1});
  uc.connections.push_back({"too-big", m.ni(0, 0), {m.ni(1, 0)}, 4, 1});
  std::string failed;
  EXPECT_FALSE(allocate_use_case(alloc, uc, &failed).has_value());
  EXPECT_EQ(failed, "too-big");
  EXPECT_DOUBLE_EQ(alloc.schedule().utilization(), 0.0);
}

// --- Property sweep: random allocate/release sequences stay consistent ------------

class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorProperty, RandomChurnKeepsScheduleConsistent) {
  const auto m = topo::make_mesh(4, 4);
  const tdm::TdmParams params = tdm::daelite_params(16);
  SlotAllocator alloc(m.topo, params);
  sim::Xoshiro256 rng(GetParam());

  const auto nis = m.all_nis();
  std::vector<RouteTree> live;

  for (int step = 0; step < 120; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      ChannelSpec spec;
      spec.src_ni = nis[rng.below(nis.size())];
      do {
        spec.dst_nis = {nis[rng.below(nis.size())]};
      } while (spec.dst_nis[0] == spec.src_ni);
      if (rng.chance(0.25)) { // sometimes multicast
        topo::NodeId extra = nis[rng.below(nis.size())];
        if (extra != spec.src_ni && extra != spec.dst_nis[0]) spec.dst_nis.push_back(extra);
      }
      spec.slots_required = static_cast<std::uint32_t>(rng.range(1, 4));
      if (auto r = alloc.allocate(spec)) live.push_back(std::move(*r));
    } else {
      const std::size_t idx = rng.below(live.size());
      alloc.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(validate_allocation(m.topo, params, alloc.schedule(), live), "")
        << "at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 42ull, 1234ull, 99999ull));

// Same churn with random link quarantine/clearing mixed in: quarantine
// must only constrain *new* allocations (live routes keep their slots),
// fresh routes must avoid every currently-quarantined link, and after the
// dust settles the allocator must be leak-free — releasing everything
// returns the schedule to empty and the live-channel count to zero.
TEST_P(AllocatorProperty, RandomChurnWithQuarantineStaysConsistentAndLeakFree) {
  const auto m = topo::make_mesh(4, 4);
  const tdm::TdmParams params = tdm::daelite_params(16);
  SlotAllocator alloc(m.topo, params);
  sim::Xoshiro256 rng(GetParam() * 7919 + 1);

  const auto nis = m.all_nis();
  std::vector<RouteTree> live;

  for (int step = 0; step < 150; ++step) {
    const double roll = static_cast<double>(rng.below(100)) / 100.0;
    if (roll < 0.5 || live.empty()) {
      ChannelSpec spec;
      spec.src_ni = nis[rng.below(nis.size())];
      do {
        spec.dst_nis = {nis[rng.below(nis.size())]};
      } while (spec.dst_nis[0] == spec.src_ni);
      spec.slots_required = static_cast<std::uint32_t>(rng.range(1, 4));
      if (auto r = alloc.allocate(spec)) {
        for (const RouteEdge& e : r->edges)
          ASSERT_FALSE(alloc.is_quarantined(e.link))
              << "step " << step << ": route crosses quarantined link " << e.link;
        live.push_back(std::move(*r));
      }
    } else if (roll < 0.75) {
      const std::size_t idx = rng.below(live.size());
      alloc.release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (roll < 0.9) {
      alloc.quarantine_link(static_cast<topo::LinkId>(rng.below(m.topo.link_count())));
      const auto q = alloc.quarantined_links();
      ASSERT_TRUE(std::is_sorted(q.begin(), q.end()));
    } else {
      alloc.clear_quarantine();
      ASSERT_TRUE(alloc.quarantined_links().empty());
    }
    ASSERT_EQ(validate_allocation(m.topo, params, alloc.schedule(), live), "")
        << "at step " << step;
  }

  for (const RouteTree& r : live) alloc.release(r);
  EXPECT_EQ(alloc.allocated_channels(), 0u);
  EXPECT_DOUBLE_EQ(alloc.schedule().utilization(), 0.0);
  // The wheel is fully reusable afterwards: a quarantine-free allocator
  // state admits a fresh connection on any previously-quarantined link.
  alloc.clear_quarantine();
  ChannelSpec spec;
  spec.src_ni = nis.front();
  spec.dst_nis = {nis.back()};
  spec.slots_required = 1;
  EXPECT_TRUE(alloc.allocate(spec).has_value());
}

} // namespace
