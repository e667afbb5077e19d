// Unit tests for the topology substrate: graph construction, generators,
// path search (ordered BFS / Yen, checked against a heap-Dijkstra
// reference), config spanning tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <set>

#include "topology/generators.hpp"
#include "topology/graph.hpp"
#include "topology/path.hpp"
#include "topology/spanning_tree.hpp"

namespace {

using namespace daelite::topo;

TEST(Graph, AddAndConnect) {
  Topology t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const NodeId n = t.add_ni("n");
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.router_count(), 2u);
  EXPECT_EQ(t.ni_count(), 1u);

  const LinkId ab = t.connect(a, b);
  EXPECT_EQ(t.link(ab).src, a);
  EXPECT_EQ(t.link(ab).dst, b);
  EXPECT_EQ(t.link(ab).src_port, 0);
  EXPECT_EQ(t.link(ab).dst_port, 0);
  EXPECT_EQ(t.out_degree(a), 1u);
  EXPECT_EQ(t.in_degree(b), 1u);

  const auto [na, an] = t.connect_bidir(n, a);
  EXPECT_EQ(t.find_link(n, a), na);
  EXPECT_EQ(t.find_link(a, n), an);
  EXPECT_EQ(t.reverse_link(na), an);
  EXPECT_EQ(t.find_link(b, n), kInvalidLink);
}

TEST(Graph, PortIndicesFollowCreationOrder) {
  Topology t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const NodeId c = t.add_router("c");
  const LinkId ab = t.connect(a, b);
  const LinkId ac = t.connect(a, c);
  EXPECT_EQ(t.link(ab).src_port, 0);
  EXPECT_EQ(t.link(ac).src_port, 1);
  EXPECT_EQ(t.node(a).out_links[0], ab);
  EXPECT_EQ(t.node(a).out_links[1], ac);
}

TEST(Mesh, StructureOf2x2) {
  const Mesh m = make_mesh(2, 2);
  EXPECT_EQ(m.topo.router_count(), 4u);
  EXPECT_EQ(m.topo.ni_count(), 4u);
  // 4 bidirectional router-router links + 4 NI links = 8 + 8 unidirectional.
  EXPECT_EQ(m.topo.link_count(), 16u);
  // Corner router: 2 neighbours + 1 NI = 3 in, 3 out.
  EXPECT_EQ(m.topo.out_degree(m.router(0, 0)), 3u);
  EXPECT_EQ(m.topo.in_degree(m.router(0, 0)), 3u);
  EXPECT_TRUE(m.topo.is_ni(m.ni(1, 1)));
  EXPECT_EQ(m.all_nis().size(), 4u);
}

TEST(Mesh, StructureOf4x4) {
  const Mesh m = make_mesh(4, 4);
  EXPECT_EQ(m.topo.router_count(), 16u);
  EXPECT_EQ(m.topo.ni_count(), 16u);
  // Center router: 4 neighbours + 1 NI.
  EXPECT_EQ(m.topo.out_degree(m.router(1, 1)), 5u);
  EXPECT_EQ(m.topo.max_router_arity(), 5u);
  // Every link's reverse exists.
  for (LinkId l = 0; l < m.topo.link_count(); ++l)
    EXPECT_NE(m.topo.reverse_link(l), kInvalidLink);
}

TEST(Mesh, MultipleNisPerRouter) {
  const Mesh m = make_mesh(2, 2, 2);
  EXPECT_EQ(m.topo.ni_count(), 8u);
  EXPECT_NE(m.ni(0, 0, 0), m.ni(0, 0, 1));
  EXPECT_EQ(m.topo.out_degree(m.router(0, 0)), 4u); // 2 neighbours + 2 NIs
}

TEST(Mesh, TorusWrapsAround) {
  const Mesh m = make_mesh(4, 4, 1, /*wrap=*/true);
  EXPECT_NE(m.topo.find_link(m.router(3, 0), m.router(0, 0)), kInvalidLink);
  EXPECT_NE(m.topo.find_link(m.router(0, 3), m.router(0, 0)), kInvalidLink);
  EXPECT_EQ(m.topo.out_degree(m.router(0, 0)), 5u); // 4 neighbours + NI
}

TEST(Ring, Structure) {
  const Mesh r = make_ring(5);
  EXPECT_EQ(r.topo.router_count(), 5u);
  EXPECT_NE(r.topo.find_link(r.routers[4], r.routers[0]), kInvalidLink);
}

TEST(Path, NodesAndConnectivity) {
  const Mesh m = make_mesh(3, 3);
  PathFinder f(m.topo);
  const Path p = f.shortest(m.ni(0, 0), m.ni(2, 0));
  ASSERT_FALSE(p.empty());
  EXPECT_TRUE(p.is_connected(m.topo));
  EXPECT_EQ(p.source(m.topo), m.ni(0, 0));
  EXPECT_EQ(p.dest(m.topo), m.ni(2, 0));
  EXPECT_EQ(p.nodes(m.topo).size(), p.hop_count() + 1);
}

TEST(Path, ShortestHopCountOnMesh) {
  const Mesh m = make_mesh(4, 4);
  PathFinder f(m.topo);
  // NI -> R (1) + manhattan distance + R -> NI (1).
  EXPECT_EQ(f.shortest(m.ni(0, 0), m.ni(3, 3)).hop_count(), 8u);
  EXPECT_EQ(f.shortest(m.ni(0, 0), m.ni(1, 0)).hop_count(), 3u);
  EXPECT_EQ(f.shortest(m.ni(2, 2), m.ni(2, 2)).hop_count(), 0u); // self
}

TEST(Path, BlockedLinkForcesAlternateRoute) {
  // a -> b -> d and a -> c -> d; block a -> b.
  Topology t;
  const NodeId a = t.add_router("a"), b = t.add_router("b"), c = t.add_router("c"),
               d = t.add_router("d");
  const LinkId ab = t.connect(a, b);
  const LinkId bd = t.connect(b, d);
  const LinkId ac = t.connect(a, c);
  const LinkId cd = t.connect(c, d);
  PathFinder f(t);
  // Unblocked, the tie goes to the lower-id middle node b.
  EXPECT_EQ(f.shortest(a, d).links, (std::vector<LinkId>{ab, bd}));
  std::vector<std::uint8_t> blocked(t.link_count(), 0);
  blocked[ab] = 1;
  EXPECT_EQ(f.shortest(a, d, blocked).links, (std::vector<LinkId>{ac, cd}));
  // The mask is per call: the next unblocked search sees a -> b again.
  EXPECT_EQ(f.shortest(a, d).links, (std::vector<LinkId>{ab, bd}));
}

TEST(Path, InfiniteCostRemovesLink) {
  // A blocked link is an infinite-cost link: the only route is gone.
  Topology t;
  const NodeId a = t.add_router("a"), b = t.add_router("b");
  const LinkId ab = t.connect(a, b);
  std::vector<std::uint8_t> blocked(t.link_count(), 0);
  blocked[ab] = 1;
  PathFinder f(t);
  EXPECT_TRUE(f.shortest(a, b, blocked).empty());
  f.exclude_link(ab);
  EXPECT_TRUE(f.shortest(a, b).empty());
  f.clear_exclusions();
  EXPECT_EQ(f.shortest(a, b).hop_count(), 1u);
}

// --- Search oracle -----------------------------------------------------------
//
// The binary-heap Dijkstra the BFS replaced, kept as the reference for tie
// breaking: pops (dist, node) in ascending order and keeps the first strict
// improvement. `cost` is 1 or infinity per link (infinity = blocked or
// excluded). RefKShortest is Yen's algorithm over it, as it was.

constexpr double kInf = std::numeric_limits<double>::infinity();

Path RefShortest(const Topology& t, NodeId from, NodeId to, const std::vector<double>& cost) {
  std::vector<double> dist(t.node_count(), kInf);
  std::vector<LinkId> via(t.node_count(), kInvalidLink);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[from] = 0.0;
  pq.emplace(0.0, from);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == to) break;
    for (LinkId l : t.node(u).out_links) {
      if (std::isinf(cost[l])) continue;
      const NodeId v = t.link(l).dst;
      if (dist[u] + cost[l] < dist[v]) {
        dist[v] = dist[u] + cost[l];
        via[v] = l;
        pq.emplace(dist[v], v);
      }
    }
  }
  Path p;
  if (from == to || std::isinf(dist[to])) return p;
  for (NodeId at = to; at != from; at = t.link(via[at]).src) p.links.push_back(via[at]);
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

std::vector<Path> RefKShortest(const Topology& t, NodeId from, NodeId to, std::size_t k,
                               const std::vector<double>& base) {
  std::vector<Path> result;
  Path first = RefShortest(t, from, to, base);
  if (first.empty()) return result;
  result.push_back(first);
  auto cmp = [](const Path& a, const Path& b) {
    if (a.links.size() != b.links.size()) return a.links.size() < b.links.size();
    return a.links < b.links;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);
  while (result.size() < k) {
    const Path& prev = result.back();
    const std::vector<NodeId> prev_nodes = prev.nodes(t);
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      std::vector<double> c = base;
      for (const Path& p : result)
        if (p.links.size() > i &&
            std::equal(p.links.begin(), p.links.begin() + static_cast<std::ptrdiff_t>(i), prev.links.begin()))
          c[p.links[i]] = kInf;
      for (std::size_t j = 0; j < i; ++j) {
        for (LinkId l : t.node(prev_nodes[j]).out_links) c[l] = kInf;
        for (LinkId l : t.node(prev_nodes[j]).in_links) c[l] = kInf;
      }
      const Path spur = RefShortest(t, prev_nodes[i], to, c);
      if (spur.empty() && prev_nodes[i] != to) continue;
      Path total;
      total.links.assign(prev.links.begin(), prev.links.begin() + static_cast<std::ptrdiff_t>(i));
      total.links.insert(total.links.end(), spur.links.begin(), spur.links.end());
      if (total.links.empty()) continue;
      if (std::find(result.begin(), result.end(), total) == result.end()) candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

// Random blocked masks and quarantine sets: shortest and k_shortest must
// return exactly the reference's paths, ties included.
void ExpectMatchesReference(const Mesh& m, std::uint64_t seed) {
  const Topology& t = m.topo;
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  PathFinder f(t);
  for (int round = 0; round < 12; ++round) {
    // Quarantine: none in the first round, then 0..3 random links.
    f.clear_exclusions();
    std::vector<double> base(t.link_count(), 1.0);
    const std::size_t excluded = round == 0 ? 0 : pick(4);
    for (std::size_t e = 0; e < excluded; ++e) {
      const auto l = static_cast<LinkId>(pick(t.link_count()));
      f.exclude_link(l);
      base[l] = kInf;
    }
    for (int q = 0; q < 12; ++q) {
      const NodeId from = static_cast<NodeId>(pick(t.node_count()));
      const NodeId to = static_cast<NodeId>(pick(t.node_count()));
      // Blocked mask with a random density of 0..30%.
      const std::size_t density = pick(31);
      std::vector<std::uint8_t> blocked(t.link_count(), 0);
      std::vector<double> cost = base;
      for (LinkId l = 0; l < t.link_count(); ++l) {
        if (pick(100) >= density) continue;
        blocked[l] = 1;
        cost[l] = kInf;
      }
      EXPECT_EQ(f.shortest(from, to, blocked), RefShortest(t, from, to, cost))
          << "seed " << seed << " round " << round << " " << from << "->" << to;
      EXPECT_EQ(f.shortest(from, to), RefShortest(t, from, to, base));
    }
    // Yen over NI pairs, as the allocator asks.
    const std::vector<NodeId> nis = m.all_nis();
    for (int q = 0; q < 3; ++q) {
      const NodeId from = nis[pick(nis.size())];
      const NodeId to = nis[pick(nis.size())];
      EXPECT_EQ(f.k_shortest(from, to, 8), RefKShortest(t, from, to, 8, base))
          << "seed " << seed << " round " << round << " " << from << "->" << to;
    }
  }
}

TEST(PathOracle, ShortestAndKShortestMatchHeapDijkstraOn8x8Mesh) {
  const Mesh m = make_mesh(8, 8);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) ExpectMatchesReference(m, seed);
}

TEST(PathOracle, ShortestAndKShortestMatchHeapDijkstraOn4x4Torus) {
  // Wrap-around links give many equal-length routes: the tie-break case.
  const Mesh m = make_mesh(4, 4, 1, /*wrap=*/true);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) ExpectMatchesReference(m, seed);
}

TEST(PathOracle, ShortestAndKShortestMatchHeapDijkstraOnRing) {
  // Even length: the router opposite a source is reached both ways round.
  const Mesh m = make_ring(8, 2);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) ExpectMatchesReference(m, seed);
}

// Every ordered NI pair, as a cold allocator path cache asks: k_shortest
// must equal the reference Yen for each k, with no and with two excluded
// links. Plain Yen's first k paths do not depend on k, so one reference run
// at the largest k serves every k. With `stride` > 1 only every stride-th
// pair is checked (the stride is coprime to the pair count per source, so
// every source and destination still appears).
void ExpectAllPairsMatchReference(const Mesh& m, std::initializer_list<std::size_t> ks,
                                  std::size_t stride = 1) {
  const Topology& t = m.topo;
  const std::vector<NodeId> nis = m.all_nis();
  const std::size_t max_k = *std::max_element(ks.begin(), ks.end());
  std::mt19937_64 rng(t.node_count());
  for (const std::size_t excluded : {0u, 2u}) {
    PathFinder f(t);
    std::vector<double> base(t.link_count(), 1.0);
    while (static_cast<std::size_t>(std::count(base.begin(), base.end(), kInf)) < excluded) {
      const auto l = static_cast<LinkId>(rng() % t.link_count());
      f.exclude_link(l);
      base[l] = kInf;
    }
    std::size_t pair = 0;
    for (NodeId from : nis)
      for (NodeId to : nis) {
        if (from == to || pair++ % stride != 0) continue;
        const std::vector<Path> ref = RefKShortest(t, from, to, max_k, base);
        for (std::size_t k : ks) {
          const std::vector<Path> want(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(
                                                                      std::min(k, ref.size())));
          EXPECT_EQ(f.k_shortest(from, to, k), want)
              << from << "->" << to << " k " << k << " excluded " << excluded;
        }
      }
  }
}

TEST(PathOracle, KShortestAllNiPairsMatchReferenceOn8x8Mesh) {
#ifdef NDEBUG
  ExpectAllPairsMatchReference(make_mesh(8, 8), {8});
#else
  // Unoptimised (Debug, sanitizer) builds run the heap-Dijkstra reference
  // some 40x slower: they check every 8th of the 4032 pairs.
  ExpectAllPairsMatchReference(make_mesh(8, 8), {8}, /*stride=*/8);
#endif
}

TEST(PathOracle, KShortestAllNiPairsMatchReferenceOn4x4Torus) {
  ExpectAllPairsMatchReference(make_mesh(4, 4, 1, /*wrap=*/true), {1, 3, 8, 12});
}

TEST(PathOracle, KShortestAllNiPairsMatchReferenceOnRing) {
  ExpectAllPairsMatchReference(make_ring(8, 2), {1, 3, 8, 12});
}

TEST(Path, BoundedSearchReturnsShortestWithinBoundOnly) {
  const Mesh m = make_mesh(4, 4, 1, /*wrap=*/true);
  PathFinder f(m.topo);
  for (NodeId from : m.all_nis())
    for (NodeId to : m.all_nis()) {
      const Path full = f.shortest(from, to);
      for (std::size_t h = 0; h <= full.hop_count() + 1; ++h) {
        if (h >= full.hop_count()) {
          EXPECT_EQ(f.shortest(from, to, {}, h), full) << from << "->" << to << " bound " << h;
        } else {
          EXPECT_TRUE(f.shortest(from, to, {}, h).empty()) << from << "->" << to << " bound " << h;
        }
      }
    }
}

TEST(Path, BannedNodesAreNeverEntered) {
  // Banning a node is blocking every link into and out of it: same path,
  // and the path visits no banned node.
  const Mesh m = make_mesh(5, 5);
  const Topology& t = m.topo;
  PathFinder f(t);
  std::mt19937_64 rng(7);
  const std::vector<NodeId> nis = m.all_nis();
  for (int q = 0; q < 200; ++q) {
    const NodeId from = nis[rng() % nis.size()];
    const NodeId to = nis[rng() % nis.size()];
    std::vector<NodeId> banned;
    std::vector<std::uint8_t> blocked(t.link_count(), 0);
    for (std::size_t b = rng() % 8; b > 0; --b) {
      const NodeId n = m.routers[rng() % m.routers.size()];
      banned.push_back(n);
      for (LinkId l : t.node(n).out_links) blocked[l] = 1;
      for (LinkId l : t.node(n).in_links) blocked[l] = 1;
    }
    const Path p = f.shortest(from, to, {}, PathFinder::kUnbounded, banned);
    EXPECT_EQ(p, f.shortest(from, to, blocked)) << from << "->" << to;
    for (NodeId n : p.nodes(t))
      EXPECT_EQ(std::find(banned.begin(), banned.end(), n), banned.end()) << from << "->" << to;
  }
}

TEST(Path, KShortestAreDistinctLooplessAndOrdered) {
  const Mesh m = make_mesh(3, 3);
  PathFinder f(m.topo);
  const auto paths = f.k_shortest(m.ni(0, 0), m.ni(2, 2), 6);
  ASSERT_GE(paths.size(), 2u);
  std::set<std::vector<LinkId>> unique;
  std::size_t prev_len = 0;
  for (const Path& p : paths) {
    EXPECT_TRUE(p.is_connected(m.topo));
    EXPECT_EQ(p.source(m.topo), m.ni(0, 0));
    EXPECT_EQ(p.dest(m.topo), m.ni(2, 2));
    EXPECT_GE(p.hop_count(), prev_len);
    prev_len = p.hop_count();
    unique.insert(p.links);
    // Loopless: no node repeats.
    auto nodes = p.nodes(m.topo);
    std::set<NodeId> s(nodes.begin(), nodes.end());
    EXPECT_EQ(s.size(), nodes.size());
  }
  EXPECT_EQ(unique.size(), paths.size());
}

TEST(Path, KShortestFindsBothMinimalRoutesIn2x2) {
  const Mesh m = make_mesh(2, 2);
  PathFinder f(m.topo);
  const auto paths = f.k_shortest(m.ni(0, 0), m.ni(1, 1), 4);
  // Two 4-hop routes exist (via R10 or via R01).
  ASSERT_GE(paths.size(), 2u);
  EXPECT_EQ(paths[0].hop_count(), 4u);
  EXPECT_EQ(paths[1].hop_count(), 4u);
}

TEST(ConfigTree, SpansAllAndMinDepth) {
  const Mesh m = make_mesh(4, 4);
  const ConfigTree t = build_config_tree(m.topo, m.ni(0, 0));
  EXPECT_TRUE(t.spans_all());
  // Depth from NI00: 1 to R00, +manhattan to R33, +1 to NI33 = 8.
  EXPECT_EQ(t.depth[m.ni(3, 3)], 8u);
  EXPECT_EQ(t.max_depth(), 8u);
  EXPECT_EQ(t.depth[t.root], 0u);
  EXPECT_EQ(t.bfs_order.front(), t.root);
  EXPECT_EQ(t.bfs_order.size(), m.topo.node_count());
}

TEST(ConfigTree, ParentChildAndLinksConsistent) {
  const Mesh m = make_mesh(3, 3);
  const ConfigTree t = build_config_tree(m.topo, m.ni(1, 1));
  for (NodeId n = 0; n < m.topo.node_count(); ++n) {
    if (n == t.root) continue;
    const NodeId p = t.parent[n];
    ASSERT_NE(p, kInvalidNode);
    EXPECT_EQ(m.topo.link(t.down_link[n]).src, p);
    EXPECT_EQ(m.topo.link(t.down_link[n]).dst, n);
    EXPECT_EQ(m.topo.link(t.up_link[n]).src, n);
    EXPECT_EQ(m.topo.link(t.up_link[n]).dst, p);
    EXPECT_EQ(t.depth[n], t.depth[p] + 1);
    const auto& kids = t.children[p];
    EXPECT_NE(std::find(kids.begin(), kids.end(), n), kids.end());
  }
}

TEST(ConfigTree, RootChoiceMinimizesDistance) {
  // From a central NI the tree is shallower than from a corner.
  const Mesh m = make_mesh(5, 5);
  const auto corner = build_config_tree(m.topo, m.ni(0, 0));
  const auto center = build_config_tree(m.topo, m.ni(2, 2));
  EXPECT_LT(center.max_depth(), corner.max_depth());
}

} // namespace
