#pragma once
// Paths and graph search over a Topology.
//
// A Path is the static route of a (unidirectional) channel: an ordered list
// of link ids from the source node to the destination node. The allocation
// toolflow decorates paths with TDM slots; the configuration subsystem
// turns them into set-up packets.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "topology/graph.hpp"

namespace daelite::topo {

struct Path {
  std::vector<LinkId> links;

  std::size_t hop_count() const { return links.size(); }
  bool empty() const { return links.empty(); }

  NodeId source(const Topology& t) const { return links.empty() ? kInvalidNode : t.link(links.front()).src; }
  NodeId dest(const Topology& t) const { return links.empty() ? kInvalidNode : t.link(links.back()).dst; }

  /// Node sequence source..dest (hop_count()+1 entries).
  std::vector<NodeId> nodes(const Topology& t) const;

  /// True iff consecutive links share a node (dst of i == src of i+1).
  bool is_connected(const Topology& t) const;

  bool operator==(const Path&) const = default;
};

/// Hop-count path search over a fixed Topology.
///
/// The finder snapshots the topology's adjacency when it is built, so the
/// topology must not grow afterwards (asserted in Debug builds). Searches
/// reuse per-finder scratch buffers: a PathFinder is used by one thread at
/// a time (each allocator owns its own).
class PathFinder {
 public:
  explicit PathFinder(const Topology& topo);

  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  /// Minimum-hop path from -> to that uses no link l with blocked[l] != 0
  /// (`blocked` is empty or has link_count entries) and no excluded link,
  /// has at most `max_hops` links and enters no node of `banned`. Empty
  /// path if there is none or from == to. Level-synchronous BFS that
  /// expands each level in ascending node id and keeps the first link to
  /// discover a node: among equal-length paths it returns the one a
  /// (dist, node)-ordered Dijkstra with first-strict-improvement
  /// relaxation returns. A bound only truncates the search, so the result
  /// is the unbounded one whenever that fits the bound.
  Path shortest(NodeId from, NodeId to, std::span<const std::uint8_t> blocked = {},
                std::size_t max_hops = kUnbounded, std::span<const NodeId> banned = {}) const;

  /// Yen's algorithm: up to k loopless shortest paths in nondecreasing hop
  /// order, ties in lexicographic link order. Used by the multipath
  /// allocator ([29] in the paper). Spurs start at each path's deviation
  /// index (Lawler) and are length-bounded by the candidates already held;
  /// neither changes the result of plain Yen.
  std::vector<Path> k_shortest(NodeId from, NodeId to, std::size_t k) const;

  /// Persistently remove a link from every search (the allocator's link
  /// quarantine). Enforced inside the search that shortest and k_shortest share,
  /// so no caller-supplied mask can resurrect an excluded link.
  void exclude_link(LinkId l);
  void clear_exclusions() { excluded_.assign(excluded_.size(), 0); }

 private:
  struct Arc {
    LinkId link;
    NodeId dst;
  };

  /// The one BFS behind shortest and k_shortest: appends the path's links
  /// to `out` and returns true, or leaves `out` alone and returns false.
  bool search(NodeId from, NodeId to, std::span<const std::uint8_t> blocked, std::size_t max_hops,
              std::span<const NodeId> banned, std::vector<LinkId>& out) const;

  const Topology* topo_;
  std::vector<std::uint32_t> off_; ///< node u's out-arcs are arcs_[off_[u], off_[u + 1])
  std::vector<Arc> arcs_;          ///< out_links order, so ties break as the ports do
  std::vector<std::uint8_t> excluded_;

  // Search scratch, reused across calls (node bitsets, one bit per node).
  mutable std::vector<std::uint64_t> seen_, frontier_, next_;
  mutable std::vector<LinkId> via_;            ///< discovering link, valid where seen_
  mutable std::vector<std::uint8_t> yen_mask_; ///< all zero between k_shortest calls
  mutable std::vector<LinkId> yen_set_;        ///< entries of yen_mask_ set for one spur
  mutable std::vector<NodeId> yen_nodes_;      ///< node sequence of the path being spurred
  mutable std::vector<LinkId> yen_total_;      ///< root + spur of the current spur
};

} // namespace daelite::topo
