#include "topology/path.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>

namespace daelite::topo {

std::vector<NodeId> Path::nodes(const Topology& t) const {
  std::vector<NodeId> out;
  if (links.empty()) return out;
  out.reserve(links.size() + 1);
  out.push_back(t.link(links.front()).src);
  for (LinkId l : links) out.push_back(t.link(l).dst);
  return out;
}

bool Path::is_connected(const Topology& t) const {
  for (std::size_t i = 0; i + 1 < links.size(); ++i)
    if (t.link(links[i]).dst != t.link(links[i + 1]).src) return false;
  return true;
}

PathFinder::PathFinder(const Topology& topo)
    : topo_(&topo), excluded_(topo.link_count(), 0), yen_mask_(topo.link_count(), 0) {
  const std::size_t n = topo.node_count();
  off_.reserve(n + 1);
  arcs_.reserve(topo.link_count());
  for (NodeId u = 0; u < n; ++u) {
    off_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    for (LinkId l : topo.node(u).out_links) arcs_.push_back(Arc{l, topo.link(l).dst});
  }
  off_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  const std::size_t words = (n + 63) / 64;
  seen_.resize(words);
  frontier_.resize(words);
  next_.resize(words);
  via_.resize(n, kInvalidLink);
}

Path PathFinder::shortest(NodeId from, NodeId to, std::span<const std::uint8_t> blocked) const {
  assert(arcs_.size() == topo_->link_count() && off_.size() == topo_->node_count() + 1 &&
         "topology changed after the PathFinder was built");
  assert(blocked.empty() || blocked.size() == topo_->link_count());
  Path p;
  if (from == to) return p;

  std::fill(seen_.begin(), seen_.end(), 0);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  seen_[from / 64] |= 1ull << (from % 64);
  frontier_[from / 64] |= 1ull << (from % 64);

  for (bool more = true; more;) {
    more = false;
    std::fill(next_.begin(), next_.end(), 0);
    for (std::size_t w = 0; w < frontier_.size(); ++w) {
      for (std::uint64_t m = frontier_[w]; m != 0; m &= m - 1) {
        const auto u = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
        for (std::uint32_t i = off_[u]; i < off_[u + 1]; ++i) {
          const Arc a = arcs_[i];
          if (excluded_[a.link] != 0 || (!blocked.empty() && blocked[a.link] != 0)) continue;
          const std::uint64_t bit = 1ull << (a.dst % 64);
          if ((seen_[a.dst / 64] & bit) != 0) continue;
          seen_[a.dst / 64] |= bit;
          via_[a.dst] = a.link;
          if (a.dst == to) {
            for (NodeId at = to; at != from; at = topo_->link(via_[at]).src) p.links.push_back(via_[at]);
            std::reverse(p.links.begin(), p.links.end());
            return p;
          }
          next_[a.dst / 64] |= bit;
          more = true;
        }
      }
    }
    frontier_.swap(next_);
  }
  return p;
}

void PathFinder::exclude_link(LinkId l) {
  if (l < excluded_.size()) excluded_[l] = 1;
}

std::vector<Path> PathFinder::k_shortest(NodeId from, NodeId to, std::size_t k) const {
  std::vector<Path> result;
  if (k == 0) return result;

  Path first = shortest(from, to);
  if (first.empty()) return result;
  result.push_back(first);

  auto path_len = [](const Path& p) { return p.links.size(); };
  // Candidate set ordered by length then lexicographically for determinism.
  auto cmp = [&](const Path& a, const Path& b) {
    if (path_len(a) != path_len(b)) return path_len(a) < path_len(b);
    return a.links < b.links;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  // One blocked mask for the whole call: each spur search sets its entries
  // and clears exactly those afterwards, so the mask is all zero between
  // spurs and between calls.
  const auto block = [&](LinkId l) {
    if (yen_mask_[l] != 0) return;
    yen_mask_[l] = 1;
    yen_set_.push_back(l);
  };

  while (result.size() < k) {
    const Path& prev = result.back();
    const std::vector<NodeId> prev_nodes = prev.nodes(*topo_);

    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      const NodeId spur_node = prev_nodes[i];
      // Root path: prev.links[0..i).

      // Remove links that would recreate an already-found path with the
      // same root.
      for (const Path& p : result) {
        if (p.links.size() > i &&
            std::equal(p.links.begin(), p.links.begin() + static_cast<std::ptrdiff_t>(i), prev.links.begin())) {
          block(p.links[i]);
        }
      }
      // Remove root-path nodes (except the spur node) to keep paths loopless.
      for (std::size_t j = 0; j < i; ++j) {
        const NodeId banned = prev_nodes[j];
        for (LinkId l : topo_->node(banned).out_links) block(l);
        for (LinkId l : topo_->node(banned).in_links) block(l);
      }

      Path spur = shortest(spur_node, to, yen_mask_);
      for (LinkId l : yen_set_) yen_mask_[l] = 0;
      yen_set_.clear();
      if (spur.empty() && spur_node != to) continue;

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

} // namespace daelite::topo
