#include "topology/path.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

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

Path PathFinder::shortest(NodeId from, NodeId to, std::span<const std::uint8_t> blocked,
                          std::size_t max_hops, std::span<const NodeId> banned) const {
  Path p;
  search(from, to, blocked, max_hops, banned, p.links);
  return p;
}

bool PathFinder::search(NodeId from, NodeId to, std::span<const std::uint8_t> blocked,
                        std::size_t max_hops, std::span<const NodeId> banned,
                        std::vector<LinkId>& out) const {
  assert(arcs_.size() == topo_->link_count() && off_.size() == topo_->node_count() + 1 &&
         "topology changed after the PathFinder was built");
  assert(blocked.empty() || blocked.size() == topo_->link_count());
  if (from == to) return false;

  std::fill(seen_.begin(), seen_.end(), 0);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  // A banned node counts as already reached: no arc ever enters it.
  for (NodeId b : banned) seen_[b / 64] |= 1ull << (b % 64);
  seen_[from / 64] |= 1ull << (from % 64);
  frontier_[from / 64] |= 1ull << (from % 64);

  // Expanding the frontier at distance hops - 1 discovers the nodes at
  // distance hops, so the bound just stops the level loop early.
  for (std::size_t hops = 1; hops <= max_hops; ++hops) {
    bool more = false;
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
            const std::size_t base = out.size();
            out.resize(base + hops);
            NodeId at = to;
            for (std::size_t j = hops; j-- > 0;) {
              out[base + j] = via_[at];
              at = topo_->link(via_[at]).src;
            }
            return true;
          }
          next_[a.dst / 64] |= bit;
          more = true;
        }
      }
    }
    if (!more) return false;
    frontier_.swap(next_);
  }
  return false;
}

void PathFinder::exclude_link(LinkId l) {
  if (l < excluded_.size()) excluded_[l] = 1;
}

// Yen's algorithm with two prunings that change no result:
//
// * Lawler's deviation index. Each result path records the index dev at
//   which its spur left its parent (0 for the first path); its spurs start
//   at dev. Take a spur of path P at i < dev with root r = links[0, i). It
//   bans the root nodes and blocks links[i] of every result path with root
//   r. That link set grows only when a result with root r brings a links[i]
//   no earlier result had under r. P brings none: it copied links[0, dev)
//   from its parent, an earlier result. Let Q be the last result that did
//   bring one. Q has dev <= i by the same argument, so when Q was processed
//   it ran this very spur: same spur node, same banned nodes and, as no
//   result since Q grew the set, same blocked links. Its total path then
//   went into the candidates, was taken into the result, or was cut by a
//   bound that is never looser than the present one. Rerunning it can only
//   find a duplicate or a path the bound cuts again.
//
// * Length bound. Let need = k - |result|. Candidates are taken in (length,
//   lex) order, so once `need` candidates are held a path ordered after the
//   need-th one can never be taken: the need-th and every one before it stay
//   until taken, and the need left picks go to them or to better paths. The
//   candidate list therefore keeps at most `need` entries, the spur BFS stops
//   after bound - i levels (bound = the need-th candidate's length, so the
//   total is at most bound), and a spur index with i + 1 > bound ends the
//   loop. The bound never loosens: a pick removes the first candidate and
//   lowers need by one, an insert can only shorten the need-th candidate.
//
// A total path never equals a result path: any result with root r has its
// links[i] blocked. So no result lookup is needed before inserting.
std::vector<Path> PathFinder::k_shortest(NodeId from, NodeId to, std::size_t k) const {
  std::vector<Path> result;
  if (k == 0) return result;

  Path first = shortest(from, to);
  if (first.empty()) return result;
  result.push_back(std::move(first));
  std::vector<std::size_t> dev{0}; ///< deviation index of each result path

  struct Candidate {
    Path path;
    std::size_t dev;
  };
  std::vector<Candidate> candidates; ///< ascending (length, lex), at most `need`
  const auto before = [](const Candidate& c, const std::vector<LinkId>& links) {
    if (c.path.links.size() != links.size()) return c.path.links.size() < links.size();
    return c.path.links < links;
  };

  // One blocked mask for the whole call: each spur search sets its entries
  // and clears exactly those afterwards, so the mask is all zero between
  // spurs and between calls.
  const auto block = [&](LinkId l) {
    if (yen_mask_[l] != 0) return;
    yen_mask_[l] = 1;
    yen_set_.push_back(l);
  };

  while (result.size() < k) {
    const std::size_t need = k - result.size();
    const Path& prev = result.back();
    yen_nodes_.assign(1, from);
    for (LinkId l : prev.links) yen_nodes_.push_back(topo_->link(l).dst);

    for (std::size_t i = dev.back(); i < prev.links.size(); ++i) {
      const std::size_t bound =
          candidates.size() >= need ? candidates[need - 1].path.hop_count() : kUnbounded;
      if (i + 1 > bound) break; // every spur adds at least one link to the i-link root
      const auto root = prev.links.begin() + static_cast<std::ptrdiff_t>(i);

      // Remove links that would recreate an already-found path with the
      // same root.
      for (const Path& p : result)
        if (p.links.size() > i && std::equal(prev.links.begin(), root, p.links.begin()))
          block(p.links[i]);

      // Root nodes (all but the spur node) are banned to keep paths loopless.
      yen_total_.assign(prev.links.begin(), root);
      // kUnbounded - i still exceeds any path length.
      const bool found = search(yen_nodes_[i], to, yen_mask_, bound - i,
                                std::span<const NodeId>(yen_nodes_).first(i), yen_total_);
      for (LinkId l : yen_set_) yen_mask_[l] = 0;
      yen_set_.clear();
      if (!found) continue;
      assert(std::none_of(result.begin(), result.end(),
                          [&](const Path& p) { return p.links == yen_total_; }));

      const auto at = std::lower_bound(candidates.begin(), candidates.end(), yen_total_, before);
      if (at != candidates.end() && at->path.links == yen_total_) continue; // found before
      if (static_cast<std::size_t>(at - candidates.begin()) >= need) continue; // can never be taken
      candidates.insert(at, Candidate{Path{yen_total_}, i});
      if (candidates.size() > need) candidates.pop_back();
    }

    if (candidates.empty()) break;
    result.push_back(std::move(candidates.front().path));
    dev.push_back(candidates.front().dev);
    candidates.erase(candidates.begin());
  }
  return result;
}

} // namespace daelite::topo
