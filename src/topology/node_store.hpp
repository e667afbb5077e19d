#pragma once
// Dense per-node stores for the network models: routers, NIs and NI queue
// pools live in vectors indexed by NodeId instead of ordered maps, so a
// lookup on the simulation's hot paths is one bounds check and one load.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/graph.hpp"

namespace daelite::topo {

/// Elements that exist at one node kind only; the other ids stay empty.
template <typename T>
class NodeStore {
 public:
  explicit NodeStore(const Topology& topo) : items_(topo.node_count()) {}

  void put(NodeId id, std::unique_ptr<T> item) { items_.at(id) = std::move(item); }

  /// Like map::at: throws std::out_of_range for an id that holds nothing.
  T& at(NodeId id) const {
    if (id >= items_.size() || items_[id] == nullptr) [[unlikely]]
      throw std::out_of_range("no element at node " + std::to_string(id));
    return *items_[id];
  }

  /// Visit every element in node-id order.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& item : items_)
      if (item != nullptr) f(*item);
  }

 private:
  std::vector<std::unique_ptr<T>> items_;
};

/// Used bits of one NI's tx and rx queues.
struct QueuePool {
  std::vector<bool> tx, rx;

  explicit QueuePool(std::size_t channels) : tx(channels, false), rx(channels, false) {}

  /// Claim the lowest free queue of `used` (tx or rx).
  static std::uint8_t take(std::vector<bool>& used) {
    const auto it = std::find(used.begin(), used.end(), false);
    assert(it != used.end() && "NI out of queues");
    if (it == used.end()) return 0;
    *it = true;
    return static_cast<std::uint8_t>(it - used.begin());
  }
};

} // namespace daelite::topo
