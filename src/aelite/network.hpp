#pragma once
// aelite whole-network assembly and channel programming.
//
// The data path is simulated cycle-accurately (source-routed routers,
// header-carrying NIs); configuration *timing* is modelled by
// AeliteConfigHost (config messages travel through the data network on
// reserved slots), while the tables themselves are programmed directly —
// the paper compares configuration cost in cycles, not config-bit
// encodings, for aelite.

#include <memory>
#include <optional>
#include <vector>

#include "aelite/ni.hpp"
#include "aelite/router.hpp"
#include "alloc/allocator.hpp"
#include "alloc/usecase.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "topology/graph.hpp"
#include "topology/node_store.hpp"

namespace daelite::aelite {

/// Channel id used for the reserved configuration slots in the schedule.
inline constexpr tdm::ChannelId kConfigChannel = 0xFFFFFF00u;

struct AeliteConnectionHandle {
  alloc::AllocatedConnection conn;
  std::uint8_t src_tx_q = 0;
  std::uint8_t src_rx_q = 0;
  std::uint8_t dst_tx_q = 0;
  std::uint8_t dst_rx_q = 0;
};

class AeliteNetwork {
 public:
  struct Options {
    tdm::TdmParams tdm = tdm::aelite_params(16);
    std::size_t ni_channels = 8;
    std::size_t ni_queue_capacity = 32;
  };

  AeliteNetwork(sim::Kernel& k, const topo::Topology& topo, Options options);

  Router& router(topo::NodeId id) { return routers_.at(id); }
  Ni& ni(topo::NodeId id) { return nis_.at(id); }
  const topo::Topology& topology() const { return *topo_; }
  const Options& options() const { return options_; }

  /// Reserve one slot on every NI<->router link for configuration traffic
  /// (paper §V: "aelite reserves at least one slot on each of the
  /// NI-router and router-NI links for configuration traffic"). Call this
  /// on the allocator before admitting data connections; returns the
  /// number of (link, slot) pairs reserved.
  static std::size_t reserve_config_slots(alloc::SlotAllocator& alloc, tdm::Slot slot = 0);

  /// Compute the source-routing path code of a unicast route: one 3-bit
  /// output-port field per router on the path.
  PathCode path_code(const alloc::RouteTree& route) const;

  /// Program a unicast channel directly (tables, path, pairing disabled).
  void program_channel(const alloc::RouteTree& route, std::uint8_t tx_q, std::uint8_t rx_q);
  void clear_channel(const alloc::RouteTree& route, std::uint8_t tx_q);

  /// Program a full bidirectional connection (request + response channels,
  /// credits, pairing, enable), allocating queues.
  AeliteConnectionHandle open_connection(const alloc::AllocatedConnection& conn);

  std::uint64_t total_collisions() const;
  std::uint64_t total_rx_overflow() const;
  std::uint64_t total_header_words() const;
  std::uint64_t total_payload_words() const;

  /// Register every data link (topology order) with an injector as
  /// sim::FaultClass::kAelite lines. The injector must have been
  /// constructed after this network so it commits last in the cycle.
  void attach_fault_lines(sim::FaultInjector& injector);

 private:
  const topo::Topology* topo_;
  Options options_;
  topo::NodeStore<Router> routers_;
  topo::NodeStore<Ni> nis_;
  topo::NodeStore<topo::QueuePool> queues_; ///< at NI ids, like nis_
};

} // namespace daelite::aelite
