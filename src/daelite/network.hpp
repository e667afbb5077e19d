#pragma once
// Whole-network assembly: instantiate routers, NIs, the configuration tree
// and the host configuration module from a Topology, and provide the
// connection-level programming API (the paper's set-up / tear-down
// procedure, §IV).
//
// Two programming paths exist:
//  * the hardware path — open_connection()/close_connection() build the
//    configuration packets and stream them through the broadcast tree, so
//    set-up cost and timing are exactly what the paper measures;
//  * the direct path — program_route_direct() pokes the slot tables
//    immediately, used by unit tests to separate data-path correctness
//    from configuration correctness.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/route.hpp"
#include "alloc/usecase.hpp"
#include "daelite/config.hpp"
#include "daelite/config_host.hpp"
#include "daelite/ni.hpp"
#include "daelite/router.hpp"
#include "daelite/slot_engine.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "topology/graph.hpp"
#include "topology/node_store.hpp"
#include "topology/spanning_tree.hpp"

namespace daelite::hw {

/// Queue bindings of an open connection.
struct ConnectionHandle {
  alloc::AllocatedConnection conn;
  std::uint8_t src_tx_q = 0;               ///< request data out of the source NI
  std::uint8_t src_rx_q = 0;               ///< response data into the source NI (unicast)
  std::uint8_t dst_tx_q = 0;               ///< response data out of the destination NI (unicast)
  std::vector<std::uint8_t> dst_rx_qs;     ///< request data into each destination NI
};

class DaeliteNetwork {
 public:
  struct Options {
    tdm::TdmParams tdm = tdm::daelite_params(8);
    std::size_t ni_channels = 8;
    std::size_t ni_queue_capacity = 32;
    topo::NodeId cfg_root = 0;           ///< element the config module attaches to
    std::uint32_t cool_down_cycles = 4;
    /// Response watchdog on the configuration module. The timeout defaults
    /// to a bound derived from the tree depth (a response round-trip takes
    /// ~4*depth+6 cycles after the request's last word); override with
    /// cfg_response_timeout != 0. cfg_watchdog = false restores the
    /// pre-watchdog blocking behaviour (protocol tests).
    bool cfg_watchdog = true;
    std::uint32_t cfg_response_timeout = 0; ///< 0: derive from tree depth
    std::uint32_t cfg_max_retries = 3;
    /// Scale on the depth-derived timeout (ignored when
    /// cfg_response_timeout is set explicitly). Values > 1 trade slower
    /// loss detection for robustness on congested trees; the product is
    /// clamped to at least one cycle.
    double cfg_timeout_mult = 1.0;
    /// Worker shards for single-run parallelism (stride scheduler only;
    /// clamped to [1, 64]). The data path runs as one hw::SlotEngine per
    /// shard band: a contiguous range of node ids, so row-major meshes
    /// shard into row bands and most links stay band-internal. Only the
    /// routers and NIs are banded — their ticks read committed link
    /// registers and write their own state, the contract sharded
    /// components must obey (sim/kernel.hpp). Config agents, the config
    /// module, and any injector/monitor stay in the kernel's serial set.
    /// Reports and traces are byte-identical for every shard count and
    /// under the reference scheduler, which builds no engine at all.
    std::uint32_t shards = 1;
  };

  DaeliteNetwork(sim::Kernel& k, const topo::Topology& topo, Options options);

  Router& router(topo::NodeId id) { return routers_.at(id); }
  Ni& ni(topo::NodeId id) { return nis_.at(id); }
  const Ni& ni(topo::NodeId id) const { return nis_.at(id); }
  ConfigModule& config_module() { return *config_module_; }
  const topo::ConfigTree& config_tree() const { return cfg_tree_; }
  const CfgIdMap& cfg_ids() const { return cfg_ids_; }
  const topo::Topology& topology() const { return *topo_; }
  const Options& options() const { return options_; }
  sim::Kernel& kernel() { return *kernel_; }

  // --- Hardware configuration path -------------------------------------------

  /// Enqueue the full set-up sequence for an allocated connection:
  /// path packets (branches before trunk), credit pairing, credit
  /// initialization, and flags. Returns the queue bindings.
  ConnectionHandle open_connection(const alloc::AllocatedConnection& conn);

  /// Enqueue the tear-down sequence and free the queues.
  void close_connection(const ConnectionHandle& handle);

  /// Enqueue set-up packets for a bare channel (no credits/flags).
  void post_route_setup(const alloc::RouteTree& route, std::uint8_t tx_queue,
                        const std::vector<std::uint8_t>& rx_queues);
  void post_route_teardown(const alloc::RouteTree& route, std::uint8_t tx_queue,
                           const std::vector<std::uint8_t>& rx_queues);

  /// True when the module finished streaming and the words drained to the
  /// deepest tree node.
  bool config_idle() const;

  /// Run the kernel until config_idle() (with drain). Returns cycles
  /// spent, or sim::kNoCycle if the configuration did not converge within
  /// max_cycles (e.g. a lost read response with the watchdog disabled) —
  /// callers must check, in NDEBUG builds too.
  sim::Cycle run_config(sim::Cycle max_cycles = 1'000'000);

  // --- Direct (test) configuration --------------------------------------------

  void program_route_direct(const alloc::RouteTree& route, std::uint8_t tx_queue,
                            const std::vector<std::uint8_t>& rx_queues);
  void clear_route_direct(const alloc::RouteTree& route, std::uint8_t tx_queue,
                          const std::vector<std::uint8_t>& rx_queues);

  // --- Queue management --------------------------------------------------------

  std::uint8_t alloc_tx_queue(topo::NodeId ni) { return topo::QueuePool::take(queues_.at(ni).tx); }
  std::uint8_t alloc_rx_queue(topo::NodeId ni) { return topo::QueuePool::take(queues_.at(ni).rx); }
  void free_tx_queue(topo::NodeId ni, std::uint8_t q) { queues_.at(ni).tx[q] = false; }
  void free_rx_queue(topo::NodeId ni, std::uint8_t q) { queues_.at(ni).rx[q] = false; }

  // --- Aggregate health --------------------------------------------------------

  std::uint64_t total_router_drops() const;
  std::uint64_t total_ni_drops() const;
  std::uint64_t total_rx_overflow() const;
  std::uint64_t total_cfg_errors() const;
  /// Config-agent protocol errors across routers AND NIs (the report's
  /// `health.protocol_errors` — NI agents used to be invisible).
  std::uint64_t total_protocol_errors() const;
  /// End-to-end integrity verdicts summed over every NI rx channel
  /// (per-word parity mismatches / sideband sequence gaps).
  std::uint64_t total_corrupt_words() const;
  std::uint64_t total_lost_words() const;

  // --- Fault injection ---------------------------------------------------------

  /// Register every link with an injector (kData: data links in topology
  /// order; kCfgFwd/kCfgResp: configuration tree in BFS order). The
  /// injector keeps only the lines its plan can touch, and must have been
  /// constructed after this network so it commits last in the cycle.
  void attach_fault_lines(sim::FaultInjector& injector);

 private:
  sim::Reg<Flit>& link_reg(topo::LinkId l); ///< the register link l leaves its source on
  ConfigAgent& agent_of(topo::NodeId n);

  /// (segments, queue words) shared by setup and teardown.
  std::vector<std::vector<std::uint8_t>> encode_route_packets(const alloc::RouteTree& route,
                                                              std::uint8_t tx_queue,
                                                              const std::vector<std::uint8_t>& rx_queues,
                                                              bool setup) const;

  sim::Kernel* kernel_;
  const topo::Topology* topo_;
  Options options_;
  CfgIdMap cfg_ids_;
  topo::ConfigTree cfg_tree_;

  topo::NodeStore<Router> routers_;
  topo::NodeStore<Ni> nis_;
  topo::NodeStore<topo::QueuePool> queues_; ///< at NI ids, like nis_
  std::unique_ptr<ConfigModule> config_module_;
  /// Data-path dispatch engines (stride scheduler), one per shard band.
  /// Declared after the elements so they are destroyed first and never
  /// hold a dangling element pointer.
  std::vector<std::unique_ptr<SlotEngine>> engines_;

  std::uint64_t setup_seq_ = 0;    ///< trace-span sequence numbers (arg0 of the
  std::uint64_t teardown_seq_ = 0; ///< kSetup*/kTeardown* marker records)
};

} // namespace daelite::hw
