#include "daelite/network.hpp"

#include <algorithm>
#include <cassert>

namespace daelite::hw {

DaeliteNetwork::DaeliteNetwork(sim::Kernel& k, const topo::Topology& topo, Options options)
    : kernel_(&k), topo_(&topo), options_(options), routers_(topo), nis_(topo), queues_(topo) {
  assert(options_.tdm.valid());
  cfg_ids_ = assign_cfg_ids(topo);
  cfg_tree_ = topo::build_config_tree(topo, options_.cfg_root);
  assert(cfg_tree_.spans_all() && "configuration tree must reach every network element");

  // Instantiate elements.
  Ni::Params ni_params;
  ni_params.tdm = options_.tdm;
  ni_params.num_channels = options_.ni_channels;
  ni_params.queue_capacity = options_.ni_queue_capacity;

  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const topo::Node& node = topo.node(n);
    if (node.kind == topo::NodeKind::kRouter) {
      routers_.put(n, std::make_unique<Router>(k, node.name, cfg_ids_.at(n), node.in_links.size(),
                                               node.out_links.size(), options_.tdm));
    } else {
      assert(node.in_links.size() == 1 && node.out_links.size() == 1 &&
             "an NI attaches to exactly one router");
      nis_.put(n, std::make_unique<Ni>(k, node.name, cfg_ids_.at(n), ni_params));
      queues_.put(n, std::make_unique<topo::QueuePool>(options_.ni_channels));
    }
  }

  // Wire the data links.
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const topo::Link& link = topo.link(l);
    const sim::Reg<Flit>* src_reg = &link_reg(l);
    if (topo.is_router(link.dst)) {
      routers_.at(link.dst).connect_input(link.dst_port, src_reg);
    } else {
      nis_.at(link.dst).connect_input(src_reg);
    }
  }

  // Host configuration module + broadcast tree wiring.
  ConfigModule::Params cfg_params;
  cfg_params.cool_down_cycles = options_.cool_down_cycles;
  if (options_.cfg_watchdog) {
    // A read response round-trips in ~4*depth+6 cycles after the request's
    // last word; the derived default adds slack for the host-write padding.
    cfg_params.response_timeout_cycles =
        options_.cfg_response_timeout != 0
            ? options_.cfg_response_timeout
            : std::max<std::uint32_t>(
                  1, static_cast<std::uint32_t>((4 * cfg_tree_.max_depth() + 16) *
                                                std::max(0.0, options_.cfg_timeout_mult)));
    cfg_params.max_retries = options_.cfg_max_retries;
    cfg_params.retry_cool_down_cycles = options_.cool_down_cycles;
  }
  config_module_ = std::make_unique<ConfigModule>(k, "cfg_host", cfg_params);

  for (topo::NodeId n : cfg_tree_.bfs_order) {
    if (n == cfg_tree_.root) {
      agent_of(n).connect_parent(&config_module_->fwd_out());
    } else {
      ConfigAgent& parent = agent_of(cfg_tree_.parent[n]);
      agent_of(n).connect_parent(&parent.fwd_out());
      parent.add_child_resp(&agent_of(n).resp_out());
    }
  }
  config_module_->connect_resp(&agent_of(cfg_tree_.root).resp_out());

  // Let the module suspend the whole (otherwise per-cycle) configuration
  // tree once it has drained — the dominant scheduling win on large
  // meshes, where agents are half of all components.
  std::vector<sim::Component*> agents;
  agents.reserve(cfg_tree_.bfs_order.size());
  for (topo::NodeId n : cfg_tree_.bfs_order) agents.push_back(&agent_of(n));
  config_module_->manage_tree(std::move(agents),
                              ConfigModule::drain_cycles(cfg_tree_.max_depth()));

  // The stride data path: one slot engine per shard band, band b covering
  // node ids [ceil(b*n/bands), ceil((b+1)*n/bands)). The reference
  // scheduler ignores suspension, so there every element ticks itself.
  if (k.scheduler() != sim::Scheduler::kStride) return;
  k.set_shards(options_.shards);
  const std::uint32_t bands = k.shards(); // after clamping
  const std::size_t n = topo.node_count();
  for (std::uint32_t b = 0; b < bands; ++b) {
    const std::size_t lo = (b * n + bands - 1) / bands;
    const std::size_t hi = ((b + 1) * n + bands - 1) / bands;
    if (lo == hi) continue;
    auto engine = std::make_unique<SlotEngine>(k, "slot_engine" + std::to_string(b), options_.tdm);
    for (auto id = static_cast<topo::NodeId>(lo); id < hi; ++id) {
      if (topo.is_router(id)) {
        engine->add_router(routers_.at(id));
      } else {
        engine->add_ni(nis_.at(id));
      }
    }
    engine->finalize(b);
    engines_.push_back(std::move(engine));
  }
}

sim::Reg<Flit>& DaeliteNetwork::link_reg(topo::LinkId l) {
  const topo::Link& link = topo_->link(l);
  return topo_->is_router(link.src) ? routers_.at(link.src).output_reg(link.src_port)
                                    : nis_.at(link.src).output_reg();
}

ConfigAgent& DaeliteNetwork::agent_of(topo::NodeId n) {
  return topo_->is_router(n) ? routers_.at(n).config_agent() : nis_.at(n).config_agent();
}

// --- Hardware configuration path -------------------------------------------------

std::vector<std::vector<std::uint8_t>> DaeliteNetwork::encode_route_packets(
    const alloc::RouteTree& route, std::uint8_t tx_queue,
    const std::vector<std::uint8_t>& rx_queues, bool setup) const {
  const auto segments = alloc::make_cfg_segments(*topo_, options_.tdm, route, tx_queue, rx_queues);
  std::vector<std::vector<std::uint8_t>> packets;
  packets.reserve(segments.size());
  for (const auto& seg : segments)
    packets.push_back(encode_path_packet(seg, options_.tdm, cfg_ids_, setup));
  if (!setup) {
    // Tear down the trunk (which disarms the source NI) before the
    // branches, the reverse of the bring-up order.
    std::reverse(packets.begin(), packets.end());
  }
  return packets;
}

void DaeliteNetwork::post_route_setup(const alloc::RouteTree& route, std::uint8_t tx_queue,
                                      const std::vector<std::uint8_t>& rx_queues) {
  for (auto& p : encode_route_packets(route, tx_queue, rx_queues, true))
    config_module_->enqueue_packet(std::move(p), /*is_path=*/true);
}

void DaeliteNetwork::post_route_teardown(const alloc::RouteTree& route, std::uint8_t tx_queue,
                                         const std::vector<std::uint8_t>& rx_queues) {
  for (auto& p : encode_route_packets(route, tx_queue, rx_queues, false))
    config_module_->enqueue_packet(std::move(p), /*is_path=*/true);
}

ConnectionHandle DaeliteNetwork::open_connection(const alloc::AllocatedConnection& conn) {
  ConnectionHandle h;
  h.conn = conn;
  const alloc::RouteTree& req = conn.request;
  const std::uint64_t seq = setup_seq_++;
  config_module_->enqueue_marker(sim::TraceEvent::kSetupBegin, seq);

  h.src_tx_q = alloc_tx_queue(req.src_ni);
  for (topo::NodeId dst : req.dst_nis) h.dst_rx_qs.push_back(alloc_rx_queue(dst));

  // Modelling metadata for latency/ordering accounting.
  nis_.at(req.src_ni).set_debug_channel(h.src_tx_q, req.channel);

  if (conn.has_response) {
    const topo::NodeId dst = req.dst_nis[0];
    h.dst_tx_q = alloc_tx_queue(dst);
    h.src_rx_q = alloc_rx_queue(req.src_ni);
    nis_.at(dst).set_debug_channel(h.dst_tx_q, conn.response.channel);

    post_route_setup(req, h.src_tx_q, h.dst_rx_qs);
    post_route_setup(conn.response, h.dst_tx_q, {h.src_rx_q});

    const std::uint16_t src_id = cfg_ids_.at(req.src_ni);
    const std::uint16_t dst_id = cfg_ids_.at(dst);
    const auto cap = static_cast<std::uint8_t>(
        std::min<std::size_t>(options_.ni_queue_capacity, 63)); // 6-bit credit values
    config_module_->enqueue_packet(encode_set_pair(src_id, h.src_tx_q, h.src_rx_q), false);
    config_module_->enqueue_packet(encode_set_pair(dst_id, h.dst_tx_q, h.dst_rx_qs[0]), false);
    config_module_->enqueue_packet(encode_write_credit(src_id, h.src_tx_q, cap), false);
    config_module_->enqueue_packet(encode_write_credit(dst_id, h.dst_tx_q, cap), false);
    config_module_->enqueue_packet(encode_set_flags(src_id, h.src_tx_q, kFlagTxEnabled), false);
    config_module_->enqueue_packet(encode_set_flags(dst_id, h.dst_tx_q, kFlagTxEnabled), false);
  } else {
    // Multicast: no response channel, flow control disabled (paper §IV:
    // "the default flow-control mechanism cannot be used").
    post_route_setup(req, h.src_tx_q, h.dst_rx_qs);
    const std::uint16_t src_id = cfg_ids_.at(req.src_ni);
    config_module_->enqueue_packet(encode_set_pair(src_id, h.src_tx_q, kCfgNoQueue), false);
    config_module_->enqueue_packet(
        encode_set_flags(src_id, h.src_tx_q, kFlagTxEnabled | kFlagFlowCtrlOff), false);
  }
  config_module_->enqueue_marker(sim::TraceEvent::kSetupEnd, seq);
  return h;
}

void DaeliteNetwork::close_connection(const ConnectionHandle& h) {
  const alloc::RouteTree& req = h.conn.request;
  const std::uint64_t seq = teardown_seq_++;
  config_module_->enqueue_marker(sim::TraceEvent::kTeardownBegin, seq);
  // Disable the sources first, then clear the tables.
  config_module_->enqueue_packet(encode_set_flags(cfg_ids_.at(req.src_ni), h.src_tx_q, 0), false);
  if (h.conn.has_response) {
    config_module_->enqueue_packet(
        encode_set_flags(cfg_ids_.at(req.dst_nis[0]), h.dst_tx_q, 0), false);
  }
  post_route_teardown(req, h.src_tx_q, h.dst_rx_qs);
  if (h.conn.has_response) post_route_teardown(h.conn.response, h.dst_tx_q, {h.src_rx_q});

  free_tx_queue(req.src_ni, h.src_tx_q);
  for (std::size_t i = 0; i < req.dst_nis.size(); ++i)
    free_rx_queue(req.dst_nis[i], h.dst_rx_qs[i]);
  if (h.conn.has_response) {
    free_tx_queue(req.dst_nis[0], h.dst_tx_q);
    free_rx_queue(req.src_ni, h.src_rx_q);
  }
  config_module_->enqueue_marker(sim::TraceEvent::kTeardownEnd, seq);
}

bool DaeliteNetwork::config_idle() const { return config_module_->idle(); }

sim::Cycle DaeliteNetwork::run_config(sim::Cycle max_cycles) {
  const sim::Cycle start = kernel_->now();
  if (!kernel_->run_until([this] { return config_module_->idle(); }, max_cycles)) {
    // Configuration did not converge inside the budget (e.g. a lost read
    // response with the watchdog disabled). This used to be an assert that
    // NDEBUG builds silently swallowed; the sentinel forces every caller
    // to decide.
    return sim::kNoCycle;
  }
  kernel_->run(ConfigModule::drain_cycles(cfg_tree_.max_depth()));
  return kernel_->now() - start;
}

// --- Direct (test) configuration ---------------------------------------------------

void DaeliteNetwork::program_route_direct(const alloc::RouteTree& route, std::uint8_t tx_queue,
                                          const std::vector<std::uint8_t>& rx_queues) {
  const tdm::TdmParams& p = options_.tdm;
  Ni& src = nis_.at(route.src_ni);
  src.set_debug_channel(tx_queue, route.channel);
  for (tdm::Slot q : route.inject_slots) {
    src.table().set_tx(q, tx_queue);
    for (const alloc::RouteEdge& e : route.edges) {
      const topo::Link& link = topo_->link(e.link);
      if (!topo_->is_router(link.src)) continue; // the NI->router link has no table entry
      const auto parent = route.edge_into(*topo_, link.src);
      assert(parent.has_value());
      const auto in_port = static_cast<tdm::PortIndex>(topo_->link(parent->link).dst_port);
      routers_.at(link.src).table().set(link.src_port, p.slot_at_link(q, e.depth), in_port);
    }
    for (std::size_t i = 0; i < route.dst_nis.size(); ++i) {
      const topo::NodeId dst = route.dst_nis[i];
      nis_.at(dst).table().set_rx(route.rx_slot(*topo_, p, dst, q), rx_queues[i]);
    }
  }
}

void DaeliteNetwork::clear_route_direct(const alloc::RouteTree& route, std::uint8_t /*tx_queue*/,
                                        const std::vector<std::uint8_t>& /*rx_queues*/) {
  const tdm::TdmParams& p = options_.tdm;
  Ni& src = nis_.at(route.src_ni);
  for (tdm::Slot q : route.inject_slots) {
    src.table().clear_tx(q);
    for (const alloc::RouteEdge& e : route.edges) {
      const topo::Link& link = topo_->link(e.link);
      if (!topo_->is_router(link.src)) continue;
      routers_.at(link.src).table().clear(link.src_port, p.slot_at_link(q, e.depth));
    }
    for (topo::NodeId dst : route.dst_nis)
      nis_.at(dst).table().clear_rx(route.rx_slot(*topo_, p, dst, q));
  }
}

// --- Aggregate health ----------------------------------------------------------------

std::uint64_t DaeliteNetwork::total_router_drops() const {
  std::uint64_t n = 0;
  routers_.for_each([&](const Router& r) { n += r.stats().flits_dropped; });
  return n;
}

std::uint64_t DaeliteNetwork::total_ni_drops() const {
  std::uint64_t n = 0;
  nis_.for_each([&](const Ni& ni) { n += ni.stats().flits_dropped; });
  return n;
}

std::uint64_t DaeliteNetwork::total_rx_overflow() const {
  std::uint64_t n = 0;
  nis_.for_each([&](const Ni& ni) { n += ni.stats().rx_overflow; });
  return n;
}

std::uint64_t DaeliteNetwork::total_cfg_errors() const {
  std::uint64_t n = 0;
  routers_.for_each([&](const Router& r) { n += r.stats().cfg_errors; });
  nis_.for_each([&](const Ni& ni) { n += ni.stats().cfg_errors; });
  return n;
}

std::uint64_t DaeliteNetwork::total_corrupt_words() const {
  std::uint64_t n = 0;
  nis_.for_each([&](const Ni& ni) {
    for (std::size_t q = 0; q < options_.ni_channels; ++q) n += ni.rx_stats(q).corrupt_words;
  });
  return n;
}

std::uint64_t DaeliteNetwork::total_lost_words() const {
  std::uint64_t n = 0;
  nis_.for_each([&](const Ni& ni) {
    for (std::size_t q = 0; q < options_.ni_channels; ++q) n += ni.rx_stats(q).lost_words;
  });
  return n;
}

std::uint64_t DaeliteNetwork::total_protocol_errors() const {
  std::uint64_t n = 0;
  routers_.for_each([&](Router& r) { n += r.config_agent().protocol_errors(); });
  nis_.for_each([&](Ni& ni) { n += ni.config_agent().protocol_errors(); });
  return n;
}

// --- Fault injection -----------------------------------------------------------------

namespace {

// 4x32 data words + valid flags + credit; flips land in a carried data
// word when one exists (first preference: the word the bit addresses),
// else in the low credit bits so the corruption stays observable.
// Stuck-at sets the same bit.
struct FlitFaultPolicy {
  static constexpr std::uint32_t kBits = 128;
  static bool present(const Flit& f) { return f.valid; }
  template <typename Op>
  static void at_bit(Flit& f, std::uint32_t bit, Op op) {
    const std::uint32_t w = (bit / 32) % Flit::kMaxWords;
    const std::uint32_t b = bit % 32;
    if (f.data_valid[w]) return op(f.data[w], 1u << b);
    for (std::uint32_t i = 0; i < Flit::kMaxWords; ++i)
      if (f.data_valid[i]) return op(f.data[i], 1u << b);
    op(f.credit, 1u << (b % 6));
  }
  static void flip(Flit& f, std::uint32_t bit) {
    at_bit(f, bit, [](std::uint32_t& v, std::uint32_t m) { v ^= m; });
  }
  static void force_one(Flit& f, std::uint32_t bit) {
    at_bit(f, bit, [](std::uint32_t& v, std::uint32_t m) { v |= m; });
  }
};

struct CfgWordFaultPolicy {
  static constexpr std::uint32_t kBits = 7;
  static bool present(const CfgWord& w) { return w.valid; }
  static void flip(CfgWord& w, std::uint32_t bit) {
    w.data = static_cast<std::uint8_t>(w.data ^ (1u << (bit % kBits)));
  }
  static void force_one(CfgWord& w, std::uint32_t bit) {
    w.data = static_cast<std::uint8_t>(w.data | (1u << (bit % kBits)));
  }
};

} // namespace

void DaeliteNetwork::attach_fault_lines(sim::FaultInjector& injector) {
  using sim::FaultClass;
  // Fresh flits land on link registers only at slot-aligned cycles.
  const auto stride = static_cast<std::uint32_t>(options_.tdm.words_per_slot);
  for (topo::LinkId l = 0; l < topo_->link_count(); ++l)
    injector.watch<FlitFaultPolicy>(FaultClass::kData, link_reg(l), stride, 0);
  injector.watch<CfgWordFaultPolicy>(FaultClass::kCfgFwd, config_module_->fwd_out());
  for (topo::NodeId n : cfg_tree_.bfs_order)
    injector.watch<CfgWordFaultPolicy>(FaultClass::kCfgFwd, agent_of(n).fwd_out());
  for (topo::NodeId n : cfg_tree_.bfs_order)
    injector.watch<CfgWordFaultPolicy>(FaultClass::kCfgResp, agent_of(n).resp_out());
}

} // namespace daelite::hw
