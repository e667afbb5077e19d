#include "aelite/network.hpp"

#include <cassert>

namespace daelite::aelite {

AeliteNetwork::AeliteNetwork(sim::Kernel& k, const topo::Topology& topo, Options options)
    : topo_(&topo), options_(options), routers_(topo), nis_(topo), queues_(topo) {
  assert(options_.tdm.valid());

  Ni::Params ni_params;
  ni_params.tdm = options_.tdm;
  ni_params.num_channels = options_.ni_channels;
  ni_params.queue_capacity = options_.ni_queue_capacity;

  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const topo::Node& node = topo.node(n);
    if (node.kind == topo::NodeKind::kRouter) {
      routers_.put(n, std::make_unique<Router>(k, "ae." + node.name, node.in_links.size(),
                                               node.out_links.size(), options_.tdm));
    } else {
      nis_.put(n, std::make_unique<Ni>(k, "ae." + node.name, ni_params));
      queues_.put(n, std::make_unique<topo::QueuePool>(options_.ni_channels));
    }
  }
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const topo::Link& link = topo.link(l);
    const sim::Reg<AeliteFlit>* src_reg =
        topo.is_router(link.src) ? &routers_.at(link.src).output_reg(link.src_port)
                                 : &nis_.at(link.src).output_reg();
    if (topo.is_router(link.dst)) {
      routers_.at(link.dst).connect_input(link.dst_port, src_reg);
    } else {
      nis_.at(link.dst).connect_input(src_reg);
    }
  }
}

std::size_t AeliteNetwork::reserve_config_slots(alloc::SlotAllocator& alloc, tdm::Slot slot) {
  const topo::Topology& t = alloc.topology();
  std::size_t n = 0;
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const topo::Link& link = t.link(l);
    if (t.is_ni(link.src) || t.is_ni(link.dst)) {
      if (alloc.reserve_raw(l, slot, kConfigChannel)) ++n;
    }
  }
  return n;
}

PathCode AeliteNetwork::path_code(const alloc::RouteTree& route) const {
  assert(route.is_unicast());
  PathCode code;
  // Edges are depth-sorted; every edge leaving a router contributes that
  // router's output port.
  for (const alloc::RouteEdge& e : route.edges) {
    const topo::Link& l = topo_->link(e.link);
    if (topo_->is_router(l.src)) code.push_hop(static_cast<std::uint8_t>(l.src_port));
  }
  return code;
}

void AeliteNetwork::program_channel(const alloc::RouteTree& route, std::uint8_t tx_q,
                                    std::uint8_t rx_q) {
  Ni& src = nis_.at(route.src_ni);
  src.set_path(tx_q, path_code(route), rx_q);
  src.set_debug_channel(tx_q, route.channel);
  for (tdm::Slot q : route.inject_slots) src.table().set_tx(q, tx_q);
  src.set_enabled(tx_q, true);
}

void AeliteNetwork::clear_channel(const alloc::RouteTree& route, std::uint8_t tx_q) {
  Ni& src = nis_.at(route.src_ni);
  for (tdm::Slot q : route.inject_slots) src.table().clear_tx(q);
  src.set_enabled(tx_q, false);
}

AeliteConnectionHandle AeliteNetwork::open_connection(const alloc::AllocatedConnection& conn) {
  assert(conn.has_response && "aelite connections are bidirectional (no native multicast)");
  AeliteConnectionHandle h;
  h.conn = conn;
  const topo::NodeId src = conn.request.src_ni;
  const topo::NodeId dst = conn.request.dst_nis[0];
  h.src_tx_q = topo::QueuePool::take(queues_.at(src).tx);
  h.src_rx_q = topo::QueuePool::take(queues_.at(src).rx);
  h.dst_tx_q = topo::QueuePool::take(queues_.at(dst).tx);
  h.dst_rx_q = topo::QueuePool::take(queues_.at(dst).rx);

  program_channel(conn.request, h.src_tx_q, h.dst_rx_q);
  program_channel(conn.response, h.dst_tx_q, h.src_rx_q);
  ni(src).set_pair(h.src_tx_q, h.src_rx_q);
  ni(dst).set_pair(h.dst_tx_q, h.dst_rx_q);
  const auto cap = static_cast<std::uint32_t>(std::min<std::size_t>(options_.ni_queue_capacity, 63));
  ni(src).set_credit(h.src_tx_q, cap);
  ni(dst).set_credit(h.dst_tx_q, cap);
  return h;
}

std::uint64_t AeliteNetwork::total_collisions() const {
  std::uint64_t n = 0;
  routers_.for_each([&](const Router& r) { n += r.stats().collisions + r.stats().orphan_flits; });
  return n;
}

std::uint64_t AeliteNetwork::total_rx_overflow() const {
  std::uint64_t n = 0;
  nis_.for_each([&](const Ni& ni) { n += ni.stats().rx_overflow; });
  return n;
}

std::uint64_t AeliteNetwork::total_header_words() const {
  std::uint64_t n = 0;
  nis_.for_each([&](const Ni& ni) {
    for (std::size_t q = 0; q < options_.ni_channels; ++q) n += ni.tx_stats(q).header_words_sent;
  });
  return n;
}

std::uint64_t AeliteNetwork::total_payload_words() const {
  std::uint64_t n = 0;
  nis_.for_each([&](const Ni& ni) {
    for (std::size_t q = 0; q < options_.ni_channels; ++q) n += ni.tx_stats(q).words_sent;
  });
  return n;
}

namespace {

// Flips land in a carried payload word when one exists, else in the header
// credit field; stuck-at sets the same bits. Dropping clears the slot.
struct AeliteFlitFaultPolicy {
  static constexpr std::uint32_t kBits =
      32 * static_cast<std::uint32_t>(AeliteFlit::kWordsPerSlot);
  static bool present(const AeliteFlit& f) { return f.valid; }
  template <typename Op>
  static void at_bit(AeliteFlit& f, std::uint32_t bit, Op op) {
    const std::uint32_t b = bit % 32;
    const std::uint32_t w = (bit / 32) % AeliteFlit::kWordsPerSlot;
    if (f.payload_count != 0) return op(f.payload[w % f.payload_count], 1u << b);
    op(f.credit, 1u << (b % 6));
  }
  static void flip(AeliteFlit& f, std::uint32_t bit) {
    at_bit(f, bit, [](auto& v, std::uint32_t m) { v ^= m; });
  }
  static void force_one(AeliteFlit& f, std::uint32_t bit) {
    at_bit(f, bit, [](auto& v, std::uint32_t m) { v |= m; });
  }
};

} // namespace

void AeliteNetwork::attach_fault_lines(sim::FaultInjector& injector) {
  // Fresh flits land on link registers only at slot-aligned cycles.
  const auto stride = static_cast<std::uint32_t>(options_.tdm.words_per_slot);
  for (topo::LinkId l = 0; l < topo_->link_count(); ++l) {
    const topo::Link& link = topo_->link(l);
    sim::Reg<AeliteFlit>& reg = topo_->is_router(link.src)
                                    ? routers_.at(link.src).output_reg(link.src_port)
                                    : nis_.at(link.src).output_reg();
    injector.watch<AeliteFlitFaultPolicy>(sim::FaultClass::kAelite, reg, stride, 0);
  }
}

} // namespace daelite::aelite
