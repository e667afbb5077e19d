#include "soc/health.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "daelite/network.hpp"
#include "sim/trace.hpp"

namespace daelite::soc {

std::string_view link_state_name(LinkState s) {
  switch (s) {
    case LinkState::kOk: return "ok";
    case LinkState::kSuspect: return "suspect";
    case LinkState::kDead: return "dead";
  }
  return "?";
}

HealthMonitor::HealthMonitor(sim::Kernel& k, std::string name, hw::DaeliteNetwork& net)
    : HealthMonitor(k, std::move(name), net, Options()) {}

HealthMonitor::HealthMonitor(sim::Kernel& k, std::string name, hw::DaeliteNetwork& net,
                             Options options)
    : sim::Component(k, std::move(name),
                     sim::Cadence{net.options().tdm.words_per_slot, 0}),
      params_(net.options().tdm),
      options_(options) {
  assert(options_.suspect_threshold <= options_.dead_threshold);
  epoch_cycles_ = options_.epoch_cycles != 0 ? options_.epoch_cycles : params_.wheel_cycles();
  // Evaluation happens at slot starts; round the epoch up to whole slots.
  const std::uint32_t w = params_.words_per_slot;
  epoch_cycles_ = (epoch_cycles_ + w - 1) / w * w;
  next_eval_ = (now() / epoch_cycles_ + 1) * epoch_cycles_;

  const topo::Topology& topo = net.topology();
  links_.resize(topo.link_count());
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const topo::Link& link = topo.link(l);
    WatchedLink& wl = links_[l];
    if (topo.is_router(link.src)) {
      const hw::Router& r = net.router(link.src);
      wl.reg = &r.output_reg(link.src_port);
      wl.produced = &r.forwarded_on(link.src_port);
    } else {
      const hw::Ni& ni = net.ni(link.src);
      wl.reg = &ni.output_reg();
      wl.produced = &ni.stats().link_busy_slots;
      ni_links_.push_back(l);
    }
  }
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    if (!topo.is_router(n)) continue;
    WatchedRouter& wr = routers_.emplace_back();
    wr.router = &net.router(n);
    wr.out_link.fill(topo::kInvalidLink);
    const std::vector<topo::LinkId>& out = topo.node(n).out_links;
    assert(out.size() == wr.router->num_outputs() && out.size() <= wr.out_link.size());
    std::copy(out.begin(), out.end(), wr.out_link.begin());
  }
}

void HealthMonitor::observe(WatchedLink& wl) {
  const hw::Flit& f = wl.reg->get();
  if (!f.valid) return; // the injector dropped it
  ++wl.health.observed;
  for (std::size_t i = 0; i < f.num_words; ++i) {
    if (!f.data_valid[i]) continue;
    if (!hw::integrity_parity_ok(f.data[i], f.integrity[i])) ++wl.health.parity_errors;
  }
}

void HealthMonitor::commit() {
  sim::Component::commit();
  const sim::Cycle c = now();
  if (!params_.is_slot_start(c)) return; // fresh flits land at slot starts only

  // Walk the producers, not the links: only a latched router output or an
  // NI output register can hold a valid flit.
  for (const WatchedRouter& wr : routers_)
    for (unsigned m = wr.router->latched_outputs(); m != 0; m &= m - 1)
      observe(links_[wr.out_link[static_cast<std::size_t>(std::countr_zero(m))]]);
  for (topo::LinkId l : ni_links_) observe(links_[l]);
  assert(unlatched_outputs_invalid() && "a valid flit on a link the producer walk skipped");

  // Grid-aligned epoch boundaries: the loop coalesces epochs skipped by a
  // quiescent fast-forward (quiescent() guarantees they carried no
  // evidence, so verdict cycles are schedule-independent).
  while (c >= next_eval_) {
    evaluate_epoch();
    next_eval_ += epoch_cycles_;
  }
}

void HealthMonitor::evaluate_epoch() {
  for (topo::LinkId l = 0; l < links_.size(); ++l) {
    WatchedLink& wl = links_[l];
    const std::uint64_t produced = *wl.produced;
    wl.health.produced = produced;
    // The producer counted during tick(), before injection; we counted
    // after. The difference is exactly the flits the injector destroyed.
    const std::uint64_t produced_delta = produced - wl.produced_at_eval;
    const std::uint64_t observed_delta = wl.health.observed - wl.observed_at_eval;
    assert(observed_delta <= produced_delta && "observed a flit nobody produced");
    wl.health.missing += produced_delta - observed_delta;
    wl.produced_at_eval = produced;
    wl.observed_at_eval = wl.health.observed;
    wl.parity_at_eval = wl.health.parity_errors;

    if (wl.health.state == LinkState::kDead) continue;
    const std::uint64_t evidence = wl.health.evidence();
    if (evidence >= options_.dead_threshold) {
      wl.health.state = LinkState::kDead;
      dead_events_.push_back(DeadLinkEvent{l, now(), evidence});
      trace(sim::TraceEvent::kLinkDead, l, evidence);
    } else if (evidence >= options_.suspect_threshold) {
      wl.health.state = LinkState::kSuspect;
    }
  }
}

bool HealthMonitor::unlatched_outputs_invalid() const {
  for (const WatchedRouter& wr : routers_) {
    const unsigned latched = wr.router->latched_outputs();
    for (std::size_t o = 0; o < wr.router->num_outputs(); ++o)
      if (((latched >> o) & 1u) == 0 && wr.router->output_reg(o).get().valid) return false;
  }
  return true;
}

bool HealthMonitor::quiescent() const {
  for (const WatchedLink& wl : links_) {
    if (wl.reg->get().valid) return false;
    // Un-evaluated evidence: the next epoch boundary would change state.
    if (*wl.produced != wl.produced_at_eval) return false;
    if (wl.health.observed != wl.observed_at_eval) return false;
    if (wl.health.parity_errors != wl.parity_at_eval) return false;
  }
  return true;
}

std::vector<DeadLinkEvent> HealthMonitor::take_dead_events() {
  std::vector<DeadLinkEvent> out;
  out.swap(dead_events_);
  return out;
}

std::vector<topo::LinkId> HealthMonitor::suspects_among(
    const std::vector<topo::LinkId>& route_links) const {
  std::vector<topo::LinkId> out;
  for (topo::LinkId l : route_links)
    if (l < links_.size() && links_[l].health.state != LinkState::kOk) out.push_back(l);
  return out;
}

std::uint64_t HealthMonitor::total_missing() const {
  std::uint64_t n = 0;
  for (const WatchedLink& wl : links_) n += wl.health.missing;
  return n;
}

std::uint64_t HealthMonitor::total_parity_errors() const {
  std::uint64_t n = 0;
  for (const WatchedLink& wl : links_) n += wl.health.parity_errors;
  return n;
}

} // namespace daelite::soc
