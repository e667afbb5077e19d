#include "soc/runner.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc/churn.hpp"
#include "alloc/dimension.hpp"
#include "alloc/switching.hpp"
#include "daelite/network.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "soc/health.hpp"
#include "workload/dnn.hpp"

namespace daelite::soc {

namespace {

/// Runner-side state machine of one connection's self-healing.
struct ConnRecovery {
  enum class Phase {
    kHealthy,        ///< delivering (or not yet touched by a fault)
    kReconfiguring,  ///< tear-down + set-up stream in flight
    kWaiting,        ///< reconfigured; waiting for delivery to every dst
    kDead,           ///< no route, preempted or repair abandoned; traffic stopped
  };
  Phase phase = Phase::kHealthy;
  std::size_t event = 0;       ///< index into report.recovery.events
  sim::Cycle detected = 0;
  std::uint64_t abort_base = 0; ///< config-module abort count at repair start
  std::vector<std::uint64_t> delivered_baseline;
  /// Integrity accounting that survives queue re-binding: totals saved
  /// from closed incarnations plus per-destination baselines of the
  /// current queue binding (a reused queue id keeps its old counters).
  std::uint64_t saved_corrupt = 0;
  std::uint64_t saved_lost = 0;
  std::vector<std::uint64_t> base_corrupt;
  std::vector<std::uint64_t> base_lost;
  std::uint64_t alarm_base = 0; ///< integrity total already acted upon
};

std::string topology_name(const Scenario& sc) {
  switch (sc.kind) {
    case Scenario::TopologyKind::kMesh:
      return "mesh " + std::to_string(sc.width) + "x" + std::to_string(sc.height);
    case Scenario::TopologyKind::kTorus:
      return "torus " + std::to_string(sc.width) + "x" + std::to_string(sc.height);
    case Scenario::TopologyKind::kRing:
      return "ring " + std::to_string(sc.width);
  }
  return "?";
}

/// Price the run from the hardware counters: word-link-crossings (the
/// upstream element's per-output counter — NI link counter for the first
/// hop, router forwarded_on for the rest), words through the declared
/// DRAM-port NIs, and configuration words streamed. No-op unless the
/// scenario enabled a model, keeping older reports byte-identical.
void accumulate_energy(analysis::NetworkReport& report, const Scenario& sc,
                       const topo::Mesh& mesh, hw::DaeliteNetwork& net) {
  if (!sc.energy.enabled) return;
  report.energy.enabled = true;
  report.energy.model = sc.energy;
  for (topo::LinkId l = 0; l < mesh.topo.link_count(); ++l) {
    const topo::Link& link = mesh.topo.link(l);
    report.energy.link_flit_hops += mesh.topo.is_router(link.src)
                                        ? net.router(link.src).forwarded_on(link.src_port)
                                        : net.ni(link.src).stats().link_busy_slots;
  }
  for (const auto& d : sc.dram) {
    const hw::Ni& ni = net.ni(mesh.ni(d.first, d.second));
    for (std::size_t q = 0; q < net.options().ni_channels; ++q) {
      report.energy.dram_words += ni.tx_stats(q).words_sent;
      report.energy.dram_words += ni.rx_stats(q).words_received;
    }
  }
  report.energy.config_words = net.config_module().words_sent();
}

/// What both scenario kinds read off the finished network: the final
/// schedule with each reserved link's measured occupancy (slots in which a
/// valid flit crossed it, from the upstream element's per-output counter),
/// drop counters, configuration health, word totals and energy.
void report_network(analysis::NetworkReport& report, const Scenario& sc, const topo::Mesh& mesh,
                    hw::DaeliteNetwork& net, const tdm::Schedule& schedule,
                    std::uint64_t slots_elapsed) {
  report.schedule = analysis::summarize_schedule(mesh.topo, schedule);
  report.links = analysis::link_usage(mesh.topo, schedule);
  report.links.erase(std::find_if(report.links.begin(), report.links.end(),
                                  [](const analysis::LinkUsage& u) { return u.reserved == 0; }),
                     report.links.end());
  for (analysis::LinkUsage& u : report.links) {
    const topo::Link& link = mesh.topo.link(u.link);
    u.busy_slots = mesh.topo.is_router(link.src)
                       ? net.router(link.src).forwarded_on(link.src_port)
                       : net.ni(link.src).stats().link_busy_slots;
    u.slots_elapsed = slots_elapsed;
  }

  report.router_drops = net.total_router_drops();
  report.ni_drops = net.total_ni_drops();
  report.rx_overflow = net.total_rx_overflow();
  report.health.protocol_errors = net.total_protocol_errors();
  report.health.cfg_errors = net.total_cfg_errors();
  report.health.timeouts = net.config_module().timeouts();
  report.health.retries = net.config_module().retries();
  report.health.aborted = net.config_module().aborted();
  for (topo::NodeId n = 0; n < mesh.topo.node_count(); ++n) {
    if (!mesh.topo.is_ni(n)) continue;
    const hw::Ni& ni = net.ni(n);
    for (std::size_t q = 0; q < net.options().ni_channels; ++q) {
      report.health.words_sent += ni.tx_stats(q).words_sent;
      report.health.words_delivered += ni.rx_stats(q).words_received;
    }
  }
  report.health.corrupt_words = net.total_corrupt_words();
  report.health.lost_words = net.total_lost_words();

  accumulate_energy(report, sc, mesh, net);
}

/// One connection's traffic endpoints, resolved once per queue binding,
/// with the gates that let the pump skip NI calls that cannot succeed. A
/// refused tx_push stays refused until the source NI sends from that queue
/// (its tx words_sent moves); an empty rx_pop stays empty until the
/// destination NI queues a word (its rx words_received moves). Both
/// counters move only in an NI's slot-start tick, so a pump pass right
/// after a mid-slot cycle finds every gate closed (pump_can_move()).
class PumpPort {
 public:
  /// (Re)bind to h's queues and open every gate: a reused queue id keeps
  /// its old counters, so no earlier reading says anything about it.
  void bind(hw::DaeliteNetwork& net, const hw::ConnectionHandle& h) {
    src_ = &net.ni(h.conn.request.src_ni);
    tx_q_ = h.src_tx_q;
    tx_ = &src_->tx_stats(tx_q_);
    refused_at_ = kOpen;
    sinks_.clear();
    for (std::size_t d = 0; d < h.dst_rx_qs.size(); ++d) {
      hw::Ni& dst = net.ni(h.conn.request.dst_nis[d]);
      sinks_.push_back({&dst, h.dst_rx_qs[d], &dst.rx_stats(h.dst_rx_qs[d]), kOpen});
    }
  }

  /// Offer up to `limit` words, the k-th of this call being word(k);
  /// returns how many the source queue took.
  template <class Word>
  std::uint64_t push(std::uint64_t limit, Word word) {
    if (limit == 0) return 0;
    if (tx_->words_sent == refused_at_) {
      assert(src_->tx_space(tx_q_) == 0 && "a gated push would have been accepted");
      return 0;
    }
    std::uint64_t n = 0;
    while (n < limit && src_->tx_push(tx_q_, word(n))) ++n;
    if (n < limit) refused_at_ = tx_->words_sent;
    return n;
  }

  /// Pop every word waiting at each destination, calling on_word(d) per word.
  template <class OnWord>
  void drain(OnWord on_word) {
    for (std::size_t d = 0; d < sinks_.size(); ++d) {
      Sink& s = sinks_[d];
      if (s.rx->words_received == s.drained_at) {
        assert(s.ni->rx_level(s.q) == 0 && "a gated pop would have found a word");
        continue;
      }
      while (s.ni->rx_pop(s.q)) on_word(d);
      s.drained_at = s.rx->words_received;
    }
  }

  /// True when push(limit, ..) and drain(..) would move no word.
  bool idle(std::uint64_t limit) const {
    if (limit != 0 && src_->tx_space(tx_q_) != 0) return false;
    for (const Sink& s : sinks_)
      if (s.ni->rx_level(s.q) != 0) return false;
    return true;
  }

  /// Destination d's rx counters (integrity and delivery) of this binding.
  const hw::Ni::ChannelStats& rx_stats(std::size_t d) const { return *sinks_[d].rx; }

 private:
  static constexpr std::uint64_t kOpen = std::numeric_limits<std::uint64_t>::max();
  struct Sink {
    hw::Ni* ni;
    std::size_t q;
    const hw::Ni::ChannelStats* rx;
    std::uint64_t drained_at; ///< words_received when the queue was last emptied
  };
  hw::Ni* src_ = nullptr;
  std::size_t tx_q_ = 0;
  const hw::Ni::ChannelStats* tx_ = nullptr;
  std::uint64_t refused_at_ = kOpen; ///< words_sent when a push was last refused
  std::vector<Sink> sinks_;
};

/// False when no pump call can move a word this cycle: the NI counters the
/// gates read move only in slot-start ticks, and the last executed cycle
/// (now() - 1) was not one. A pass after the pump's own previous pass
/// leaves every gate closed, so only a slot start, a pacer firing or a
/// re-bound queue can open one.
bool pump_can_move(const sim::Kernel& kernel, const tdm::TdmParams& params) {
  return params.is_slot_start(kernel.now() - 1);
}

/// Execute a compiled DNN schedule: open layer 0, then per layer a
/// use-case switch through the broadcast tree (layer-invariant weight
/// broadcasts are kept streaming; rotating ifmap/ofmap connections are
/// torn down and set up) followed by a bounded streaming phase that
/// drives the layer's word volumes to completion.
void run_dnn_scenario(const RunSpec& spec, Scenario& sc, topo::Mesh& mesh,
                      analysis::NetworkReport& report) {
  if (spec.fault_plan.enabled() || spec.recovery.enabled) {
    report.error = "dnn scenarios do not support fault injection or recovery";
    return;
  }
  std::string why;
  auto wl = workload::compile(*sc.dnn, mesh, sc.dram, &why);
  if (!wl) {
    report.error = "dnn compile failed: " + why;
    return;
  }

  // Like the connection shuffle of plain scenarios: a nonzero seed permutes
  // the order each layer's connections reach the allocator. use_case() is
  // derived from traffic order, so the shuffle moves slot assignment but
  // never desynchronizes the volume bookkeeping.
  if (spec.seed != 0) {
    sim::Xoshiro256 rng(spec.seed);
    for (workload::CompiledLayer& layer : wl->layers)
      for (std::size_t i = layer.traffic.size() - 1; i > 0; --i)
        std::swap(layer.traffic[i], layer.traffic[rng.below(i + 1)]);
  }

  // Wheel-size probe: the whole layer SEQUENCE must fit — layer 0 plus
  // every switch, since kept connections pin their slots across switches —
  // so the probe replays the chain on a scratch allocator.
  const std::vector<std::uint32_t> candidates =
      sc.slots ? std::vector<std::uint32_t>{*sc.slots} : std::vector<std::uint32_t>{8, 16, 32};
  std::optional<tdm::TdmParams> params;
  for (std::uint32_t s : candidates) {
    const tdm::TdmParams p = tdm::daelite_params(s);
    alloc::SlotAllocator probe(mesh.topo, p);
    auto cur = alloc::allocate_use_case(probe, wl->layers[0].use_case(), &why);
    bool fits = cur.has_value();
    for (std::size_t l = 1; fits && l < wl->layers.size(); ++l) {
      auto next =
          alloc::execute_use_case_switch(probe, *cur, wl->layers[l].use_case(), nullptr, &why);
      if (next)
        cur = std::move(*next);
      else
        fits = false;
    }
    if (fits) {
      params = p;
      break;
    }
  }
  if (!params) {
    report.error = "dnn dimensioning failed: " + why;
    return;
  }
  report.slots = params->num_slots;

  // Per-NI queue demand peaks within one layer (tear-down frees its queues
  // before set-up allocates): size the NI channel count to the worst layer.
  std::size_t channels = 0;
  {
    std::map<topo::NodeId, std::size_t> tx, rx;
    for (const workload::CompiledLayer& layer : wl->layers) {
      tx.clear();
      rx.clear();
      for (const workload::CompiledConnection& c : layer.traffic) {
        ++tx[c.spec.src_ni];
        for (topo::NodeId d : c.spec.dst_nis) ++rx[d];
      }
      for (const auto& [n, k] : tx) channels = std::max(channels, k);
      for (const auto& [n, k] : rx) channels = std::max(channels, k);
    }
  }

  sim::Kernel kernel(spec.scheduler);
  kernel.set_tracer(spec.tracer);
  hw::DaeliteNetwork::Options opt;
  opt.tdm = *params;
  opt.cfg_root = mesh.ni(sc.host.first, sc.host.second);
  opt.ni_channels = std::max(opt.ni_channels, channels);
  if (spec.watchdog_retries) opt.cfg_max_retries = *spec.watchdog_retries;
  opt.cfg_timeout_mult = spec.watchdog_timeout_mult;
  opt.shards = spec.shards;
  hw::DaeliteNetwork net(kernel, mesh.topo, opt);
  if (spec.on_network) spec.on_network(kernel, net);

  sim::Tracer* tr = (spec.tracer != nullptr && spec.tracer->enabled()) ? spec.tracer : nullptr;
  const std::uint32_t scen_id = tr ? tr->intern("scenario") : 0;
  const auto phase_mark = [&](sim::TraceEvent e, std::string_view label) {
    if (tr) tr->record(kernel.now(), scen_id, e, tr->intern(label));
  };

  alloc::SlotAllocator allocator(mesh.topo, *params);
  auto cur = alloc::allocate_use_case(allocator, wl->layers[0].use_case(), &why);
  if (!cur) { // the probe admitted this chain; never dereference blind anyway
    report.error = "dnn allocation diverged from the probe: " + why;
    return;
  }

  std::map<std::string, hw::ConnectionHandle> open;
  const auto run_switch = [&](sim::Cycle* cycles) {
    sim::Cycle c = net.run_config();
    if (c == sim::kNoCycle) {
      report.health.config_ok = false;
      c = kernel.now();
    }
    *cycles = c;
  };

  report.workload.enabled = true;
  report.workload.tiles = static_cast<std::uint32_t>(wl->tiles.size());
  report.workload.dram_ports = static_cast<std::uint32_t>(wl->dram_nis.size());
  report.workload.connections_per_layer =
      static_cast<std::uint32_t>(wl->layers[0].traffic.size());

  // One streaming phase: drive every connection's word budget, draining
  // the sinks each cycle, until every volume arrived at every destination
  // or the per-layer budget (the scenario's `run` cycles) expires.
  const auto stream_layer = [&](const workload::CompiledLayer& layer,
                                analysis::WorkloadLayerOutcome* out) {
    const sim::Cycle start = kernel.now();
    std::vector<std::uint64_t> pushed(layer.traffic.size(), 0);
    std::vector<std::vector<std::uint64_t>> got(layer.traffic.size());
    for (std::size_t i = 0; i < layer.traffic.size(); ++i)
      got[i].assign(layer.traffic[i].spec.dst_nis.size(), 0);
    const auto done = [&] {
      for (std::size_t i = 0; i < layer.traffic.size(); ++i)
        for (std::uint64_t words : got[i])
          if (words < layer.traffic[i].words) return false;
      return true;
    };
    std::vector<PumpPort> ports(layer.traffic.size());
    for (std::size_t i = 0; i < layer.traffic.size(); ++i)
      ports[i].bind(net, open.at(layer.traffic[i].spec.name));
    bool first = true;
    while (!done() && kernel.now() - start < sc.run_cycles) {
      if (first || pump_can_move(kernel, *params)) {
        for (std::size_t i = 0; i < layer.traffic.size(); ++i) {
          const std::uint64_t base = pushed[i];
          pushed[i] += ports[i].push(layer.traffic[i].words - base, [base](std::uint64_t k) {
            return static_cast<std::uint32_t>(base + k + 1);
          });
          ports[i].drain([&got, i](std::size_t d) { ++got[i][d]; });
        }
      } else {
        for (std::size_t i = 0; i < layer.traffic.size(); ++i)
          assert(ports[i].idle(layer.traffic[i].words - pushed[i]));
      }
      first = false;
      kernel.step();
    }
    out->stream_cycles = kernel.now() - start;
    out->completed = done();
    for (const auto& per_dst : got)
      for (std::uint64_t words : per_dst) out->words_delivered += words;
  };

  phase_mark(sim::TraceEvent::kPhaseBegin, "configure");
  for (const alloc::AllocatedConnection& c : cur->connections)
    open.emplace(c.spec.name, net.open_connection(c));
  {
    analysis::WorkloadLayerOutcome out;
    out.name = wl->layers[0].name;
    out.set_up = cur->connections.size();
    run_switch(&out.switch_cycles);
    report.cfg_cycles = out.switch_cycles;
    phase_mark(sim::TraceEvent::kPhaseEnd, "configure");
    phase_mark(sim::TraceEvent::kPhaseBegin, "traffic");
    stream_layer(wl->layers[0], &out);
    report.workload.layers.push_back(std::move(out));
  }

  for (std::size_t l = 1; l < wl->layers.size(); ++l) {
    analysis::WorkloadLayerOutcome out;
    out.name = wl->layers[l].name;
    alloc::SwitchPlan plan;
    auto next =
        alloc::execute_use_case_switch(allocator, *cur, wl->layers[l].use_case(), &plan, &why);
    if (!next) {
      report.error = "use-case switch into '" + wl->layers[l].name + "' failed: " + why;
      return;
    }
    cur = std::move(*next);
    out.kept = plan.keep.size();
    out.torn_down = plan.tear_down.size();
    out.set_up = plan.set_up.size();
    // Tear down first so the freed NI queues are available for the new
    // connections (a re-routed "i3" reuses its name with a new source).
    for (const alloc::AllocatedConnection& t : plan.tear_down) {
      net.close_connection(open.at(t.spec.name));
      open.erase(t.spec.name);
    }
    for (const alloc::AllocatedConnection& c : cur->connections)
      if (open.find(c.spec.name) == open.end()) open.emplace(c.spec.name, net.open_connection(c));
    run_switch(&out.switch_cycles);
    stream_layer(wl->layers[l], &out);
    report.workload.layers.push_back(std::move(out));
  }
  phase_mark(sim::TraceEvent::kPhaseEnd, "traffic");

  report.workload.total_cycles = kernel.now();
  report.schedule_utilization = cur->schedule_utilization;
  report_network(report, sc, mesh, net, allocator.schedule(),
                 kernel.now() / params->words_per_slot);

  bool all_done = true;
  for (const analysis::WorkloadLayerOutcome& lo : report.workload.layers)
    all_done = all_done && lo.completed;
  report.ok = all_done && report.router_drops == 0 && report.ni_drops == 0 &&
              report.rx_overflow == 0 && report.health.config_ok && report.health.aborted == 0;
}

/// Word-wise FNV-1a step of the runner's compaction digest.
void fnv_word(std::uint64_t& h, std::uint64_t x) { h = (h ^ x) * 1099511628211ull; }

/// Self-healing of a running connection scenario (RecoveryOptions): polls
/// the health monitor after every step, quarantines dead links, repairs
/// the connections crossing them while traffic keeps flowing, and runs a
/// compaction pass once a recovery wave settled. Every reservation change
/// — adopt, re-route, preemption, compaction — goes through one
/// alloc::ChurnService over the live allocator; this class only retires
/// and reopens the hardware incarnations (re-binding their pump ports) and
/// keeps the report.
class Recovery {
 public:
  Recovery(const RecoveryOptions& opt, const alloc::DimensionResult& dim,
           const topo::Topology& topo, sim::Kernel& kernel, hw::DaeliteNetwork& net,
           HealthMonitor& monitor, sim::Tracer* tr, analysis::NetworkReport& report,
           std::vector<hw::ConnectionHandle>& handles, std::vector<PumpPort>& ports,
           std::vector<std::vector<std::uint64_t>>& delivered)
      : opt_(opt), dim_(dim), kernel_(kernel), net_(net), monitor_(monitor), tr_(tr),
        report_(report), handles_(handles), ports_(ports), delivered_(delivered),
        live_(topo, dim.params),
        service_(live_, alloc::AdmissionControl{.preempt_best_effort = opt.preempt_best_effort}),
        rec_(handles.size()), rec_id_(tr ? tr->intern("recovery") : 0) {
    // The dimensioned allocation, adopted in index order (service id ==
    // connection index): mid-run re-allocation sees the real residual
    // capacity and hands out ChannelIds that alias nothing.
    for (const alloc::AllocatedConnection& c : dim.allocation.connections) service_.adopt(c);
    for (std::size_t i = 0; i < rec_.size(); ++i) {
      rec_[i].base_corrupt.assign(delivered_[i].size(), 0);
      rec_[i].base_lost.assign(delivered_[i].size(), 0);
    }
  }

  /// Post-step poll: collect verdicts, quarantine, repair, advance repairs
  /// in flight, compact a settled wave. Pure bookkeeping on committed
  /// kernel state, so it is identical under both schedulers and any
  /// --jobs count. Returns true when it re-bound a connection's queues.
  ///
  /// Verdicts, NI integrity counters and monitor link states move only in
  /// slot-start cycles, so the healthy connections' integrity alarm runs
  /// only after one (or on the first poll after a connection turned
  /// healthy, its baseline having moved), and a mid-slot poll with no
  /// repair in flight and no compaction pending has nothing to do.
  bool poll() {
    const bool slot_step = dim_.params.is_slot_start(kernel_.now() - 1);
    const bool alarm = slot_step || alarm_due_;
    if (!alarm && in_flight_ == 0 && !compact_pending_) return false;
    alarm_due_ = false;
    rebound_ = false;
    for (const DeadLinkEvent& de : monitor_.take_dead_events()) {
      report_.recovery.dead_links.push_back({de.link, de.cycle, de.evidence});
      live_.quarantine_link(de.link);
      for (std::size_t i = 0; i < handles_.size(); ++i) {
        if (rec_[i].phase != ConnRecovery::Phase::kHealthy) continue;
        const auto links = route_links(i);
        if (std::find(links.begin(), links.end(), de.link) != links.end())
          start(i, de.link, "link_dead", de.cycle);
      }
    }
    for (std::size_t i = 0; i < handles_.size(); ++i) advance(i, alarm);
    if (compact_pending_ && settled()) {
      compact_pending_ = false;
      compaction_pass();
    }
    return rebound_;
  }

  bool dead(std::size_t i) const { return rec_[i].phase == ConnRecovery::Phase::kDead; }

  /// Corrupt and lost words at connection i's destinations over every
  /// incarnation, robust to queue re-binding across repairs (a plain sum
  /// would double-count reused queue ids).
  std::pair<std::uint64_t, std::uint64_t> integrity(std::size_t i) const {
    const ConnRecovery& st = rec_[i];
    std::uint64_t corrupt = st.saved_corrupt;
    std::uint64_t lost = st.saved_lost;
    if (st.phase == ConnRecovery::Phase::kDead) return {corrupt, lost}; // queues freed
    for (std::size_t d = 0; d < delivered_[i].size(); ++d) {
      const hw::Ni::ChannelStats& rs = ports_[i].rx_stats(d);
      corrupt += rs.corrupt_words - st.base_corrupt[d];
      lost += rs.lost_words - st.base_lost[d];
    }
    return {corrupt, lost};
  }

  /// The live reservations: post-recovery routes plus the quarantine.
  const alloc::SlotAllocator& allocator() const { return live_; }

 private:
  using Phase = ConnRecovery::Phase;

  static bool in_flight(Phase p) { return p == Phase::kReconfiguring || p == Phase::kWaiting; }

  /// Every phase change goes through here: it keeps the in-flight count
  /// the mid-slot early return reads, and a connection turning healthy
  /// arms the next poll's integrity alarm.
  void set_phase(std::size_t i, Phase p) {
    ConnRecovery& st = rec_[i];
    in_flight_ = in_flight_ + (in_flight(p) ? 1 : 0) - (in_flight(st.phase) ? 1 : 0);
    st.phase = p;
    if (p == Phase::kHealthy) alarm_due_ = true;
  }

  std::uint64_t integrity_total(std::size_t i) const {
    const auto [corrupt, lost] = integrity(i);
    return corrupt + lost;
  }

  std::vector<topo::LinkId> route_links(std::size_t i) const {
    std::vector<topo::LinkId> links;
    for (const alloc::RouteEdge& e : handles_[i].conn.request.edges) links.push_back(e.link);
    if (handles_[i].conn.has_response)
      for (const alloc::RouteEdge& e : handles_[i].conn.response.edges) links.push_back(e.link);
    return links;
  }

  /// Drain and account a dying incarnation, then close it at the hardware
  /// level: stale words must not fake a "restored" verdict, and the freed
  /// queues' integrity counters survive into the per-connection totals.
  void retire(std::size_t j) {
    ConnRecovery& st = rec_[j];
    ports_[j].drain([this, j](std::size_t d) { ++delivered_[j][d]; });
    for (std::size_t d = 0; d < delivered_[j].size(); ++d) {
      const hw::Ni::ChannelStats& rs = ports_[j].rx_stats(d);
      st.saved_corrupt += rs.corrupt_words - st.base_corrupt[d];
      st.saved_lost += rs.lost_words - st.base_lost[d];
    }
    net_.close_connection(handles_[j]);
  }

  /// Open connection i's new incarnation on the service's routes and
  /// start waiting for its stream; `ev` becomes its report event.
  void reopen(std::size_t i, analysis::RecoveryEvent ev) {
    ConnRecovery& st = rec_[i];
    const alloc::AllocatedConnection& conn = *service_.connection(i);
    ev.hops_after = static_cast<std::uint32_t>(conn.request.edges.size());
    st.event = report_.recovery.events.size();
    st.detected = ev.detected_cycle;
    st.abort_base = net_.config_module().aborted();
    handles_[i] = net_.open_connection(conn);
    ports_[i].bind(net_, handles_[i]);
    rebound_ = true;
    for (std::size_t d = 0; d < delivered_[i].size(); ++d) {
      st.base_corrupt[d] = ports_[i].rx_stats(d).corrupt_words;
      st.base_lost[d] = ports_[i].rx_stats(d).lost_words;
    }
    set_phase(i, Phase::kReconfiguring);
    report_.recovery.events.push_back(std::move(ev));
  }

  /// Tear the connection down and re-set it up around the quarantine while
  /// traffic keeps flowing: the set-up stream rides the broadcast tree, so
  /// repair cost scales with path length, not slot count (the paper's
  /// fast-set-up argument replayed as fast *recovery*).
  void start(std::size_t i, topo::LinkId link, const char* trigger, sim::Cycle detect_cycle) {
    ConnRecovery& st = rec_[i];
    if (opt_.compact_after_recovery) compact_pending_ = true;
    analysis::RecoveryEvent ev;
    ev.connection = dim_.connections[i].spec.name;
    ev.link = link;
    ev.trigger = trigger;
    ev.detected_cycle = detect_cycle;
    ev.hops_before = static_cast<std::uint32_t>(handles_[i].conn.request.edges.size());

    retire(i);
    const bool routed = service_.reroute(i).status == alloc::ChurnStatus::kAdmitted;
    // Preemptive healing: a guaranteed connection squeezed out by the
    // quarantine had the service tear best-effort connections down along a
    // min-victims candidate path; their hardware goes too.
    const std::vector<std::uint64_t>& victims = service_.last_preempted();
    for (std::uint64_t j : victims) {
      retire(j);
      set_phase(j, Phase::kDead);
      ++report_.service.per_class[static_cast<std::size_t>(alloc::ServiceClass::kBestEffort)]
            .preempted;
    }
    if (!victims.empty()) {
      ++report_.service.preemption_events;
      if (tr_)
        tr_->record(kernel_.now(), rec_id_, sim::TraceEvent::kPreemptBegin,
                    report_.recovery.events.size(), victims.size());
    }

    st.alarm_base = st.saved_corrupt + st.saved_lost;
    if (!routed) {
      // No route around the quarantine: the connection stays down.
      st.event = report_.recovery.events.size();
      st.detected = detect_cycle;
      set_phase(i, Phase::kDead);
      report_.recovery.events.push_back(std::move(ev));
      return;
    }
    reopen(i, std::move(ev));
    if (tr_) tr_->record(kernel_.now(), rec_id_, sim::TraceEvent::kRecoveryBegin, st.event, link);
  }

  /// The watchdog gave up on connection i's stream: the connection is
  /// dead, but the hardware may still hold its new routes, so their
  /// reservations stay in the schedule — outside the service, where no
  /// compaction or preemption can hand them to anyone else.
  void abandon(std::size_t i) {
    set_phase(i, Phase::kDead);
    service_.tear_down(i);
    alloc::restore_connection(live_, handles_[i].conn);
  }

  /// One poll's step of connection i's state machine; `alarm` says whether
  /// a healthy connection's integrity alarm inputs may have moved.
  void advance(std::size_t i, bool alarm) {
    ConnRecovery& st = rec_[i];
    switch (st.phase) {
      case Phase::kHealthy: {
        // End-to-end integrity alarm: repair even without a dead-link
        // verdict, provided the monitor can pin a suspect on the route.
        if (!alarm || integrity_total(i) - st.alarm_base < opt_.integrity_threshold) break;
        const auto suspects = monitor_.suspects_among(route_links(i));
        if (suspects.empty()) break; // not localizable (yet)
        for (topo::LinkId l : suspects)
          if (!live_.is_quarantined(l)) live_.quarantine_link(l);
        start(i, suspects.front(), "integrity", kernel_.now());
        break;
      }
      case Phase::kReconfiguring: {
        if (net_.config_module().aborted() > st.abort_base ||
            kernel_.now() - st.detected > opt_.reconfig_timeout) {
          abandon(i);
        } else if (net_.config_idle()) {
          report_.recovery.events[st.event].reconfigured_cycle = kernel_.now();
          st.delivered_baseline = delivered_[i];
          set_phase(i, Phase::kWaiting);
        }
        break;
      }
      case Phase::kWaiting: {
        for (std::size_t d = 0; d < delivered_[i].size(); ++d)
          if (delivered_[i][d] <= st.delivered_baseline[d]) return;
        analysis::RecoveryEvent& ev = report_.recovery.events[st.event];
        ev.restored = true;
        ev.restored_cycle = kernel_.now();
        ++report_.service.per_class[static_cast<std::size_t>(dim_.connections[i].spec.service_class)]
              .recovered;
        st.alarm_base = integrity_total(i); // words lost mid-repair are acted upon
        if (tr_)
          tr_->record(kernel_.now(), rec_id_, sim::TraceEvent::kRecoveryEnd, st.event,
                      ev.restored_cycle - ev.detected_cycle);
        set_phase(i, Phase::kHealthy);
        break;
      }
      case Phase::kDead:
        break;
    }
  }

  /// Every repair settled and the config stream drained: the compaction
  /// pass sees a stable allocator and an idle tree.
  bool settled() const { return in_flight_ == 0 && net_.config_idle(); }

  /// Slot compaction after a recovery wave (ChurnService::compact): every
  /// accepted move rides the same reconfigure/wait machinery as a repair
  /// (trigger "compaction"), close-before-open; guaranteed connections are
  /// never touched. Rejected moves never reach the hardware.
  void compaction_pass() {
    const std::vector<std::uint64_t> moves =
        service_.compact(std::numeric_limits<std::size_t>::max()).moves;
    std::uint64_t pass_digest = 14695981039346656037ull;
    for (const std::uint64_t i : moves) {
      analysis::RecoveryEvent ev;
      ev.connection = dim_.connections[i].spec.name;
      ev.trigger = "compaction";
      ev.detected_cycle = kernel_.now();
      ev.hops_before = static_cast<std::uint32_t>(handles_[i].conn.request.edges.size());
      fnv_word(pass_digest, i);
      for (tdm::Slot s : handles_[i].conn.request.inject_slots) fnv_word(pass_digest, s);
      retire(i);
      reopen(i, std::move(ev));
      for (tdm::Slot s : handles_[i].conn.request.inject_slots) fnv_word(pass_digest, s);
    }
    ++report_.service.compaction_passes;
    report_.service.compaction_moves += moves.size();
    fnv_word(report_.service.compaction_digest, pass_digest);
    if (tr_)
      tr_->record(kernel_.now(), rec_id_, sim::TraceEvent::kCompactionPass, moves.size(),
                  pass_digest);
  }

  const RecoveryOptions& opt_;
  const alloc::DimensionResult& dim_;
  sim::Kernel& kernel_;
  hw::DaeliteNetwork& net_;
  HealthMonitor& monitor_;
  sim::Tracer* tr_;
  analysis::NetworkReport& report_;
  std::vector<hw::ConnectionHandle>& handles_;
  std::vector<PumpPort>& ports_;
  std::vector<std::vector<std::uint64_t>>& delivered_;
  alloc::SlotAllocator live_;
  alloc::ChurnService service_;
  std::vector<ConnRecovery> rec_;
  std::uint32_t rec_id_;
  bool compact_pending_ = false; ///< a recovery wave ran; compact once it settles
  std::size_t in_flight_ = 0;    ///< connections reconfiguring or waiting
  bool alarm_due_ = true;        ///< run the integrity alarm at the next poll
  bool rebound_ = false;         ///< this poll re-bound a connection's queues
};

} // namespace

analysis::NetworkReport run_scenario(const RunSpec& spec) {
  analysis::NetworkReport report;
  Scenario sc = spec.scenario;
  if (spec.slots_override) sc.slots = *spec.slots_override;
  if (spec.run_cycles_override) sc.run_cycles = *spec.run_cycles_override;

  report.label = spec.label.empty() ? topology_name(sc) : spec.label;
  report.topology = topology_name(sc);
  report.clock_mhz = sc.clock_mhz;
  report.seed = spec.seed;
  report.run_cycles = sc.run_cycles;

  // Scenario coordinates come from user-written files; reject anything
  // outside the grid before build() indexes with them.
  const int grid_h = sc.kind == Scenario::TopologyKind::kRing ? 1 : sc.height;
  const auto in_grid = [&](const std::pair<int, int>& c) {
    return c.first >= 0 && c.first < sc.width && c.second >= 0 && c.second < grid_h;
  };
  const auto coord_error = [&](const std::string& what, const std::pair<int, int>& c) {
    report.error = what + ": coordinate " + std::to_string(c.first) + "," +
                   std::to_string(c.second) + " outside " + topology_name(sc);
  };
  if (!in_grid(sc.host)) {
    coord_error("host", sc.host);
    return report;
  }
  for (const Scenario::RawConnection& c : sc.raw) {
    if (!in_grid(c.src)) {
      coord_error("connection '" + c.name + "'", c.src);
      return report;
    }
    for (const auto& d : c.dsts) {
      if (!in_grid(d)) {
        coord_error("connection '" + c.name + "'", d);
        return report;
      }
    }
  }
  for (const auto& d : sc.dram) {
    if (!in_grid(d)) {
      coord_error("dram port", d);
      return report;
    }
  }

  topo::Mesh mesh = sc.build();

  if (sc.dnn) {
    run_dnn_scenario(spec, sc, mesh, report);
    return report;
  }

  // A nonzero seed permutes the order connections reach the allocator
  // (Fisher–Yates over the spec list) — slot assignment is greedy and
  // order-dependent, so this is a real design-space axis.
  if (spec.seed != 0 && sc.connections.size() > 1) {
    sim::Xoshiro256 rng(spec.seed);
    for (std::size_t i = sc.connections.size() - 1; i > 0; --i)
      std::swap(sc.connections[i], sc.connections[rng.below(i + 1)]);
  }

  const alloc::NocClocking clk{sc.clock_mhz, 4};
  const std::vector<std::uint32_t> candidates =
      sc.slots ? std::vector<std::uint32_t>{*sc.slots} : std::vector<std::uint32_t>{8, 16, 32};
  std::string error;
  auto dim = alloc::dimension_network(mesh.topo, sc.connections, clk, candidates, &error);
  if (!dim) {
    report.error = "dimensioning failed: " + error;
    return report;
  }
  report.slots = dim->params.num_slots;
  report.schedule_utilization = dim->schedule_utilization;

  // The `service` section exists only for QoS-aware runs: a declared
  // non-default class, or recovery running with preemption/compaction.
  // Everything else stays byte-identical to pre-service builds.
  bool any_class = false;
  for (const alloc::DimensionedConnection& d : dim->connections)
    any_class = any_class || d.spec.service_class != alloc::ServiceClass::kStandard;
  report.service.enabled =
      any_class || (spec.recovery.enabled && (spec.recovery.preempt_best_effort ||
                                              spec.recovery.compact_after_recovery));
  for (const alloc::DimensionedConnection& d : dim->connections)
    ++report.service.per_class[static_cast<std::size_t>(d.spec.service_class)].connections;

  sim::Kernel kernel(spec.scheduler);
  kernel.set_tracer(spec.tracer);
  hw::DaeliteNetwork::Options opt;
  opt.tdm = dim->params;
  opt.cfg_root = mesh.ni(sc.host.first, sc.host.second);
  if (spec.watchdog_retries) opt.cfg_max_retries = *spec.watchdog_retries;
  opt.cfg_timeout_mult = spec.watchdog_timeout_mult;
  opt.shards = spec.shards;
  // The network registers its slot engines before the on_network hook,
  // injector and monitor, so their serial commits still run last.
  hw::DaeliteNetwork net(kernel, mesh.topo, opt);
  if (spec.on_network) spec.on_network(kernel, net);

  // The injector is constructed after every network element so it commits
  // last each cycle (it corrupts freshly committed link values). Absent a
  // plan nothing is constructed and the run is byte-identical to a
  // pre-fault-injection build.
  std::optional<sim::FaultInjector> injector;
  if (spec.fault_plan.enabled()) {
    injector.emplace(kernel, "fault", spec.fault_plan);
    net.attach_fault_lines(*injector);
  }

  // The health monitor is constructed after the injector so its commit()
  // runs last and observes the corrupted values downstream consumers will
  // read. Without recovery nothing is constructed and the run is
  // byte-identical to a build without the subsystem.
  std::optional<HealthMonitor> monitor;
  if (spec.recovery.enabled) {
    HealthMonitor::Options mo;
    mo.epoch_cycles = spec.recovery.epoch_cycles;
    mo.suspect_threshold = spec.recovery.suspect_threshold;
    mo.dead_threshold = spec.recovery.dead_threshold;
    monitor.emplace(kernel, "health", net, mo);
  }

  // Phase spans: the runner's own coarse timeline on top of the per-element
  // event stream (the config module emits the per-connection set-up spans).
  sim::Tracer* tr = (spec.tracer != nullptr && spec.tracer->enabled()) ? spec.tracer : nullptr;
  const std::uint32_t scen_id = tr ? tr->intern("scenario") : 0;
  const auto phase_mark = [&](sim::TraceEvent e, std::string_view label) {
    if (tr) tr->record(kernel.now(), scen_id, e, tr->intern(label));
  };

  phase_mark(sim::TraceEvent::kPhaseBegin, "configure");
  std::vector<hw::ConnectionHandle> handles;
  for (const auto& c : dim->allocation.connections) handles.push_back(net.open_connection(c));
  if (injector) {
    // One verification read per connection: under faults the response path
    // (and the module's watchdog) is part of what set-up time measures.
    for (const hw::ConnectionHandle& h : handles) {
      net.config_module().enqueue_packet(
          hw::encode_read_flags(net.cfg_ids().at(h.conn.request.src_ni), h.src_tx_q),
          /*is_path=*/false, /*expects_response=*/true);
    }
  }
  report.cfg_cycles = net.run_config();
  if (report.cfg_cycles == sim::kNoCycle) {
    // The stream never converged (possible only with the watchdog off).
    // Keep going — partial configuration is itself the observable — but
    // flag it so ok == false and the health section says why.
    report.health.config_ok = false;
    report.cfg_cycles = kernel.now();
  }
  phase_mark(sim::TraceEvent::kPhaseEnd, "configure");
  phase_mark(sim::TraceEvent::kPhaseBegin, "traffic");

  // Open-loop pacing for `stream` connections: offer `burst` words every
  // `period` cycles (optionally gated through a seeded on/off process like
  // BurstyWriter) instead of saturating the source. period == 0 keeps the
  // saturated loop, so legacy scenarios stay byte-identical.
  struct Pacer {
    std::uint32_t period = 0;
    std::uint32_t burst = 1;
    bool bursty = false;
    bool on = true;
    sim::Xoshiro256 rng;
    std::uint64_t owed = 0;    ///< offered but not yet accepted by the NI
    std::uint64_t offered = 0; ///< total words the source wanted to send
  };
  std::vector<Pacer> pacers(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const alloc::PhysicalConnectionSpec& ps = dim->connections[i].spec;
    pacers[i].period = ps.stream_period;
    pacers[i].burst = ps.stream_burst;
    if (ps.bursty_seed != 0) {
      pacers[i].bursty = true;
      pacers[i].on = false;
      pacers[i].rng.reseed(ps.bursty_seed);
    }
  }

  // Saturated traffic: sources push as fast as the NI accepts, sinks drain
  // every word the cycle after it arrives; delivered words per destination
  // measure achieved bandwidth.
  std::vector<std::vector<std::uint64_t>> delivered(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i)
    delivered[i].assign(handles[i].conn.request.dst_nis.size(), 0);

  std::vector<PumpPort> ports(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) ports[i].bind(net, handles[i]);

  std::optional<Recovery> recovery;
  if (monitor)
    recovery.emplace(spec.recovery, *dim, mesh.topo, kernel, net, *monitor, tr, report, handles,
                     ports, delivered);

  // A pass runs when a word can move (pump_can_move), when a pacer fires
  // (next_pace: the earliest multiple of a live pacer's period after the
  // last pass) or when recovery re-bound a queue; any other pass would
  // find every gate closed and draw no pacer.
  const auto one = [](std::uint64_t) { return std::uint32_t{1}; }; // every pushed word
  bool rebound = true;
  sim::Cycle next_pace = 0;
  for (sim::Cycle c = 0; c < sc.run_cycles; ++c) {
    if (rebound || c >= next_pace || pump_can_move(kernel, dim->params)) {
      next_pace = sim::kNoCycle;
      for (std::size_t i = 0; i < handles.size(); ++i) {
        if (recovery && recovery->dead(i)) continue; // queues freed
        Pacer& p = pacers[i];
        if (p.period == 0) {
          ports[i].push(std::numeric_limits<std::uint64_t>::max(), one);
        } else {
          if (c % p.period == 0) {
            if (p.bursty) {
              if (p.on) {
                if (p.rng.chance(0.10)) p.on = false; // BurstyWriter's p_stop
              } else if (p.rng.chance(0.05)) {
                p.on = true; // BurstyWriter's p_start
              }
            }
            if (p.on) {
              p.owed += p.burst;
              p.offered += p.burst;
            }
          }
          p.owed -= ports[i].push(p.owed, one);
          next_pace = std::min(next_pace, (c / p.period + 1) * p.period);
        }
        ports[i].drain([&delivered, i](std::size_t d) { ++delivered[i][d]; });
      }
    } else {
      for (std::size_t i = 0; i < handles.size(); ++i)
        assert((recovery && recovery->dead(i)) ||
               ports[i].idle(pacers[i].period == 0 ? 1 : pacers[i].owed));
    }
    kernel.step();
    rebound = recovery && recovery->poll();
  }
  phase_mark(sim::TraceEvent::kPhaseEnd, "traffic");

  bool all_met = true;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    std::uint64_t min_words = delivered[i].empty() ? 0 : delivered[i][0];
    for (auto w : delivered[i]) min_words = std::min(min_words, w);
    const double mbps = static_cast<double>(min_words) / static_cast<double>(sc.run_cycles) *
                        clk.link_mbytes_per_s();
    analysis::ConnectionOutcome out;
    out.name = dim->connections[i].spec.name;
    out.request_slots = dim->connections[i].request_slots;
    out.response_slots = dim->connections[i].response_slots;
    if (report.service.enabled) {
      const alloc::ServiceClass sc_class = dim->connections[i].spec.service_class;
      out.service_class = std::string(alloc::service_class_name(sc_class));
      if (recovery && recovery->dead(i))
        ++report.service.per_class[static_cast<std::size_t>(sc_class)].dead;
    }
    out.contract_mbps = dim->connections[i].spec.bandwidth_mbytes_per_s;
    out.measured_mbps = mbps;
    out.worst_latency_ns = dim->connections[i].worst_latency_ns;
    if (pacers[i].period == 0) {
      out.met = mbps + 1.0 >= out.contract_mbps;
    } else {
      // Open-loop source: met when everything offered arrived at every
      // destination, up to the in-flight slack of the NI queues plus one
      // burst still propagating when the run ends.
      out.met = min_words + 64 + pacers[i].burst >= pacers[i].offered;
    }
    all_met = all_met && out.met;
    if (recovery) {
      std::tie(out.corrupt_words, out.lost_words) = recovery->integrity(i);
    } else {
      for (std::size_t d = 0; d < delivered[i].size(); ++d) {
        const auto& rs =
            net.ni(handles[i].conn.request.dst_nis[d]).rx_stats(handles[i].dst_rx_qs[d]);
        out.corrupt_words += rs.corrupt_words;
        out.lost_words += rs.lost_words;
      }
    }
    // End-to-end latency over every destination queue of the connection.
    for (std::size_t d = 0; d < handles[i].dst_rx_qs.size(); ++d) {
      const hw::Ni& dst = net.ni(handles[i].conn.request.dst_nis[d]);
      out.latency.merge(dst.rx_latency(handles[i].dst_rx_qs[d]));
    }
    report.connections.push_back(std::move(out));
  }

  // The live allocator already tracks post-recovery routes; without
  // recovery, rebuild the dimensioned allocation (identical content).
  alloc::SlotAllocator reporter(mesh.topo, dim->params);
  if (!recovery)
    for (const auto& c : dim->allocation.connections) alloc::restore_connection(reporter, c);
  report_network(report, sc, mesh, net,
                 recovery ? recovery->allocator().schedule() : reporter.schedule(),
                 sc.run_cycles / dim->params.words_per_slot);
  report.health.enabled = injector.has_value();
  if (injector) {
    const sim::FaultCounters& fc = injector->counters();
    report.health.faults_injected = fc.injected;
    report.health.words_dropped = fc.dropped;
    report.health.words_flipped = fc.flipped;
    report.health.words_stuck = fc.stuck;
    report.health.words_killed = fc.killed;
  }

  report.recovery.enabled = spec.recovery.enabled;
  if (recovery) {
    report.recovery.missing_flits = monitor->total_missing();
    report.recovery.parity_errors = monitor->total_parity_errors();
    for (topo::LinkId l : recovery->allocator().quarantined_links())
      report.recovery.quarantined.push_back(l);
  }

  report.ok = all_met && report.router_drops == 0 && report.ni_drops == 0 &&
              report.rx_overflow == 0 && report.health.config_ok &&
              report.health.aborted == 0;
  return report;
}

} // namespace daelite::soc
