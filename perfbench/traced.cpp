#include "traced.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "alloc/dimension.hpp"
#include "daelite/network.hpp"
#include "sim/random.hpp"
#include "soc/scenario.hpp"
#include "topology/generators.hpp"
#include "topology/path.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace daelite;

double SpanLog::total_ms(const std::string& name) const {
  double ms = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) ms += s.ms();
  return ms;
}

void CallLatencies::add(Clock::duration d) {
  total += d;
  us.push_back(std::chrono::duration<double, std::micro>(d).count());
}

alloc::AllocatorOptions churn_allocator_options() {
  alloc::AllocatorOptions o;
  o.incremental = true; // daelite_churn's default mode
  return o;
}

TracedSim trace_sim(const std::string& scenario_text, const soc::RunSpec& spec) {
  TracedSim t;
  if (spec.fault_plan.enabled() || spec.recovery.enabled) {
    t.error = "the traced pass runs the fault-free flow only";
    return t;
  }
  SpanLog& log = t.spans;
  const auto wall_start = Clock::now();
  const std::uint32_t run = log.begin("run");

  // soc: parse the scenario text and resolve it against the topology.
  std::uint32_t span = log.begin("soc.parse", run);
  std::istringstream is(scenario_text);
  std::optional<soc::Scenario> parsed = soc::parse_scenario(is, &t.error);
  if (!parsed) return t;
  soc::Scenario sc = std::move(*parsed);
  if (spec.slots_override) sc.slots = *spec.slots_override;
  if (spec.run_cycles_override) sc.run_cycles = *spec.run_cycles_override;
  topo::Mesh mesh = sc.build();
  log.end(span);
  for (const alloc::PhysicalConnectionSpec& c : sc.connections) {
    if (c.stream_period != 0) {
      t.error = "the traced pass drives saturated connections only";
      return t;
    }
  }

  // alloc: dimensioning, as the runner calls it.
  span = log.begin("alloc.dimension", run);
  const alloc::NocClocking clk{sc.clock_mhz, 4};
  const std::vector<std::uint32_t> candidates =
      sc.slots ? std::vector<std::uint32_t>{*sc.slots} : std::vector<std::uint32_t>{8, 16, 32};
  auto dim = alloc::dimension_network(mesh.topo, sc.connections, clk, candidates, &t.error);
  log.end(span);
  if (!dim) return t;

  // daelite: instantiate the network.
  span = log.begin("daelite.build", run);
  sim::Kernel kernel(spec.scheduler);
  hw::DaeliteNetwork::Options opt;
  opt.tdm = dim->params;
  opt.cfg_root = mesh.ni(sc.host.first, sc.host.second);
  hw::DaeliteNetwork net(kernel, mesh.topo, opt);
  log.end(span);

  // daelite: set every connection up through the broadcast tree.
  span = log.begin("daelite.configure", run);
  std::vector<hw::ConnectionHandle> handles;
  for (const auto& c : dim->allocation.connections) handles.push_back(net.open_connection(c));
  const sim::Cycle cfg = net.run_config();
  log.end(span);
  if (cfg == sim::kNoCycle) {
    t.error = "configuration did not converge";
    return t;
  }
  t.cfg_cycles = cfg;
  t.cfg_words = net.config_module().words_sent();

  // Traffic: a copy of the runner's saturated pump, timed per cycle as one
  // block, then Kernel::step timed on its own.
  span = log.begin("traffic", run);
  const std::uint32_t wps = dim->params.words_per_slot;
  for (sim::Cycle c = 0; c < sc.run_cycles; ++c) {
    const auto t0 = Clock::now();
    for (const hw::ConnectionHandle& h : handles) {
      hw::Ni& src = net.ni(h.conn.request.src_ni);
      ++t.ni_lookups;
      for (;;) {
        ++t.tx_push_calls;
        if (!src.tx_push(h.src_tx_q, 1)) break;
        ++t.tx_push_accepted;
      }
      for (std::size_t d = 0; d < h.dst_rx_qs.size(); ++d) {
        hw::Ni& dst = net.ni(h.conn.request.dst_nis[d]);
        ++t.ni_lookups;
        for (;;) {
          ++t.rx_pop_calls;
          if (!dst.rx_pop(h.dst_rx_qs[d])) break;
          ++t.rx_pop_hits;
        }
      }
    }
    const auto t1 = Clock::now();
    const bool slot_boundary = kernel.now() % wps == 0;
    kernel.step();
    const auto t2 = Clock::now();
    t.pump.total += t1 - t0;
    ++t.pump.calls;
    Accumulator& step = slot_boundary ? t.step_slot : t.step_mid;
    step.total += t2 - t1;
    ++step.calls;
  }
  log.end(span);

  // analysis: the runner's report assembly for a fault-free run.
  span = log.begin("analysis.report", run);
  analysis::NetworkReport report;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    analysis::ConnectionOutcome out;
    out.name = dim->connections[i].spec.name;
    for (std::size_t d = 0; d < handles[i].dst_rx_qs.size(); ++d) {
      const hw::Ni& dst = net.ni(handles[i].conn.request.dst_nis[d]);
      const auto& rs = dst.rx_stats(handles[i].dst_rx_qs[d]);
      out.corrupt_words += rs.corrupt_words;
      out.lost_words += rs.lost_words;
      out.latency.merge(dst.rx_latency(handles[i].dst_rx_qs[d]));
    }
    report.connections.push_back(std::move(out));
  }
  alloc::SlotAllocator reporter(mesh.topo, dim->params);
  for (const auto& c : dim->allocation.connections) {
    reporter.restore(c.request);
    if (c.has_response) reporter.restore(c.response);
  }
  report.schedule = analysis::summarize_schedule(mesh.topo, reporter.schedule());
  report.links = analysis::link_usage(mesh.topo, reporter.schedule());
  for (analysis::LinkUsage& u : report.links) {
    const topo::Link& link = mesh.topo.link(u.link);
    u.busy_slots = mesh.topo.is_router(link.src) ? net.router(link.src).forwarded_on(link.src_port)
                                                 : net.ni(link.src).stats().link_busy_slots;
  }
  for (topo::NodeId n = 0; n < mesh.topo.node_count(); ++n) {
    if (!mesh.topo.is_ni(n)) continue;
    const hw::Ni& ni = net.ni(n);
    for (std::size_t q = 0; q < net.options().ni_channels; ++q) {
      report.health.words_sent += ni.tx_stats(q).words_sent;
      report.health.words_delivered += ni.rx_stats(q).words_received;
    }
  }
  report.router_drops = net.total_router_drops();
  report.ni_drops = net.total_ni_drops();
  log.end(span);
  t.words_delivered = report.health.words_delivered;

  log.end(run);
  t.wall_s = std::chrono::duration<double>(Clock::now() - wall_start).count();
  return t;
}

TracedChurn trace_churn(const alloc::ChurnRunOptions& options) {
  TracedChurn t;
  if (options.overload.enabled || !options.quarantine_events.empty()) {
    t.error = "the traced churn pass supports neither overload control nor quarantine events";
    return t;
  }
  const auto wall_start = Clock::now();
  const topo::Mesh mesh = topo::make_mesh(kChurnMeshSide, kChurnMeshSide);
  alloc::SlotAllocator alloc(mesh.topo, tdm::daelite_params(kChurnSlots),
                             churn_allocator_options());
  alloc::ChurnService service(alloc, options.admission);
  const auto endpoints = alloc.topology().nodes_of_kind(topo::NodeKind::kNi);
  alloc::ChurnWorkload workload(endpoints, options.workload);

  // run_churn's fragmentation probes, drawn the same way.
  std::vector<topo::Path> probes;
  if (endpoints.size() >= 2 && options.probe_paths > 0) {
    sim::Xoshiro256 prng(options.workload.seed ^ 0x66726167676175ull);
    const topo::PathFinder finder(alloc.topology());
    while (probes.size() < options.probe_paths) {
      const topo::NodeId a = endpoints[prng.below(endpoints.size())];
      const topo::NodeId b = endpoints[prng.below(endpoints.size())];
      if (a == b) continue;
      topo::Path p = finder.shortest(a, b);
      if (!p.links.empty()) probes.push_back(std::move(p));
    }
  }
  const std::uint64_t sample_every = std::max<std::uint64_t>(
      1, options.requests / std::max<std::size_t>(1, options.fragmentation_samples));

  for (std::uint64_t i = 0; i < options.requests; ++i) {
    auto t0 = Clock::now();
    const alloc::ChurnWorkload::Op op = workload.next(service);
    auto t1 = Clock::now();
    t.workload_next.total += t1 - t0;
    ++t.workload_next.calls;

    switch (op.kind) {
      case alloc::ChurnWorkload::Op::Kind::kSetUp: {
        t0 = Clock::now();
        const alloc::ChurnService::Result r = service.set_up(op.spec);
        t.setup.add(Clock::now() - t0);
        workload.on_setup_result(r);
        break;
      }
      case alloc::ChurnWorkload::Op::Kind::kTearDown:
        t0 = Clock::now();
        service.tear_down(op.connection);
        t.teardown.add(Clock::now() - t0);
        break;
      case alloc::ChurnWorkload::Op::Kind::kModify: {
        t0 = Clock::now();
        const alloc::ChurnService::Result r =
            service.modify(op.connection, op.request_slots, op.response_slots);
        t.modify.add(Clock::now() - t0);
        if (r.status != alloc::ChurnStatus::kAdmitted) ++t.modify_failed;
        break;
      }
    }

    if (options.compaction.every > 0 && (i + 1) % options.compaction.every == 0) {
      t0 = Clock::now();
      const auto cr = service.compact(options.compaction.max_moves);
      t.compact.total += Clock::now() - t0;
      ++t.compact.calls;
      t.compact_examined += cr.examined;
      t.compact_moved += cr.moved;
    }
    if (i % sample_every == 0 || i + 1 == options.requests) {
      t0 = Clock::now();
      service.sample_fragmentation(probes);
      t.frag_sample.total += Clock::now() - t0;
      ++t.frag_sample.calls;
    }
  }
  t.metrics = service.metrics();
  t.wall_s = std::chrono::duration<double>(Clock::now() - wall_start).count();
  return t;
}

} // namespace perfbench
