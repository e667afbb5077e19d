#include "alloc/churn.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

namespace daelite::alloc {

namespace {

/// FNV-1a over the 8 bytes of v, little-endian.
void fnv_mix(std::uint64_t& digest, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (v >> (8 * i)) & 0xff;
    digest *= 1099511628211ull;
  }
}

void fnv_mix_route(std::uint64_t& digest, const RouteTree& r) {
  fnv_mix(digest, r.channel);
  for (tdm::Slot s : r.inject_slots) fnv_mix(digest, s);
}

} // namespace

std::uint64_t worst_case_latency_cycles(const RouteTree& route, const tdm::TdmParams& params) {
  if (route.inject_slots.empty()) return 0;
  // Longest circular gap between consecutive owned injection slots: a word
  // that becomes ready just after an owned slot starts waits that many
  // slots for the next one.
  const auto& q = route.inject_slots; // sorted ascending
  std::uint32_t max_gap = q.front() + params.num_slots - q.back();
  for (std::size_t i = 0; i + 1 < q.size(); ++i) max_gap = std::max(max_gap, q[i + 1] - q[i]);
  std::uint32_t max_depth = 0;
  for (const RouteEdge& e : route.edges) max_depth = std::max(max_depth, e.depth);
  // With n links to the deepest destination its NI is pipeline element n,
  // acting n*shift slots (= n*hop_cycles cycles) after injection.
  const std::uint64_t pipeline =
      route.edges.empty() ? 0 : std::uint64_t(max_depth + 1) * params.hop_cycles;
  return std::uint64_t(max_gap) * params.words_per_slot + pipeline;
}

ChurnService::ChurnService(SlotAllocator& alloc, AdmissionControl admission)
    : alloc_(&alloc), admission_(admission) {}

const AllocatedConnection* ChurnService::connection(std::uint64_t id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

bool ChurnService::admit_route(const RouteTree& route) const {
  if (admission_.max_path_hops != 0) {
    std::uint32_t max_depth = 0;
    for (const RouteEdge& e : route.edges) max_depth = std::max(max_depth, e.depth);
    const std::uint32_t hops = route.edges.empty() ? 0 : max_depth + 1;
    if (hops > admission_.max_path_hops) return false;
  }
  if (admission_.max_latency_cycles != 0 &&
      worst_case_latency_cycles(route, alloc_->params()) > admission_.max_latency_cycles)
    return false;
  return true;
}

bool ChurnService::reject_was_fragmentation(const ChannelSpec& spec) {
  // Capacity vs alignment: if some candidate path has >= slots_required
  // free slots on *every* link yet the allocation failed, the slots exist
  // but no injection slot lines them up — fragmentation, not exhaustion.
  // (For multicast the trunk to the first destination is checked; branch
  // links add further constraints, so this is a lower bound on the
  // fragmentation count.)
  for (const topo::Path& p : alloc_->candidate_paths(spec.src_ni, spec.dst_nis.front())) {
    if (p.links.empty()) continue;
    std::uint32_t min_free = std::numeric_limits<std::uint32_t>::max();
    for (topo::LinkId l : p.links) min_free = std::min(min_free, alloc_->link_free_slots(l));
    if (min_free >= spec.slots_required) return true;
  }
  return false;
}

ChurnService::Result ChurnService::allocate_connection(const ConnectionSpec& spec,
                                                       AllocatedConnection* out,
                                                       bool new_connection) {
  last_no_route_was_frag_ = false;
  const bool multicast = spec.dst_nis.size() > 1;
  const std::uint32_t resp_slots = multicast ? 0 : spec.response_slots;

  if (admission_.max_request_slots != 0 && (spec.request_slots > admission_.max_request_slots ||
                                            resp_slots > admission_.max_request_slots))
    return {ChurnStatus::kRejectedAdmission, 0};
  if (alloc_->utilization() > admission_.max_utilization)
    return {ChurnStatus::kRejectedAdmission, 0};
  if (new_connection) {
    // Per-class quota: modify/compact re-admissions skip it — the class
    // population does not grow there.
    const auto& q = admission_.quota[static_cast<std::size_t>(spec.service_class)];
    if (q.max_live != 0 && live_of_class(spec.service_class) >= q.max_live)
      return {ChurnStatus::kRejectedAdmission, 0};
    if (alloc_->utilization() > q.max_utilization) return {ChurnStatus::kRejectedAdmission, 0};
  }

  ChannelSpec req;
  req.src_ni = spec.src_ni;
  req.dst_nis = spec.dst_nis;
  req.slots_required = spec.request_slots;
  req.service_class = spec.service_class;
  auto r = alloc_->allocate(req);
  if (!r) {
    last_no_route_was_frag_ = reject_was_fragmentation(req);
    return {ChurnStatus::kRejectedNoRoute, 0};
  }
  if (!admit_route(*r)) {
    alloc_->release(*r);
    return {ChurnStatus::kRejectedAdmission, 0};
  }
  out->spec = spec;
  out->request = std::move(*r);
  out->has_response = false;

  if (resp_slots > 0) {
    ChannelSpec resp;
    resp.src_ni = spec.dst_nis.front();
    resp.dst_nis = {spec.src_ni};
    resp.slots_required = resp_slots;
    resp.service_class = spec.service_class;
    auto rr = alloc_->allocate(resp);
    if (!rr) {
      // Classified *before* releasing the request: the response failed in
      // the state that actually rejected it.
      last_no_route_was_frag_ = reject_was_fragmentation(resp);
      alloc_->release(out->request);
      return {ChurnStatus::kRejectedNoRoute, 0};
    }
    if (!admit_route(*rr)) {
      alloc_->release(*rr);
      alloc_->release(out->request);
      return {ChurnStatus::kRejectedAdmission, 0};
    }
    out->response = std::move(*rr);
    out->has_response = true;
  }
  return {ChurnStatus::kAdmitted, 0};
}

ChurnService::Result ChurnService::preempt_and_retry(const ConnectionSpec& spec,
                                                     AllocatedConnection* out,
                                                     bool new_connection) {
  Result r{ChurnStatus::kRejectedNoRoute, 0};
  const bool multicast = spec.dst_nis.size() > 1;
  if (multicast) return r; // plan_preemption is unicast-only
  const auto preemptable = [&](tdm::ChannelId ch) {
    return ch < channel_owner_.size() && channel_owner_[ch].best_effort;
  };
  // Two rounds: the request channel may need one pass, then the response
  // channel another (each retry re-diagnoses which one still fails).
  for (int round = 0; round < 2; ++round) {
    ChannelSpec req{spec.src_ni, spec.dst_nis, spec.request_slots, spec.service_class};
    auto plan = alloc_->plan_preemption(req, preemptable);
    if ((!plan || plan->victims.empty()) && spec.response_slots > 0) {
      ChannelSpec resp{spec.dst_nis.front(),
                       {spec.src_ni},
                       spec.response_slots,
                       spec.service_class};
      plan = alloc_->plan_preemption(resp, preemptable);
    }
    if (!plan || plan->victims.empty()) break; // preemption cannot help

    // Victim channels -> owning connections, ascending and unique (two
    // channels of one connection may both be condemned).
    std::vector<std::uint64_t> victims;
    for (tdm::ChannelId ch : plan->victims) {
      const std::uint64_t id = channel_owner_[ch].id;
      const auto it = std::lower_bound(victims.begin(), victims.end(), id);
      if (it == victims.end() || *it != id) victims.insert(it, id);
    }
    for (std::uint64_t id : victims) {
      metrics_.preemptions.inc();
      last_preempted_.push_back(id);
      remove(conns_.find(id));
    }

    r = allocate_connection(spec, out, new_connection);
    if (r.status != ChurnStatus::kRejectedNoRoute) break;
  }
  return r;
}

void ChurnService::insert_live(std::uint64_t id, AllocatedConnection conn) {
  conn.id = static_cast<tdm::ConnectionId>(id);
  live_index_[id] = live_order_.size();
  live_order_.push_back(id);
  own_channels(id, conn);
  ++live_by_class_[static_cast<std::size_t>(conn.spec.service_class)];
  conns_.emplace(id, std::move(conn));
}

void ChurnService::own_channels(std::uint64_t id, const AllocatedConnection& c) {
  const tdm::ChannelId top = std::max(c.request.channel, c.has_response ? c.response.channel : 0);
  if (top >= channel_owner_.size()) channel_owner_.resize(top + 1);
  const ChannelOwner owner{id, c.spec.service_class == ServiceClass::kBestEffort};
  channel_owner_[c.request.channel] = owner;
  if (c.has_response) channel_owner_[c.response.channel] = owner;
}

void ChurnService::release_channels(const AllocatedConnection& c) {
  channel_owner_[c.request.channel] = {};
  alloc_->release(c.request);
  if (c.has_response) {
    channel_owner_[c.response.channel] = {};
    alloc_->release(c.response);
  }
}

void ChurnService::remove(ConnMap::iterator it) {
  assert(it != conns_.end());
  release_channels(it->second);
  const std::size_t idx = static_cast<std::size_t>(it->second.spec.service_class);
  assert(live_by_class_[idx] > 0);
  --live_by_class_[idx];
  unlink_live(it->first);
  conns_.erase(it);
}

bool ChurnService::restore_or_drop(ConnMap::iterator it, const AllocatedConnection& old) {
  // The failed or rejected attempt released its own partial state, so
  // old's slots are free again and the restore cannot fail unless an
  // external actor raced us.
  if (restore_connection(*alloc_, old)) {
    own_channels(it->first, old);
    return true;
  }
  // The connection is gone; dropping it from the live set keeps the
  // bookkeeping truthful instead of leaving a dangling id.
  metrics_.rollback_failures.inc();
  remove(it);
  return false;
}

ChurnService::Result ChurnService::set_up(const ConnectionSpec& spec) {
  last_preempted_.clear();
  metrics_.setups.inc();
  AllocatedConnection conn;
  Result r = allocate_connection(spec, &conn);
  if (r.status == ChurnStatus::kRejectedNoRoute && admission_.preempt_best_effort &&
      spec.service_class == ServiceClass::kGuaranteed) {
    r = preempt_and_retry(spec, &conn, /*new_connection=*/true);
  }
  switch (r.status) {
    case ChurnStatus::kAdmitted:
      metrics_.admitted.inc();
      metrics_.admitted_hops.add(conn.request.edges.size());
      r.connection = next_id_++;
      insert_live(r.connection, std::move(conn));
      break;
    case ChurnStatus::kRejectedAdmission:
      metrics_.rejected_admission.inc();
      break;
    default:
      metrics_.rejected_no_route.inc();
      if (last_no_route_was_frag_) metrics_.rejected_fragmentation.inc();
      break;
  }
  return r;
}

ChurnService::Result ChurnService::adopt(const AllocatedConnection& conn) {
  if (!restore_connection(*alloc_, conn)) return {ChurnStatus::kRejectedNoRoute, 0};
  const std::uint64_t id = next_id_++;
  insert_live(id, conn);
  return {ChurnStatus::kAdmitted, id};
}

ChurnStatus ChurnService::tear_down(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return ChurnStatus::kUnknownConnection;
  metrics_.teardowns.inc();
  remove(it);
  return ChurnStatus::kAdmitted;
}

ChurnService::Result ChurnService::modify(std::uint64_t id, std::uint32_t request_slots,
                                          std::uint32_t response_slots) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return {ChurnStatus::kUnknownConnection, 0};
  metrics_.modifies.inc();

  // Transactional: release the old reservations, allocate the new
  // bandwidth under admission control, restore exactly on failure.
  const AllocatedConnection old = it->second;
  release_channels(old);

  ConnectionSpec spec = old.spec;
  spec.request_slots = request_slots;
  spec.response_slots = response_slots;

  AllocatedConnection fresh;
  Result r = allocate_connection(spec, &fresh, /*new_connection=*/false);
  if (r.status == ChurnStatus::kAdmitted) {
    fresh.id = old.id;
    own_channels(id, fresh);
    it->second = std::move(fresh);
    r.connection = id;
    return r;
  }
  if (restore_or_drop(it, old)) metrics_.modify_failed_restored.inc();
  return r;
}

ChurnService::Result ChurnService::reroute(std::uint64_t id) {
  last_preempted_.clear();
  auto it = conns_.find(id);
  if (it == conns_.end()) return {ChurnStatus::kUnknownConnection, 0};
  release_channels(it->second);
  const ConnectionSpec& spec = it->second.spec;
  AllocatedConnection fresh;
  Result r = allocate_connection(spec, &fresh, /*new_connection=*/false);
  if (r.status == ChurnStatus::kRejectedNoRoute && admission_.preempt_best_effort &&
      spec.service_class == ServiceClass::kGuaranteed) {
    // Victims leave conns_, which keeps `it` valid.
    r = preempt_and_retry(spec, &fresh, /*new_connection=*/false);
  }
  if (r.status != ChurnStatus::kAdmitted) {
    remove(it);
    return r;
  }
  fresh.id = it->second.id;
  own_channels(id, fresh);
  it->second = std::move(fresh);
  r.connection = id;
  return r;
}

void ChurnService::unlink_live(std::uint64_t id) {
  const std::size_t idx = live_index_.at(id);
  const std::uint64_t last = live_order_.back();
  live_order_[idx] = last;
  live_index_[last] = idx;
  live_order_.pop_back();
  live_index_.erase(id);
}

double ChurnService::sample_fragmentation(const std::vector<topo::Path>& probes) {
  double acc = 0.0;
  std::size_t sampled = 0;
  for (const topo::Path& p : probes) {
    if (p.links.empty()) continue;
    std::uint32_t min_free = std::numeric_limits<std::uint32_t>::max();
    for (topo::LinkId l : p.links) min_free = std::min(min_free, alloc_->link_free_slots(l));
    if (min_free == 0) continue; // no capacity left: exhaustion, not fragmentation
    const RouteTree shape = RouteTree::from_path(alloc_->topology(), p, {});
    const std::size_t aligned = alloc_->free_inject_slots(shape).size();
    acc += 1.0 - double(std::min<std::size_t>(aligned, min_free)) / double(min_free);
    ++sampled;
  }
  const double frag = sampled ? acc / double(sampled) : 0.0;
  metrics_.fragmentation.set(frag);
  metrics_.utilization.set(alloc_->utilization());
  return frag;
}

namespace {

/// Packing score of an allocated connection: (highest inject slot over
/// both channels, total route depth). Compaction accepts a move only when
/// this strictly decreases — re-packing toward low slot offsets frees
/// contiguous high-slot capacity for future alignment.
std::pair<std::uint32_t, std::size_t> packing_score(const AllocatedConnection& c) {
  std::uint32_t high = c.request.inject_slots.empty() ? 0 : c.request.inject_slots.back();
  std::size_t depth = c.request.edges.size();
  if (c.has_response) {
    if (!c.response.inject_slots.empty())
      high = std::max<std::uint32_t>(high, c.response.inject_slots.back());
    depth += c.response.edges.size();
  }
  return {high, depth};
}

} // namespace

ChurnService::CompactionResult ChurnService::compact(std::size_t max_moves) {
  CompactionResult res;
  // Deterministic walk order regardless of swap-remove history.
  std::vector<std::uint64_t> ids = live_order_;
  std::sort(ids.begin(), ids.end());
  const SlotPolicy saved = alloc_->options().slot_policy;
  alloc_->set_slot_policy(SlotPolicy::kFirstFit);
  for (std::uint64_t id : ids) {
    if (res.moved >= max_moves) break;
    const auto it = conns_.find(id);
    assert(it != conns_.end());
    if (it->second.spec.service_class == ServiceClass::kGuaranteed) continue; // never mid-stream
    ++res.examined;
    const AllocatedConnection old = it->second;

    // Close-before-open at the allocator level: free the old reservations,
    // re-allocate first-fit, keep only a strict improvement.
    release_channels(old);
    AllocatedConnection fresh;
    const Result r = allocate_connection(old.spec, &fresh, /*new_connection=*/false);
    if (r.status == ChurnStatus::kAdmitted && packing_score(fresh) < packing_score(old)) {
      fresh.id = old.id;
      own_channels(id, fresh);
      // Audit trail: who moved, from which slots to which slots.
      fnv_mix(res.digest, id);
      fnv_mix_route(res.digest, old.request);
      fnv_mix_route(res.digest, fresh.request);
      if (old.has_response) fnv_mix_route(res.digest, old.response);
      if (fresh.has_response) fnv_mix_route(res.digest, fresh.response);
      it->second = std::move(fresh);
      ++res.moved;
      res.moves.push_back(id);
      continue;
    }
    if (r.status == ChurnStatus::kAdmitted) {
      alloc_->release(fresh.request);
      if (fresh.has_response) alloc_->release(fresh.response);
    }
    restore_or_drop(it, old);
  }
  alloc_->set_slot_policy(saved);
  return res;
}

// --- Open-loop workload ------------------------------------------------------

ChurnWorkload::ChurnWorkload(std::vector<topo::NodeId> endpoints, ChurnWorkloadOptions options)
    : endpoints_(std::move(endpoints)), opt_(options), rng_(options.seed) {
  assert(endpoints_.size() >= 2 && "churn workload needs at least two NIs");
  assert(opt_.arrival_rate > 0.0 && opt_.mean_hold_cycles > 0.0);
  assert(opt_.min_slots >= 1 && opt_.min_slots <= opt_.max_slots);
  next_arrival_ = -std::log(1.0 - rng_.uniform()) / opt_.arrival_rate;
}

ConnectionSpec ChurnWorkload::draw_spec() {
  ConnectionSpec s;
  s.name = "r" + std::to_string(seq_++);
  s.src_ni = endpoints_[rng_.below(endpoints_.size())];
  std::uint32_t fanout = 1;
  if (opt_.max_fanout >= 2 && endpoints_.size() >= 3 && rng_.chance(opt_.multicast_fraction)) {
    const auto cap = std::min<std::uint64_t>(opt_.max_fanout, endpoints_.size() - 1);
    fanout = static_cast<std::uint32_t>(rng_.range(2, cap));
  }
  while (s.dst_nis.size() < fanout) {
    const topo::NodeId d = endpoints_[rng_.below(endpoints_.size())];
    if (d == s.src_ni) continue;
    if (std::find(s.dst_nis.begin(), s.dst_nis.end(), d) != s.dst_nis.end()) continue;
    s.dst_nis.push_back(d);
  }
  s.request_slots = static_cast<std::uint32_t>(rng_.range(opt_.min_slots, opt_.max_slots));
  s.response_slots = fanout > 1 ? 0 : opt_.response_slots;
  // Service-class draw only when a mix is configured: an all-standard
  // workload must consume the exact RNG stream of pre-class builds so
  // legacy decision digests survive.
  if (opt_.guaranteed_fraction > 0.0 || opt_.best_effort_fraction > 0.0) {
    const double u = rng_.uniform();
    if (u < opt_.guaranteed_fraction) {
      s.service_class = ServiceClass::kGuaranteed;
    } else if (u < opt_.guaranteed_fraction + opt_.best_effort_fraction) {
      s.service_class = ServiceClass::kBestEffort;
    }
  }
  return s;
}

ChurnWorkload::Op ChurnWorkload::next(const ChurnService& service) {
  // Expired connections tear down before the next arrival. Entries whose
  // connection already died (a failed modify whose roll-back failed) are
  // skipped — the heap holds the workload's view, the service's is truth.
  while (!expiry_.empty() && expiry_.front().first <= next_arrival_) {
    std::pop_heap(expiry_.begin(), expiry_.end(), std::greater<>{});
    const auto [t, id] = expiry_.back();
    expiry_.pop_back();
    if (service.connection(id) == nullptr) continue;
    now_ = t;
    Op op;
    op.kind = Op::Kind::kTearDown;
    op.time = t;
    op.connection = id;
    return op;
  }

  now_ = next_arrival_;
  next_arrival_ = now_ - std::log(1.0 - rng_.uniform()) / opt_.arrival_rate;

  Op op;
  op.time = now_;
  if (service.live_connections() > 0 && rng_.chance(opt_.modify_fraction)) {
    op.kind = Op::Kind::kModify;
    op.connection = service.live_id_at(rng_.below(service.live_connections()));
    op.request_slots = static_cast<std::uint32_t>(rng_.range(opt_.min_slots, opt_.max_slots));
    op.response_slots = opt_.response_slots;
    return op;
  }
  op.kind = Op::Kind::kSetUp;
  op.spec = draw_spec();
  pending_hold_ = -std::log(1.0 - rng_.uniform()) * opt_.mean_hold_cycles;
  return op;
}

void ChurnWorkload::on_setup_result(const ChurnService::Result& r) {
  if (pending_hold_ && r.status == ChurnStatus::kAdmitted)
    schedule_expiry(now_ + *pending_hold_, r.connection);
  pending_hold_.reset();
}

void ChurnWorkload::schedule_expiry(double at, std::uint64_t connection) {
  expiry_.emplace_back(at, connection);
  std::push_heap(expiry_.begin(), expiry_.end(), std::greater<>{});
}

// --- Replay harness ----------------------------------------------------------

ChurnReport run_churn(SlotAllocator& alloc, const ChurnRunOptions& options) {
  using Clock = std::chrono::steady_clock;

  ChurnReport report;
  ChurnService service(alloc, options.admission);
  const auto endpoints = alloc.topology().nodes_of_kind(topo::NodeKind::kNi);
  ChurnWorkload workload(endpoints, options.workload);

  // Probe paths for the fragmentation gauge: deterministic, drawn from a
  // stream independent of the request workload's so changing the sample
  // count never perturbs the decisions.
  std::vector<topo::Path> probes;
  if (endpoints.size() >= 2 && options.probe_paths > 0) {
    sim::Xoshiro256 prng(options.workload.seed ^ 0x66726167676175ull); // "fraggau"
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

  std::uint64_t digest = 14695981039346656037ull;

  report.qos_enabled = options.overload.enabled || options.compaction.every > 0 ||
                       !options.quarantine_events.empty() ||
                       options.admission.preempt_best_effort ||
                       options.workload.guaranteed_fraction > 0.0 ||
                       options.workload.best_effort_fraction > 0.0;

  const auto cls = [](const ConnectionSpec& s) {
    return static_cast<std::size_t>(s.service_class);
  };

  // Overload-control retry queue: min-heap on (ready, seq), jitter and
  // re-admission holds drawn from a stream independent of the workload's.
  struct Pending {
    double ready = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t attempts = 1; ///< tries already made
    ConnectionSpec spec;
  };
  const auto pending_after = [](const Pending& a, const Pending& b) {
    return a.ready > b.ready || (a.ready == b.ready && a.seq > b.seq);
  };
  std::vector<Pending> pending;
  std::uint64_t pending_seq = 0;
  sim::Xoshiro256 retry_rng(options.workload.seed ^ 0x6f6c7265747279ull); // "olretry"

  const auto note_admitted = [&](const ConnectionSpec& spec, const ChurnService::Result& rr) {
    ClassStats& cs = report.per_class[cls(spec)];
    ++cs.admitted;
    const AllocatedConnection* c = service.connection(rr.connection);
    cs.latency_cycles.add(worst_case_latency_cycles(c->request, alloc.params()));
  };
  const auto note_preemptions = [&]() {
    if (service.last_preempted().empty()) return;
    fnv_mix(digest, 0x505245454d5054ull); // "PREEMPT"
    for (std::uint64_t id : service.last_preempted()) fnv_mix(digest, id);
    report.preempted_connections += service.last_preempted().size();
    report.per_class[static_cast<std::size_t>(ServiceClass::kBestEffort)].preempted +=
        service.last_preempted().size();
  };
  const auto shed = [&](const ConnectionSpec& spec) {
    ++report.shed_total;
    ++report.per_class[cls(spec)].shed;
  };
  /// Queue a retry after `attempts` failed tries, the latest at time `at`.
  const auto enqueue_retry = [&](ConnectionSpec spec, std::uint32_t attempts, double at) {
    if (attempts >= options.overload.max_attempts) {
      shed(spec);
      return;
    }
    const double scale = double(1ull << std::min<std::uint32_t>(attempts - 1, 20));
    const double delay = options.overload.backoff_cycles * scale *
                         (1.0 + options.overload.jitter * retry_rng.uniform());
    Pending p{at + delay, pending_seq++, attempts, std::move(spec)};
    if (pending.size() >= options.overload.pending_capacity) {
      // Class-aware shedding: the least important waiter (then the one
      // furthest from service) goes first — evict it only if the arrival
      // strictly outranks it, else drop the arrival.
      const auto demote_key = [](const Pending& q) {
        return std::make_tuple(static_cast<std::uint8_t>(q.spec.service_class), q.ready, q.seq);
      };
      std::size_t worst = 0;
      for (std::size_t k = 1; k < pending.size(); ++k)
        if (demote_key(pending[k]) > demote_key(pending[worst])) worst = k;
      if (static_cast<std::uint8_t>(p.spec.service_class) <
          static_cast<std::uint8_t>(pending[worst].spec.service_class)) {
        shed(pending[worst].spec);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(worst));
        std::make_heap(pending.begin(), pending.end(), pending_after);
      } else {
        shed(p.spec);
        return;
      }
    }
    pending.push_back(std::move(p));
    std::push_heap(pending.begin(), pending.end(), pending_after);
  };
  const auto run_compaction = [&]() {
    const ChurnService::CompactionResult cr = service.compact(options.compaction.max_moves);
    ++report.compaction_passes;
    report.compaction_moves += cr.moved;
    fnv_mix(report.compaction_digest, cr.digest);
    fnv_mix(digest, 0x434f4d50414354ull); // "COMPACT"
    fnv_mix(digest, cr.moved);
    fnv_mix(digest, cr.digest);
  };

  const auto wall_start = Clock::now();

  for (std::uint64_t i = 0; i < options.requests; ++i) {
    for (const QuarantineEvent& qe : options.quarantine_events) {
      if (qe.at_request != i) continue;
      if (qe.clear) {
        alloc.clear_quarantine();
      } else {
        alloc.quarantine_link(qe.link);
      }
      fnv_mix(digest, 0x5155415241ull); // "QUARA"
      fnv_mix(digest, qe.clear ? ~0ull : std::uint64_t(qe.link));
      if (options.compaction.after_quarantine &&
          (options.compaction.every > 0 || options.compaction.max_moves > 0))
        run_compaction();
    }

    const ChurnWorkload::Op op = workload.next(service);

    // Pending retries whose backoff expired fire before this operation.
    while (options.overload.enabled && !pending.empty() && pending.front().ready <= op.time) {
      std::pop_heap(pending.begin(), pending.end(), pending_after);
      Pending p = std::move(pending.back());
      pending.pop_back();
      ++report.retry_attempts;
      ++report.per_class[cls(p.spec)].retries;
      const ChurnService::Result rr = service.set_up(p.spec);
      fnv_mix(digest, 0x5245545259ull); // "RETRY"
      fnv_mix(digest, static_cast<std::uint64_t>(rr.status));
      if (rr.status == ChurnStatus::kAdmitted) {
        const AllocatedConnection* c = service.connection(rr.connection);
        fnv_mix_route(digest, c->request);
        if (c->has_response) fnv_mix_route(digest, c->response);
        note_admitted(p.spec, rr);
        const double hold =
            -std::log(1.0 - retry_rng.uniform()) * options.workload.mean_hold_cycles;
        workload.schedule_expiry(p.ready + hold, rr.connection);
        if (options.on_admit) options.on_admit(*c);
      } else {
        enqueue_retry(std::move(p.spec), p.attempts + 1, p.ready);
      }
      note_preemptions();
    }

    const auto t0 = options.measure_latency ? Clock::now() : Clock::time_point{};

    ChurnService::Result r;
    switch (op.kind) {
      case ChurnWorkload::Op::Kind::kSetUp:
        ++report.per_class[cls(op.spec)].setups;
        r = service.set_up(op.spec);
        workload.on_setup_result(r);
        break;
      case ChurnWorkload::Op::Kind::kTearDown:
        r.status = service.tear_down(op.connection);
        r.connection = op.connection;
        break;
      case ChurnWorkload::Op::Kind::kModify:
        r = service.modify(op.connection, op.request_slots, op.response_slots);
        break;
    }

    if (options.measure_latency) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
      report.request_latency_ns.add(static_cast<std::uint64_t>(ns.count()));
    }

    fnv_mix(digest, static_cast<std::uint64_t>(op.kind));
    fnv_mix(digest, static_cast<std::uint64_t>(r.status));
    if (r.status == ChurnStatus::kAdmitted && op.kind != ChurnWorkload::Op::Kind::kTearDown) {
      const AllocatedConnection* c = service.connection(r.connection);
      assert(c != nullptr);
      fnv_mix_route(digest, c->request);
      if (c->has_response) fnv_mix_route(digest, c->response);
      if (op.kind == ChurnWorkload::Op::Kind::kSetUp && options.on_admit) options.on_admit(*c);
    }

    if (op.kind == ChurnWorkload::Op::Kind::kSetUp) {
      switch (r.status) {
        case ChurnStatus::kAdmitted:
          note_admitted(op.spec, r);
          break;
        case ChurnStatus::kRejectedAdmission:
          ++report.per_class[cls(op.spec)].rejected_admission;
          if (options.overload.enabled) enqueue_retry(op.spec, 1, op.time);
          break;
        case ChurnStatus::kRejectedNoRoute:
          ++report.per_class[cls(op.spec)].rejected_no_route;
          if (options.overload.enabled) enqueue_retry(op.spec, 1, op.time);
          break;
        default:
          break;
      }
      note_preemptions();
    }

    if (options.compaction.every > 0 && (i + 1) % options.compaction.every == 0)
      run_compaction();

    if (i % sample_every == 0 || i + 1 == options.requests) {
      const double frag = service.sample_fragmentation(probes);
      report.frag_timeline.push_back({i, alloc.utilization(), frag});
    }
  }

  report.wall_seconds = std::chrono::duration<double>(Clock::now() - wall_start).count();
  report.metrics = service.metrics();
  report.decision_digest = digest;
  report.final_utilization = alloc.utilization();
  report.final_live = service.live_connections();
  report.channel_id_watermark = alloc.channel_id_watermark();
  return report;
}

} // namespace daelite::alloc
