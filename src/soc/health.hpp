#pragma once
// Per-link fault localization — the detection half of the self-healing
// subsystem. The destination NIs' integrity sideband (daelite/flit.hpp)
// tells a connection *that* words were corrupted or lost; the HealthMonitor
// tells the recovery runner *where*, so the allocator can quarantine the
// guilty link and route the repaired connection around it.
//
// Mechanism: every data link has a producer-side occupancy counter that
// increments during tick(), before the fault injector's commit() corrupts
// the freshly committed word (Router::forwarded_on, Ni link_busy_slots).
// The monitor is constructed AFTER the injector, so its commit() runs last
// in the cycle and observes exactly what downstream consumers will read.
// Per slot it counts valid flits on each link register and verifies each
// word's parity against the sideband. It reads only the registers that can
// hold one: the outputs each router latched valid this slot
// (Router::latched_outputs()) and every NI's output register. Every other
// router output is invalid — a stale one is cleared at the next slot
// start, and the injector only clears valid bits, never sets them. At
// epoch boundaries (grid-aligned so
// verdict cycles are identical under both kernel schedulers) it compares:
//
//   missing = (produced delta) - (observed delta)   -> drop / kill faults
//   parity  = words whose sideband parity mismatches -> flip / stuck faults
//
// Evidence accumulates per link; crossing suspect_threshold marks the link
// suspect, dead_threshold kills it (one kLinkDead trace record, one entry
// in take_dead_events() for the runner). Evidence totals are cumulative,
// so the verdict cycle is independent of how many epoch evaluations a
// quiescent fast-forward coalesced.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "daelite/flit.hpp"
#include "sim/component.hpp"
#include "tdm/params.hpp"
#include "topology/graph.hpp"

namespace daelite::hw {
class DaeliteNetwork;
class Router;
}

namespace daelite::soc {

/// Verdict for one watched link.
enum class LinkState : std::uint8_t { kOk = 0, kSuspect, kDead };

std::string_view link_state_name(LinkState s);

/// One dead-link verdict, handed to the recovery runner.
struct DeadLinkEvent {
  topo::LinkId link = 0;
  sim::Cycle cycle = 0;        ///< epoch boundary the verdict fired at
  std::uint64_t evidence = 0;  ///< cumulative missing + parity words
};

/// Cumulative per-link observations (the report's `recovery.links`).
struct LinkHealth {
  std::uint64_t produced = 0;      ///< flits the producer drove onto the link
  std::uint64_t observed = 0;      ///< valid flits seen post-injection
  std::uint64_t missing = 0;       ///< produced - observed, summed per epoch
  std::uint64_t parity_errors = 0; ///< words failing the sideband parity check
  LinkState state = LinkState::kOk;
  std::uint64_t evidence() const { return missing + parity_errors; }
};

class HealthMonitor : public sim::Component {
 public:
  struct Options {
    /// Evidence evaluation period in cycles; 0 derives one TDM wheel.
    /// Rounded up to a whole number of slots (evaluation happens at slot
    /// starts) and snapped to an absolute grid so both schedulers evaluate
    /// at the same cycles.
    std::uint32_t epoch_cycles = 0;
    std::uint64_t suspect_threshold = 1; ///< cumulative evidence -> suspect
    std::uint64_t dead_threshold = 3;    ///< cumulative evidence -> dead
  };

  /// Construct AFTER the fault injector (registration order is commit
  /// order under both schedulers): the monitor must observe the corrupted
  /// committed values. Watches every data link of `net` in topology order,
  /// so LinkHealth indices are topology LinkIds.
  HealthMonitor(sim::Kernel& k, std::string name, hw::DaeliteNetwork& net,
                Options options);
  HealthMonitor(sim::Kernel& k, std::string name, hw::DaeliteNetwork& net);

  void tick() override {}
  void commit() override;

  /// True only when no watched register holds a flit and every link's
  /// evidence was already evaluated: the next epoch evaluation would be a
  /// pure no-op, so the kernel's quiescence fast-forward stays exact.
  bool quiescent() const override;

  const Options& options() const { return options_; }
  std::size_t link_count() const { return links_.size(); }
  const LinkHealth& link(topo::LinkId l) const { return links_[l].health; }

  /// Dead verdicts since the last call, in verdict order (epoch boundary,
  /// then ascending LinkId). The recovery runner polls this every cycle.
  std::vector<DeadLinkEvent> take_dead_events();

  /// Links currently suspect or dead that lie on the given link set —
  /// used to localize an end-to-end integrity alarm to a route.
  std::vector<topo::LinkId> suspects_among(const std::vector<topo::LinkId>& route_links) const;

  std::uint64_t total_missing() const;
  std::uint64_t total_parity_errors() const;

 private:
  struct WatchedLink {
    const sim::Reg<hw::Flit>* reg = nullptr;     ///< the link's output register
    const std::uint64_t* produced = nullptr;     ///< producer's occupancy counter
    LinkHealth health;
    std::uint64_t produced_at_eval = 0;          ///< snapshots at the last epoch
    std::uint64_t observed_at_eval = 0;
    std::uint64_t parity_at_eval = 0;
  };

  /// A router and the link each output port drives (ports past
  /// num_outputs() stay kInvalidLink).
  struct WatchedRouter {
    const hw::Router* router = nullptr;
    std::array<topo::LinkId, 8> out_link;
  };

  void observe(WatchedLink& wl);
  void evaluate_epoch();
  /// Every router output outside its latched mask holds no valid flit,
  /// i.e. the producer walk in commit() missed nothing.
  bool unlatched_outputs_invalid() const;

  tdm::TdmParams params_;
  Options options_;
  std::uint32_t epoch_cycles_ = 0; ///< resolved (nonzero, slot-aligned)
  sim::Cycle next_eval_ = 0;
  std::vector<WatchedLink> links_;
  std::vector<WatchedRouter> routers_;  ///< every router, in node-id order
  std::vector<topo::LinkId> ni_links_;  ///< links driven by an NI output register
  std::vector<DeadLinkEvent> dead_events_;
};

} // namespace daelite::soc
