#pragma once
// The daelite network router (paper Fig. 4).
//
// Because routing is contention-free and distributed, the router is little
// more than a slot table driving a crossbar: each output port's table entry
// for the current slot names the input port to copy from (or none).
// Incoming flits are "blindly routed based on this schedule" — no header
// inspection, no arbitration, no link-level flow control. Two or more
// outputs may name the same input in a slot: that is multicast (Fig. 7).
//
// Latency: one cycle of link traversal plus one cycle of crossbar traversal
// per hop. In the model each element forwards once per slot (see
// alloc/route.hpp for the timing convention), which is exactly 2 cycles per
// hop at the paper's 2 words/slot.

#include <cstdint>
#include <string>
#include <vector>

#include "daelite/config.hpp"
#include "daelite/flit.hpp"
#include "sim/component.hpp"
#include "tdm/params.hpp"
#include "tdm/slot_table.hpp"

namespace daelite::hw {

class Router : public sim::Component, public ConfigTarget {
 public:
  struct Stats {
    std::uint64_t flits_in = 0;        ///< valid flits observed at inputs
    std::uint64_t flits_forwarded = 0; ///< output-slot copies made (multicast counts per copy)
    std::uint64_t flits_dropped = 0;   ///< valid input flit no output consumed (misconfiguration)
    std::uint64_t table_writes = 0;    ///< slot-table entries written via config
    std::uint64_t cfg_errors = 0;      ///< NI-only config ops addressed to this router
  };

  Router(sim::Kernel& k, std::string name, std::uint16_t cfg_id, std::size_t num_inputs,
         std::size_t num_outputs, tdm::TdmParams params);

  /// Wire input port `in_port` to the output register of the upstream
  /// element (router output or NI output).
  void connect_input(std::size_t in_port, const sim::Reg<Flit>* src) { inputs_[in_port] = src; }

  const sim::Reg<Flit>& output_reg(std::size_t out_port) const { return outputs_[out_port]; }
  sim::Reg<Flit>& output_reg(std::size_t out_port) { return outputs_[out_port]; }

  ConfigAgent& config_agent() { return cfg_agent_; }

  /// Direct slot-table access — used by tests and by the "direct
  /// programming" path that bypasses the configuration network.
  tdm::RouterSlotTable& table() { return table_; }
  const tdm::RouterSlotTable& table() const { return table_; }

  const Stats& stats() const { return stats_; }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }

  /// Flits forwarded onto one output port's link — the per-link TDM
  /// occupancy counter (stats().flits_forwarded aggregates all outputs).
  /// Returned by reference: the health monitor keeps a pointer and reads
  /// epoch deltas from it.
  const std::uint64_t& forwarded_on(std::size_t out_port) const {
    return forwarded_per_out_[out_port];
  }

  void tick() override;
  /// Latches only the outputs the last forward() wrote (dirty_); an
  /// output it left alone already holds its next value. The router
  /// own()s no register.
  void commit() override;
  /// No flit on any wired input or output register: forwarding would only
  /// rewrite invalid flits, touching no counter and recording no trace.
  bool quiescent() const override;

  /// True when every output's next value equals its committed value, i.e.
  /// no forward() write awaits the next commit().
  bool outputs_latched() const;

  // ConfigTarget
  std::uint16_t cfg_id() const override { return cfg_id_; }
  bool cfg_is_ni() const override { return false; }
  void cfg_apply_path(std::uint64_t slot_mask, std::uint8_t port_word, bool setup) override;
  void cfg_write_credit(std::uint8_t, std::uint8_t) override { ++stats_.cfg_errors; }
  std::uint8_t cfg_read_credit(std::uint8_t) override {
    ++stats_.cfg_errors;
    return 0;
  }
  std::uint8_t cfg_read_flags(std::uint8_t) override {
    ++stats_.cfg_errors;
    return 0;
  }
  void cfg_set_pair(std::uint8_t, std::uint8_t) override { ++stats_.cfg_errors; }
  void cfg_set_flags(std::uint8_t, std::uint8_t) override { ++stats_.cfg_errors; }
  void cfg_bus_write(std::uint8_t, std::uint16_t) override { ++stats_.cfg_errors; }

 private:
  /// The slot engine dispatches forward() itself and skips a router whose
  /// inputs carry nothing and whose latched_ is empty (see
  /// daelite/slot_engine.hpp); it reads inputs_ and latched_ to decide.
  friend class SlotEngine;

  /// One slot of the crossbar — the forwarding rule every dispatcher runs
  /// (tick() on slot starts, hw::SlotEngine for the routers it drives).
  /// A scheduled output whose input carries a valid flit gets a copy of
  /// it; an output latched_ valid that gets none has only its next valid
  /// bit cleared (its stale payload stays); every other output is left
  /// alone. A valid input no output took is a drop. Marks the written
  /// outputs in dirty_ and the valid ones in latched_.
  void forward(tdm::Slot slot);

  std::uint16_t cfg_id_;
  tdm::TdmParams params_;
  tdm::RouterSlotTable table_;
  std::vector<const sim::Reg<Flit>*> inputs_;
  std::vector<sim::Reg<Flit>> outputs_;
  ConfigAgent cfg_agent_;
  Stats stats_;
  std::vector<std::uint64_t> forwarded_per_out_; ///< per-output-link forwarded flits
  std::uint8_t latched_ = 0; ///< outputs the last forward() latched valid
  std::uint8_t dirty_ = 0;   ///< outputs written since the last commit()
};

} // namespace daelite::hw
