#pragma once
// The daelite Network Interface (paper Fig. 5).
//
// The NI owns per-channel queues on both sides, a slot table "governing
// both packet departures and arrivals", and the end-to-end credit-based
// flow control: a counter at the source tracks available space in the
// destination queue, and a counter at the destination accumulates the
// number of words delivered (to the IP) until the value can be shipped
// back. Credits for one direction travel on the credit wires of the
// opposite direction's slots.
//
// The shell-facing API (tx_push / rx_pop) follows two-phase semantics:
// reads observe committed state; effects land at the clock edge.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "daelite/config.hpp"
#include "daelite/flit.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/stats.hpp"
#include "tdm/params.hpp"
#include "tdm/slot_table.hpp"

namespace daelite::hw {

class Ni : public sim::Component, public ConfigTarget {
 public:
  struct Params {
    tdm::TdmParams tdm;
    std::size_t num_channels = 8;  ///< queues per direction (<= 63)
    std::size_t queue_capacity = 32; ///< words per queue ("end-to-end buffers of up to 63 words")
  };

  struct ChannelStats {
    std::uint64_t words_sent = 0;
    std::uint64_t words_received = 0;
    std::uint64_t flits_sent = 0;
    std::uint64_t flits_received = 0;
    std::uint64_t credits_sent = 0;
    std::uint64_t credits_received = 0;
    // End-to-end integrity (rx side): checked against the per-word
    // parity/sequence sideband the source NI stamps. Counted at the wire,
    // before the overflow check, so a fault is attributable even when the
    // corrupted word also failed to queue.
    std::uint64_t corrupt_words = 0; ///< parity mismatch on an arrived word
    std::uint64_t lost_words = 0;    ///< sequence gaps (dropped/killed upstream)
  };

  struct Stats {
    std::uint64_t flits_dropped = 0;  ///< arrival in a slot with no rx mapping
    std::uint64_t rx_overflow = 0;    ///< words lost to a full rx queue (flow-control violation)
    std::uint64_t credits_lost = 0;   ///< credit arrived on an unpaired rx channel
    std::uint64_t cfg_errors = 0;
    std::uint64_t tx_stalled_slots = 0; ///< owned slot unused for lack of credits
    std::uint64_t link_busy_slots = 0;  ///< valid flits driven onto the output link
    sim::Histogram latency{4096};       ///< flit network latency, cycles
  };

  Ni(sim::Kernel& k, std::string name, std::uint16_t cfg_id, Params params);

  /// Wire the NI's network input to the router output register feeding it.
  void connect_input(const sim::Reg<Flit>* src) { input_ = src; }
  const sim::Reg<Flit>& output_reg() const { return output_; }
  sim::Reg<Flit>& output_reg() { return output_; }

  ConfigAgent& config_agent() { return cfg_agent_; }
  const Params& params() const { return params_; }

  tdm::NiSlotTable& table() { return table_; }
  const tdm::NiSlotTable& table() const { return table_; }

  // --- Shell-facing API -----------------------------------------------------

  /// Enqueue one word for transmission on channel queue q. Returns false
  /// when the queue (committed + already-pushed) is full.
  bool tx_push(std::size_t q, std::uint32_t word) {
    TxChannel& ch = tx_[q];
    if (ch.queue.next_size() >= params_.queue_capacity) return false;
    ch.queue.push(word);
    tx_dirty_ |= std::uint64_t{1} << q;
    external_write();
    return true;
  }

  /// Words of tx queue space left this cycle.
  std::size_t tx_space(std::size_t q) const {
    const std::size_t used = tx_[q].queue.next_size();
    return used >= params_.queue_capacity ? 0 : params_.queue_capacity - used;
  }
  std::size_t tx_level(std::size_t q) const { return tx_[q].queue.size(); }

  /// Dequeue one received word from rx queue q; increments the pending
  /// credit counter (the word has been "delivered").
  std::optional<std::uint32_t> rx_pop(std::size_t q) {
    RxChannel& ch = rx_[q];
    if (ch.queue.poppable() == 0) return std::nullopt;
    ch.pending.add(1); // the word is now "delivered"; credit it back
    rx_dirty_ |= std::uint64_t{1} << q;
    external_write();
    return ch.queue.pop();
  }
  std::size_t rx_level(std::size_t q) const { return rx_[q].queue.size(); }

  /// True when no channel register holds a push, pop or counter delta
  /// that the next commit() has yet to latch.
  bool channels_latched() const;

  // --- Direct (test / bypass) configuration ----------------------------------

  void set_credit_direct(std::size_t tx_q, std::uint32_t space) { tx_[tx_q].space.force(space); }
  void set_pair_direct(std::size_t tx_q, std::size_t rx_q);
  void set_flow_ctrl_direct(std::size_t tx_q, bool on) { tx_[tx_q].flow_ctrl = on; }
  void set_debug_channel(std::size_t tx_q, tdm::ChannelId ch) { tx_[tx_q].debug_channel = ch; }

  std::uint64_t credit(std::size_t tx_q) const { return tx_[tx_q].space.get(); }
  std::uint64_t pending_credits(std::size_t rx_q) const { return rx_[rx_q].pending.get(); }
  std::uint16_t bus_register(std::uint8_t addr) const { return bus_regs_[addr]; }

  const Stats& stats() const { return stats_; }
  const ChannelStats& tx_stats(std::size_t q) const { return tx_[q].stats; }
  const ChannelStats& rx_stats(std::size_t q) const { return rx_[q].stats; }
  /// End-to-end flit latency of one rx channel — the per-connection view
  /// (stats().latency aggregates every channel of the NI).
  const sim::Histogram& rx_latency(std::size_t q) const { return rx_[q].latency; }

  void tick() override;
  /// Latches the output and only the channels written this cycle (the
  /// dirty masks); latching an unwritten channel would be a no-op.
  void commit() override;
  /// Nothing queued to send, no credits owed, no flit on the input or
  /// output register: the tick would only rewrite an invalid output.
  /// (Non-empty rx queues do not block quiescence — tick never reads them;
  /// they drain through rx_pop, which reports an external write.)
  bool quiescent() const override;

  // --- Batched dispatch (hw::SlotEngine) --------------------------------------

  /// The slot-start body of tick(), callable directly by a batched engine
  /// that has already established the slot. Reads committed state only,
  /// exactly like tick().
  void slot_tick(tdm::Slot slot);

  /// True when slot_tick(slot) would change nothing observable — the
  /// committed output is already invalid, no flit is arriving, and the
  /// slot's tx channel (if any) has neither words nor credits to send —
  /// so a batched engine may skip both the tick and the commit. External
  /// queue writes are unaffected: they commit through the kernel's
  /// touched pass.
  bool slot_quiet(tdm::Slot slot) const;

  // --- ConfigTarget -----------------------------------------------------------
  std::uint16_t cfg_id() const override { return cfg_id_; }
  bool cfg_is_ni() const override { return true; }
  void cfg_apply_path(std::uint64_t slot_mask, std::uint8_t port_word, bool setup) override;
  void cfg_write_credit(std::uint8_t queue, std::uint8_t value) override;
  std::uint8_t cfg_read_credit(std::uint8_t queue) override;
  std::uint8_t cfg_read_flags(std::uint8_t queue) override;
  void cfg_set_pair(std::uint8_t tx_queue, std::uint8_t rx_queue) override;
  void cfg_set_flags(std::uint8_t queue, std::uint8_t flags) override;
  void cfg_bus_write(std::uint8_t addr, std::uint16_t value) override;

 private:
  struct TxChannel {
    sim::FifoReg<std::uint32_t> queue;
    sim::CounterReg space;                  ///< free words at the destination
    std::uint8_t paired_rx = kCfgNoQueue;   ///< rx queue whose credits ride out
    bool enabled = true;
    bool flow_ctrl = true;                  ///< false for multicast sources
    std::uint64_t seq = 0;
    std::uint8_t integrity_seq = 0;         ///< rolling 7-bit sideband sequence
    tdm::ChannelId debug_channel = tdm::kNoChannel;
    ChannelStats stats;
  };
  struct RxChannel {
    sim::FifoReg<std::uint32_t> queue;
    sim::CounterReg pending;                ///< delivered words awaiting credit return
    std::uint8_t paired_tx = kCfgNoQueue;   ///< tx queue refilled by arriving credits
    std::int16_t expected_seq = -1;         ///< next sideband sequence (-1: unsynced)
    ChannelStats stats;
    sim::Histogram latency{1024};           ///< flit network latency, cycles
  };

  std::uint16_t cfg_id_;
  Params params_;
  tdm::NiSlotTable table_;
  const sim::Reg<Flit>* input_ = nullptr;
  sim::Reg<Flit> output_;
  ConfigAgent cfg_agent_;
  std::vector<TxChannel> tx_;
  std::vector<RxChannel> rx_;
  // Bit q: a push, pop, add or sub hit channel q's registers this cycle.
  std::uint64_t tx_dirty_ = 0;
  std::uint64_t rx_dirty_ = 0;
  std::array<std::uint16_t, 128> bus_regs_{}; ///< adjacent-bus configuration space
  Stats stats_;
};

} // namespace daelite::hw
