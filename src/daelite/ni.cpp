#include "daelite/ni.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "tdm/flit.hpp"

namespace daelite::hw {

Ni::Ni(sim::Kernel& k, std::string name, std::uint16_t cfg_id, Params params)
    // Slot-boundary cadence: the NI's tick only acts at slot starts. The
    // shell-facing tx_push/rx_pop mutate queue registers on arbitrary
    // cycles and report external_write() so those land on the same clock
    // edge as under the per-cycle reference scheduler.
    : sim::Component(k, name, sim::Cadence{params.tdm.words_per_slot, 0}),
      cfg_id_(cfg_id),
      params_(params),
      table_(params.tdm.num_slots),
      cfg_agent_(k, name + ".cfg", *this, params.tdm),
      tx_(params.num_channels),
      rx_(params.num_channels) {
  assert(params_.tdm.valid());
  assert(params_.tdm.slot_shift_per_hop() == 1 &&
         "hardware model requires hop_cycles == words_per_slot");
  assert(params_.num_channels <= 63 && "queue ids are 6 bits in config words");
  assert(params_.tdm.words_per_slot <= Flit::kMaxWords);
  own(output_); // the channel registers latch through the dirty masks
}

void Ni::commit() {
  sim::Component::commit();
  for (std::uint64_t m = tx_dirty_; m != 0; m &= m - 1) {
    TxChannel& ch = tx_[static_cast<std::size_t>(std::countr_zero(m))];
    ch.queue.commit_reg();
    ch.space.commit_reg();
  }
  for (std::uint64_t m = rx_dirty_; m != 0; m &= m - 1) {
    RxChannel& ch = rx_[static_cast<std::size_t>(std::countr_zero(m))];
    ch.queue.commit_reg();
    ch.pending.commit_reg();
  }
  tx_dirty_ = rx_dirty_ = 0;
  assert(channels_latched() && "a channel register was written without its dirty bit");
}

bool Ni::channels_latched() const {
  for (std::size_t q = 0; q < tx_.size(); ++q) {
    for (const sim::FifoReg<std::uint32_t>* f : {&tx_[q].queue, &rx_[q].queue})
      if (f->pending_pushes() != 0 || f->poppable() != f->size()) return false;
    if (tx_[q].space.pending() || rx_[q].pending.pending()) return false;
  }
  return true;
}

void Ni::set_pair_direct(std::size_t tx_q, std::size_t rx_q) {
  tx_[tx_q].paired_rx = static_cast<std::uint8_t>(rx_q);
  rx_[rx_q].paired_tx = static_cast<std::uint8_t>(tx_q);
}

bool Ni::quiescent() const {
  if (output_.get().valid) return false;
  if (input_ != nullptr && input_->get().valid) return false;
  for (const TxChannel& ch : tx_) {
    if (ch.queue.size() != 0 || ch.queue.pending_pushes() != 0) return false;
  }
  for (const RxChannel& ch : rx_) {
    if (ch.pending.get() != 0) return false;
  }
  return true;
}

void Ni::tick() {
  if (!params_.tdm.is_slot_start(now())) return;
  slot_tick(params_.tdm.slot_of_cycle(now()));
}

bool Ni::slot_quiet(tdm::Slot slot) const {
  if (output_.get().valid) return false;
  if (input_ != nullptr && input_->get().valid) return false;
  const tdm::ChannelId tx_q = table_.tx_channel(slot);
  if (tx_q == tdm::kNoChannel || tx_q >= tx_.size() || !tx_[tx_q].enabled) return true;
  const TxChannel& ch = tx_[tx_q];
  if (ch.queue.poppable() != 0) return false; // would send or count a stall
  return ch.paired_rx == kCfgNoQueue || ch.paired_rx >= rx_.size() ||
         rx_[ch.paired_rx].pending.get() == 0;
}

void Ni::slot_tick(tdm::Slot slot) {
  const std::uint32_t w = params_.tdm.words_per_slot;

  // ---- Departure side --------------------------------------------------------
  Flit out{};
  out.num_words = static_cast<std::uint8_t>(w);
  const tdm::ChannelId tx_q = table_.tx_channel(slot);
  if (tx_q != tdm::kNoChannel && tx_q < tx_.size() && tx_[tx_q].enabled) {
    auto& ch = tx_[tx_q];

    std::uint32_t can_send = std::min<std::uint32_t>(w, static_cast<std::uint32_t>(ch.queue.poppable()));
    if (ch.flow_ctrl) can_send = std::min<std::uint32_t>(can_send, static_cast<std::uint32_t>(ch.space.get()));
    if (can_send == 0 && ch.queue.poppable() > 0) ++stats_.tx_stalled_slots;

    for (std::uint32_t i = 0; i < can_send; ++i) {
      out.data[i] = ch.queue.pop();
      out.data_valid[i] = true;
      out.integrity[i] = integrity_tag(out.data[i], ch.integrity_seq);
      ch.integrity_seq = static_cast<std::uint8_t>((ch.integrity_seq + 1) % kIntegritySeqPeriod);
    }
    if (can_send > 0) {
      tx_dirty_ |= std::uint64_t{1} << tx_q; // the pops, and space.sub
      if (ch.flow_ctrl) ch.space.sub(can_send);
      ch.stats.words_sent += can_send;
      ++ch.stats.flits_sent;
      out.debug_channel = ch.debug_channel;
      out.debug_seq = ch.seq++;
      trace(sim::TraceEvent::kFlitInject, tx_q, can_send);
    }

    // Piggyback credits of the paired rx channel (3 wires * W cycles).
    if (ch.paired_rx != kCfgNoQueue && ch.paired_rx < rx_.size()) {
      auto& prx = rx_[ch.paired_rx];
      const auto c = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(prx.pending.get(), tdm::max_credit_per_slot(w)));
      if (c > 0) {
        out.credit = c;
        prx.pending.sub(c);
        rx_dirty_ |= std::uint64_t{1} << ch.paired_rx;
        ch.stats.credits_sent += c;
        trace(sim::TraceEvent::kCreditSend, tx_q, c);
      }
    }
    out.valid = can_send > 0 || out.credit > 0;
    if (out.valid) {
      out.inject_cycle = now();
      ++stats_.link_busy_slots;
    }
  }
  output_.set(out);

  // ---- Arrival side ----------------------------------------------------------
  const Flit in = (input_ != nullptr) ? input_->get() : Flit{};
  if (!in.valid) return;
  const tdm::ChannelId rx_q = table_.rx_channel(slot);
  if (rx_q == tdm::kNoChannel || rx_q >= rx_.size()) {
    ++stats_.flits_dropped;
    trace(sim::TraceEvent::kFlitDrop, slot);
    return;
  }
  auto& ch = rx_[rx_q];
  rx_dirty_ |= std::uint64_t{1} << rx_q; // the queue pushes below
  ++ch.stats.flits_received;
  for (std::uint32_t i = 0; i < in.num_words; ++i) {
    if (!in.data_valid[i]) continue;
    // End-to-end integrity: parity catches in-flight flips, sequence gaps
    // catch dropped/killed words (the gap is the exact count while a burst
    // stays under the 7-bit roll-over).
    if (!integrity_parity_ok(in.data[i], in.integrity[i])) ++ch.stats.corrupt_words;
    const std::uint8_t seq = integrity_seq_of(in.integrity[i]);
    if (ch.expected_seq >= 0 && seq != ch.expected_seq) {
      ch.stats.lost_words +=
          (seq + kIntegritySeqPeriod - static_cast<std::uint32_t>(ch.expected_seq)) %
          kIntegritySeqPeriod;
    }
    ch.expected_seq = static_cast<std::int16_t>((seq + 1) % kIntegritySeqPeriod);
    if (ch.queue.next_size() >= params_.queue_capacity) {
      ++stats_.rx_overflow;
      trace(sim::TraceEvent::kRxOverflow, rx_q);
      continue;
    }
    ch.queue.push(in.data[i]);
    ++ch.stats.words_received;
  }
  if (in.inject_cycle != sim::kNoCycle && in.any_data()) {
    const sim::Cycle lat = now() - in.inject_cycle;
    stats_.latency.add(lat);
    ch.latency.add(lat);
    trace(sim::TraceEvent::kFlitDeliver, rx_q, lat);
  }

  if (in.credit > 0) {
    if (ch.paired_tx != kCfgNoQueue && ch.paired_tx < tx_.size()) {
      tx_[ch.paired_tx].space.add(in.credit);
      tx_dirty_ |= std::uint64_t{1} << ch.paired_tx;
      ch.stats.credits_received += in.credit;
      trace(sim::TraceEvent::kCreditReceive, rx_q, in.credit);
    } else {
      ++stats_.credits_lost;
    }
  }
}

// --- ConfigTarget --------------------------------------------------------------

void Ni::cfg_apply_path(std::uint64_t slot_mask, std::uint8_t port_word, bool setup) {
  const bool is_tx = (port_word & kCfgNiTxBit) != 0;
  const std::uint8_t queue = port_word & kCfgQueueMask;
  if (queue >= params_.num_channels) {
    ++stats_.cfg_errors;
    trace(sim::TraceEvent::kCfgError, port_word);
    return;
  }
  trace(sim::TraceEvent::kTableWrite, slot_mask, port_word | (setup ? 0x100u : 0u));
  // (Re-)programming a route resynchronizes the integrity sideband: the tx
  // side restarts its rolling sequence, the rx side forgets its
  // expectation, so a recovered (or reused) queue does not report the
  // route switch itself as loss.
  if (is_tx) {
    tx_[queue].integrity_seq = 0;
  } else {
    rx_[queue].expected_seq = -1;
  }
  for (tdm::Slot s = 0; s < params_.tdm.num_slots; ++s) {
    if ((slot_mask & (1ull << s)) == 0) continue;
    if (is_tx) {
      if (setup) {
        table_.set_tx(s, queue);
      } else {
        table_.clear_tx(s);
      }
    } else {
      if (setup) {
        table_.set_rx(s, queue);
      } else {
        table_.clear_rx(s);
      }
    }
  }
}

void Ni::cfg_write_credit(std::uint8_t queue, std::uint8_t value) {
  if (queue >= params_.num_channels) {
    ++stats_.cfg_errors;
    return;
  }
  tx_[queue].space.force(value);
}

std::uint8_t Ni::cfg_read_credit(std::uint8_t queue) {
  if (queue >= params_.num_channels) {
    ++stats_.cfg_errors;
    return 0;
  }
  return static_cast<std::uint8_t>(std::min<std::uint64_t>(tx_[queue].space.get(), 0x7F));
}

std::uint8_t Ni::cfg_read_flags(std::uint8_t queue) {
  if (queue >= params_.num_channels) {
    ++stats_.cfg_errors;
    return 0;
  }
  std::uint8_t flags = 0;
  if (tx_[queue].enabled) flags |= kFlagTxEnabled;
  if (!tx_[queue].flow_ctrl) flags |= kFlagFlowCtrlOff;
  return flags;
}

void Ni::cfg_set_pair(std::uint8_t tx_queue, std::uint8_t rx_queue) {
  if (tx_queue >= params_.num_channels) {
    ++stats_.cfg_errors;
    return;
  }
  if (rx_queue == kCfgNoQueue) {
    tx_[tx_queue].paired_rx = kCfgNoQueue;
    return;
  }
  if (rx_queue >= params_.num_channels) {
    ++stats_.cfg_errors;
    return;
  }
  set_pair_direct(tx_queue, rx_queue);
}

void Ni::cfg_set_flags(std::uint8_t queue, std::uint8_t flags) {
  if (queue >= params_.num_channels) {
    ++stats_.cfg_errors;
    return;
  }
  tx_[queue].enabled = (flags & kFlagTxEnabled) != 0;
  tx_[queue].flow_ctrl = (flags & kFlagFlowCtrlOff) == 0;
}

void Ni::cfg_bus_write(std::uint8_t addr, std::uint16_t value) {
  bus_regs_[addr & 0x7F] = value;
}

} // namespace daelite::hw
