#pragma once
// Slot tables — the distributed TDM schedule storage.
//
// daelite stores the schedule *inside each router* (paper Fig. 4): for
// every output port and every slot, which input port feeds it (or none).
// Two outputs may name the same input in the same slot — that is exactly
// how multicast works (paper Fig. 7). NIs hold a table governing both
// departures (which channel may inject in a slot) and arrivals (which
// channel queue an arriving flit belongs to) — paper Fig. 5.

#include <cassert>
#include <cstdint>
#include <vector>

#include "tdm/ids.hpp"
#include "tdm/params.hpp"

namespace daelite::tdm {

using PortIndex = std::uint8_t;
inline constexpr PortIndex kUnusedPort = 0xFF;

/// Per-router table: input_for(output, slot).
///
/// Alongside the entries it maintains two derived views kept exact on
/// every set()/clear():
///  - used_: the number of (output, slot) entries in use, so
///    used_entries()/empty() are O(1) instead of an O(outputs*slots)
///    scan (they sit on config-apply and recovery paths);
///  - masks_[slot]: bit o set iff entry (o, slot) is in use, letting the
///    forwarding loop skip a router's whole slot with one byte test.
class RouterSlotTable {
 public:
  RouterSlotTable() = default;
  RouterSlotTable(std::size_t num_outputs, std::uint32_t num_slots)
      : num_slots_(num_slots),
        num_outputs_(num_outputs),
        entries_(num_outputs * num_slots, kUnusedPort),
        masks_(num_slots, 0) {}

  std::uint32_t num_slots() const { return num_slots_; }
  std::size_t num_outputs() const { return num_outputs_; }

  PortIndex input_for(std::size_t output, Slot slot) const {
    return entries_[output * num_slots_ + slot];
  }

  void set(std::size_t output, Slot slot, PortIndex input) {
    PortIndex& e = entries_[output * num_slots_ + slot];
    const bool was = e != kUnusedPort;
    const bool now = input != kUnusedPort;
    if (was != now) {
      if (now)
        ++used_;
      else
        --used_;
    }
    e = input;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << output);
    if (now)
      masks_[slot] |= bit;
    else
      masks_[slot] = static_cast<std::uint8_t>(masks_[slot] & ~bit);
  }
  void clear(std::size_t output, Slot slot) { set(output, slot, kUnusedPort); }

  /// Number of (output, slot) entries currently in use. O(1); checked
  /// against a full scan in Debug builds.
  std::size_t used_entries() const {
    assert(used_ == scan_used_entries());
    return used_;
  }

  /// True if no entry is set. O(1).
  bool empty() const { return used_entries() == 0; }

  /// Bit o set iff output o forwards in `slot`. 0 == nothing scheduled.
  std::uint8_t out_mask(Slot slot) const { return masks_[slot]; }

 private:
  std::size_t scan_used_entries() const;

  std::uint32_t num_slots_ = 0;
  std::size_t num_outputs_ = 0;
  std::size_t used_ = 0;
  std::vector<PortIndex> entries_;    ///< [output * num_slots + slot]
  std::vector<std::uint8_t> masks_;   ///< [slot]
};

/// Per-NI table: which channel may inject in each slot (tx) and which
/// channel an arrival in each slot belongs to (rx).
class NiSlotTable {
 public:
  NiSlotTable() = default;
  explicit NiSlotTable(std::uint32_t num_slots)
      : tx_(num_slots, kNoChannel), rx_(num_slots, kNoChannel) {}

  std::uint32_t num_slots() const { return static_cast<std::uint32_t>(tx_.size()); }

  ChannelId tx_channel(Slot slot) const { return tx_[slot]; }
  ChannelId rx_channel(Slot slot) const { return rx_[slot]; }
  void set_tx(Slot slot, ChannelId ch) { tx_[slot] = ch; }
  void set_rx(Slot slot, ChannelId ch) { rx_[slot] = ch; }
  void clear_tx(Slot slot) { tx_[slot] = kNoChannel; }
  void clear_rx(Slot slot) { rx_[slot] = kNoChannel; }

  /// Remove every tx/rx entry that names `ch` (tear-down helper).
  void clear_channel(ChannelId ch);

  std::size_t tx_slot_count(ChannelId ch) const;
  std::size_t rx_slot_count(ChannelId ch) const;

 private:
  std::vector<ChannelId> tx_;
  std::vector<ChannelId> rx_;
};

} // namespace daelite::tdm
