#include "tdm/slot_table.hpp"

#include <algorithm>

namespace daelite::tdm {

std::size_t RouterSlotTable::scan_used_entries() const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(), [](PortIndex p) { return p != kUnusedPort; }));
}

void NiSlotTable::clear_channel(ChannelId ch) {
  std::replace(tx_.begin(), tx_.end(), ch, kNoChannel);
  std::replace(rx_.begin(), rx_.end(), ch, kNoChannel);
}

std::size_t NiSlotTable::tx_slot_count(ChannelId ch) const {
  return static_cast<std::size_t>(std::count(tx_.begin(), tx_.end(), ch));
}

std::size_t NiSlotTable::rx_slot_count(ChannelId ch) const {
  return static_cast<std::size_t>(std::count(rx_.begin(), rx_.end(), ch));
}

} // namespace daelite::tdm
