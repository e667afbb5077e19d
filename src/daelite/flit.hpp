#pragma once
// The daelite data-network transfer unit.
//
// At the wire level a daelite link carries one 32-bit word plus 3 credit
// wires per cycle; a TDM slot spans `words_per_slot` consecutive cycles.
// Because a flit (one slot's worth of words) always moves through the
// pipeline as a unit — the slot alignment guarantees it never straddles a
// crossbar boundary — the model transports whole flits, one element per
// slot, which is cycle-accurate at slot granularity (2 cycles per hop for
// the paper's 2-word slots).
//
// The debug_* / inject_cycle fields are modelling metadata (latency
// measurement, ordering checks); no hardware behaviour depends on them.

#include <array>
#include <bit>
#include <cstdint>

#include "sim/types.hpp"
#include "tdm/ids.hpp"

namespace daelite::hw {

struct Flit {
  static constexpr std::size_t kMaxWords = 4; ///< supports 1..4 words/slot

  bool valid = false;        ///< the slot is occupied (data and/or credits)
  std::uint8_t num_words = 0;
  std::array<std::uint32_t, kMaxWords> data{};
  std::array<bool, kMaxWords> data_valid{};
  std::uint32_t credit = 0;  ///< assembled value of the credit wires over the slot

  /// End-to-end integrity sideband, one byte per carried word: bit 0 is
  /// the word's even parity, bits 1..7 a rolling per-tx-channel sequence
  /// number. Models dedicated check wires alongside the 32 data wires —
  /// the fault injector corrupts payload, not the sideband, which is
  /// exactly what lets destination NIs and the link health monitor turn
  /// silent flips/drops into attributable corrupt/lost word counts.
  std::array<std::uint8_t, kMaxWords> integrity{};

  // Modelling metadata.
  tdm::ChannelId debug_channel = tdm::kNoChannel;
  std::uint64_t debug_seq = 0;
  sim::Cycle inject_cycle = sim::kNoCycle;

  bool operator==(const Flit&) const = default;

  bool any_data() const {
    for (std::size_t i = 0; i < num_words; ++i)
      if (data_valid[i]) return true;
    return false;
  }

  std::size_t data_word_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < num_words; ++i)
      if (data_valid[i]) ++n;
    return n;
  }
};

/// The integrity sideband's sequence numbers roll over modulo this (7 bits
/// of the tag byte), so a burst of up to 127 consecutive lost words is
/// counted exactly.
inline constexpr std::uint32_t kIntegritySeqPeriod = 128;

/// Sideband byte for one word: even parity in bit 0, sequence in bits 1..7.
inline std::uint8_t integrity_tag(std::uint32_t word, std::uint8_t seq) {
  return static_cast<std::uint8_t>(((seq & 0x7Fu) << 1) |
                                   (static_cast<std::uint32_t>(std::popcount(word)) & 1u));
}

inline bool integrity_parity_ok(std::uint32_t word, std::uint8_t tag) {
  return (tag & 1u) == (static_cast<std::uint32_t>(std::popcount(word)) & 1u);
}

inline std::uint8_t integrity_seq_of(std::uint8_t tag) {
  return static_cast<std::uint8_t>(tag >> 1);
}

} // namespace daelite::hw
