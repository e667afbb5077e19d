#pragma once
// Deterministic fault injection for link registers.
//
// A FaultInjector is a Component that corrupts the *committed* value of
// watched link registers at the very end of the clock edge: it is
// constructed after every network element, so its commit() runs last in
// the cycle (both schedulers dispatch in registration order), after the
// producing element has committed the fresh word. Corruption uses
// Reg<T>::force(), so current and next value agree afterwards — downstream
// consumers read the corrupted word exactly once, the producer's next tick
// overwrites it, and a later re-commit of the register is a no-op. Faults
// therefore add no link latency: a run whose plan injects nothing is
// byte-identical to a run without an injector.
//
// Determinism: the injector draws from its own seeded xoshiro stream, one
// decision per *fresh word observed* (a line is only evaluated on the
// cycles its producer can commit a new word — `word_stride`), in fixed
// line-attachment order. Both kernel schedulers present the same words at
// the same cycles, and each batch job owns its injector, so fault streams
// are reproducible across schedulers and --jobs counts.
//
// Cost: the injector keeps only the lines its plan can touch (every line
// when `rate` > 0, else those a directive names by class and `@` index).
// Any other line could only bump word counters nobody reads, so a plan
// that kills one data link pays for one line, not for the whole mesh.
//
// A FaultPlan describes what to inject: a background per-word fault
// `rate`, plus targeted directives — drop / bit-flip the nth word of a
// class, stuck-at-1 a bit during a cycle window, or kill a link class
// (drop everything) during a window. Plans parse from a small line-based
// grammar (see FaultPlan::parse) so they can ride in a --fault-plan file.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/component.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace daelite::sim {

/// Which physical link population a fault targets.
enum class FaultClass : std::uint8_t {
  kData = 0,    ///< daelite data links (flits)
  kCfgFwd = 1,  ///< configuration-tree forward (broadcast) links
  kCfgResp = 2, ///< configuration-tree response (convergence) links
  kAelite = 3,  ///< aelite data links
};
inline constexpr std::size_t kFaultClassCount = 4;

std::string_view fault_class_name(FaultClass c);
bool parse_fault_class(std::string_view token, FaultClass* out);

/// One targeted fault. Drop/flip fire once, on the nth word (0-based,
/// counted per class across all of the class's lines in attachment order);
/// stuck/kill act on every word of the class inside [from, to).
///
/// A class token may carry a line suffix, `<class>@<index>`, restricting
/// the directive to one watched line (0-based within the class, in
/// attachment order — for daelite data links the index IS the topology
/// LinkId). With a line restriction, drop/flip count `nth` over that
/// line's words only. `kill data@7 1000 2000` is the single-link failure
/// the recovery subsystem routes around.
struct FaultDirective {
  enum class Kind : std::uint8_t { kDrop, kFlip, kStuck, kKill };
  Kind kind = Kind::kDrop;
  FaultClass cls = FaultClass::kData;
  std::int64_t line_index = -1; ///< -1: every line of the class
  std::uint64_t nth = 0;  ///< drop/flip: which word of the class (or line)
  std::uint32_t bit = 0;  ///< flip/stuck: bit index (reduced mod line width)
  Cycle from = 0;         ///< stuck/kill: window start (inclusive)
  Cycle to = kNoCycle;    ///< stuck/kill: window end (exclusive)
};

/// A complete, self-contained fault description (the --fault-* CLI state).
///
/// Grammar (one entry per line, '#' starts a comment):
///   seed <N>
///   rate <R>                      # per-word fault probability, [0,1]
///   drop  <class> <nth>
///   flip  <class> <nth> <bit>
///   stuck <class> <bit> [<from> <to>]
///   kill  <class> <from> <to>
/// with <class> one of: data, cfg_fwd, cfg_resp, aelite, optionally
/// suffixed `@<line>` to target a single watched line of the class.
/// Malformed input — unknown directives or classes, non-numeric or
/// negative numbers, windows with to <= from, trailing tokens — is
/// rejected with a line + token diagnostic, never silently ignored.
struct FaultPlan {
  std::uint64_t seed = 1;
  double rate = 0.0;
  std::vector<FaultDirective> directives;

  bool enabled() const { return rate > 0.0 || !directives.empty(); }

  static bool parse(std::istream& in, FaultPlan* out, std::string* error);
  static bool parse_text(const std::string& text, FaultPlan* out, std::string* error);
  static bool parse_file(const std::string& path, FaultPlan* out, std::string* error);
};

/// One watched link register, type-erased. present() inspects the
/// committed value; the mutators rewrite it in place via Reg<T>::force().
class FaultLine {
 public:
  virtual ~FaultLine() = default;
  virtual bool present() const = 0;
  virtual void drop() = 0;
  virtual void flip_bit(std::uint32_t bit) = 0;
  virtual void force_bit(std::uint32_t bit) = 0; ///< stuck-at-1
  virtual std::uint32_t bit_count() const = 0;   ///< flippable payload bits
};

/// Adapter binding a Reg<T> to a word-format Policy:
///   static bool present(const T&);
///   static void flip(T&, std::uint32_t bit);
///   static void force_one(T&, std::uint32_t bit);
///   static constexpr std::uint32_t kBits;
/// drop() rewrites the register with a default-constructed ("invalid") T.
template <typename T, typename Policy>
class RegFaultLine final : public FaultLine {
 public:
  explicit RegFaultLine(Reg<T>& reg) : reg_(&reg) {}

  bool present() const override { return Policy::present(reg_->get()); }
  void drop() override { reg_->force(T{}); }
  void flip_bit(std::uint32_t bit) override {
    T v = reg_->get();
    Policy::flip(v, bit);
    reg_->force(v);
  }
  void force_bit(std::uint32_t bit) override {
    T v = reg_->get();
    Policy::force_one(v, bit);
    reg_->force(v);
  }
  std::uint32_t bit_count() const override { return Policy::kBits; }

 private:
  Reg<T>* reg_;
};

/// Everything the injector did, for the report `health` section.
struct FaultCounters {
  std::uint64_t injected = 0; ///< faults applied (sum of the four below)
  std::uint64_t dropped = 0;
  std::uint64_t flipped = 0;
  std::uint64_t stuck = 0;
  std::uint64_t killed = 0;

  void add(const FaultCounters& o);
};

class FaultInjector : public Component {
 public:
  /// Construct AFTER every component whose registers will be watched —
  /// registration order is commit order, and the injector must commit last.
  FaultInjector(Kernel& k, std::string name, FaultPlan plan);

  /// Watch one line. word_stride/word_phase describe the cycles at which
  /// the producer can commit a fresh word (cycle % stride == phase):
  /// stride 1 for per-cycle configuration links, words_per_slot for
  /// slot-aligned data links. Attachment order is part of the deterministic
  /// RNG stream and of the `@` line index — keep it fixed (topology
  /// order). A line the plan cannot touch is counted and then discarded.
  void add_line(FaultClass cls, std::unique_ptr<FaultLine> line, std::uint32_t word_stride = 1,
                std::uint32_t word_phase = 0);

  template <typename Policy, typename T>
  void watch(FaultClass cls, Reg<T>& reg, std::uint32_t word_stride = 1,
             std::uint32_t word_phase = 0) {
    add_line(cls, std::make_unique<RegFaultLine<T, Policy>>(reg), word_stride, word_phase);
  }

  FaultCounters counters() const; ///< summed over every class
  const FaultCounters& counters(FaultClass c) const {
    return per_class_[static_cast<std::size_t>(c)];
  }

  /// Combinational phase: nothing to do — all injection happens after the
  /// clock edge, in commit().
  void tick() override {}

  /// Commit (no own()ed registers), then corrupt the freshly committed
  /// words per the plan.
  void commit() override;

  /// No kept line holds a word: there is nothing to corrupt and no RNG
  /// draw to make, so the kernel's fixed-point fast-forward stays exact.
  bool quiescent() const override;

 private:
  struct Line {
    std::unique_ptr<FaultLine> line;
    FaultClass cls = FaultClass::kData;
    std::uint32_t stride = 1;
    std::uint32_t phase = 0;
    std::uint64_t class_index = 0; ///< position within the class (directive `@` target)
    std::uint64_t words_seen = 0;  ///< line-local word count (nth with `@`)
  };

  void inject(Line& l);

  FaultPlan plan_;
  Xoshiro256 rng_;
  std::vector<Line> lines_; ///< the lines the plan can touch, in attachment order
  std::array<std::uint64_t, kFaultClassCount> attached_{};    ///< lines attached per class
  std::array<std::uint64_t, kFaultClassCount> class_words_{}; ///< nth without `@`
  std::vector<bool> directive_done_; ///< drop/flip directives already fired
  std::array<FaultCounters, kFaultClassCount> per_class_;
};

} // namespace daelite::sim
