#pragma once
// Whole-token parsing for every hand-written input: scenario files
// (soc/scenario.hpp), fault plans (sim/fault.hpp) and the tools' command
// lines. One policy everywhere: the ENTIRE token must be the value, so
// trailing junk ("16x", "100MB", "4x4garbage"), a sign on an unsigned
// field, hex, and non-finite numbers ("inf", "nan") are diagnostics,
// never a silently different experiment.

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

namespace daelite::sim {

/// Base-10 integer of type T. Leaves *out untouched on any failure.
template <typename T>
bool parse_int(std::string_view tok, T* out) {
  static_assert(std::is_integral_v<T>);
  if (tok.empty()) return false;
  T v{};
  const char* const last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, v, 10);
  if (ec != std::errc{} || ptr != last) return false;
  *out = v;
  return true;
}

/// Finite decimal number, fixed ("0.5") or scientific ("1e-3").
bool parse_number(std::string_view tok, double* out);

/// parse_number for double, parse_int for every integral type.
template <typename T>
bool parse_token(std::string_view tok, T* out) {
  if constexpr (std::is_floating_point_v<T>) {
    return parse_number(tok, out);
  } else {
    return parse_int(tok, out);
  }
}

/// "x,y" grid coordinate with both components >= 0.
bool parse_coord(std::string_view tok, std::pair<int, int>* out);

/// "WxH" extent with W,H >= 1. A trailing 't' (torus) is accepted only
/// when `torus` is non-null, and reported there.
bool parse_extent(std::string_view tok, int* w, int* h, bool* torus = nullptr);

/// TDM wheel size in [1, tdm::TdmParams::kMaxSlots]: slot masks are 64-bit.
bool parse_slots(std::string_view tok, std::uint32_t* out);

/// A tool's command line, walked one argument at a time, with one
/// "<tool>: <flag> needs a value" path and one
/// "<tool>: <flag> wants <what>, got '<value>'" diagnostic (on stderr).
/// Every helper prints before it reports failure (false, or nullptr from
/// value()), so a tool only maps failure to exit status 2.
class Args {
 public:
  Args(const char* tool, int argc, char** argv) : tool_(tool), argc_(argc), argv_(argv) {}

  /// Step to the next argument; false past the end.
  bool next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    return true;
  }
  std::string_view arg() const { return flag_; }
  bool is(std::string_view flag) const { return arg() == flag; }

  /// The current flag's value (consumed), or nullptr after the "needs a
  /// value" diagnostic when argv ends.
  const char* value();

  /// The current flag's value, accepted by parse(std::string_view).
  template <typename Parse>
  bool parse_value(const char* what, Parse parse) {
    const char* v = value();
    return v != nullptr && (parse(std::string_view(v)) || bad(what, v));
  }
  /// The current flag's value parsed by parse_token and accepted by ok().
  template <typename T, typename Ok>
  bool value(T* out, const char* what, Ok ok) {
    return parse_value(what, [&](std::string_view v) {
      T parsed{};
      if (!parse_token(v, &parsed) || !ok(parsed)) return false;
      *out = parsed;
      return true;
    });
  }
  template <typename T>
  bool value(T* out, const char* what) {
    return value(out, what, [](const T&) { return true; });
  }

  /// "<tool>: <flag> wants <what>, got '<got>'".
  bool bad(const char* what, std::string_view got) const;
  /// "<tool>: <message>".
  bool fail(std::string_view message) const;

 private:
  const char* tool_;
  int argc_;
  char** argv_;
  int i_ = 0;
  const char* flag_ = "";
};

} // namespace daelite::sim
