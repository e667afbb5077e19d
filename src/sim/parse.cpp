#include "sim/parse.hpp"

#include <cmath>
#include <iostream>
#include <string>

#include "tdm/params.hpp"

namespace daelite::sim {

bool parse_number(std::string_view tok, double* out) {
  if (tok.empty()) return false;
  double v = 0.0;
  const char* const last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), last, v, std::chars_format::general);
  if (ec != std::errc{} || ptr != last || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_coord(std::string_view tok, std::pair<int, int>* out) {
  const auto comma = tok.find(',');
  std::pair<int, int> p;
  if (comma == std::string_view::npos || !parse_int(tok.substr(0, comma), &p.first) ||
      !parse_int(tok.substr(comma + 1), &p.second) || p.first < 0 || p.second < 0)
    return false;
  *out = p;
  return true;
}

bool parse_extent(std::string_view tok, int* w, int* h, bool* torus) {
  const bool wrap = torus != nullptr && !tok.empty() && (tok.back() == 't' || tok.back() == 'T');
  if (wrap) tok.remove_suffix(1);
  const auto x = tok.find('x');
  int pw = 0, ph = 0;
  if (x == std::string_view::npos || !parse_int(tok.substr(0, x), &pw) ||
      !parse_int(tok.substr(x + 1), &ph) || pw < 1 || ph < 1)
    return false;
  *w = pw;
  *h = ph;
  if (torus != nullptr) *torus = wrap;
  return true;
}

bool parse_slots(std::string_view tok, std::uint32_t* out) {
  std::uint32_t s = 0;
  if (!parse_int(tok, &s) || s < 1 || s > tdm::TdmParams::kMaxSlots) return false;
  *out = s;
  return true;
}

const char* Args::value() {
  if (i_ + 1 >= argc_) {
    fail(std::string(flag_) + " needs a value");
    return nullptr;
  }
  return argv_[++i_];
}

bool Args::bad(const char* what, std::string_view got) const {
  std::cerr << tool_ << ": " << flag_ << " wants " << what << ", got '" << got << "'\n";
  return false;
}

bool Args::fail(std::string_view message) const {
  std::cerr << tool_ << ": " << message << "\n";
  return false;
}

} // namespace daelite::sim
