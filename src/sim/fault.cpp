#include "sim/fault.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "sim/parse.hpp"

namespace daelite::sim {

std::string_view fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kData: return "data";
    case FaultClass::kCfgFwd: return "cfg_fwd";
    case FaultClass::kCfgResp: return "cfg_resp";
    case FaultClass::kAelite: return "aelite";
  }
  return "?";
}

bool parse_fault_class(std::string_view token, FaultClass* out) {
  for (const FaultClass c : {FaultClass::kData, FaultClass::kCfgFwd, FaultClass::kCfgResp,
                             FaultClass::kAelite}) {
    if (token == fault_class_name(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

// --- FaultPlan ---------------------------------------------------------------

namespace {

bool fail(std::string* error, std::size_t line_no, const std::string& msg) {
  if (error != nullptr) *error = "fault plan line " + std::to_string(line_no) + ": " + msg;
  return false;
}

} // namespace

bool FaultPlan::parse(std::istream& in, FaultPlan* out, std::string* error) {
  FaultPlan plan;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue; // blank / comment-only line

    const auto read_class = [&](FaultDirective* d) {
      std::string tok;
      if (!(ls >> tok))
        return fail(error, line_no, "expected a fault class (data|cfg_fwd|cfg_resp|aelite)");
      std::string_view cls_tok = tok;
      if (const auto at = cls_tok.find('@'); at != std::string_view::npos) {
        std::uint64_t idx = 0;
        if (!parse_int(cls_tok.substr(at + 1), &idx))
          return fail(error, line_no, "expected a line index after '@' in '" + tok + "'");
        d->line_index = static_cast<std::int64_t>(idx);
        cls_tok = cls_tok.substr(0, at);
      }
      if (!parse_fault_class(cls_tok, &d->cls))
        return fail(error, line_no,
                    "expected a fault class (data|cfg_fwd|cfg_resp|aelite), got '" + tok + "'");
      return true;
    };
    const auto read = [&](auto* v, const char* what) {
      std::string tok;
      if (!(ls >> tok)) return fail(error, line_no, std::string("expected ") + what);
      if (!parse_token(tok, v))
        return fail(error, line_no, std::string("expected ") + what + ", got '" + tok + "'");
      return true;
    };

    if (word == "seed") {
      if (!read(&plan.seed, "a seed value")) return false;
    } else if (word == "rate") {
      if (!read(&plan.rate, "a rate in [0,1]")) return false;
      if (plan.rate < 0.0 || plan.rate > 1.0) return fail(error, line_no, "rate outside [0,1]");
    } else if (word == "drop" || word == "flip") {
      FaultDirective d;
      d.kind = word == "drop" ? FaultDirective::Kind::kDrop : FaultDirective::Kind::kFlip;
      if (!read_class(&d)) return false;
      if (!read(&d.nth, "a word index")) return false;
      if (d.kind == FaultDirective::Kind::kFlip && !read(&d.bit, "a bit index")) return false;
      plan.directives.push_back(d);
    } else if (word == "stuck") {
      FaultDirective d;
      d.kind = FaultDirective::Kind::kStuck;
      if (!read_class(&d)) return false;
      if (!read(&d.bit, "a bit index")) return false;
      std::string tok;
      if (ls >> tok) { // optional window
        if (!parse_int(tok, &d.from))
          return fail(error, line_no, "expected a window start, got '" + tok + "'");
        if (!read(&d.to, "a window end")) return false;
        if (d.to <= d.from)
          return fail(error, line_no, "empty window: end " + std::to_string(d.to) +
                                          " must exceed start " + std::to_string(d.from));
      }
      plan.directives.push_back(d);
    } else if (word == "kill") {
      FaultDirective d;
      d.kind = FaultDirective::Kind::kKill;
      if (!read_class(&d)) return false;
      if (!read(&d.from, "a window start")) return false;
      if (!read(&d.to, "a window end")) return false;
      if (d.to <= d.from)
        return fail(error, line_no, "empty window: end " + std::to_string(d.to) +
                                        " must exceed start " + std::to_string(d.from));
      plan.directives.push_back(d);
    } else {
      return fail(error, line_no, "unknown directive '" + word + "'");
    }
    std::string extra;
    if (ls >> extra) return fail(error, line_no, "trailing token '" + extra + "'");
  }
  *out = plan;
  return true;
}

bool FaultPlan::parse_text(const std::string& text, FaultPlan* out, std::string* error) {
  std::istringstream ss(text);
  return parse(ss, out, error);
}

bool FaultPlan::parse_file(const std::string& path, FaultPlan* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open fault plan '" + path + "'";
    return false;
  }
  return parse(in, out, error);
}

// --- FaultCounters -----------------------------------------------------------

void FaultCounters::add(const FaultCounters& o) {
  injected += o.injected;
  dropped += o.dropped;
  flipped += o.flipped;
  stuck += o.stuck;
  killed += o.killed;
}

// --- FaultInjector -----------------------------------------------------------

FaultInjector::FaultInjector(Kernel& k, std::string name, FaultPlan plan)
    : Component(k, std::move(name)), plan_(std::move(plan)), rng_(plan_.seed) {
  directive_done_.assign(plan_.directives.size(), false);
}

void FaultInjector::add_line(FaultClass cls, std::unique_ptr<FaultLine> line,
                             std::uint32_t word_stride, std::uint32_t word_phase) {
  const std::uint64_t class_index = attached_[static_cast<std::size_t>(cls)]++;
  // Keep only lines the plan can touch: rate > 0 keeps all (same RNG stream),
  // a directive keeps its class, or its `@` line (exact nth counts).
  const auto targets = [&](const FaultDirective& d) {
    return d.cls == cls &&
           (d.line_index < 0 || static_cast<std::uint64_t>(d.line_index) == class_index);
  };
  if (plan_.rate <= 0.0 && std::none_of(plan_.directives.begin(), plan_.directives.end(), targets))
    return;
  Line l;
  l.line = std::move(line);
  l.cls = cls;
  l.stride = word_stride == 0 ? 1 : word_stride;
  l.phase = word_phase % l.stride;
  l.class_index = class_index;
  lines_.push_back(std::move(l));
}

FaultCounters FaultInjector::counters() const {
  FaultCounters total;
  for (const FaultCounters& c : per_class_) total.add(c);
  return total;
}

bool FaultInjector::quiescent() const {
  for (const Line& l : lines_)
    if (l.line->present()) return false;
  return true;
}

void FaultInjector::inject(Line& l) {
  FaultLine& line = *l.line;
  FaultCounters& cc = per_class_[static_cast<std::size_t>(l.cls)];
  const std::uint64_t word = class_words_[static_cast<std::size_t>(l.cls)]++;
  const std::uint64_t line_word = l.words_seen++;

  const auto apply = [&](FaultDirective::Kind kind, std::uint32_t bit) {
    switch (kind) {
      case FaultDirective::Kind::kDrop:
        line.drop();
        ++cc.dropped;
        break;
      case FaultDirective::Kind::kFlip:
        line.flip_bit(bit % line.bit_count());
        ++cc.flipped;
        break;
      case FaultDirective::Kind::kStuck:
        line.force_bit(bit % line.bit_count());
        ++cc.stuck;
        break;
      case FaultDirective::Kind::kKill:
        line.drop();
        ++cc.killed;
        break;
    }
    ++cc.injected;
    trace(TraceEvent::kFaultInject, static_cast<std::uint64_t>(l.cls),
          static_cast<std::uint64_t>(kind));
  };

  // Targeted directives first (kill wins over flip: once dropped, later
  // mutations of the invalid word are pointless but harmless — skip them).
  for (std::size_t i = 0; i < plan_.directives.size(); ++i) {
    const FaultDirective& d = plan_.directives[i];
    if (d.cls != l.cls) continue;
    if (d.line_index >= 0 && static_cast<std::uint64_t>(d.line_index) != l.class_index) continue;
    // With an `@` line restriction, nth counts that line's words only.
    const std::uint64_t nth_word = d.line_index >= 0 ? line_word : word;
    switch (d.kind) {
      case FaultDirective::Kind::kDrop:
      case FaultDirective::Kind::kFlip:
        if (!directive_done_[i] && d.nth == nth_word) {
          directive_done_[i] = true;
          apply(d.kind, d.bit);
        }
        break;
      case FaultDirective::Kind::kStuck:
      case FaultDirective::Kind::kKill:
        if (now() >= d.from && now() < d.to) apply(d.kind, d.bit);
        break;
    }
    if (!line.present()) return; // dropped — nothing left to corrupt
  }

  // Background rate: one Bernoulli draw per surviving word; on a hit, a
  // second draw picks drop vs flip and the flipped bit. (Words a directive
  // dropped returned above and are not drawn for — the stream stays
  // deterministic either way.)
  if (plan_.rate > 0.0 && rng_.chance(plan_.rate)) {
    const std::uint64_t u = rng_.next();
    if ((u & 1) != 0) {
      apply(FaultDirective::Kind::kDrop, 0);
    } else {
      apply(FaultDirective::Kind::kFlip, static_cast<std::uint32_t>(u >> 1));
    }
  }
}

void FaultInjector::commit() {
  Component::commit();
  const Cycle c = now();
  for (Line& l : lines_) {
    if (c % l.stride != l.phase) continue; // no fresh word can have landed
    if (!l.line->present()) continue;
    inject(l);
  }
}

} // namespace daelite::sim
