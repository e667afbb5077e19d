#include "checks.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

std::string hex_digest(std::uint64_t d) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(d));
  return buf;
}

bool DigestTable::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read digest table " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), error);
}

bool DigestTable::parse(std::string_view text, std::string* error) {
  std::istringstream in{std::string(text)};
  std::string line;
  for (int n = 1; std::getline(in, line); ++n) {
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string workload, seed, digest, extra;
    if (!(fields >> workload)) continue;
    std::uint64_t s = 0, d = 0;
    const bool ok = (fields >> seed >> digest) && !(fields >> extra) && digest.size() > 2 &&
                    digest.compare(0, 2, "0x") == 0 &&
                    std::from_chars(seed.data(), seed.data() + seed.size(), s).ec == std::errc{} &&
                    std::from_chars(digest.data() + 2, digest.data() + digest.size(), d, 16).ec ==
                        std::errc{};
    if (!ok) {
      *error = "digest table line " + std::to_string(n) + ": want `workload seed 0xdigest`";
      return false;
    }
    digests_[{workload, s}] = d;
  }
  return true;
}

std::optional<std::uint64_t> DigestTable::find(std::string_view workload,
                                               std::uint64_t seed) const {
  const auto it = digests_.find({std::string(workload), seed});
  if (it == digests_.end()) return std::nullopt;
  return it->second;
}

bool Tally::check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

bool Tally::digest_matches(const std::string& key, std::uint64_t digest,
                           std::optional<std::uint64_t> recorded, std::string* why) {
  const auto [it, first] = first_.try_emplace(key, digest);
  if (!first && it->second != digest) {
    *why = "digest " + hex_digest(digest) + " differs from the first run's " +
           hex_digest(it->second);
    return false;
  }
  if (recorded && *recorded != digest) {
    *why = "digest " + hex_digest(digest) + " differs from the recorded " + hex_digest(*recorded);
    return false;
  }
  return true;
}

Fingerprint host_fingerprint() {
  Fingerprint f;
  f.hardware_threads = std::thread::hardware_concurrency();
#ifdef PERFBENCH_COMPILER
  f.compiler = PERFBENCH_COMPILER;
#endif
#ifdef PERFBENCH_BUILD_TYPE
  f.build_type = PERFBENCH_BUILD_TYPE;
#endif
#ifdef __OPTIMIZE__
  f.optimized = true;
#endif
  return f;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string result_json(const Tally& t, const std::vector<Metric>& metrics) {
  const auto number = [](double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
  };
  std::string out = "{\"correct\": ";
  out += t.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted());
  out += ", \"failed\": " + std::to_string(t.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

} // namespace perfbench
