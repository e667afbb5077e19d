#pragma once
// Output checks, recorded digests, host fingerprint and small statistics
// helpers of the benchmark driver.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// FNV-1a over the bytes of a report document.
std::uint64_t fnv1a(std::string_view bytes);
std::string hex_digest(std::uint64_t d);

/// Digests recorded per (workload, seed): one `workload seed 0xdigest` line
/// each, `#` comments. A sim digest is fnv1a over the report JSON of one
/// full run_scenario call; a churn digest is run_churn's decision digest.
class DigestTable {
 public:
  /// Returns false (and the reason) on an unreadable or malformed file.
  bool load(const std::string& path, std::string* error);
  bool parse(std::string_view text, std::string* error);
  std::optional<std::uint64_t> find(std::string_view workload, std::uint64_t seed) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> digests_;
};

/// Counts checked outputs against the number attempted. Every output the
/// benchmark times is one attempt; a failed check makes it a failure and
/// names why on stderr.
class Tally {
 public:
  /// Record one attempt whose checks are `ok`; `what` names a failure.
  bool check(bool ok, std::string_view what);
  /// Whether `digest` matches the digest of the first output with the same
  /// `key`, and the recorded digest when there is one; else the reason.
  bool digest_matches(const std::string& key, std::uint64_t digest,
                      std::optional<std::uint64_t> recorded, std::string* why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> first_;
};

struct Fingerprint {
  unsigned hardware_threads = 0;
  std::string compiler;
  std::string build_type;
  bool optimized = false; ///< compiled with optimization (refused otherwise)
};
Fingerprint host_fingerprint();

/// Peak resident set of this process, in MB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0,1].
double quantile(std::vector<double> v, double q);

/// One named metric as the driver prints it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Tally& t, const std::vector<Metric>& metrics);

} // namespace perfbench
