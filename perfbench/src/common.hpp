// Shared plumbing of pf_perfbench: command-line arguments, the
// run report every workload fills in, timing and statistics helpers, and
// the seeded generator all workload inputs are drawn from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pf/service/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The benchmark's default seed: the one the reference digests in
/// references.json were recorded at.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores, journals and the server socket; created
  /// by the caller, relative to the working directory (AF_UNIX paths are
  /// capped at 108 bytes, so the socket path must stay short).
  std::string work_dir = ".";
};

/// What one run reports. `fixed` holds digests and exact counts that do not
/// depend on the seed; `seeded` those that do (compared against references
/// only at the default seed, and against earlier runs of the same seed).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  pf::service::JsonObject metrics;
  pf::service::JsonObject fixed;
  pf::service::JsonObject seeded;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed output check: the run is reported incorrect.
  void fail(const std::string& message);
  /// `expected == actual` or fail with `what`.
  void expect_equal(const std::string& what, const std::string& expected,
                    const std::string& actual);
  pf::service::Json to_json() const;
};

double seconds_since(Clock::time_point t0);
double ms_since(Clock::time_point t0);

double median(std::vector<double> values);
/// The smallest value (0 for none).
double fastest(const std::vector<double>& values);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double cpu_seconds();

/// splitmix64: the one generator every seeded input is drawn from.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return std::size_t(next() % n); }
  template <class T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i)
      std::swap(values[i - 1], values[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// A fresh, empty directory `parent/name`, removed again on destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Call `body(i)` for i = 0, 1, ... until `seconds` have elapsed and it has
/// run at least `min_runs` times; returns the number of calls. The body
/// times what it measures itself.
template <class Body>
int loop_for(double seconds, int min_runs, Body&& body) {
  const auto start = Clock::now();
  int runs = 0;
  while (runs < min_runs || seconds_since(start) < seconds) body(runs++);
  return runs;
}

}  // namespace perfbench
