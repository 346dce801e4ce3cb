#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using pf::service::Json;
using pf::service::JsonObject;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  JsonObject entry;
  entry["value"] = Json(value);
  entry["unit"] = Json(unit);
  metrics[name] = Json(std::move(entry));
}

void Report::fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
}

void Report::expect_equal(const std::string& what, const std::string& expected,
                          const std::string& actual) {
  if (expected != actual)
    fail(what + ": expected " + expected + ", got " + actual);
}

Json Report::to_json() const {
  JsonObject out;
  out["correct"] = Json(correct);
  out["attempted"] = Json(double(attempted));
  out["failed"] = Json(double(failed));
  out["metrics"] = Json(metrics);
  out["fixed"] = Json(fixed);
  out["seeded"] = Json(seeded);
  pf::service::JsonArray errs;
  for (const std::string& e : errors) errs.emplace_back(e);
  out["errors"] = Json(std::move(errs));
  return Json(std::move(out));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * double(values.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& name)
    : path_(parent + "/" + name) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;  // best effort: a leftover directory is not an error
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
