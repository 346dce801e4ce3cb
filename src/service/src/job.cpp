#include "pf/service/job.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "pf/analysis/checkpoint.hpp"
#include "pf/dram/defect.hpp"
#include "pf/util/error.hpp"
#include "pf/util/fnv1a.hpp"
#include "pf/util/grid.hpp"

namespace pf::service {
namespace {

[[noreturn]] void reject(const std::string& what) {
  throw pf::ParseError("job: " + what);
}

double require_number(const Json& obj, const std::string& key, double lo,
                      double hi, double fallback) {
  const double v = obj.number_or(key, fallback);
  if (!std::isfinite(v) || v < lo || v > hi)
    reject(key + " out of range [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]");
  return v;
}

/// Integer-valued fields reject non-integral numbers: {"open_site": 2.7}
/// must not silently truncate into a job (and cache key) the client never
/// wrote.
long long require_integer(const Json& obj, const std::string& key, double lo,
                          double hi, double fallback) {
  const double v = require_number(obj, key, lo, hi, fallback);
  if (v != std::floor(v)) reject(key + " must be an integer");
  return static_cast<long long>(v);
}

}  // namespace

JobSpec JobSpec::from_json(const Json& json, const JobLimits& limits) {
  if (!json.is_object()) reject("submit payload must be a JSON object");
  JobSpec job;

  job.defect_kind = json.string_or("defect_kind", job.defect_kind);
  if (job.defect_kind != "open" && job.defect_kind != "short_gnd" &&
      job.defect_kind != "short_vdd" && job.defect_kind != "bridge" &&
      job.defect_kind != "cell_bridge" && job.defect_kind != "leaky_cell")
    reject("unknown defect_kind \"" + job.defect_kind + "\"");
  job.open_site = int(require_integer(json, "open_site", 0, 9, job.open_site));
  job.floating_line_index =
      size_t(require_integer(json, "floating_line_index", 0, 7, 0));
  job.sos_text = json.string_or("sos", job.sos_text);

  job.r_points = size_t(require_integer(json, "r_points", 2,
                                        double(limits.max_axis_points), 5));
  job.u_points = size_t(require_integer(json, "u_points", 2,
                                        double(limits.max_axis_points), 5));
  if (job.r_points * job.u_points > limits.max_grid_points)
    reject("grid " + std::to_string(job.r_points) + "x" +
           std::to_string(job.u_points) + " exceeds " +
           std::to_string(limits.max_grid_points) + " points");
  job.r_min = require_number(json, "r_min", 0.0, 1e12, 0.0);
  job.r_max = require_number(json, "r_max", 0.0, 1e12, 0.0);
  if ((job.r_min > 0.0) != (job.r_max > 0.0))
    reject("r_min and r_max must be set together (both > 0) or both omitted");
  if (job.r_min > 0.0 && job.r_min >= job.r_max)
    reject("r_min must be < r_max");
  job.temperature_c = require_number(json, "temperature_c", -55.0, 150.0, 27.0);

  job.threads =
      int(require_integer(json, "threads", 0, double(limits.max_threads), 1));
  job.deadline_seconds = require_number(json, "deadline_seconds", 0.0,
                                        limits.max_deadline_seconds, 0.0);
  job.max_attempts = int(require_integer(json, "max_attempts", 0, 10, 0));
  job.throttle_ms =
      require_number(json, "throttle_ms", 0.0, limits.max_throttle_ms, 0.0);

  // Materialization catches the cross-field inconsistencies (bad SOS
  // notation, a line index this defect does not produce) up front, at
  // admission time rather than on a worker thread.
  const analysis::SweepSpec spec = job.to_sweep_spec();
  (void)spec;
  return job;
}

Json JobSpec::to_json() const {
  JsonObject obj;
  obj["defect_kind"] = Json(defect_kind);
  obj["open_site"] = Json(open_site);
  obj["floating_line_index"] = Json(floating_line_index);
  obj["sos"] = Json(sos_text);
  obj["r_points"] = Json(r_points);
  obj["u_points"] = Json(u_points);
  obj["r_min"] = Json(r_min);
  obj["r_max"] = Json(r_max);
  obj["temperature_c"] = Json(temperature_c);
  obj["threads"] = Json(threads);
  obj["deadline_seconds"] = Json(deadline_seconds);
  obj["max_attempts"] = Json(max_attempts);
  obj["throttle_ms"] = Json(throttle_ms);
  return Json(std::move(obj));
}

analysis::SweepSpec JobSpec::to_sweep_spec() const {
  analysis::SweepSpec spec;
  // at_temperature(27) is the identity transform, but only up to floating
  // point; keep the reference temperature byte-exact.
  if (temperature_c != 27.0)
    spec.params = spec.params.at_temperature(temperature_c);

  // Sweep resistance comes from the r axis; the defect's own value is a
  // placeholder (sweep_region ignores it).
  const std::optional<dram::OpenSite> site =
      dram::open_site_for_number(open_site);
  if (defect_kind == "open" && !site)
    reject("open_site must be 0 (Open 4') or 1..9");
  if (defect_kind == "open")
    spec.defect = dram::Defect::open(*site, 1e6);
  else if (defect_kind == "short_gnd")
    spec.defect = dram::Defect::short_to_ground(1e6);
  else if (defect_kind == "short_vdd")
    spec.defect = dram::Defect::short_to_vdd(1e6);
  else if (defect_kind == "bridge")
    spec.defect = dram::Defect::bridge(1e6);
  else if (defect_kind == "cell_bridge")
    spec.defect = dram::Defect::cell_bridge(1e6);
  else
    spec.defect = dram::Defect::leaky_cell(1e6);

  const auto lines = dram::floating_lines_for(spec.defect, spec.params);
  if (lines.empty())
    reject("defect \"" + defect_kind +
           "\" floats no signal line; nothing to sweep");
  if (floating_line_index >= lines.size())
    reject("floating_line_index " + std::to_string(floating_line_index) +
           " out of range (defect has " + std::to_string(lines.size()) +
           " floating line(s))");
  spec.floating_line_index = floating_line_index;

  try {
    spec.sos = faults::Sos::parse(sos_text);
  } catch (const pf::Error& e) {
    reject("bad sos \"" + sos_text + "\": " + e.what());
  }

  spec.r_axis = r_min > 0.0 ? pf::logspace(r_min, r_max, r_points)
                            : analysis::default_r_axis(r_points);
  const dram::FloatingLine& line = lines[floating_line_index];
  spec.u_axis = pf::linspace(line.min_v, line.max_v, u_points);
  return spec;
}

analysis::ExecutionPolicy JobSpec::to_policy() const {
  analysis::ExecutionPolicy policy;
  policy.threads = threads;
  if (max_attempts > 0) policy.retry.max_attempts = max_attempts;
  policy.deadline_seconds = deadline_seconds;
  return policy;
}

uint64_t JobSpec::cache_key() const {
  const uint64_t fp = analysis::SweepJournal::fingerprint(to_sweep_spec());
  // DramParams are not part of the journal fingerprint (a journal is
  // resumable across parameter tweaks); the cache, which addresses final
  // RESULTS, must distinguish them. Fold in the one exposed knob.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "T=%.6f", temperature_c);
  return pf::fnv1a(buf, fp ^ 0x70665f63616368ULL);  // "pf_cach" salt
}

std::string JobSpec::describe() const {
  std::ostringstream os;
  os << dram::defect_name(to_sweep_spec().defect) << " line "
     << floating_line_index << " sos " << sos_text << " " << r_points << "x"
     << u_points << " @" << temperature_c << "C";
  return os.str();
}

std::string key_hex(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return std::string(buf);
}

}  // namespace pf::service
