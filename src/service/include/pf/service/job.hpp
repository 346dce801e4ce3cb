// A sweep job as submitted over the wire: defect + floating line + SOS +
// grid shape + execution knobs, serializable to/from the JSON wire format
// and convertible to the analysis SweepSpec the workers actually run.
//
// Validation is admission control's first line: from_json REJECTS (throws
// pf::ParseError) anything outside the service's published bounds — grid
// sizes, thread counts, deadlines, throttles — so a malformed or abusive
// request never reaches a worker. The cache key is derived from
// SweepJournal::fingerprint of the materialized SweepSpec (defect, line,
// SOS, both axes) plus the exposed DramParams knob (temperature), and
// deliberately EXCLUDES execution knobs: results are bit-identical at any
// thread count, so two requests differing only in `threads` share a cache
// entry.
#pragma once

#include <cstdint>
#include <string>

#include "pf/analysis/execution.hpp"
#include "pf/analysis/region.hpp"
#include "pf/service/json.hpp"

namespace pf::service {

/// Admission bounds enforced by JobSpec::from_json.
struct JobLimits {
  size_t max_axis_points = 64;     ///< per-axis cap
  size_t max_grid_points = 2048;   ///< r_points * u_points cap
  int max_threads = 16;            ///< 0 (= hardware) allowed; N capped
  double max_deadline_seconds = 3600.0;
  double max_throttle_ms = 200.0;  ///< per-point pacing cap (test hook)
};

struct JobSpec {
  // --- sweep identity (fingerprinted into the cache key) ---
  std::string defect_kind = "open";  ///< open|short_gnd|short_vdd|bridge|
                                     ///< cell_bridge|leaky_cell
  int open_site = 4;                 ///< paper's Figure 2 number, 1..9;
                                     ///< 0 = Open 4' (complement line)
  size_t floating_line_index = 0;
  std::string sos_text = "1r1";
  size_t r_points = 5;
  size_t u_points = 5;
  double r_min = 0.0;                ///< R axis range override (ohms). Both 0
  double r_max = 0.0;                ///< (default) = default_r_axis 10k..10M;
                                     ///< both set = logspace(r_min, r_max).
                                     ///< Needed by Table-1-as-campaign: the
                                     ///< catalogue sweeps per-site R ranges.
  double temperature_c = 27.0;       ///< DramParams::at_temperature knob

  // --- execution knobs (NOT fingerprinted: results are bit-identical) ---
  int threads = 1;
  double deadline_seconds = 0.0;     ///< per-job budget; 0 = unlimited
  int max_attempts = 0;              ///< 0 = RetryPolicy default
  double throttle_ms = 0.0;          ///< sleep per grid point (crash-window
                                     ///< widener for the kill -9 tests)

  /// Parse + validate a submit request's "job" object. Throws
  /// pf::ParseError with a field-specific message on anything out of
  /// bounds, unknown, or inconsistent (e.g. a floating-line index the
  /// defect does not produce). Only known keys are read: a key an older
  /// client still sends (the retired "backend" and "adaptive") is ignored.
  static JobSpec from_json(const Json& json, const JobLimits& limits = {});

  /// Wire encoding; from_json(to_json()) round-trips exactly.
  Json to_json() const;

  /// Materialize the analysis sweep: defect from kind/site, axes like the
  /// defect_explorer example (log R via default_r_axis, linear U across
  /// the floating line's voltage range). Throws pf::ParseError when the
  /// spec does not materialize (bad SOS, no floating line).
  analysis::SweepSpec to_sweep_spec() const;

  /// Execution policy for a worker: threads/retry/deadline from the job;
  /// journal path and cancellation are wired in by the server.
  analysis::ExecutionPolicy to_policy() const;

  /// Content-address of the result this job computes: the sweep-journal
  /// fingerprint (defect, line, SOS, axes) folded with temperature.
  uint64_t cache_key() const;

  /// Human-readable one-liner for logs ("Open 4 line 0 sos 1r1 5x5 @27C").
  std::string describe() const;
};

/// 16-hex-digit encoding of a cache key (directory names, wire echoes).
std::string key_hex(uint64_t key);

}  // namespace pf::service
