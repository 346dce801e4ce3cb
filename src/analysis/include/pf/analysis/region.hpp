// Fault-primitive region maps in the (R_def, U) plane — the paper's
// Figures 3 and 4. One sweep fixes a defect site, a floating line and an
// SOS; each grid point runs the SOS with R_def on the y axis and the
// floating initial voltage U on the x axis, recording the observed FFM.
#pragma once

#include <string>
#include <vector>

#include "pf/analysis/execution.hpp"
#include "pf/analysis/sos_runner.hpp"
#include "pf/util/grid.hpp"
#include "pf/util/interval.hpp"

namespace pf::analysis {

struct SweepSpec {
  dram::DramParams params;
  dram::Defect defect;                 ///< resistance ignored (axis value used)
  size_t floating_line_index = 0;      ///< which of floating_lines_for(defect)
  faults::Sos sos;
  std::vector<double> r_axis;          ///< R_def values (log-spaced, ascending)
  std::vector<double> u_axis;          ///< floating voltages
};

/// Default axes used by the figure reproductions: log R in [10k, 10M],
/// linear U in [0, vdd].
std::vector<double> default_r_axis(size_t n = 13);
std::vector<double> default_u_axis(const dram::DramParams& params,
                                   size_t n = 12);

/// Solver bookkeeping of one sweep_region call, so partial-fault
/// classification can state how much of the grid it actually observed.
struct SweepStats {
  size_t attempted = 0;  ///< points run in this call (excludes resumed)
  size_t solved = 0;     ///< points that produced an observation
  size_t failed = 0;     ///< points recorded as Ffm::kSolveFailed
  size_t retries = 0;    ///< attempts beyond the first, over all points
  size_t resumed = 0;    ///< points restored from the journal
  size_t journal_dropped = 0;  ///< corrupt journal rows dropped on resume
  size_t journal_quarantined = 0;  ///< unreadable journals moved to .corrupt[.N]
  std::vector<std::string> failure_log;  ///< context, one entry per failure
};

class RegionMap {
 public:
  RegionMap(SweepSpec spec, Grid2D<faults::Ffm> grid);
  RegionMap(SweepSpec spec, Grid2D<faults::Ffm> grid, SweepStats stats);

  const SweepSpec& spec() const { return spec_; }
  const Grid2D<faults::Ffm>& grid() const { return grid_; }

  /// Retry/failure bookkeeping of the sweep that produced this map.
  const SweepStats& solve_stats() const { return stats_; }
  /// Grid points whose experiment could not be solved (kSolveFailed cells).
  size_t failed_points() const;
  /// Fraction of grid points actually observed, in [0, 1].
  double observed_fraction() const;

  /// All FFMs observed anywhere in the map (kSolveFailed cells excluded:
  /// a solver failure is a hole in the observation, not an FFM).
  std::vector<faults::Ffm> observed_ffms() const;
  /// Grid points where `ffm` is observed.
  size_t count(faults::Ffm ffm) const;
  /// U values where `ffm` is observed at row `iy`, merged into bands
  /// (adjacent grid samples merge).
  Interval u_domain() const;
  pf::IntervalSet u_band(faults::Ffm ffm, size_t iy) const;
  /// Smallest R_def at which `ffm` is observed (NaN if never).
  double min_r(faults::Ffm ffm) const;
  /// True when some row's observation band covers the full U domain.
  bool has_fully_covered_row(faults::Ffm ffm) const;

  /// ASCII rendering in the style of the paper's figures ('.' = no fault;
  /// one glyph per FFM, 'x' = solve failed, with a legend).
  std::string render(const std::string& title) const;

  /// Machine-readable dump: one row per grid point (r_def, u, ffm); failed
  /// points dump as "FAIL".
  std::string to_csv() const;

 private:
  SweepSpec spec_;
  Grid2D<faults::Ffm> grid_;
  SweepStats stats_;
};

/// Run the sweep (|r_axis| * |u_axis| SOS experiments) under the execution
/// policy: grid points are dispatched to policy.threads workers, retried
/// under policy.retry, degraded to Ffm::kSolveFailed cells when
/// unrecoverable (unless policy.record_failures is off), journaled for
/// checkpoint/resume when policy.journal_path is set, and merged by grid
/// index. Any thread count returns a bit-identical RegionMap: same grid,
/// same SweepStats totals, same index-ordered failure_log.
///
/// Circuit lifecycle: with policy.circuit_mode == CircuitMode::kReuse
/// (default) the circuit template — netlist, node map, sparsity pattern, elimination
/// order — is compiled ONCE per sweep; each worker owns a private
/// SosSession whose column is restamped (defect resistance via ParamHandle,
/// engine options in place) and reset() per grid point. Because reset() is
/// bit-identical to a fresh construction (pf/dram/column.hpp), the map
/// equals a CircuitMode::kRebuild sweep bit for bit at any thread count;
/// only wall-clock changes.
///
/// Cancellation: when policy.cancel trips (signal handler, deadline) the
/// sweep drains in-flight points, journals them, and throws
/// pf::CancelledError — a later call with the same journal_path resumes
/// where it stopped and, because points are merged by grid index, yields a
/// map bit-identical to an uninterrupted run.
RegionMap sweep_region(const SweepSpec& spec,
                       const ExecutionPolicy& policy = {});

/// The multi-SOS form of sweep_region, and the one implementation of both:
/// one sweep per element of `soses` over grid_spec's grid (grid_spec.sos is
/// ignored; map i's spec carries soses[i]), from ONE dispatch with one
/// runner index per grid point. A worker runs a point's SOSes as one batch
/// (run_sos_robust over the SOS list: under kReuse, SosSession::run_all
/// solves the phases they share once), so the maps cost less than
/// separate sweeps while each equals its separate sweep_region map bit for
/// bit. The one-SOS sweep_region above is this call with one element.
///
/// Per-SOS semantics:
///   * journals — journal_paths is empty (no journals) or holds one path
///     per SOS (an empty entry: that SOS is not journaled), each a v2
///     journal of its own single-SOS spec; policy.journal_path must be
///     empty. A point journaled for some SOSes runs only the others;
///   * retries — attempt 1 of a point's pending SOSes is one batch under
///     one declaration of the point's injection key, and an SOS that fails
///     it retries alone (see run_sos_robust). With no fault plan armed,
///     each map's SweepStats (attempted, solved, failed, retries,
///     failure_log order) equal those of its separate sweep;
///   * failures — with policy.record_failures off, the failure with the
///     lowest (grid index, SOS index) rethrows;
///   * progress — policy.progress counts grid points, not (point, SOS)
///     pairs.
std::vector<RegionMap> sweep_region(
    const SweepSpec& grid_spec, const std::vector<faults::Sos>& soses,
    const ExecutionPolicy& policy,
    const std::vector<std::string>& journal_paths = {});

/// Inverse of RegionMap::to_csv for a KNOWN spec: parses the header plus
/// |r_axis| * |u_axis| data rows (row-major) and takes the ffm column
/// ("-" = no fault, "FAIL" = kSolveFailed). The r/u columns are redundant
/// with the spec's axes (and printed at reduced precision), so they are
/// not parsed back. Solve stats are not representable in the CSV; the
/// returned map has empty SweepStats. Throws pf::ParseError on a wrong
/// header, malformed row, unknown FFM name or row-count mismatch.
RegionMap region_map_from_csv(const SweepSpec& spec, const std::string& csv);

}  // namespace pf::analysis
