// Generator for the paper's Table 1: "Partial faults observed in DRAM
// simulation" — one row per (FFM, open defect, floating line) whose fault
// analysis found a partial fault, with the completed FP (or "Not possible")
// and the complementary FFM the complementary defect would produce.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/partial.hpp"

namespace pf::analysis {

struct Table1Row {
  faults::Ffm sim_ffm = faults::Ffm::kUnknown;  ///< simulated partial FFM
  faults::Ffm com_ffm = faults::Ffm::kUnknown;  ///< complementary-defect FFM
  dram::OpenSite site = dram::OpenSite::kNone;
  std::string initialized_voltage;  ///< the floating line's label
  bool completable = false;
  faults::FaultPrimitive completed; ///< valid when completable
  double min_r_def = 0.0;
  double band_coverage = 0.0;       ///< widest partial band / domain
};

struct Table1Options {
  /// Opens to analyze (the paper's simulated subset by default; Open 2 was
  /// not simulated there and Open 6 produced no Table 1 rows).
  std::vector<dram::OpenSite> sites = {
      dram::OpenSite::kCell,         dram::OpenSite::kPrecharge,
      dram::OpenSite::kBitLineOuter, dram::OpenSite::kBitLineMid,
      dram::OpenSite::kSenseAmp,     dram::OpenSite::kIoPath,
      dram::OpenSite::kWordLine};
  size_t r_points = 9;
  size_t u_points = 9;
  int max_prefix_ops = 3;
  size_t probe_u_points = 5;

  /// Analyzed R_def ranges, mirroring the paper's per-defect figure axes
  /// and the capacitance each open isolates: cell-internal opens are
  /// analyzed up to 1 MOhm (paper Figure 4, 30 fF storage node);
  /// array/periphery opens up to 10 MOhm (90 fF bit line); the word-line
  /// open up to 1 GOhm — its gate node is a few fF, so the genuinely
  /// floating regime (no DC re-drive within a test) only starts near a
  /// gigaohm, matching the paper's "cannot be manipulated by operations".
  double r_min = 10e3;
  double r_max_cell = 1e6;
  double r_max_default = 10e6;
  double r_min_wordline = 100e3;
  double r_max_wordline = 1e9;

  /// Execution of the underlying sweeps and completion probes: exec.threads
  /// workers per sweep/probe grid (Table 1 rows are thread-count
  /// independent), exec.retry for every experiment, failed grid points
  /// degrading to Ffm::kSolveFailed cells (never classified as FFMs), and
  /// unsolvable completion probes rejecting candidates instead of aborting
  /// the catalogue. The sweeps run as one multi-SOS sweep per (site,
  /// floating line), all eight base SOSes of a grid point together.
  /// `exec.journal_path` is used as a path *prefix* here — one journal per
  /// (site, line, SOS), named `<prefix>-open<N>-line<L>-sos<S>.csv`, which
  /// that multi-SOS sweep appends and resumes SOS by SOS.
  /// `exec.progress` reports each multi-SOS sweep's grid points (all of a
  /// point's SOSes count as one). `exec.cancel` / `exec.deadline_seconds`
  /// bound the whole catalogue: the deadline is armed once on the token's
  /// shared state, so every sweep and completion probe shares one budget.
  ExecutionPolicy exec;
};

/// The eight base sensitizing operation sequences of the #O <= 1 FP space.
std::vector<faults::Sos> base_soses();

/// The R_def range Table 1 analyzes `site` over (see Table1Options).
pf::Interval site_r_range(dram::OpenSite site, const Table1Options& options);

/// The region map of one of a site's sweeps, by floating-line index (into
/// floating_lines_for) and SOS index (into base_soses()).
using SiteMapSource = std::function<RegionMap(size_t line, size_t sos)>;

/// One site's slice of Table 1. Walks the site's (floating line, base SOS)
/// maps in that order, identifies their partial faults, keeps the first
/// row per (FFM, line label) and runs the completion search for it under
/// options.exec. Rows come back in discovery order, unsorted.
/// generate_table1 and the Table 1 campaign's per-site analysis jobs both
/// build their rows through this one function.
std::vector<Table1Row> analyze_table1_site(const dram::DramParams& params,
                                           dram::OpenSite site,
                                           const Table1Options& options,
                                           const SiteMapSource& map_for);

/// Run the full analysis and return the table rows (ordered by FFM, then
/// open number).
std::vector<Table1Row> generate_table1(const dram::DramParams& params,
                                       const Table1Options& options);

/// Render in the paper's layout.
std::string format_table1(const std::vector<Table1Row>& rows);

}  // namespace pf::analysis
