// The differential oracle of the property-based harness (DESIGN.md §10).
//
// One trial takes a FuzzCase, runs the electrical sweep under the case's
// execution mode, and then judges the result from three independent angles:
//
//   1. point referee — every grid cell is re-solved with the stateless
//      fresh-rebuild run_sos_robust under an EMPTY injection-context key and
//      the two classifications must agree cell for cell. Because the
//      fault-injection plan only fires for non-empty declared contexts, the
//      referee run is immune to any armed plan: a planted classification
//      mutation (kCorruptVoltage on a grid-point key) corrupts the sweep but
//      not the referee, and the disagreement convicts it. The same check is
//      the kReuse-vs-kRebuild metamorphic invariant for free.
//   2. taxonomy audit — per faulty cell the observed fault primitive must
//      classify back to the cell's FFM, and partial/full status reported by
//      identify_partial_faults must match the band-coverage rule
//      re-derived from the map.
//   3. behavioral agreement — each electrical finding is mapped onto the
//      memsim layer (FFM + guard derived from the defect site and the
//      observation band) and must behave identically there: sensitized iff
//      the guard is satisfied, detected by March SS as a full fault, and —
//      for the bit-line-guarded partials the paper is about — detected by
//      March PF at every address.
//
// All checks report through TrialResult instead of throwing, so the
// shrinker can re-evaluate candidate simplifications cheaply.
#pragma once

#include <optional>
#include <string>

#include "pf/analysis/partial.hpp"
#include "pf/memsim/memory.hpp"
#include "pf/testing/generators.hpp"

namespace pf::testing {

struct OracleOptions {
  bool point_referee = true;  ///< re-solve every cell with fresh rebuilds
  bool behavioral = true;     ///< memsim guard + march agreement per finding
  /// Behavioral array: victim 0 sits on the true bit line of column 0 and
  /// address 4 (row 2, column 0) is its same-BL, same-polarity aggressor.
  memsim::Geometry geometry{4, 2};
  /// Retry policy of the referee runs (defaults match sweep_region's).
  analysis::RetryPolicy retry;
};

/// Verdict of one differential trial. `ok` is the conjunction of every
/// check; `failure` holds the first disagreement, phrased with enough
/// context (cell coordinates, FFM names, march counts) to act on.
struct TrialResult {
  bool ok = true;
  std::string failure;
  size_t cells_checked = 0;     ///< grid cells confirmed by the referee
  size_t findings_checked = 0;  ///< electrical findings mapped to memsim
  std::vector<analysis::PartialFaultFinding> findings;

  /// Record the first failure (later ones are dropped — the shrinker works
  /// on one disagreement at a time).
  void fail(const std::string& why) {
    if (ok) {
      ok = false;
      failure = why;
    }
  }
};

/// The memsim guard modelling a partial fault observed at `site` with an
/// observation band centred at `band_mid`:
///   * bit-line opens (Opens 3-7 and 4') guard on the victim's bit line
///     holding the band's level,
///   * the IO-path open (Open 8) guards on the output buffer,
///   * nullopt for sites the behavioral layer cannot model as an
///     operation-controllable guard (cell-internal opens, the word line).
/// Full (non-partial) findings map to Guard::none() for every site.
std::optional<memsim::Guard> derive_guard(dram::OpenSite site, bool partial,
                                          double band_mid, double vdd);

/// Run the full differential trial for one case.
TrialResult run_differential_trial(const FuzzCase& c,
                                   const OracleOptions& opts = {});

/// The behavioral half of check 3, exposed for direct property tests:
/// inject (ffm, guard) at victim 0 of `geometry`, execute the FFM's
/// canonical SOS with the guard state pre-set to `satisfied` or not, and
/// return "" when the memory deviates exactly when the guard is satisfied
/// (else a description of the disagreement).
std::string check_behavioral_exposure(const memsim::Geometry& geometry,
                                      faults::Ffm ffm,
                                      const memsim::Guard& guard);

}  // namespace pf::testing
