// Search for *completing operations* (Sections 1, 3 and 4 of the paper):
// given a partial fault primitive, find a prefix of operations — writes to
// the victim or to another cell on the victim's bit line — that makes the
// fault sensitized for EVERY floating initial voltage.
//
// There is no closed-form rule for completing operations (the paper states
// this explicitly), so the search enumerates candidate prefixes in order of
// increasing #O and evaluates each candidate electrically on probe rows
// where the base fault was only partially observed. A candidate is accepted
// when it reproduces the base fault's exact <F, R> behaviour at every probe
// voltage on every probe row. When the enumeration is exhausted the fault is
// reported as not completable ("Not possible" in Table 1) — e.g. faults
// guarded by a floating word line, which memory operations cannot touch.
#pragma once

#include "pf/analysis/region.hpp"

namespace pf::analysis {

struct CompletionSpec {
  dram::DramParams params;
  dram::Defect defect;               ///< resistance ignored (probe rows used)
  size_t floating_line_index = 0;
  faults::FaultPrimitive base;       ///< the partial FP to complete
  std::vector<double> probe_r;       ///< R_def rows the candidate must cover
  std::vector<double> probe_u;       ///< floating voltages it must cover
  int max_prefix_ops = 3;
  /// Execution of the probe experiments: exec.retry is the per-probe solver
  /// retry/backoff; exec.threads > 1 evaluates the candidates of one prefix
  /// length in parallel, each worker running its candidate's probes in
  /// order, and commits the lowest-index accepted candidate (the verdict —
  /// accepted, rejected, completed FP, candidates_evaluated — is
  /// thread-count independent; journal/record_failures are ignored here).
  /// `exec.cancel` aborts the search with pf::CancelledError.
  ExecutionPolicy exec;
};

struct CompletionResult {
  bool possible = false;
  faults::FaultPrimitive completed;  ///< base with the completing bracket
  int candidates_evaluated = 0;
  /// Electrical experiments performed. Exact and thread-count independent
  /// for serial runs; with exec.threads > 1 it also counts the speculative
  /// probes of candidates above the committed one that were in flight when
  /// it was accepted.
  uint64_t sos_runs = 0;
  /// Probe experiments unsolved after retries. The search degrades
  /// gracefully: an unsolvable probe rejects the candidate (a completion
  /// must be *demonstrated*, never assumed), so a nonzero count means
  /// "Not possible" verdicts may be pessimistic.
  uint64_t solver_failures = 0;
  /// Engine steps the probe sessions actually solved; the trajectory they
  /// restored from snapshots (power-up, initializing writes, shared
  /// completing prefixes) is excluded. CircuitMode::kRebuild probes are
  /// not counted. Like sos_runs, exact only for serial runs.
  uint64_t steps_solved = 0;
  /// Probes that resumed from a completing-write prefix an earlier
  /// candidate had solved at the same probe point (prefix length >= 2).
  uint64_t prefix_restores = 0;
};

/// Probe rows for a completion search: up to `max_rows` R_def values where
/// the base fault was observed in a proper sub-band of the U domain.
std::vector<double> choose_probe_rows(const RegionMap& base_map,
                                      faults::Ffm ffm, size_t max_rows = 3);

/// All R_def rows where `ffm` is observed in a proper sub-band, ascending.
std::vector<double> partial_rows(const RegionMap& base_map, faults::Ffm ffm);

CompletionResult search_completing_ops(const CompletionSpec& spec);

/// Completion with row-window fallback: try to complete on the topmost
/// partial rows; when no candidate covers them (e.g. at R_def so large the
/// cell is unreachable and no operation can establish the faulty state),
/// retry on lower windows — but never more than `max_ratio_below_top` below
/// the topmost partial row. The restriction keeps the search inside the
/// regime where the line genuinely floats: far below it the "open" line is
/// merely slow and operations partially control it, which is outside the
/// paper's analysis (its figures cap each defect's R_def axis accordingly).
/// The base FP's <F, R> is re-observed per window at the band centre.
CompletionResult search_completing_ops_with_fallback(
    const CompletionSpec& spec_template, const RegionMap& base_map,
    faults::Ffm ffm, size_t rows_per_window = 1, size_t max_windows = 4,
    double max_ratio_below_top = 3.17);

}  // namespace pf::analysis
