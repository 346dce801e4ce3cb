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
// voltage on every probe row. Each prefix length runs its probes fail-first:
// the probes that rejected the most candidates of the previous length go
// first, so a rejected candidate usually costs one run. When the
// enumeration is exhausted the fault is reported as not completable ("Not
// possible" in Table 1) — e.g. faults guarded by a floating word line,
// which memory operations cannot touch.
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
  /// length in parallel, each worker running its candidate's probes in the
  /// level's fail-first order, and commits the lowest-index accepted
  /// candidate (the verdict — accepted, rejected, completed FP,
  /// candidates_evaluated — is thread-count independent;
  /// journal/record_failures are ignored here).
  /// `exec.cancel` aborts the search with pf::CancelledError.
  ExecutionPolicy exec;
};

struct CompletionResult {
  bool possible = false;
  faults::FaultPrimitive completed;  ///< base with the completing bracket
  int candidates_evaluated = 0;
  /// Electrical experiments performed. Exact and thread-count independent
  /// for a "Not possible" verdict, where every candidate runs until a probe
  /// rejects it, and for serial runs; a completion found with
  /// exec.threads > 1 also counts the speculative probes of candidates
  /// above the committed one that were in flight when it was accepted.
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

/// All R_def rows where `ffm` is observed in a proper sub-band, ascending.
std::vector<double> partial_rows(const RegionMap& base_map, faults::Ffm ffm);

CompletionResult search_completing_ops(const CompletionSpec& spec);

/// Complete `ffm`, a partial fault of `base_map`, the way Table 1 does: the
/// search probes only the topmost partial row. A completed fault guarantees
/// sensitization above a threshold R_def, and at the top of the partial
/// region the defect dominates and the line genuinely floats; lower rows
/// are marginal (the paper's own completed faults only hold above a
/// threshold R_def, Figure 4(b)). The base FP's <F, R> is re-observed there
/// once, at the centre of the observation band; when that run is unsolved
/// or no longer shows `ffm`, the verdict is "Not possible" with no search.
/// `spec_template.probe_r` is ignored.
CompletionResult complete_partial_fault(const CompletionSpec& spec_template,
                                        const RegionMap& base_map,
                                        faults::Ffm ffm);

}  // namespace pf::analysis
