#include "pf/testing/shrink.hpp"

#include <sstream>

namespace pf::testing {

namespace {

/// Try one candidate: accept it into `current` when it still fails.
bool try_candidate(FuzzCase& current, const FuzzCase& candidate,
                   const FailPredicate& still_fails, ShrinkResult& result) {
  ++result.evaluations;
  if (!still_fails(candidate)) return false;
  current = candidate;
  ++result.accepted;
  return true;
}

/// One pass over every single-component simplification. Returns true when
/// any candidate was accepted (the caller restarts until a fixpoint).
bool shrink_pass(FuzzCase& c, const FailPredicate& still_fails,
                 ShrinkResult& result) {
  // Execution-mode normalization: the minimal repro should be serial and
  // on the default circuit path.
  if (c.threads != 1) {
    FuzzCase cand = c;
    cand.threads = 1;
    if (try_candidate(c, cand, still_fails, result)) return true;
  }
  if (c.circuit != analysis::CircuitMode::kReuse) {
    FuzzCase cand = c;
    cand.circuit = analysis::CircuitMode::kReuse;
    if (try_candidate(c, cand, still_fails, result)) return true;
  }

  // Drop parameter tweaks one at a time.
  for (size_t i = 0; i < c.tweaks.size(); ++i) {
    FuzzCase cand = c;
    cand.tweaks.erase(cand.tweaks.begin() + static_cast<long>(i));
    if (try_candidate(c, cand, still_fails, result)) return true;
  }

  // Reduce each axis toward a single sample: first try jumping straight to
  // one point (the common case — one grid cell disagrees), then dropping
  // individual samples.
  for (const auto axis : {&FuzzCase::r_axis, &FuzzCase::u_axis}) {
    const std::vector<double>& values = c.*axis;
    if (values.size() > 1) {
      for (size_t i = 0; i < values.size(); ++i) {
        FuzzCase cand = c;
        (cand.*axis).assign(1, values[i]);
        if (try_candidate(c, cand, still_fails, result)) return true;
      }
      for (size_t i = 0; i < values.size(); ++i) {
        FuzzCase cand = c;
        (cand.*axis).erase((cand.*axis).begin() + static_cast<long>(i));
        if (try_candidate(c, cand, still_fails, result)) return true;
      }
    }
  }

  // Simplify the SOS: drop operations one at a time, then the initial
  // states. Ill-formed candidates (a read whose digit no longer matches)
  // are skipped rather than evaluated.
  for (size_t i = 0; i < c.sos.ops.size(); ++i) {
    FuzzCase cand = c;
    cand.sos.ops.erase(cand.sos.ops.begin() + static_cast<long>(i));
    if (!sos_well_formed(cand.sos)) continue;
    if (try_candidate(c, cand, still_fails, result)) return true;
  }
  if (c.sos.initial_aggressor >= 0) {
    FuzzCase cand = c;
    cand.sos.initial_aggressor = -1;
    if (sos_well_formed(cand.sos) &&
        try_candidate(c, cand, still_fails, result))
      return true;
  }
  if (c.sos.initial_victim >= 0) {
    FuzzCase cand = c;
    cand.sos.initial_victim = -1;
    if (sos_well_formed(cand.sos) &&
        try_candidate(c, cand, still_fails, result))
      return true;
  }
  return false;
}

}  // namespace

ShrinkResult shrink_case(const FuzzCase& failing,
                         const FailPredicate& still_fails) {
  ShrinkResult result;
  result.minimal = failing;
  while (shrink_pass(result.minimal, still_fails, result)) {
  }
  return result;
}

std::string shrink_report(const ShrinkResult& result, uint64_t seed) {
  std::ostringstream os;
  os << "shrunk to minimal failing case after " << result.evaluations
     << " evaluations (" << result.accepted << " accepted):\n"
     << "  " << result.minimal.describe() << "\n"
     << result.minimal.repro(seed);
  return os.str();
}

}  // namespace pf::testing
