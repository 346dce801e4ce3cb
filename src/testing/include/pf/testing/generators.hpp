// Deterministic generators for the property-based / differential test
// harness (see DESIGN.md §10).
//
// Every randomized suite in tests/fuzz draws from one pf::Rng seeded by the
// PF_TEST_SEED environment variable (fixed default), so a CI failure is
// reproducible bit for bit by exporting the printed seed. The generators
// only produce *well-formed* inputs:
//
//   * random_sos emits sensitizing operation sequences whose read digits
//     match the fault-free data (tracking the simulated victim/aggressor
//     values), with optional initializing states, an optional completing
//     [w..] bracket and optional aggressor traffic — the arbitrary
//     decoupled operation sequences the Test Primitive literature asks for
//     instead of the fixed FP catalogue;
//   * random_tweaks perturbs DramParams within ±(a few tens of) percent of
//     the calibrated defaults, by named multiplicative factors so a
//     shrinker can drop them one at a time;
//   * random_case assembles a full differential experiment: an open-defect
//     site, an SOS, a small (R_def, U) grid inside the site's physically
//     meaningful resistance range, and an execution mode (threads, circuit
//     reuse).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pf/analysis/region.hpp"
#include "pf/march/synthesis.hpp"
#include "pf/util/rng.hpp"

namespace pf::testing {

/// Fixed default seed: CI runs are deterministic unless PF_TEST_SEED is set.
inline constexpr uint64_t kDefaultFuzzSeed = 0x5EED15C0FFEEULL;

/// Seed for this process's randomized tests: PF_TEST_SEED (decimal or 0x
/// hex) when set and parseable, else the fixed default.
uint64_t fuzz_seed();

/// Iteration budget: PF_FUZZ_ITERS when set and positive, else
/// `default_iters`. Suites pick defaults proportional to their per-trial
/// cost; the env var overrides all of them at once (CI knob).
int fuzz_iters(int default_iters);

/// One-line banner ("[fuzz] suite=... seed=... iters=...") printed by each
/// randomized suite so failures carry their reproduction recipe.
std::string fuzz_banner(const std::string& suite, uint64_t seed, int iters);

/// Derived per-iteration seed: fuzz suites that need an externally
/// replayable case (march_workbench --fuzz-case SEED:ITER) seed one Rng per
/// iteration from this instead of drawing from a shared stream, so a repro
/// does not have to replay every earlier iteration.
inline uint64_t fuzz_case_seed(uint64_t seed, int iter) {
  return seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(iter) +
                 0x5EA12C4ULL);
}

// --- DramParams perturbations ----------------------------------------------

/// A named multiplicative perturbation of one DramParams field.
struct ParamTweak {
  std::string field;
  double factor = 1.0;

  friend bool operator==(const ParamTweak&, const ParamTweak&) = default;
};

/// Fields random_tweaks may perturb (electrical sizings and timings; never
/// the supplies, which the floating-line U axis is defined against).
const std::vector<std::string>& tweakable_fields();

/// Defaults with every tweak applied (unknown field names throw pf::Error).
dram::DramParams apply_tweaks(const std::vector<ParamTweak>& tweaks);

/// Up to max_tweaks distinct fields, factors in [0.85, 1.18].
std::vector<ParamTweak> random_tweaks(Rng& rng, int max_tweaks = 2);

// --- SOS generation ---------------------------------------------------------

struct SosGenConfig {
  int max_body_ops = 3;          ///< non-completing operations
  bool allow_aggressor = true;   ///< BL-aggressor initial state + traffic
  bool allow_completing = true;  ///< optional [w..] completing bracket
};

/// A random well-formed SOS: every read digit equals the tracked fault-free
/// value of the addressed cell, and the sequence defines at least one
/// state (initialization or write) so its fault-free expectation exists.
faults::Sos random_sos(Rng& rng, const SosGenConfig& cfg = {});

/// True when every read's expected digit matches fault-free execution and
/// no cell is read before its value is defined (generators always satisfy
/// this; the shrinker uses it to reject ill-formed simplifications).
bool sos_well_formed(const faults::Sos& sos);

// --- Full differential cases ------------------------------------------------

/// One randomized differential experiment; the unit the fuzzer generates,
/// the oracle judges and the shrinker minimizes.
struct FuzzCase {
  std::vector<ParamTweak> tweaks;  ///< DramParams perturbation
  dram::OpenSite site = dram::OpenSite::kBitLineOuter;
  size_t floating_line_index = 0;
  faults::Sos sos;
  std::vector<double> r_axis;  ///< ascending R_def values
  std::vector<double> u_axis;  ///< ascending floating voltages
  int threads = 1;
  analysis::CircuitMode circuit = analysis::CircuitMode::kReuse;

  dram::DramParams params() const { return apply_tweaks(tweaks); }
  dram::Defect defect() const;
  analysis::SweepSpec sweep_spec() const;

  /// Human-readable one-liner (site, SOS, axes, tweaks, execution mode).
  std::string describe() const;

  /// Copy-pasteable reproduction: the PF_TEST_SEED line for the fuzz run
  /// plus the defect_explorer command for the same (defect, SOS) map.
  std::string repro(uint64_t seed) const;
};

struct CaseGenConfig {
  /// Open sites to draw from; empty = every site the analysis covers
  /// (including the complementary Open 4' but not the word line, whose
  /// hidden floating gate needs R_def decades outside the other sites'
  /// solver-friendly range — give it its own config when wanted).
  std::vector<dram::OpenSite> sites;
  int min_r_points = 2;
  int max_r_points = 3;
  int min_u_points = 3;
  int max_u_points = 4;
  int max_tweaks = 2;
  double p_canonical_sos = 0.5;  ///< draw from table1 base_soses() instead
  double p_completing = 0.35;    ///< chance the SOS carries a [w..] bracket
  int threads = 1;               ///< execution mode of the generated case
};

FuzzCase random_case(Rng& rng, const CaseGenConfig& cfg = {});

// --- March-search target sets ------------------------------------------------

/// A random guarded target set for the march-search fuzz suite: 1..4
/// guarded FFM targets plus at most one coupling target. Guards are drawn
/// from the detectable kinds only (hidden guards always active): an
/// inactive hidden fault is undetectable by construction and would make
/// every generated case trivially unsynthesizable. Deterministic in `rng`;
/// `march_workbench --search --fuzz-case SEED:ITER` replays the exact set
/// the fuzz suite drew at iteration ITER of seed SEED.
std::vector<march::TargetFault> random_target_set(Rng& rng);

}  // namespace pf::testing
