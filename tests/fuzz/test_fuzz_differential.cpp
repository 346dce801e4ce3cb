// Electrical differential + metamorphic fuzz suite (DESIGN.md §10).
//
// Budgets are deliberately small by default — each iteration runs real
// transient sweeps — and scale with PF_FUZZ_ITERS (scripts/ci.sh gives the
// suite a bounded budget; PF_FUZZ_ITERS=1000 is the deep overnight run).
// Every failure prints the seed banner plus a shrunk, copy-pasteable repro.
#include <gtest/gtest.h>

#include <algorithm>

#include "pf/analysis/table1.hpp"
#include "pf/testing/oracle.hpp"
#include "pf/testing/shrink.hpp"

namespace pf::testing {
namespace {

using faults::Ffm;

bool trial_fails(const FuzzCase& c) {
  try {
    return !run_differential_trial(c).ok;
  } catch (const std::exception&) {
    return true;  // a throw from the stack under test is a failure too
  }
}

void report_failure(const FuzzCase& c, const std::string& why,
                    uint64_t seed) {
  const ShrinkResult shrunk = shrink_case(c, trial_fails);
  ADD_FAILURE() << why << "\n" << shrink_report(shrunk, seed);
}

TEST(FuzzDifferential, ElectricalAndBehavioralLayersAgree) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(12);
  SCOPED_TRACE(fuzz_banner("differential.oracle", seed, iters));
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    FuzzCase c = random_case(rng);
    c.threads = (i % 2) ? 3 : 1;  // the oracle must hold in both modes
    const TrialResult r = run_differential_trial(c);
    if (!r.ok) {
      report_failure(c, "iteration " + std::to_string(i) + ": " + r.failure,
                     seed);
      return;  // one shrunk repro at a time
    }
  }
}

TEST(FuzzDifferential, GridIsBitIdenticalAcrossExecutionModes) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(3);
  SCOPED_TRACE(fuzz_banner("differential.modes", seed, iters));
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const FuzzCase c = random_case(rng);
    const analysis::SweepSpec spec = c.sweep_spec();
    analysis::ExecutionPolicy reference;  // serial, reuse
    const auto base = sweep_region(spec, reference);

    analysis::ExecutionPolicy threaded;
    threaded.threads = 3;
    analysis::ExecutionPolicy rebuild;
    rebuild.circuit_mode = analysis::CircuitMode::kRebuild;
    for (const auto* policy : {&threaded, &rebuild}) {
      const auto other = sweep_region(spec, *policy);
      ASSERT_EQ(base.grid().data(), other.grid().data())
          << c.describe() << " (threads=" << policy->threads << ", circuit="
          << (policy->circuit_mode == analysis::CircuitMode::kReuse
                  ? "reuse"
                  : "rebuild")
          << ")";
    }
  }
}

/// The multi-SOS sweep's map for soses[j] against the single-SOS sweep of
/// soses[j], both on c's grid under c's execution mode; "" when they agree.
std::string multi_sos_mismatch(const FuzzCase& c,
                               const std::vector<faults::Sos>& soses,
                               size_t j) {
  analysis::ExecutionPolicy policy;
  policy.threads = c.threads;
  policy.circuit_mode = c.circuit;
  const analysis::SweepSpec grid = c.sweep_spec();
  const auto multi = sweep_region(grid, soses, policy);
  analysis::SweepSpec single = grid;
  single.sos = soses[j];
  const auto want = sweep_region(single, policy);
  if (multi.at(j).to_csv() != want.to_csv())
    return "map of " + soses[j].to_string() + " differs";
  if (multi[j].solve_stats().retries != want.solve_stats().retries ||
      multi[j].solve_stats().failure_log != want.solve_stats().failure_log)
    return "SweepStats of " + soses[j].to_string() + " differ";
  return "";
}

// Differential: the multi-SOS sweep (a grid point's SOSes as one batch,
// shared phases solved once) over a random grid and a random set of 2-8
// SOSes equals per-SOS sweep_region calls, map for map.
TEST(FuzzDifferential, MultiSosSweepMatchesPerSosSweeps) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(3);
  SCOPED_TRACE(fuzz_banner("differential.multi_sos", seed, iters));
  Rng rng(seed);
  const std::vector<faults::Sos> bases = analysis::base_soses();
  for (int i = 0; i < iters; ++i) {
    FuzzCase c = random_case(rng);
    c.threads = (i % 2) ? 3 : 1;
    std::vector<faults::Sos> soses = {c.sos};
    const size_t n = 2 + rng.next_below(7);
    while (soses.size() < n)
      soses.push_back(rng.next_below(2) ? random_sos(rng)
                                        : bases[rng.next_below(bases.size())]);
    for (size_t j = 0; j < soses.size(); ++j) {
      const std::string why = multi_sos_mismatch(c, soses, j);
      if (why.empty()) continue;
      // Shrink the grid, tweaks and the mismatching SOS; the other SOSes
      // of the set stay as its batch companions.
      c.sos = soses[j];
      const ShrinkResult shrunk =
          shrink_case(c, [&](const FuzzCase& candidate) {
            std::vector<faults::Sos> set = soses;
            set[j] = candidate.sos;
            try {
              return !multi_sos_mismatch(candidate, set, j).empty();
            } catch (const std::exception&) {
              return true;
            }
          });
      std::string set;
      for (size_t k = 0; k < soses.size(); ++k)
        set += (k == 0 ? "\"" : ", \"") +
               (k == j ? shrunk.minimal.sos : soses[k]).to_string() +
               (k == j ? "\" (shrunk)" : "\"");
      ADD_FAILURE() << "iteration " << i << ": " << why << "\nSOS set: " << set
                    << "\n" << shrink_report(shrunk, seed);
      return;  // one shrunk repro at a time
    }
  }
}

bool bitline_site(dram::OpenSite s) {
  using O = dram::OpenSite;
  return s == O::kPrecharge || s == O::kBitLineOuter || s == O::kBitLineMid ||
         s == O::kBitLineSense || s == O::kBitLineOuterComp;
}

// Metamorphic: for a FULL finding (sensitized at every floating voltage of
// some row), prepending a completing bit-line write whose driven level
// agrees with the grid point's floating level must not remove the fault
// there — the completing operation merely establishes the state the line
// already floats at. (Opposite-polarity completions legitimately move band
// edges, so points near vdd/2 or of mismatched polarity are out of scope.)
TEST(FuzzDifferential, MatchedCompletingOpsAreNeutralOnFullFaults) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(8);
  SCOPED_TRACE(fuzz_banner("differential.completing", seed, iters));
  Rng rng(seed);
  int qualified = 0;
  for (int i = 0; i < iters || qualified == 0; ++i) {
    if (i >= 16 * std::max(iters, 1)) break;  // give up hunting politely
    const FuzzCase c = random_case(rng);
    if (!bitline_site(c.site) || c.sos.has_completing_ops() ||
        c.sos.ops.empty())
      continue;
    const double vdd = c.params().vdd;
    const analysis::RegionMap base = sweep_region(c.sweep_spec(), {});
    for (const auto& f : identify_partial_faults(base)) {
      if (f.partial) continue;
      for (int level = 0; level <= 1; ++level) {
        faults::Sos completed = c.sos;
        faults::Op op;
        op.kind = level ? faults::Op::Kind::kWrite1
                        : faults::Op::Kind::kWrite0;
        op.target = faults::CellRole::kAggressorBl;
        op.completing = true;
        completed.ops.insert(completed.ops.begin(), op);
        if (!sos_well_formed(completed)) continue;
        const int driven = c.site == dram::OpenSite::kBitLineOuterComp
                               ? 1 - level
                               : level;
        analysis::SweepSpec spec = c.sweep_spec();
        spec.sos = completed;
        const analysis::RegionMap comp = sweep_region(spec, {});
        ++qualified;
        for (size_t iy = 0; iy < base.grid().height(); ++iy) {
          for (size_t ix = 0; ix < base.grid().width(); ++ix) {
            const double u = c.u_axis[ix];
            if (std::abs(u - vdd / 2) < 0.2 * vdd) continue;
            if ((u > vdd / 2 ? 1 : 0) != driven) continue;
            if (base.grid().at(ix, iy) != f.ffm) continue;
            ASSERT_EQ(comp.grid().at(ix, iy), f.ffm)
                << c.describe() << ": full " << faults::ffm_name(f.ffm)
                << " lost at (R=" << c.r_axis[iy] << ", U=" << u
                << ") after prepending [" << op.to_string() << "]";
          }
        }
      }
    }
  }
  EXPECT_GT(qualified, 0) << "generator produced no qualifying case";
}

// Metamorphic: the complementary defect (Open 4') with the data-complement
// SOS observes exactly the data-complement FFM set of Open 4 [Al-Ars00].
TEST(FuzzDifferential, ComplementaryDefectMirrorsObservedFfms) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(6);
  SCOPED_TRACE(fuzz_banner("differential.complement", seed, iters));
  Rng rng(seed);
  CaseGenConfig cfg;
  cfg.sites = {dram::OpenSite::kBitLineOuter};
  for (int i = 0; i < iters; ++i) {
    const FuzzCase c = random_case(rng, cfg);
    const analysis::RegionMap base = sweep_region(c.sweep_spec(), {});
    faults::FaultPrimitive fp;
    fp.sos = c.sos;
    analysis::SweepSpec mirrored = c.sweep_spec();
    mirrored.defect.site = dram::OpenSite::kBitLineOuterComp;
    mirrored.sos = fp.complement().sos;
    const analysis::RegionMap comp = sweep_region(mirrored, {});

    std::vector<Ffm> want;
    for (const Ffm f : base.observed_ffms())
      want.push_back(faults::complement_ffm(f));
    std::sort(want.begin(), want.end());
    std::vector<Ffm> got = comp.observed_ffms();
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << c.describe();
  }
}

}  // namespace
}  // namespace pf::testing
