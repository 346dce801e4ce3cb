// Mutation-smoke: the harness is only trustworthy if it CATCHES defects.
// Plant classification mutations and solver faults through the
// pf::spice::testing injection hooks and require the differential oracle to
// convict them — and the shrinker to produce a minimal repro.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "pf/analysis/robust.hpp"
#include "pf/spice/fault_injection.hpp"
#include "pf/testing/oracle.hpp"
#include "pf/testing/shrink.hpp"

namespace pf::testing {
namespace {

namespace inj = pf::spice::testing;

FuzzCase fixed_case() {
  // First case of the default-seed stream: deterministic, known clean
  // (FuzzDifferential.ElectricalAndBehavioralLayersAgree covers the stream).
  Rng rng(kDefaultFuzzSeed);
  return random_case(rng, {});
}

/// A silently WRONG solver on one grid point's experiment key: every
/// voltage mirrored, nothing thrown. The point is (R = 89 kOhm, U = 1.1 V)
/// of fixed_case(), whose own class flips under the mirror (RDF0 instead of
/// no fault). SosSession never keeps a snapshot an injected fault touched,
/// so the corruption stays confined to that point and only the
/// differential check of the point itself can see it.
std::map<std::string, inj::InjectionSpec> corrupt_one_point() {
  return {{analysis::grid_point_key(1, 0),
           {inj::InjectedFault::kCorruptVoltage, 1 << 30, 0, 3.3}}};
}

TEST(FuzzMutation, CleanBaselinePasses) {
  const TrialResult r = run_differential_trial(fixed_case());
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.cells_checked, 0u);
}

TEST(FuzzMutation, PlantedCorruptionIsConvictedAndShrunk) {
  const FuzzCase c = fixed_case();
  inj::ScopedFaultPlan plan(corrupt_one_point());
  const TrialResult r = run_differential_trial(c);
  ASSERT_FALSE(r.ok) << "planted kCorruptVoltage survived the oracle";
  EXPECT_NE(r.failure.find("referee"), std::string::npos) << r.failure;
  EXPECT_GT(inj::injections_performed(), 0u);

  // The shrinker must reduce the case to a handful of grid points and emit
  // a copy-pasteable repro.
  const ShrinkResult shrunk = shrink_case(c, [](const FuzzCase& cand) {
    try {
      return !run_differential_trial(cand).ok;
    } catch (const std::exception&) {
      return true;
    }
  });
  EXPECT_LE(shrunk.minimal.r_axis.size() * shrunk.minimal.u_axis.size(), 2u)
      << shrunk.minimal.describe();
  EXPECT_EQ(shrunk.minimal.threads, 1);
  const std::string report = shrink_report(shrunk, kDefaultFuzzSeed);
  EXPECT_NE(report.find("PF_TEST_SEED"), std::string::npos);
  EXPECT_NE(report.find("defect_explorer"), std::string::npos);
  // The minimal case still fails under the plan...
  EXPECT_FALSE(run_differential_trial(shrunk.minimal).ok);
}

TEST(FuzzMutation, MinimalCasePassesOnceThePlanIsGone) {
  FuzzCase c = fixed_case();
  FuzzCase minimal;
  {
    inj::ScopedFaultPlan plan(corrupt_one_point());
    minimal = shrink_case(c, [](const FuzzCase& cand) {
                return !run_differential_trial(cand).ok;
              }).minimal;
  }
  // Disarmed, the shrunk repro is clean: the failure was the mutation, not
  // the stack.
  EXPECT_TRUE(run_differential_trial(minimal).ok);
}

TEST(FuzzMutation, UnrecoverableNanVoltageIsConvicted) {
  // kNanVoltage past the retry budget degrades the sweep cell to FAIL; the
  // injection-free referee solves the point, and the disagreement convicts
  // the planted fault.
  const FuzzCase c = fixed_case();
  inj::ScopedFaultPlan plan({{analysis::grid_point_key(0, 0),
                              {inj::InjectedFault::kNanVoltage, 1 << 30}}});
  const TrialResult r = run_differential_trial(c);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("FAIL"), std::string::npos) << r.failure;
}

TEST(FuzzMutation, RecoverableInjectionStaysClean) {
  // A fault that recovers within the retry budget must NOT trip the oracle:
  // retry/backoff absorbs it and the final classification is sound.
  const FuzzCase c = fixed_case();
  inj::ScopedFaultPlan plan(
      {{analysis::grid_point_key(0, 0),
        {inj::InjectedFault::kNonConvergence, /*fail_attempts=*/1}}});
  const TrialResult r = run_differential_trial(c);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(inj::injections_performed(), 0u)
      << "the injection plan never fired — the smoke test is vacuous";
}

}  // namespace
}  // namespace pf::testing
