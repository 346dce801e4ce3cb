// Shared phases across a line's SOSes: SosSession::run_all walks several
// SOSes at one point as one phase-prefix tree, and the multi-SOS
// sweep_region runs a grid point's SOSes as one batch. Everything is
// checked against per-SOS runs: run_sos on a fresh column, SosSession::run
// and single-SOS sweep_region calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "pf/analysis/region.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/spice/fault_injection.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramParams;
using dram::OpenSite;
using faults::Sos;
using spice::testing::InjectedFault;
using spice::testing::InjectionSpec;
using spice::testing::ScopedFaultPlan;

void expect_same(const SosOutcome& got, const SosOutcome& want) {
  EXPECT_EQ(got.final_state, want.final_state);
  EXPECT_EQ(got.read_result, want.read_result);
  EXPECT_EQ(got.faulty, want.faulty);
  EXPECT_EQ(got.observed.to_string(), want.observed.to_string());
  EXPECT_EQ(got.ffm, want.ffm);
}

std::vector<Sos> parse_all(const std::vector<const char*>& texts) {
  std::vector<Sos> soses;
  for (const char* text : texts) soses.push_back(Sos::parse(text));
  return soses;
}

/// Opens 1, 4, 8 and 9, each at a resistance where it is benign and one
/// where its floating line decides the outcome.
struct SitePoint {
  OpenSite site;
  double r;
};
const SitePoint kSitePoints[] = {
    {OpenSite::kCell, 100e3},        {OpenSite::kCell, 1e6},
    {OpenSite::kBitLineOuter, 30e3}, {OpenSite::kBitLineOuter, 10e6},
    {OpenSite::kIoPath, 30e3},       {OpenSite::kIoPath, 10e6},
    {OpenSite::kWordLine, 1e6},      {OpenSite::kWordLine, 1e9},
};

/// run_all of `soses` at every floating line and three voltages of each
/// site point, through one session per site (so roots and prefix nodes
/// carry over between calls), against run() on a second session and
/// run_sos on fresh columns. Every call runs twice: the second finds what
/// the first stored.
void expect_run_all_matches(const std::vector<Sos>& soses,
                            bool idle_before_observe) {
  const DramParams params;
  for (const SitePoint& p : kSitePoints) {
    const Defect defect = Defect::open(p.site, p.r);
    SosSession batch(params, defect);
    SosSession single(params, defect);
    const auto lines = dram::floating_lines_for(defect, params);
    for (const dram::FloatingLine& line : lines) {
      for (double u : pf::linspace(line.min_v, line.max_v, 3)) {
        for (int pass = 0; pass < 2; ++pass) {
          const std::vector<SosOutcome> got = batch.run_all(
              p.r, params.sim, &line, u, soses, idle_before_observe);
          ASSERT_EQ(got.size(), soses.size());
          for (size_t i = 0; i < soses.size(); ++i) {
            SCOPED_TRACE(dram::defect_name(defect) + " / " + line.label +
                         " U=" + std::to_string(u) + " " +
                         soses[i].to_string() + " pass " +
                         std::to_string(pass));
            const SosOutcome fresh = run_sos(params, defect, &line, u,
                                             soses[i], idle_before_observe);
            expect_same(got[i], fresh);
            expect_same(single.run(p.r, params.sim, &line, u, soses[i],
                                   idle_before_observe),
                        fresh);
          }
        }
      }
    }
  }
}

TEST(SharedPhases, RunAllMatchesPerSosRunsForTheBaseSoses) {
  expect_run_all_matches(base_soses(), false);
}

/// Completing prefixes (trie nodes), reads in the middle of a sequence and
/// operation-free SOSes, in an order where an SOS's leaf follows a sibling
/// subtree that moved the column: the branch node must hand back the
/// victim's state at injection and the last victim read.
const std::vector<const char*> kMixedSoses = {
    "0r0 w1 r1",          "0r0",
    "1w0",                "0",
    "[w1v w0v] r0v",      "[w1v w0v] w0v",
    "[w1v w1v w0v] w0v",  "[w1v w1v w0BL] w1v",
    "0v [w1BL w1BL] r0v", "0v [w1BL] r0v",
    "1",                  "1r1 r1",
};

TEST(SharedPhases, RunAllMatchesPerSosRunsWithCompletingPrefixes) {
  std::vector<Sos> soses = parse_all(kMixedSoses);
  expect_run_all_matches(soses, false);
  std::reverse(soses.begin(), soses.end());
  expect_run_all_matches(soses, false);
}

TEST(SharedPhases, RunAllMatchesPerSosRunsWithIdleBeforeObserve) {
  std::vector<Sos> soses = parse_all(kMixedSoses);
  expect_run_all_matches(soses, true);
  std::reverse(soses.begin(), soses.end());
  expect_run_all_matches(soses, true);
}

TEST(SharedPhases, BaseSosesBranchTwicePerInitialState) {
  // Per initial state: after the precharge phase the idle cycle leaves the
  // operations, and after the sense phase w0, w1 and r part. On a cold
  // start the two initializing writes share their first four phases too,
  // which adds one branch node; later points restore both roots.
  const DramParams params;
  const Defect defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  const dram::FloatingLine line = dram::floating_lines_for(defect, params)[0];
  SosSession session(params, defect);
  session.run_all(1e6, params.sim, &line, 0.0, base_soses());
  EXPECT_EQ(session.branch_snapshots(), 5u);
  const uint64_t solved = session.steps_solved();
  session.run_all(1e6, params.sim, &line, 1.0, base_soses());
  EXPECT_EQ(session.branch_snapshots(), 9u);
  EXPECT_LT(session.steps_solved() - solved, solved);
}

SweepSpec grid_spec(OpenSite site, double r_lo, double r_hi) {
  SweepSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(site, r_lo);
  spec.r_axis = pf::logspace(r_lo, r_hi, 3);
  const dram::FloatingLine line =
      dram::floating_lines_for(spec.defect, spec.params).at(0);
  spec.u_axis = pf::linspace(line.min_v, line.max_v, 4);
  return spec;
}

/// The single-SOS sweep of every base SOS under `policy`.
std::vector<RegionMap> separate_sweeps(const SweepSpec& grid,
                                       const ExecutionPolicy& policy) {
  std::vector<RegionMap> maps;
  for (const Sos& sos : base_soses()) {
    SweepSpec spec = grid;
    spec.sos = sos;
    maps.push_back(sweep_region(spec, policy));
  }
  return maps;
}

void expect_same_maps(const std::vector<RegionMap>& got,
                      const std::vector<RegionMap>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("SOS " + want[i].spec().sos.to_string());
    EXPECT_EQ(got[i].spec().sos.to_string(), want[i].spec().sos.to_string());
    EXPECT_EQ(got[i].to_csv(), want[i].to_csv());
    const SweepStats& a = got[i].solve_stats();
    const SweepStats& b = want[i].solve_stats();
    EXPECT_EQ(a.attempted, b.attempted);
    EXPECT_EQ(a.solved, b.solved);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.resumed, b.resumed);
    EXPECT_EQ(a.failure_log, b.failure_log);
  }
}

TEST(SharedPhases, MultiSosSweepMatchesSeparateSweeps) {
  for (const SweepSpec& grid :
       {grid_spec(OpenSite::kBitLineOuter, 10e3, 10e6),
        grid_spec(OpenSite::kWordLine, 1e6, 1e9)}) {
    SCOPED_TRACE(dram::defect_name(grid.defect));
    const std::vector<RegionMap> want = separate_sweeps(grid, {});
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExecutionPolicy policy;
      policy.threads = threads;
      expect_same_maps(sweep_region(grid, base_soses(), policy), want);
    }
    ExecutionPolicy rebuild;
    rebuild.circuit_mode = CircuitMode::kRebuild;
    SCOPED_TRACE("kRebuild");
    expect_same_maps(sweep_region(grid, base_soses(), rebuild), want);
  }
}

TEST(SharedPhases, NonConvergingPointRetriesEachSosAlone) {
  // Attempt 1 of the point is ONE batch under one declaration of its key,
  // so all eight SOSes fail it (the key's first attempt). Each then retries
  // alone, declaring the key again: SOS 0 takes the key's second attempt
  // and fails once more; the other seven take attempts 3 to 9 and succeed.
  // Injections: one per initial state in the batch, plus SOS 0's retry.
  const SweepSpec grid = grid_spec(OpenSite::kBitLineOuter, 10e3, 10e6);
  const std::vector<RegionMap> clean = separate_sweeps(grid, {});
  InjectionSpec fail_twice;
  fail_twice.kind = InjectedFault::kNonConvergence;
  fail_twice.fail_attempts = 2;
  for (CircuitMode mode : {CircuitMode::kReuse, CircuitMode::kRebuild}) {
    SCOPED_TRACE(mode == CircuitMode::kReuse ? "kReuse" : "kRebuild");
    ScopedFaultPlan plan({{grid_point_key(1, 1), fail_twice}});
    ExecutionPolicy policy;
    policy.circuit_mode = mode;
    policy.retry.max_attempts = 3;
    const std::vector<RegionMap> maps =
        sweep_region(grid, base_soses(), policy);
    ASSERT_EQ(maps.size(), clean.size());
    for (size_t i = 0; i < maps.size(); ++i) {
      SCOPED_TRACE("SOS " + maps[i].spec().sos.to_string());
      EXPECT_EQ(maps[i].to_csv(), clean[i].to_csv());
      EXPECT_EQ(maps[i].solve_stats().attempted, 12u);
      EXPECT_EQ(maps[i].solve_stats().failed, 0u);
      EXPECT_EQ(maps[i].solve_stats().retries, i == 0 ? 2u : 1u);
    }
    if (mode == CircuitMode::kReuse) {
      EXPECT_EQ(spice::testing::injections_performed(), 3u);
    }
  }
}

TEST(SharedPhases, UnrecordedFailureRethrowsLowestPointThenLowestSos) {
  const SweepSpec grid = grid_spec(OpenSite::kBitLineOuter, 10e3, 10e6);
  InjectionSpec dead;
  dead.kind = InjectedFault::kNonConvergence;
  dead.fail_attempts = 100;
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ScopedFaultPlan plan(
        {{grid_point_key(3, 2), dead}, {grid_point_key(2, 1), dead}});
    ExecutionPolicy policy;
    policy.threads = threads;
    policy.record_failures = false;
    policy.retry.max_attempts = 2;
    try {
      sweep_region(grid, base_soses(), policy);
      FAIL() << "expected the dead points to rethrow";
    } catch (const ConvergenceError& e) {
      // Point (2, 1) is grid index 6, below (3, 2)'s 11.
      const std::string what = e.what();
      std::ostringstream point;
      point << "R_def=" << grid.r_axis[1] << " Ohm, U=" << grid.u_axis[2]
            << " V";
      EXPECT_NE(what.find(point.str()), std::string::npos) << what;
      EXPECT_NE(what.find("SOS=0,"), std::string::npos) << what;
    }
  }
}

TEST(SharedPhases, CorruptedPointStaysConfinedToItself) {
  // A silently wrong solve at two points — one the first of its row, where
  // the roots are solved cold under the injection — corrupts those points
  // only: no root, prefix node or branch node of theirs survives, so every
  // other point of all eight maps equals the clean sweep.
  const SweepSpec grid = grid_spec(OpenSite::kBitLineOuter, 10e3, 10e6);
  const std::vector<RegionMap> clean = separate_sweeps(grid, {});
  InjectionSpec corrupt;
  corrupt.kind = InjectedFault::kCorruptVoltage;
  corrupt.fail_attempts = 1 << 30;
  const size_t width = grid.u_axis.size();
  const std::vector<size_t> hit = {1 * width + 0, 2 * width + 2};
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ScopedFaultPlan plan({{grid_point_key(0, 1), corrupt},
                          {grid_point_key(2, 2), corrupt}});
    ExecutionPolicy policy;
    policy.threads = threads;
    const std::vector<RegionMap> maps =
        sweep_region(grid, base_soses(), policy);
    EXPECT_GT(spice::testing::injections_performed(), 0u);
    for (size_t i = 0; i < maps.size(); ++i) {
      SCOPED_TRACE("SOS " + maps[i].spec().sos.to_string());
      for (size_t k = 0; k < width * grid.r_axis.size(); ++k) {
        if (std::find(hit.begin(), hit.end(), k) != hit.end()) continue;
        EXPECT_EQ(maps[i].grid().data()[k], clean[i].grid().data()[k])
            << "point " << k;
      }
    }
  }
}

TEST(SharedPhases, InjectedTrajectoryKeepsNoSnapshot) {
  // run_all under an injected context stores no branch node and no root;
  // the same session's next clean call equals fresh columns.
  const DramParams params;
  const double r = 10e3;
  const Defect defect = Defect::open(OpenSite::kBitLineOuter, r);
  const dram::FloatingLine line = dram::floating_lines_for(defect, params)[0];
  InjectionSpec corrupt;
  corrupt.kind = InjectedFault::kCorruptVoltage;
  corrupt.fail_attempts = 1;
  SosSession session(params, defect);
  {
    ScopedFaultPlan plan({{"poisoned", corrupt}});
    spice::testing::set_context("poisoned");
    session.run_all(r, params.sim, &line, 0.0, base_soses());
    spice::testing::clear_context();
    ASSERT_GT(spice::testing::injections_performed(), 0u);
  }
  EXPECT_EQ(session.branch_snapshots(), 0u);
  for (double u : {0.0, 3.3}) {
    SCOPED_TRACE("U=" + std::to_string(u));
    const std::vector<SosOutcome> got =
        session.run_all(r, params.sim, &line, u, base_soses());
    for (size_t i = 0; i < got.size(); ++i)
      expect_same(got[i], run_sos(params, defect, &line, u, base_soses()[i]));
  }
  // A cold start (five branch nodes), then a point from the roots (four).
  EXPECT_EQ(session.branch_snapshots(), 9u);
}

}  // namespace
}  // namespace pf::analysis
