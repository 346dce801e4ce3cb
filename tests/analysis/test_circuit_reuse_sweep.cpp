// Golden equivalence of the execution engine: the compile-once reuse path
// at {1, N} worker threads must reproduce the per-point rebuild path's map
// bit for bit (same CSV, same rendering, same stats), with the
// fault-injection and journal machinery layered on top.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "pf/analysis/checkpoint.hpp"
#include "pf/analysis/completion.hpp"
#include "pf/analysis/region.hpp"
#include "pf/analysis/robust.hpp"
#include "pf/spice/fault_injection.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramParams;
using dram::OpenSite;
using faults::Ffm;
using faults::Sos;
using spice::testing::InjectedFault;
using spice::testing::InjectionSpec;
using spice::testing::ScopedFaultPlan;

SweepSpec small_spec(const char* sos = "1r1") {
  SweepSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  spec.sos = Sos::parse(sos);
  spec.r_axis = pf::logspace(1e6, 10e6, 3);
  spec.u_axis = pf::linspace(0.0, 3.3, 4);
  return spec;
}

RegionMap rebuild_reference(const SweepSpec& spec) {
  ExecutionPolicy rebuild;
  rebuild.circuit_mode = CircuitMode::kRebuild;
  return sweep_region(spec, rebuild);
}

void expect_equivalent(const RegionMap& reference, const RegionMap& map,
                       const std::string& what) {
  EXPECT_EQ(reference.to_csv(), map.to_csv()) << what;
  EXPECT_EQ(reference.render("t"), map.render("t")) << what;
  EXPECT_EQ(reference.solve_stats().solved, map.solve_stats().solved) << what;
  EXPECT_EQ(reference.solve_stats().failed, map.solve_stats().failed) << what;
  EXPECT_EQ(reference.solve_stats().retries, map.solve_stats().retries)
      << what;
}

TEST(CircuitReuse, ReuseIsBitIdenticalToRebuildAtAnyThreadCount) {
  // THE golden-equivalence property of the compile-once refactor, on both a
  // read SOS and an operation-free state-fault SOS (which exercises the
  // idle-cycle observation path): the reused sweep must land on the same
  // map, stats included.
  for (const char* sos : {"1r1", "1"}) {
    const SweepSpec spec = small_spec(sos);
    const RegionMap reference = rebuild_reference(spec);
    EXPECT_EQ(reference.failed_points(), 0u) << sos;
    for (int threads : {1, 4}) {
      ExecutionPolicy reuse;
      reuse.threads = threads;
      reuse.circuit_mode = CircuitMode::kReuse;
      const RegionMap map = sweep_region(spec, reuse);
      expect_equivalent(reference, map,
                        std::string(sos) + " @threads=" +
                            std::to_string(threads));
    }
  }
}

TEST(CircuitReuse, SessionRunMatchesFreshRunSosAcrossRestamps) {
  // Drive one session through the R/U/options variations a sweep performs
  // and compare every outcome field against a fresh-build run_sos.
  const SweepSpec spec = small_spec();
  const auto lines = dram::floating_lines_for(spec.defect, spec.params);
  ASSERT_FALSE(lines.empty());
  SosSession session(spec.params, spec.defect);

  spice::SimOptions tightened = spec.params.sim;
  tightened.dt_initial *= 0.25;
  tightened.max_nr_iters += 40;

  const struct {
    double r;
    double u;
    const spice::SimOptions* opts;
  } points[] = {
      {1e6, 0.0, &spec.params.sim},   // restamp-free repeat of the build R
      {1e6, 2.2, &spec.params.sim},   // same row: snapshot-restore path
      {10e6, 1.1, &spec.params.sim},  // new row: power-up replay
      {10e6, 1.1, &tightened},        // option change: replay under retry opts
      {250e3, 3.3, &spec.params.sim}, // back down, options restored
  };
  for (const auto& p : points) {
    const SosOutcome reused =
        session.run(p.r, *p.opts, &lines[0], p.u, spec.sos);
    dram::DramParams params = spec.params;
    params.sim = *p.opts;
    Defect defect = spec.defect;
    defect.resistance = p.r;
    const SosOutcome fresh = run_sos(params, defect, &lines[0], p.u, spec.sos);
    EXPECT_EQ(reused.final_state, fresh.final_state) << p.r << " " << p.u;
    EXPECT_EQ(reused.read_result, fresh.read_result) << p.r << " " << p.u;
    EXPECT_EQ(reused.faulty, fresh.faulty) << p.r << " " << p.u;
    EXPECT_EQ(reused.ffm, fresh.ffm) << p.r << " " << p.u;
  }
}

TEST(CircuitReuse, SetSimOptionsIsCarriedIntoClones) {
  // The session-level options override must survive clone(): the parallel
  // sweep fans a configured prototype out to per-worker replicas, and a
  // replica solving with different numerics would silently break the
  // bit-identity contract.
  const DramParams params;
  const auto defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  SosSession session(params, defect);

  spice::SimOptions tightened = params.sim;
  tightened.dt_initial *= 0.25;
  tightened.max_nr_iters += 40;
  session.set_sim_options(tightened);
  EXPECT_EQ(session.column().params().sim.dt_initial, tightened.dt_initial);
  EXPECT_EQ(session.column().params().sim.max_nr_iters, tightened.max_nr_iters);

  SosSession replica = session.clone();
  EXPECT_EQ(replica.column().params().sim.dt_initial, tightened.dt_initial);
  EXPECT_EQ(replica.column().params().sim.max_nr_iters, tightened.max_nr_iters);

  // And the override is semantically live: the replica's run under its
  // carried options equals a fresh run_sos under the same options.
  const auto lines = dram::floating_lines_for(defect, params);
  ASSERT_FALSE(lines.empty());
  const Sos sos = Sos::parse("1r1");
  const SosOutcome reused = replica.run(1e6, tightened, &lines[0], 1.1, sos);
  DramParams fresh_params = params;
  fresh_params.sim = tightened;
  const SosOutcome fresh = run_sos(fresh_params, defect, &lines[0], 1.1, sos);
  EXPECT_EQ(reused.final_state, fresh.final_state);
  EXPECT_EQ(reused.read_result, fresh.read_result);
  EXPECT_EQ(reused.faulty, fresh.faulty);
  EXPECT_EQ(reused.ffm, fresh.ffm);
}

TEST(CircuitReuse, InjectedFaultsRetryIdenticallyThroughReuse) {
  // The deterministic injection harness must behave exactly as on the
  // rebuild path: one injection per failed attempt, full recovery inside
  // the budget, bit-identical final map.
  const SweepSpec spec = small_spec();
  const RegionMap clean = rebuild_reference(spec);

  InjectionSpec fail_twice;
  fail_twice.kind = InjectedFault::kNonConvergence;
  fail_twice.fail_attempts = 2;
  ScopedFaultPlan plan({{grid_point_key(1, 0), fail_twice},
                        {grid_point_key(3, 2), fail_twice}});
  ExecutionPolicy reuse;
  reuse.retry.max_attempts = 3;
  ASSERT_EQ(reuse.circuit_mode, CircuitMode::kReuse);
  const RegionMap map = sweep_region(spec, reuse);

  EXPECT_EQ(map.failed_points(), 0u);
  EXPECT_EQ(map.to_csv(), clean.to_csv());
  EXPECT_EQ(map.solve_stats().retries, 4u);
  EXPECT_EQ(spice::testing::injections_performed(), 4u);
}

TEST(CircuitReuse, CorruptedPointStaysConfinedToItself) {
  // A silently wrong solve of one grid point (kCorruptVoltage past the
  // retry budget) corrupts that point only: SosSession never keeps the
  // post-initialization root of a trajectory an injected fault touched, so
  // the rest of the row starts from a clean root and the reused map equals
  // the rebuild path's under the same plan.
  const SweepSpec spec = small_spec("0r0");
  InjectionSpec corrupt;
  corrupt.kind = InjectedFault::kCorruptVoltage;
  corrupt.fail_attempts = 1 << 30;
  std::string csv[2];
  for (CircuitMode mode : {CircuitMode::kRebuild, CircuitMode::kReuse}) {
    ScopedFaultPlan plan({{grid_point_key(0, 0), corrupt}});
    ExecutionPolicy policy;
    policy.circuit_mode = mode;
    csv[mode == CircuitMode::kReuse] = sweep_region(spec, policy).to_csv();
    EXPECT_GT(spice::testing::injections_performed(), 0u);
  }
  EXPECT_EQ(csv[1], csv[0]);
}

TEST(CircuitReuse, JournalResumeAcrossThreadCounts) {
  // Interrupted-run shape across thread counts: a journaled serial sweep
  // degrades two injected points, then a second run at 4 threads resumes
  // the journal, re-runs only those two and lands on the rebuild path's
  // clean map.
  const SweepSpec spec = small_spec();
  const RegionMap clean = rebuild_reference(spec);
  const std::string path =
      ::testing::TempDir() + "reuse_resume_journal.csv";
  std::remove(path.c_str());

  {
    InjectionSpec dead;
    dead.kind = InjectedFault::kNonConvergence;
    dead.fail_attempts = 100;
    ScopedFaultPlan plan({{grid_point_key(0, 0), dead},
                          {grid_point_key(3, 1), dead}});
    ExecutionPolicy opt;
    opt.retry.max_attempts = 2;
    opt.journal_path = path;
    const RegionMap map = sweep_region(spec, opt);
    EXPECT_EQ(map.failed_points(), 2u);
  }
  {
    ExecutionPolicy opt;
    opt.threads = 4;
    opt.journal_path = path;
    const RegionMap map = sweep_region(spec, opt);
    EXPECT_EQ(map.solve_stats().resumed, 10u);
    EXPECT_EQ(map.solve_stats().attempted, 2u);
    EXPECT_EQ(map.failed_points(), 0u);
    EXPECT_EQ(map.to_csv(), clean.to_csv());
  }
  std::remove(path.c_str());
}

TEST(CircuitReuse, CompletionSearchVerdictMatchesRebuild) {
  CompletionSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  spec.base = faults::FaultPrimitive::parse("<1r1/0/0>");
  spec.probe_r = {10e6};
  spec.probe_u = {0.0, 1.65, 3.3};
  spec.max_prefix_ops = 1;

  spec.exec.circuit_mode = CircuitMode::kRebuild;
  const CompletionResult rebuild = search_completing_ops(spec);
  spec.exec.circuit_mode = CircuitMode::kReuse;
  const CompletionResult reuse = search_completing_ops(spec);

  EXPECT_EQ(rebuild.possible, reuse.possible);
  EXPECT_EQ(rebuild.candidates_evaluated, reuse.candidates_evaluated);
  EXPECT_EQ(rebuild.sos_runs, reuse.sos_runs);  // serial: exact counts
  if (rebuild.possible) {
    EXPECT_EQ(rebuild.completed.to_string(), reuse.completed.to_string());
  }
}

}  // namespace
}  // namespace pf::analysis
