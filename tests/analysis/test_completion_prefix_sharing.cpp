// The completion search at real prefix depth (2 and 3 completing writes),
// where SosSession's snapshot trie resumes each probe from the longest
// completing prefix an earlier candidate already solved and the candidates
// of one prefix length fan out over the workers. Everything is checked
// against the kRebuild oracle, which solves every probe on a fresh column.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/spice/fault_injection.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramParams;
using dram::OpenSite;
using faults::FaultPrimitive;
using faults::Sos;
using spice::testing::InjectedFault;
using spice::testing::InjectionSpec;
using spice::testing::ScopedFaultPlan;

/// Open 1 (inside the memory cell) partial faults whose completions need
/// two or three completing writes on a single probe row (the catalogue's
/// Table 1 rows <[w1 w0] r0/1/1>, <[w1 w1 w0] w0/1/-> and
/// <[w0 w1 w1] w0/1/->), plus the word-line SF0 that no prefix completes:
/// its candidates are made of completing writes only.
struct DepthCase {
  OpenSite site;
  const char* base;
  double r;
};

const DepthCase kCases[] = {
    {OpenSite::kCell, "<0r0/1/1>", 1e6},
    {OpenSite::kCell, "<0w0/1/->", 1e6},
    {OpenSite::kCell, "<1w0/1/->", 1e6},
    {OpenSite::kWordLine, "<0/1/->", 100e6},
};

CompletionSpec spec_for(const DepthCase& c, int depth, CircuitMode mode,
                        int threads) {
  CompletionSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(c.site, c.r);
  spec.base = FaultPrimitive::parse(c.base);
  spec.probe_r = {c.r};
  const dram::FloatingLine line =
      dram::floating_lines_for(spec.defect, spec.params).at(0);
  spec.probe_u = pf::linspace(line.min_v, line.max_v, 5);
  spec.max_prefix_ops = depth;
  spec.exec.plan.circuit_mode = mode;
  spec.exec.threads = threads;
  return spec;
}

void expect_matches_oracle(int depth) {
  for (const DepthCase& c : kCases) {
    SCOPED_TRACE(std::string(c.base) + " depth " + std::to_string(depth));
    const CompletionResult oracle =
        search_completing_ops(spec_for(c, depth, CircuitMode::kRebuild, 1));
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      for (CircuitMode mode : {CircuitMode::kReuse, CircuitMode::kRebuild}) {
        const CompletionResult got =
            search_completing_ops(spec_for(c, depth, mode, threads));
        ASSERT_EQ(got.possible, oracle.possible);
        EXPECT_EQ(got.completed.to_string(), oracle.completed.to_string());
        EXPECT_EQ(got.candidates_evaluated, oracle.candidates_evaluated);
        EXPECT_EQ(got.solver_failures, oracle.solver_failures);
        if (threads == 1) EXPECT_EQ(got.sos_runs, oracle.sos_runs);
      }
    }
  }
}

TEST(CompletionPrefixSharing, ReuseMatchesRebuildOracleAtDepth2) {
  expect_matches_oracle(2);
}

TEST(CompletionPrefixSharing, ReuseMatchesRebuildOracleAtDepth3) {
  expect_matches_oracle(3);
}

TEST(CompletionPrefixSharing, DepthThreeCompletionsAreFound) {
  // The cases above must really walk the trie: two of them complete only
  // with three completing writes.
  const CompletionResult wdf0 = search_completing_ops(
      spec_for(kCases[1], 3, CircuitMode::kReuse, 1));
  ASSERT_TRUE(wdf0.possible);
  EXPECT_EQ(wdf0.completed.to_string(), "<[w1 w1 w0] w0/1/->");
  const CompletionResult tf = search_completing_ops(
      spec_for(kCases[2], 3, CircuitMode::kReuse, 1));
  ASSERT_TRUE(tf.possible);
  EXPECT_EQ(tf.completed.to_string(), "<[w0 w1 w1] w0/1/->");
}

TEST(CompletionPrefixSharing, SessionRunsMatchFreshRunsInEnumerationOrder) {
  // Candidate SOSes in the search's order (prefix length, then victim
  // before aggressor, w0 before w1), both entry-state variants, run through
  // ONE session at every probe voltage: each outcome must equal a fresh
  // run_sos, whichever prefix the session resumed from.
  const DramParams params;
  const Defect defect = Defect::open(OpenSite::kCell, 1e6);
  const dram::FloatingLine line = dram::floating_lines_for(defect, params)[0];
  const char* candidates[] = {
      "[w0v] w0v",          "0v [w0BL] w0v",        "0v [w1BL] w0v",
      "[w0v w0v] w0v",      "[w0v w0BL] w0v",       "[w0v w1BL] w0v",
      "[w1v w0v] w0v",      "0v [w0BL w0BL] w0v",   "[w0BL w0v] w0v",
      "[w1v w1v w0v] w0v",  "[w1v w1v w0BL] w1v",   "0v [w1BL w1BL w1BL] w0v",
      "[w1v w0BL w0v] r0v", "0v [w1BL w0BL w1BL] r0v",
  };
  SosSession session(params, defect);
  for (const char* text : candidates) {
    const Sos sos = Sos::parse(text);
    for (double u : pf::linspace(line.min_v, line.max_v, 5)) {
      SCOPED_TRACE(std::string(text) + " U=" + std::to_string(u));
      const SosOutcome fresh = run_sos(params, defect, &line, u, sos);
      const SosOutcome got = session.run(1e6, params.sim, &line, u, sos);
      EXPECT_EQ(got.final_state, fresh.final_state);
      EXPECT_EQ(got.read_result, fresh.read_result);
      EXPECT_EQ(got.faulty, fresh.faulty);
      EXPECT_EQ(got.observed.to_string(), fresh.observed.to_string());
      EXPECT_EQ(got.ffm, fresh.ffm);
    }
  }
  EXPECT_GT(session.prefix_restores(), 0u);
  EXPECT_GT(session.steps_solved(), 0u);
}

TEST(CompletionPrefixSharing, PrefixRestoresOnlyBeyondDepthOne) {
  // Depth 1 stores no prefix (a candidate's last completing write is never
  // stored); depth 2 resumes every second-level candidate from the first.
  const CompletionResult shallow = search_completing_ops(
      spec_for(kCases[1], 1, CircuitMode::kReuse, 1));
  EXPECT_EQ(shallow.prefix_restores, 0u);
  EXPECT_GT(shallow.steps_solved, 0u);
  const CompletionResult deep = search_completing_ops(
      spec_for(kCases[1], 2, CircuitMode::kReuse, 1));
  EXPECT_GT(deep.prefix_restores, 0u);
  EXPECT_GT(deep.steps_solved, shallow.steps_solved);
  // The rebuild oracle solves on fresh columns, outside any session.
  const CompletionResult rebuild = search_completing_ops(
      spec_for(kCases[1], 2, CircuitMode::kRebuild, 1));
  EXPECT_EQ(rebuild.prefix_restores, 0u);
  EXPECT_EQ(rebuild.steps_solved, 0u);
}

TEST(CompletionPrefixSharing, PoisonedSnapshotIsNeverStored) {
  // <0r0/1/1> at depth 2 has three depth-1 candidates, and each probes
  // U = 0 first. Failing the first FOUR attempts at that probe point
  // therefore also corrupts the first depth-2 candidate, [w0v w0v], which
  // is the run that solves (and would store) the [w0v] prefix. The next
  // candidate, [w0v w0BL], runs clean; had it resumed from the corrupted
  // prefix it would be accepted, where the oracle's fresh columns reject
  // it and go on to <[w1 w0] r0/1/1>.
  const DepthCase& c = kCases[0];
  const std::string key = completion_key(c.r, 0.0);
  InjectionSpec corrupt;
  corrupt.kind = InjectedFault::kCorruptVoltage;
  corrupt.fail_attempts = 4;
  InjectionSpec non_convergence;
  non_convergence.kind = InjectedFault::kNonConvergence;
  non_convergence.fail_attempts = 2;
  for (const InjectionSpec& fault : {corrupt, non_convergence}) {
    SCOPED_TRACE(fault.kind == InjectedFault::kCorruptVoltage
                     ? "kCorruptVoltage"
                     : "kNonConvergence");
    CompletionResult by_mode[2];
    for (CircuitMode mode : {CircuitMode::kRebuild, CircuitMode::kReuse}) {
      ScopedFaultPlan plan({{key, fault}});
      by_mode[mode == CircuitMode::kReuse] =
          search_completing_ops(spec_for(c, 2, mode, 1));
      EXPECT_GT(spice::testing::injections_performed(), 0u);
    }
    const CompletionResult& rebuild = by_mode[0];
    const CompletionResult& reuse = by_mode[1];
    ASSERT_EQ(reuse.possible, rebuild.possible);
    EXPECT_EQ(reuse.completed.to_string(), rebuild.completed.to_string());
    EXPECT_EQ(reuse.candidates_evaluated, rebuild.candidates_evaluated);
  }
}

TEST(CompletionPrefixSharing, PoisonedRootIsNeverStored) {
  // A corrupted first attempt of a completion probe solves the entry
  // state's initializing write AND its completing prefix. Neither snapshot
  // may survive: the clean retry at the same key, and a run at another
  // voltage that would restore the root, must equal fresh runs. (At this
  // small R_def the column is fault-free, so the outcome follows the
  // initialized 0 — which the corrupted write turned into a 1.)
  const DramParams params;
  const double r = 10e3;
  const Defect defect = Defect::open(OpenSite::kBitLineOuter, r);
  const dram::FloatingLine line = dram::floating_lines_for(defect, params)[0];
  const Sos sos = Sos::parse("0v [w1BL w1BL] r0v");
  ExperimentContext ctx;
  ctx.key = completion_key(r, 0.0);
  InjectionSpec corrupt;
  corrupt.kind = InjectedFault::kCorruptVoltage;
  corrupt.fail_attempts = 1;
  ScopedFaultPlan plan({{ctx.key, corrupt}});

  SosSession session(params, defect);
  RetryPolicy retry;
  retry.max_attempts = 1;
  run_sos_robust(session, params.sim, defect, &line, 0.0, sos, retry, ctx);
  ASSERT_GT(spice::testing::injections_performed(), 0u);
  for (double u : {0.0, 3.3}) {
    SCOPED_TRACE("U=" + std::to_string(u));
    ExperimentContext clean = ctx;
    clean.key = completion_key(r, u);
    const RobustOutcome got =
        run_sos_robust(session, params.sim, defect, &line, u, sos, retry,
                       clean);
    ASSERT_TRUE(got.solved);
    const SosOutcome fresh = run_sos(params, defect, &line, u, sos);
    EXPECT_FALSE(fresh.faulty);
    EXPECT_EQ(got.outcome.final_state, fresh.final_state);
    EXPECT_EQ(got.outcome.read_result, fresh.read_result);
    EXPECT_EQ(got.outcome.faulty, fresh.faulty);
  }
}

TEST(CompletionPrefixSharing, Table1IdenticalAcrossThreadCounts) {
  // Open 1's catalogue slice at full depth: the rows whose completions
  // need two and three completing writes, dispatched per candidate.
  Table1Options options;
  options.sites = {OpenSite::kCell};
  options.r_points = 5;
  options.u_points = 5;
  const std::string serial =
      format_table1(generate_table1(DramParams{}, options));
  EXPECT_NE(serial.find("[w1 w0]"), std::string::npos) << serial;
  for (int threads : {2, 4}) {
    options.exec.threads = threads;
    EXPECT_EQ(format_table1(generate_table1(DramParams{}, options)), serial)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace pf::analysis
