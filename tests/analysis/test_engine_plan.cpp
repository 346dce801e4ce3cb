// The SosSession::set_sim_options override travelling through clone() (the
// per-worker fan-out path of every EnginePlan).
#include <gtest/gtest.h>

#include "pf/analysis/sos_runner.hpp"

namespace pf::analysis {
namespace {

TEST(EnginePlan, SetSimOptionsIsCarriedIntoClones) {
  // The session-level options override must survive clone(): the parallel
  // sweep fans a configured prototype out to per-worker replicas, and a
  // replica solving with different numerics would silently break the
  // bit-identity contract.
  const dram::DramParams params;
  const auto defect = dram::Defect::open(dram::OpenSite::kBitLineOuter, 1e6);
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
  const faults::Sos sos = faults::Sos::parse("1r1");
  const SosOutcome reused = replica.run(1e6, tightened, &lines[0], 1.1, sos);
  dram::DramParams fresh_params = params;
  fresh_params.sim = tightened;
  const SosOutcome fresh = run_sos(fresh_params, defect, &lines[0], 1.1, sos);
  EXPECT_EQ(reused.final_state, fresh.final_state);
  EXPECT_EQ(reused.read_result, fresh.read_result);
  EXPECT_EQ(reused.faulty, fresh.faulty);
  EXPECT_EQ(reused.ffm, fresh.ffm);
}

}  // namespace
}  // namespace pf::analysis
