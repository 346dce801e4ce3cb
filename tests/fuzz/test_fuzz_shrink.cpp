// Shrinker unit properties on synthetic predicates (no electrical solves):
// greedy delta debugging must reach a 1-minimal case, keep every candidate
// well-formed, and normalize the execution mode of the repro.
#include <gtest/gtest.h>

#include "pf/testing/shrink.hpp"

namespace pf::testing {
namespace {

using faults::CellRole;
using faults::Op;
using faults::Sos;

FuzzCase big_case() {
  FuzzCase c;
  c.site = dram::OpenSite::kBitLineOuter;
  c.sos = Sos::parse("0a 1v [w1BL] w0BL r1v r0BL");
  c.r_axis = {1e4, 1e5, 1e6};
  c.u_axis = {0.0, 1.1, 2.2, 3.3};
  c.threads = 3;
  c.circuit = analysis::CircuitMode::kRebuild;
  c.tweaks = {{"c_cell", 0.9}, {"t_sense", 1.1}};
  return c;
}

TEST(FuzzShrink, ReducesGridToTheCulpritPoint) {
  // The "bug" needs R = 1e5 and U = 2.2 present in the grid.
  const auto fails = [](const FuzzCase& c) {
    const bool has_r = std::find(c.r_axis.begin(), c.r_axis.end(), 1e5) !=
                       c.r_axis.end();
    const bool has_u = std::find(c.u_axis.begin(), c.u_axis.end(), 2.2) !=
                       c.u_axis.end();
    return has_r && has_u;
  };
  const ShrinkResult r = shrink_case(big_case(), fails);
  EXPECT_EQ(r.minimal.r_axis, std::vector<double>{1e5});
  EXPECT_EQ(r.minimal.u_axis, std::vector<double>{2.2});
  EXPECT_TRUE(r.minimal.tweaks.empty());
  EXPECT_TRUE(r.minimal.sos.ops.empty()) << r.minimal.describe();
  EXPECT_GT(r.accepted, 0);
}

TEST(FuzzShrink, EveryCandidateIsWellFormed) {
  int evaluated = 0;
  const auto fails = [&](const FuzzCase& c) {
    ++evaluated;
    EXPECT_TRUE(sos_well_formed(c.sos)) << c.sos.to_string();
    // The bug needs at least one victim read.
    for (const Op& op : c.sos.ops)
      if (op.is_read() && op.target == CellRole::kVictim) return true;
    return false;
  };
  const ShrinkResult r = shrink_case(big_case(), fails);
  EXPECT_EQ(r.evaluations, evaluated);
  // 1-minimal: exactly the read (plus the initialization its digit needs).
  ASSERT_EQ(r.minimal.sos.ops.size(), 1u);
  EXPECT_TRUE(r.minimal.sos.ops[0].is_read());
  EXPECT_EQ(r.minimal.sos.ops[0].target, CellRole::kVictim);
  EXPECT_TRUE(sos_well_formed(r.minimal.sos));
}

TEST(FuzzShrink, NormalizesExecutionMode) {
  const auto fails = [](const FuzzCase&) { return true; };  // always fails
  const ShrinkResult r = shrink_case(big_case(), fails);
  EXPECT_EQ(r.minimal.threads, 1);
  EXPECT_EQ(r.minimal.circuit, analysis::CircuitMode::kReuse);
  EXPECT_EQ(r.minimal.r_axis.size(), 1u);
  EXPECT_EQ(r.minimal.u_axis.size(), 1u);
}

TEST(FuzzShrink, ReportCarriesSeedAndReproCommand) {
  const ShrinkResult r =
      shrink_case(big_case(), [](const FuzzCase&) { return true; });
  const std::string report = shrink_report(r, 0xabcd);
  EXPECT_NE(report.find("43981"), std::string::npos) << report;  // 0xabcd
  EXPECT_NE(report.find("defect_explorer 4"), std::string::npos) << report;
  EXPECT_NE(report.find(r.minimal.sos.to_string()), std::string::npos);
}

TEST(FuzzShrink, KeepsTheFailingTweakOnly) {
  const auto fails = [](const FuzzCase& c) {
    for (const ParamTweak& t : c.tweaks)
      if (t.field == "t_sense") return true;
    return false;
  };
  const ShrinkResult r = shrink_case(big_case(), fails);
  ASSERT_EQ(r.minimal.tweaks.size(), 1u);
  EXPECT_EQ(r.minimal.tweaks[0].field, "t_sense");
}

}  // namespace
}  // namespace pf::testing
