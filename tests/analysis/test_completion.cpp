// Completing-operation search and the Section 4 relations between partial
// and completed faults.
#include <gtest/gtest.h>

#include <algorithm>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/partial.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramParams;
using dram::OpenSite;
using faults::Ffm;
using faults::Sos;

const DramParams& params() {
  static const DramParams p;
  return p;
}

TEST(Completion, FindsBitLineCompleterForPartialRdf1) {
  // The paper's flagship example: Open 4 partial RDF1 is completed by a
  // write-0 somewhere on the victim's bit line.
  SweepSpec sweep;
  sweep.params = params();
  sweep.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  sweep.sos = Sos::parse("1r1");
  sweep.r_axis = pf::logspace(100e3, 10e6, 4);
  sweep.u_axis = pf::linspace(0.0, 3.3, 5);
  const RegionMap map = sweep_region(sweep);

  CompletionSpec spec;
  spec.params = params();
  spec.defect = sweep.defect;
  spec.base = faults::FaultPrimitive::parse("<1r1/0/0>");
  spec.probe_r = partial_rows(map, Ffm::kRDF1);
  ASSERT_FALSE(spec.probe_r.empty());
  spec.probe_u = pf::linspace(0.0, 3.3, 5);
  spec.max_prefix_ops = 2;

  const CompletionResult result = search_completing_ops(spec);
  ASSERT_TRUE(result.possible);
  // The completed FP keeps the RDF1 behaviour and uses completing ops.
  EXPECT_EQ(faults::classify(result.completed), Ffm::kRDF1);
  EXPECT_TRUE(result.completed.sos.has_completing_ops());
  EXPECT_GT(result.sos_runs, 0u);

  // Section 4 relations: the completed fault has at least as many cells and
  // operations as its partial counterpart.
  const auto base = Sos::parse("1r1");
  EXPECT_GE(result.completed.sos.num_cells(), base.num_cells());
  EXPECT_GE(result.completed.sos.num_ops(), base.num_ops());
}

TEST(Completion, CompletedFpForBitLineOpenIsThePapersRow) {
  // With victim-first candidate ordering the search lands exactly on the
  // paper's Table 1 entry for Opens 3-5: <1v [w0BL] r1v/0/0>.
  SweepSpec sweep;
  sweep.params = params();
  sweep.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  sweep.sos = Sos::parse("1r1");
  sweep.r_axis = pf::logspace(300e3, 10e6, 3);
  sweep.u_axis = pf::linspace(0.0, 3.3, 5);
  const RegionMap map = sweep_region(sweep);

  CompletionSpec spec;
  spec.params = params();
  spec.defect = sweep.defect;
  spec.base = faults::FaultPrimitive::parse("<1r1/0/0>");
  spec.probe_r = partial_rows(map, Ffm::kRDF1);
  spec.probe_u = pf::linspace(0.0, 3.3, 5);
  spec.max_prefix_ops = 1;
  const CompletionResult result = search_completing_ops(spec);
  ASSERT_TRUE(result.possible);
  EXPECT_EQ(result.completed.to_string(), "<1v [w0BL] r1v/0/0>");
}

TEST(Completion, WordLineStateFaultNotPossible) {
  // Open 9: the floating word line cannot be manipulated by memory
  // operations, so the SF0 cannot be completed (Table 1 "Not possible").
  CompletionSpec spec;
  spec.params = params();
  spec.defect = Defect::open(OpenSite::kWordLine, 100e6);
  spec.base = faults::FaultPrimitive::parse("<0/1/->");
  spec.probe_r = {100e6};
  spec.probe_u = {0.0, params().vpp};  // gate low and gate high
  spec.max_prefix_ops = 2;
  const CompletionResult result = search_completing_ops(spec);
  EXPECT_FALSE(result.possible);
  EXPECT_GT(result.candidates_evaluated, 0);
}

TEST(Completion, ProbeRowSelectionSpreadsRows) {
  SweepSpec sweep;
  sweep.params = params();
  sweep.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  sweep.sos = Sos::parse("1r1");
  sweep.r_axis = pf::logspace(100e3, 10e6, 6);
  sweep.u_axis = pf::linspace(0.0, 3.3, 5);
  const RegionMap map = sweep_region(sweep);
  const auto rows = partial_rows(map, Ffm::kRDF1);
  ASSERT_GE(rows.size(), 2u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_LT(rows.front(), rows.back());
  // No probe rows for an FFM that never appears.
  EXPECT_TRUE(partial_rows(map, Ffm::kWDF0).empty());
}

TEST(Completion, RejectsEmptyProbes) {
  CompletionSpec spec;
  spec.params = params();
  spec.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  spec.base = faults::FaultPrimitive::parse("<1r1/0/0>");
  EXPECT_THROW(search_completing_ops(spec), pf::Error);
}

}  // namespace
}  // namespace pf::analysis
