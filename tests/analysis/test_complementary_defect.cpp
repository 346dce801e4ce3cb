// Empirical verification of the complementary-defect mapping [Al-Ars00]
// behind Table 1's "Com. FFM" column: the mirrored bit-line open (Open 4',
// the same open on the COMPLEMENT line) must produce the data-complement of
// Open 4's partial fault, with the data-complement completing operation.
#include <gtest/gtest.h>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/partial.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramParams;
using dram::OpenSite;
using faults::Ffm;
using faults::Sos;

RegionMap sweep(OpenSite site, const char* sos) {
  SweepSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(site, 1e6);
  spec.sos = Sos::parse(sos);
  spec.r_axis = pf::logspace(100e3, 10e6, 5);
  spec.u_axis = pf::linspace(0.0, 3.3, 6);
  return sweep_region(spec);
}

TEST(ComplementaryDefect, MirroredOpenYieldsComplementFfm) {
  // Open 4 + SOS 1r1 -> partial RDF1. Open 4' + the complement SOS 0r0 ->
  // partial RDF0 (= complement_ffm(RDF1)).
  const RegionMap original = sweep(OpenSite::kBitLineOuter, "1r1");
  const RegionMap mirrored = sweep(OpenSite::kBitLineOuterComp, "0r0");
  const auto f_orig = identify_partial_faults(original);
  const auto f_mirr = identify_partial_faults(mirrored);
  ASSERT_EQ(f_orig.size(), 1u);
  ASSERT_EQ(f_mirr.size(), 1u);
  EXPECT_EQ(f_orig[0].ffm, Ffm::kRDF1);
  EXPECT_EQ(f_mirr[0].ffm, faults::complement_ffm(f_orig[0].ffm));
  EXPECT_TRUE(f_mirr[0].partial);
}

TEST(ComplementaryDefect, SecondFfmPairAlsoMirrors) {
  // Open 4 also produces a partial RDF0 on 0r0 (floating BT high); the
  // mirrored defect produces the complementary partial RDF1 on 1r1
  // (floating BC high) — the second paired row of Table 1.
  const RegionMap original = sweep(OpenSite::kBitLineOuter, "0r0");
  const RegionMap mirrored = sweep(OpenSite::kBitLineOuterComp, "1r1");
  const auto f_orig = identify_partial_faults(original);
  const auto f_mirr = identify_partial_faults(mirrored);
  ASSERT_EQ(f_orig.size(), 1u);
  ASSERT_EQ(f_mirr.size(), 1u);
  EXPECT_EQ(f_orig[0].ffm, Ffm::kRDF0);
  EXPECT_EQ(f_mirr[0].ffm, faults::complement_ffm(f_orig[0].ffm));
}

TEST(ComplementaryDefect, CompletingOperationIsTheDataComplement) {
  // Open 4: <1v [w0BL] r1v/0/0>.  Open 4': <0v [w1BL] r0v/1/1> — exactly
  // the FP complement, as Table 1's paired rows state.
  const RegionMap map = sweep(OpenSite::kBitLineOuterComp, "0r0");
  CompletionSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(OpenSite::kBitLineOuterComp, 1e6);
  spec.base.sos = Sos::parse("0r0");
  spec.probe_u = pf::linspace(0.0, 3.3, 5);
  spec.max_prefix_ops = 1;
  const CompletionResult result =
      complete_partial_fault(spec, map, Ffm::kRDF0);
  ASSERT_TRUE(result.possible);
  EXPECT_EQ(result.completed.to_string(), "<0v [w1BL] r0v/1/1>");
  EXPECT_EQ(result.completed.to_string(),
            faults::FaultPrimitive::parse("<1v [w0BL] r1v/0/0>")
                .complement()
                .to_string());
}

TEST(ComplementaryDefect, MirroredBandIsAtHighFloatVoltages) {
  // Open 4's RDF1 band sits at LOW floating voltage; the mirrored defect's
  // RDF0 band sits at... also LOW complement-line voltage (the complement
  // line must fail to balance the read of a 0) — but against the
  // *complement data*, which is the point of the mapping.
  const RegionMap mirrored = sweep(OpenSite::kBitLineOuterComp, "0r0");
  const size_t top = mirrored.grid().height() - 1;
  const auto band = mirrored.u_band(Ffm::kRDF0, top);
  ASSERT_FALSE(band.empty());
  EXPECT_LT(band.hull().hi, 2.5) << "band bounded above";
}

TEST(ComplementaryDefect, NamedAndNumbered) {
  EXPECT_EQ(dram::defect_name(Defect::open(OpenSite::kBitLineOuterComp, 1e6)),
            "Open 4'");
  EXPECT_EQ(dram::open_number(OpenSite::kBitLineOuterComp), 4);
  const auto lines = dram::floating_lines_for(
      Defect::open(OpenSite::kBitLineOuterComp, 1e6), DramParams{});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].label, "Bit line (complement)");
}

}  // namespace
}  // namespace pf::analysis
