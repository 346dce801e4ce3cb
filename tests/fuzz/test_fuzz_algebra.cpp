// Pure-algebra property suite: generator well-formedness, SOS notation
// round-trips and the 0<->1 data-complement symmetry of FP classification.
// No electrical simulation — the iteration budget is generous.
#include <gtest/gtest.h>

#include <cstdlib>

#include "pf/analysis/table1.hpp"
#include "pf/faults/ffm.hpp"
#include "pf/testing/generators.hpp"

namespace pf::testing {
namespace {

using faults::Ffm;
using faults::FaultPrimitive;
using faults::Sos;

TEST(FuzzAlgebra, GeneratedSosesAreWellFormedAndRoundTrip) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(2000);
  SCOPED_TRACE(fuzz_banner("algebra.sos", seed, iters));
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const Sos sos = random_sos(rng);
    ASSERT_TRUE(sos_well_formed(sos)) << sos.to_string();
    const Sos reparsed = Sos::parse(sos.to_string());
    ASSERT_EQ(reparsed, sos) << sos.to_string();
  }
}

TEST(FuzzAlgebra, ClassificationCommutesWithDataComplement) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(2000);
  SCOPED_TRACE(fuzz_banner("algebra.complement", seed, iters));
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    FaultPrimitive fp;
    fp.sos = random_sos(rng);
    // Random <F, R> that deviates somewhere, so fp is a fault whenever the
    // taxonomy has a slot for it.
    const int expect_f = fp.sos.expected_final_victim();
    fp.faulty_state = expect_f >= 0 ? 1 - expect_f
                                    : static_cast<int>(rng.next_below(2));
    const int expect_r = fp.sos.expected_read();
    fp.read_result =
        expect_r < 0 ? -1
                     : (rng.next_bool() ? 1 - expect_r : expect_r);
    const Ffm direct = faults::classify(fp);
    const Ffm mirrored = faults::classify(fp.complement());
    ASSERT_EQ(mirrored, faults::complement_ffm(direct))
        << fp.to_string() << " -> " << faults::ffm_name(direct)
        << " but complement " << fp.complement().to_string() << " -> "
        << faults::ffm_name(mirrored);
    // The complement is an involution on the classification.
    ASSERT_EQ(faults::classify(fp.complement().complement()), direct);
  }
}

TEST(FuzzAlgebra, CanonicalFpsClassifyBackToTheirFfm) {
  for (const Ffm ffm : faults::all_ffms()) {
    ASSERT_EQ(faults::classify(faults::canonical_fp(ffm)), ffm);
    ASSERT_EQ(faults::complement_ffm(faults::complement_ffm(ffm)), ffm);
  }
}

TEST(FuzzAlgebra, TweaksStayInRangeAndApply) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(500);
  SCOPED_TRACE(fuzz_banner("algebra.tweaks", seed, iters));
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const auto tweaks = random_tweaks(rng, 3);
    ASSERT_LE(tweaks.size(), 3u);
    for (const ParamTweak& t : tweaks) {
      ASSERT_GE(t.factor, 0.85);
      ASSERT_LE(t.factor, 1.18);
      const auto& fields = tweakable_fields();
      ASSERT_NE(std::find(fields.begin(), fields.end(), t.field),
                fields.end());
    }
    (void)apply_tweaks(tweaks);  // must not throw for generated tweaks
  }
  EXPECT_THROW(apply_tweaks({{"vdd", 1.1}}), pf::Error)
      << "supplies must not be tweakable";
}

TEST(FuzzAlgebra, GeneratedCasesAreRunnableExperiments) {
  const uint64_t seed = fuzz_seed();
  const int iters = fuzz_iters(500);
  SCOPED_TRACE(fuzz_banner("algebra.cases", seed, iters));
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    const FuzzCase c = random_case(rng);
    ASSERT_TRUE(sos_well_formed(c.sos)) << c.describe();
    ASSERT_FALSE(c.r_axis.empty());
    ASSERT_FALSE(c.u_axis.empty());
    ASSERT_TRUE(std::is_sorted(c.r_axis.begin(), c.r_axis.end()));
    ASSERT_TRUE(std::is_sorted(c.u_axis.begin(), c.u_axis.end()));
    const pf::Interval range = analysis::site_r_range(c.site, {});
    ASSERT_GE(c.r_axis.front(), range.lo * 0.999);
    ASSERT_LE(c.r_axis.back(), range.hi * 1.001);
    // The repro recipe carries the seed and a runnable command.
    const std::string repro = c.repro(seed);
    ASSERT_NE(repro.find("PF_TEST_SEED"), std::string::npos);
    ASSERT_NE(repro.find("defect_explorer"), std::string::npos);
  }
}

TEST(FuzzAlgebra, SeedAndItersEnvOverrides) {
  // Save the invoker's settings; this test owns the env only briefly.
  const char* old_seed = std::getenv("PF_TEST_SEED");
  const std::string saved_seed = old_seed ? old_seed : "";
  const char* old_iters = std::getenv("PF_FUZZ_ITERS");
  const std::string saved_iters = old_iters ? old_iters : "";

  ASSERT_EQ(setenv("PF_TEST_SEED", "12345", 1), 0);
  ASSERT_EQ(setenv("PF_FUZZ_ITERS", "7", 1), 0);
  EXPECT_EQ(fuzz_seed(), 12345u);
  EXPECT_EQ(fuzz_iters(100), 7);
  ASSERT_EQ(setenv("PF_TEST_SEED", "0xdead", 1), 0);
  EXPECT_EQ(fuzz_seed(), 0xdeadu);
  ASSERT_EQ(setenv("PF_TEST_SEED", "not-a-number", 1), 0);
  EXPECT_EQ(fuzz_seed(), kDefaultFuzzSeed);
  ASSERT_EQ(setenv("PF_FUZZ_ITERS", "-3", 1), 0);
  EXPECT_EQ(fuzz_iters(100), 100);
  unsetenv("PF_TEST_SEED");
  unsetenv("PF_FUZZ_ITERS");
  EXPECT_EQ(fuzz_seed(), kDefaultFuzzSeed);
  EXPECT_EQ(fuzz_iters(42), 42);

  if (!saved_seed.empty()) setenv("PF_TEST_SEED", saved_seed.c_str(), 1);
  if (!saved_iters.empty()) setenv("PF_FUZZ_ITERS", saved_iters.c_str(), 1);
}

}  // namespace
}  // namespace pf::testing
