// Golden A/B for the campaign producers: the Table 1 catalogue and the
// completion search, run through a campaign, must match the pre-campaign
// implementations exactly (same rows, same completed FPs, same formatted
// table) — coarse grids, like tests/analysis/test_table1.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "pf/analysis/region.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/campaign/producers.hpp"

namespace pf::campaign {
namespace {

using analysis::Table1Options;
using analysis::Table1Row;
using dram::OpenSite;
using faults::Ffm;

Table1Options coarse(std::vector<OpenSite> sites) {
  Table1Options opt;
  opt.sites = std::move(sites);
  opt.r_points = 5;
  opt.u_points = 5;
  opt.max_prefix_ops = 1;
  opt.probe_u_points = 4;
  return opt;
}

void expect_rows_identical(const std::vector<Table1Row>& direct,
                           const std::vector<Table1Row>& via) {
  ASSERT_EQ(direct.size(), via.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].sim_ffm, via[i].sim_ffm) << "row " << i;
    EXPECT_EQ(direct[i].com_ffm, via[i].com_ffm) << "row " << i;
    EXPECT_EQ(direct[i].site, via[i].site) << "row " << i;
    EXPECT_EQ(direct[i].initialized_voltage, via[i].initialized_voltage)
        << "row " << i;
    EXPECT_EQ(direct[i].completable, via[i].completable) << "row " << i;
    EXPECT_EQ(direct[i].completed.to_string(), via[i].completed.to_string())
        << "row " << i;
    EXPECT_EQ(direct[i].min_r_def, via[i].min_r_def) << "row " << i;
    EXPECT_EQ(direct[i].band_coverage, via[i].band_coverage) << "row " << i;
  }
  EXPECT_EQ(analysis::format_table1(direct), analysis::format_table1(via));
}

TEST(CampaignProducers, Table1CampaignShapesTheExpectedDag) {
  const CampaignSpec spec = table1_campaign(coarse({OpenSite::kBitLineOuter}));
  // Open 4 floats one line: 8 base-SOS sweeps + 1 per-site analysis job.
  ASSERT_EQ(spec.jobs.size(), 9u);
  spec.validate();
  const CampaignJob& analysis_job = spec.jobs.back();
  EXPECT_EQ(analysis_job.id, "open4-analysis");
  EXPECT_EQ(analysis_job.kind, CampaignJob::Kind::kCustom);
  EXPECT_EQ(analysis_job.deps.size(), 8u);
  EXPECT_EQ(spec.jobs[0].id, "open4-line0-sos0");
  EXPECT_EQ(spec.jobs[0].sweep.sos_text, "0");
  EXPECT_EQ(spec.jobs[0].sweep.r_min, 10e3);
  EXPECT_EQ(spec.jobs[0].sweep.r_max, 10e6);
}

TEST(CampaignProducers, Table1ViaCampaignMatchesDirectGeneration) {
  const Table1Options options = coarse({OpenSite::kBitLineOuter});
  const auto direct = analysis::generate_table1(dram::DramParams{}, options);

  CampaignResult result;
  const auto via =
      generate_table1_via_campaign(options, CampaignOptions{}, &result);
  EXPECT_TRUE(result.all_done());
  expect_rows_identical(direct, via);

  // Sanity on the known Open 4 content (mirrors test_table1).
  const auto it =
      std::find_if(via.begin(), via.end(),
                   [](const Table1Row& r) { return r.sim_ffm == Ffm::kRDF1; });
  ASSERT_NE(it, via.end());
  ASSERT_TRUE(it->completable);
  EXPECT_EQ(it->completed.to_string(), "<1v [w0BL] r1v/0/0>");
}

TEST(CampaignProducers, Table1ViaCampaignSurvivesStoreAndResume) {
  const Table1Options options = coarse({OpenSite::kWordLine});
  const auto direct = analysis::generate_table1(dram::DramParams{}, options);

  const std::string dir = ::testing::TempDir() + "producers_table1";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignOptions campaign;
  campaign.store_root = dir + "/store";
  campaign.journal_path = dir + "/journal.csv";

  const auto cold = generate_table1_via_campaign(options, campaign);
  expect_rows_identical(direct, cold);

  // A full re-run restores everything from the journal/store — analysis
  // included — and still reassembles the identical table.
  CampaignResult resumed_result;
  const auto resumed =
      generate_table1_via_campaign(options, campaign, &resumed_result);
  EXPECT_GE(resumed_result.stats.resumed, resumed_result.jobs.size() - 1);
  expect_rows_identical(direct, resumed);
}

TEST(CampaignProducers, CompletionCampaignMatchesDirectSearch) {
  service::JobSpec sweep;
  sweep.defect_kind = "open";
  sweep.open_site = 4;
  sweep.sos_text = "1r1";
  sweep.r_points = 5;
  sweep.u_points = 5;

  CompletionCampaignOptions options;
  options.ffm = Ffm::kRDF1;
  options.probe_u_points = 4;
  options.max_prefix_ops = 1;

  // Direct: sweep + search, the pre-campaign wiring.
  const analysis::SweepSpec sspec = sweep.to_sweep_spec();
  const analysis::RegionMap map = analysis::sweep_region(sspec);
  analysis::CompletionSpec cspec;
  cspec.params = sspec.params;
  cspec.defect = sspec.defect;
  cspec.floating_line_index = sspec.floating_line_index;
  cspec.base.sos = sspec.sos;
  const auto lines = dram::floating_lines_for(sspec.defect, sspec.params);
  cspec.probe_u = pf::linspace(lines[0].min_v, lines[0].max_v,
                               options.probe_u_points);
  cspec.max_prefix_ops = options.max_prefix_ops;
  const analysis::CompletionResult direct =
      analysis::complete_partial_fault(cspec, map, options.ffm);

  const CampaignSpec spec = completion_campaign(sweep, options);
  ASSERT_EQ(spec.jobs.size(), 2u);
  const CampaignResult result = run_campaign(spec, CampaignOptions{});
  ASSERT_TRUE(result.all_done());
  const analysis::CompletionResult via = completion_from_result(result);

  EXPECT_EQ(direct.possible, via.possible);
  ASSERT_TRUE(via.possible);
  EXPECT_EQ(direct.completed.to_string(), via.completed.to_string());
  EXPECT_EQ(direct.candidates_evaluated, via.candidates_evaluated);
  EXPECT_EQ(direct.sos_runs, via.sos_runs);
}

TEST(CampaignProducers, CompletionCampaignResumesWithItsRecordedRuns) {
  service::JobSpec sweep;
  sweep.defect_kind = "open";
  sweep.open_site = 4;
  sweep.sos_text = "1r1";
  sweep.r_points = 5;
  sweep.u_points = 5;
  CompletionCampaignOptions options;
  options.ffm = Ffm::kRDF1;
  options.probe_u_points = 4;
  options.max_prefix_ops = 1;
  const CampaignSpec spec = completion_campaign(sweep, options);
  // Campaign journals written before the completion search dropped its
  // fallback windows carry this fingerprint, so they still resume.
  EXPECT_EQ(spec.fingerprint(), 0x995111ffbc2fc7b9ULL);

  const std::string dir = ::testing::TempDir() + "producers_completion";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignOptions campaign;
  campaign.store_root = dir + "/store";
  campaign.journal_path = dir + "/journal.csv";
  const CampaignResult cold = run_campaign(spec, campaign);
  ASSERT_TRUE(cold.all_done());
  const CampaignResult resumed = run_campaign(spec, campaign);
  ASSERT_TRUE(resumed.all_done());
  EXPECT_EQ(resumed.stats.resumed, 2u);  // neither job re-runs
  const analysis::CompletionResult recorded = completion_from_result(cold);
  const analysis::CompletionResult restored = completion_from_result(resumed);
  EXPECT_EQ(restored.completed.to_string(), recorded.completed.to_string());
  EXPECT_EQ(restored.candidates_evaluated, recorded.candidates_evaluated);
  EXPECT_EQ(restored.sos_runs, recorded.sos_runs);
}

TEST(CampaignProducers, SearchCampaignMatchesDirectSearch) {
  SearchCampaignOptions options;
  options.max_evaluations = 500;
  options.sets = {march::standard_target_sets().back()};  // cfst-pair

  const CampaignSpec spec = search_campaign(options);
  ASSERT_EQ(spec.jobs.size(), 2u);  // one set + summary
  spec.validate();
  EXPECT_EQ(spec.jobs[0].id, "search-cfst-pair");
  const CampaignResult result = run_campaign(spec, CampaignOptions{});
  ASSERT_TRUE(result.all_done());

  const auto entries = search_from_result(spec, result);
  ASSERT_EQ(entries.size(), 1u);

  // Direct run with the same knobs: identical test (the search is
  // deterministic, the campaign only wraps it).
  march::SearchOptions direct_options;
  direct_options.synthesis.geometry = options.geometry;
  direct_options.synthesis.budget.seed = options.seed;
  direct_options.synthesis.budget.max_evaluations = options.max_evaluations;
  const march::SearchResult direct =
      march::search_march(options.sets[0].targets, direct_options);
  EXPECT_EQ(entries[0].test.to_string(), direct.test.to_string());
  EXPECT_EQ(entries[0].success, direct.success);
  EXPECT_EQ(entries[0].ops_per_cell, direct.ops_per_cell);
  EXPECT_EQ(entries[0].certificate_complete, direct.certificate.complete);
}

TEST(CampaignProducers, SearchCampaignJournalsAndResumesIncumbents) {
  const std::string dir = ::testing::TempDir() + "producers_search";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SearchCampaignOptions options;
  options.max_evaluations = 500;
  options.sets = {march::standard_target_sets().back()};  // cfst-pair
  options.incumbent_dir = dir + "/incumbents";

  CampaignOptions campaign;
  campaign.journal_path = dir + "/journal.csv";

  const CampaignSpec spec = search_campaign(options);
  const CampaignResult cold = run_campaign(spec, campaign);
  ASSERT_TRUE(cold.all_done());
  const auto cold_entries = search_from_result(spec, cold);
  ASSERT_EQ(cold_entries.size(), 1u);

  // Per-improvement journaling left the best incumbent on disk, parseable
  // and identical to the returned test (the last improvement IS the best).
  const std::string incumbent_path =
      options.incumbent_dir + "/cfst-pair.incumbent";
  ASSERT_TRUE(std::filesystem::exists(incumbent_path));
  std::ifstream in(incumbent_path);
  std::string notation;
  std::getline(in, notation);
  EXPECT_EQ(march::MarchTest::parse(notation).to_string(),
            cold_entries[0].test.to_string());

  // Resume: the journal restores the DONE job without re-running it.
  const CampaignResult resumed = run_campaign(search_campaign(options),
                                              campaign);
  ASSERT_TRUE(resumed.all_done());
  EXPECT_GE(resumed.stats.resumed, 1u);
  const auto resumed_entries =
      search_from_result(search_campaign(options), resumed);
  EXPECT_EQ(resumed_entries[0].test.to_string(),
            cold_entries[0].test.to_string());

  // A cold re-run (fresh journal) seeds the search from the journaled
  // incumbent: with a ZERO budget the optimizer cannot rediscover the 5N
  // test, so reproducing it proves the incumbent file was loaded.
  SearchCampaignOptions warm = options;
  warm.max_evaluations = 0;
  CampaignOptions fresh;
  const CampaignSpec warm_spec = search_campaign(warm);
  const CampaignResult warm_result = run_campaign(warm_spec, fresh);
  ASSERT_TRUE(warm_result.all_done());
  const auto warm_entries = search_from_result(warm_spec, warm_result);
  EXPECT_EQ(warm_entries[0].test.to_string(),
            cold_entries[0].test.to_string());
  EXPECT_LT(warm_entries[0].ops_per_cell, 6);  // better than greedy's 6N
}

}  // namespace
}  // namespace pf::campaign
