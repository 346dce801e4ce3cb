// Reproduction of the paper's Table 1: "Partial faults observed in DRAM
// simulation" — run the full fault analysis (defect injection + electrical
// simulation + partial-fault identification + completing-operation search)
// over the simulated opens and compare the resulting rows with the paper's.
//
// Also verifies the Section 4 relations on every completed fault:
//   #C_completed >= #C_partial   and   #O_completed >= #O_partial.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "pf/analysis/table1.hpp"
#include "pf/util/table.hpp"

namespace {

using namespace pf;
using analysis::Table1Row;
using dram::OpenSite;
using faults::Ffm;

/// The paper's Table 1, keyed by (FFM name, open number): completable?
/// (The paper lists "Not possible" for SF0, the Open-9 IRF0/TFdown rows and
/// the Open-1 TFup row.)
const std::map<std::pair<std::string, int>, bool> kPaperRows = {
    {{"RDF0", 1}, true},  {{"RDF0", 5}, true},  {{"RDF0", 8}, true},
    {{"RDF1", 3}, true},  {{"RDF1", 4}, true},  {{"RDF1", 5}, true},
    {{"RDF1", 8}, true},  {{"RDF1", 7}, true},  {{"DRDF1", 4}, true},
    {{"IRF0", 8}, true},  {{"IRF0", 9}, false}, {{"IRF1", 5}, true},
    {{"WDF1", 4}, true},  {{"TFup", 1}, false}, {{"TFdown", 5}, true},
    {{"TFdown", 9}, false}, {{"SF0", 9}, false},
};

void print_reproduction() {
  dram::DramParams params;
  analysis::Table1Options options;
  options.r_points = 9;
  options.u_points = 9;
  options.max_prefix_ops = 3;
  options.probe_u_points = 5;

  std::printf("running the full fault analysis (this sweeps %zu opens x 8 "
              "SOSes x %zux%zu (R_def, U) grids)...\n\n",
              options.sites.size(), options.r_points, options.u_points);
  const auto rows = analysis::generate_table1(params, options);
  std::printf("Table 1 — partial faults observed in the DRAM model:\n%s\n",
              analysis::format_table1(rows).c_str());

  // Section 4 relations.
  int relation_violations = 0;
  for (const Table1Row& row : rows) {
    if (!row.completable) continue;
    // The partial counterpart is the base (uncompleted) single-cell FP.
    const faults::Sos base = faults::canonical_fp(row.sim_ffm).sos;
    if (row.completed.sos.num_cells() < base.num_cells() ||
        row.completed.sos.num_ops() < base.num_ops())
      ++relation_violations;
  }
  std::printf("Section 4 relations (#C_c >= #C_p, #O_c >= #O_p): %s\n\n",
              relation_violations == 0 ? "hold for every completed fault"
                                       : "VIOLATED");

  // Comparison with the paper's table.
  std::set<std::pair<std::string, int>> model_keys;
  int completability_matches = 0, completability_mismatches = 0;
  for (const Table1Row& row : rows) {
    const auto key = std::make_pair(std::string(faults::ffm_name(row.sim_ffm)),
                                    dram::open_number(row.site));
    model_keys.insert(key);
    const auto it = kPaperRows.find(key);
    if (it == kPaperRows.end()) continue;
    if (it->second == row.completable)
      ++completability_matches;
    else
      ++completability_mismatches;
  }
  int paper_rows_found = 0;
  for (const auto& [key, completable] : kPaperRows)
    if (model_keys.count(key)) ++paper_rows_found;

  std::printf("paper-vs-model row comparison:\n");
  std::printf("  paper rows reproduced (same FFM at same open): %d / %zu\n",
              paper_rows_found, kPaperRows.size());
  std::printf("  completability agreement on common rows: %d match, "
              "%d differ\n",
              completability_matches, completability_mismatches);
  std::printf("  extra model rows (not in the paper): %zu\n",
              model_keys.size() - static_cast<size_t>(paper_rows_found));
  std::printf("  (deviation detail per row: EXPERIMENTS.md)\n\n");
}

void BM_OneDefectOneSosAnalysis(benchmark::State& state) {
  dram::DramParams params;
  analysis::SweepSpec spec;
  spec.params = params;
  spec.defect = dram::Defect::open(OpenSite::kBitLineOuter, 1e6);
  spec.sos = faults::Sos::parse("1r1");
  spec.r_axis = analysis::default_r_axis(5);
  spec.u_axis = analysis::default_u_axis(params, 5);
  for (auto _ : state) {
    const auto map = analysis::sweep_region(spec);
    const auto findings = analysis::identify_partial_faults(map);
    benchmark::DoNotOptimize(findings.size());
  }
}
BENCHMARK(BM_OneDefectOneSosAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // PF_BENCH_SMOKE=1 (set by the `ctest -L bench-smoke` targets) skips
  // the reproduction preamble so the smoke run only ticks one benchmark.
  if (std::getenv("PF_BENCH_SMOKE") == nullptr) {
    print_reproduction();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
