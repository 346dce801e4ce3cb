// Ablation A (the paper's Section 4 argument made quantitative): compare
// the cost of
//   (1) SMART analysis — sweep only the 12 base FPs (#O <= 1) and complete
//       the partial ones with the directed search, vs.
//   (2) STRAIGHT-FORWARD analysis — sweep every single-cell FP up to the
//       completed fault's #O and look for one that holds for all U.
// The metric is electrical SOS evaluations (the dominating cost), measured
// for the smart path and computed exactly for the naive path.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/partial.hpp"
#include "pf/faults/space.hpp"
#include "pf/util/strings.hpp"
#include "pf/util/table.hpp"

namespace {

using namespace pf;
using dram::OpenSite;

struct SmartCost {
  uint64_t base_sweep_runs = 0;
  uint64_t completion_runs = 0;
  int completed_ops = 0;
  std::string completed_fp = "-";
};

SmartCost run_smart(OpenSite site, const char* base_sos, size_t r_points,
                    size_t u_points) {
  SmartCost cost;
  const dram::DramParams params;
  analysis::SweepSpec spec;
  spec.params = params;
  spec.defect = dram::Defect::open(site, 1e6);
  spec.sos = faults::Sos::parse(base_sos);
  // Per-defect analysis range (a cell-internal open floats a 30 fF node:
  // its regime of interest tops out around a megaohm; see table1.hpp).
  const double r_max = site == OpenSite::kCell ? 1e6 : 10e6;
  spec.r_axis = pf::logspace(10e3, r_max, r_points);
  spec.u_axis = analysis::default_u_axis(params, u_points);
  // The smart method sweeps the 8 base SOSes (#O <= 1 space) once each.
  cost.base_sweep_runs = 8ull * r_points * u_points;
  const auto map = analysis::sweep_region(spec);
  const auto findings = analysis::identify_partial_faults(map);
  for (const auto& finding : findings) {
    if (!finding.partial) continue;
    analysis::CompletionSpec cspec;
    cspec.params = params;
    cspec.defect = spec.defect;
    cspec.base.sos = spec.sos;
    cspec.probe_u = analysis::default_u_axis(params, 5);
    cspec.max_prefix_ops = 3;
    const auto comp =
        analysis::complete_partial_fault(cspec, map, finding.ffm);
    cost.completion_runs += comp.sos_runs;
    if (comp.possible) {
      cost.completed_ops = comp.completed.sos.num_ops();
      cost.completed_fp = comp.completed.to_string();
    }
  }
  return cost;
}

void print_reproduction() {
  const size_t kR = 7, kU = 7;
  struct Case {
    const char* label;
    OpenSite site;
    const char* sos;
  };
  const Case cases[] = {
      {"Open 4 (bit-line open), base 1r1", OpenSite::kBitLineOuter, "1r1"},
      {"Open 1 (cell open), base 0r0", OpenSite::kCell, "0r0"},
  };
  TextTable table({"case", "completed FP", "smart runs (sweep + search)",
                   "straight-forward runs", "speedup"});
  for (const Case& c : cases) {
    const SmartCost smart = run_smart(c.site, c.sos, kR, kU);
    // Straight-forward: sweep EVERY single-cell SOS with #O up to the
    // completed fault's #O over the same grid. SOS count = FP count
    // adjusted for reads carrying 3 FP variants per swept SOS; sweeping is
    // per-SOS, so convert: #SOS(n) = 2*3^n, cumulative n=0..N (state-only
    // SOSes count 2).
    uint64_t naive_soses = 2;  // the two state-only sequences
    uint64_t pow3 = 1;
    const int max_ops = std::max(smart.completed_ops, 1);
    for (int n = 1; n <= max_ops; ++n) {
      pow3 *= 3;
      naive_soses += 2 * pow3;
    }
    const uint64_t naive_runs = naive_soses * kR * kU;
    const uint64_t smart_runs = smart.base_sweep_runs + smart.completion_runs;
    table.add_row({c.label, smart.completed_fp, std::to_string(smart_runs),
                   std::to_string(naive_runs),
                   pf::format_double(double(naive_runs) / double(smart_runs),
                                     1) +
                       "x"});
  }
  std::printf("ablation A — directed (partial-fault) analysis vs "
              "straight-forward high-#O enumeration\n(electrical SOS "
              "evaluations on a %zux%zu (R_def, U) grid):\n%s\n",
              kR, kU, table.to_string().c_str());
  std::printf("the paper's point: without the partial-fault concept the "
              "fault analysis must enumerate the exponentially larger FP "
              "space (Section 4), e.g. %llu FPs through #O = 4 instead of "
              "12.\n\n",
              static_cast<unsigned long long>(
                  faults::cumulative_single_cell_fps(4)));
}

void BM_SmartAnalysisBitLineOpen(benchmark::State& state) {
  for (auto _ : state) {
    const SmartCost cost =
        run_smart(OpenSite::kBitLineOuter, "1r1", 5, 5);
    benchmark::DoNotOptimize(cost.completion_runs);
  }
}
BENCHMARK(BM_SmartAnalysisBitLineOpen)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

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
