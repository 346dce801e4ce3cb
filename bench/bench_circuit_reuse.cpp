// A/B measurement of the circuit lifecycle: the same Figure 3 sweep (Open
// 4, SOS 1r1, 13x12 (R_def, U) grid) swept single-threaded in both modes:
//   * CircuitMode::kRebuild — netlist + template + power-up reconstructed
//     for every grid point (the PR 1 engine's lifecycle);
//   * CircuitMode::kReuse (default) — one CircuitTemplate compiled per
//     sweep, per-worker columns restamped through ParamHandles and reset()
//     per point.
// The maps must stay identical across both modes; only wall clock moves.
//
// Set PF_DUMP_JSON=1 to write BENCH_circuit_reuse.json next to the binary
// (mirrors bench_parallel_scaling). The recorded copy lives in results/.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "pf/analysis/region.hpp"
#include "pf/analysis/sos_runner.hpp"

namespace {

using namespace pf;

// Serial throughput of the seed engine (dense per-point rebuild) on this
// exact grid, as recorded in results/BENCH_parallel_scaling.json before the
// compile-once pipeline landed. Kept here so speedup-vs-seed survives the
// seed code path's removal.
constexpr double kSeedPointsPerSec = 545.554;

analysis::SweepSpec fig3_spec() {
  analysis::SweepSpec spec;
  spec.params = dram::DramParams{};
  spec.defect = dram::Defect::open(dram::OpenSite::kBitLineOuter, 1e6);
  spec.sos = faults::Sos::parse("1r1");
  spec.r_axis = analysis::default_r_axis(13);
  spec.u_axis = analysis::default_u_axis(spec.params, 12);
  return spec;
}

struct ModeTiming {
  const char* mode = "";
  double seconds = 0.0;
  double points_per_sec = 0.0;
  bool bit_identical = true;  // vs the kRebuild reference map
};

ModeTiming time_mode(const analysis::SweepSpec& spec, const char* name,
                     const analysis::ExecutionPolicy& policy,
                     const std::string& reference_csv) {
  const auto t0 = std::chrono::steady_clock::now();
  const analysis::RegionMap map = analysis::sweep_region(spec, policy);
  ModeTiming t;
  t.mode = name;
  t.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  t.points_per_sec =
      static_cast<double>(spec.r_axis.size() * spec.u_axis.size()) /
      t.seconds;
  t.bit_identical =
      reference_csv.empty() || map.to_csv() == reference_csv;
  return t;
}

void print_reproduction() {
  const analysis::SweepSpec spec = fig3_spec();
  const size_t n_points = spec.r_axis.size() * spec.u_axis.size();

  analysis::sweep_region(spec);  // untimed warm-up (cold caches, allocator)

  analysis::ExecutionPolicy rebuild;
  rebuild.circuit_mode = analysis::CircuitMode::kRebuild;
  const std::string reference_csv =
      analysis::sweep_region(spec, rebuild).to_csv();

  analysis::ExecutionPolicy reuse;  // the default: CircuitMode::kReuse

  const ModeTiming timings[] = {
      time_mode(spec, "rebuild", rebuild, ""),
      time_mode(spec, "reuse", reuse, reference_csv),
  };
  const double rebuild_s = timings[0].seconds;

  std::printf("circuit modes vs per-point rebuild, %zux%zu grid "
              "(%zu points), single thread:\n",
              spec.r_axis.size(), spec.u_axis.size(), n_points);
  std::printf("  seed engine (recorded)   %7.1f points/sec\n",
              kSeedPointsPerSec);
  for (const ModeTiming& t : timings) {
    std::printf("  %-16s %6.3f s  %7.1f points/sec  %.2fx vs rebuild  "
                "%.2fx vs seed  %s",
                t.mode, t.seconds, t.points_per_sec, rebuild_s / t.seconds,
                t.points_per_sec / kSeedPointsPerSec,
                t.bit_identical ? "bit-identical\n" : "MAP DIFFERS\n");
  }
  std::printf("\n");

  if (std::getenv("PF_DUMP_JSON") != nullptr) {
    std::ofstream out("BENCH_circuit_reuse.json");
    out << "{\n"
        << "  \"grid\": \"" << spec.r_axis.size() << "x"
        << spec.u_axis.size() << "\",\n"
        << "  \"grid_points\": " << n_points << ",\n"
        << "  \"defect\": \"Open 4 (bit line outer)\",\n"
        << "  \"sos\": \"" << spec.sos.to_string() << "\",\n"
        << "  \"threads\": 1,\n"
        << "  \"seed_points_per_sec\": " << kSeedPointsPerSec << ",\n"
        << "  \"modes\": [\n";
    const size_t n_modes = std::size(timings);
    for (size_t i = 0; i < n_modes; ++i) {
      const ModeTiming& t = timings[i];
      out << "    {\"mode\": \"" << t.mode << "\""
          << ", \"seconds\": " << t.seconds
          << ", \"points_per_sec\": " << t.points_per_sec
          << ", \"speedup_vs_rebuild\": " << rebuild_s / t.seconds
          << ", \"speedup_vs_seed\": " << t.points_per_sec / kSeedPointsPerSec
          << ", \"bit_identical_to_rebuild\": "
          << (t.bit_identical ? "true" : "false") << "}"
          << (i + 1 < n_modes ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote BENCH_circuit_reuse.json\n");
  }
}

// One SOS experiment with the column stack rebuilt from the netlist up —
// the per-point cost of CircuitMode::kRebuild.
void BM_SosExperimentRebuild(benchmark::State& state) {
  const dram::DramParams params;
  const auto defect = dram::Defect::open(dram::OpenSite::kBitLineOuter, 1e6);
  const auto lines = dram::floating_lines_for(defect, params);
  const auto sos = faults::Sos::parse("1r1");
  for (auto _ : state) {
    const auto out = analysis::run_sos(params, defect, &lines[0], 0.0, sos);
    benchmark::DoNotOptimize(out.faulty);
  }
}
BENCHMARK(BM_SosExperimentRebuild)->Unit(benchmark::kMillisecond);

// The sweep hot path: a persistent SosSession restamped + reset per
// experiment (within a row the reset is a pristine-snapshot restore).
void BM_SosExperimentReused(benchmark::State& state) {
  const dram::DramParams params;
  const auto defect = dram::Defect::open(dram::OpenSite::kBitLineOuter, 1e6);
  const auto lines = dram::floating_lines_for(defect, params);
  const auto sos = faults::Sos::parse("1r1");
  analysis::SosSession session(params, defect);
  for (auto _ : state) {
    const auto out =
        session.run(defect.resistance, params.sim, &lines[0], 0.0, sos);
    benchmark::DoNotOptimize(out.faulty);
  }
}
BENCHMARK(BM_SosExperimentReused)->Unit(benchmark::kMillisecond);

// A full 12-point row through sweep_region in each lifecycle, so the A/B
// includes the engine's own bookkeeping (retry wrapper, merge, stats).
void BM_SweepRow(benchmark::State& state) {
  analysis::SweepSpec spec = fig3_spec();
  spec.r_axis = {1e6};
  analysis::ExecutionPolicy policy;
  policy.circuit_mode = state.range(0) != 0
                                 ? analysis::CircuitMode::kReuse
                                 : analysis::CircuitMode::kRebuild;
  for (auto _ : state) {
    const auto map = analysis::sweep_region(spec, policy);
    benchmark::DoNotOptimize(map.count(faults::Ffm::kRDF1));
  }
  state.SetLabel(state.range(0) != 0 ? "reuse" : "rebuild");
}
BENCHMARK(BM_SweepRow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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
