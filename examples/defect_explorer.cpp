// Defect explorer: interactive reproduction of the paper's fault-analysis
// method for any open defect and SOS.
//
// Usage: defect_explorer [--threads N] [--deadline S] [open_number] [sos]
//                        [r_points] [u_points] [journal]
//   defect_explorer                 # Open 4, SOS "1r1"  (paper Figure 3a)
//   defect_explorer 4 "1v [w0BL] r1v"   # Figure 3(b)
//   defect_explorer 1 "0r0" 13 12       # Figure 4(a) at high resolution
//   defect_explorer 9 "1r1" 13 12 /tmp/wl   # checkpoint each sweep to
//       /tmp/wl-line<i>.csv; rerunning resumes instead of re-simulating
//   defect_explorer --threads 8 1 "0r0" 13 12   # same map, 8 sweep workers
//       (--threads 0 = one per hardware thread; results are bit-identical
//       for any thread count, only wall-clock changes)
//   defect_explorer --deadline 300 ...  # give up after 300 s wall clock
//   defect_explorer --no-reuse ...      # rebuild the circuit per grid point
//       instead of restamping one compiled template (A/B escape hatch; same
//       map bit for bit, slower)
//   defect_explorer --adaptive ...      # trace row boundaries instead of
//       evaluating every U point: seed, bisect disagreements, infer the
//       rest (exact for bands wider than the seed stride)
//
// Graceful shutdown: SIGINT/SIGTERM trips a cooperative cancellation token;
// in-flight grid points drain, the journal is flushed, and the process
// exits with status 75 (EX_TEMPFAIL, "interrupted — resumable"). Rerun the
// same command line to resume. A SECOND signal during the drain forces an
// immediate exit with status 70 (EX_SOFTWARE) — a stuck worker must never
// make the process unkillable by Ctrl-C.
//
// --wedge-on-interrupt is a test hook (used by the escalating-shutdown
// integration test): after the cooperative drain completes the process
// parks forever instead of exiting, simulating a shutdown path that hangs,
// so the second-signal escape hatch can be exercised deterministically.
//
// Prints the (R_def, U) region map, the partial-fault classification per
// observed FFM, and — for each partial fault — the completing operations
// found by the search.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/partial.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/util/cancellation.hpp"
#include "pf/util/error.hpp"

namespace {

pf::dram::OpenSite site_of(int number) {
  using pf::dram::OpenSite;
  static const OpenSite kSites[] = {
      OpenSite::kNone,         OpenSite::kCell,       OpenSite::kRefCell,
      OpenSite::kPrecharge,    OpenSite::kBitLineOuter,
      OpenSite::kBitLineMid,   OpenSite::kBitLineSense,
      OpenSite::kSenseAmp,     OpenSite::kIoPath,     OpenSite::kWordLine};
  if (number < 1 || number > 9) {
    std::fprintf(stderr, "open number must be 1..9\n");
    std::exit(1);
  }
  return kSites[number];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pf;
  int threads = 1;
  double deadline = 0.0;
  bool reuse = true;
  bool adaptive = false;
  bool wedge_on_interrupt = false;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-reuse") == 0) {
      reuse = false;
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      adaptive = true;
    } else if (std::strcmp(argv[i], "--wedge-on-interrupt") == 0) {
      wedge_on_interrupt = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads needs a worker count\n");
        return 1;
      }
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--deadline needs a wall-clock budget in s\n");
        return 1;
      }
      deadline = std::atof(argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  const int open_number = args.size() > 0 ? std::atoi(args[0]) : 4;
  const std::string sos_text = args.size() > 1 ? args[1] : "1r1";
  const size_t r_points =
      args.size() > 2 ? std::strtoul(args[2], nullptr, 10) : 9;
  const size_t u_points =
      args.size() > 3 ? std::strtoul(args[3], nullptr, 10) : 10;
  const std::string journal_prefix = args.size() > 4 ? args[4] : "";

  // SIGINT/SIGTERM trip this token; every sweep and completion search below
  // shares it, so one signal (or the deadline) stops the whole run.
  pf::SignalCancellation on_signal;
  analysis::ExecutionPolicy exec;
  exec.threads = threads;
  exec.cancel = on_signal.token();
  exec.deadline_seconds = deadline;
  exec.plan.circuit_mode = reuse ? analysis::CircuitMode::kReuse
                                 : analysis::CircuitMode::kRebuild;
  exec.plan.adaptive = adaptive;

  analysis::SweepSpec spec;
  spec.params = dram::DramParams{};
  spec.defect = dram::Defect::open(site_of(open_number), 1e6);
  spec.sos = faults::Sos::parse(sos_text);
  spec.r_axis = analysis::default_r_axis(r_points);

  const auto lines = dram::floating_lines_for(spec.defect, spec.params);
  if (lines.empty()) {
    std::fprintf(stderr, "defect has no floating lines\n");
    return 1;
  }
  try {
    for (size_t li = 0; li < lines.size(); ++li) {
      spec.floating_line_index = li;
      spec.u_axis = pf::linspace(lines[li].min_v, lines[li].max_v, u_points);
      std::printf("analyzing %s, floating line '%s', SOS %s ...\n",
                  dram::defect_name(spec.defect).c_str(),
                  lines[li].label.c_str(), spec.sos.to_string().c_str());
      exec.journal_path =
          journal_prefix.empty()
              ? std::string()
              : journal_prefix + "-line" + std::to_string(li) + ".csv";
      const auto sweep_t0 = std::chrono::steady_clock::now();
      const analysis::RegionMap map = analysis::sweep_region(spec, exec);
      const double sweep_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - sweep_t0)
                                 .count();
      std::printf("%s\n",
                  map.render("FP regions in the (R_def, U) plane").c_str());
      const analysis::SweepStats& stats = map.solve_stats();
      std::printf("  sweep: %zu points in %.2f s (%.0f points/s), circuit "
                  "mode %s\n",
                  spec.r_axis.size() * spec.u_axis.size(), sweep_s,
                  static_cast<double>(spec.r_axis.size() *
                                      spec.u_axis.size()) /
                      sweep_s,
                  reuse ? "template-reuse" : "per-point rebuild (--no-reuse)");
      if (stats.resumed > 0 || stats.failed > 0 || stats.retries > 0)
        std::printf("  solver: %zu attempted, %zu resumed from journal, "
                    "%zu retries, %zu unsolved\n",
                    stats.attempted, stats.resumed, stats.retries,
                    stats.failed);
      if (stats.journal_dropped > 0)
        std::printf("  journal: %zu corrupt row(s) dropped and re-run\n",
                    stats.journal_dropped);

      for (const auto& finding : analysis::identify_partial_faults(map)) {
        std::printf("  %s: %s  (min R_def %.0f kOhm, widest band %s, "
                    "coverage %.0f%%)\n",
                    faults::ffm_name(finding.ffm).data(),
                    finding.partial ? "PARTIAL fault" : "full fault",
                    finding.min_r_def / 1e3,
                    finding.band_hull.to_string().c_str(),
                    100.0 * finding.best_coverage);
        if (!finding.partial) continue;

        analysis::CompletionSpec cspec;
        cspec.exec = exec;
        cspec.exec.journal_path.clear();  // probes are not journaled
        cspec.params = spec.params;
        cspec.defect = spec.defect;
        cspec.floating_line_index = li;
        cspec.base.sos = spec.sos;
        cspec.probe_r = analysis::choose_probe_rows(map, finding.ffm, 2);
        cspec.probe_u = pf::linspace(lines[li].min_v, lines[li].max_v, 5);
        {
          // Observe the base <F, R> at the band centre.
          dram::Defect probe = spec.defect;
          probe.resistance = cspec.probe_r.front();
          const auto out = analysis::run_sos(
              spec.params, probe, &lines[li],
              (finding.band_hull.lo + finding.band_hull.hi) / 2, spec.sos);
          cspec.base.faulty_state = out.final_state;
          cspec.base.read_result = out.read_result;
        }
        const auto comp = analysis::search_completing_ops(cspec);
        if (comp.possible) {
          std::printf("    completed as %s  (%d candidates",
                      comp.completed.to_string().c_str(),
                      comp.candidates_evaluated);
        } else {
          std::printf("    completing operations: Not possible "
                      "(%d candidates tried",
                      comp.candidates_evaluated);
        }
        std::printf(", %llu runs, %llu steps solved, %llu prefix restores)\n",
                    static_cast<unsigned long long>(comp.sos_runs),
                    static_cast<unsigned long long>(comp.steps_solved),
                    static_cast<unsigned long long>(comp.prefix_restores));
      }
      std::printf("\n");
    }
  } catch (const pf::CancelledError& e) {
    // Everything completed before the trip is journaled (flushed per row);
    // the run is resumable from exactly where it stopped.
    std::fprintf(stderr, "\ninterrupted — resumable: %s\n", e.what());
    if (!journal_prefix.empty())
      std::fprintf(stderr,
                   "resume with the SAME command line; journaled points "
                   "under %s-line*.csv are skipped\n",
                   journal_prefix.c_str());
    else
      std::fprintf(stderr,
                   "hint: pass a journal path (5th positional argument) to "
                   "make interrupted runs resumable\n");
    if (wedge_on_interrupt) {
      // Test hook: simulate a drain that never finishes. The only way out
      // is the second-signal forced exit (_exit(pf::kExitForced)).
      std::fprintf(stderr, "wedged (test hook); send a second signal\n");
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    return pf::kExitInterrupted;
  }
  return 0;
}
