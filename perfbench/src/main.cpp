// pf_perfbench: one run of one benchmark workload.
//
//   pf_perfbench --workload catalogue|march --seed N
//                --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics; --trace 1 is the traced run that reports the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics, plus the digests and exact counts ("fixed", "seeded") that
// perfbench/run.py checks against references and earlier runs, and the
// compiler and build type. Exit code
// 0 when every output check passed, 1 when one failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "pf_perfbench: %s\nusage: pf_perfbench --workload "
               "catalogue|march --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload")
        args.workload = value;
      else if (flag == "--seed")
        args.seed = std::stoull(value);
      else if (flag == "--seconds")
        args.seconds = std::stod(value);
      else if (flag == "--trace")
        args.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir")
        args.work_dir = value;
      else
        return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::kWorkloads)
    known = known || w == args.workload;
  if (!known) return usage("unknown workload");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    if (args.trace)
      perfbench::run_layers(args, report);
    else
      perfbench::run_workload(args, report);
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  for (const std::string& e : report.errors)
    std::fprintf(stderr, "pf_perfbench: CHECK FAILED: %s\n", e.c_str());
  pf::service::Json out = report.to_json();
  pf::service::JsonObject build;
  build["compiler"] = pf::service::Json(PF_PERFBENCH_COMPILER);
  build["build_type"] = pf::service::Json(PF_PERFBENCH_BUILD_TYPE);
  out.set("build", pf::service::Json(std::move(build)));
  std::printf("%s\n", out.dump().c_str());
  return report.correct ? 0 : 1;
}
