// pf_submit — submit a sweep job to a running pf_served.
//
//   pf_submit --socket /tmp/pf.sock [job flags] [--out result.csv]
//   pf_submit --socket /tmp/pf.sock --ping | --stats | --shutdown
//
// Job flags mirror pf::service::JobSpec: --defect KIND, --site N,
// --line N, --sos TEXT, --r-points N, --u-points N, --temperature C,
// --threads N, --deadline S, --throttle-ms MS.
//
// Prints the result's cache key, SHA-256 and hit/miss status; --out writes
// the CSV. --wait S absorbs busy rejections for up to S seconds, honouring
// the server's retry_after hint with capped geometric backoff, instead of
// making the caller hand-roll the retry loop. Exit status: 0 result (hit
// or computed), 3 rejected busy (retry later / wait budget exhausted),
// 2 invalid request/usage, 1 error/disconnect.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "pf/service/client.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [--defect KIND] [--site N] [--line N]\n"
      "          [--sos TEXT] [--r-points N] [--u-points N]\n"
      "          [--r-min OHMS --r-max OHMS] [--temperature C]\n"
      "          [--threads N] [--deadline S]\n"
      "          [--throttle-ms MS]\n"
      "          [--wait S] [--out FILE] [--quiet]\n"
      "       %s --socket PATH --ping|--stats|--shutdown\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string out_path;
  std::string one_shot;
  bool quiet = false;
  double wait_seconds = 0.0;
  pf::service::JobSpec job;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--socket" && has_value) socket_path = argv[++i];
    else if (arg == "--defect" && has_value) job.defect_kind = argv[++i];
    else if (arg == "--site" && has_value) job.open_site = std::atoi(argv[++i]);
    else if (arg == "--line" && has_value)
      job.floating_line_index = size_t(std::atoi(argv[++i]));
    else if (arg == "--sos" && has_value) job.sos_text = argv[++i];
    else if (arg == "--r-points" && has_value)
      job.r_points = size_t(std::atoi(argv[++i]));
    else if (arg == "--u-points" && has_value)
      job.u_points = size_t(std::atoi(argv[++i]));
    else if (arg == "--r-min" && has_value) job.r_min = std::atof(argv[++i]);
    else if (arg == "--r-max" && has_value) job.r_max = std::atof(argv[++i]);
    else if (arg == "--temperature" && has_value)
      job.temperature_c = std::atof(argv[++i]);
    else if (arg == "--threads" && has_value)
      job.threads = std::atoi(argv[++i]);
    else if (arg == "--deadline" && has_value)
      job.deadline_seconds = std::atof(argv[++i]);
    else if (arg == "--throttle-ms" && has_value)
      job.throttle_ms = std::atof(argv[++i]);
    else if (arg == "--wait" && has_value) wait_seconds = std::atof(argv[++i]);
    else if (arg == "--out" && has_value) out_path = argv[++i];
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--ping") one_shot = "ping";
    else if (arg == "--stats") one_shot = "stats";
    else if (arg == "--shutdown") one_shot = "shutdown";
    else return usage(argv[0]);
  }
  if (socket_path.empty()) return usage(argv[0]);

  if (!one_shot.empty()) {
    const pf::service::Json response =
        pf::service::request(socket_path, one_shot);
    if (response.is_null()) {
      std::fprintf(stderr, "pf_submit: no response from %s\n",
                   socket_path.c_str());
      return 1;
    }
    std::printf("%s\n", response.dump().c_str());
    return 0;
  }

  const auto progress = [quiet](size_t done, size_t total) {
    if (!quiet) {
      std::fprintf(stderr, "\rprogress %zu/%zu", done, total);
      if (done == total) std::fprintf(stderr, "\n");
      std::fflush(stderr);
    }
  };
  pf::service::SubmitOutcome outcome;
  if (wait_seconds > 0.0) {
    pf::service::WaitPolicy wait;
    wait.max_wait_seconds = wait_seconds;
    outcome = pf::service::submit_job_wait(socket_path, job, wait, progress);
    if (!quiet && outcome.busy_retries > 0)
      std::fprintf(stderr, "pf_submit: absorbed %zu busy rejection(s)\n",
                   outcome.busy_retries);
  } else {
    outcome = pf::service::submit_job(socket_path, job, progress);
  }

  using pf::service::SubmitStatus;
  switch (outcome.status) {
    case SubmitStatus::kResult: {
      std::printf("key %s sha256 %s %s\n", outcome.key.c_str(),
                  outcome.sha256.c_str(),
                  outcome.cached ? "cache-hit" : "computed");
      if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        out << outcome.csv;
        if (!out.good()) {
          std::fprintf(stderr, "pf_submit: cannot write %s\n",
                       out_path.c_str());
          return 1;
        }
      } else if (!quiet) {
        std::fputs(outcome.csv.c_str(), stdout);
      }
      return 0;
    }
    case SubmitStatus::kRejectedBusy:
      std::fprintf(stderr, "pf_submit: busy, retry after %.0f ms\n",
                   outcome.retry_after_ms);
      return 3;
    case SubmitStatus::kInvalid:
      std::fprintf(stderr, "pf_submit: rejected: %s\n",
                   outcome.error_message.c_str());
      return 2;
    case SubmitStatus::kError:
      std::fprintf(stderr, "pf_submit: server error: %s\n",
                   outcome.error_message.c_str());
      return 1;
    case SubmitStatus::kDisconnected:
      std::fprintf(stderr, "pf_submit: %s\n", outcome.error_message.c_str());
      return 1;
  }
  return 1;
}
