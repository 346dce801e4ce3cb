// The benchmark's workloads. Each is built from the run's seed (the engine
// only ever sees the generated JobSpecs / CampaignSpec / search seed),
// driven through the public APIs of pf::analysis, pf::march, pf::service
// and pf::campaign, and checked for correct output.
//
//   catalogue  generate_table1 at 2 workers: spice + dram + analysis
//   march      coverage matrix (64x64, plane engine) + search_march (4x2):
//              memsim + march only, no electrical simulation
//
// The service layer (closed-loop clients against an in-process
// SweepServer: socket, JSON, admission, verified cache, commits, journals)
// and the campaign layer (run_campaign cold, then resumed from its
// journal) are measured by the traced run only: their times swing with
// the shared host's scheduling and small-file I/O by more than any bound
// on an end-to-end metric can absorb.
//
// run_workload measures one workload untraced (end-to-end metrics);
// run_layers (layers.cpp) is the traced per-layer run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/campaign/runner.hpp"
#include "pf/campaign/spec.hpp"
#include "pf/march/search.hpp"
#include "pf/memsim/plane_memory.hpp"
#include "pf/service/client.hpp"
#include "pf/service/job.hpp"
#include "pf/service/server.hpp"
#include "trace.hpp"

namespace perfbench {

inline const std::vector<std::string> kWorkloads = {"catalogue", "march"};

// --- catalogue ------------------------------------------------------------

/// Table1Options{} with two workers per sweep and probe grid.
pf::analysis::Table1Options catalogue_options();

// --- march ----------------------------------------------------------------

struct MarchInputs {
  std::vector<pf::march::MarchTest> tests;
  std::vector<pf::march::PopulationClass> classes;
  std::vector<pf::march::NamedTargetSet> sets;
  pf::memsim::Geometry coverage_geometry{64, 64};
  pf::memsim::Geometry search_geometry{4, 2};
  std::uint64_t search_seed = 0;
};

MarchInputs make_march_inputs(std::uint64_t seed);

/// The coverage phase's population: every class at every victim of the
/// 64x64 array, as evaluate_population injects it.
std::vector<pf::memsim::PopulationFault> coverage_population(
    const MarchInputs& in);

struct MarchOutputs {
  std::string coverage_matrix;  ///< detected bits per test x class
  std::string search_tests;     ///< the six returned tests, march notation
  std::uint64_t cell_steps = 0;
  std::uint64_t passes = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t improvements = 0;
  std::uint64_t certificate_evaluations = 0;
  std::vector<pf::march::SearchResult> results;
  std::vector<double> test_s;  ///< phase (a) seconds per test, in tests order
  std::vector<double> set_s;   ///< phase (b) seconds per target set
  double coverage_s = 0.0;
  double search_s = 0.0;
};

/// Phase (a) then phase (b); spans per test / target set when traced.
MarchOutputs run_march(const MarchInputs& in, Tracer* tracer, int parent);
/// Every search result detects its targets on the kScalar oracle; returns
/// an error message or "".
std::string march_oracle_check(const MarchInputs& in, const MarchOutputs& out);

// --- served ---------------------------------------------------------------

/// The fixed pool of small jobs and the seeded submit stream over it: every
/// pool job is submitted kServedRepeats times in a seeded order, so the
/// first submit of a key is a miss and the rest are verified cache hits.
struct ServedStream {
  std::vector<pf::service::JobSpec> pool;
  std::vector<std::size_t> order;  ///< indices into pool
};

ServedStream make_served_stream(std::uint64_t seed);

struct SubmitSample {
  std::size_t job = 0;
  double ms = 0.0;
  bool cached = false;
  bool ok = false;
  std::string csv;
  std::string error;
};

/// An in-process server on a fresh store, torn down with the object.
class ServedHarness {
 public:
  ServedHarness(const std::string& work_dir, const std::string& name);
  ~ServedHarness();
  ServedHarness(const ServedHarness&) = delete;
  ServedHarness& operator=(const ServedHarness&) = delete;

  const std::string& socket() const { return config_.socket_path; }
  pf::service::SweepServer& server() { return *server_; }

 private:
  ScratchDir store_;
  pf::service::ServerConfig config_;
  pf::CancellationToken token_;
  std::unique_ptr<pf::service::SweepServer> server_;
};

/// Two closed-loop clients replay the stream; a key is never re-submitted
/// while it is in flight. Returns one sample per submit, in stream order.
std::vector<SubmitSample> replay_stream(const ServedHarness& harness,
                                        const ServedStream& stream,
                                        Tracer* tracer, int parent);

// --- campaign -------------------------------------------------------------

pf::campaign::CampaignSpec make_campaign_spec(std::uint64_t seed);

struct CampaignPass {
  pf::campaign::CampaignResult result;
  double seconds = 0.0;
};

/// Cold pass into a fresh store + journal under `dir`, then a second
/// run_campaign on the same journal that restores every job.
struct CampaignRun {
  CampaignPass cold;
  CampaignPass resumed;
  std::uint64_t journal_rows = 0;
  std::uint64_t journal_bytes = 0;
};
CampaignRun run_campaign_twice(const pf::campaign::CampaignSpec& spec,
                               const std::string& dir, Tracer* tracer,
                               int parent);

// --- entry points ---------------------------------------------------------

void run_workload(const Args& args, Report& report);
void run_layers(const Args& args, Report& report);

}  // namespace perfbench
