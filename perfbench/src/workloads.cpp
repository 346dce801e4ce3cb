#include "workloads.hpp"

#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pf/analysis/region.hpp"
#include "pf/analysis/sos_runner.hpp"
#include "pf/dram/defect.hpp"
#include "pf/march/coverage.hpp"
#include "pf/march/library.hpp"
#include "pf/util/sha256.hpp"

namespace perfbench {

using pf::dram::Defect;
using pf::dram::DramParams;

// --- catalogue ------------------------------------------------------------

pf::analysis::Table1Options catalogue_options() {
  pf::analysis::Table1Options options;
  options.exec.threads = 2;
  return options;
}

// --- march ----------------------------------------------------------------

MarchInputs make_march_inputs(std::uint64_t seed) {
  MarchInputs in;
  in.tests = pf::march::standard_tests();
  in.classes = pf::march::table1_partial_classes();
  in.sets = pf::march::standard_target_sets();
  // The default seed searches at the library's default search seed, so its
  // results are the ones the repository's own search bench reports.
  in.search_seed = seed == kDefaultSeed ? pf::march::SearchBudget{}.seed
                                        : Rng(seed).next();
  return in;
}

std::vector<pf::memsim::PopulationFault> coverage_population(
    const MarchInputs& in) {
  std::vector<pf::memsim::PopulationFault> population;
  const std::int64_t cells = in.coverage_geometry.num_cells();
  for (const pf::march::PopulationClass& c : in.classes)
    for (std::int64_t v = 0; v < cells; ++v)
      population.push_back(
          pf::memsim::PopulationFault::single(v, c.ffm, c.guard));
  return population;
}

MarchOutputs run_march(const MarchInputs& in, Tracer* tracer, int parent) {
  MarchOutputs out;
  std::ostringstream matrix;
  const auto t0 = Clock::now();
  {
    Tracer::Scope phase(tracer, "march.coverage", parent);
    for (const pf::march::MarchTest& test : in.tests) {
      Tracer::Scope span(tracer, "march.evaluate_population", phase.id());
      const auto t = Clock::now();
      const pf::march::PopulationCoverage cov = pf::march::evaluate_population(
          test, in.coverage_geometry, in.classes, pf::march::MemEngine::kPlane);
      out.test_s.push_back(seconds_since(t));
      out.cell_steps += cov.cell_steps;
      out.passes += cov.march_passes;
      matrix << test.to_string() << "\n";
      for (const pf::march::PopulationOutcome& po : cov.classes) {
        matrix << po.cls.name() << " ";
        for (bool bit : po.detected) matrix << (bit ? '1' : '0');
        matrix << "\n";
      }
    }
  }
  out.coverage_s = seconds_since(t0);
  out.coverage_matrix = matrix.str();

  std::ostringstream tests;
  const auto t1 = Clock::now();
  {
    Tracer::Scope phase(tracer, "march.search", parent);
    for (const pf::march::NamedTargetSet& set : in.sets) {
      Tracer::Scope span(tracer, "march.search_march", phase.id());
      pf::march::SearchOptions options;
      options.synthesis.geometry = in.search_geometry;
      options.synthesis.budget.seed = in.search_seed;
      const auto t = Clock::now();
      pf::march::SearchResult r = pf::march::search_march(set.targets, options);
      out.set_s.push_back(seconds_since(t));
      out.evaluations += r.evaluations;
      out.improvements += r.trace.size();
      out.certificate_evaluations += r.certificate.evaluations;
      tests << set.name << " " << r.test.to_string() << "\n";
      out.results.push_back(std::move(r));
    }
  }
  out.search_s = seconds_since(t1);
  out.search_tests = tests.str();
  return out;
}

std::string march_oracle_check(const MarchInputs& in, const MarchOutputs& out) {
  for (std::size_t i = 0; i < in.sets.size(); ++i) {
    std::vector<pf::march::PopulationClass> classes;
    for (const pf::march::TargetFault& t : in.sets[i].targets)
      classes.push_back(
          t.coupling ? pf::march::PopulationClass::coupled(*t.coupling, t.guard)
                     : pf::march::PopulationClass::single(t.ffm, t.guard));
    const auto oracle = pf::march::evaluate_population(
        out.results[i].test, in.search_geometry, classes,
        pf::march::MemEngine::kScalar);
    bool all = true;
    for (const auto& po : oracle.classes) all = all && po.outcome.detected_all;
    if (all != out.results[i].success)
      return "search result for " + in.sets[i].name +
             " disagrees with the scalar oracle";
  }
  return "";
}

// --- served ---------------------------------------------------------------

namespace {

// Sites with a floating line (0 = Open 4', the complement-line open) and
// the op-carrying base SOSes. The pool's shapes span 3..6 points per axis.
constexpr int kServedSites[] = {1, 3, 4, 5, 7, 8, 9, 0};
constexpr const char* kServedSos[] = {"0r0", "1r1", "0w1", "1w0", "0w0", "1w1"};
constexpr int kServedVariants = 16;  // pool jobs per grid shape
constexpr int kServedRepeats = 4;   // submits per pool job: 75% hits

}  // namespace

ServedStream make_served_stream(std::uint64_t seed) {
  // The pool is fixed, so every seed does the same work; the seed orders
  // the stream.
  ServedStream stream;
  std::set<std::uint64_t> keys;
  int shape = 0;
  for (std::size_t r = 3; r <= 6; ++r) {
    for (std::size_t u = 3; u <= 6; ++u, ++shape) {
      for (int v = 0; v < kServedVariants; ++v) {
        pf::service::JobSpec job;
        job.open_site = kServedSites[(shape + v) % 8];
        job.sos_text = kServedSos[(shape + v / 8) % 6];
        job.r_points = r;
        job.u_points = u;
        if (!keys.insert(job.cache_key()).second)
          throw std::logic_error("served pool has a duplicate key");
        stream.pool.push_back(job);
      }
    }
  }
  for (int k = 0; k < kServedRepeats; ++k)
    for (std::size_t i = 0; i < stream.pool.size(); ++i)
      stream.order.push_back(i);
  Rng(seed).shuffle(stream.order);
  return stream;
}

ServedHarness::ServedHarness(const std::string& work_dir,
                             const std::string& name)
    : store_(work_dir, name) {
  config_.socket_path = work_dir + "/" + name + ".sock";
  config_.store_root = store_.path();
  config_.job_workers = 2;
  config_.queue_limit = 4;  // >= clients, so no submit is ever busy-rejected
  std::filesystem::remove(config_.socket_path);
  server_ = std::make_unique<pf::service::SweepServer>(config_, token_);
  server_->start();
}

ServedHarness::~ServedHarness() {
  server_->stop();
  std::error_code ec;
  std::filesystem::remove(config_.socket_path, ec);
}

std::vector<SubmitSample> replay_stream(const ServedHarness& harness,
                                        const ServedStream& stream,
                                        Tracer* tracer, int parent) {
  std::vector<SubmitSample> samples(stream.order.size());
  std::mutex mutex;
  std::condition_variable released;
  std::size_t cursor = 0;
  std::vector<char> in_flight(stream.pool.size(), 0);

  auto client = [&] {
    for (;;) {
      std::size_t index = 0;
      std::size_t job = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (cursor == stream.order.size()) return;
        index = cursor++;
        job = stream.order[index];
        released.wait(lock, [&] { return !in_flight[job]; });
        in_flight[job] = 1;
      }
      SubmitSample& s = samples[index];
      s.job = job;
      try {
        Tracer::Scope span(tracer, "service.submit", parent);
        const auto t0 = Clock::now();
        pf::service::SubmitOutcome outcome =
            pf::service::submit_job(harness.socket(), stream.pool[job]);
        s.ms = ms_since(t0);
        s.ok = outcome.status == pf::service::SubmitStatus::kResult;
        s.cached = outcome.cached;
        s.csv = std::move(outcome.csv);
        s.error = std::move(outcome.error_message);
      } catch (const std::exception& e) {
        s.error = e.what();
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        in_flight[job] = 0;
      }
      released.notify_all();
    }
  };
  {
    std::jthread a(client);
    std::jthread b(client);
  }
  return samples;
}

// --- campaign -------------------------------------------------------------

pf::campaign::CampaignSpec make_campaign_spec(std::uint64_t seed) {
  // Three row families (defect topology x temperature), eight distinct small
  // sweeps each; every sweep appears twice, so half the jobs are dedup hits.
  // The distinct set is fixed; the seed orders the jobs.
  struct Family {
    int site;
    double temperature_c;
  };
  const Family families[] = {{4, 27.0}, {1, 27.0}, {8, 85.0}};
  std::vector<pf::campaign::CampaignJob> jobs;
  for (const Family& f : families) {
    for (int i = 0; i < 8; ++i) {
      pf::campaign::CampaignJob job;
      job.kind = pf::campaign::CampaignJob::Kind::kSweep;
      job.sweep.open_site = f.site;
      job.sweep.temperature_c = f.temperature_c;
      job.sweep.sos_text = kServedSos[i % 6];
      job.sweep.r_points = 3 + std::size_t(i % 3);
      job.sweep.u_points = 3 + std::size_t(i / 3);
      const std::string id = "open" + std::to_string(f.site) + "-t" +
                             std::to_string(int(f.temperature_c)) + "-" +
                             std::to_string(i);
      for (const char* copy : {"-a", "-b"}) {
        job.id = id + copy;
        jobs.push_back(job);
      }
    }
  }
  Rng(seed).shuffle(jobs);
  pf::campaign::CampaignSpec spec;
  spec.name = "perfbench-" + std::to_string(seed);
  spec.jobs = std::move(jobs);
  spec.validate();
  return spec;
}

CampaignRun run_campaign_twice(const pf::campaign::CampaignSpec& spec,
                               const std::string& dir, Tracer* tracer,
                               int parent) {
  pf::campaign::CampaignOptions options;
  options.store_root = dir + "/store";
  options.journal_path = dir + "/campaign.journal";
  std::map<std::string, int> open_spans;
  int pass_span = Tracer::kNoParent;
  if (tracer != nullptr) {
    options.on_event = [&](const pf::campaign::CampaignEvent& ev) {
      using Kind = pf::campaign::CampaignEvent::Kind;
      if (ev.kind == Kind::kBegin) {
        open_spans[ev.job] = tracer->begin("campaign.job", pass_span);
      } else if (ev.kind == Kind::kDone || ev.kind == Kind::kFailed) {
        const auto it = open_spans.find(ev.job);
        if (it != open_spans.end()) {
          tracer->end(it->second);
          open_spans.erase(it);
        }
      }
    };
  }

  CampaignRun run;
  {
    Tracer::Scope span(tracer, "campaign.cold", parent);
    pass_span = span.id();
    const auto t0 = Clock::now();
    run.cold.result = pf::campaign::run_campaign(spec, options);
    run.cold.seconds = seconds_since(t0);
  }
  {
    std::ifstream journal(options.journal_path, std::ios::binary);
    std::string line;
    while (std::getline(journal, line)) {
      run.journal_bytes += line.size() + 1;
      if (!line.empty() && line[0] != '#' && line.rfind("seq,", 0) != 0)
        ++run.journal_rows;
    }
  }
  {
    Tracer::Scope span(tracer, "campaign.resume", parent);
    pass_span = span.id();
    const auto t0 = Clock::now();
    run.resumed.result = pf::campaign::run_campaign(spec, options);
    run.resumed.seconds = seconds_since(t0);
  }
  return run;
}

// --- untraced workload runs -----------------------------------------------

namespace {

// Set-up is timed kSetupRepeats times before the measured phase and
// kSetupsPerIteration times before each of its iterations, so its samples
// span the whole run. setup_s is the fastest of them: a set-up takes
// milliseconds, and the shared host runs in fast and slow phases lasting
// seconds, so a median of set-ups lands in either phase depending on the
// share of the run each took, while the fastest does not.
constexpr int kSetupRepeats = 5;
constexpr int kSetupsPerIteration = 3;

/// Grid points the catalogue's sweeps evaluate (sites x lines x SOSes x
/// r_points x u_points).
std::uint64_t catalogue_grid_points(
    const pf::analysis::Table1Options& options) {
  const DramParams params;
  std::uint64_t points = 0;
  for (pf::dram::OpenSite site : options.sites) {
    const auto lines = pf::dram::floating_lines_for(Defect::open(site, 1e6),
                                                    params);
    points += lines.size() * pf::analysis::base_soses().size() *
              options.r_points * options.u_points;
  }
  return points;
}

void run_catalogue(const Args& args, Report& report) {
  const DramParams params;
  pf::analysis::Table1Options options;
  std::uint64_t points = 0;
  std::vector<double> setup, wall;
  // Inputs, plus a 2x2 sweep per catalogue site: compiles and powers up
  // each site's column and warms the sweep path before timing.
  auto set_up = [&] {
    const auto t0 = Clock::now();
    options = catalogue_options();
    points = catalogue_grid_points(options);
    for (pf::dram::OpenSite site : options.sites) {
      pf::analysis::SweepSpec spec;
      spec.params = params;
      spec.defect = Defect::open(site, options.r_min);
      spec.sos = pf::faults::Sos::parse("1r1");
      const auto line = pf::dram::floating_lines_for(spec.defect, params).at(0);
      spec.r_axis = {options.r_min, options.r_max_default};
      spec.u_axis = {line.min_v, line.max_v};
      if (pf::analysis::sweep_region(spec).failed_points() != 0)
        report.fail("warm-up sweep failed");
    }
    setup.push_back(seconds_since(t0));
  };
  for (int k = 0; k < kSetupRepeats; ++k) set_up();

  std::string digest;
  loop_for(args.seconds, 2, [&](int) {
    for (int k = 0; k < kSetupsPerIteration; ++k) set_up();
    ++report.attempted;
    const auto t0 = Clock::now();
    try {
      const std::string d = pf::sha256_hex(
          pf::analysis::format_table1(pf::analysis::generate_table1(params,
                                                                    options)));
      wall.push_back(seconds_since(t0));
      if (digest.empty()) digest = d;
      report.expect_equal("catalogue digest across iterations", digest, d);
    } catch (const std::exception& e) {
      ++report.failed;
      report.fail(std::string("generate_table1 threw: ") + e.what());
    }
  });
  report.fixed["catalogue.table1_sha256"] = pf::service::Json(digest);
  report.metric("wall_s", median(wall), "s");
  report.metric("setup_s", fastest(setup), "s");
  report.metric("throughput_per_s", double(points) / median(wall), "1/s");
}

void run_march_workload(const Args& args, Report& report) {
  MarchInputs in;
  std::vector<double> setup;
  // Test, class and target-set lists, plus the 64x64 guarded population
  // the coverage phase injects.
  auto set_up = [&] {
    const auto t0 = Clock::now();
    in = make_march_inputs(args.seed);
    const pf::memsim::PlaneMemory memory(in.coverage_geometry,
                                         coverage_population(in));
    if (memory.population_size() == 0) report.fail("empty population");
    setup.push_back(seconds_since(t0));
  };
  for (int k = 0; k < kSetupRepeats; ++k) set_up();

  // Each of the 19 calls (13 evaluate_population, 6 search_march) is timed
  // on its own, and a phase's time is the sum of its calls' fastest times:
  // a call takes 0.1-0.3 s, far shorter than the host's slow phases, so
  // every call has fast samples in a run, while whole-iteration medians
  // swung by a fifth between runs of the same code.
  std::vector<std::vector<double>> test_s(in.tests.size()),
      set_s(in.sets.size());
  std::vector<double> iteration_s;
  std::string coverage, tests;
  MarchOutputs last;
  const int iterations = loop_for(args.seconds, 2, [&](int) {
    for (int k = 0; k < kSetupsPerIteration; ++k) set_up();
    last = run_march(in, nullptr, Tracer::kNoParent);
    report.attempted += last.passes + last.evaluations;
    iteration_s.push_back(last.coverage_s + last.search_s);
    for (std::size_t i = 0; i < test_s.size(); ++i)
      test_s[i].push_back(last.test_s.at(i));
    for (std::size_t i = 0; i < set_s.size(); ++i)
      set_s[i].push_back(last.set_s.at(i));
    if (coverage.empty()) {
      coverage = pf::sha256_hex(last.coverage_matrix);
      tests = last.search_tests;
    }
    report.expect_equal("coverage digest across iterations", coverage,
                        pf::sha256_hex(last.coverage_matrix));
    report.expect_equal("search tests across iterations", tests,
                        last.search_tests);
  });
  if (const std::string err = march_oracle_check(in, last); !err.empty())
    report.fail(err);
  double coverage_s = 0.0, search_s = 0.0;
  for (const std::vector<double>& t : test_s) coverage_s += fastest(t);
  for (const std::vector<double>& t : set_s) search_s += fastest(t);
  report.fixed["march.coverage_sha256"] = pf::service::Json(coverage);
  report.seeded["march.search_sha256"] =
      pf::service::Json(pf::sha256_hex(tests));
  report.metric("wall_s", coverage_s + search_s, "s");
  report.metric("setup_s", fastest(setup), "s");
  report.metric("throughput_per_s", double(last.evaluations) / search_s,
                "1/s");
  std::fprintf(stderr,
               "march: %d iterations (median %.3f s), coverage %.3f s "
               "(%llu cell-steps), search %.3f s (%llu passes)\n",
               iterations, median(iteration_s), coverage_s,
               static_cast<unsigned long long>(last.cell_steps), search_s,
               static_cast<unsigned long long>(last.evaluations));
}

}  // namespace

void run_workload(const Args& args, Report& report) {
  if (args.workload == "catalogue")
    run_catalogue(args, report);
  else
    run_march_workload(args, report);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
