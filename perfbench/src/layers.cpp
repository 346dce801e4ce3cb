// The traced run: per-layer metrics of every module a workload loads,
// measured from outside by timing the calls the benchmark makes into each
// layer (spans in trace.hpp), and by reading the counters the public APIs
// already return (SimStats, SweepStats, PopulationCoverage, SearchResult,
// ServerStats, CacheStats, CampaignStats). Every traced run reports every
// per-layer metric, so each layer is probed here whichever workload the
// run names; the named workload additionally gets one untraced pass of its
// measured phase, and the difference is its tracing overhead.
#include "pf/analysis/region.hpp"
#include "pf/analysis/sos_runner.hpp"
#include "pf/campaign/producers.hpp"
#include "pf/dram/column.hpp"
#include "pf/march/coverage.hpp"
#include "pf/march/library.hpp"
#include "pf/util/grid.hpp"
#include "pf/util/sha256.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pf::dram::Defect;
using pf::dram::DramParams;
using pf::dram::OpenSite;
using pf::service::Json;

constexpr int kProbeRepeats = 25;

void count(Report& report, const std::string& name, double value) {
  report.metric(name, value, "count");
}

/// An exact count that must repeat run to run: reported as a metric and
/// recorded for the drift guard (seed-independent or per seed).
void exact(Report& report, const std::string& name, double value,
           bool seeded, const std::string& unit = "count") {
  report.metric(name, value, unit);
  (seeded ? report.seeded : report.fixed)["exact." + name] = Json(value);
}

// spice: one catalogue sweep (Open 4, line 0, 1r1, 9x9) replayed point by
// point through SosSession::run. The column's SimStats travel with its
// snapshots, so after each run they count that experiment's whole
// trajectory from power-up; the session restores the shared power-up and
// initializing writes from a snapshot, so us_per_step is amortised over
// steps that were partly restored rather than solved.
void probe_spice(Tracer& tracer, int parent, Report& report) {
  Tracer::Scope span(&tracer, "spice.replay", parent);
  const DramParams params;
  const pf::analysis::Table1Options options = catalogue_options();
  const Defect defect = Defect::open(OpenSite::kBitLineOuter, options.r_min);
  const pf::dram::FloatingLine line =
      pf::dram::floating_lines_for(defect, params).at(0);
  const pf::faults::Sos sos = pf::faults::Sos::parse("1r1");
  pf::analysis::SosSession session(params, defect);
  pf::spice::SimStats total;
  const auto t0 = Clock::now();
  for (double r : pf::logspace(options.r_min, options.r_max_default,
                               options.r_points))
    for (double u : pf::linspace(line.min_v, line.max_v, options.u_points)) {
      Tracer::Scope point(&tracer, "spice.point", span.id());
      session.run(r, params.sim, &line, u, sos);
      const pf::spice::SimStats& s = session.column().sim_stats();
      total.steps += s.steps;
      total.nr_iterations += s.nr_iterations;
      total.rejected_steps += s.rejected_steps;
    }
  const double secs = seconds_since(t0);
  const double steps = double(total.steps);
  const double nr = double(total.nr_iterations);
  exact(report, "spice.steps", steps, false);
  exact(report, "spice.nr_iterations", nr, false);
  exact(report, "spice.rejected_steps", double(total.rejected_steps), false);
  report.metric("spice.nr_per_step", nr / steps, "ratio");
  report.metric("spice.us_per_step", secs * 1e6 / steps, "us");
}

// dram: column construction with power-up, full operations and reset().
void probe_dram(Tracer& tracer, int parent, Report& report) {
  Tracer::Scope span(&tracer, "dram.probe", parent);
  const DramParams params;
  const Defect defect = Defect::open(OpenSite::kBitLineOuter, 1e5);
  std::vector<double> build_ms, op_us, reset_us;
  for (int k = 0; k < kProbeRepeats; ++k) {
    Tracer::Scope s(&tracer, "dram.build", span.id());
    const auto t0 = Clock::now();
    const pf::dram::DramColumn column(params, defect);
    build_ms.push_back(ms_since(t0));
  }
  pf::dram::DramColumn column(params, defect);
  for (int k = 0; k < kProbeRepeats; ++k) {
    {
      Tracer::Scope s(&tracer, "dram.op", span.id());
      const auto t0 = Clock::now();
      column.write(pf::dram::DramColumn::kVictim, k % 2);
      op_us.push_back(ms_since(t0) * 1e3);
    }
    {
      Tracer::Scope s(&tracer, "dram.op", span.id());
      const auto t0 = Clock::now();
      if (column.read(pf::dram::DramColumn::kVictim) != k % 2)
        report.fail("dram probe read back the wrong value");
      op_us.push_back(ms_since(t0) * 1e3);
    }
    // A restamp first, as between sweep rows: reset() then replays
    // power-up instead of restoring its snapshot.
    column.set_defect_resistance(k % 2 ? 1e5 : 2e5);
    Tracer::Scope s(&tracer, "dram.reset", span.id());
    const auto t0 = Clock::now();
    column.reset();
    reset_us.push_back(ms_since(t0) * 1e3);
  }
  report.metric("dram.build_ms", median(build_ms), "ms");
  report.metric("dram.op_us", median(op_us), "us");
  report.metric("dram.reset_us", median(reset_us), "us");
}

// analysis: generate_table1 under getrusage (untraced), then the same
// catalogue through generate_table1_via_campaign with a span per sweep job
// and per site-analysis (completion) job. Returns {untraced, traced} wall.
std::pair<double, double> probe_analysis(Tracer& tracer, int parent,
                                         const Args& args, Report& report) {
  const pf::analysis::Table1Options options = catalogue_options();
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  const std::string direct = pf::analysis::format_table1(
      pf::analysis::generate_table1(DramParams{}, options));
  const double untraced = seconds_since(t0);
  const double cpu = cpu_seconds() - c0;
  report.metric("analysis.cpu_s", cpu, "s");
  report.metric("analysis.parallel_efficiency",
                cpu / (options.exec.threads * untraced), "ratio");
  report.fixed["catalogue.table1_sha256"] = Json(pf::sha256_hex(direct));

  Tracer::Scope span(&tracer, "analysis.catalogue", parent);
  ScratchDir dir(args.work_dir, "layers-catalogue");
  pf::campaign::CampaignOptions campaign;
  campaign.store_root = dir.path() + "/store";
  campaign.exec = options.exec;
  std::map<std::string, int> open;
  campaign.on_event = [&](const pf::campaign::CampaignEvent& ev) {
    using Kind = pf::campaign::CampaignEvent::Kind;
    const bool completion = ev.job.find("analysis") != std::string::npos;
    if (ev.kind == Kind::kBegin)
      open[ev.job] = tracer.begin(
          completion ? "analysis.completion" : "analysis.sweep", span.id());
    else if ((ev.kind == Kind::kDone || ev.kind == Kind::kFailed) &&
             open.count(ev.job))
      tracer.end(open[ev.job]);
  };
  pf::campaign::CampaignResult result;
  const auto t1 = Clock::now();
  const std::string via = pf::analysis::format_table1(
      pf::campaign::generate_table1_via_campaign(options, campaign, &result));
  const double traced = seconds_since(t1);
  report.expect_equal("Table 1 via campaign vs generate_table1", direct, via);

  // SweepStats of every sweep, from the manifests the campaign committed.
  pf::service::ResultCache cache(campaign.store_root);
  double attempted = 0, failed = 0, retries = 0;
  for (const auto& [id, jr] : result.jobs) {
    if (jr.key.empty()) continue;
    std::string csv;
    Json manifest;
    if (!cache.get(std::stoull(jr.key, nullptr, 16), &csv, &manifest)) {
      report.fail("no cache entry for catalogue sweep " + id);
      continue;
    }
    const Json& stats = manifest.get("stats");
    attempted += stats.number_or("attempted", 0);
    failed += stats.number_or("failed", 0);
    retries += stats.number_or("retries", 0);
  }
  report.attempted += std::uint64_t(attempted);
  report.failed += std::uint64_t(failed) + result.stats.failed +
                   result.stats.blocked;
  const double sweep_s = tracer.total_seconds("analysis.sweep");
  report.metric("analysis.sweep_s", sweep_s, "s");
  report.metric("analysis.completion_s",
                tracer.total_seconds("analysis.completion"), "s");
  report.metric("analysis.point_us", sweep_s * 1e6 / attempted, "us");
  exact(report, "analysis.points_attempted", attempted, false);
  count(report, "analysis.points_failed", failed);
  count(report, "analysis.retries", retries);
  return {untraced, traced};
}

// memsim + march: PlaneMemory build and march pass cost on the 64x64
// guarded population, then the march workload traced. Returns the traced
// wall time of the workload's measured phase.
double probe_march(Tracer& tracer, int parent, const Args& args,
                   Report& report) {
  const MarchInputs in = make_march_inputs(args.seed);
  const pf::march::MarchTest test = pf::march::march_pf();
  std::vector<double> build_ms, ns_per_step;
  for (int k = 0; k < 3; ++k) {
    Tracer::Scope span(&tracer, "memsim.population", parent);
    auto population = coverage_population(in);
    const auto t0 = Clock::now();
    pf::memsim::PlaneMemory memory(in.coverage_geometry, std::move(population));
    build_ms.push_back(ms_since(t0));
    const auto t1 = Clock::now();
    pf::march::run_march_population(test, memory,
                                    in.coverage_geometry.num_cells());
    ns_per_step.push_back(seconds_since(t1) * 1e9 /
                          double(memory.lane_steps()));
  }
  report.metric("memsim.build_ms", median(build_ms), "ms");
  report.metric("memsim.ns_per_cell_step", median(ns_per_step), "ns");

  Tracer::Scope span(&tracer, "march.workload", parent);
  const auto t0 = Clock::now();
  const MarchOutputs out = run_march(in, &tracer, span.id());
  const double traced = seconds_since(t0);
  if (const std::string err = march_oracle_check(in, out); !err.empty())
    report.fail(err);
  report.attempted += out.passes + out.evaluations;
  report.fixed["march.coverage_sha256"] =
      Json(pf::sha256_hex(out.coverage_matrix));
  report.seeded["march.search_sha256"] = Json(pf::sha256_hex(out.search_tests));
  exact(report, "march.coverage.cell_steps", double(out.cell_steps), false);
  exact(report, "march.coverage.passes", double(out.passes), false);
  exact(report, "march.search.evaluations", double(out.evaluations), true);
  exact(report, "march.search.improvements", double(out.improvements), true);
  exact(report, "march.search.certificate_evaluations",
        double(out.certificate_evaluations), true);
  report.metric("march.search.us_per_pass",
                out.search_s * 1e6 / double(out.evaluations), "us");
  return traced;
}

// service: protocol floor, cache read/commit, direct compute, and the
// served stream traced (enough replays for >= 10 samples beyond p99 of
// both hits and misses). Checks every submit's result: the first submit of
// a key is its only miss, every submit of a key returns the same CSV, and
// that CSV equals a direct sweep_region.
void probe_service(Tracer& tracer, int parent, const Args& args,
                   Report& report) {
  const ServedStream stream = make_served_stream(args.seed);
  std::vector<double> ping_ms, get_ms, commit_ms, compute_ms, hit_ms, miss_ms;
  std::vector<std::string> csv(stream.pool.size());
  pf::service::CacheStats cache;
  std::size_t accepted = 0, rejected = 0, hits_served = 0;
  for (int k = 0; k < 4; ++k) {
    ServedHarness harness(args.work_dir, "layers-served-" + std::to_string(k));
    if (k == 0) {
      for (int i = 0; i < kProbeRepeats; ++i) {
        Tracer::Scope s(&tracer, "service.ping", parent);
        const auto t0 = Clock::now();
        if (pf::service::request(harness.socket(), "ping")
                .string_or("event", "") != "pong")
          report.fail("server did not answer ping");
        ping_ms.push_back(ms_since(t0));
      }
    }
    Tracer::Scope span(&tracer, "service.replay", parent);
    const std::vector<SubmitSample> samples =
        replay_stream(harness, stream, &tracer, span.id());
    std::vector<char> seen(stream.pool.size(), 0);
    for (const SubmitSample& s : samples) {
      ++report.attempted;
      if (!s.ok) {
        ++report.failed;
        report.fail("submit failed: " + s.error);
        continue;
      }
      // Submits of one key are serialized, so its first is the miss.
      if (s.cached != bool(seen[s.job]))
        report.fail("unexpected cache " +
                    std::string(s.cached ? "hit" : "miss") + " for " +
                    stream.pool[s.job].describe());
      seen[s.job] = 1;
      (s.cached ? hit_ms : miss_ms).push_back(s.ms);
      if (csv[s.job].empty()) csv[s.job] = s.csv;
      if (csv[s.job] != s.csv)
        report.fail("two submits of one key returned different CSVs");
    }
    const pf::service::ServerStats st = harness.server().stats();
    const pf::service::CacheStats cs = harness.server().cache().stats();
    accepted += st.accepted;
    rejected +=
        st.rejected_queue_full + st.rejected_in_flight + st.rejected_invalid;
    hits_served += st.cache_hits_served;
    cache.hits += cs.hits;
    cache.misses += cs.misses;
    cache.quarantined += cs.quarantined;

    if (k == 0) {
      // A warm entry read straight from the server's cache.
      const std::uint64_t key = stream.pool[0].cache_key();
      for (int i = 0; i < kProbeRepeats; ++i) {
        Tracer::Scope s(&tracer, "service.cache_get", parent);
        std::string body;
        Json manifest;
        const auto t1 = Clock::now();
        if (!harness.server().cache().get(key, &body, &manifest))
          report.fail("warm cache entry missing");
        get_ms.push_back(ms_since(t1));
      }
    }
  }

  // Direct compute of every pool job, and commits of the first results to a
  // side cache.
  {
    ScratchDir side(args.work_dir, "layers-side-cache");
    pf::service::ResultCache side_cache(side.path());
    for (std::size_t i = 0; i < stream.pool.size(); ++i) {
      const auto t0 = Clock::now();
      const std::string direct =
          pf::analysis::sweep_region(stream.pool[i].to_sweep_spec()).to_csv();
      compute_ms.push_back(ms_since(t0));
      if (direct != csv[i])
        report.fail("served result of " + stream.pool[i].describe() +
                    " differs from a direct sweep_region");
      if (commit_ms.size() < std::size_t(kProbeRepeats)) {
        Tracer::Scope s(&tracer, "service.commit", parent);
        const auto t1 = Clock::now();
        side_cache.commit(stream.pool[i], direct,
                          Json(pf::service::JsonObject{}));
        commit_ms.push_back(ms_since(t1));
      }
    }
  }

  std::string all;
  for (const std::string& c : csv) all += pf::sha256_hex(c);
  report.fixed["served.results_sha256"] = Json(pf::sha256_hex(all));
  const double submits = double(hit_ms.size() + miss_ms.size());
  report.metric("service.ping_ms", median(ping_ms), "ms");
  report.metric("service.cache_get_ms", median(get_ms), "ms");
  report.metric("service.commit_ms", median(commit_ms), "ms");
  report.metric("service.miss_compute_ms", median(compute_ms), "ms");
  report.metric("service.miss_wait_ms",
                median(miss_ms) - median(compute_ms) - median(commit_ms),
                "ms");
  count(report, "service.accepted", double(accepted));
  count(report, "service.rejected", double(rejected));
  count(report, "service.cache_hits", double(cache.hits));
  count(report, "service.cache_misses", double(cache.misses));
  count(report, "service.quarantined", double(cache.quarantined));
  const double hit_ratio = double(hits_served) / submits;
  report.metric("service.hit_ratio", hit_ratio, "ratio");
  if (double(hit_ms.size()) != hit_ratio * submits || hit_ratio != 0.75)
    report.fail("served hit ratio differs from the stream's 0.75");
  report.metric("served.hit_p50_ms", percentile(hit_ms, 50), "ms");
  report.metric("served.hit_p99_ms", percentile(hit_ms, 99), "ms");
  report.metric("served.miss_p50_ms", percentile(miss_ms, 50), "ms");
  report.metric("served.miss_p99_ms", percentile(miss_ms, 99), "ms");
  count(report, "served.hit_samples", double(hit_ms.size()));
  count(report, "served.miss_samples", double(miss_ms.size()));
}

// campaign: one cold + resumed pair traced, a span per executed job.
void probe_campaign(Tracer& tracer, int parent, const Args& args,
                      Report& report) {
  const pf::campaign::CampaignSpec spec = make_campaign_spec(args.seed);
  ScratchDir dir(args.work_dir, "layers-campaign");
  Tracer::Scope span(&tracer, "campaign.workload", parent);
  const CampaignRun run = run_campaign_twice(spec, dir.path(), &tracer,
                                             span.id());
  const pf::campaign::CampaignStats& st = run.cold.result.stats;
  report.attempted += spec.jobs.size();
  report.failed += st.failed + st.blocked;
  report.expect_equal("campaign report, cold vs resumed",
                      run.cold.result.report(spec),
                      run.resumed.result.report(spec));
  report.seeded["campaign.report_sha256"] =
      Json(pf::sha256_hex(run.cold.result.report(spec)));
  const double restored = double(run.resumed.result.stats.resumed);
  if (restored != double(spec.jobs.size()))
    report.fail("resume did not restore every job");
  report.metric("campaign.job_ms_p50",
                median(tracer.durations("campaign.job")) * 1e3, "ms");
  report.metric("campaign.resume_s", run.resumed.seconds, "s");
  report.metric("campaign.resume_job_us", run.resumed.seconds * 1e6 / restored,
                "us");
  exact(report, "campaign.dedup_ratio",
        double(st.dedup_hits) / double(spec.jobs.size()), false, "ratio");
  report.metric("campaign.session_hit_ratio",
                double(st.session_hits) /
                    double(st.session_hits + st.session_misses),
                "ratio");
  exact(report, "campaign.journal_rows", double(run.journal_rows), true);
  exact(report, "campaign.journal_bytes", double(run.journal_bytes), true);
}

}  // namespace

void run_layers(const Args& args, Report& report) {
  Tracer tracer;
  double traced = 0.0, untraced = 0.0;
  {
    Tracer::Scope root(&tracer, "run", Tracer::kNoParent);
    probe_spice(tracer, root.id(), report);
    probe_dram(tracer, root.id(), report);
    const auto [table1_untraced, table1_traced] =
        probe_analysis(tracer, root.id(), args, report);
    const double march = probe_march(tracer, root.id(), args, report);
    probe_service(tracer, root.id(), args, report);
    probe_campaign(tracer, root.id(), args, report);

    // The named workload's measured phase once more, untraced.
    if (args.workload == "catalogue") {
      traced = table1_traced;
      untraced = table1_untraced;
    } else {
      traced = march;
      const auto t0 = Clock::now();
      run_march(make_march_inputs(args.seed), nullptr, Tracer::kNoParent);
      untraced = seconds_since(t0);
    }
  }
  report.metric("trace.overhead_s", traced - untraced, "s");
  count(report, "trace.spans", double(tracer.size()));
  if (!tracer.write_chrome_json(args.work_dir + "/trace.json"))
    report.fail("could not write the trace file");
}

}  // namespace perfbench
