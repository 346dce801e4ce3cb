#include "pf/campaign/producers.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>

#include "pf/dram/defect.hpp"
#include "pf/march/library.hpp"
#include "pf/util/error.hpp"
#include "pf/util/grid.hpp"
#include "pf/util/log.hpp"

namespace pf::campaign {
namespace {

using dram::OpenSite;
using faults::Ffm;
using faults::Sos;
using service::Json;
using service::JsonArray;
using service::JsonObject;

std::string sweep_job_id(int open_number, size_t line, size_t sos) {
  return "open" + std::to_string(open_number) + "-line" +
         std::to_string(line) + "-sos" + std::to_string(sos);
}

std::string analysis_job_id(int open_number) {
  return "open" + std::to_string(open_number) + "-analysis";
}

Json row_to_json(const analysis::Table1Row& row) {
  JsonObject obj;
  obj["sim_ffm"] = Json(std::string(faults::ffm_name(row.sim_ffm)));
  obj["com_ffm"] = Json(std::string(faults::ffm_name(row.com_ffm)));
  obj["open"] = Json(dram::open_number(row.site));
  obj["line"] = Json(row.initialized_voltage);
  obj["min_r_def"] = Json(row.min_r_def);
  obj["band_coverage"] = Json(row.band_coverage);
  obj["completable"] = Json(row.completable);
  if (row.completable) obj["completed"] = Json(row.completed.to_string());
  return Json(std::move(obj));
}

analysis::Table1Row row_from_json(const Json& json) {
  analysis::Table1Row row;
  row.sim_ffm = faults::ffm_by_name(json.get("sim_ffm").as_string());
  row.com_ffm = faults::ffm_by_name(json.get("com_ffm").as_string());
  const int open = int(json.get("open").as_number());
  const std::optional<OpenSite> site = dram::open_site_for_number(open);
  if (!site)
    throw pf::Error("campaign: bad open number " + std::to_string(open));
  row.site = *site;
  row.initialized_voltage = json.get("line").as_string();
  row.min_r_def = json.get("min_r_def").as_number();
  row.band_coverage = json.get("band_coverage").as_number();
  row.completable = json.get("completable").as_bool();
  if (row.completable)
    row.completed = faults::FaultPrimitive::parse(json.get("completed")
                                                      .as_string());
  return row;
}

/// One site's analysis job: the shared Table 1 site analysis over the maps
/// of the site's sweep jobs.
Json analyze_site(const DepContext& ctx, OpenSite site,
                  const analysis::Table1Options& options) {
  const int number = dram::open_number(site);
  JsonArray out;
  for (const analysis::Table1Row& row : analysis::analyze_table1_site(
           dram::DramParams{}, site, options, [&](size_t li, size_t si) {
             return ctx.map(sweep_job_id(number, li, si));
           }))
    out.push_back(row_to_json(row));
  return Json(std::move(out));
}

}  // namespace

CampaignSpec table1_campaign(const analysis::Table1Options& options) {
  const dram::DramParams params;
  CampaignSpec spec;
  spec.name = "table1";
  for (const OpenSite site : options.sites) {
    const dram::Defect proto = dram::Defect::open(site, 1e6);
    const auto lines = dram::floating_lines_for(proto, params);
    const int number = dram::open_number(site);
    const pf::Interval r_range = analysis::site_r_range(site, options);

    CampaignJob analysis_job;
    analysis_job.id = analysis_job_id(number);
    analysis_job.kind = CampaignJob::Kind::kCustom;
    for (size_t li = 0; li < lines.size(); ++li) {
      size_t si = 0;
      for (const Sos& sos : analysis::base_soses()) {
        CampaignJob job;
        job.id = sweep_job_id(number, li, si);
        job.kind = CampaignJob::Kind::kSweep;
        job.sweep.defect_kind = "open";
        job.sweep.open_site = number;
        job.sweep.floating_line_index = li;
        job.sweep.sos_text = sos.to_string();
        job.sweep.r_points = options.r_points;
        job.sweep.u_points = options.u_points;
        job.sweep.r_min = r_range.lo;
        job.sweep.r_max = r_range.hi;
        job.sweep.threads = options.exec.threads;
        analysis_job.deps.push_back(job.id);
        spec.jobs.push_back(std::move(job));
        ++si;
      }
    }
    const analysis::Table1Options opts = options;  // closure-owned copy
    analysis_job.custom = [site, opts](const DepContext& ctx) {
      return analyze_site(ctx, site, opts);
    };
    spec.jobs.push_back(std::move(analysis_job));
  }
  return spec;
}

std::vector<analysis::Table1Row> table1_rows_from_result(
    const CampaignSpec& spec, const CampaignResult& result) {
  std::vector<analysis::Table1Row> rows;
  // Concatenate per-site row lists in site (declaration) order: that is the
  // exact pre-sort sequence generate_table1 builds, so the final std::sort
  // — tie order and all — reproduces its output byte for byte.
  for (const CampaignJob& job : spec.jobs) {
    if (job.kind != CampaignJob::Kind::kCustom) continue;
    const auto it = result.jobs.find(job.id);
    PF_CHECK_MSG(it != result.jobs.end() &&
                     it->second.state == JobState::kJobDone,
                 "campaign job \"" << job.id << "\" did not complete ("
                                   << (it == result.jobs.end()
                                           ? "missing"
                                           : job_state_name(it->second.state))
                                   << "); no Table 1 to assemble");
    for (const Json& row : it->second.detail.get("payload").as_array())
      rows.push_back(row_from_json(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const analysis::Table1Row& a, const analysis::Table1Row& b) {
              if (a.sim_ffm != b.sim_ffm) return a.sim_ffm < b.sim_ffm;
              return dram::open_number(a.site) < dram::open_number(b.site);
            });
  return rows;
}

std::vector<analysis::Table1Row> generate_table1_via_campaign(
    const analysis::Table1Options& options, const CampaignOptions& campaign,
    CampaignResult* result_out) {
  const CampaignSpec spec = table1_campaign(options);
  CampaignResult result = run_campaign(spec, campaign);
  std::vector<analysis::Table1Row> rows = table1_rows_from_result(spec, result);
  if (result_out != nullptr) *result_out = std::move(result);
  return rows;
}

CampaignSpec completion_campaign(const service::JobSpec& sweep,
                                 const CompletionCampaignOptions& options) {
  PF_CHECK_MSG(options.ffm != Ffm::kUnknown,
               "completion campaign needs a target FFM");
  CampaignSpec spec;
  spec.name = "completion";

  CampaignJob base;
  base.id = "base-map";
  base.kind = CampaignJob::Kind::kSweep;
  base.sweep = sweep;
  spec.jobs.push_back(std::move(base));

  CampaignJob search;
  search.id = "completion";
  search.kind = CampaignJob::Kind::kCustom;
  search.deps = {"base-map"};
  const CompletionCampaignOptions opts = options;
  search.custom = [sweep, opts](const DepContext& ctx) {
    const analysis::RegionMap& map = ctx.map("base-map");
    const analysis::SweepSpec sspec = sweep.to_sweep_spec();
    const auto lines = dram::floating_lines_for(sspec.defect, sspec.params);
    const dram::FloatingLine& line = lines[sspec.floating_line_index];

    analysis::CompletionSpec cspec;
    cspec.params = sspec.params;
    cspec.defect = sspec.defect;
    cspec.floating_line_index = sspec.floating_line_index;
    cspec.base.sos = sspec.sos;
    cspec.probe_u = pf::linspace(line.min_v, line.max_v,
                                 opts.probe_u_points);
    cspec.max_prefix_ops = opts.max_prefix_ops;
    cspec.exec = opts.exec;
    cspec.exec.journal_path.clear();
    const analysis::CompletionResult comp =
        analysis::complete_partial_fault(cspec, map, opts.ffm);

    JsonObject obj;
    obj["possible"] = Json(comp.possible);
    if (comp.possible) obj["completed"] = Json(comp.completed.to_string());
    obj["candidates_evaluated"] = Json(comp.candidates_evaluated);
    obj["sos_runs"] = Json(comp.sos_runs);
    obj["solver_failures"] = Json(comp.solver_failures);
    return Json(std::move(obj));
  };
  spec.jobs.push_back(std::move(search));
  return spec;
}

namespace {

/// Journal/filename-safe job-id slug of a march-test name ("March C-" ->
/// "march-c", "MATS+" -> "mats-p": '+'/'-' are what tells the MATS family
/// apart, so they get letter spellings instead of being squashed).
std::string test_slug(const std::string& name) {
  std::string slug;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (c == '+') {
      if (!slug.empty() && slug.back() != '-') slug += '-';
      slug += 'p';
    } else if (!slug.empty() && slug.back() != '-') {
      slug += '-';
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug.empty() ? "test" : slug;
}

Json outcome_to_json(const march::DetectionOutcome& outcome) {
  JsonObject obj;
  obj["detected_all"] = Json(outcome.detected_all);
  obj["detected_count"] = Json(double(outcome.detected_count));
  obj["total_victims"] = Json(double(outcome.total_victims));
  obj["first_escape"] = Json(double(outcome.first_escape));
  return Json(std::move(obj));
}

march::DetectionOutcome outcome_from_json(const Json& json) {
  march::DetectionOutcome outcome;
  outcome.detected_all = json.get("detected_all").as_bool();
  outcome.detected_count = std::int64_t(json.get("detected_count").as_number());
  outcome.total_victims = std::int64_t(json.get("total_victims").as_number());
  outcome.first_escape = std::int64_t(json.get("first_escape").as_number());
  return outcome;
}

}  // namespace

CampaignSpec coverage_campaign(const CoverageCampaignOptions& options) {
  CoverageCampaignOptions opts = options;
  if (opts.tests.empty()) {
    opts.tests = march::standard_tests();
    opts.tests.insert(opts.tests.begin(), march::naive_w1r1());
  }
  if (opts.classes.empty()) opts.classes = march::table1_partial_classes();
  PF_CHECK_MSG(opts.geometry.num_rows > 0 && opts.geometry.num_columns > 0,
               "coverage campaign needs a non-empty geometry");

  CampaignSpec spec;
  spec.name = "coverage";
  CampaignJob summary;
  summary.id = "coverage-summary";
  summary.kind = CampaignJob::Kind::kCustom;

  for (const march::MarchTest& test : opts.tests) {
    CampaignJob job;
    job.id = "coverage-" + test_slug(test.name);
    job.kind = CampaignJob::Kind::kCustom;
    const march::MarchTest test_copy = test;
    const memsim::Geometry geometry = opts.geometry;
    const march::MemEngine engine = opts.engine;
    const std::vector<march::PopulationClass> classes = opts.classes;
    job.custom = [test_copy, geometry, engine, classes](const DepContext&) {
      const march::PopulationCoverage coverage =
          march::evaluate_population(test_copy, geometry, classes, engine);
      JsonObject obj;
      obj["test"] = Json(test_copy.name);
      obj["engine"] = Json(std::string(march::mem_engine_name(engine)));
      obj["march_passes"] = Json(double(coverage.march_passes));
      obj["cell_steps"] = Json(double(coverage.cell_steps));
      JsonArray rows;
      for (const march::PopulationOutcome& po : coverage.classes) {
        JsonObject row;
        row["name"] = Json(po.cls.name());
        row["outcome"] = outcome_to_json(po.outcome);
        rows.push_back(Json(std::move(row)));
      }
      obj["classes"] = Json(std::move(rows));
      return Json(std::move(obj));
    };
    summary.deps.push_back(job.id);
    spec.jobs.push_back(std::move(job));
  }

  const auto dep_ids = summary.deps;
  summary.custom = [dep_ids](const DepContext& ctx) {
    std::int64_t full = 0, cells_total = 0;
    double steps = 0.0;
    for (const std::string& id : dep_ids) {
      const Json& payload = ctx.payload(id);
      steps += payload.get("cell_steps").as_number();
      for (const Json& row : payload.get("classes").as_array()) {
        full += row.get("outcome").get("detected_all").as_bool();
        ++cells_total;
      }
    }
    JsonObject obj;
    obj["tests"] = Json(double(dep_ids.size()));
    obj["matrix_cells"] = Json(double(cells_total));
    obj["full_detections"] = Json(double(full));
    obj["cell_steps"] = Json(steps);
    return Json(std::move(obj));
  };
  spec.jobs.push_back(std::move(summary));
  return spec;
}

std::vector<CoverageCampaignEntry> coverage_from_result(
    const CampaignSpec& spec, const CampaignResult& result) {
  std::vector<CoverageCampaignEntry> entries;
  for (const CampaignJob& job : spec.jobs) {
    if (job.kind != CampaignJob::Kind::kCustom ||
        job.id == "coverage-summary" ||
        job.id.rfind("coverage-", 0) != 0)
      continue;
    const auto it = result.jobs.find(job.id);
    PF_CHECK_MSG(it != result.jobs.end() &&
                     it->second.state == JobState::kJobDone,
                 "coverage campaign job \"" << job.id << "\" did not complete");
    const Json& payload = it->second.detail.get("payload");
    CoverageCampaignEntry entry;
    entry.test = payload.get("test").as_string();
    entry.engine = payload.get("engine").as_string();
    entry.march_passes = std::uint64_t(payload.get("march_passes").as_number());
    entry.cell_steps = std::uint64_t(payload.get("cell_steps").as_number());
    for (const Json& row : payload.get("classes").as_array())
      entry.classes.push_back(
          {row.get("name").as_string(), outcome_from_json(row.get("outcome"))});
    entries.push_back(std::move(entry));
  }
  return entries;
}

analysis::CompletionResult completion_from_result(
    const CampaignResult& result) {
  const auto it = result.jobs.find("completion");
  PF_CHECK_MSG(it != result.jobs.end() &&
                   it->second.state == JobState::kJobDone,
               "completion campaign did not finish the search job");
  const Json& payload = it->second.detail.get("payload");
  analysis::CompletionResult comp;
  comp.possible = payload.get("possible").as_bool();
  if (comp.possible)
    comp.completed =
        faults::FaultPrimitive::parse(payload.get("completed").as_string());
  comp.candidates_evaluated = int(payload.number_or("candidates_evaluated", 0));
  comp.sos_runs = uint64_t(payload.number_or("sos_runs", 0));
  comp.solver_failures = uint64_t(payload.number_or("solver_failures", 0));
  return comp;
}

// --- march-search campaign ---------------------------------------------------

namespace {

/// Journal the improved incumbent with the cache's manifest-last
/// discipline (tmp + rename) so a kill -9 mid-write never leaves a torn
/// file for the resumed job to parse.
void write_incumbent(const std::string& path, const march::MarchTest& test) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;  // journaling is best-effort; the search goes on
    out << test.to_string() << "\n";
    out.flush();
    if (!out) return;
  }
  fs::rename(tmp, path, ec);
}

/// The last journaled incumbent, if the file exists and parses; an
/// unreadable / torn file is ignored (search_march drops infeasible
/// incumbents anyway, this only skips the obviously broken ones).
std::optional<march::MarchTest> read_incumbent(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string notation;
  std::getline(in, notation);
  try {
    return march::MarchTest::parse(notation, "journaled incumbent");
  } catch (const pf::Error&) {
    return std::nullopt;
  }
}

}  // namespace

CampaignSpec search_campaign(const SearchCampaignOptions& options) {
  SearchCampaignOptions opts = options;
  if (opts.sets.empty()) opts.sets = march::standard_target_sets();
  PF_CHECK_MSG(opts.geometry.num_rows > 0 && opts.geometry.num_columns > 0,
               "search campaign needs a non-empty geometry");
  PF_CHECK_MSG(!opts.sets.empty(), "search campaign needs target sets");

  CampaignSpec spec;
  spec.name = "march-search";
  CampaignJob summary;
  summary.id = "search-summary";
  summary.kind = CampaignJob::Kind::kCustom;

  for (const march::NamedTargetSet& set : opts.sets) {
    CampaignJob job;
    job.id = "search-" + test_slug(set.name);
    job.kind = CampaignJob::Kind::kCustom;
    const march::NamedTargetSet set_copy = set;
    const memsim::Geometry geometry = opts.geometry;
    const march::MemEngine engine = opts.engine;
    const std::uint64_t seed = opts.seed;
    const std::uint64_t max_evaluations = opts.max_evaluations;
    const std::string incumbent_path =
        opts.incumbent_dir.empty()
            ? std::string()
            : opts.incumbent_dir + "/" + test_slug(set.name) + ".incumbent";
    job.custom = [set_copy, geometry, engine, seed, max_evaluations,
                  incumbent_path](const DepContext&) {
      march::SearchOptions search;
      search.synthesis.geometry = geometry;
      search.synthesis.engine = engine;
      search.synthesis.budget.seed = seed;
      search.synthesis.budget.max_evaluations = max_evaluations;
      if (!incumbent_path.empty()) {
        if (auto journaled = read_incumbent(incumbent_path))
          search.extra_incumbents.push_back(std::move(*journaled));
        search.on_improvement = [incumbent_path](
                                    const march::SearchImprovement& imp) {
          write_incumbent(incumbent_path, imp.test);
        };
      }
      const march::SearchResult result =
          march::search_march(set_copy.targets, search);
      JsonObject obj;
      obj["set"] = Json(set_copy.name);
      obj["test"] = Json(result.test.to_string());
      obj["success"] = Json(result.success);
      obj["ops_per_cell"] = Json(double(result.ops_per_cell));
      obj["greedy_ops_per_cell"] =
          Json(double(result.greedy.test.ops_per_cell()));
      obj["greedy_success"] = Json(result.greedy.success);
      obj["evaluations"] = Json(double(result.evaluations));
      obj["certificate_complete"] = Json(result.certificate.complete);
      obj["witnesses"] = Json(double(result.certificate.witnesses.size()));
      obj["improvements"] = Json(double(result.trace.size()));
      return Json(std::move(obj));
    };
    summary.deps.push_back(job.id);
    spec.jobs.push_back(std::move(job));
  }

  const auto dep_ids = summary.deps;
  summary.custom = [dep_ids](const DepContext& ctx) {
    std::int64_t shorter = 0, certified = 0, solved = 0;
    double evaluations = 0.0;
    for (const std::string& id : dep_ids) {
      const Json& payload = ctx.payload(id);
      const bool success = payload.get("success").as_bool();
      solved += success;
      shorter += success && payload.get("greedy_success").as_bool() &&
                 payload.get("ops_per_cell").as_number() <
                     payload.get("greedy_ops_per_cell").as_number();
      certified += payload.get("certificate_complete").as_bool();
      evaluations += payload.get("evaluations").as_number();
    }
    JsonObject obj;
    obj["sets"] = Json(double(dep_ids.size()));
    obj["solved"] = Json(double(solved));
    obj["shorter_than_greedy"] = Json(double(shorter));
    obj["certified_minimal"] = Json(double(certified));
    obj["evaluations"] = Json(evaluations);
    return Json(std::move(obj));
  };
  spec.jobs.push_back(std::move(summary));
  return spec;
}

std::vector<SearchCampaignEntry> search_from_result(
    const CampaignSpec& spec, const CampaignResult& result) {
  std::vector<SearchCampaignEntry> entries;
  for (const CampaignJob& job : spec.jobs) {
    if (job.kind != CampaignJob::Kind::kCustom || job.id == "search-summary" ||
        job.id.rfind("search-", 0) != 0)
      continue;
    const auto it = result.jobs.find(job.id);
    PF_CHECK_MSG(it != result.jobs.end() &&
                     it->second.state == JobState::kJobDone,
                 "search campaign job \"" << job.id << "\" did not complete");
    const Json& payload = it->second.detail.get("payload");
    SearchCampaignEntry entry;
    entry.set = payload.get("set").as_string();
    entry.test = march::MarchTest::parse(payload.get("test").as_string(),
                                         "search(" + entry.set + ")");
    entry.success = payload.get("success").as_bool();
    entry.ops_per_cell = int(payload.get("ops_per_cell").as_number());
    entry.greedy_ops_per_cell =
        int(payload.get("greedy_ops_per_cell").as_number());
    entry.shorter_than_greedy =
        entry.success && payload.get("greedy_success").as_bool() &&
        entry.ops_per_cell < entry.greedy_ops_per_cell;
    entry.certificate_complete = payload.get("certificate_complete").as_bool();
    entry.witnesses = std::size_t(payload.get("witnesses").as_number());
    entry.evaluations = std::uint64_t(payload.get("evaluations").as_number());
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace pf::campaign
