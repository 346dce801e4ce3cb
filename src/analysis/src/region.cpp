#include "pf/analysis/region.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>

#include "pf/analysis/checkpoint.hpp"
#include "pf/analysis/session_cache.hpp"
#include "pf/util/ascii_plot.hpp"
#include "pf/util/log.hpp"
#include "pf/util/strings.hpp"

namespace pf::analysis {

using faults::Ffm;

std::vector<double> default_r_axis(size_t n) {
  return pf::logspace(10e3, 10e6, n);
}

std::vector<double> default_u_axis(const dram::DramParams& params, size_t n) {
  return pf::linspace(0.0, params.vdd, n);
}

RegionMap::RegionMap(SweepSpec spec, Grid2D<Ffm> grid)
    : RegionMap(std::move(spec), std::move(grid), SweepStats{}) {}

RegionMap::RegionMap(SweepSpec spec, Grid2D<Ffm> grid, SweepStats stats)
    : spec_(std::move(spec)), grid_(std::move(grid)),
      stats_(std::move(stats)) {}

std::vector<Ffm> RegionMap::observed_ffms() const {
  std::set<Ffm> seen;
  for (Ffm f : grid_.data())
    if (f != Ffm::kUnknown && f != Ffm::kSolveFailed) seen.insert(f);
  return {seen.begin(), seen.end()};
}

size_t RegionMap::failed_points() const { return count(Ffm::kSolveFailed); }

double RegionMap::observed_fraction() const {
  const size_t total = grid_.width() * grid_.height();
  return total == 0 ? 1.0
                    : 1.0 - static_cast<double>(failed_points()) /
                                static_cast<double>(total);
}

size_t RegionMap::count(Ffm ffm) const {
  return static_cast<size_t>(
      std::count(grid_.data().begin(), grid_.data().end(), ffm));
}

Interval RegionMap::u_domain() const {
  return Interval{spec_.u_axis.front(), spec_.u_axis.back()};
}

pf::IntervalSet RegionMap::u_band(Ffm ffm, size_t iy) const {
  // Merge adjacent observed samples into bands: half a grid step of slack on
  // each side so neighbouring samples fuse.
  pf::IntervalSet band;
  const auto& u = spec_.u_axis;
  const double step =
      u.size() > 1 ? (u.back() - u.front()) / double(u.size() - 1) : 1.0;
  for (size_t ix = 0; ix < grid_.width(); ++ix) {
    if (grid_.at(ix, iy) == ffm)
      band.insert({u[ix] - step / 2, u[ix] + step / 2}, step / 4);
  }
  return band;
}

double RegionMap::min_r(Ffm ffm) const {
  for (size_t iy = 0; iy < grid_.height(); ++iy)
    for (size_t ix = 0; ix < grid_.width(); ++ix)
      if (grid_.at(ix, iy) == ffm) return spec_.r_axis[iy];
  return std::nan("");
}

bool RegionMap::has_fully_covered_row(Ffm ffm) const {
  const Interval domain = u_domain();
  const auto& u = spec_.u_axis;
  const double step =
      u.size() > 1 ? (u.back() - u.front()) / double(u.size() - 1) : 1.0;
  for (size_t iy = 0; iy < grid_.height(); ++iy)
    if (u_band(ffm, iy).covers(domain, step)) return true;
  return false;
}

namespace {

char glyph_for(Ffm ffm) {
  switch (ffm) {
    case Ffm::kUnknown: return '?';
    case Ffm::kSF0: return 's';
    case Ffm::kSF1: return 'S';
    case Ffm::kTFUp: return 't';
    case Ffm::kTFDown: return 'T';
    case Ffm::kWDF0: return 'w';
    case Ffm::kWDF1: return 'W';
    case Ffm::kRDF0: return 'r';
    case Ffm::kRDF1: return 'R';
    case Ffm::kDRDF0: return 'd';
    case Ffm::kDRDF1: return 'D';
    case Ffm::kIRF0: return 'i';
    case Ffm::kIRF1: return 'I';
    case Ffm::kSolveFailed: return 'x';
  }
  return '?';
}

}  // namespace

std::string RegionMap::render(const std::string& title) const {
  AsciiPlotOptions opt;
  opt.title = title;
  opt.y_log = true;
  opt.y_label = "R_def";
  const std::string plot = pf::render_region_map(
      grid_.width(), grid_.height(), spec_.u_axis, spec_.r_axis,
      [&](size_t ix, size_t iy) {
        const Ffm f = grid_.at(ix, iy);
        return f == Ffm::kUnknown ? '.' : glyph_for(f);
      },
      opt);
  std::ostringstream os;
  os << plot;
  const auto seen = observed_ffms();
  const size_t failed = failed_points();
  if (!seen.empty()) {
    os << "  legend:";
    for (Ffm f : seen) os << "  " << glyph_for(f) << " = " << faults::ffm_name(f);
    os << "  . = no fault";
    if (failed > 0) os << "  x = solve failed";
    os << "\n";
  } else if (failed > 0) {
    os << "  legend:  x = solve failed  . = no fault\n";
  } else {
    os << "  (no fault observed anywhere)\n";
  }
  if (failed > 0)
    os << "  (" << failed << " of " << grid_.width() * grid_.height()
       << " grid points unsolved)\n";
  return os.str();
}

std::string RegionMap::to_csv() const {
  std::ostringstream os;
  os << "r_def,u,ffm\n";
  for (size_t iy = 0; iy < grid_.height(); ++iy)
    for (size_t ix = 0; ix < grid_.width(); ++ix) {
      const Ffm f = grid_.at(ix, iy);
      os << spec_.r_axis[iy] << ',' << spec_.u_axis[ix] << ','
         << (f == Ffm::kUnknown ? "-" : faults::ffm_name(f)) << '\n';
    }
  return os.str();
}

namespace {

/// One SOS's share of a multi-SOS sweep.
struct SosSweep {
  SweepSpec spec;
  Grid2D<Ffm> grid;
  SweepStats stats;
  std::vector<char> resumed;  ///< per grid point: restored from the journal
  std::unique_ptr<SweepJournal> journal;
  bool journal_was_clean = false;
};

}  // namespace

std::vector<RegionMap> sweep_region(const SweepSpec& grid_spec,
                                    const std::vector<faults::Sos>& soses,
                                    const ExecutionPolicy& policy,
                                    const std::vector<std::string>&
                                        journal_paths) {
  PF_CHECK(!grid_spec.r_axis.empty() && !grid_spec.u_axis.empty());
  PF_CHECK_MSG(policy.journal_path.empty(),
               "a multi-SOS sweep journals through journal_paths");
  PF_CHECK(journal_paths.empty() || journal_paths.size() == soses.size());
  const auto lines = dram::floating_lines_for(grid_spec.defect,
                                              grid_spec.params);
  PF_CHECK_MSG(grid_spec.floating_line_index < lines.size(),
               "defect " << dram::defect_name(grid_spec.defect)
                         << " has no floating line "
                         << grid_spec.floating_line_index);
  const dram::FloatingLine& line = lines[grid_spec.floating_line_index];
  const size_t width = grid_spec.u_axis.size();
  const size_t height = grid_spec.r_axis.size();

  std::vector<SosSweep> sweeps;
  for (size_t s = 0; s < soses.size(); ++s) {
    SosSweep& sw = sweeps.emplace_back(SosSweep{
        grid_spec, Grid2D<Ffm>(grid_spec.u_axis, grid_spec.r_axis,
                               Ffm::kUnknown),
        {}, std::vector<char>(width * height, 0), nullptr, false});
    sw.spec.sos = soses[s];
    if (journal_paths.empty() || journal_paths[s].empty()) continue;
    const std::string& path = journal_paths[s];
    if (policy.resume) {
      const SweepJournal::LoadResult loaded = SweepJournal::load(path, sw.spec);
      for (const SweepJournal::Entry& e : loaded.entries) {
        sw.grid.at(e.ix, e.iy) = e.ffm;
        sw.resumed[e.iy * width + e.ix] = 1;
        ++sw.stats.resumed;
      }
      sw.stats.journal_dropped = loaded.dropped;
      if (loaded.quarantined) ++sw.stats.journal_quarantined;
      sw.journal_was_clean = loaded.clean_end;
      if (loaded.dropped > 0)
        PF_LOG_WARN("journal " << path << ": dropped " << loaded.dropped
                               << " corrupt/truncated row(s); those points "
                               << "re-run");
      if (sw.stats.resumed > 0)
        PF_LOG_INFO("resumed " << sw.stats.resumed << " solved points from "
                               << path
                               << (loaded.clean_end
                                       ? ""
                                       : " (interrupted sweep, no END "
                                         "trailer)"));
    }
    sw.journal = std::make_unique<SweepJournal>(path, sw.spec);
  }

  // Workers see the sweep's cancellation token through the solver options,
  // so the watchdog can abandon a transient mid-point.
  dram::DramParams run_params = grid_spec.params;
  run_params.sim.cancel = policy.cancel;

  // Pending points in row-major grid order, each with the SOSes it still
  // owes (a point journaled for some SOSes runs only the others).
  std::vector<size_t> pending;
  std::vector<std::vector<size_t>> pending_soses;
  for (size_t k = 0; k < width * height; ++k) {
    std::vector<size_t> owed;
    for (size_t s = 0; s < sweeps.size(); ++s)
      if (!sweeps[s].resumed[k]) owed.push_back(s);
    if (owed.empty()) continue;
    pending.push_back(k);
    pending_soses.push_back(std::move(owed));
  }

  const ParallelGridRunner runner(policy);
  // Compile-once pipeline (ExecutionPolicy::circuit_mode): one circuit
  // template is built per sweep and shared read-only; each worker lazily
  // clones a private session from it and restamps + resets that column per
  // point instead of rebuilding the netlist and re-running the symbolic
  // analysis. Under kRebuild every SOS of every point constructs its own
  // column inside run_sos (the reference path). Either way the only
  // mutable state shared between workers is the journals
  // (self-serializing).
  std::unique_ptr<SosSession> prototype;
  if (policy.circuit_mode == CircuitMode::kReuse && !pending.empty()) {
    // Cross-sweep reuse: a campaign runner hands compiled sessions from one
    // job to the next through a SessionCache keyed by row-family. A cache
    // hit skips the compile entirely and keeps the post-initialization
    // snapshot cache warm; a miss compiles exactly like before.
    if (policy.session_cache && !policy.session_family.empty())
      prototype = policy.session_cache->take(policy.session_family);
    if (prototype == nullptr) {
      dram::Defect proto_defect = grid_spec.defect;
      proto_defect.resistance = grid_spec.r_axis[pending.front() / width];
      prototype = std::make_unique<SosSession>(run_params, proto_defect);
    }
  }
  // With a session cache armed, worker 0 runs experiments directly on the
  // prototype (clone() does not carry the snapshot cache, so only direct
  // reuse preserves it across jobs).
  const bool adopt_prototype = prototype != nullptr &&
                               policy.session_cache != nullptr &&
                               !policy.session_family.empty();
  std::vector<std::unique_ptr<SosSession>> sessions(
      static_cast<size_t>(runner.workers()));
  const auto session_for = [&](int worker) -> SosSession& {
    if (worker == 0 && adopt_prototype) return *prototype;
    std::unique_ptr<SosSession>& session =
        sessions[static_cast<size_t>(worker)];
    if (session == nullptr)
      session = std::make_unique<SosSession>(prototype->clone());
    return *session;
  };
  if (adopt_prototype && runner.workers() > 1) {
    // Worker 0 mutates the prototype from its first point on, so the other
    // workers' clones must be taken eagerly, before dispatch starts.
    for (int w = 1; w < runner.workers(); ++w)
      sessions[static_cast<size_t>(w)] =
          std::make_unique<SosSession>(prototype->clone());
  }
  ExperimentContext point_ctx;
  point_ctx.defect = dram::defect_name(grid_spec.defect);
  point_ctx.line = line.label;
  // One runner index per pending point; its SOSes run as one batch. Each
  // outcome slot is written by the one worker that claimed its point; the
  // slots are merged in grid order after the workers join.
  std::vector<std::vector<RobustOutcome>> outcomes(pending.size());
  runner.run(pending.size(), [&](size_t k, int worker) {
    const size_t ix = pending[k] % width;
    const size_t iy = pending[k] / width;
    dram::Defect defect = grid_spec.defect;
    defect.resistance = grid_spec.r_axis[iy];
    std::vector<faults::Sos> owed;
    for (size_t s : pending_soses[k]) owed.push_back(soses[s]);
    ExperimentContext ctx = point_ctx;
    ctx.key = grid_point_key(ix, iy);
    ctx.r_def = grid_spec.r_axis[iy];
    ctx.u = grid_spec.u_axis[ix];
    std::vector<RobustOutcome>& ros = outcomes[k];
    ros = prototype != nullptr
              ? run_sos_robust(session_for(worker), run_params.sim, defect,
                               &line, ctx.u, owed, policy.retry, ctx)
              : run_sos_robust(run_params, defect, &line, ctx.u, owed,
                               policy.retry, ctx);
    const RobustOutcome* first_failure = nullptr;
    for (size_t j = 0; j < ros.size(); ++j) {
      const RobustOutcome& ro = ros[j];
      if (!ro.solved && first_failure == nullptr) first_failure = &ro;
      if (!ro.solved && !policy.record_failures) continue;
      SweepJournal* journal = sweeps[pending_soses[k][j]].journal.get();
      if (journal == nullptr) continue;
      SweepJournal::Entry e;
      e.ix = ix;
      e.iy = iy;
      e.ffm = !ro.solved           ? Ffm::kSolveFailed
              : ro.outcome.faulty ? ro.outcome.ffm
                                  : Ffm::kUnknown;
      e.attempts = ro.attempts;
      journal->append(e, ctx.r_def, ctx.u);
    }
    if (first_failure != nullptr && !policy.record_failures)
      throw ConvergenceError(first_failure->error);
  });

  // Deterministic merge in row-major grid order: the grid cells and the
  // stats (including failure_log order) are independent of worker
  // scheduling.
  for (size_t k = 0; k < pending.size(); ++k) {
    for (size_t j = 0; j < outcomes[k].size(); ++j) {
      const RobustOutcome& ro = outcomes[k][j];
      SosSweep& sw = sweeps[pending_soses[k][j]];
      Ffm& cell = sw.grid.at(pending[k] % width, pending[k] / width);
      ++sw.stats.attempted;
      sw.stats.retries += static_cast<size_t>(ro.attempts - 1);
      if (ro.solved) {
        ++sw.stats.solved;
        cell = ro.outcome.faulty ? ro.outcome.ffm : Ffm::kUnknown;
      } else {
        ++sw.stats.failed;
        sw.stats.failure_log.push_back(ro.error);
        cell = Ffm::kSolveFailed;
      }
    }
  }
  std::vector<RegionMap> maps;
  for (SosSweep& sw : sweeps) {
    if (sw.stats.failed > 0)
      PF_LOG_INFO("sweep degraded: " << sw.stats.failed << " of "
                                     << width * height
                                     << " points unsolved after retries");
    // The sweep covered every grid point: mark the journal cleanly
    // complete. Skip only when nothing was appended to an already-clean
    // journal (a fully resumed rerun), so reruns do not stack duplicate
    // trailers.
    if (sw.journal && !(sw.journal_was_clean && sw.journal->rows_appended() == 0))
      sw.journal->finalize();
    maps.emplace_back(std::move(sw.spec), std::move(sw.grid),
                      std::move(sw.stats));
  }
  // Hand the compiled session back for the next sweep in this family. Only
  // reached on success: a cancelled or failed sweep drops the session (the
  // next borrower misses and recompiles — correct, just colder).
  if (adopt_prototype)
    policy.session_cache->put(policy.session_family, std::move(prototype));
  return maps;
}

RegionMap sweep_region(const SweepSpec& spec, const ExecutionPolicy& policy) {
  ExecutionPolicy multi = policy;
  multi.journal_path.clear();
  std::vector<std::string> journal_paths;
  if (!policy.journal_path.empty()) journal_paths.push_back(policy.journal_path);
  return std::move(sweep_region(spec, {spec.sos}, multi, journal_paths).front());
}

RegionMap region_map_from_csv(const SweepSpec& spec, const std::string& csv) {
  const size_t width = spec.u_axis.size();
  const size_t height = spec.r_axis.size();
  PF_CHECK(width > 0 && height > 0);
  Grid2D<Ffm> grid(spec.u_axis, spec.r_axis, Ffm::kUnknown);
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line) || pf::trim(line) != "r_def,u,ffm")
    throw pf::ParseError("region CSV: missing r_def,u,ffm header");
  size_t k = 0;
  while (std::getline(in, line)) {
    if (pf::trim(line).empty()) continue;
    const std::vector<std::string> fields = pf::split(line, ',');
    if (fields.size() != 3)
      throw pf::ParseError("region CSV: malformed row: " + line);
    if (k >= width * height)
      throw pf::ParseError("region CSV: more rows than grid points");
    const std::string name = pf::trim(fields[2]);
    Ffm f = Ffm::kUnknown;
    if (name != "-") {
      f = faults::ffm_by_name(name);
      if (f == Ffm::kUnknown)
        throw pf::ParseError("region CSV: unknown FFM name: " + name);
    }
    grid.at(k % width, k / width) = f;
    ++k;
  }
  if (k != width * height)
    throw pf::ParseError("region CSV: expected " +
                         std::to_string(width * height) + " rows, got " +
                         std::to_string(k));
  return RegionMap(spec, std::move(grid));
}

}  // namespace pf::analysis
