#include "pf/analysis/completion.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>

#include "pf/util/log.hpp"

namespace pf::analysis {

using faults::CellRole;
using faults::FaultPrimitive;
using faults::Op;
using faults::Sos;

std::vector<double> partial_rows(const RegionMap& base_map, faults::Ffm ffm) {
  const pf::Interval domain = base_map.u_domain();
  const auto& u = base_map.spec().u_axis;
  const double step =
      u.size() > 1 ? (u.back() - u.front()) / double(u.size() - 1) : 1.0;
  std::vector<double> rows;
  for (size_t iy = 0; iy < base_map.grid().height(); ++iy) {
    const pf::IntervalSet band = base_map.u_band(ffm, iy);
    if (!band.empty() && !band.covers(domain, step))
      rows.push_back(base_map.spec().r_axis[iy]);
  }
  return rows;
}

std::vector<double> choose_probe_rows(const RegionMap& base_map,
                                      faults::Ffm ffm, size_t max_rows) {
  std::vector<double> partial_rows = analysis::partial_rows(base_map, ffm);
  if (partial_rows.size() <= max_rows) return partial_rows;
  // Probe from the TOP of the partial region: at large R_def the defect
  // dominates and the floating line genuinely floats. Rows near the lower
  // boundary are marginal (and the paper's own completed faults only hold
  // above a threshold R_def — Figure 4(b)).
  const size_t n = partial_rows.size();
  std::vector<size_t> indices = {n - 1};
  if (max_rows >= 2) indices.push_back((3 * (n - 1)) / 4);
  if (max_rows >= 3) indices.push_back((n - 1) / 2);
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::vector<double> picked;
  for (size_t idx : indices) picked.push_back(partial_rows[idx]);
  return picked;
}

namespace {

/// Expected victim state just before the base SOS's operations (the value
/// the completing prefix must establish or preserve).
int required_entry_state(const Sos& base) { return base.initial_victim; }

/// Enumerate the candidate SOSes with exactly `len` completing writes over
/// the vocabulary {w0, w1} x {victim, same-BL aggressor}, ordered
/// victim-first (prefer lower #C among equals), each followed by the base
/// SOS's operations.
void enumerate_candidates(int len, const Sos& base, std::vector<Sos>& out) {
  const Op vocab[4] = {
      {Op::Kind::kWrite0, CellRole::kVictim, true, -1},
      {Op::Kind::kWrite1, CellRole::kVictim, true, -1},
      {Op::Kind::kWrite0, CellRole::kAggressorBl, true, -1},
      {Op::Kind::kWrite1, CellRole::kAggressorBl, true, -1},
  };
  const int required_state = required_entry_state(base);
  std::vector<int> idx(len, 0);
  while (true) {
    Sos sos;
    int last_victim_write = -1;
    for (int k = 0; k < len; ++k) {
      const Op& op = vocab[idx[k]];
      sos.ops.push_back(op);
      if (op.target == CellRole::kVictim) last_victim_write = op.write_value();
    }
    // Without a victim write the base initialization is kept (if it
    // exists); otherwise the prefix provides (and must match) the required
    // entry state.
    const bool keeps_init = last_victim_write < 0;
    if (keeps_init || required_state < 0 ||
        last_victim_write == required_state) {
      sos.initial_victim = keeps_init ? base.initial_victim : -1;
      sos.initial_aggressor = base.initial_aggressor;
      sos.ops.insert(sos.ops.end(), base.ops.begin(), base.ops.end());
      out.push_back(std::move(sos));
    }
    // Next combination.
    int k = len - 1;
    while (k >= 0 && ++idx[k] == 4) idx[k--] = 0;
    if (k < 0) break;
  }
}

}  // namespace

CompletionResult search_completing_ops(const CompletionSpec& spec) {
  PF_CHECK_MSG(!spec.probe_r.empty() && !spec.probe_u.empty(),
               "completion search needs probe rows and voltages");
  CompletionResult result;
  const ExecutionPolicy& policy = spec.exec;
  const ParallelGridRunner runner(policy);
  const Sos& base = spec.base.sos;
  const auto lines = dram::floating_lines_for(spec.defect, spec.params);
  PF_CHECK(spec.floating_line_index < lines.size());
  const dram::FloatingLine& line = lines[spec.floating_line_index];
  // State faults have no sensitizing operation; the candidate needs an idle
  // precharge cycle before observation (the mechanism that flips the cell).
  const bool is_state_fault = base.ops.empty();
  // Probe simulators see the search's cancellation token, so the solver
  // watchdog can abandon a probe mid-transient.
  dram::DramParams probe_params = spec.params;
  probe_params.sim.cancel = policy.cancel;

  // Compile-once pipeline: one template for the whole search and
  // per-worker sessions that persist ACROSS candidates, so each probe
  // resumes from the longest completing prefix its worker already solved at
  // that probe point (SosSession's snapshot trie). A restored trajectory is
  // bit-identical to a re-solved one: verdicts do not depend on which
  // candidates a worker ran before.
  std::unique_ptr<SosSession> prototype;
  if (policy.plan.circuit_mode == CircuitMode::kReuse) {
    dram::Defect proto_defect = spec.defect;
    proto_defect.resistance = spec.probe_r.front();
    prototype = std::make_unique<SosSession>(probe_params, proto_defect);
  }
  std::vector<std::unique_ptr<SosSession>> sessions(
      static_cast<size_t>(runner.workers()));
  const auto session_for = [&](int worker) -> SosSession& {
    std::unique_ptr<SosSession>& session =
        sessions[static_cast<size_t>(worker)];
    if (session == nullptr)
      session = std::make_unique<SosSession>(prototype->clone());
    return *session;
  };

  // The candidate is accepted iff it reproduces the base <F, R> at EVERY
  // probe point. Its probes run in order on one worker and stop at the
  // first mismatch, or as soon as a lower-index candidate was accepted.
  const size_t n_u = spec.probe_u.size();
  const size_t n_probes = spec.probe_r.size() * n_u;
  // Per prefix length: the candidates, the lowest accepted index so far,
  // and each candidate's probe tally.
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<Sos> soses;
  std::atomic<size_t> accepted{kNone};
  struct Tally {
    uint64_t runs = 0;
    uint64_t failures = 0;
  };
  std::vector<Tally> tallies;
  const auto evaluate = [&](size_t index, int worker) {
    const Sos& sos = soses[index];
    Tally& tally = tallies[index];
    for (size_t k = 0; k < n_probes; ++k) {
      if (accepted.load(std::memory_order_relaxed) < index) return false;
      const double r = spec.probe_r[k / n_u];
      const double u = spec.probe_u[k % n_u];
      ++tally.runs;
      dram::Defect defect = spec.defect;
      defect.resistance = r;
      ExperimentContext ctx;
      ctx.key = completion_key(r, u);
      ctx.defect = dram::defect_name(spec.defect);
      ctx.line = line.label;
      ctx.r_def = r;
      ctx.u = u;
      ctx.sos = sos.to_string();
      const RobustOutcome ro =
          prototype != nullptr
              ? run_sos_robust(session_for(worker), probe_params.sim, defect,
                               &line, u, sos, policy.retry, ctx,
                               is_state_fault)
              : run_sos_robust(probe_params, defect, &line, u, sos,
                               policy.retry, ctx, is_state_fault);
      if (!ro.solved) {
        // An unsolvable probe cannot demonstrate the completion; reject
        // the candidate and keep searching instead of aborting the whole
        // catalogue run.
        ++tally.failures;
        return false;
      }
      const SosOutcome& out = ro.outcome;
      if (!out.faulty || out.final_state != spec.base.faulty_state ||
          out.read_result != spec.base.read_result)
        return false;
    }
    return true;
  };

  for (int len = 1; len <= spec.max_prefix_ops; ++len) {
    soses.clear();
    enumerate_candidates(len, base, soses);

    // Candidates fan out over the workers in ascending order; `accepted`
    // is the lowest accepted index so far. Candidates above it skip or
    // abandon their probes, candidates below it always finish, so the
    // committed minimum — and every tally up to it — equals the serial
    // loop's at any thread count.
    accepted.store(kNone);
    tallies.assign(soses.size(), Tally{});
    runner.run(soses.size(), [&](size_t i, int worker) {
      if (!evaluate(i, worker)) return;
      size_t best = accepted.load(std::memory_order_relaxed);
      while (i < best && !accepted.compare_exchange_weak(best, i)) {
      }
    });
    const size_t committed = accepted.load();
    const size_t evaluated =
        committed == kNone ? soses.size() : committed + 1;
    result.candidates_evaluated += static_cast<int>(evaluated);
    for (size_t i = 0; i < tallies.size(); ++i) {
      result.sos_runs += tallies[i].runs;  // speculative extras included
      if (i < evaluated) result.solver_failures += tallies[i].failures;
    }
    if (committed != kNone) {
      result.possible = true;
      result.completed.sos = soses[committed];
      result.completed.faulty_state = spec.base.faulty_state;
      result.completed.read_result = spec.base.read_result;
      break;
    }
  }
  for (const std::unique_ptr<SosSession>& session : sessions) {
    if (session == nullptr) continue;
    result.steps_solved += session->steps_solved();
    result.prefix_restores += session->prefix_restores();
  }
  if (result.possible)
    PF_LOG_INFO("completed " << spec.base.to_string() << " as "
                             << result.completed.to_string() << " after "
                             << result.candidates_evaluated << " candidates");
  else
    PF_LOG_INFO("no completing operations for " << spec.base.to_string()
                                                << " (not possible)");
  return result;
}

CompletionResult search_completing_ops_with_fallback(
    const CompletionSpec& spec_template, const RegionMap& base_map,
    faults::Ffm ffm, size_t rows_per_window, size_t max_windows,
    double max_ratio_below_top) {
  CompletionResult total;
  std::vector<double> rows = partial_rows(base_map, ffm);
  if (rows.empty()) return total;
  // Stay within the genuinely-floating regime near the top partial row.
  const double r_floor = rows.back() / max_ratio_below_top;
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&](double r) { return r < r_floor; }),
             rows.end());
  const auto lines =
      dram::floating_lines_for(spec_template.defect, spec_template.params);
  PF_CHECK(spec_template.floating_line_index < lines.size());
  const dram::FloatingLine& line = lines[spec_template.floating_line_index];

  size_t window = 0;
  for (size_t top = rows.size(); top > 0 && window < max_windows; ++window) {
    CompletionSpec spec = spec_template;
    spec.probe_r.clear();
    for (size_t k = 0; k < rows_per_window && top > 0; ++k)
      spec.probe_r.push_back(rows[--top]);

    // Re-observe the base <F, R> at this window's top row, at the centre of
    // the observation band there.
    {
      dram::Defect probe = spec.defect;
      probe.resistance = spec.probe_r.front();
      size_t iy = 0;
      for (size_t i = 0; i < base_map.spec().r_axis.size(); ++i)
        if (base_map.spec().r_axis[i] == probe.resistance) iy = i;
      const pf::IntervalSet band = base_map.u_band(ffm, iy);
      const pf::Interval hull = band.hull();
      const double u_mid = band.empty()
                               ? (line.min_v + line.max_v) / 2
                               : (hull.lo + hull.hi) / 2;
      ExperimentContext ctx;
      ctx.key = completion_key(probe.resistance, u_mid);
      ctx.defect = dram::defect_name(spec.defect);
      ctx.line = line.label;
      ctx.r_def = probe.resistance;
      ctx.u = u_mid;
      ctx.sos = spec.base.sos.to_string();
      dram::DramParams probe_params = spec.params;
      probe_params.sim.cancel = spec.exec.cancel;
      const RobustOutcome ro = run_sos_robust(probe_params, probe, &line,
                                              u_mid, spec.base.sos,
                                              spec.exec.retry, ctx);
      ++total.sos_runs;
      if (!ro.solved) {
        ++total.solver_failures;
        continue;  // degrade to the next window
      }
      const SosOutcome& out = ro.outcome;
      if (!out.faulty || faults::classify(out.observed) != ffm) continue;
      spec.base.faulty_state = out.final_state;
      spec.base.read_result = out.read_result;
    }

    const CompletionResult attempt = search_completing_ops(spec);
    total.candidates_evaluated += attempt.candidates_evaluated;
    total.sos_runs += attempt.sos_runs;
    total.solver_failures += attempt.solver_failures;
    total.steps_solved += attempt.steps_solved;
    total.prefix_restores += attempt.prefix_restores;
    if (attempt.possible) {
      total.possible = true;
      total.completed = attempt.completed;
      return total;
    }
  }
  return total;
}

}  // namespace pf::analysis
