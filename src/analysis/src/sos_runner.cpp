#include "pf/analysis/sos_runner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "pf/util/error.hpp"

namespace pf::analysis {

using dram::DramColumn;
using faults::CellRole;
using faults::Op;
using faults::Sos;

namespace {

int address_of(const Op& op) {
  return op.target == CellRole::kVictim ? DramColumn::kVictim
                                        : DramColumn::kAggressorSameBl;
}

bool last_op_is_victim_read(const Sos& sos) {
  return !sos.ops.empty() && sos.ops.back().is_read() &&
         sos.ops.back().target == CellRole::kVictim;
}

// Step 4 of the recipe: observation and classification of the column after
// the SOS. `last_victim_read` is the result of the SOS's last victim read
// (-1: none); `state_at_injection` is the victim's logical state right
// after the floating-voltage injection, which for an operation-free SOS is
// its state before the idle cycle.
SosOutcome classify(const DramColumn& column, const Sos& sos,
                    int last_victim_read, int state_at_injection) {
  // Guard first: a non-finite storage voltage (silently diverged solve)
  // must surface as a retryable solver failure — thresholding NaN would
  // classify a bogus fault primitive.
  const double victim_v = column.cell_voltage(DramColumn::kVictim);
  if (!std::isfinite(victim_v)) {
    std::ostringstream os;
    os << "non-finite victim storage voltage (" << victim_v
       << ") before FFM classification";
    throw ConvergenceError(os.str());
  }
  SosOutcome out;
  out.final_state = column.cell_logical(DramColumn::kVictim);
  out.read_result = last_op_is_victim_read(sos) ? last_victim_read : -1;
  out.observed.sos = sos;
  out.observed.faulty_state = out.final_state;
  out.observed.read_result = out.read_result;
  out.faulty = out.observed.is_fault();
  // A state fault must be CAUSED by the memory during the idle cycle;
  // merely retaining the injected floating voltage is not a fault of the
  // cell's own dynamics (the injection itself encodes unknown history).
  if (sos.ops.empty() && out.final_state == state_at_injection)
    out.faulty = false;
  if (out.faulty) out.ffm = faults::classify(out.observed);
  return out;
}

}  // namespace

SosOutcome run_sos(const dram::DramParams& params, const dram::Defect& defect,
                   const dram::FloatingLine* line, double u, const Sos& sos,
                   bool idle_before_observe) {
  DramColumn column(params, defect);
  // 1. Initializing states, applied as ordinary (defective) operations.
  if (sos.initial_aggressor >= 0)
    column.write(DramColumn::kAggressorSameBl, sos.initial_aggressor);
  if (sos.initial_victim >= 0)
    column.write(DramColumn::kVictim, sos.initial_victim);
  // 2. Floating-voltage injection.
  if (line != nullptr) column.apply_floating_voltage(*line, u);
  const int state_at_injection = column.cell_logical(DramColumn::kVictim);
  // 3. Operations. An operation-free SOS (state faults) gets one precharge
  // cycle for the floating line to act on the cell.
  int last_victim_read = -1;
  for (const Op& op : sos.ops) {
    if (op.is_read()) {
      const int got = column.read(address_of(op));
      if (op.target == CellRole::kVictim) last_victim_read = got;
    } else {
      column.write(address_of(op), op.write_value());
    }
  }
  if (sos.ops.empty() || idle_before_observe) column.idle_cycle();
  return classify(column, sos, last_victim_read, state_at_injection);
}

SosSession::SosSession(const dram::DramParams& params,
                       const dram::Defect& defect)
    : column_(params, defect) {}

namespace {

/// One step of an SOS's trajectory in run_all's phase-prefix tree. Two SOSes
/// share a tree node for as long as their steps compare equal.
struct Step {
  enum class Kind {
    kReset,    ///< cold start: the column's pristine post-power-up state
    kRestore,  ///< start from trie node `node`
    kPhase,    ///< apply `phase`
    kStore,    ///< store the trie node for the first `depth` ops of `sos`
    kInject,   ///< apply the floating voltage
  };
  Kind kind = Kind::kPhase;
  dram::OpPhase phase;
  bool victim_read = false;  ///< kPhase: its latch is a victim read's result
  size_t node = 0;           ///< kRestore
  size_t depth = 0;          ///< kStore: 0 = root
  const Sos* sos = nullptr;  ///< kStore

  static Step of(Kind kind) {
    Step step;
    step.kind = kind;
    return step;
  }
  static Step store(size_t depth, const Sos& sos) {
    Step step = of(Kind::kStore);
    step.depth = depth;
    step.sos = &sos;
    return step;
  }

  friend bool operator==(const Step& a, const Step& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case Kind::kReset:
      case Kind::kInject:
        return true;
      case Kind::kRestore:
        return a.node == b.node;
      case Kind::kPhase:
        return a.victim_read == b.victim_read && a.phase == b.phase;
      case Kind::kStore:
        return a.depth == b.depth &&
               a.sos->initial_victim == b.sos->initial_victim &&
               a.sos->initial_aggressor == b.sos->initial_aggressor &&
               std::equal(a.sos->ops.begin(), a.sos->ops.begin() + a.depth,
                          b.sos->ops.begin());
    }
    return false;
  }
};

void append_op(std::vector<Step>& program, const DramColumn& column,
               const Op& op) {
  const bool victim_read = op.is_read() && op.target == CellRole::kVictim;
  for (dram::OpPhase& phase :
       column.operation_phases(address_of(op), op.is_write(),
                               op.is_write() ? op.write_value() : 0)) {
    program.push_back(Step::of(Step::Kind::kPhase));
    program.back().victim_read = victim_read && phase.latch_after;
    program.back().phase = std::move(phase);
  }
}

/// The values a trajectory carries besides the column state.
struct Carried {
  int state_at_injection = -1;
  int last_victim_read = -1;
};

}  // namespace

struct SosSession::Batch {
  const std::vector<Sos>& soses;
  const dram::FloatingLine* line;
  double u;
  std::vector<std::vector<Step>> programs;
  std::vector<SosOutcome> outcomes;
  std::vector<std::exception_ptr>* failures;
  std::vector<size_t> deferred;  ///< SOSes to re-solve alone from their start
  Carried carried;

  /// Record SOS i's failure (the exception in flight), or rethrow it when
  /// the caller asked for the first failure to propagate.
  void fail(size_t i) {
    if (failures == nullptr) throw;
    (*failures)[i] = std::current_exception();
  }
};

SosOutcome SosSession::run(double r_def, const spice::SimOptions& options,
                           const dram::FloatingLine* line, double u,
                           const Sos& sos, bool idle_before_observe) {
  return run_all(r_def, options, line, u, {sos}, idle_before_observe)
      .front();
}

std::vector<SosOutcome> SosSession::run_all(
    double r_def, const spice::SimOptions& options,
    const dram::FloatingLine* line, double u, const std::vector<Sos>& soses,
    bool idle_before_observe, std::vector<std::exception_ptr>* failures) {
  // Reconfigure through the compiled template: both setters are cheap
  // no-ops when the value is already stamped, so consecutive points of one
  // grid row (same R_def, same options) restore the trie's roots without
  // solving anything.
  column_.set_defect_resistance(r_def);
  column_.set_sim_options(options);
  // Every stored trajectory was solved under (trie_r_, trie_options_).
  if (trie_.empty() || r_def != trie_r_ ||
      !spice::same_numerics(options, trie_options_)) {
    trie_.clear();
    trie_r_ = r_def;
    trie_options_ = options;
  }
  if (failures != nullptr) failures->assign(soses.size(), nullptr);

  Batch batch{soses, line, u, {}, std::vector<SosOutcome>(soses.size()),
              failures, {}, {}};
  const uint64_t u_bits = std::bit_cast<uint64_t>(u);
  for (const Sos& sos : soses) {
    size_t leading = 0;  // leading completing writes: the shareable prefix
    while (leading < sos.ops.size() && sos.ops[leading].completing &&
           sos.ops[leading].is_write())
      ++leading;
    // The deepest stored prefix; the SOS's last leading write is never
    // stored, so at least one operation is always left to solve.
    size_t depth = leading > 0 ? leading - 1 : 0;
    size_t node = trie_.size();
    while (depth > 0 && (node = find(sos, line, u_bits, depth)) == trie_.size())
      --depth;
    if (node != trie_.size())
      ++prefix_restores_;
    else
      node = find(sos, line, u_bits, 0);  // the post-initialization root

    std::vector<Step>& program = batch.programs.emplace_back();
    if (node != trie_.size()) {
      program.push_back(Step::of(Step::Kind::kRestore));
      program.back().node = node;
    } else {
      // Cold start: bit-identical to a freshly built column, then the
      // initializing writes (solved once per init variant and
      // configuration, and stored as the root).
      program.push_back(Step::of(Step::Kind::kReset));
      if (sos.initial_aggressor >= 0)
        append_op(program, column_,
                  Op{sos.initial_aggressor ? Op::Kind::kWrite1
                                           : Op::Kind::kWrite0,
                     CellRole::kAggressorBl});
      if (sos.initial_victim >= 0)
        append_op(program, column_,
                  Op{sos.initial_victim ? Op::Kind::kWrite1 : Op::Kind::kWrite0,
                     CellRole::kVictim});
      program.push_back(Step::store(0, sos));
    }
    if (depth == 0) program.push_back(Step::of(Step::Kind::kInject));
    for (size_t i = depth; i < sos.ops.size(); ++i) {
      append_op(program, column_, sos.ops[i]);
      if (i + 1 < leading) program.push_back(Step::store(i + 1, sos));
    }
    if (sos.ops.empty() || idle_before_observe)
      for (dram::OpPhase& phase : column_.idle_phases()) {
        program.push_back(Step::of(Step::Kind::kPhase));
        program.back().phase = std::move(phase);
      }
  }

  std::vector<size_t> all(soses.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  walk(batch, std::move(all), 0);
  // Siblings of a branch node that could not be snapshotted.
  for (size_t k = 0; k < batch.deferred.size(); ++k)
    walk(batch, {batch.deferred[k]}, 0);
  return std::move(batch.outcomes);
}

void SosSession::walk(Batch& batch, std::vector<size_t> group, size_t pos) {
  for (;;) {
    // Leaves first: an SOS whose trajectory ends here is observed before
    // any sibling moves the column.
    std::vector<size_t> rest;
    for (size_t i : group) {
      if (batch.programs[i].size() > pos) {
        rest.push_back(i);
        continue;
      }
      try {
        batch.outcomes[i] = classify(column_, batch.soses[i],
                                     batch.carried.last_victim_read,
                                     batch.carried.state_at_injection);
      } catch (const CancelledError&) {
        throw;
      } catch (const pf::Error&) {
        batch.fail(i);
      }
    }
    if (rest.empty()) return;

    // Partition the rest by their next step, in first-occurrence order.
    std::vector<std::vector<size_t>> parts;
    for (size_t i : rest) {
      const auto same = [&](const std::vector<size_t>& part) {
        return batch.programs[part.front()][pos] == batch.programs[i][pos];
      };
      const auto it = std::find_if(parts.begin(), parts.end(), same);
      if (it != parts.end())
        it->push_back(i);
      else
        parts.push_back({i});
    }

    if (parts.size() > 1) {
      // Branch node. At pos 0 every part begins with its own start, so
      // there is no state to keep.
      if (pos == 0) {
        for (std::vector<size_t>& part : parts) walk(batch, std::move(part), 0);
        return;
      }
      if (!storable()) {
        walk(batch, std::move(parts.front()), pos);
        for (size_t k = 1; k < parts.size(); ++k)
          batch.deferred.insert(batch.deferred.end(), parts[k].begin(),
                                parts[k].end());
        return;
      }
      const DramColumn::State state = column_.save_state();
      const Carried carried = batch.carried;
      ++branch_snapshots_;
      for (size_t k = 0; k < parts.size(); ++k) {
        if (k > 0) {
          column_.restore_state(state);
          batch.carried = carried;
        }
        walk(batch, std::move(parts[k]), pos);
      }
      return;
    }

    // One shared step: solve it once for the whole group. Only a phase and
    // a reset() that replays power-up (from zeroed statistics) solve steps.
    const Step& step = batch.programs[rest.front()][pos];
    const bool solves = step.kind == Step::Kind::kPhase ||
                        (step.kind == Step::Kind::kReset &&
                         !column_.power_up_cached());
    const uint64_t steps_before =
        step.kind == Step::Kind::kReset ? 0 : column_.sim_stats().steps;
    const auto count_solved = [&] {
      if (solves) steps_solved_ += column_.sim_stats().steps - steps_before;
    };
    try {
      switch (step.kind) {
        case Step::Kind::kReset:
          column_.reset();
          batch.carried = {};
          break;
        case Step::Kind::kRestore:
          column_.restore_state(trie_[step.node].state);
          batch.carried = {};
          break;
        case Step::Kind::kPhase:
          column_.apply_phase(step.phase);
          if (step.victim_read)
            batch.carried.last_victim_read =
                column_.read_value(DramColumn::kVictim);
          break;
        case Step::Kind::kStore:
          if (storable() &&
              find(*step.sos, batch.line, std::bit_cast<uint64_t>(batch.u),
                   step.depth) == trie_.size()) {
            Snapshot s;
            s.init_victim = step.sos->initial_victim;
            s.init_aggressor = step.sos->initial_aggressor;
            if (step.depth > 0) {
              if (batch.line != nullptr) s.line = *batch.line;
              s.u_bits = std::bit_cast<uint64_t>(batch.u);
              s.ops.assign(step.sos->ops.begin(),
                           step.sos->ops.begin() + step.depth);
            }
            s.state = column_.save_state();
            trie_.push_back(std::move(s));
          }
          break;
        case Step::Kind::kInject:
          if (batch.line != nullptr)
            column_.apply_floating_voltage(*batch.line, batch.u);
          batch.carried.state_at_injection =
              column_.cell_logical(DramColumn::kVictim);
          break;
      }
    } catch (const CancelledError&) {
      count_solved();
      throw;
    } catch (const pf::Error&) {
      count_solved();
      for (size_t i : rest) batch.fail(i);
      return;
    }
    count_solved();
    group = std::move(rest);
    ++pos;
  }
}

size_t SosSession::find(const Sos& sos, const dram::FloatingLine* line,
                        uint64_t u_bits, size_t depth) const {
  for (size_t k = 0; k < trie_.size(); ++k) {
    const Snapshot& s = trie_[k];
    if (s.init_victim != sos.initial_victim ||
        s.init_aggressor != sos.initial_aggressor || s.ops.size() != depth)
      continue;
    if (depth == 0) return k;  // roots precede the injection
    if (s.u_bits != u_bits || s.line.has_value() != (line != nullptr) ||
        (line != nullptr && *s.line != *line))
      continue;
    if (std::equal(s.ops.begin(), s.ops.end(), sos.ops.begin())) return k;
  }
  return trie_.size();
}

}  // namespace pf::analysis
