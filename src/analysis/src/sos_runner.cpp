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

// Step 1 of the recipe: the SOS's initializing states, applied as ordinary
// (defective) operations. Runs BEFORE the floating-voltage injection, so
// the resulting column state depends only on (configuration, initial
// states) — the invariant behind the root of SosSession's snapshot trie.
void apply_initial_states(DramColumn& column, const Sos& sos) {
  if (sos.initial_aggressor >= 0)
    column.write(DramColumn::kAggressorSameBl, sos.initial_aggressor);
  if (sos.initial_victim >= 0)
    column.write(DramColumn::kVictim, sos.initial_victim);
}

int address_of(const Op& op) {
  return op.target == CellRole::kVictim ? DramColumn::kVictim
                                        : DramColumn::kAggressorSameBl;
}

// Steps 3-4 from operation `first` on: the remaining operations, then
// observation and classification. The column must already carry the
// initializing states, the floating-voltage injection and ops [0, first),
// which must all be writes (they produce no read result).
SosOutcome observe_sos(DramColumn& column, const Sos& sos, size_t first,
                       bool idle_before_observe) {
  const int victim = DramColumn::kVictim;

  // 3. Operations.
  int last_victim_read = -1;
  bool last_op_is_victim_read = false;
  for (size_t i = first; i < sos.ops.size(); ++i) {
    const Op& op = sos.ops[i];
    if (op.is_read()) {
      const int got = column.read(address_of(op));
      if (op.target == CellRole::kVictim) last_victim_read = got;
    } else {
      column.write(address_of(op), op.write_value());
    }
    last_op_is_victim_read =
        op.is_read() && op.target == CellRole::kVictim;
  }
  // Operation-free SOS (state faults): give the floating line one precharge
  // cycle to act on the cell.
  int pre_idle_state = -1;
  if (sos.ops.empty() || idle_before_observe) {
    pre_idle_state = column.cell_logical(victim);
    column.idle_cycle();
  }

  // 4. Observation and classification. Guard first: a non-finite storage
  // voltage (silently diverged solve) must surface as a retryable solver
  // failure — thresholding NaN would classify a bogus fault primitive.
  const double victim_v = column.cell_voltage(victim);
  if (!std::isfinite(victim_v)) {
    std::ostringstream os;
    os << "non-finite victim storage voltage (" << victim_v
       << ") before FFM classification";
    throw ConvergenceError(os.str());
  }
  SosOutcome out;
  out.final_state = column.cell_logical(victim);
  out.read_result = last_op_is_victim_read ? last_victim_read : -1;
  out.observed.sos = sos;
  out.observed.faulty_state = out.final_state;
  out.observed.read_result = out.read_result;
  out.faulty = out.observed.is_fault();
  // A state fault must be CAUSED by the memory during the idle cycle;
  // merely retaining the injected floating voltage is not a fault of the
  // cell's own dynamics (the injection itself encodes unknown history).
  if (sos.ops.empty() && out.final_state == pre_idle_state) out.faulty = false;
  if (out.faulty) out.ffm = faults::classify(out.observed);
  return out;
}

}  // namespace

SosOutcome run_sos_on(DramColumn& column, const dram::FloatingLine* line,
                      double u, const Sos& sos, bool idle_before_observe) {
  apply_initial_states(column, sos);
  if (line != nullptr) column.apply_floating_voltage(*line, u);  // step 2
  return observe_sos(column, sos, 0, idle_before_observe);
}

SosOutcome run_sos(const dram::DramParams& params, const dram::Defect& defect,
                   const dram::FloatingLine* line, double u, const Sos& sos,
                   bool idle_before_observe) {
  DramColumn column(params, defect);
  return run_sos_on(column, line, u, sos, idle_before_observe);
}

SosSession::SosSession(const dram::DramParams& params,
                       const dram::Defect& defect)
    : column_(params, defect) {}

SosOutcome SosSession::run(double r_def, const spice::SimOptions& options,
                           const dram::FloatingLine* line, double u,
                           const Sos& sos, bool idle_before_observe) {
  // Reconfigure through the compiled template: both setters are cheap
  // no-ops when the value is already stamped, so consecutive points of one
  // grid row (same R_def, same options) reset() via snapshot restore
  // without solving anything.
  column_.set_defect_resistance(r_def);
  column_.set_sim_options(options);
  // Every stored trajectory was solved under (trie_r_, trie_options_).
  if (trie_.empty() || r_def != trie_r_ ||
      !spice::same_numerics(options, trie_options_)) {
    trie_.clear();
    trie_r_ = r_def;
    trie_options_ = options;
  }
  uint64_t restored_steps = 0;
  try {
    SosOutcome out =
        run_from_trie(line, u, sos, idle_before_observe, restored_steps);
    steps_solved_ += column_.sim_stats().steps - restored_steps;
    return out;
  } catch (...) {
    steps_solved_ += column_.sim_stats().steps - restored_steps;
    throw;
  }
}

SosOutcome SosSession::run_from_trie(const dram::FloatingLine* line, double u,
                                     const Sos& sos, bool idle_before_observe,
                                     uint64_t& restored_steps) {
  const uint64_t u_bits = std::bit_cast<uint64_t>(u);
  size_t leading = 0;  // leading completing writes: the shareable prefix
  while (leading < sos.ops.size() && sos.ops[leading].completing &&
         sos.ops[leading].is_write())
    ++leading;

  // Keep a snapshot unless a fault-injection test fired into its
  // trajectory (SimStats travel with snapshots, so the count covers every
  // restored step too): a corrupted attempt must not leak into the runs
  // that would restore it. Runs without a completing prefix (sweeps) still
  // store their root unconditionally: the fuzz harness's planted-mutation
  // test convicts its corrupted grid point only through that spread.
  const auto store = [&](size_t depth) {
    if (leading > 0 && column_.sim_stats().injected_faults != 0) return;
    Snapshot s;
    s.init_victim = sos.initial_victim;
    s.init_aggressor = sos.initial_aggressor;
    if (depth > 0) {
      if (line != nullptr) s.line = *line;
      s.u_bits = u_bits;
      s.ops.assign(sos.ops.begin(), sos.ops.begin() + depth);
    }
    s.state = column_.save_state();
    trie_.push_back(std::move(s));
  };

  // The deepest stored prefix; the SOS's last leading write is never
  // stored, so at least one operation is always left to solve.
  size_t depth = leading > 0 ? leading - 1 : 0;
  const Snapshot* node = nullptr;
  while (depth > 0 && (node = find(sos, line, u_bits, depth)) == nullptr)
    --depth;
  if (node != nullptr)
    ++prefix_restores_;
  else
    node = find(sos, line, u_bits, 0);  // the post-initialization root
  if (node != nullptr) {
    column_.restore_state(node->state);
    restored_steps = column_.sim_stats().steps;
  } else {
    // Cold start: bit-identical to a freshly built column, then the
    // initializing writes (solved once per init variant and configuration).
    const bool power_up_cached = column_.power_up_cached();
    column_.reset();
    if (power_up_cached) restored_steps = column_.sim_stats().steps;
    apply_initial_states(column_, sos);
    store(0);
  }
  if (depth == 0 && line != nullptr) column_.apply_floating_voltage(*line, u);

  // Solve the leading writes one at a time, storing each new prefix.
  for (; depth + 1 < leading; ++depth) {
    const Op& op = sos.ops[depth];
    column_.write(address_of(op), op.write_value());
    store(depth + 1);
  }
  return observe_sos(column_, sos, depth, idle_before_observe);
}

const SosSession::Snapshot* SosSession::find(const Sos& sos,
                                             const dram::FloatingLine* line,
                                             uint64_t u_bits,
                                             size_t depth) const {
  for (const Snapshot& s : trie_) {
    if (s.init_victim != sos.initial_victim ||
        s.init_aggressor != sos.initial_aggressor || s.ops.size() != depth)
      continue;
    if (depth == 0) return &s;  // roots precede the injection
    if (s.u_bits != u_bits || s.line.has_value() != (line != nullptr) ||
        (line != nullptr && *s.line != *line))
      continue;
    if (std::equal(s.ops.begin(), s.ops.end(), sos.ops.begin())) return &s;
  }
  return nullptr;
}

}  // namespace pf::analysis
