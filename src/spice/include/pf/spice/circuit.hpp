// Compile-once / stamp-many circuit pipeline.
//
// The sweep engines (src/analysis) evaluate the same circuit topology at
// thousands of (defect resistance, initial voltage) points. Splitting the old
// monolithic Simulator into two halves removes every per-point rebuild from
// that hot path:
//
//  * CircuitTemplate — the immutable "compiled" half: a frozen copy of the
//    netlist, the known/unknown node partition, and (when the circuit has no
//    voltage sources) the full symbolic factorization — a fill-reducing
//    minimum-degree permutation, the filled sparsity pattern as flat slot
//    arrays, a static elimination schedule, and per-device stamp plans that
//    resolve node -> matrix-slot indirection once. Building a template is the
//    expensive symbolic pass; it happens once per topology and is shared
//    (via shared_ptr) by any number of run states on any number of threads.
//
//  * CompiledCircuit — the mutable run state: node voltages, source/rail
//    ramp levels, time, step size, statistics, and the numeric matrix
//    values. It exposes the same transient API the old Simulator had
//    (set_rail / set_source / run_for / ...) plus what sweeps need:
//    ParamHandle-based restamping (set_resistance), deep state snapshots
//    (save_state / restore_state) and reset_to_initial(), which reproduces
//    the exact state of a freshly constructed circuit.
//
// Numerics: circuits WITH voltage sources keep the dense partial-pivot LU
// path, bit-for-bit identical to the old engine (generic spice decks are
// regression-tested against it). Circuits WITHOUT voltage sources — the DRAM
// column eliminates all supplies as rails — use the sparse static-order path
// compiled into the template. Both paths are fully deterministic: a restored
// snapshot or a reset_to_initial() run state retraces exactly the same
// floating-point trajectory as a freshly built one, which is what lets the
// analysis layer reuse circuits across grid points while keeping sweep
// results bit-identical to the rebuild-per-point baseline.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pf/spice/matrix.hpp"
#include "pf/spice/netlist.hpp"
#include "pf/spice/sim_options.hpp"
#include "pf/spice/waveform.hpp"

namespace pf::spice {

/// Typed handle to a numeric parameter a sweep varies without recompiling
/// the template — today always a resistance (defect resistance, cell leak).
/// Obtained from CircuitTemplate::resistance_param and applied with
/// CompiledCircuit::set_resistance. Handles are plain indices into the
/// template's device table: trivially copyable, valid for the template's
/// lifetime, and shared by every CompiledCircuit of that template.
struct ParamHandle {
  int index = -1;
  bool valid() const { return index >= 0; }
};

/// Immutable compiled topology. Thread-safe to share: everything here is
/// written once by the constructor and only read afterwards.
class CircuitTemplate {
 public:
  /// Compiles the netlist (taken by value: the template owns a frozen copy,
  /// so later mutation of the caller's netlist cannot desynchronize it).
  explicit CircuitTemplate(Netlist netlist);

  const Netlist& netlist() const { return net_; }

  /// Handle for restamping the named resistor on a CompiledCircuit.
  /// Throws pf::Error when no such resistor exists.
  ParamHandle resistance_param(const std::string& name) const;

  size_t node_count() const { return n_nodes_; }
  size_t unknown_count() const { return n_unknowns_; }
  /// True when the static-order sparse path is compiled in (no vsources).
  bool sparse() const { return sparse_; }
  /// Stored entries of the filled factor pattern (0 in dense mode).
  size_t nonzero_count() const { return nnz_; }

 private:
  friend class CompiledCircuit;

  void build_symbolic();

  // --- common to both engines -------------------------------------------
  Netlist net_;
  size_t n_nodes_ = 0;         // including ground and rails
  size_t n_node_unknowns_ = 0;
  size_t n_unknowns_ = 0;      // node unknowns + #vsources (dense mode)
  std::vector<int> unknown_of_node_;     // -1 for ground/rails
  std::vector<NodeId> node_of_unknown_;  // inverse map for diagnostics
  std::vector<NodeId> rail_nodes_;       // known nodes other than ground
  bool sparse_ = false;

  // --- sparse engine: permutation + filled pattern ----------------------
  size_t nnz_ = 0;
  std::vector<int> unknown_of_pos_;   // elimination order: position -> unknown
  std::vector<int> pos_of_unknown_;
  std::vector<NodeId> node_of_pos_;
  std::vector<int32_t> slot_of_;      // n*n permuted pattern, -1 = structural 0
  std::vector<int32_t> diag_slot_;    // per position

  // --- sparse engine: static elimination schedule -----------------------
  // Right-looking LU without pivoting over the filled pattern. For pivot
  // position k: rows_ lists the sub-diagonal entries of column k (these
  // become L), cols_ the super-diagonal entries of row k (these are U), and
  // upd_slots_ the target slot of every (row x col) rank-1 update, laid out
  // row-major per step. The same lists drive the triangular solves.
  struct FactorStep {
    uint32_t row_begin = 0, row_end = 0;  // into rows_
    uint32_t col_begin = 0, col_end = 0;  // into cols_
  };
  struct FactorRow {
    int32_t i = 0;          // row position
    int32_t ik_slot = 0;    // slot of (i, k)
    uint32_t upd_begin = 0; // into upd_slots_, one entry per step column
  };
  struct FactorCol {
    int32_t j = 0;          // column position
    int32_t kj_slot = 0;    // slot of (k, j)
  };
  std::vector<FactorStep> steps_;
  std::vector<FactorRow> rows_;
  std::vector<FactorCol> cols_;
  std::vector<int32_t> upd_slots_;

  // --- sparse engine: device stamp plans --------------------------------
  // Node -> slot indirection resolved at compile time; -1 marks a term that
  // folds into the RHS (known-node terminal) or vanishes (both known).
  struct ResistorPlan {
    int32_t saa = -1, sbb = -1, sab = -1, sba = -1;  // matrix slots
    int32_t pa = -1, pb = -1;  // permuted row of each terminal (-1 = known)
    NodeId a = kGround, b = kGround;
  };
  struct CapacitorPlan {
    int32_t saa = -1, sbb = -1, sab = -1, sba = -1;
    int32_t pa = -1, pb = -1;
    NodeId a = kGround, b = kGround;
    double farads = 0.0;
  };
  struct MosfetPlan {
    NodeId d = kGround, g = kGround, s = kGround;
    MosParams params;
    double sigma = 1.0;        // +1 NMOS, -1 PMOS
    int32_t pu[3] = {-1, -1, -1};    // permuted row of {g, d, s}
    int32_t slot[2][3] = {{-1, -1, -1}, {-1, -1, -1}};
    // slot[r][c]: row r in {d, s}, column c in {g, d, s}; -1 if either known.
  };
  std::vector<ResistorPlan> res_plans_;
  std::vector<int32_t> res_folds_;  // resistor indices with one known terminal
  std::vector<CapacitorPlan> cap_plans_;
  std::vector<MosfetPlan> mos_plans_;
};

/// Mutable run state over a shared CircuitTemplate. Copying a
/// CompiledCircuit is cheap relative to recompiling (it duplicates vectors,
/// never the symbolic pass) and yields an independent run state sharing the
/// same template — this is how DramColumn::clone_fresh hands each sweep
/// worker its own circuit. Not thread-safe itself: one CompiledCircuit per
/// thread.
class CompiledCircuit {
 public:
  explicit CompiledCircuit(std::shared_ptr<const CircuitTemplate> tpl,
                           SimOptions options = {});

  const CircuitTemplate& circuit_template() const { return *tpl_; }
  const std::shared_ptr<const CircuitTemplate>& template_ptr() const {
    return tpl_;
  }

  double time() const { return t_; }
  const SimOptions& options() const { return options_; }
  /// Replace the engine options (retry loops tighten tolerances between
  /// attempts). Leaves run state untouched: combine with reset_to_initial()
  /// to reproduce a fresh build under the new options.
  void set_options(const SimOptions& options);
  const SimStats& stats() const { return stats_; }

  /// Current voltage of a node (ground returns 0, rails their level).
  double node_voltage(NodeId n) const;

  /// Override a node's state voltage. This is the floating-voltage
  /// initialization hook of the fault-analysis method: it rewrites the
  /// "previous" solution so the next step starts charge redistribution from
  /// the overridden value. Rails and ground cannot be overridden; overriding
  /// a node that a source holds has no lasting effect (the solver snaps it
  /// back within one step).
  void set_node_voltage(NodeId n, double volts);

  /// Retarget an independent source with the default (or given) slew.
  void set_source(SourceId s, double volts);
  void set_source(SourceId s, double volts, double slew);
  double source_value(SourceId s) const;

  /// Retarget a rail with the default (or given) slew.
  void set_rail(NodeId rail, double volts);
  void set_rail(NodeId rail, double volts, double slew);

  /// Restamp a template parameter (defect resistance sweep hot path): takes
  /// effect from the next step, invalidating the cached static conductances
  /// but never the symbolic factorization.
  void set_resistance(ParamHandle h, double ohms);
  double resistance(ParamHandle h) const;

  /// Called after every accepted step with (time, circuit).
  using StepCallback = std::function<void(double, const CompiledCircuit&)>;

  /// Advance the simulation by `duration` seconds.
  void run_for(double duration, const StepCallback& callback = {});

  /// Advance with a temporarily raised step ceiling: used for long idle
  /// stretches (retention pauses) where nothing switches and backward
  /// Euler's L-stability makes millisecond steps safe.
  void run_for_with_ceiling(double duration, double dt_max,
                            const StepCallback& callback = {});

  /// Deep copy of everything that evolves during a transient: time, step
  /// size, node voltages, branch currents, in-flight ramps, and statistics
  /// (the Newton-budget watchdog counts over a run state's life, so restored
  /// state must restore the accrued count too). Parameter values and cached
  /// stamps are NOT part of a snapshot — they belong to the (circuit,
  /// parameters) configuration, not to the trajectory.
  struct State {
    double t = 0.0;
    double dt = 0.0;
    std::vector<double> v;
    std::vector<double> branch_i;
    std::vector<RampedLevel> sources;
    std::vector<RampedLevel> rails;
    SimStats stats;
  };
  State save_state() const;
  /// Restore a snapshot taken on a circuit of the same template. The wall-
  /// clock watchdog anchor restarts at the next run_for (wall time is a
  /// bound, not part of the deterministic trajectory).
  void restore_state(const State& state);

  /// Return the run state to exactly what a freshly constructed
  /// CompiledCircuit(tpl, options()) would hold — same voltages, ramps,
  /// time, zeroed statistics. Parameter overrides survive (they model the
  /// physical circuit, not the trajectory).
  void reset_to_initial();

 private:
  // Dense engine (verbatim port of the original Simulator: circuits with
  // voltage sources keep bit-identical numerics).
  void load_system_dense(double h, const std::vector<double>& v_prev,
                         double t_new);
  int try_step_dense(double h, double t_new);

  // Sparse static-order engine.
  void ensure_static_stamps();
  void ensure_rc_stamps(double h);
  void build_rhs_base(double h, const std::vector<double>& v_prev);
  bool factor_and_solve_sparse();  // false on a tiny pivot
  int try_step_sparse(double h, double t_new);

  int try_step(double h, double t_new);
  bool apply_injected_fault();
  void check_watchdogs();
  void init_state();  // shared by the constructor and reset_to_initial

  std::shared_ptr<const CircuitTemplate> tpl_;
  SimOptions options_;
  SimStats stats_;

  double t_ = 0.0;
  double dt_ = 0.0;

  // Failure diagnostics: the node with the largest undamped Newton delta in
  // the most recent try_step, so convergence errors can name it.
  NodeId worst_node_ = kGround;
  double worst_dv_ = 0.0;

  // Wall-clock watchdog anchor, started lazily by the first run_for.
  std::chrono::steady_clock::time_point wall_start_{};
  bool wall_started_ = false;

  std::vector<double> v_;        // node voltages incl. ground/rails, committed
  std::vector<double> branch_i_; // vsource branch currents, committed
  std::vector<RampedLevel> source_levels_;
  std::vector<RampedLevel> rail_levels_;  // indexed by NodeId (unused idle)

  // Parameter values, indexed like the template's resistor table.
  std::vector<double> r_ohms_;

  // Sparse numeric caches. All cache contents are pure functions of
  // (template, parameters, h), so a cache hit and a rebuild produce the
  // same bits — reuse cannot perturb results.
  bool static_dirty_ = true;
  std::vector<double> g_static_;  // resistors + gmin, per slot
  double cached_h_ = -1.0;
  std::vector<double> g_rc_;      // g_static_ + capacitor geq, per slot
  std::vector<double> a_;         // working factor values, per slot
  std::vector<double> rhs_base_;  // per-step RHS (known-node folds, companions)

  // Scratch buffers reused across steps (no per-step allocation).
  Matrix g_;                     // dense engine
  std::vector<size_t> perm_;     // dense engine
  std::vector<double> rhs_;
  std::vector<double> x_;        // candidate unknown vector
  std::vector<double> v_cand_;   // candidate node voltages incl. known nodes
  std::vector<double> v_prev_scratch_;
  std::vector<double> pivot_row_scratch_;  // packed U(k, j) values, per k
};

}  // namespace pf::spice
