// Execution of a sensitizing operation sequence on the electrical DRAM
// column with floating-voltage injection — the measurement primitive of the
// paper's fault-analysis method (Section 3):
//
//   1. power the column up and apply the SOS's initializing states
//      (ordinary write operations),
//   2. override the defect's floating line to the probe voltage U,
//   3. apply the SOS's operations (completing prefix + sensitizing suffix),
//   4. observe the victim's final state F and the final read result R and
//      classify the deviation as a fault primitive / FFM.
//
// Two implementations of that recipe share one classification:
//
//   * run_sos builds a fresh DramColumn per call (netlist + compiled
//     template + power-up) and runs whole operations on it, one SOS at a
//     time. Simple, stateless, and the reference semantics every reuse
//     path must reproduce bit for bit.
//   * SosSession keeps a per-worker column alive across experiments and
//     reconfigures it per point through the compile-once pipeline: restamp
//     the defect resistance via its ParamHandle, swap engine options in
//     place, reset() to the pristine post-power-up state. It runs the
//     operations phase by phase, so several SOSes at one point share the
//     phases they have in common. Because reset() is defined as
//     bit-identical to a fresh construction (see pf/dram/column.hpp) and
//     every snapshot it restores is a state the same trajectory would
//     reach, a session run and a run_sos call with the same (R_def,
//     options, U, SOS) return identical SosOutcomes.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "pf/dram/column.hpp"
#include "pf/dram/defect.hpp"
#include "pf/faults/ffm.hpp"
#include "pf/faults/fp.hpp"

namespace pf::analysis {

struct SosOutcome {
  int final_state = -1;  ///< victim's logical content after the SOS
  int read_result = -1;  ///< result of the SOS's final victim read (-1: none)
  bool faulty = false;   ///< deviates from the SOS's fault-free expectation
  faults::FaultPrimitive observed;  ///< SOS + observed <F, R>
  faults::Ffm ffm = faults::Ffm::kUnknown;  ///< classification (when faulty)
};

/// How a sweep driver obtains the circuit for each grid point.
enum class CircuitMode {
  /// Per-worker compiled column, restamped + reset() per point. The compiled
  /// template is built once per sweep and shared by every worker; results
  /// are bit-identical to kRebuild at any thread count.
  kReuse,
  /// Fresh netlist + template + column per point (the pre-pipeline
  /// behaviour). Kept as the reference implementation and A/B escape hatch.
  kRebuild,
};

/// Run one (defect, floating-voltage, SOS) experiment on a fresh column.
/// `line` may be null (no override — nominal behaviour). For an
/// operation-free SOS (state faults) one idle precharge cycle runs between
/// the override and the observation, which is the paper's SF mechanism;
/// `idle_before_observe` forces that extra cycle for op-carrying SOSes too
/// (used when searching completing operations for state faults).
SosOutcome run_sos(const dram::DramParams& params, const dram::Defect& defect,
                   const dram::FloatingLine* line, double u,
                   const faults::Sos& sos, bool idle_before_observe = false);

/// A reusable experiment context for one worker of a sweep or completion
/// search: one compiled column whose topology is fixed at construction and
/// whose swept values (defect resistance, engine options, floating voltage)
/// are restamped per run. Not thread-safe — give each worker its own
/// session via clone().
///
/// Runs share solved work two ways. Every experiment is a deterministic
/// trajectory — power-up, initializing writes, injection of U, the SOS's
/// operations — so two experiments with the same configuration (R_def,
/// numerics) pass through bit-identical states for as long as their inputs
/// agree.
///
/// Across calls, through ONE persistent snapshot trie:
///
///   root    (init states)                         post-initialization
///   node    (init states, line, U bitwise,        after the k-th leading
///            leading completing writes 1..k)      completing write
///
/// An SOS resumes from its deepest stored node and solves only the rest;
/// the root alone is the post-initialization cache every sweep row hits
/// (one row varies only U). The completion search is what walks deeper: its
/// candidates at one probe point differ only in their completing prefix
/// (Op::completing), so each candidate resumes from the longest prefix an
/// earlier candidate already solved. Nodes are stored after every leading
/// completing write except the SOS's last one, which bounds the trie at
/// (init variants) x (probe voltages) x (4 + 16) states for the search's
/// 3-op vocabulary. A change of R_def or of the numeric options clears it.
///
/// Within one run_all call, through a phase-prefix tree: each SOS's
/// trajectory is a list of column phases (pf/dram/column.hpp), and SOSes
/// that start from the same place share every phase up to the first one
/// where they differ. The tree is walked depth first; the column is
/// snapshotted only at a branch node (where two SOSes diverge) and restored
/// for each later sibling. Branch snapshots are transient: at most one per
/// branch depth is alive, and all are freed when the call returns. A branch
/// node carries, besides the column state, the two values the observation
/// needs from earlier on the path: the victim's logical state right after
/// the injection (the no-fault rule of operation-free SOSes) and the result
/// of the last victim read (latched at the end of its IO phase).
///
/// Every snapshot — root, node or branch — is taken only from a trajectory
/// that saw no injected solver fault (SimStats::injected_faults == 0): a
/// fault-injection test may corrupt one grid point or probe attempt, never
/// the later runs that would restore from it. Where a branch node cannot be
/// kept, its later siblings re-solve alone from their start. Snapshots
/// carry t, dt, every voltage, the ramps and SimStats, so a restored run is
/// bit-identical to the run that solves everything.
class SosSession {
 public:
  /// Compiles the column once for (params, defect). The defect's
  /// `resistance` is only the initial stamp — each run() restamps it to
  /// that experiment's R_def through the template's ParamHandle.
  SosSession(const dram::DramParams& params, const dram::Defect& defect);

  /// A pristine replica sharing the compiled template (cheap run-state
  /// clone) — the per-worker fan-out hook of the parallel drivers. The
  /// replica starts with an empty trie and zeroed counters.
  SosSession clone() const { return SosSession(column_.clone_fresh()); }

  const dram::DramColumn& column() const { return column_; }

  /// Run every SOS of `soses` at one (R_def, options, line, U) point and
  /// return one outcome per SOS, in order. Each outcome is bit-identical to
  ///   run_sos(params{sim = options}, defect{resistance = r_def}, ...)
  /// on a fresh column, whatever the trie holds and whichever SOSes share
  /// the call.
  ///
  /// A pf::Error from a phase fails every SOS whose trajectory contains
  /// that phase, and only those; a pf::Error from an observation fails its
  /// SOS. With `failures` null the first failure propagates at once. With
  /// `failures` set it receives one entry per SOS — null for a solved SOS,
  /// the exception otherwise (that SOS's outcome is default constructed) —
  /// and the call runs the other SOSes to the end. pf::CancelledError and
  /// non-pf exceptions always propagate.
  std::vector<SosOutcome> run_all(
      double r_def, const spice::SimOptions& options,
      const dram::FloatingLine* line, double u,
      const std::vector<faults::Sos>& soses, bool idle_before_observe = false,
      std::vector<std::exception_ptr>* failures = nullptr);

  /// run_all of one SOS.
  SosOutcome run(double r_def, const spice::SimOptions& options,
                 const dram::FloatingLine* line, double u,
                 const faults::Sos& sos, bool idle_before_observe = false);

  /// Swap the underlying column's engine options in place, exactly like a
  /// per-run `options` argument would. The override is part of the
  /// session's configuration: clone() carries it into the replica (the
  /// clone copies the column's parameter block, engine options included).
  void set_sim_options(const spice::SimOptions& options) {
    column_.set_sim_options(options);
  }

  /// Engine steps this session's runs actually solved, failed attempts
  /// included; trajectory restored from a snapshot (trie node, root,
  /// branch node or the column's cached power-up) is excluded.
  uint64_t steps_solved() const { return steps_solved_; }
  /// SOS runs that resumed from a stored completing-write prefix
  /// (depth >= 1).
  uint64_t prefix_restores() const { return prefix_restores_; }
  /// Branch snapshots run_all took (one per branch node it walked).
  uint64_t branch_snapshots() const { return branch_snapshots_; }

 private:
  explicit SosSession(dram::DramColumn column) : column_(std::move(column)) {}

  /// One trie entry: `ops` empty is a root (pre-injection, keyed on the
  /// init states only); otherwise the state after injecting (line, U) and
  /// applying `ops`, the SOS's leading completing writes.
  struct Snapshot {
    int init_victim = -1;
    int init_aggressor = -1;
    std::optional<dram::FloatingLine> line;
    uint64_t u_bits = 0;
    std::vector<faults::Op> ops;
    dram::DramColumn::State state;
  };

  /// The per-call state of run_all's tree walk (defined in the .cpp).
  struct Batch;

  /// Index into trie_ of the stored snapshot for the first `depth` ops of
  /// `sos`, or trie_.size() when there is none.
  size_t find(const faults::Sos& sos, const dram::FloatingLine* line,
              uint64_t u_bits, size_t depth) const;
  /// Depth-first walk of the SOSes in `group`, whose trajectories agree on
  /// their first `pos` steps and whose column state is after those steps.
  void walk(Batch& batch, std::vector<size_t> group, size_t pos);
  /// True when the current trajectory may be snapshotted.
  bool storable() const { return column_.sim_stats().injected_faults == 0; }

  dram::DramColumn column_;

  // The snapshot trie and the configuration it is valid for.
  std::vector<Snapshot> trie_;
  double trie_r_ = 0.0;
  spice::SimOptions trie_options_;

  uint64_t steps_solved_ = 0;
  uint64_t prefix_restores_ = 0;
  uint64_t branch_snapshots_ = 0;
};

}  // namespace pf::analysis
