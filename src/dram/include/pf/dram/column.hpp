// The DRAM cell-array column of the paper's Figure 2, as an executable
// electrical model:
//
//   precharge devices | memory cells | reference cells | sense amplifier |
//   column select | read/write circuitry (shared IO + output buffer)
//
// Topology (true side shown; the complement side BC mirrors it without
// defect sockets):
//
//   VBLEQ --[precharge NMOS]--(open 3)-- BT0 --(open 4)-- BT1 --(open 5)--
//      BT2 --(open 6)-- BT3 --[CSL pass]-- IOT_a --(open 8)-- IOT_b
//
//   cells 0 (victim) and 1 hang off BT1 (cell 0 through the open-1 socket,
//   its gate through the open-9 socket); cells 2 and 3 hang off BC1.
//   Reference cells sit on BT2/BC2 (open 2 in the true one) and are
//   conditioned from the bit lines during precharge (RWLs high with PRE).
//   The cross-coupled sense amplifier sits on BT3/BC3; its NMOS footer is
//   reached through the open-7 socket. Write drivers and the output-buffer
//   latch live on IOT_b/IOC_b, behind the open-8 socket (shared IO).
//
// Cells attached to BC store inverted data; the column handles the polarity
// on write data and read results, so the logical interface is uniform.
//
// Circuit lifecycle (compile-once pipeline): constructing a DramColumn
// compiles one immutable spice::CircuitTemplate for its (DramParams, Defect)
// topology and stamps a mutable spice::CompiledCircuit run state from it.
// Sweeps then vary parameters WITHOUT rebuilding anything:
//
//   * set_defect_resistance(r) restamps the defect socket through a typed
//     ParamHandle (this also covers kLeakyCell leakage sweeps — the leak is
//     a socket resistor);
//   * reset() returns the column to its pristine post-power-up state — a
//     snapshot restore when the configuration is unchanged, or a replayed
//     power-up after a restamp, in either case bit-identical to a freshly
//     constructed column with the same configuration;
//   * set_sim_options() swaps engine tolerances (retry tightening) in
//     place; the next reset() replays power-up under the new options,
//     again matching a fresh build bit for bit;
//   * apply_floating_voltage / set_cell_voltage overwrite node state
//     directly (the floating-line initial-voltage hook of Section 3).
//
// Threading: distinct DramColumn instances share only the immutable
// template, so they may be built and driven concurrently — the parallel
// sweep engine (pf/analysis/execution.hpp) gives every worker its own
// column via clone_fresh(), which copies the run state (cheap) and shares
// the compiled template instead of re-running netlist construction and the
// symbolic pass. A single instance is not thread-safe.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pf/dram/defect.hpp"
#include "pf/dram/params.hpp"
#include "pf/spice/circuit.hpp"

namespace pf::dram {

/// One rail retarget applied at a phase boundary of a DRAM operation.
struct RailTarget {
  spice::NodeId rail = spice::kGround;
  double volts = 0.0;

  bool operator==(const RailTarget&) const = default;
};

/// One transient segment of a DRAM operation: retarget the listed rails,
/// advance the circuit for `duration` seconds, then (for the IO phase)
/// latch the output buffer. DramColumn's operations are written as a list
/// of these phases. Two equal phases applied to equal column states reach
/// equal states: the phase is the unit SosSession shares between SOSes.
struct OpPhase {
  std::vector<RailTarget> rails;
  double duration = 0.0;
  bool latch_after = false;

  bool operator==(const OpPhase&) const = default;
};

/// The output-buffer latch decision on the TRUE shared IO line (secondary
/// sensing against VDD/2): returns the new buffer value given the sampled
/// iot_b voltage and the previous value (retained below resolution). Throws
/// pf::ConvergenceError on a non-finite voltage — a silently diverged
/// solve must surface as a solver failure, not stale read data.
int resolve_output_latch(double iot_b_volts, const DramParams& params,
                         int previous);

class DramColumn {
 public:
  /// Address count with the default DramParams (cells_per_bl = 2).
  static constexpr int kNumCells = 4;
  static constexpr int kVictim = 0;
  static constexpr int kAggressorSameBl = 1;  ///< shares BT with the victim

  DramColumn(const DramParams& params, const Defect& defect);

  /// A pristine column with the same parameters and defect — the per-worker
  /// replication hook of the parallel sweep engine. Shares the compiled
  /// template with *this (cheap run-state copy, no netlist rebuild, no
  /// symbolic pass); its state is bit-identical to a freshly constructed
  /// column's.
  DramColumn clone_fresh() const;

  const DramParams& params() const { return params_; }
  const Defect& defect() const { return defect_; }

  /// The shared compiled topology (reuse-aware tests and benches).
  const std::shared_ptr<const spice::CircuitTemplate>& circuit_template()
      const {
    return tpl_;
  }

  /// Actual address count: 2 * params().cells_per_bl.
  int num_cells() const { return 2 * params_.cells_per_bl; }

  /// Return to the pristine post-power-up state (all cells logical 0, bit
  /// lines precharged, output buffer cleared, one settling cycle run) —
  /// exactly the state of a freshly constructed column with the current
  /// defect resistance and engine options. When nothing changed since the
  /// last reset this is a snapshot restore (no solving); after
  /// set_defect_resistance / set_sim_options it replays the power-up
  /// sequence once and re-caches the snapshot.
  void reset();

  /// True when the next reset() restores the cached power-up snapshot;
  /// false when it must solve power-up again (first reset after a restamp
  /// or a numeric option change).
  bool power_up_cached() const { return pristine_valid_; }

  /// Restamp the defect's socket resistance (ParamHandle hot path — no
  /// rebuild). Keeps the current run state: follow with reset() for a
  /// cold start equivalent to a fresh build at the new resistance.
  /// Requires a defect with a socket (throws for Defect::none()).
  void set_defect_resistance(double ohms);

  /// Swap engine options (the retry loop's per-attempt tightening hook).
  /// Keeps the current run state; follow with reset() to reproduce a fresh
  /// build under the new options.
  void set_sim_options(const spice::SimOptions& options);

  /// Deep snapshot of the column's evolving state (circuit state + output
  /// buffer). restore_state accepts snapshots taken on this column or any
  /// clone sharing its template; restoring retraces the exact trajectory
  /// the snapshotted column would have taken.
  struct State {
    spice::CompiledCircuit::State ckt;
    int buffer = 0;
  };
  State save_state() const;
  void restore_state(const State& state);

  /// Bring the column to a defined post-power-up state by replaying the
  /// power-up sequence from the CURRENT state: all cells preset to logical
  /// 0, bit lines precharged, output buffer cleared, one settling cycle
  /// run. Prefer reset() — it restores a cached snapshot when possible;
  /// power_up() always solves.
  void power_up();

  /// Execute a full write operation (precharge/access/sense/drive/recover).
  void write(int addr, int value);

  /// Execute a full read operation; returns the output-buffer value.
  int read(int addr);

  /// A precharge-only cycle (no word line raised).
  void idle_cycle();

  // --- Phase API ------------------------------------------------------------
  //
  // write(), read() and idle_cycle() are exactly apply_phase() over these
  // lists, which are the single definition of the column's sequencing. The
  // seven phases of an operation are: precharge, release, word line up,
  // sense, IO (drive for writes; the read latch samples at its end),
  // isolate and recover. w0, w1 and r at one address differ only from the
  // IO phase on; an idle cycle shares the precharge phase.

  /// The phase schedule of a full operation / an idle cycle. Pure functions
  /// of (params, topology): no circuit state is read or written.
  std::vector<OpPhase> operation_phases(int addr, bool is_write,
                                        int value) const;
  std::vector<OpPhase> idle_phases() const;

  /// Retarget the phase's rails, advance the circuit, then latch the output
  /// buffer when the phase asks for it.
  void apply_phase(const OpPhase& phase);

  /// The logical value a read of `addr` returns from the current output
  /// buffer (polarity-corrected for complement-side cells): read()'s
  /// result, valid from the end of its IO phase on.
  int read_value(int addr) const {
    return on_complement_bl(addr) ? 1 - buffer_ : buffer_;
  }

  /// An idle pause with everything switched off (word lines low, SA off):
  /// storage nodes decay through whatever leakage paths exist (the gmin
  /// floor plus injected kLeakyCell defects). This is the "Del" element of
  /// data-retention march tests. Uses a relaxed step ceiling internally, so
  /// millisecond pauses cost only ~100 solver steps.
  void pause(double seconds);

  // --- Observation and fault-analysis hooks -------------------------------

  /// Raw storage-node voltage of a cell.
  double cell_voltage(int addr) const;
  /// Thresholded, polarity-corrected logical content of a cell.
  int cell_logical(int addr) const;
  /// Override the raw storage-node voltage (floating-voltage injection).
  void set_cell_voltage(int addr, double volts);

  /// The output buffer (read latch) on the shared IO lines.
  int output_buffer() const { return buffer_; }
  void set_output_buffer(int value);

  /// Override every node of a floating line to U (complement nodes to
  /// vdd - U; optionally ties the output buffer). This is the analysis hook
  /// of Section 3 of the paper.
  void apply_floating_voltage(const FloatingLine& line, double u);

  /// Raw node access by netlist name (tests, waveform dumps).
  double node_voltage(const std::string& name) const;
  void set_node_voltage(const std::string& name, double volts);

  /// Accumulated engine statistics.
  const spice::SimStats& sim_stats() const { return ckt_.stats(); }

  /// The column's circuit netlist (e.g. for deck export via
  /// spice::write_deck). Owned by the shared template.
  const spice::Netlist& netlist() const { return tpl_->netlist(); }

  /// Observe every accepted engine step during subsequent operations
  /// (waveform tracing); pass nullptr to stop tracing.
  using TraceCallback = std::function<void(double, const DramColumn&)>;
  void set_trace(TraceCallback trace) { trace_ = std::move(trace); }

  /// True when `addr` is attached to the complement bit line (inverted
  /// raw data polarity on the shared lines).
  bool on_complement_bl(int addr) const {
    return addr >= params_.cells_per_bl;
  }

 private:
  void cache_pristine();
  void run_phase(double duration);
  void run_operation(int addr, bool is_write, int value);
  void latch_output_buffer();
  spice::NodeId nid(const std::string& name) const;

  DramParams params_;
  Defect defect_;
  std::shared_ptr<const spice::CircuitTemplate> tpl_;
  spice::CompiledCircuit ckt_;
  spice::ParamHandle defect_param_;  // invalid for Defect::none()
  TraceCallback trace_;
  int buffer_ = 0;

  // Pristine post-power-up snapshot backing the reset() fast path; stale
  // (recomputed on the next reset) after a restamp or option change.
  State pristine_;
  bool pristine_valid_ = false;

  // Rail handles.
  spice::NodeId vdd_, vbleq_, pre_, rwlt_, rwlc_, sen_, sepb_, csl_, wen_,
      vdt_, vdc_;
  std::vector<spice::NodeId> wl_;  // one word-line rail per address
  // Hot observation nodes, resolved once.
  spice::NodeId iot_b_;
  spice::NodeId cell0_acc_;
  std::vector<spice::NodeId> cell_nodes_;  // one storage node per address
};

}  // namespace pf::dram
