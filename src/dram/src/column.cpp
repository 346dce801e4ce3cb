#include "pf/dram/column.hpp"

#include <cmath>

#include "pf/util/error.hpp"

namespace pf::dram {

using spice::NodeId;

namespace {

/// Socket resistor carrying the defect, or nullptr for Defect::none().
const char* socket_for(const Defect& defect) {
  switch (defect.kind) {
    case DefectKind::kNone:
      return nullptr;
    case DefectKind::kOpen:
      switch (defect.site) {
        case OpenSite::kCell: return "rdef_cell";
        case OpenSite::kRefCell: return "rdef_ref";
        case OpenSite::kPrecharge: return "rdef_pre";
        case OpenSite::kBitLineOuter: return "rdef_bl4";
        case OpenSite::kBitLineMid: return "rdef_bl5";
        case OpenSite::kBitLineSense: return "rdef_bl6";
        case OpenSite::kSenseAmp: return "rdef_sa";
        case OpenSite::kIoPath: return "rdef_io";
        case OpenSite::kWordLine: return "rdef_wl";
        case OpenSite::kBitLineOuterComp: return "rdef_bl4_c";
        case OpenSite::kNone: return nullptr;
      }
      return nullptr;
    case DefectKind::kShortToGround:
      return "rshort_gnd";
    case DefectKind::kShortToVdd:
      return "rshort_vdd";
    case DefectKind::kBridge:
      return "rbridge";
    case DefectKind::kCellBridge:
      return "rbridge_cells";
    case DefectKind::kLeakyCell:
      return "rleak_cell";
  }
  return nullptr;
}

/// Builds the column topology and splices the defect into its socket. The
/// result is frozen into the CircuitTemplate; every run-time variation goes
/// through parameter handles or node-state overrides, never netlist edits.
spice::Netlist build_netlist(const DramParams& p, const Defect& defect) {
  spice::Netlist net;
  const int num_cells = 2 * p.cells_per_bl;

  // Rails.
  PF_CHECK_MSG(p.cells_per_bl >= 2,
               "need at least two cells per bit line (victim + aggressor)");
  const NodeId vdd = net.add_rail("vdd", p.vdd);
  const NodeId vbleq = net.add_rail("vbleq", p.vbleq);
  const NodeId pre = net.add_rail("pre", 0.0);
  std::vector<NodeId> wl(num_cells);
  for (int i = 0; i < num_cells; ++i)
    wl[i] = net.add_rail("wl" + std::to_string(i), 0.0);
  const NodeId rwlt = net.add_rail("rwlt", 0.0);
  const NodeId rwlc = net.add_rail("rwlc", 0.0);
  const NodeId sen = net.add_rail("sen", 0.0);
  const NodeId sepb = net.add_rail("sepb", p.vdd);
  const NodeId csl = net.add_rail("csl", 0.0);
  const NodeId wen = net.add_rail("wen", 0.0);
  const NodeId vdt = net.add_rail("vdt", 0.0);
  const NodeId vdc = net.add_rail("vdc", 0.0);

  // Bit-line segments.
  const NodeId bt0 = net.node("bt0"), bt1 = net.node("bt1");
  const NodeId bt2 = net.node("bt2"), bt3 = net.node("bt3");
  const NodeId bc0 = net.node("bc0"), bc1 = net.node("bc1");
  const NodeId bc2 = net.node("bc2"), bc3 = net.node("bc3");
  net.add_capacitor("cbt0", bt0, spice::kGround, p.c_bl0);
  net.add_capacitor("cbt1", bt1, spice::kGround, p.c_bl1);
  net.add_capacitor("cbt2", bt2, spice::kGround, p.c_bl2);
  net.add_capacitor("cbt3", bt3, spice::kGround, p.c_bl3);
  net.add_capacitor("cbc0", bc0, spice::kGround, p.c_bl0);
  net.add_capacitor("cbc1", bc1, spice::kGround, p.c_bl1);
  net.add_capacitor("cbc2", bc2, spice::kGround, p.c_bl2);
  net.add_capacitor("cbc3", bc3, spice::kGround, p.c_bl3);

  // Segment connectors; the BT-side ones are defect sockets (Opens 4-6).
  net.add_resistor("rdef_bl4", bt0, bt1, p.r_socket);
  net.add_resistor("rdef_bl5", bt1, bt2, p.r_socket);
  net.add_resistor("rdef_bl6", bt2, bt3, p.r_socket);
  net.add_resistor("rdef_bl4_c", bc0, bc1, p.r_socket);
  net.add_resistor("rbc12", bc1, bc2, p.r_socket);
  net.add_resistor("rbc23", bc2, bc3, p.r_socket);

  // Precharge devices (Open 3 socket on the true side).
  const NodeId pre_t = net.node("pre_t");
  net.add_nmos("mpre_t", vbleq, pre, pre_t, p.precharge);
  net.add_resistor("rdef_pre", pre_t, bt0, p.r_socket);
  net.add_nmos("mpre_c", vbleq, pre, bc0, p.precharge);

  // Memory cells. Cell 0 is the victim: its storage node sits behind the
  // open-1 socket and its gate behind the open-9 socket.
  const NodeId gate0 = net.node("gate0");
  net.add_resistor("rdef_wl", wl[0], gate0, p.r_socket);
  net.add_capacitor("cgate0", gate0, spice::kGround, p.c_gate);
  const NodeId cell0_acc = net.node("cell0_acc");
  const NodeId cell0 = net.node("cell0");
  net.add_nmos("macc0", bt1, gate0, cell0_acc, p.access);
  net.add_resistor("rdef_cell", cell0_acc, cell0, p.r_socket);
  net.add_capacitor("ccell0", cell0, spice::kGround, p.c_cell);

  const NodeId cell1 = net.node("cell1");
  net.add_nmos("macc1", bt1, wl[1], cell1, p.access);
  net.add_capacitor("ccell1", cell1, spice::kGround, p.c_cell);
  for (int i = 2; i < num_cells; ++i) {
    const std::string idx = std::to_string(i);
    const NodeId cell = net.node("cell" + idx);
    const NodeId bl = i < p.cells_per_bl ? bt1 : bc1;
    net.add_nmos("macc" + idx, bl, wl[i], cell, p.access);
    net.add_capacitor("ccell" + idx, cell, spice::kGround, p.c_cell);
  }

  // Reference (dummy) cells (Open 2 socket in the true one). Dummies are
  // reset to ground during precharge through dedicated reset devices and
  // connected to the opposite bit line during access, offsetting the
  // reference side ~100 mV below the precharge level.
  const NodeId reft_acc = net.node("reft_acc");
  const NodeId reft = net.node("reft");
  net.add_nmos("mreft", bt2, rwlt, reft_acc, p.access);
  net.add_resistor("rdef_ref", reft_acc, reft, p.r_socket);
  net.add_capacitor("creft", reft, spice::kGround, p.c_ref);
  net.add_nmos("mrstt", reft, pre, spice::kGround, p.access);
  const NodeId refc = net.node("refc");
  net.add_nmos("mrefc", bc2, rwlc, refc, p.access);
  net.add_capacitor("crefc", refc, spice::kGround, p.c_ref);
  net.add_nmos("mrstc", refc, pre, spice::kGround, p.access);

  // Sense amplifier (Open 7 socket in the NMOS footer path).
  const NodeId san = net.node("san"), sap = net.node("sap");
  const NodeId san_int = net.node("san_int");
  net.add_nmos("msan1", bt3, bc3, san, p.sa_nmos);
  net.add_nmos("msan2", bc3, bt3, san, p.sa_nmos);
  net.add_pmos("msap1", bt3, bc3, sap, p.sa_pmos);
  net.add_pmos("msap2", bc3, bt3, sap, p.sa_pmos);
  net.add_resistor("rdef_sa", san, san_int, p.r_socket);
  net.add_nmos("msen", san_int, sen, spice::kGround, p.sa_en_nmos);
  net.add_pmos("msep", sap, sepb, vdd, p.sa_en_pmos);
  net.add_capacitor("csan", san, spice::kGround, p.c_sa);
  net.add_capacitor("csap", sap, spice::kGround, p.c_sa);

  // Column select and shared IO (Open 8 socket on the true IO line).
  const NodeId iot_a = net.node("iot_a"), iot_b = net.node("iot_b");
  const NodeId ioc_a = net.node("ioc_a"), ioc_b = net.node("ioc_b");
  net.add_nmos("mcslt", bt3, csl, iot_a, p.csl);
  net.add_nmos("mcslc", bc3, csl, ioc_a, p.csl);
  net.add_resistor("rdef_io", iot_a, iot_b, p.r_socket);
  net.add_resistor("rio_c", ioc_a, ioc_b, p.r_socket);
  net.add_capacitor("ciot_a", iot_a, spice::kGround, p.c_io);
  net.add_capacitor("ciot_b", iot_b, spice::kGround, p.c_io);
  net.add_capacitor("cioc_a", ioc_a, spice::kGround, p.c_io);
  net.add_capacitor("cioc_b", ioc_b, spice::kGround, p.c_io);

  // Write drivers on the far IO segments.
  net.add_nmos("mwdt", vdt, wen, iot_b, p.wdrv);
  net.add_nmos("mwdc", vdc, wen, ioc_b, p.wdrv);

  // Shunt-defect sockets (benign by default).
  net.add_resistor("rshort_gnd", bt1, spice::kGround, p.r_benign_shunt);
  net.add_resistor("rshort_vdd", bt1, vdd, p.r_benign_shunt);
  net.add_resistor("rbridge", bt1, bc1, p.r_benign_shunt);
  net.add_resistor("rbridge_cells", cell0, cell1, p.r_benign_shunt);
  net.add_resistor("rleak_cell", cell0, spice::kGround, p.r_benign_shunt);

  // Inject the defect into its socket.
  if (defect.kind != DefectKind::kNone) {
    PF_CHECK_MSG(defect.resistance > 0, "defect needs R_def > 0");
    const char* socket = socket_for(defect);
    PF_CHECK_MSG(socket != nullptr, "open defect needs a site");
    net.set_resistance(socket, defect.resistance);
  }
  return net;
}

}  // namespace

DramColumn::DramColumn(const DramParams& params, const Defect& defect)
    : params_(params),
      defect_(defect),
      tpl_(std::make_shared<const spice::CircuitTemplate>(
          build_netlist(params_, defect_))),
      ckt_(tpl_, params_.sim) {
  const char* socket = socket_for(defect_);
  if (socket != nullptr) defect_param_ = tpl_->resistance_param(socket);

  vdd_ = nid("vdd");
  vbleq_ = nid("vbleq");
  pre_ = nid("pre");
  wl_.resize(num_cells());
  for (int i = 0; i < num_cells(); ++i) wl_[i] = nid("wl" + std::to_string(i));
  rwlt_ = nid("rwlt");
  rwlc_ = nid("rwlc");
  sen_ = nid("sen");
  sepb_ = nid("sepb");
  csl_ = nid("csl");
  wen_ = nid("wen");
  vdt_ = nid("vdt");
  vdc_ = nid("vdc");
  iot_b_ = nid("iot_b");
  cell0_acc_ = nid("cell0_acc");
  cell_nodes_.resize(num_cells());
  for (int i = 0; i < num_cells(); ++i)
    cell_nodes_[i] = nid("cell" + std::to_string(i));

  power_up();
  cache_pristine();
}

DramColumn DramColumn::clone_fresh() const {
  DramColumn copy(*this);
  copy.trace_ = nullptr;
  copy.reset();
  return copy;
}

void DramColumn::reset() {
  if (pristine_valid_) {
    restore_state(pristine_);
    return;
  }
  // Configuration changed since the snapshot: replay power-up from the
  // exact state a fresh construction starts from, then re-cache.
  ckt_.reset_to_initial();
  power_up();
  cache_pristine();
}

void DramColumn::cache_pristine() {
  // A power-up that a fault-injection test fired into is not the pristine
  // state: caching it would carry one corrupted experiment into every
  // later reset(). Leave the cache stale so the next reset() solves again.
  pristine_ = save_state();
  pristine_valid_ = ckt_.stats().injected_faults == 0;
}

void DramColumn::set_defect_resistance(double ohms) {
  if (ohms == defect_.resistance) return;  // already stamped; keep pristine_
  PF_CHECK_MSG(defect_param_.valid(),
               "column has no defect socket to restamp (Defect::none())");
  ckt_.set_resistance(defect_param_, ohms);
  defect_.resistance = ohms;
  pristine_valid_ = false;
}

void DramColumn::set_sim_options(const spice::SimOptions& options) {
  // A pure cancellation-token / watchdog-free swap cannot change any solved
  // trajectory, so the pristine snapshot stays valid; only a numeric change
  // (tolerances, step control, gmin, watchdog budgets) forces the next
  // reset() to replay power-up under the new options.
  if (!spice::same_numerics(params_.sim, options)) pristine_valid_ = false;
  ckt_.set_options(options);
  params_.sim = options;
}

DramColumn::State DramColumn::save_state() const {
  return State{ckt_.save_state(), buffer_};
}

void DramColumn::restore_state(const State& state) {
  ckt_.restore_state(state.ckt);
  buffer_ = state.buffer;
}

NodeId DramColumn::nid(const std::string& name) const {
  const auto id = tpl_->netlist().find_node(name);
  PF_CHECK_MSG(id.has_value(), "no node named " << name);
  return *id;
}

void DramColumn::run_phase(double duration) {
  if (trace_) {
    ckt_.run_for(duration, [this](double t, const spice::CompiledCircuit&) {
      trace_(t, *this);
    });
  } else {
    ckt_.run_for(duration);
  }
}

void DramColumn::power_up() {
  const DramParams& p = params_;
  // Neutral rails.
  ckt_.set_rail(pre_, 0.0);
  for (int i = 0; i < num_cells(); ++i) ckt_.set_rail(wl_[i], 0.0);
  ckt_.set_rail(rwlt_, 0.0);
  ckt_.set_rail(rwlc_, 0.0);
  ckt_.set_rail(sen_, 0.0);
  ckt_.set_rail(sepb_, p.vdd);
  ckt_.set_rail(csl_, 0.0);
  ckt_.set_rail(wen_, 0.0);
  // Defined storage state: logical 0 (low voltage) everywhere.
  for (int i = 0; i < num_cells(); ++i)
    ckt_.set_node_voltage(cell_nodes_[i], 0.0);
  for (const char* n : {"cell0_acc", "reft", "refc", "reft_acc"})
    ckt_.set_node_voltage(nid(n), 0.0);
  for (const char* n : {"bt0", "bt1", "bt2", "bt3", "bc0", "bc1", "bc2",
                        "bc3", "pre_t", "san", "sap", "iot_a", "iot_b",
                        "ioc_a", "ioc_b"})
    ckt_.set_node_voltage(nid(n), p.vbleq);
  ckt_.set_node_voltage(nid("gate0"), 0.0);
  buffer_ = 0;
  idle_cycle();
}

void DramColumn::pause(double seconds) {
  PF_CHECK(seconds >= 0.0);
  const DramParams& p = params_;
  // Everything off (power_up/recover already guarantee this between
  // operations, but be explicit for direct callers).
  ckt_.set_rail(pre_, 0.0);
  for (int i = 0; i < num_cells(); ++i) ckt_.set_rail(wl_[i], 0.0);
  ckt_.set_rail(rwlt_, 0.0);
  ckt_.set_rail(rwlc_, 0.0);
  ckt_.set_rail(sen_, 0.0);
  ckt_.set_rail(sepb_, p.vdd);
  ckt_.set_rail(csl_, 0.0);
  ckt_.set_rail(wen_, 0.0);
  ckt_.run_for_with_ceiling(seconds, seconds / 100.0);
}

void DramColumn::idle_cycle() {
  for (const OpPhase& phase : idle_phases()) apply_phase(phase);
}

void DramColumn::apply_phase(const OpPhase& phase) {
  for (const RailTarget& rt : phase.rails) ckt_.set_rail(rt.rail, rt.volts);
  run_phase(phase.duration);
  if (phase.latch_after) latch_output_buffer();
}

int resolve_output_latch(double iot_b_volts, const DramParams& params,
                         int previous) {
  // The output buffer taps the TRUE shared IO line single-endedly (secondary
  // sensing against VDD/2): an open in the read path (Open 8) therefore
  // leaves the latch holding stale data instead of letting it resolve
  // through the complement line.
  const double d = iot_b_volts - params.vdd / 2;
  if (!std::isfinite(d)) {
    // A non-finite IO voltage would silently retain the previous latch
    // value and masquerade as a read fault; it is a solver failure.
    std::ostringstream os;
    os << "non-finite IO-line voltage at read latch (iot_b=" << iot_b_volts
       << ")";
    throw ConvergenceError(os.str());
  }
  if (d > params.buf_resolution) return 1;
  if (d < -params.buf_resolution) return 0;
  return previous;  // below resolution — the latch retains its state
}

void DramColumn::latch_output_buffer() {
  buffer_ = resolve_output_latch(ckt_.node_voltage(iot_b_), params_, buffer_);
}

std::vector<OpPhase> DramColumn::idle_phases() const {
  const DramParams& p = params_;
  std::vector<OpPhase> phases;
  phases.push_back({{{pre_, p.vpp}}, p.t_precharge, false});
  phases.push_back({{{pre_, 0.0}}, p.t_settle + p.t_recover, false});
  return phases;
}

std::vector<OpPhase> DramColumn::operation_phases(int addr, bool is_write,
                                                  int value) const {
  PF_CHECK_MSG(addr >= 0 && addr < num_cells(), "bad address " << addr);
  const DramParams& p = params_;
  const bool comp_side = on_complement_bl(addr);
  std::vector<OpPhase> phases;

  // Phase 1: precharge the bit lines and reset the dummy cells.
  phases.push_back({{{pre_, p.vpp}}, p.t_precharge, false});

  // Phase 2: release precharge.
  phases.push_back({{{pre_, 0.0}}, p.t_settle, false});

  // Phase 3: raise the selected word line and the opposite-side reference
  // word line (the reference cell balances the complement bit line).
  phases.push_back({{{wl_[addr], p.vpp}, {comp_side ? rwlt_ : rwlc_, p.vpp}},
                    p.t_access,
                    false});

  // Phase 4: enable the sense amplifier.
  phases.push_back({{{sen_, p.vdd}, {sepb_, 0.0}}, p.t_sense, false});

  // Phase 5: connect the column to the IO lines; for writes, drive them.
  // The latch samples iot_b at the end of this phase.
  OpPhase io{{{csl_, p.vpp}}, p.t_io, true};
  if (is_write) {
    const int raw = comp_side ? 1 - value : value;
    io.rails.push_back({vdt_, raw ? p.vdd : 0.0});
    io.rails.push_back({vdc_, raw ? 0.0 : p.vdd});
    io.rails.push_back({wen_, p.vpp});
  }
  phases.push_back(std::move(io));

  // Phase 6: isolate the cell (word line down while the SA still holds the
  // restored level), then shut everything off.
  phases.push_back(
      {{{wl_[addr], 0.0}, {rwlt_, 0.0}, {rwlc_, 0.0}}, p.t_isolate, false});
  phases.push_back(
      {{{sen_, 0.0}, {sepb_, p.vdd}, {csl_, 0.0}, {wen_, 0.0}}, p.t_recover,
       false});
  return phases;
}

void DramColumn::run_operation(int addr, bool is_write, int value) {
  for (const OpPhase& phase : operation_phases(addr, is_write, value))
    apply_phase(phase);
}

void DramColumn::write(int addr, int value) {
  PF_CHECK_MSG(value == 0 || value == 1, "bad write value " << value);
  run_operation(addr, /*is_write=*/true, value);
}

int DramColumn::read(int addr) {
  run_operation(addr, /*is_write=*/false, 0);
  return read_value(addr);
}

double DramColumn::cell_voltage(int addr) const {
  PF_CHECK_MSG(addr >= 0 && addr < num_cells(), "bad address " << addr);
  return ckt_.node_voltage(cell_nodes_[addr]);
}

int DramColumn::cell_logical(int addr) const {
  // Storage voltage is in phase with the logical value on both bit lines
  // (the write drive and the read sense each invert on the complement side,
  // cancelling out); the read threshold comes from the reference offset.
  return cell_voltage(addr) > params_.cell_read_threshold() ? 1 : 0;
}

void DramColumn::set_cell_voltage(int addr, double volts) {
  PF_CHECK_MSG(addr >= 0 && addr < num_cells(), "bad address " << addr);
  ckt_.set_node_voltage(cell_nodes_[addr], volts);
  if (addr == kVictim && defect_.site != OpenSite::kCell)
    ckt_.set_node_voltage(cell0_acc_, volts);
}

void DramColumn::set_output_buffer(int value) {
  PF_CHECK_MSG(value == 0 || value == 1, "bad buffer value");
  buffer_ = value;
}

void DramColumn::apply_floating_voltage(const FloatingLine& line, double u) {
  for (const auto& n : line.nodes) ckt_.set_node_voltage(nid(n), u);
  for (const auto& n : line.complement_nodes)
    ckt_.set_node_voltage(nid(n), params_.vdd - u);
  if (line.ties_output_buffer) buffer_ = u > params_.vdd / 2 ? 1 : 0;
}

double DramColumn::node_voltage(const std::string& name) const {
  return ckt_.node_voltage(nid(name));
}

void DramColumn::set_node_voltage(const std::string& name, double volts) {
  ckt_.set_node_voltage(nid(name), volts);
}

}  // namespace pf::dram
