// Defect injection: the paper's Figure 2 open locations, plus shorts and
// bridges (which Section 2 argues cannot cause partial faults — we implement
// them to demonstrate exactly that), and the Section 2 mapping from defect
// to the signal lines it leaves floating.
#pragma once

#include <string>
#include <vector>

#include "pf/dram/params.hpp"

namespace pf::dram {

enum class DefectKind {
  kNone,          ///< fault-free memory
  kOpen,          ///< resistive series element at an OpenSite
  kShortToGround, ///< resistive shunt from the true bit line to ground
  kShortToVdd,    ///< resistive shunt from the true bit line to VDD
  kBridge,        ///< resistive bridge between the bit-line pair BT/BC
  kCellBridge,    ///< resistive bridge between the two same-BL cell nodes
  kLeakyCell,     ///< leakage path from the victim storage node to ground
                  ///< (data-retention faults; exposed by pause/delay tests)
};

/// The paper's open locations (numbers refer to Figure 2).
enum class OpenSite {
  kNone,
  kCell,          ///< Open 1: inside the victim memory cell
  kRefCell,       ///< Open 2: inside the true-side reference cell
  kPrecharge,     ///< Open 3: in the precharge path of the true bit line
  kBitLineOuter,  ///< Open 4: BL between precharge devices and memory cells
  kBitLineMid,    ///< Open 5: BL between memory cells and reference cells
  kBitLineSense,  ///< Open 6: BL between reference cells and sense amplifier
  kSenseAmp,      ///< Open 7: in the sense-amplifier enable path
  kIoPath,        ///< Open 8: IO line between column select and R/W circuitry
  kWordLine,      ///< Open 9: victim word line to the access-transistor gate
  /// Open 4': the same bit-line open on the COMPLEMENT line — the
  /// *complementary defect* of [Al-Ars00]. Its faulty behaviour on the same
  /// victim is the data-complement of Open 4's (verified empirically by the
  /// analysis tests and benches).
  kBitLineOuterComp,
};

struct Defect {
  DefectKind kind = DefectKind::kNone;
  OpenSite site = OpenSite::kNone;  ///< meaningful for kOpen only
  double resistance = 0.0;          ///< R_def [ohm]

  static Defect none() { return Defect{}; }
  static Defect open(OpenSite site, double r_def) {
    return Defect{DefectKind::kOpen, site, r_def};
  }
  static Defect short_to_ground(double r_def) {
    return Defect{DefectKind::kShortToGround, OpenSite::kNone, r_def};
  }
  static Defect short_to_vdd(double r_def) {
    return Defect{DefectKind::kShortToVdd, OpenSite::kNone, r_def};
  }
  static Defect bridge(double r_def) {
    return Defect{DefectKind::kBridge, OpenSite::kNone, r_def};
  }
  static Defect cell_bridge(double r_def) {
    return Defect{DefectKind::kCellBridge, OpenSite::kNone, r_def};
  }
  static Defect leaky_cell(double r_leak) {
    return Defect{DefectKind::kLeakyCell, OpenSite::kNone, r_leak};
  }

  std::string to_string() const;
};

/// Display name ("Open 4", "Bridge BT-BC", ...).
std::string defect_name(const Defect& defect);
/// The paper's number for an open site (1..9), 0 otherwise.
int open_number(OpenSite site);

/// A signal line that a defect leaves floating, per the rules of Section 2
/// of the paper. The fault-analysis method sweeps the line's voltage U:
/// every node in `nodes` is overridden to U and every node in
/// `complement_nodes` to (vdd - U) — the latter models a differential pair
/// (the IO lines feeding the output buffer). When `ties_output_buffer` is
/// set, the output-buffer latch is initialized to (U > vdd/2).
struct FloatingLine {
  std::string label;  ///< the paper's "Initialized volt." wording
  std::vector<std::string> nodes;
  std::vector<std::string> complement_nodes;
  bool ties_output_buffer = false;
  double min_v = 0.0;
  double max_v = 3.3;

  friend bool operator==(const FloatingLine&, const FloatingLine&) = default;
};

/// The floating signal lines a defect produces (Section 2 of the paper);
/// empty for shorts/bridges and the fault-free memory, which float nothing.
std::vector<FloatingLine> floating_lines_for(const Defect& defect,
                                             const DramParams& params);

}  // namespace pf::dram
