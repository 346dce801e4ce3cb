#include "pf/dram/defect.hpp"

#include <sstream>

#include "pf/util/strings.hpp"

namespace pf::dram {

int open_number(OpenSite site) {
  switch (site) {
    case OpenSite::kNone: return 0;
    case OpenSite::kCell: return 1;
    case OpenSite::kRefCell: return 2;
    case OpenSite::kPrecharge: return 3;
    case OpenSite::kBitLineOuter: return 4;
    case OpenSite::kBitLineMid: return 5;
    case OpenSite::kBitLineSense: return 6;
    case OpenSite::kSenseAmp: return 7;
    case OpenSite::kIoPath: return 8;
    case OpenSite::kWordLine: return 9;
    case OpenSite::kBitLineOuterComp: return 4;  // "Open 4'"
  }
  return 0;
}

std::optional<OpenSite> open_site_for_number(int number) {
  static constexpr OpenSite kSites[] = {
      OpenSite::kBitLineOuterComp, OpenSite::kCell,
      OpenSite::kRefCell,          OpenSite::kPrecharge,
      OpenSite::kBitLineOuter,     OpenSite::kBitLineMid,
      OpenSite::kBitLineSense,     OpenSite::kSenseAmp,
      OpenSite::kIoPath,           OpenSite::kWordLine};
  if (number < 0 || number > 9) return std::nullopt;
  return kSites[number];
}

std::string defect_name(const Defect& defect) {
  switch (defect.kind) {
    case DefectKind::kNone: return "fault-free";
    case DefectKind::kOpen:
      if (defect.site == OpenSite::kBitLineOuterComp) return "Open 4'";
      return "Open " + std::to_string(open_number(defect.site));
    case DefectKind::kShortToGround: return "Short BT-GND";
    case DefectKind::kShortToVdd: return "Short BT-VDD";
    case DefectKind::kBridge: return "Bridge BT-BC";
    case DefectKind::kCellBridge: return "Bridge cell-cell";
    case DefectKind::kLeakyCell: return "Leaky cell";
  }
  return "?";
}

std::string Defect::to_string() const {
  std::ostringstream os;
  os << defect_name(*this);
  if (kind != DefectKind::kNone)
    os << " (R_def = " << pf::format_double(resistance / 1e3, 3) << " kOhm)";
  return os.str();
}

std::vector<FloatingLine> floating_lines_for(const Defect& defect,
                                             const DramParams& params) {
  std::vector<FloatingLine> lines;
  if (defect.kind != DefectKind::kOpen) return lines;
  auto line = [&](std::string label, std::vector<std::string> nodes) {
    FloatingLine l;
    l.label = std::move(label);
    l.nodes = std::move(nodes);
    l.max_v = params.vdd;
    return l;
  };
  switch (defect.site) {
    case OpenSite::kCell:
      // Open 1: floating voltage within the defective cell.
      lines.push_back(line("Memory cell", {"cell0"}));
      break;
    case OpenSite::kRefCell:
      // Open 2: improper setting of the reference-cell voltage.
      lines.push_back(line("Reference cell", {"reft"}));
      break;
    case OpenSite::kPrecharge:
      // Open 3: the whole (still connected) bit line floats unprecharged.
      lines.push_back(line("Bit line", {"bt0", "bt1", "bt2", "bt3"}));
      break;
    case OpenSite::kBitLineOuter:
      // Open 4: the cell/SA side of the BL is cut off from precharge.
      lines.push_back(line("Bit line", {"bt1", "bt2", "bt3"}));
      break;
    case OpenSite::kBitLineMid:
      // Open 5: the reference/SA side floats; cells are isolated.
      lines.push_back(line("Bit line", {"bt2", "bt3"}));
      break;
    case OpenSite::kBitLineSense:
      // Open 6: the SA-side stub floats.
      lines.push_back(line("Bit line", {"bt3"}));
      break;
    case OpenSite::kSenseAmp: {
      // Open 7: reference cells and the output buffer lose their proper
      // conditioning when sensing is broken.
      lines.push_back(line("Reference cell", {"reft", "refc"}));
      FloatingLine buf = line("Output buffer", {"iot_b"});
      buf.complement_nodes = {"ioc_b"};
      buf.ties_output_buffer = true;
      lines.push_back(std::move(buf));
      break;
    }
    case OpenSite::kIoPath: {
      // Open 8: the R/W-circuitry side of the IO lines and the buffer.
      FloatingLine buf = line("Output buffer", {"iot_b"});
      buf.complement_nodes = {"ioc_b"};
      buf.ties_output_buffer = true;
      lines.push_back(std::move(buf));
      break;
    }
    case OpenSite::kWordLine:
      // Open 9: the access-transistor gate floats.
      lines.push_back(line("Word line", {"gate0"}));
      lines.back().max_v = params.vpp;
      break;
    case OpenSite::kBitLineOuterComp:
      // Open 4': the complement bit line is cut off from precharge.
      lines.push_back(line("Bit line (complement)", {"bc1", "bc2", "bc3"}));
      break;
    case OpenSite::kNone:
      break;
  }
  return lines;
}

}  // namespace pf::dram
