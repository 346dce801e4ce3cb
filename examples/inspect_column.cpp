// Column inspector: an ASCII "oscilloscope" on the electrical DRAM model.
//
// Traces the key internal nodes (true/complement bit line, victim storage
// node, sense-amp common sources) through one write-1 and one read-1
// operation, fault-free and with an injected defect, so the charge-sharing
// and sensing phases of the model are visible.
//
// Usage: inspect_column [open_number r_def_ohms]
//        inspect_column            # fault-free vs Open 4 at 10 MOhm
//        inspect_column 1 400e3    # cell open at 400 kOhm
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pf/dram/column.hpp"

namespace {

using pf::dram::Defect;
using pf::dram::DramColumn;
using pf::dram::DramParams;
using pf::dram::OpenSite;

struct Trace {
  std::vector<double> t;
  std::vector<std::vector<double>> v;  // one series per probed node
};

const std::vector<std::string> kProbes = {"bt1", "bc1", "cell0"};

Trace record(DramColumn& column, int addr, bool do_write, int value) {
  Trace trace;
  trace.v.resize(kProbes.size());
  column.set_trace([&](double t, const DramColumn& c) {
    trace.t.push_back(t);
    for (size_t i = 0; i < kProbes.size(); ++i)
      trace.v[i].push_back(c.node_voltage(kProbes[i]));
  });
  if (do_write)
    column.write(addr, value);
  else
    (void)column.read(addr);
  column.set_trace(nullptr);
  return trace;
}

void draw(const Trace& trace, const char* title, double vmax) {
  const int rows = 12, cols = 72;
  std::printf("%s\n", title);
  if (trace.t.empty()) return;
  const double t0 = trace.t.front(), t1 = trace.t.back();
  for (int r = rows; r >= 0; --r) {
    const double level = vmax * r / rows;
    std::string line(cols, ' ');
    for (size_t i = 0; i < kProbes.size(); ++i) {
      const char glyph = "TCc"[i];  // T = BT, C = BC, c = cell
      for (int x = 0; x < cols; ++x) {
        const double tx = t0 + (t1 - t0) * x / (cols - 1);
        // Nearest sample.
        size_t best = 0;
        double bd = 1e99;
        for (size_t k = 0; k < trace.t.size(); ++k) {
          const double d = std::abs(trace.t[k] - tx);
          if (d < bd) {
            bd = d;
            best = k;
          }
        }
        if (std::abs(trace.v[i][best] - level) < vmax / (2.0 * rows))
          line[x] = glyph;
      }
    }
    std::printf(" %5.2fV |%s\n", level, line.c_str());
  }
  std::printf("         +%s\n", std::string(cols, '-').c_str());
  std::printf("          %-10.1fns%*s%.1fns   (T=BT  C=BC  c=cell0)\n",
              t0 * 1e9, cols - 24, "", t1 * 1e9);
}

OpenSite site_of(int number) {
  if (number < 1 || number > 9) {
    std::fprintf(stderr, "open number must be 1..9\n");
    std::exit(1);
  }
  return *pf::dram::open_site_for_number(number);
}

}  // namespace

int main(int argc, char** argv) {
  DramParams params;
  Defect defect = Defect::open(OpenSite::kBitLineOuter, 10e6);
  if (argc == 3)
    defect = Defect::open(site_of(std::atoi(argv[1])), std::atof(argv[2]));

  std::printf("DRAM column model (paper Figure 2): VDD=%.1fV VPP=%.1fV "
              "VBLEQ=%.2fV  Ccell=%.0ffF  Cbl=%.0ffF  ref level=%.2fV  "
              "read threshold=%.2fV\n\n",
              params.vdd, params.vpp, params.vbleq, params.c_cell * 1e15,
              params.c_bl_total() * 1e15, params.reference_level(),
              params.cell_read_threshold());

  {
    DramColumn healthy(params, Defect::none());
    healthy.write(0, 1);
    const Trace t = record(healthy, 0, /*do_write=*/false, 0);
    draw(t, "fault-free column: read-1 of cell 0", params.vpp);
    std::printf("  -> read returned %d, cell at %.2f V\n\n",
                healthy.output_buffer(), healthy.cell_voltage(0));
  }
  {
    DramColumn faulty(params, defect);
    std::printf("injected defect: %s\n", defect.to_string().c_str());
    faulty.write(0, 1);
    // Pull the floating line low the way the paper's analysis does.
    for (const auto& line :
         pf::dram::floating_lines_for(defect, params)) {
      faulty.apply_floating_voltage(line, 0.0);
      std::printf("  floating line '%s' forced to 0 V\n", line.label.c_str());
    }
    const Trace t = record(faulty, 0, /*do_write=*/false, 0);
    draw(t, "defective column: read-1 of cell 0 after floating line low",
         params.vpp);
    const int result = faulty.output_buffer();
    std::printf("  -> read returned %d (%s), cell ends at %.2f V\n", result,
                result == 1 ? "correct" : "FAULTY", faulty.cell_voltage(0));
  }
  return 0;
}
