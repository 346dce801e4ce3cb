#include "pf/analysis/table1.hpp"

#include <algorithm>

#include "pf/util/log.hpp"
#include "pf/util/strings.hpp"
#include "pf/util/table.hpp"

namespace pf::analysis {

using dram::OpenSite;
using faults::Ffm;
using faults::Sos;

std::vector<Sos> base_soses() {
  std::vector<Sos> out;
  for (const char* text : {"0", "1", "0w0", "0w1", "1w0", "1w1", "0r0", "1r1"})
    out.push_back(Sos::parse(text));
  return out;
}

pf::Interval site_r_range(OpenSite site, const Table1Options& options) {
  if (site == OpenSite::kWordLine)
    return {options.r_min_wordline, options.r_max_wordline};
  const bool cell_internal =
      site == OpenSite::kCell || site == OpenSite::kRefCell;
  return {options.r_min,
          cell_internal ? options.r_max_cell : options.r_max_default};
}

std::vector<Table1Row> analyze_table1_site(const dram::DramParams& params,
                                           OpenSite site,
                                           const Table1Options& options,
                                           const SiteMapSource& map_for) {
  const dram::Defect proto = dram::Defect::open(site, 1e6);
  const auto lines = dram::floating_lines_for(proto, params);
  const std::vector<Sos> soses = base_soses();
  std::vector<Table1Row> rows;
  for (size_t li = 0; li < lines.size(); ++li) {
    for (size_t si = 0; si < soses.size(); ++si) {
      const RegionMap map = map_for(li, si);
      if (map.failed_points() > 0)
        PF_LOG_INFO("table1 sweep "
                    << dram::defect_name(proto) << " / " << lines[li].label
                    << " / " << soses[si].to_string() << ": observed only "
                    << 100.0 * map.observed_fraction() << "% of the grid ("
                    << map.failed_points() << " unsolved points)");
      for (const PartialFaultFinding& finding : identify_partial_faults(map)) {
        if (!finding.partial || finding.ffm == Ffm::kUnknown) continue;
        const bool dup = std::any_of(
            rows.begin(), rows.end(), [&](const Table1Row& r) {
              return r.sim_ffm == finding.ffm &&
                     r.initialized_voltage == lines[li].label;
            });
        if (dup) continue;
        PF_LOG_INFO("partial " << faults::ffm_name(finding.ffm) << " at "
                               << dram::defect_name(proto) << " / "
                               << lines[li].label);
        Table1Row row;
        row.sim_ffm = finding.ffm;
        row.com_ffm = faults::complement_ffm(finding.ffm);
        row.site = site;
        row.initialized_voltage = lines[li].label;
        row.min_r_def = finding.min_r_def;
        row.band_coverage = finding.best_coverage;

        CompletionSpec cspec;
        cspec.params = params;
        cspec.defect = proto;
        cspec.floating_line_index = li;
        cspec.base.sos = soses[si];
        cspec.probe_u = pf::linspace(lines[li].min_v, lines[li].max_v,
                                     options.probe_u_points);
        cspec.max_prefix_ops = options.max_prefix_ops;
        cspec.exec = options.exec;
        cspec.exec.journal_path.clear();  // probes are not journaled
        const CompletionResult comp =
            complete_partial_fault(cspec, map, finding.ffm);
        row.completable = comp.possible;
        if (comp.possible) row.completed = comp.completed;
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

std::vector<Table1Row> generate_table1(const dram::DramParams& params,
                                       const Table1Options& options) {
  const std::vector<Sos> soses = base_soses();
  std::vector<Table1Row> rows;
  for (OpenSite site : options.sites) {
    const dram::Defect proto = dram::Defect::open(site, 1e6);
    const auto lines = dram::floating_lines_for(proto, params);
    const pf::Interval r_range = site_r_range(site, options);
    // One multi-SOS sweep per floating line: a grid point's eight base
    // SOSes run together and share their common phases.
    std::vector<std::vector<RegionMap>> maps;
    for (size_t li = 0; li < lines.size(); ++li) {
      SweepSpec spec;
      spec.params = params;
      spec.defect = proto;
      spec.floating_line_index = li;
      spec.r_axis = pf::logspace(r_range.lo, r_range.hi, options.r_points);
      spec.u_axis =
          pf::linspace(lines[li].min_v, lines[li].max_v, options.u_points);
      ExecutionPolicy exec = options.exec;
      std::vector<std::string> journals;
      if (!exec.journal_path.empty())
        for (size_t si = 0; si < soses.size(); ++si)
          journals.push_back(exec.journal_path + "-open" +
                             std::to_string(dram::open_number(site)) +
                             "-line" + std::to_string(li) + "-sos" +
                             std::to_string(si) + ".csv");
      exec.journal_path.clear();
      maps.push_back(sweep_region(spec, soses, exec, journals));
    }
    const auto map_for = [&](size_t li, size_t si) { return maps[li][si]; };
    for (Table1Row& row : analyze_table1_site(params, site, options, map_for))
      rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Table1Row& a,
                                         const Table1Row& b) {
    if (a.sim_ffm != b.sim_ffm) return a.sim_ffm < b.sim_ffm;
    return dram::open_number(a.site) < dram::open_number(b.site);
  });
  return rows;
}

std::string format_table1(const std::vector<Table1Row>& rows) {
  pf::TextTable table({"Sim. FFM", "Com. FFM", "Open", "Completed FP",
                       "Initialized volt.", "min R_def [kOhm]"});
  for (const Table1Row& row : rows) {
    table.add_row({std::string(faults::ffm_name(row.sim_ffm)),
                   std::string(faults::ffm_name(row.com_ffm)),
                   "Open " + std::to_string(dram::open_number(row.site)),
                   row.completable ? row.completed.to_string()
                                   : "Not possible",
                   row.initialized_voltage,
                   pf::format_double(row.min_r_def / 1e3, 1)});
  }
  return table.to_string();
}

}  // namespace pf::analysis
