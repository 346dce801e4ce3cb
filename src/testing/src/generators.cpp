#include "pf/testing/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "pf/analysis/table1.hpp"
#include "pf/util/error.hpp"

namespace pf::testing {

using faults::CellRole;
using faults::Op;
using faults::Sos;

uint64_t fuzz_seed() {
  const char* env = std::getenv("PF_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const uint64_t parsed = std::strtoull(env, &end, 0);
    if (end != nullptr && *end == '\0') return parsed;
  }
  return kDefaultFuzzSeed;
}

int fuzz_iters(int default_iters) {
  const char* env = std::getenv("PF_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0)
      return static_cast<int>(parsed);
  }
  return default_iters;
}

std::string fuzz_banner(const std::string& suite, uint64_t seed, int iters) {
  std::ostringstream os;
  os << "[fuzz] suite=" << suite << " seed=" << seed << " iters=" << iters
     << "  (override with PF_TEST_SEED / PF_FUZZ_ITERS)";
  return os.str();
}

// --- DramParams perturbations ----------------------------------------------

namespace {

struct TweakTarget {
  const char* name;
  double dram::DramParams::* field;
};

// Multiplicative knobs: capacitances and timings. Device transconductances
// are perturbed through MosParams below; supplies stay fixed (the U axis
// and floating-line bounds are defined against them).
const TweakTarget kScalarTargets[] = {
    {"c_cell", &dram::DramParams::c_cell},
    {"c_ref", &dram::DramParams::c_ref},
    {"c_bl1", &dram::DramParams::c_bl1},
    {"c_bl3", &dram::DramParams::c_bl3},
    {"c_io", &dram::DramParams::c_io},
    {"t_access", &dram::DramParams::t_access},
    {"t_sense", &dram::DramParams::t_sense},
};

struct MosTweakTarget {
  const char* name;
  spice::MosParams dram::DramParams::* device;
};

const MosTweakTarget kMosTargets[] = {
    {"access.k", &dram::DramParams::access},
    {"sa_nmos.k", &dram::DramParams::sa_nmos},
};

}  // namespace

const std::vector<std::string>& tweakable_fields() {
  static const std::vector<std::string> fields = [] {
    std::vector<std::string> out;
    for (const TweakTarget& t : kScalarTargets) out.emplace_back(t.name);
    for (const MosTweakTarget& t : kMosTargets) out.emplace_back(t.name);
    return out;
  }();
  return fields;
}

dram::DramParams apply_tweaks(const std::vector<ParamTweak>& tweaks) {
  dram::DramParams p;
  for (const ParamTweak& tweak : tweaks) {
    bool applied = false;
    for (const TweakTarget& t : kScalarTargets)
      if (tweak.field == t.name) {
        p.*(t.field) *= tweak.factor;
        applied = true;
      }
    for (const MosTweakTarget& t : kMosTargets)
      if (tweak.field == t.name) {
        (p.*(t.device)).k *= tweak.factor;
        applied = true;
      }
    PF_CHECK_MSG(applied, "unknown DramParams tweak field '" << tweak.field
                                                            << "'");
  }
  return p;
}

std::vector<ParamTweak> random_tweaks(Rng& rng, int max_tweaks) {
  const auto& fields = tweakable_fields();
  std::vector<ParamTweak> out;
  if (max_tweaks <= 0) return out;
  const int n = static_cast<int>(rng.next_below(
      static_cast<uint64_t>(max_tweaks) + 1));
  std::vector<size_t> picked;
  for (int i = 0; i < n; ++i) {
    const size_t f = static_cast<size_t>(rng.next_below(fields.size()));
    if (std::find(picked.begin(), picked.end(), f) != picked.end()) continue;
    picked.push_back(f);
    out.push_back({fields[f], rng.next_double(0.85, 1.18)});
  }
  return out;
}

// --- SOS generation ---------------------------------------------------------

Sos random_sos(Rng& rng, const SosGenConfig& cfg) {
  Sos sos;
  // Tracked fault-free values (-1 = undefined).
  int victim = -1;
  int aggressor = -1;

  // Initializing states. The victim is initialized most of the time so that
  // read-ending (classifiable) sequences dominate.
  if (rng.next_double() < 0.85) {
    sos.initial_victim = static_cast<int>(rng.next_below(2));
    victim = sos.initial_victim;
  }
  if (cfg.allow_aggressor && rng.next_double() < 0.3) {
    sos.initial_aggressor = static_cast<int>(rng.next_below(2));
    aggressor = sos.initial_aggressor;
  }

  auto push_write = [&](CellRole role, bool completing) {
    Op op;
    op.kind = rng.next_bool() ? Op::Kind::kWrite1 : Op::Kind::kWrite0;
    op.target = role;
    op.completing = completing;
    (role == CellRole::kVictim ? victim : aggressor) = op.write_value();
    sos.ops.push_back(op);
  };
  auto push_read = [&](CellRole role) {
    const int value = role == CellRole::kVictim ? victim : aggressor;
    PF_CHECK(value >= 0);
    Op op;
    op.kind = Op::Kind::kRead;
    op.target = role;
    op.expected = value;
    sos.ops.push_back(op);
  };
  auto random_role = [&]() {
    return cfg.allow_aggressor && rng.next_double() < 0.25
               ? CellRole::kAggressorBl
               : CellRole::kVictim;
  };

  // Optional completing bracket: 1-2 writes ahead of the body, the paper's
  // [w..] prefix shape.
  if (cfg.allow_completing && rng.next_double() < 0.4) {
    const int n = 1 + static_cast<int>(rng.next_below(2));
    for (int i = 0; i < n; ++i) push_write(random_role(), /*completing=*/true);
  }

  const int body =
      static_cast<int>(rng.next_below(
          static_cast<uint64_t>(std::max(1, cfg.max_body_ops)) + 1));
  for (int i = 0; i < body; ++i) {
    const CellRole role = random_role();
    const int value = role == CellRole::kVictim ? victim : aggressor;
    if (value >= 0 && rng.next_bool())
      push_read(role);
    else
      push_write(role, /*completing=*/false);
  }
  // Bias toward classification-relevant endings: a final victim read when
  // the victim value is known.
  if (victim >= 0 && rng.next_double() < 0.6) push_read(CellRole::kVictim);

  // A sequence with no state at all has no fault-free expectation; anchor it.
  if (sos.initial_victim < 0 && sos.ops.empty()) {
    sos.initial_victim = static_cast<int>(rng.next_below(2));
  }
  return sos;
}

bool sos_well_formed(const faults::Sos& sos) {
  int victim = sos.initial_victim;
  int aggressor = sos.initial_aggressor;
  bool in_body = false;
  for (const Op& op : sos.ops) {
    if (op.completing && in_body) return false;  // bracket must be a prefix
    if (!op.completing) in_body = true;
    int& cell = op.target == CellRole::kVictim ? victim : aggressor;
    if (op.is_read()) {
      if (cell < 0 || op.expected != cell) return false;
      if (op.completing) return false;  // completing ops are writes
    } else {
      cell = op.write_value();
    }
  }
  return sos.initial_victim >= 0 || !sos.ops.empty();
}

// --- Full differential cases ------------------------------------------------

dram::Defect FuzzCase::defect() const {
  PF_CHECK(!r_axis.empty());
  return dram::Defect::open(site, r_axis.front());
}

analysis::SweepSpec FuzzCase::sweep_spec() const {
  analysis::SweepSpec spec;
  spec.params = params();
  spec.defect = defect();
  spec.floating_line_index = floating_line_index;
  spec.sos = sos;
  spec.r_axis = r_axis;
  spec.u_axis = u_axis;
  return spec;
}

std::string FuzzCase::describe() const {
  std::ostringstream os;
  os << dram::defect_name(defect()) << ", SOS \"" << sos.to_string() << "\""
     << ", r_axis=[";
  for (size_t i = 0; i < r_axis.size(); ++i)
    os << (i ? ", " : "") << r_axis[i];
  os << "], u_axis=[";
  for (size_t i = 0; i < u_axis.size(); ++i)
    os << (i ? ", " : "") << u_axis[i];
  os << "], line=" << floating_line_index << ", threads=" << threads
     << ", circuit="
     << (circuit == analysis::CircuitMode::kReuse ? "reuse" : "rebuild");
  for (const ParamTweak& t : tweaks)
    os << ", " << t.field << "*=" << t.factor;
  return os.str();
}

std::string FuzzCase::repro(uint64_t seed) const {
  std::ostringstream os;
  os << "repro:\n"
     << "  PF_TEST_SEED=" << seed << "  # re-runs the whole fuzz suite\n"
     << "  case: " << describe() << "\n"
     << "  build/examples/defect_explorer " << dram::open_number(site) << " \""
     << sos.to_string() << "\" " << r_axis.size() << " " << u_axis.size()
     << "   # same (defect, SOS) family at default axes\n";
  return os.str();
}

FuzzCase random_case(Rng& rng, const CaseGenConfig& cfg) {
  static const std::vector<dram::OpenSite> kDefaultSites = {
      dram::OpenSite::kCell,          dram::OpenSite::kPrecharge,
      dram::OpenSite::kBitLineOuter,  dram::OpenSite::kBitLineMid,
      dram::OpenSite::kBitLineSense,  dram::OpenSite::kSenseAmp,
      dram::OpenSite::kIoPath,        dram::OpenSite::kBitLineOuterComp,
  };
  const std::vector<dram::OpenSite>& sites =
      cfg.sites.empty() ? kDefaultSites : cfg.sites;

  FuzzCase c;
  c.site = sites[rng.next_below(sites.size())];
  c.threads = cfg.threads;

  // SOS: canonical base catalogue or a random decoupled sequence.
  if (rng.next_double() < cfg.p_canonical_sos) {
    const auto bases = analysis::base_soses();
    c.sos = bases[rng.next_below(bases.size())];
    if (rng.next_double() < cfg.p_completing) {
      // Front-load a completing write, the paper's [w..] bracket.
      Op op;
      op.kind = rng.next_bool() ? Op::Kind::kWrite1 : Op::Kind::kWrite0;
      op.target = rng.next_bool() ? CellRole::kVictim : CellRole::kAggressorBl;
      op.completing = true;
      // Preserve well-formedness: a completing victim write redefines the
      // victim ahead of the body, so re-anchor the initial state digit-wise.
      Sos completed = c.sos;
      completed.ops.insert(completed.ops.begin(), op);
      if (sos_well_formed(completed)) c.sos = completed;
    }
  } else {
    SosGenConfig sg;
    sg.allow_completing = rng.next_double() < cfg.p_completing * 2;
    c.sos = random_sos(rng, sg);
  }

  // Axes: a short log window inside the site's default Table 1 range.
  const pf::Interval range = analysis::site_r_range(c.site, {});
  const double lo = range.lo;
  const double hi = range.hi;
  const double span = std::log10(hi / lo);
  const double w_lo = rng.next_double(0.0, span * 0.6);
  const double w_hi = rng.next_double(w_lo + span * 0.25, span);
  const int nr = cfg.min_r_points +
                 static_cast<int>(rng.next_below(static_cast<uint64_t>(
                     cfg.max_r_points - cfg.min_r_points + 1)));
  c.r_axis = pf::logspace(lo * std::pow(10.0, w_lo),
                          lo * std::pow(10.0, w_hi), nr);
  const int nu = cfg.min_u_points +
                 static_cast<int>(rng.next_below(static_cast<uint64_t>(
                     cfg.max_u_points - cfg.min_u_points + 1)));
  c.tweaks = random_tweaks(rng, cfg.max_tweaks);
  const dram::DramParams p = apply_tweaks(c.tweaks);
  c.u_axis = pf::linspace(0.0, p.vdd, nu);
  c.circuit = analysis::CircuitMode::kReuse;
  return c;
}

std::vector<march::TargetFault> random_target_set(Rng& rng) {
  using march::TargetFault;
  const auto random_guard = [&rng] {
    switch (rng.next_below(4)) {
      case 0:
        return memsim::Guard::none();
      case 1:
        return memsim::Guard::bit_line(static_cast<int>(rng.next_below(2)));
      case 2:
        return memsim::Guard::buffer(static_cast<int>(rng.next_below(2)));
      default:
        return memsim::Guard::hidden(true);
    }
  };
  std::vector<TargetFault> targets;
  const auto& ffms = faults::all_ffms();
  const std::size_t n_single = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < n_single; ++i)
    targets.push_back(TargetFault::single(ffms[rng.next_below(ffms.size())],
                                          random_guard()));
  if (rng.next_below(3) == 0) {
    const auto& cfs = faults::all_coupling_faults();
    targets.push_back(TargetFault::coupled(cfs[rng.next_below(cfs.size())],
                                           random_guard()));
  }
  return targets;
}

}  // namespace pf::testing
