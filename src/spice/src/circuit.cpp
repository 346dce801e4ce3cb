#include "pf/spice/circuit.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <limits>
#include <sstream>

#include "pf/spice/fault_injection.hpp"

namespace pf::spice {
namespace {

/// Square-law drain current and small-signal parameters, NMOS convention,
/// evaluated for vds >= 0 (callers normalize polarity/type first).
struct MosEval {
  double ids = 0.0;
  double gm = 0.0;
  double gds = 0.0;
};

inline MosEval eval_square_law(double vgs, double vds, const MosParams& p) {
  MosEval e;
  const double vov = vgs - p.vt;
  if (vov <= 0.0) return e;  // cutoff
  const double clm = 1.0 + p.lambda * vds;
  if (vds < vov) {
    // Triode region.
    const double core = vov * vds - 0.5 * vds * vds;
    e.ids = p.k * core * clm;
    e.gm = p.k * vds * clm;
    e.gds = p.k * (vov - vds) * clm + p.k * core * p.lambda;
  } else {
    // Saturation.
    const double core = 0.5 * vov * vov;
    e.ids = p.k * core * clm;
    e.gm = p.k * vov * clm;
    e.gds = p.k * core * p.lambda;
  }
  return e;
}

constexpr double kMinPivot = 1e-30;

}  // namespace

bool same_numerics(const SimOptions& a, const SimOptions& b) {
  return a.dt_min == b.dt_min && a.dt_max == b.dt_max &&
         a.dt_initial == b.dt_initial && a.vntol == b.vntol &&
         a.max_nr_iters == b.max_nr_iters && a.gmin == b.gmin &&
         a.v_step_limit == b.v_step_limit &&
         a.default_slew == b.default_slew &&
         a.max_total_nr_iters == b.max_total_nr_iters &&
         a.max_wall_seconds == b.max_wall_seconds;
}

// ---------------------------------------------------------------------------
// CircuitTemplate
// ---------------------------------------------------------------------------

CircuitTemplate::CircuitTemplate(Netlist netlist) : net_(std::move(netlist)) {
  n_nodes_ = net_.node_count();
  unknown_of_node_.assign(n_nodes_, -1);
  int next = 0;
  for (size_t n = 1; n < n_nodes_; ++n) {
    if (net_.is_rail(static_cast<NodeId>(n))) {
      rail_nodes_.push_back(static_cast<NodeId>(n));
    } else {
      unknown_of_node_[n] = next++;
      node_of_unknown_.push_back(static_cast<NodeId>(n));
    }
  }
  n_node_unknowns_ = static_cast<size_t>(next);
  n_unknowns_ = n_node_unknowns_ + net_.vsources().size();
  PF_CHECK_MSG(n_unknowns_ > 0, "netlist has no unknowns");
  // Voltage sources need branch-current unknowns whose rows break the node
  // pattern's near-symmetry; those circuits stay on the dense partial-pivot
  // path (bit-identical to the pre-pipeline engine). Source-free circuits —
  // the DRAM column models every supply as a rail — get the compiled sparse
  // path.
  sparse_ = net_.vsources().empty();
  if (sparse_) build_symbolic();
}

ParamHandle CircuitTemplate::resistance_param(const std::string& name) const {
  const auto& rs = net_.resistors();
  for (size_t i = 0; i < rs.size(); ++i)
    if (rs[i].name == name) return ParamHandle{static_cast<int>(i)};
  throw Error("resistance_param: no resistor named " + name);
}

void CircuitTemplate::build_symbolic() {
  const size_t n = n_node_unknowns_;
  const size_t W = (n + 63) / 64;

  // Structural pattern as a symmetric adjacency bitset (one row of W words
  // per unknown). MOSFET stamps are structurally unsymmetric (gate column,
  // no gate row); symmetrizing costs a few stored zeros and makes the
  // classic fill analysis below valid.
  std::vector<uint64_t> adj(n * W, 0);
  auto set_sym = [&](int i, int j) {
    if (i < 0 || j < 0) return;
    adj[static_cast<size_t>(i) * W + static_cast<size_t>(j) / 64] |=
        uint64_t{1} << (static_cast<size_t>(j) % 64);
    adj[static_cast<size_t>(j) * W + static_cast<size_t>(i) / 64] |=
        uint64_t{1} << (static_cast<size_t>(i) % 64);
  };
  for (size_t i = 0; i < n; ++i) set_sym(static_cast<int>(i), static_cast<int>(i));
  for (const auto& r : net_.resistors())
    set_sym(unknown_of_node_[r.a], unknown_of_node_[r.b]);
  for (const auto& c : net_.capacitors())
    set_sym(unknown_of_node_[c.a], unknown_of_node_[c.b]);
  for (const auto& m : net_.mosfets()) {
    const int ud = unknown_of_node_[m.d];
    const int ug = unknown_of_node_[m.g];
    const int us = unknown_of_node_[m.s];
    set_sym(ud, ug);
    set_sym(ud, us);
    set_sym(us, ug);
  }

  // Minimum-degree ordering with symbolic fill: repeatedly eliminate the
  // unknown with the fewest remaining neighbors (ties -> lowest index, so
  // the order — and therefore the numerics — is deterministic), turning its
  // neighborhood into a clique. Afterwards `adj` holds the filled pattern.
  std::vector<uint64_t> remaining(W, 0);
  for (size_t i = 0; i < n; ++i) remaining[i / 64] |= uint64_t{1} << (i % 64);
  unknown_of_pos_.reserve(n);
  std::vector<uint64_t> nb(W);
  for (size_t step = 0; step < n; ++step) {
    int best = -1;
    int best_deg = INT_MAX;
    for (size_t u = 0; u < n; ++u) {
      if (!((remaining[u / 64] >> (u % 64)) & 1)) continue;
      int deg = 0;
      for (size_t w = 0; w < W; ++w)
        deg += std::popcount(adj[u * W + w] & remaining[w]);
      if (deg < best_deg) {
        best_deg = deg;
        best = static_cast<int>(u);
      }
    }
    unknown_of_pos_.push_back(best);
    remaining[static_cast<size_t>(best) / 64] &=
        ~(uint64_t{1} << (static_cast<size_t>(best) % 64));
    for (size_t w = 0; w < W; ++w)
      nb[w] = adj[static_cast<size_t>(best) * W + w] & remaining[w];
    for (size_t i = 0; i < n; ++i)
      if ((nb[i / 64] >> (i % 64)) & 1)
        for (size_t w = 0; w < W; ++w) adj[i * W + w] |= nb[w];
  }
  pos_of_unknown_.assign(n, -1);
  for (size_t p = 0; p < n; ++p) pos_of_unknown_[unknown_of_pos_[p]] = static_cast<int>(p);
  node_of_pos_.reserve(n);
  for (size_t p = 0; p < n; ++p)
    node_of_pos_.push_back(node_of_unknown_[unknown_of_pos_[p]]);

  // Filled pattern in elimination (permuted) index space; slots row-major.
  slot_of_.assign(n * n, -1);
  diag_slot_.assign(n, -1);
  int32_t next_slot = 0;
  for (size_t p = 0; p < n; ++p) {
    for (size_t q = 0; q < n; ++q) {
      const size_t up = static_cast<size_t>(unknown_of_pos_[p]);
      const size_t uq = static_cast<size_t>(unknown_of_pos_[q]);
      const bool nz = p == q || ((adj[up * W + uq / 64] >> (uq % 64)) & 1);
      if (!nz) continue;
      slot_of_[p * n + q] = next_slot;
      if (p == q) diag_slot_[p] = next_slot;
      ++next_slot;
    }
  }
  nnz_ = static_cast<size_t>(next_slot);

  // Flat elimination schedule. The fill lemma guarantees every rank-1
  // update target (i,j) — with (i,k) and (k,j) in the filled pattern and
  // k < i,j — is itself in the filled pattern, so all slots resolve.
  for (size_t k = 0; k < n; ++k) {
    FactorStep st;
    st.row_begin = static_cast<uint32_t>(rows_.size());
    for (size_t i = k + 1; i < n; ++i)
      if (slot_of_[i * n + k] >= 0)
        rows_.push_back({static_cast<int32_t>(i), slot_of_[i * n + k], 0});
    st.row_end = static_cast<uint32_t>(rows_.size());
    st.col_begin = static_cast<uint32_t>(cols_.size());
    for (size_t j = k + 1; j < n; ++j)
      if (slot_of_[k * n + j] >= 0)
        cols_.push_back({static_cast<int32_t>(j), slot_of_[k * n + j]});
    st.col_end = static_cast<uint32_t>(cols_.size());
    for (uint32_t r = st.row_begin; r < st.row_end; ++r) {
      rows_[r].upd_begin = static_cast<uint32_t>(upd_slots_.size());
      for (uint32_t c = st.col_begin; c < st.col_end; ++c) {
        const int32_t sl =
            slot_of_[static_cast<size_t>(rows_[r].i) * n +
                     static_cast<size_t>(cols_[c].j)];
        PF_CHECK_MSG(sl >= 0, "symbolic fill missed slot");
        upd_slots_.push_back(sl);
      }
    }
    steps_.push_back(st);
  }

  // Device stamp plans: resolve node -> slot indirection once.
  auto pos_of_node = [&](NodeId nd) {
    const int u = unknown_of_node_[nd];
    return u < 0 ? -1 : pos_of_unknown_[u];
  };
  auto slot_at = [&](int p, int q) {
    return (p >= 0 && q >= 0)
               ? slot_of_[static_cast<size_t>(p) * n + static_cast<size_t>(q)]
               : int32_t{-1};
  };
  const auto& rs = net_.resistors();
  res_plans_.reserve(rs.size());
  for (size_t i = 0; i < rs.size(); ++i) {
    ResistorPlan rp;
    rp.a = rs[i].a;
    rp.b = rs[i].b;
    rp.pa = pos_of_node(rs[i].a);
    rp.pb = pos_of_node(rs[i].b);
    rp.saa = slot_at(rp.pa, rp.pa);
    rp.sbb = slot_at(rp.pb, rp.pb);
    rp.sab = slot_at(rp.pa, rp.pb);
    rp.sba = slot_at(rp.pb, rp.pa);
    res_plans_.push_back(rp);
    if ((rp.pa >= 0) != (rp.pb >= 0))
      res_folds_.push_back(static_cast<int32_t>(i));
  }
  for (const auto& c : net_.capacitors()) {
    CapacitorPlan cp;
    cp.a = c.a;
    cp.b = c.b;
    cp.farads = c.farads;
    cp.pa = pos_of_node(c.a);
    cp.pb = pos_of_node(c.b);
    cp.saa = slot_at(cp.pa, cp.pa);
    cp.sbb = slot_at(cp.pb, cp.pb);
    cp.sab = slot_at(cp.pa, cp.pb);
    cp.sba = slot_at(cp.pb, cp.pa);
    cap_plans_.push_back(cp);
  }
  for (const auto& m : net_.mosfets()) {
    MosfetPlan mp;
    mp.d = m.d;
    mp.g = m.g;
    mp.s = m.s;
    mp.params = m.params;
    mp.sigma = m.is_pmos ? -1.0 : 1.0;
    const int pg = pos_of_node(m.g);
    const int pd = pos_of_node(m.d);
    const int ps = pos_of_node(m.s);
    mp.pu[0] = pg;
    mp.pu[1] = pd;
    mp.pu[2] = ps;
    const int rowsp[2] = {pd, ps};
    const int colsp[3] = {pg, pd, ps};
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < 3; ++c) mp.slot[r][c] = slot_at(rowsp[r], colsp[c]);
    mos_plans_.push_back(mp);
  }
}

// ---------------------------------------------------------------------------
// CompiledCircuit
// ---------------------------------------------------------------------------

CompiledCircuit::CompiledCircuit(std::shared_ptr<const CircuitTemplate> tpl,
                                 SimOptions options)
    : tpl_(std::move(tpl)), options_(options) {
  PF_CHECK_MSG(tpl_ != nullptr, "CompiledCircuit requires a template");
  const CircuitTemplate& T = *tpl_;
  r_ohms_.reserve(T.net_.resistors().size());
  for (const auto& r : T.net_.resistors()) r_ohms_.push_back(r.ohms);
  if (T.sparse_) {
    g_static_.assign(T.nnz_, 0.0);
    g_rc_.assign(T.nnz_, 0.0);
    a_.assign(T.nnz_, 0.0);
    rhs_base_.assign(T.n_node_unknowns_, 0.0);
    rhs_.assign(T.n_node_unknowns_, 0.0);
    x_.assign(T.n_node_unknowns_, 0.0);
    pivot_row_scratch_.assign(T.n_node_unknowns_, 0.0);
  } else {
    g_ = Matrix(T.n_unknowns_, T.n_unknowns_);
    rhs_.resize(T.n_unknowns_);
    x_.resize(T.n_unknowns_);
  }
  v_cand_.resize(T.n_nodes_);
  v_prev_scratch_.resize(T.n_nodes_);
  init_state();
}

void CompiledCircuit::init_state() {
  const CircuitTemplate& T = *tpl_;
  t_ = 0.0;
  dt_ = options_.dt_initial;
  stats_ = SimStats{};
  worst_node_ = kGround;
  worst_dv_ = 0.0;
  wall_started_ = false;
  v_.assign(T.n_nodes_, 0.0);
  rail_levels_.assign(T.n_nodes_, RampedLevel(0.0));
  for (NodeId r : T.rail_nodes_) {
    const double initial = T.net_.rail_initial(r);
    v_[r] = initial;
    rail_levels_[r] = RampedLevel(initial);
  }
  branch_i_.assign(T.net_.vsources().size(), 0.0);
  source_levels_.clear();
  source_levels_.reserve(T.net_.vsources().size());
  for (const auto& src : T.net_.vsources()) source_levels_.emplace_back(src.dc);
}

void CompiledCircuit::reset_to_initial() { init_state(); }

void CompiledCircuit::set_options(const SimOptions& options) {
  if (options.gmin != options_.gmin)
    static_dirty_ = true;  // gmin feeds the cached static stamps
  options_ = options;
}

double CompiledCircuit::node_voltage(NodeId n) const {
  PF_CHECK_MSG(n >= 0 && static_cast<size_t>(n) < tpl_->n_nodes_,
               "bad node " << n);
  return v_[n];
}

void CompiledCircuit::set_node_voltage(NodeId n, double volts) {
  PF_CHECK_MSG(n > 0 && static_cast<size_t>(n) < tpl_->n_nodes_,
               "cannot override node " << n);
  PF_CHECK_MSG(!tpl_->net_.is_rail(n),
               "cannot override rail " << tpl_->net_.node_name(n));
  v_[n] = volts;
}

void CompiledCircuit::set_source(SourceId s, double volts) {
  set_source(s, volts, options_.default_slew);
}

void CompiledCircuit::set_source(SourceId s, double volts, double slew) {
  PF_CHECK_MSG(s >= 0 && static_cast<size_t>(s) < source_levels_.size(),
               "bad source " << s);
  source_levels_[s].retarget(t_, volts, slew);
}

double CompiledCircuit::source_value(SourceId s) const {
  PF_CHECK_MSG(s >= 0 && static_cast<size_t>(s) < source_levels_.size(),
               "bad source " << s);
  return source_levels_[s].value(t_);
}

void CompiledCircuit::set_rail(NodeId rail, double volts) {
  set_rail(rail, volts, options_.default_slew);
}

void CompiledCircuit::set_rail(NodeId rail, double volts, double slew) {
  PF_CHECK_MSG(rail > 0 && static_cast<size_t>(rail) < tpl_->n_nodes_ &&
                   tpl_->net_.is_rail(rail),
               "node " << rail << " is not a rail");
  rail_levels_[rail].retarget(t_, volts, slew);
}

void CompiledCircuit::set_resistance(ParamHandle h, double ohms) {
  PF_CHECK_MSG(h.valid() && static_cast<size_t>(h.index) < r_ohms_.size(),
               "bad resistance handle");
  PF_CHECK_MSG(ohms > 0.0, "resistance must be positive, got " << ohms);
  r_ohms_[static_cast<size_t>(h.index)] = ohms;
  static_dirty_ = true;
}

double CompiledCircuit::resistance(ParamHandle h) const {
  PF_CHECK_MSG(h.valid() && static_cast<size_t>(h.index) < r_ohms_.size(),
               "bad resistance handle");
  return r_ohms_[static_cast<size_t>(h.index)];
}

CompiledCircuit::State CompiledCircuit::save_state() const {
  State st;
  st.t = t_;
  st.dt = dt_;
  st.v = v_;
  st.branch_i = branch_i_;
  st.sources = source_levels_;
  st.rails = rail_levels_;
  st.stats = stats_;
  return st;
}

void CompiledCircuit::restore_state(const State& state) {
  PF_CHECK_MSG(state.v.size() == tpl_->n_nodes_ &&
                   state.rails.size() == tpl_->n_nodes_ &&
                   state.branch_i.size() == branch_i_.size() &&
                   state.sources.size() == source_levels_.size(),
               "state snapshot does not match this circuit's template");
  t_ = state.t;
  dt_ = state.dt;
  v_ = state.v;
  branch_i_ = state.branch_i;
  source_levels_ = state.sources;
  rail_levels_ = state.rails;
  stats_ = state.stats;
  worst_node_ = kGround;
  worst_dv_ = 0.0;
  wall_started_ = false;
}

// --- dense engine (verbatim port of the original Simulator) ----------------

void CompiledCircuit::load_system_dense(double h,
                                        const std::vector<double>& v_prev,
                                        double t_new) {
  const CircuitTemplate& T = *tpl_;
  g_.clear();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);

  // Conductance between two nodes; known-node terms fold into the RHS.
  auto stamp_g = [&](NodeId a, NodeId b, double g) {
    const int ia = T.unknown_of_node_[a];
    const int ib = T.unknown_of_node_[b];
    if (ia >= 0) {
      g_(ia, ia) += g;
      if (ib >= 0)
        g_(ia, ib) -= g;
      else
        rhs_[ia] += g * v_cand_[b];
    }
    if (ib >= 0) {
      g_(ib, ib) += g;
      if (ia >= 0)
        g_(ib, ia) -= g;
      else
        rhs_[ib] += g * v_cand_[a];
    }
  };
  // Constant current i flowing out of `from` into `to`.
  auto stamp_i = [&](NodeId from, NodeId to, double i) {
    const int ifrom = T.unknown_of_node_[from];
    const int ito = T.unknown_of_node_[to];
    if (ifrom >= 0) rhs_[ifrom] -= i;
    if (ito >= 0) rhs_[ito] += i;
  };

  const auto& rs = T.net_.resistors();
  for (size_t i = 0; i < rs.size(); ++i)
    stamp_g(rs[i].a, rs[i].b, 1.0 / r_ohms_[i]);

  for (const auto& c : T.net_.capacitors()) {
    const double geq = c.farads / h;
    const double v_ab_prev = v_prev[c.a] - v_prev[c.b];
    stamp_g(c.a, c.b, geq);
    // Companion source: i(a->b) = geq * (v_ab - v_ab_prev); the constant part
    // geq*v_ab_prev flows b->a.
    stamp_i(c.b, c.a, geq * v_ab_prev);
  }

  // gmin leak from every unknown node.
  for (size_t u = 0; u < T.n_node_unknowns_; ++u) g_(u, u) += options_.gmin;

  // Voltage sources: branch current unknowns after the node block.
  const auto& sources = T.net_.vsources();
  for (size_t k = 0; k < sources.size(); ++k) {
    const auto& src = sources[k];
    const size_t row = T.n_node_unknowns_ + k;
    const int ip = T.unknown_of_node_[src.pos];
    const int in = T.unknown_of_node_[src.neg];
    if (ip >= 0) {
      g_(ip, row) += 1.0;
      g_(row, ip) += 1.0;
    }
    if (in >= 0) {
      g_(in, row) -= 1.0;
      g_(row, in) -= 1.0;
    }
    rhs_[row] = source_levels_[k].value(t_new);
  }

  // MOSFETs: normalize polarity (PMOS mirrors through sign flip) and
  // source/drain order (symmetric device), then stamp the linearization
  //   I(d->s) = ieq + gm*vg + gds*vd - (gm+gds)*vs.
  for (const auto& m : T.net_.mosfets()) {
    const double sigma = m.is_pmos ? -1.0 : 1.0;
    NodeId nd = m.d;
    NodeId ns = m.s;
    if (sigma * (v_cand_[nd] - v_cand_[ns]) < 0.0) std::swap(nd, ns);
    const double vgs_eff = sigma * (v_cand_[m.g] - v_cand_[ns]);
    const double vds_eff = sigma * (v_cand_[nd] - v_cand_[ns]);
    const MosEval e = eval_square_law(vgs_eff, vds_eff, m.params);
    const double ieq = sigma * e.ids - e.gm * v_cand_[m.g] -
                       e.gds * v_cand_[nd] +
                       (e.gm + e.gds) * v_cand_[ns];
    const NodeId coef_nodes[3] = {m.g, nd, ns};
    const double coefs[3] = {e.gm, e.gds, -(e.gm + e.gds)};
    // KCL: +I at effective drain, -I at effective source.
    const NodeId rows[2] = {nd, ns};
    const double signs[2] = {+1.0, -1.0};
    for (int r = 0; r < 2; ++r) {
      const int ir = T.unknown_of_node_[rows[r]];
      if (ir < 0) continue;
      rhs_[ir] -= signs[r] * ieq;
      for (int cidx = 0; cidx < 3; ++cidx) {
        const int iu = T.unknown_of_node_[coef_nodes[cidx]];
        const double c = signs[r] * coefs[cidx];
        if (iu >= 0)
          g_(ir, iu) += c;
        else
          rhs_[ir] -= c * v_cand_[coef_nodes[cidx]];
      }
    }
  }
}

int CompiledCircuit::try_step_dense(double h, double t_new) {
  const CircuitTemplate& T = *tpl_;
  // Start Newton from the committed solution.
  for (size_t n = 1; n < T.n_nodes_; ++n) {
    const int u = T.unknown_of_node_[n];
    if (u >= 0) x_[u] = v_[n];
  }
  for (size_t k = 0; k < branch_i_.size(); ++k)
    x_[T.n_node_unknowns_ + k] = branch_i_[k];

  std::vector<double>& v_prev = v_prev_scratch_;
  v_prev = v_;

  for (int iter = 1; iter <= options_.max_nr_iters; ++iter) {
    // Candidate node voltages: unknowns from x_, known nodes at t_new.
    v_cand_[kGround] = 0.0;
    for (size_t n = 1; n < T.n_nodes_; ++n) {
      const int u = T.unknown_of_node_[n];
      v_cand_[n] = u >= 0 ? x_[u] : rail_levels_[n].value(t_new);
    }
    load_system_dense(h, v_prev, t_new);
    std::vector<double>& sol = rhs_;  // solved in place
    try {
      lu_factor(g_, perm_);
      lu_solve(g_, perm_, sol);
    } catch (const ConvergenceError&) {
      return -1;
    }
    // Damped update with per-node step limiting; convergence measured on the
    // undamped node-voltage deltas.
    double max_dv = 0.0;
    size_t worst_u = 0;
    bool clamped = false;
    for (size_t u = 0; u < T.n_unknowns_; ++u) {
      double delta = sol[u] - x_[u];
      if (u < T.n_node_unknowns_) {
        if (std::abs(delta) > max_dv) {
          max_dv = std::abs(delta);
          worst_u = u;
        }
        if (std::abs(delta) > options_.v_step_limit) {
          delta = std::copysign(options_.v_step_limit, delta);
          clamped = true;
        }
      }
      x_[u] += delta;
    }
    if (worst_u < T.node_of_unknown_.size()) {
      worst_node_ = T.node_of_unknown_[worst_u];
      worst_dv_ = max_dv;
    }
    if (!std::isfinite(max_dv)) return -1;
    stats_.nr_iterations++;
    if (!clamped && max_dv < options_.vntol) {
      // Commit.
      for (size_t n = 1; n < T.n_nodes_; ++n) {
        const int u = T.unknown_of_node_[n];
        v_[n] = u >= 0 ? x_[u] : rail_levels_[n].value(t_new);
      }
      for (size_t k = 0; k < branch_i_.size(); ++k)
        branch_i_[k] = x_[T.n_node_unknowns_ + k];
      return iter;
    }
  }
  return -1;
}

// --- sparse static-order engine --------------------------------------------

void CompiledCircuit::ensure_static_stamps() {
  if (!static_dirty_) return;
  const CircuitTemplate& T = *tpl_;
  std::fill(g_static_.begin(), g_static_.end(), 0.0);
  for (size_t i = 0; i < T.res_plans_.size(); ++i) {
    const auto& rp = T.res_plans_[i];
    const double g = 1.0 / r_ohms_[i];
    if (rp.saa >= 0) g_static_[rp.saa] += g;
    if (rp.sab >= 0) g_static_[rp.sab] -= g;
    if (rp.sbb >= 0) g_static_[rp.sbb] += g;
    if (rp.sba >= 0) g_static_[rp.sba] -= g;
  }
  for (size_t p = 0; p < T.n_node_unknowns_; ++p)
    g_static_[T.diag_slot_[p]] += options_.gmin;
  static_dirty_ = false;
  cached_h_ = -1.0;  // g_rc_ derives from g_static_
}

void CompiledCircuit::ensure_rc_stamps(double h) {
  if (h == cached_h_) return;
  const CircuitTemplate& T = *tpl_;
  std::copy(g_static_.begin(), g_static_.end(), g_rc_.begin());
  for (const auto& cp : T.cap_plans_) {
    const double geq = cp.farads / h;
    if (cp.saa >= 0) g_rc_[cp.saa] += geq;
    if (cp.sab >= 0) g_rc_[cp.sab] -= geq;
    if (cp.sbb >= 0) g_rc_[cp.sbb] += geq;
    if (cp.sba >= 0) g_rc_[cp.sba] -= geq;
  }
  cached_h_ = h;
}

void CompiledCircuit::build_rhs_base(double h,
                                     const std::vector<double>& v_prev) {
  const CircuitTemplate& T = *tpl_;
  std::fill(rhs_base_.begin(), rhs_base_.end(), 0.0);
  // Known-node resistor terms fold into the RHS; known-node voltages are
  // fixed for the whole step (v_cand_ already holds them at t_new).
  for (const int32_t i : T.res_folds_) {
    const auto& rp = T.res_plans_[i];
    const double g = 1.0 / r_ohms_[static_cast<size_t>(i)];
    if (rp.pa >= 0)
      rhs_base_[rp.pa] += g * v_cand_[rp.b];
    else
      rhs_base_[rp.pb] += g * v_cand_[rp.a];
  }
  for (const auto& cp : T.cap_plans_) {
    const double geq = cp.farads / h;
    if (cp.pa >= 0 && cp.pb < 0) rhs_base_[cp.pa] += geq * v_cand_[cp.b];
    if (cp.pb >= 0 && cp.pa < 0) rhs_base_[cp.pb] += geq * v_cand_[cp.a];
    // Companion source: constant part geq*v_ab_prev flows b->a.
    const double icomp = geq * (v_prev[cp.a] - v_prev[cp.b]);
    if (cp.pb >= 0) rhs_base_[cp.pb] -= icomp;
    if (cp.pa >= 0) rhs_base_[cp.pa] += icomp;
  }
}

bool CompiledCircuit::factor_and_solve_sparse() {
  const CircuitTemplate& T = *tpl_;
  const size_t n = T.n_node_unknowns_;
  const int32_t* upd = T.upd_slots_.data();
  // Right-looking LU over the compiled schedule; U keeps the pivots, L is
  // unit-diagonal with multipliers stored in the sub-diagonal slots.
  for (size_t k = 0; k < n; ++k) {
    const auto& st = T.steps_[k];
    const double pivot = a_[T.diag_slot_[k]];
    if (std::abs(pivot) < kMinPivot) return false;
    const uint32_t ncols = st.col_end - st.col_begin;
    // Pack the pivot row U(k, j) once per k; every eliminated row below
    // reads it ncols times (same arithmetic, one less indirection).
    double* pivrow = pivot_row_scratch_.data();
    for (uint32_t c = 0; c < ncols; ++c)
      pivrow[c] = a_[T.cols_[st.col_begin + c].kj_slot];
    for (uint32_t r = st.row_begin; r < st.row_end; ++r) {
      const auto& row = T.rows_[r];
      const double l = a_[row.ik_slot] / pivot;
      a_[row.ik_slot] = l;
      const int32_t* ij = upd + row.upd_begin;
      for (uint32_t c = 0; c < ncols; ++c) a_[ij[c]] -= l * pivrow[c];
    }
  }
  // Forward substitution (unit L).
  for (size_t k = 0; k < n; ++k) {
    const auto& st = T.steps_[k];
    const double bk = rhs_[k];
    for (uint32_t r = st.row_begin; r < st.row_end; ++r)
      rhs_[T.rows_[r].i] -= a_[T.rows_[r].ik_slot] * bk;
  }
  // Backward substitution.
  for (size_t k = n; k-- > 0;) {
    const auto& st = T.steps_[k];
    double s = rhs_[k];
    for (uint32_t c = st.col_begin; c < st.col_end; ++c)
      s -= a_[T.cols_[c].kj_slot] * rhs_[T.cols_[c].j];
    rhs_[k] = s / a_[T.diag_slot_[k]];
  }
  return true;
}

int CompiledCircuit::try_step_sparse(double h, double t_new) {
  const CircuitTemplate& T = *tpl_;
  const size_t n = T.n_node_unknowns_;
  // Start Newton from the committed solution (elimination-order layout).
  for (size_t p = 0; p < n; ++p) x_[p] = v_[T.node_of_pos_[p]];
  std::vector<double>& v_prev = v_prev_scratch_;
  v_prev = v_;
  // Known-node candidate voltages are fixed for the whole step.
  v_cand_[kGround] = 0.0;
  for (const NodeId r : T.rail_nodes_) v_cand_[r] = rail_levels_[r].value(t_new);

  ensure_static_stamps();
  ensure_rc_stamps(h);
  build_rhs_base(h, v_prev);

  for (int iter = 1; iter <= options_.max_nr_iters; ++iter) {
    for (size_t p = 0; p < n; ++p) v_cand_[T.node_of_pos_[p]] = x_[p];
    std::copy(g_rc_.begin(), g_rc_.end(), a_.begin());
    std::copy(rhs_base_.begin(), rhs_base_.end(), rhs_.begin());

    // MOSFET linearization, same normalization as the dense engine. The
    // runtime drain/source swap permutes within the compiled slot set, so
    // the sparsity pattern is swap-invariant.
    for (const auto& m : T.mos_plans_) {
      NodeId nd = m.d;
      NodeId ns = m.s;
      bool swapped = false;
      if (m.sigma * (v_cand_[nd] - v_cand_[ns]) < 0.0) {
        std::swap(nd, ns);
        swapped = true;
      }
      const double vgs_eff = m.sigma * (v_cand_[m.g] - v_cand_[ns]);
      const double vds_eff = m.sigma * (v_cand_[nd] - v_cand_[ns]);
      const MosEval e = eval_square_law(vgs_eff, vds_eff, m.params);
      const double ieq = m.sigma * e.ids - e.gm * v_cand_[m.g] -
                         e.gds * v_cand_[nd] +
                         (e.gm + e.gds) * v_cand_[ns];
      const NodeId coef_nodes[3] = {m.g, nd, ns};
      const double coefs[3] = {e.gm, e.gds, -(e.gm + e.gds)};
      const int prow[2] = {swapped ? 2 : 1, swapped ? 1 : 2};  // pu index
      const int srow[2] = {swapped ? 1 : 0, swapped ? 0 : 1};  // slot row
      const int scol[3] = {0, swapped ? 2 : 1, swapped ? 1 : 2};
      const double signs[2] = {+1.0, -1.0};
      for (int r = 0; r < 2; ++r) {
        const int ir = m.pu[prow[r]];
        if (ir < 0) continue;
        rhs_[ir] -= signs[r] * ieq;
        for (int c = 0; c < 3; ++c) {
          const double cf = signs[r] * coefs[c];
          const int32_t sl = m.slot[srow[r]][scol[c]];
          if (sl >= 0)
            a_[sl] += cf;
          else
            rhs_[ir] -= cf * v_cand_[coef_nodes[c]];
        }
      }
    }

    if (!factor_and_solve_sparse()) return -1;

    double max_dv = 0.0;
    size_t worst_p = 0;
    bool clamped = false;
    for (size_t p = 0; p < n; ++p) {
      double delta = rhs_[p] - x_[p];
      if (std::abs(delta) > max_dv) {
        max_dv = std::abs(delta);
        worst_p = p;
      }
      if (std::abs(delta) > options_.v_step_limit) {
        delta = std::copysign(options_.v_step_limit, delta);
        clamped = true;
      }
      x_[p] += delta;
    }
    worst_node_ = T.node_of_pos_[worst_p];
    worst_dv_ = max_dv;
    if (!std::isfinite(max_dv)) return -1;
    stats_.nr_iterations++;
    if (!clamped && max_dv < options_.vntol) {
      // Commit.
      for (size_t p = 0; p < n; ++p) v_[T.node_of_pos_[p]] = x_[p];
      for (const NodeId r : T.rail_nodes_)
        v_[r] = rail_levels_[r].value(t_new);
      return iter;
    }
  }
  return -1;
}

int CompiledCircuit::try_step(double h, double t_new) {
  return tpl_->sparse_ ? try_step_sparse(h, t_new) : try_step_dense(h, t_new);
}

// --- transient loop (shared) -----------------------------------------------

void CompiledCircuit::run_for_with_ceiling(double duration, double dt_max,
                                           const StepCallback& callback) {
  const SimOptions saved = options_;
  options_.dt_max = dt_max;
  options_.dt_initial = dt_max / 10;
  try {
    run_for(duration, callback);
  } catch (const ConvergenceError& e) {
    // Rethrow with the ceiling context attached: a sweep-level log must be
    // able to tell a retention-pause failure from an ordinary step failure.
    options_ = saved;
    std::ostringstream os;
    os << e.what() << " [during relaxed-ceiling run: dt_max=" << dt_max
       << " s]";
    throw ConvergenceError(os.str());
  } catch (...) {
    options_ = saved;
    throw;
  }
  options_ = saved;
}

bool CompiledCircuit::apply_injected_fault() {
  const testing::InjectionSpec* inj = testing::current_injection();
  if (inj == nullptr) return false;
  switch (inj->kind) {
    case testing::InjectedFault::kNone:
      return false;
    case testing::InjectedFault::kNonConvergence: {
      testing::note_injection();
      stats_.injected_faults++;
      std::ostringstream os;
      os << "injected non-convergence at t=" << t_ << " s";
      throw ConvergenceError(os.str());
    }
    case testing::InjectedFault::kSingularMatrix: {
      testing::note_injection();
      stats_.injected_faults++;
      std::ostringstream os;
      os << "injected singular MNA matrix (pivot 0) at t=" << t_ << " s";
      throw ConvergenceError(os.str());
    }
    case testing::InjectedFault::kSlowConvergence:
      testing::note_injection();
      stats_.injected_faults++;
      stats_.nr_iterations += inj->slow_penalty_iters;
      return false;
    case testing::InjectedFault::kNanVoltage:
      // A silently diverged solve: the transient "completes" but every
      // unknown node is left non-finite. No exception here — the point is
      // to prove the classification layer refuses to read NaN as data.
      testing::note_injection();
      stats_.injected_faults++;
      for (const NodeId n : tpl_->node_of_unknown_)
        v_[n] = std::numeric_limits<double>::quiet_NaN();
      return true;
    case testing::InjectedFault::kCorruptVoltage:
      // A silently WRONG solve: logic levels invert but stay finite, so no
      // guard anywhere can tell the state was never solved. Downstream FFM
      // classification is silently mutated — only a differential check
      // against an uncorrupted run can notice.
      testing::note_injection();
      stats_.injected_faults++;
      for (const NodeId n : tpl_->node_of_unknown_)
        v_[n] = inj->corrupt_bias - v_[n];
      return true;
  }
  return false;
}

void CompiledCircuit::check_watchdogs() {
  if (options_.cancel.stop_requested()) {
    std::ostringstream os;
    os << "solve cancelled (" << options_.cancel.reason() << ") at t=" << t_
       << " s";
    throw CancelledError(os.str());
  }
  if (options_.max_total_nr_iters > 0 &&
      stats_.nr_iterations > options_.max_total_nr_iters) {
    std::ostringstream os;
    os << "Newton iteration watchdog: " << stats_.nr_iterations
       << " iterations exceed the budget of " << options_.max_total_nr_iters
       << " at t=" << t_ << " s";
    throw ConvergenceError(os.str());
  }
  if (options_.max_wall_seconds > 0.0 && wall_started_) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - wall_start_;
    if (elapsed.count() > options_.max_wall_seconds) {
      std::ostringstream os;
      os << "wall-clock watchdog: " << elapsed.count()
         << " s exceed the budget of " << options_.max_wall_seconds
         << " s at t=" << t_ << " s";
      throw ConvergenceError(os.str());
    }
  }
}

void CompiledCircuit::run_for(double duration, const StepCallback& callback) {
  PF_CHECK(duration >= 0.0);
  const CircuitTemplate& T = *tpl_;
  if (options_.max_wall_seconds > 0.0 && !wall_started_) {
    wall_start_ = std::chrono::steady_clock::now();
    wall_started_ = true;
  }
  const double t_stop = t_ + duration;
  if (testing::armed() && apply_injected_fault()) {
    // kNanVoltage consumed the transient: the poisoned state stays
    // committed and time advances as if the solve had succeeded.
    t_ = t_stop;
    return;
  }
  check_watchdogs();
  dt_ = std::min(options_.dt_initial, duration > 0 ? duration : dt_);
  uint64_t steps_since_wall_check = 0;
  while (t_ < t_stop - 1e-18) {
    ++steps_since_wall_check;
    // Cancellation is checked every step (two relaxed atomic loads); the
    // costlier wall-clock watchdog keeps its 512-step throttle unless the
    // Newton-budget watchdog forces a full check anyway.
    if (options_.cancel.stop_requested() ||
        options_.max_total_nr_iters > 0 || steps_since_wall_check % 512 == 0)
      check_watchdogs();
    double h = std::min({dt_, options_.dt_max, t_stop - t_});
    // Land exactly on source/rail ramp corners so edges are not stepped over.
    auto clamp_corner = [&](double corner) {
      if (corner > t_ + 1e-18 && corner < t_ + h) h = corner - t_;
    };
    for (const auto& lvl : source_levels_) clamp_corner(lvl.ramp_end());
    for (const NodeId rail : T.rail_nodes_)
      clamp_corner(rail_levels_[rail].ramp_end());
    const double t_new = t_ + h;
    const int iters = try_step(h, t_new);
    if (iters < 0) {
      stats_.rejected_steps++;
      dt_ = h / 4.0;
      if (dt_ < options_.dt_min) {
        std::ostringstream os;
        os << "transient failed to converge at t=" << t_ << " s (step h=" << h
           << " s rejected, next dt " << dt_ << " s below dt_min="
           << options_.dt_min << " s; worst residual node '"
           << T.net_.node_name(worst_node_) << "', |dv|=" << worst_dv_
           << " V)";
        throw ConvergenceError(os.str());
      }
      continue;
    }
    stats_.steps++;
    t_ = t_new;
    if (callback) callback(t_, *this);
    // Step-size control from Newton effort.
    if (iters <= 3)
      dt_ = std::min(h * 1.5, options_.dt_max);
    else if (iters > 8)
      dt_ = std::max(h * 0.6, options_.dt_min);
    else
      dt_ = h;
  }
  t_ = t_stop;
}

}  // namespace pf::spice
