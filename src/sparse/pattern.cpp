// Pattern-producing CSR operations (SpGEMM, sparse add/subtract, Hadamard
// multiply, prune, dense->CSR). All follow the two-phase scheme real
// distributed SpGEMM implementations use: a symbolic pass counts the output
// entries per row, a scan builds the output `pos` region, and a numeric pass
// fills `crd`/`vals` through an image of the new pos.
#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sparse/csr.h"
#include "sparse/formats.h"

namespace legate::sparse {

using dense::DArray;
using rt::Rect1;
using rt::TaskContext;
using rt::TaskLauncher;

namespace {

/// Scan per-row counts into a Rect1 `pos` store; returns total entries.
/// The scan is a single sequential task (prefix sums are latency-bound
/// metadata work; the paper's implementation similarly serializes them).
std::pair<rt::Store, coord_t> scan_counts(rt::Runtime& rt, const rt::Store& counts) {
  rt::Store pos = rt.create_store(rt::DType::Rect1, {counts.volume()});
  TaskLauncher launch(rt, "scan_counts");
  int ic = launch.add_input(counts);
  int ip = launch.add_output(pos);
  launch.align(ic, ip);
  launch.require_colors(1);
  launch.reduce_scalar(rt::ScalarRedop::Sum);
  launch.set_leaf([=](TaskContext& ctx) {
    auto cv = ctx.full<coord_t>(ic);
    auto pv = ctx.full<Rect1>(ip);
    coord_t cursor = 0;
    for (coord_t i = 0; i < static_cast<coord_t>(cv.size()); ++i) {
      pv[i] = Rect1{cursor, cursor + cv[i] - 1};
      cursor += cv[i];
    }
    ctx.contribute(static_cast<double>(cursor));
  });
  launch.set_cost(rt::per_element(ic, 24.0, 1.0));
  rt::Future f = launch.execute();
  return {pos, static_cast<coord_t>(f.value)};
}

/// Allocate crd/vals stores for `total` entries (1-element placeholder when
/// the result is empty so downstream partitioning stays uniform).
std::pair<rt::Store, rt::Store> make_output_arrays(rt::Runtime& rt, coord_t total) {
  coord_t len = std::max<coord_t>(total, 1);
  rt::Store crd = rt.create_store(rt::DType::I64, {len});
  rt::Store vals = rt.create_store(rt::DType::F64, {len});
  if (total == 0) {
    crd.span<coord_t>()[0] = 0;
    vals.span<double>()[0] = 0;
    rt.mark_attached(crd);
    rt.mark_attached(vals);
  }
  return {crd, vals};
}

CsrMatrix assemble(rt::Runtime& rt, coord_t rows, coord_t cols, rt::Store pos,
                   rt::Store crd, rt::Store vals, coord_t total) {
  CsrMatrix out(rt, rows, cols, std::move(pos), std::move(crd), std::move(vals));
  if (total == 0) {
    // Rebuild through from_host to set the empty flag consistently.
    return CsrMatrix::from_host(rt, rows, cols,
                                std::vector<coord_t>(static_cast<std::size_t>(rows) + 1, 0),
                                {}, {});
  }
  return out;
}

/// SpGEMM's data-dependent work: the B entries each row of A's point
/// touches. Reads A.pos, A.crd and B.pos, all image sources of the launch.
double spgemm_work(const TaskContext& ctx, int ipa, int ica, int ipb) {
  auto pa = ctx.full<Rect1>(ipa);
  auto ca = ctx.full<coord_t>(ica);
  auto pb = ctx.full<Rect1>(ipb);
  const Interval rows = ctx.interval(ipa);
  double work = 0;
  for (coord_t i = rows.lo; i < rows.hi; ++i) {
    for (coord_t j = pa[i].lo; j <= pa[i].hi; ++j) work += static_cast<double>(pb[ca[j]].size());
  }
  return work;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpGEMM
// ---------------------------------------------------------------------------

CsrMatrix CsrMatrix::spgemm(const CsrMatrix& b) const {
  LSR_CHECK_MSG(cols_ == b.rows_, "spgemm dimension mismatch");
  rt::Runtime& rt = *rt_;

  // Symbolic phase: per-row distinct-column counts.
  rt::Store counts = rt.create_store(rt::DType::I64, {rows_});
  {
    TaskLauncher launch(rt, "spgemm_count");
    int ik = launch.add_output(counts);
    int ipa = launch.add_input(pos_);
    int ica = launch.add_input(crd_);
    int ipb = launch.add_input(b.pos_);
    int icb = launch.add_input(b.crd_);
    launch.align(ik, ipa);
    launch.image_rects(ipa, ica);
    launch.image_points(ica, ipb);
    launch.image_rects(ipb, icb);
    apply_row_strategy(launch, ipa);
    bool a_empty = empty_, b_empty = b.empty_;
    launch.set_leaf([=](TaskContext& ctx) {
      auto kv = ctx.full<coord_t>(ik);
      auto pa = ctx.full<Rect1>(ipa);
      auto ca = ctx.full<coord_t>(ica);
      auto pb = ctx.full<Rect1>(ipb);
      auto cb = ctx.full<coord_t>(icb);
      Interval rows = ctx.interval(ipa);
      std::unordered_set<coord_t> seen;
      for (coord_t i = rows.lo; i < rows.hi; ++i) {
        seen.clear();
        if (!a_empty && !b_empty) {
          for (coord_t j = pa[i].lo; j <= pa[i].hi; ++j) {
            coord_t brow = ca[j];
            for (coord_t l = pb[brow].lo; l <= pb[brow].hi; ++l) seen.insert(cb[l]);
          }
        }
        kv[i] = static_cast<coord_t>(seen.size());
      }
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const double work = a_empty || b_empty ? 0.0 : spgemm_work(ctx, ipa, ica, ipb);
      return rt::TaskCost{work * 24.0 + ctx.count(ipa) * 32.0, work};
    });
    launch.execute();
  }

  auto [pos_out, total] = scan_counts(rt, counts);
  auto [crd_out, vals_out] = make_output_arrays(rt, total);
  if (total == 0) return assemble(rt, rows_, b.cols_, pos_out, crd_out, vals_out, 0);

  // Numeric phase: row-wise accumulator, emitted in sorted column order.
  TaskLauncher launch(rt, "spgemm_fill");
  int ipo = launch.add_input(pos_out);
  int ico = launch.add_output(crd_out);
  int ivo = launch.add_output(vals_out);
  int ipa = launch.add_input(pos_);
  int ica = launch.add_input(crd_);
  int iva = launch.add_input(vals_);
  int ipb = launch.add_input(b.pos_);
  int icb = launch.add_input(b.crd_);
  int ivb = launch.add_input(b.vals_);
  launch.align(ipo, ipa);
  launch.image_rects(ipo, ico);
  launch.image_rects(ipo, ivo);
  launch.image_rects(ipa, ica);
  launch.image_rects(ipa, iva);
  launch.image_points(ica, ipb);
  launch.image_rects(ipb, icb);
  launch.image_rects(ipb, ivb);
  apply_row_strategy(launch, ipa);
  launch.set_leaf([=](TaskContext& ctx) {
    auto po = ctx.full<Rect1>(ipo);
    auto co = ctx.full<coord_t>(ico);
    auto vo = ctx.full<double>(ivo);
    auto pa = ctx.full<Rect1>(ipa);
    auto ca = ctx.full<coord_t>(ica);
    auto va = ctx.full<double>(iva);
    auto pb = ctx.full<Rect1>(ipb);
    auto cb = ctx.full<coord_t>(icb);
    auto vb = ctx.full<double>(ivb);
    Interval rows = ctx.interval(ipa);
    std::unordered_map<coord_t, double> acc;
    std::vector<std::pair<coord_t, double>> sorted;
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      acc.clear();
      for (coord_t j = pa[i].lo; j <= pa[i].hi; ++j) {
        coord_t brow = ca[j];
        double av = va[j];
        for (coord_t l = pb[brow].lo; l <= pb[brow].hi; ++l) acc[cb[l]] += av * vb[l];
      }
      sorted.assign(acc.begin(), acc.end());
      std::sort(sorted.begin(), sorted.end());
      coord_t cursor = po[i].lo;
      for (auto& [col, v] : sorted) {
        co[cursor] = col;
        vo[cursor] = v;
        ++cursor;
      }
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double work = spgemm_work(ctx, ipa, ica, ipb);
    return rt::TaskCost{work * 32.0 + ctx.count(ipa) * 40.0, 2.0 * work};
  });
  launch.execute();
  return assemble(rt, rows_, b.cols_, pos_out, crd_out, vals_out, total);
}

// ---------------------------------------------------------------------------
// Sparse add / subtract / Hadamard multiply (merge kernels)
// ---------------------------------------------------------------------------

namespace {
enum class MergeOp { Add, Sub, Mul };

/// A merge's work: both operands' nonzeros in the point's rows, i.e. their
/// crd images (-1: an operand with no stored entries).
double merge_work(const TaskContext& ctx, int ica, int icb) {
  return static_cast<double>((ica < 0 ? 0 : ctx.interval(ica).size()) +
                             (icb < 0 ? 0 : ctx.interval(icb).size()));
}
}  // namespace

static CsrMatrix merge_patterns(const CsrMatrix& a, const CsrMatrix& b, MergeOp op) {
  LSR_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                "element-wise shape mismatch");
  rt::Runtime& rt = a.runtime();
  const bool intersect = op == MergeOp::Mul;

  rt::Store counts = rt.create_store(rt::DType::I64, {a.rows()});
  {
    TaskLauncher launch(rt, "merge_count");
    int ik = launch.add_output(counts);
    int ipa = launch.add_input(a.pos());
    int ica = launch.add_input(a.crd());
    int ipb = launch.add_input(b.pos());
    int icb = launch.add_input(b.crd());
    launch.align(ik, ipa);
    launch.align(ipa, ipb);
    launch.image_rects(ipa, ica);
    launch.image_rects(ipb, icb);
    a.apply_row_strategy(launch, ipa);
    bool ae = a.nnz() == 0, be = b.nnz() == 0;
    launch.set_leaf([=](TaskContext& ctx) {
      auto kv = ctx.full<coord_t>(ik);
      auto pa = ctx.full<Rect1>(ipa);
      auto ca = ctx.full<coord_t>(ica);
      auto pb = ctx.full<Rect1>(ipb);
      auto cb = ctx.full<coord_t>(icb);
      Interval rows = ctx.interval(ipa);
      for (coord_t i = rows.lo; i < rows.hi; ++i) {
        coord_t ja = ae ? 1 : pa[i].lo, jae = ae ? 0 : pa[i].hi;
        coord_t jb = be ? 1 : pb[i].lo, jbe = be ? 0 : pb[i].hi;
        coord_t count = 0;
        while (ja <= jae && jb <= jbe) {
          if (ca[ja] == cb[jb]) {
            ++count;
            ++ja;
            ++jb;
          } else if (ca[ja] < cb[jb]) {
            count += intersect ? 0 : 1;
            ++ja;
          } else {
            count += intersect ? 0 : 1;
            ++jb;
          }
        }
        if (!intersect) count += (jae - ja + 1) + (jbe - jb + 1);
        kv[i] = count;
      }
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const double work = merge_work(ctx, ae ? -1 : ica, be ? -1 : icb);
      return rt::TaskCost{work * 16.0 + ctx.count(ipa) * 40.0, work};
    });
    launch.execute();
  }

  auto [pos_out, total] = scan_counts(rt, counts);
  auto [crd_out, vals_out] = make_output_arrays(rt, total);
  if (total == 0) return assemble(rt, a.rows(), a.cols(), pos_out, crd_out, vals_out, 0);

  TaskLauncher launch(rt, "merge_fill");
  int ipo = launch.add_input(pos_out);
  int ico = launch.add_output(crd_out);
  int ivo = launch.add_output(vals_out);
  int ipa = launch.add_input(a.pos());
  int ica = launch.add_input(a.crd());
  int iva = launch.add_input(a.vals());
  int ipb = launch.add_input(b.pos());
  int icb = launch.add_input(b.crd());
  int ivb = launch.add_input(b.vals());
  launch.align(ipo, ipa);
  launch.align(ipa, ipb);
  launch.image_rects(ipo, ico);
  launch.image_rects(ipo, ivo);
  launch.image_rects(ipa, ica);
  launch.image_rects(ipa, iva);
  launch.image_rects(ipb, icb);
  launch.image_rects(ipb, ivb);
  a.apply_row_strategy(launch, ipa);
  bool ae = a.nnz() == 0, be = b.nnz() == 0;
  launch.set_leaf([=](TaskContext& ctx) {
    auto po = ctx.full<Rect1>(ipo);
    auto co = ctx.full<coord_t>(ico);
    auto vo = ctx.full<double>(ivo);
    auto pa = ctx.full<Rect1>(ipa);
    auto ca = ctx.full<coord_t>(ica);
    auto va = ctx.full<double>(iva);
    auto pb = ctx.full<Rect1>(ipb);
    auto cb = ctx.full<coord_t>(icb);
    auto vb = ctx.full<double>(ivb);
    Interval rows = ctx.interval(ipa);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      coord_t ja = ae ? 1 : pa[i].lo, jae = ae ? 0 : pa[i].hi;
      coord_t jb = be ? 1 : pb[i].lo, jbe = be ? 0 : pb[i].hi;
      coord_t cursor = po[i].lo;
      auto emit = [&](coord_t col, double v) {
        co[cursor] = col;
        vo[cursor] = v;
        ++cursor;
      };
      while (ja <= jae && jb <= jbe) {
        if (ca[ja] == cb[jb]) {
          double v = op == MergeOp::Add   ? va[ja] + vb[jb]
                     : op == MergeOp::Sub ? va[ja] - vb[jb]
                                          : va[ja] * vb[jb];
          emit(ca[ja], v);
          ++ja;
          ++jb;
        } else if (ca[ja] < cb[jb]) {
          if (!intersect) emit(ca[ja], op == MergeOp::Mul ? 0.0 : va[ja]);
          ++ja;
        } else {
          if (!intersect) emit(cb[jb], op == MergeOp::Sub ? -vb[jb] : vb[jb]);
          ++jb;
        }
      }
      if (!intersect) {
        for (; ja <= jae; ++ja) emit(ca[ja], va[ja]);
        for (; jb <= jbe; ++jb) emit(cb[jb], op == MergeOp::Sub ? -vb[jb] : vb[jb]);
      }
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double work = merge_work(ctx, ae ? -1 : ica, be ? -1 : icb);
    return rt::TaskCost{work * 40.0 + ctx.count(ipa) * 40.0, work};
  });
  launch.execute();
  return assemble(rt, a.rows(), a.cols(), pos_out, crd_out, vals_out, total);
}

CsrMatrix CsrMatrix::add(const CsrMatrix& b) const {
  return merge_patterns(*this, b, MergeOp::Add);
}
CsrMatrix CsrMatrix::sub(const CsrMatrix& b) const {
  return merge_patterns(*this, b, MergeOp::Sub);
}
CsrMatrix CsrMatrix::multiply(const CsrMatrix& b) const {
  return merge_patterns(*this, b, MergeOp::Mul);
}

// ---------------------------------------------------------------------------
// Prune (eliminate entries with |v| <= tol)
// ---------------------------------------------------------------------------

CsrMatrix CsrMatrix::prune(double tol) const {
  rt::Runtime& rt = *rt_;
  rt::Store counts = rt.create_store(rt::DType::I64, {rows_});
  {
    TaskLauncher launch(rt, "prune_count");
    int ik = launch.add_output(counts);
    int ip = launch.add_input(pos_);
    int iv = launch.add_input(vals_);
    launch.align(ik, ip);
    launch.image_rects(ip, iv);
    apply_row_strategy(launch, ip);
    bool e = empty_;
    launch.set_leaf([=](TaskContext& ctx) {
      auto kv = ctx.full<coord_t>(ik);
      auto pv = ctx.full<Rect1>(ip);
      auto vv = ctx.full<double>(iv);
      Interval rows = ctx.interval(ip);
      for (coord_t i = rows.lo; i < rows.hi; ++i) {
        coord_t count = 0;
        if (!e) {
          for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j)
            count += std::fabs(vv[j]) > tol;
        }
        kv[i] = count;
      }
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const double work = ctx.count(iv);
      return rt::TaskCost{work * 8.0 + ctx.count(ip) * 24.0, work};
    });
    launch.execute();
  }
  auto [pos_out, total] = scan_counts(rt, counts);
  auto [crd_out, vals_out] = make_output_arrays(rt, total);
  if (total == 0) return assemble(rt, rows_, cols_, pos_out, crd_out, vals_out, 0);

  TaskLauncher launch(rt, "prune_fill");
  int ipo = launch.add_input(pos_out);
  int ico = launch.add_output(crd_out);
  int ivo = launch.add_output(vals_out);
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  launch.align(ipo, ip);
  launch.image_rects(ipo, ico);
  launch.image_rects(ipo, ivo);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto po = ctx.full<Rect1>(ipo);
    auto co = ctx.full<coord_t>(ico);
    auto vo = ctx.full<double>(ivo);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      coord_t cursor = po[i].lo;
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
        if (std::fabs(vv[j]) > tol) {
          co[cursor] = cv[j];
          vo[cursor] = vv[j];
          ++cursor;
        }
      }
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double work = ctx.count(ic);
    return rt::TaskCost{work * 32.0, work};
  });
  launch.execute();
  return assemble(rt, rows_, cols_, pos_out, crd_out, vals_out, total);
}

// ---------------------------------------------------------------------------
// Dense -> CSR
// ---------------------------------------------------------------------------

CsrMatrix csr_from_dense(const DArray& a) {
  LSR_CHECK_MSG(a.dim() == 2, "csr_from_dense needs a 2-D array");
  rt::Runtime& rt = a.runtime();
  coord_t rows = a.rows(), cols = a.cols();
  // Both passes read the point's dense rows once.
  auto scan_cost = [cols](int ia) -> rt::CostFn {
    return [=](const TaskContext& ctx) {
      return rt::TaskCost{ctx.count(ia) * static_cast<double>(cols) * 8.0,
                          ctx.count(ia) * static_cast<double>(cols)};
    };
  };
  rt::Store counts = rt.create_store(rt::DType::I64, {rows});
  {
    TaskLauncher launch(rt, "from_dense_count");
    int ik = launch.add_output(counts);
    int ia = launch.add_input(a.store());
    launch.align(ik, ia);
    launch.set_leaf([=](TaskContext& ctx) {
      auto kv = ctx.full<coord_t>(ik);
      auto av = ctx.full<double>(ia);
      Interval riv = ctx.interval(ia);
      for (coord_t i = riv.lo; i < riv.hi; ++i) {
        coord_t count = 0;
        for (coord_t j = 0; j < cols; ++j) count += av[i * cols + j] != 0.0;
        kv[i] = count;
      }
    });
    launch.set_cost(scan_cost(ia));
    launch.execute();
  }
  auto [pos_out, total] = scan_counts(rt, counts);
  auto [crd_out, vals_out] = make_output_arrays(rt, total);
  if (total == 0) return assemble(rt, rows, cols, pos_out, crd_out, vals_out, 0);

  TaskLauncher launch(rt, "from_dense_fill");
  int ipo = launch.add_input(pos_out);
  int ico = launch.add_output(crd_out);
  int ivo = launch.add_output(vals_out);
  int ia = launch.add_input(a.store());
  launch.align(ipo, ia);
  launch.image_rects(ipo, ico);
  launch.image_rects(ipo, ivo);
  launch.set_leaf([=](TaskContext& ctx) {
    auto po = ctx.full<Rect1>(ipo);
    auto co = ctx.full<coord_t>(ico);
    auto vo = ctx.full<double>(ivo);
    auto av = ctx.full<double>(ia);
    Interval riv = ctx.interval(ia);
    for (coord_t i = riv.lo; i < riv.hi; ++i) {
      coord_t cursor = po[i].lo;
      for (coord_t j = 0; j < cols; ++j) {
        double v = av[i * cols + j];
        if (v != 0.0) {
          co[cursor] = j;
          vo[cursor] = v;
          ++cursor;
        }
      }
    }
  });
  launch.set_cost(scan_cost(ia));
  launch.execute();
  return assemble(rt, rows, cols, pos_out, crd_out, vals_out, total);
}

}  // namespace legate::sparse
