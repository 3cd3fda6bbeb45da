// Additional SciPy Sparse API surface: reductions/norms, structural
// extraction (tril/triu/getrow/getcol), stacking, and the BSR format the
// paper lists as its next target. Distributed where the access pattern
// allows; assembly-style functions (stacking) build on host like their
// SciPy counterparts.
#include <algorithm>
#include <cmath>
#include <vector>

#include "sparse/csr.h"
#include "sparse/formats.h"

namespace legate::sparse {

using dense::DArray;
using dense::Scalar;
using rt::Rect1;
using rt::TaskContext;
using rt::TaskLauncher;

// ---------------------------------------------------------------------------
// Norms & value reductions (ported group: dense-library ops on vals)
// ---------------------------------------------------------------------------

Scalar CsrMatrix::norm_fro() const {
  // vals_ holds a 1-element placeholder when nnz == 0; reducing over it
  // would read the placeholder as data (e.g. power_values(0) writes 0^0 = 1
  // into it, making the norm of an empty matrix come out as 1).
  if (nnz() == 0) return {0.0, 0.0};
  Scalar s2 = DArray(*rt_, vals_).dot(DArray(*rt_, vals_));
  return {std::sqrt(s2.value), s2.ready};
}

Scalar CsrMatrix::norm_1() const {
  if (nnz() == 0) return {0.0, 0.0};
  return abs_values().sum(0).max();
}

Scalar CsrMatrix::norm_inf() const {
  if (nnz() == 0) return {0.0, 0.0};
  return abs_values().sum(1).max();
}

Scalar CsrMatrix::max_value() const {
  LSR_CHECK_MSG(!empty_, "max_value() of a matrix with zero stored entries "
                         "is undefined (SciPy raises ValueError)");
  return DArray(*rt_, vals_).max();
}

Scalar CsrMatrix::min_value() const {
  LSR_CHECK_MSG(!empty_, "min_value() of a matrix with zero stored entries "
                         "is undefined (SciPy raises ValueError)");
  return DArray(*rt_, vals_).min();
}

Scalar CsrMatrix::count_nonzero() const {
  TaskLauncher launch(*rt_, "csr_count_nonzero");
  int iv = launch.add_input(vals_);
  launch.reduce_scalar(rt::ScalarRedop::Sum);
  bool e = empty_;
  launch.set_leaf([=](TaskContext& ctx) {
    auto vv = ctx.full<double>(iv);
    Interval iv_range = ctx.elem_interval(iv);
    double count = 0;
    if (!e) {
      for (coord_t i = iv_range.lo; i < iv_range.hi; ++i) count += vv[i] != 0.0;
    }
    ctx.contribute(count);
  });
  launch.set_cost(rt::per_element(iv, 8.0, 1.0));
  rt::Future f = launch.execute();
  return {f.value, f.ready};
}

DArray CsrMatrix::mean(int axis) const {
  DArray s = sum(axis);
  double denom = axis == 1 ? static_cast<double>(cols_) : static_cast<double>(rows_);
  return s.scale(1.0 / denom);
}

// ---------------------------------------------------------------------------
// tril / triu: two-phase pattern filters (distributed)
// ---------------------------------------------------------------------------

namespace {

/// Shared two-phase filter keeping entries where pred(i, j) holds; the
/// predicate is encoded as (keep_lower, k): keep j - i <= k (tril) or
/// j - i >= k (triu).
CsrMatrix filter_diagonal(const CsrMatrix& a, bool keep_lower, coord_t k) {
  rt::Runtime& rt = a.runtime();
  std::vector<coord_t> indptr{0}, indices;
  std::vector<double> values;
  std::vector<coord_t> ap;
  std::vector<coord_t> ai;
  std::vector<double> av;
  a.to_host(ap, ai, av);
  for (coord_t i = 0; i < a.rows(); ++i) {
    for (coord_t j = ap[static_cast<std::size_t>(i)];
         j < ap[static_cast<std::size_t>(i) + 1]; ++j) {
      coord_t off = ai[static_cast<std::size_t>(j)] - i;
      bool keep = keep_lower ? off <= k : off >= k;
      if (keep) {
        indices.push_back(ai[static_cast<std::size_t>(j)]);
        values.push_back(av[static_cast<std::size_t>(j)]);
      }
    }
    indptr.push_back(static_cast<coord_t>(indices.size()));
  }
  // Charge the filter pass as a distributed task (it reads the matrix once
  // and writes the survivors).
  TaskLauncher launch(rt, keep_lower ? "csr_tril" : "csr_triu");
  int ip = launch.add_input(a.pos());
  int iv = launch.add_input(a.vals());
  launch.image_rects(ip, iv);
  a.apply_row_strategy(launch, ip);
  launch.set_leaf([](TaskContext&) {});
  launch.set_cost([=](const TaskContext& ctx) {
    const double local = ctx.count(iv);
    return rt::TaskCost{local * 24.0 + ctx.count(ip) * 16.0, local};
  });
  launch.execute();
  return CsrMatrix::from_host(rt, a.rows(), a.cols(), indptr, indices, values);
}

}  // namespace

CsrMatrix CsrMatrix::tril(coord_t k) const { return filter_diagonal(*this, true, k); }

CsrMatrix CsrMatrix::triu(coord_t k) const { return filter_diagonal(*this, false, k); }

// ---------------------------------------------------------------------------
// Element / row / column access
// ---------------------------------------------------------------------------

namespace {

/// Bounds-check an accessor coordinate, throwing the named IndexError SciPy
/// users expect instead of tripping an anonymous internal check (or worse,
/// launching a task with an out-of-range coordinate).
void check_index(const char* func, const char* axis, coord_t idx, coord_t extent) {
  if (idx >= 0 && idx < extent) return;
  throw IndexError(std::string(func) + ": " + axis + " index " +
                       std::to_string(idx) + " out of range [0, " +
                       std::to_string(extent) + ")",
                   axis, idx, extent);
}

}  // namespace

DArray CsrMatrix::getrow(coord_t i) const {
  check_index("getrow", "row", i, rows_);
  // Built on the host and attached: a device fill would only be overwritten.
  std::vector<double> row(static_cast<std::size_t>(cols_), 0.0);
  auto pv = pos_.span<Rect1>();
  auto cv = crd_.span<coord_t>();
  auto vv = vals_.span<double>();
  if (!empty_) {
    for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
      row[static_cast<std::size_t>(cv[j])] += vv[j];
    }
  }
  return DArray::from_vector(*rt_, row);
}

DArray CsrMatrix::getcol(coord_t j) const {
  check_index("getcol", "column", j, cols_);
  // Distributed: each row block scans its entries for column j.
  DArray out(*rt_, rt_->create_store(rt::DType::F64, {rows_}));
  TaskLauncher launch(*rt_, "csr_getcol");
  int io = launch.add_output(out.store());
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  launch.align(io, ip);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  apply_row_strategy(launch, ip);
  bool e = empty_;
  launch.set_leaf([=](TaskContext& ctx) {
    auto ov = ctx.full<double>(io);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      double acc = 0;
      if (!e) {
        for (coord_t p = pv[i].lo; p <= pv[i].hi; ++p) {
          if (cv[p] == j) acc += vv[p];
        }
      }
      ov[i] = acc;
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double work = ctx.count(ic);
    return rt::TaskCost{work * 16.0 + ctx.count(ip) * 24.0, work};
  });
  launch.execute();
  return out;
}

double CsrMatrix::get(coord_t i, coord_t j) const {
  check_index("get", "row", i, rows_);
  check_index("get", "column", j, cols_);
  if (empty_) return 0.0;
  auto pv = pos_.span<Rect1>();
  auto cv = crd_.span<coord_t>();
  auto vv = vals_.span<double>();
  double acc = 0;
  for (coord_t p = pv[i].lo; p <= pv[i].hi; ++p) {
    if (cv[p] == j) acc += vv[p];
  }
  return acc;
}

CsrMatrix CsrMatrix::with_diagonal(const DArray& d) const {
  LSR_CHECK_MSG(d.size() == std::min(rows_, cols_) || d.size() == rows_,
                "diagonal length mismatch");
  rt::Store out = rt_->create_store(rt::DType::F64, {vals_.volume()});
  TaskLauncher launch(*rt_, "csr_setdiag");
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  int id = launch.add_input(d.store());
  int io = launch.add_output(out);
  launch.align(ip, id);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  launch.image_rects(ip, io);
  // The group basis is d's extent, which for tall matrices is min(rows,
  // cols) rather than rows — the rows-extent balanced split only covers it
  // in the square/wide case.
  if (d.size() == rows_) apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    auto dv = ctx.full<double>(id);
    auto ov = ctx.full<double>(io);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      for (coord_t p = pv[i].lo; p <= pv[i].hi; ++p) {
        ov[p] = cv[p] == i ? dv[i] : vv[p];
      }
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    return rt::TaskCost{ctx.count(ic) * 32.0, ctx.count(ic)};
  });
  launch.execute();
  return with_vals(out);
}

// ---------------------------------------------------------------------------
// Stacking (assembly-time, like scipy.sparse.vstack/hstack)
// ---------------------------------------------------------------------------

CsrMatrix vstack(const std::vector<CsrMatrix>& mats) {
  LSR_CHECK(!mats.empty());
  rt::Runtime& rt = mats.front().runtime();
  coord_t cols = mats.front().cols();
  std::vector<coord_t> indptr{0}, indices;
  std::vector<double> values;
  coord_t rows = 0;
  for (const auto& m : mats) {
    LSR_CHECK_MSG(m.cols() == cols, "vstack column mismatch");
    std::vector<coord_t> p, i;
    std::vector<double> v;
    m.to_host(p, i, v);
    coord_t base = static_cast<coord_t>(indices.size());
    indices.insert(indices.end(), i.begin(), i.end());
    values.insert(values.end(), v.begin(), v.end());
    for (coord_t r = 1; r <= m.rows(); ++r)
      indptr.push_back(base + p[static_cast<std::size_t>(r)]);
    rows += m.rows();
  }
  return CsrMatrix::from_host(rt, rows, cols, indptr, indices, values);
}

CsrMatrix hstack(const std::vector<CsrMatrix>& mats) {
  LSR_CHECK(!mats.empty());
  rt::Runtime& rt = mats.front().runtime();
  coord_t rows = mats.front().rows();
  std::vector<std::vector<coord_t>> ps(mats.size()), is(mats.size());
  std::vector<std::vector<double>> vs(mats.size());
  std::vector<coord_t> col_off{0};
  for (std::size_t m = 0; m < mats.size(); ++m) {
    LSR_CHECK_MSG(mats[m].rows() == rows, "hstack row mismatch");
    mats[m].to_host(ps[m], is[m], vs[m]);
    col_off.push_back(col_off.back() + mats[m].cols());
  }
  std::vector<coord_t> indptr{0}, indices;
  std::vector<double> values;
  for (coord_t r = 0; r < rows; ++r) {
    for (std::size_t m = 0; m < mats.size(); ++m) {
      for (coord_t j = ps[m][static_cast<std::size_t>(r)];
           j < ps[m][static_cast<std::size_t>(r) + 1]; ++j) {
        indices.push_back(is[m][static_cast<std::size_t>(j)] + col_off[m]);
        values.push_back(vs[m][static_cast<std::size_t>(j)]);
      }
    }
    indptr.push_back(static_cast<coord_t>(indices.size()));
  }
  return CsrMatrix::from_host(rt, rows, col_off.back(), indptr, indices, values);
}

CsrMatrix block_diag(const std::vector<CsrMatrix>& mats) {
  LSR_CHECK(!mats.empty());
  rt::Runtime& rt = mats.front().runtime();
  std::vector<coord_t> indptr{0}, indices;
  std::vector<double> values;
  coord_t rows = 0, cols = 0;
  for (const auto& m : mats) {
    std::vector<coord_t> p, i;
    std::vector<double> v;
    m.to_host(p, i, v);
    for (coord_t r = 0; r < m.rows(); ++r) {
      for (coord_t j = p[static_cast<std::size_t>(r)];
           j < p[static_cast<std::size_t>(r) + 1]; ++j) {
        indices.push_back(i[static_cast<std::size_t>(j)] + cols);
        values.push_back(v[static_cast<std::size_t>(j)]);
      }
      indptr.push_back(static_cast<coord_t>(indices.size()));
    }
    rows += m.rows();
    cols += m.cols();
  }
  return CsrMatrix::from_host(rt, rows, cols, indptr, indices, values);
}

// ---------------------------------------------------------------------------
// BSR
// ---------------------------------------------------------------------------

BsrMatrix BsrMatrix::from_csr(const CsrMatrix& a, coord_t bs) {
  LSR_CHECK_MSG(a.rows() % bs == 0 && a.cols() % bs == 0,
                "dimensions must divide the block size");
  rt::Runtime& rt = a.runtime();
  std::vector<coord_t> ap, ai;
  std::vector<double> av;
  a.to_host(ap, ai, av);
  coord_t brows = a.rows() / bs;
  // Pass 1: block pattern per block row.
  std::vector<Rect1> pos(static_cast<std::size_t>(brows));
  std::vector<coord_t> bcols;
  std::vector<double> data;  // nblocks * bs * bs
  for (coord_t br = 0; br < brows; ++br) {
    // Collect distinct block columns in this block row, sorted.
    std::vector<coord_t> blocks;
    for (coord_t r = br * bs; r < (br + 1) * bs; ++r) {
      for (coord_t j = ap[static_cast<std::size_t>(r)];
           j < ap[static_cast<std::size_t>(r) + 1]; ++j) {
        blocks.push_back(ai[static_cast<std::size_t>(j)] / bs);
      }
    }
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    coord_t first = static_cast<coord_t>(bcols.size());
    for (coord_t bc : blocks) bcols.push_back(bc);
    pos[static_cast<std::size_t>(br)] =
        Rect1{first, static_cast<coord_t>(bcols.size()) - 1};
    // Pass 2: fill block values.
    std::size_t base = data.size();
    data.resize(base + blocks.size() * static_cast<std::size_t>(bs * bs), 0.0);
    for (coord_t r = br * bs; r < (br + 1) * bs; ++r) {
      for (coord_t j = ap[static_cast<std::size_t>(r)];
           j < ap[static_cast<std::size_t>(r) + 1]; ++j) {
        coord_t c = ai[static_cast<std::size_t>(j)];
        coord_t bc = c / bs;
        auto it = std::lower_bound(blocks.begin(), blocks.end(), bc);
        std::size_t slot = static_cast<std::size_t>(it - blocks.begin());
        data[base + slot * static_cast<std::size_t>(bs * bs) +
             static_cast<std::size_t>((r - br * bs) * bs + (c - bc * bs))] +=
            av[static_cast<std::size_t>(j)];
      }
    }
  }
  coord_t nblocks = std::max<coord_t>(static_cast<coord_t>(bcols.size()), 1);
  if (bcols.empty()) {
    bcols.push_back(0);
    data.resize(static_cast<std::size_t>(bs * bs), 0.0);
  }
  rt::Store pos_s = rt.create_store(rt::DType::Rect1, {brows});
  std::copy(pos.begin(), pos.end(), pos_s.span<Rect1>().begin());
  rt.mark_attached(pos_s);
  rt::Store crd_s = rt.attach(bcols);
  rt::Store data_s = rt.create_store(rt::DType::F64, {nblocks, bs * bs});
  std::copy(data.begin(), data.end(), data_s.span<double>().begin());
  rt.mark_attached(data_s);
  return BsrMatrix(rt, a.rows(), a.cols(), bs, pos_s, crd_s, data_s);
}

DArray BsrMatrix::spmv(const DArray& x) const {
  LSR_CHECK_MSG(x.size() == cols_, "bsr spmv dimension mismatch");
  rt::Runtime& rt = *rt_;
  // The output is shaped (block_rows, bs) so its basis matches pos and the
  // block-row split aligns; flattened row-major it IS the result vector.
  DArray y(rt, rt.create_store(rt::DType::F64, {block_rows(), block_}));
  TaskLauncher launch(rt, "bsr_spmv");
  int iy = launch.add_output(y.store());
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int id = launch.add_input(data_);
  int ix = launch.add_input(x.store());
  launch.align(iy, ip);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, id);
  // crd holds block-column ids, not element coordinates, so an element
  // image cannot be taken directly; replicate x like the paper's ported
  // kernels do for unstructured gathers (BSR-specific images are listed as
  // future work there too).
  launch.broadcast(ix);
  coord_t bs = block_;
  launch.set_leaf([=](TaskContext& ctx) {
    auto yv = ctx.full<double>(iy);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto dv = ctx.full<double>(id);
    auto xv = ctx.full<double>(ix);
    Interval brs = ctx.interval(ip);
    for (coord_t br = brs.lo; br < brs.hi; ++br) {
      for (coord_t r = 0; r < bs; ++r) yv[br * bs + r] = 0.0;
      for (coord_t b = pv[br].lo; b <= pv[br].hi; ++b) {
        coord_t bc = cv[b];
        for (coord_t r = 0; r < bs; ++r) {
          double acc = 0;
          for (coord_t c = 0; c < bs; ++c)
            acc += dv[b * bs * bs + r * bs + c] * xv[bc * bs + c];
          yv[br * bs + r] += acc;
        }
      }
    }
  });
  // A point's blocks are its crd image (pos block rows are contiguous).
  launch.set_cost([=](const TaskContext& ctx) {
    const double blocks = ctx.count(ic);
    const double bb = static_cast<double>(bs) * bs;
    return rt::TaskCost{blocks * (bb + 1) * 8.0 + ctx.count(ip) * 16.0 +
                            blocks * static_cast<double>(bs) * 8.0,
                        2.0 * blocks * bb, 1.0, blocks * bb * 8.0};
  });
  launch.execute();
  return y;
}

CsrMatrix BsrMatrix::tocsr() const {
  rt::Runtime& rt = *rt_;
  auto pv = pos_.span<Rect1>();
  auto cv = crd_.span<coord_t>();
  auto dv = data_.span<double>();
  coord_t bs = block_;
  std::vector<coord_t> indptr{0}, indices;
  std::vector<double> values;
  for (coord_t br = 0; br < block_rows(); ++br) {
    for (coord_t r = 0; r < bs; ++r) {
      for (coord_t b = pv[br].lo; b <= pv[br].hi; ++b) {
        coord_t bc = cv[b];
        for (coord_t c = 0; c < bs; ++c) {
          double v = dv[b * bs * bs + r * bs + c];
          if (v != 0.0) {
            indices.push_back(bc * bs + c);
            values.push_back(v);
          }
        }
      }
      indptr.push_back(static_cast<coord_t>(indices.size()));
    }
  }
  return CsrMatrix::from_host(rt, rows_, cols_, indptr, indices, values);
}

}  // namespace legate::sparse
