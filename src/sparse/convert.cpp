// Format conversions (Section 5: sorts and data reorganization are the
// "hand-written" implementation group). Expansion-style conversions
// (CSR->COO, DIA fill, dense) run distributed; sort-based conversions
// (COO->CSR, CSR->CSC/transpose) run as single sequential tasks with honest
// costs, as conversions are assembly-time operations in all benchmarks.
#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "sparse/csr.h"
#include "sparse/formats.h"

namespace legate::sparse {

using dense::DArray;
using rt::Rect1;
using rt::TaskContext;
using rt::TaskLauncher;

// ---------------------------------------------------------------------------
// CSR -> COO (distributed row expansion)
// ---------------------------------------------------------------------------

CooMatrix CsrMatrix::tocoo() const {
  rt::Runtime& rt = *rt_;
  coord_t len = nnz_store_len();
  rt::Store row = rt.create_store(rt::DType::I64, {len});
  rt::Store col = rt.create_store(rt::DType::I64, {len});
  rt::Store vals = rt.create_store(rt::DType::F64, {len});
  TaskLauncher launch(rt, "csr_to_coo");
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  int ir = launch.add_output(row);
  int io = launch.add_output(col);
  int iw = launch.add_output(vals);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  launch.image_rects(ip, ir);
  launch.image_rects(ip, io);
  launch.image_rects(ip, iw);
  bool e = empty_;
  launch.set_leaf([=](TaskContext& ctx) {
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    auto rv = ctx.full<coord_t>(ir);
    auto ov = ctx.full<coord_t>(io);
    auto wv = ctx.full<double>(iw);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      if (e) break;
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
        rv[j] = i;
        ov[j] = cv[j];
        wv[j] = vv[j];
      }
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    return rt::TaskCost{ctx.count(ic) * 40.0 + ctx.count(ip) * 16.0, 0};
  });
  launch.execute();
  if (empty_) {
    row.span<coord_t>()[0] = 0;
    col.span<coord_t>()[0] = 0;
    vals.span<double>()[0] = 0;
  }
  CooMatrix out(rt, rows_, cols_, row, col, vals);
  return out;
}

// ---------------------------------------------------------------------------
// CSR transpose / CSR -> CSC (sequential counting sort with honest cost)
// ---------------------------------------------------------------------------

namespace {

struct TransposedArrays {
  std::vector<Rect1> pos;
  std::vector<coord_t> crd;
  std::vector<double> vals;
};

/// Counting-sort transpose of host-visible CSR arrays.
TransposedArrays transpose_host(coord_t rows, coord_t cols,
                                std::span<const Rect1> pos,
                                std::span<const coord_t> crd,
                                std::span<const double> vals, bool empty) {
  TransposedArrays out;
  std::vector<coord_t> counts(static_cast<std::size_t>(cols), 0);
  if (!empty) {
    for (coord_t i = 0; i < rows; ++i)
      for (coord_t j = pos[i].lo; j <= pos[i].hi; ++j)
        ++counts[static_cast<std::size_t>(crd[j])];
  }
  out.pos.resize(static_cast<std::size_t>(cols));
  coord_t cursor = 0;
  std::vector<coord_t> fill(static_cast<std::size_t>(cols));
  for (coord_t c = 0; c < cols; ++c) {
    out.pos[static_cast<std::size_t>(c)] = Rect1{cursor, cursor + counts[static_cast<std::size_t>(c)] - 1};
    fill[static_cast<std::size_t>(c)] = cursor;
    cursor += counts[static_cast<std::size_t>(c)];
  }
  out.crd.resize(static_cast<std::size_t>(std::max<coord_t>(cursor, 1)), 0);
  out.vals.resize(out.crd.size(), 0.0);
  if (!empty) {
    for (coord_t i = 0; i < rows; ++i) {
      for (coord_t j = pos[i].lo; j <= pos[i].hi; ++j) {
        coord_t c = crd[j];
        coord_t slot = fill[static_cast<std::size_t>(c)]++;
        out.crd[static_cast<std::size_t>(slot)] = i;
        out.vals[static_cast<std::size_t>(slot)] = vals[j];
      }
    }
  }
  return out;
}

}  // namespace

CscMatrix CsrMatrix::tocsc() const {
  rt::Runtime& rt = *rt_;
  rt::Store pos_t = rt.create_store(rt::DType::Rect1, {cols_});
  rt::Store crd_t = rt.create_store(rt::DType::I64, {nnz_store_len()});
  rt::Store vals_t = rt.create_store(rt::DType::F64, {nnz_store_len()});
  TaskLauncher launch(rt, "csr_to_csc");
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  int op = launch.add_output(pos_t);
  int oc = launch.add_output(crd_t);
  int ov = launch.add_output(vals_t);
  launch.require_colors(1);
  coord_t rows = rows_, cols = cols_;
  bool e = empty_;
  launch.set_leaf([=](TaskContext& ctx) {
    auto t = transpose_host(rows, cols, ctx.full<Rect1>(ip), ctx.full<coord_t>(ic),
                            ctx.full<double>(iv), e);
    std::copy(t.pos.begin(), t.pos.end(), ctx.full<Rect1>(op).begin());
    std::copy(t.crd.begin(), t.crd.end(), ctx.full<coord_t>(oc).begin());
    std::copy(t.vals.begin(), t.vals.end(), ctx.full<double>(ov).begin());
  });
  // Three passes over the data: count, scan, scatter. The transposed crd
  // holds max(nnz, 1) entries, the length of this matrix's crd store.
  const double nnzs = static_cast<double>(nnz_store_len());
  launch.set_cost([=](const TaskContext&) {
    return rt::TaskCost{nnzs * 3.0 * 16.0 + static_cast<double>(rows + cols) * 16.0, nnzs};
  });
  launch.execute();
  return CscMatrix(rt, rows_, cols_, pos_t, crd_t, vals_t);
}

CsrMatrix CsrMatrix::transpose() const {
  // Aᵀ in CSR has the same arrays as A in CSC.
  CscMatrix csc = tocsc();
  CsrMatrix out(*rt_, cols_, rows_, csc.pos(), csc.crd(), csc.vals());
  out.empty_ = empty_;
  return out;
}

// ---------------------------------------------------------------------------
// CSR -> DIA (offset scan + distributed fill)
// ---------------------------------------------------------------------------

DiaMatrix CsrMatrix::todia() const {
  rt::Runtime& rt = *rt_;
  // Offsets are small metadata, computed eagerly like SciPy does.
  std::set<coord_t> offsets_set;
  if (!empty_) {
    auto pv = pos_.span<Rect1>();
    auto cv = crd_.span<coord_t>();
    for (coord_t i = 0; i < rows_; ++i)
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) offsets_set.insert(cv[j] - i);
  }
  std::vector<coord_t> offsets(offsets_set.begin(), offsets_set.end());
  coord_t ndiag = std::max<coord_t>(static_cast<coord_t>(offsets.size()), 1);
  rt::Store data = rt.create_store(rt::DType::F64, {rows_, ndiag});
  DArray(rt, data).fill(0.0);

  if (!offsets.empty()) {
    TaskLauncher launch(rt, "csr_to_dia_fill");
    int id = launch.add_inout(data);
    int ip = launch.add_input(pos_);
    int ic = launch.add_input(crd_);
    int iv = launch.add_input(vals_);
    launch.align(id, ip);
    launch.image_rects(ip, ic);
    launch.image_rects(ip, iv);
    auto offs = offsets;  // captured by value
    launch.set_leaf([=](TaskContext& ctx) {
      auto dv = ctx.full<double>(id);
      auto pv = ctx.full<Rect1>(ip);
      auto cv = ctx.full<coord_t>(ic);
      auto vv = ctx.full<double>(iv);
      Interval rows = ctx.interval(ip);
      for (coord_t i = rows.lo; i < rows.hi; ++i) {
        for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
          coord_t off = cv[j] - i;
          auto it = std::lower_bound(offs.begin(), offs.end(), off);
          coord_t d = static_cast<coord_t>(it - offs.begin());
          dv[i * ndiag + d] = vv[j];
        }
      }
    });
    launch.set_cost([=](const TaskContext& ctx) {
      return rt::TaskCost{ctx.count(ic) * 32.0, ctx.count(ic) * 8.0};
    });
    launch.execute();
  }
  return DiaMatrix(rt, rows_, cols_, offsets, data);
}

// ---------------------------------------------------------------------------
// CSR -> dense (distributed)
// ---------------------------------------------------------------------------

DArray CsrMatrix::todense() const {
  rt::Runtime& rt = *rt_;
  DArray out = DArray::zeros2d(rt, rows_, cols_);
  TaskLauncher launch(rt, "csr_to_dense");
  int id = launch.add_inout(out.store());
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  launch.align(id, ip);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  coord_t cols = cols_;
  bool e = empty_;
  launch.set_leaf([=](TaskContext& ctx) {
    auto dv = ctx.full<double>(id);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi && !e; ++i) {
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) dv[i * cols + cv[j]] += vv[j];
    }
  });
  launch.set_cost([=](const TaskContext& ctx) { return rt::TaskCost{ctx.count(ic) * 32.0, ctx.count(ic)}; });
  launch.execute();
  return out;
}

// ---------------------------------------------------------------------------
// Row slice (assembly-time, like SciPy's A[lo:hi])
// ---------------------------------------------------------------------------

CsrMatrix CsrMatrix::row_slice(coord_t lo, coord_t hi) const {
  if (lo < 0 || lo > rows_)
    throw IndexError("row_slice: start " + std::to_string(lo) +
                         " out of range [0, " + std::to_string(rows_) + "]",
                     "row", lo, rows_);
  if (hi < lo || hi > rows_)
    throw IndexError("row_slice: stop " + std::to_string(hi) +
                         " out of range [" + std::to_string(lo) + ", " +
                         std::to_string(rows_) + "]",
                     "row", hi, rows_);
  std::vector<coord_t> indptr, indices;
  std::vector<double> values;
  indptr.push_back(0);
  auto pv = pos_.span<Rect1>();
  auto cv = crd_.span<coord_t>();
  auto vv = vals_.span<double>();
  for (coord_t i = lo; i < hi; ++i) {
    if (!empty_) {
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
        indices.push_back(cv[j]);
        values.push_back(vv[j]);
      }
    }
    indptr.push_back(static_cast<coord_t>(indices.size()));
  }
  return from_host(*rt_, hi - lo, cols_, indptr, indices, values);
}

// ---------------------------------------------------------------------------
// COO
// ---------------------------------------------------------------------------

CooMatrix CooMatrix::from_host(rt::Runtime& rt, coord_t rows, coord_t cols,
                               const std::vector<coord_t>& row,
                               const std::vector<coord_t>& col,
                               const std::vector<double>& vals) {
  LSR_CHECK(row.size() == col.size() && col.size() == vals.size());
  LSR_CHECK_MSG(!row.empty(), "empty COO matrices unsupported; use CsrMatrix");
  return CooMatrix(rt, rows, cols, rt.attach(row), rt.attach(col), rt.attach(vals));
}

CsrMatrix CooMatrix::tocsr() const {
  rt::Runtime& rt = *rt_;
  // Hand-written sort + duplicate sum (Section 5.3), sequential with honest
  // sort cost: nnz log nnz comparisons over 24-byte triples.
  coord_t n = nnz();
  std::vector<std::size_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0u);
  auto rv = row_.span<coord_t>();
  auto cv = col_.span<coord_t>();
  auto vv = vals_.span<double>();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(rv[a], cv[a]) < std::tie(rv[b], cv[b]);
  });
  std::vector<coord_t> indptr(static_cast<std::size_t>(rows_) + 1, 0), indices;
  std::vector<double> values;
  coord_t prev_r = -1, prev_c = -1;
  for (std::size_t k = 0; k < order.size(); ++k) {
    coord_t r = rv[order[k]], c = cv[order[k]];
    double v = vv[order[k]];
    if (r == prev_r && c == prev_c) {
      values.back() += v;  // duplicate coordinate: sum (SciPy semantics)
    } else {
      indices.push_back(c);
      values.push_back(v);
      prev_r = r;
      prev_c = c;
    }
    indptr[static_cast<std::size_t>(r) + 1] = static_cast<coord_t>(indices.size());
  }
  // Fill gaps for empty rows (indptr must be monotone).
  for (std::size_t i = 1; i < indptr.size(); ++i)
    indptr[i] = std::max(indptr[i], indptr[i - 1]);

  // Charge the sort to the simulated machine as a sequential task.
  rt::TaskLauncher launch(rt, "coo_sort");
  int ir = launch.add_input(row_);
  launch.require_colors(1);
  launch.set_leaf([](rt::TaskContext&) {});
  launch.set_cost([=](const rt::TaskContext& ctx) {
    const double nn = ctx.count(ir);
    return rt::TaskCost{nn * 24.0 * std::max(1.0, std::log2(nn)),
                        nn * std::max(1.0, std::log2(nn))};
  });
  launch.execute();

  return CsrMatrix::from_host(rt, rows_, cols_, indptr, indices, values);
}

CooMatrix CooMatrix::transpose() const {
  return CooMatrix(*rt_, cols_, rows_, col_, row_, vals_);
}

DArray CooMatrix::spmv(const DArray& x) const {
  LSR_CHECK_MSG(x.size() == cols_, "coo spmv dimension mismatch");
  rt::Runtime& rt = *rt_;
  DArray y(rt, rt.create_store(rt::DType::F64, {rows_}));
  TaskLauncher launch(rt, "coo_spmv");
  int iy = launch.add_reduction(y.store());
  int ir = launch.add_input(row_);
  int ic = launch.add_input(col_);
  int iv = launch.add_input(vals_);
  int ix = launch.add_input(x.store());
  launch.align(ir, ic);
  launch.align(ir, iv);
  launch.image_points(ic, ix);
  launch.set_leaf([=](TaskContext& ctx) {
    auto yv = ctx.full<double>(iy);
    auto rv = ctx.full<coord_t>(ir);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    auto xv = ctx.full<double>(ix);
    Interval ent = ctx.elem_interval(ir);
    for (coord_t j = ent.lo; j < ent.hi; ++j) yv[rv[j]] += vv[j] * xv[cv[j]];
  });
  launch.set_cost(rt::per_element(ir, 40.0, 2.0));
  launch.execute();
  return y;
}

// ---------------------------------------------------------------------------
// CSC
// ---------------------------------------------------------------------------

CsrMatrix CscMatrix::transpose_as_csr() const {
  return CsrMatrix(*rt_, cols_, rows_, pos_, crd_, vals_);
}

CsrMatrix CscMatrix::tocsr() const { return transpose_as_csr().transpose(); }

DArray CscMatrix::spmv(const DArray& x) const {
  LSR_CHECK_MSG(x.size() == cols_, "csc spmv dimension mismatch");
  rt::Runtime& rt = *rt_;
  DArray y(rt, rt.create_store(rt::DType::F64, {rows_}));
  TaskLauncher launch(rt, "csc_spmv");
  int iy = launch.add_reduction(y.store());
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  int ix = launch.add_input(x.store());
  launch.align(ip, ix);  // both indexed by column
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  launch.set_leaf([=](TaskContext& ctx) {
    auto yv = ctx.full<double>(iy);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    auto xv = ctx.full<double>(ix);
    Interval cols = ctx.interval(ip);
    for (coord_t c = cols.lo; c < cols.hi; ++c) {
      double xc = xv[c];
      for (coord_t j = pv[c].lo; j <= pv[c].hi; ++j) yv[cv[j]] += vv[j] * xc;
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double work = ctx.count(ic);
    return rt::TaskCost{work * 32.0 + ctx.count(ip) * 24.0, 2.0 * work};
  });
  launch.execute();
  return y;
}

// ---------------------------------------------------------------------------
// DIA
// ---------------------------------------------------------------------------

DArray DiaMatrix::spmv(const DArray& x) const {
  LSR_CHECK_MSG(x.size() == cols_, "dia spmv dimension mismatch");
  rt::Runtime& rt = *rt_;
  DArray y(rt, rt.create_store(rt::DType::F64, {rows_}));
  coord_t ndiag = data_.shape()[1];
  coord_t min_off = 0, max_off = 0;
  for (coord_t o : offsets_) {
    min_off = std::min(min_off, o);
    max_off = std::max(max_off, o);
  }
  TaskLauncher launch(rt, "dia_spmv");
  int iy = launch.add_output(y.store());
  int id = launch.add_input(data_);
  int ix = launch.add_input(x.store());
  launch.align(iy, id);
  launch.halo(iy, ix, min_off, max_off);
  auto offs = offsets_;
  coord_t cols = cols_;
  launch.set_leaf([=](TaskContext& ctx) {
    auto yv = ctx.full<double>(iy);
    auto dv = ctx.full<double>(id);
    auto xv = ctx.full<double>(ix);
    Interval rows = ctx.interval(iy);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      double acc = 0;
      for (std::size_t d = 0; d < offs.size(); ++d) {
        coord_t j = i + offs[d];
        if (j >= 0 && j < cols) acc += dv[i * ndiag + static_cast<coord_t>(d)] * xv[j];
      }
      yv[i] = acc;
    }
  });
  const double ndiags = static_cast<double>(offs.size());
  launch.set_cost([=](const TaskContext& ctx) {
    const double work = ctx.count(iy) * ndiags;
    return rt::TaskCost{work * 16.0 + ctx.count(iy) * 8.0, 2.0 * work};
  });
  launch.execute();
  return y;
}

CsrMatrix DiaMatrix::tocsr() const {
  rt::Runtime& rt = *rt_;
  // Counts per row are closed-form; emit all in-band entries like SciPy.
  std::vector<coord_t> indptr(static_cast<std::size_t>(rows_) + 1, 0), indices;
  std::vector<double> values;
  auto dv = data_.span<double>();
  coord_t ndiag = data_.shape()[1];
  std::vector<coord_t> sorted = offsets_;
  std::sort(sorted.begin(), sorted.end());
  for (coord_t i = 0; i < rows_; ++i) {
    for (coord_t off : sorted) {
      coord_t j = i + off;
      if (j < 0 || j >= cols_) continue;
      auto it = std::lower_bound(offsets_.begin(), offsets_.end(), off);
      coord_t d = static_cast<coord_t>(it - offsets_.begin());
      indices.push_back(j);
      values.push_back(dv[i * ndiag + d]);
    }
    indptr[static_cast<std::size_t>(i) + 1] = static_cast<coord_t>(indices.size());
  }
  return CsrMatrix::from_host(rt, rows_, cols_, indptr, indices, values);
}

}  // namespace legate::sparse
