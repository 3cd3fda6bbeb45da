#include "sparse/csr.h"

#include <algorithm>
#include <cmath>

#include "sparse/formats.h"

namespace legate::sparse {

using dense::DArray;
using dense::Scalar;
using rt::Rect1;
using rt::TaskContext;
using rt::TaskLauncher;

CsrMatrix CsrMatrix::from_host(rt::Runtime& rt, coord_t rows, coord_t cols,
                               const std::vector<coord_t>& indptr,
                               const std::vector<coord_t>& indices,
                               const std::vector<double>& values) {
  LSR_CHECK(static_cast<coord_t>(indptr.size()) == rows + 1);
  LSR_CHECK(indices.size() == values.size());
  rt::Store pos = rt.create_store(rt::DType::Rect1, {rows});
  auto pv = pos.span<Rect1>();
  for (coord_t i = 0; i < rows; ++i) {
    pv[i] = Rect1{indptr[static_cast<std::size_t>(i)],
                  indptr[static_cast<std::size_t>(i) + 1] - 1};
  }
  rt.mark_attached(pos);
  // Keep stores non-empty so partitioning logic stays uniform.
  rt::Store crd, vals;
  if (indices.empty()) {
    crd = rt.create_store(rt::DType::I64, {1});
    crd.span<coord_t>()[0] = 0;
    rt.mark_attached(crd);
    vals = rt.create_store(rt::DType::F64, {1});
    vals.span<double>()[0] = 0;
    rt.mark_attached(vals);
    // pos rects are all empty, so the placeholder entry is never read; but
    // nnz() must report 0, so remember emptiness via an empty-shaped wrapper.
    CsrMatrix m(rt, rows, cols, pos, crd, vals);
    m.empty_ = true;
    return m;
  }
  crd = rt.attach(indices);
  vals = rt.attach(values);
  return CsrMatrix(rt, rows, cols, std::move(pos), std::move(crd), std::move(vals));
}

void CsrMatrix::validate() const {
  if (rt_ == nullptr) return;
  if (pos_.volume() != rows_) {
    throw FormatError("pos store has " + std::to_string(pos_.volume()) +
                          " rows but the matrix has " + std::to_string(rows_),
                      "pos", pos_.volume());
  }
  if (crd_.volume() != vals_.volume()) {
    throw FormatError("crd holds " + std::to_string(crd_.volume()) +
                          " entries but vals holds " + std::to_string(vals_.volume()),
                      "vals", vals_.volume());
  }
  auto pv = pos_.span<Rect1>();
  auto cv = crd_.span<coord_t>();
  auto vv = vals_.span<double>();
  const coord_t len = nnz_store_len();
  coord_t prev_hi = -1;
  for (coord_t i = 0; i < rows_; ++i) {
    const Rect1& r = pv[static_cast<std::size_t>(i)];
    if (r.empty()) continue;
    if (r.lo < 0 || r.hi >= len) {
      throw FormatError("pos rect [" + std::to_string(r.lo) + ", " +
                            std::to_string(r.hi) + "] of row " + std::to_string(i) +
                            " exceeds the " + std::to_string(len) + "-entry crd store",
                        "pos", i);
    }
    if (r.lo <= prev_hi) {
      throw FormatError("pos rows are non-monotone at row " + std::to_string(i) +
                            " (rect starts at " + std::to_string(r.lo) +
                            ", previous row ended at " + std::to_string(prev_hi) + ")",
                        "pos", i);
    }
    prev_hi = r.hi;
    coord_t prev_col = -1;
    for (coord_t j = r.lo; j <= r.hi; ++j) {
      coord_t c = cv[static_cast<std::size_t>(j)];
      if (c < 0 || c >= cols_) {
        throw FormatError("column coordinate " + std::to_string(c) + " at entry " +
                              std::to_string(j) + " outside [0, " +
                              std::to_string(cols_) + ")",
                          "crd", j);
      }
      // Silent corruption of crd often surfaces as a swapped/garbage index:
      // columns within a row must be strictly increasing (the canonical CSR
      // order every kernel here assumes).
      if (c <= prev_col) {
        throw FormatError("column coordinates out of order in row " +
                              std::to_string(i) + " (column " + std::to_string(c) +
                              " at entry " + std::to_string(j) +
                              " follows column " + std::to_string(prev_col) + ")",
                          "crd", i);
      }
      prev_col = c;
      // Bit flips in value bytes frequently surface as NaN/Inf first; reject
      // them at construction so corruption is pinpointed at the source.
      double v = vv[static_cast<std::size_t>(j)];
      if (!std::isfinite(v)) {
        throw FormatError("non-finite value " + std::to_string(v) + " in row " +
                              std::to_string(i) + " (entry " + std::to_string(j) + ")",
                          "vals", i);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Partitioning strategy (nnz-balanced row splits)
// ---------------------------------------------------------------------------

namespace {
/// Auto picks the balanced split once the equal split's per-color nnz
/// imbalance (max / mean) exceeds this ratio; uniform matrices sit at ~1.
constexpr double kAutoImbalanceThreshold = 1.5;
}  // namespace

const CsrMatrix::RowPartCache& CsrMatrix::row_part_cache() const {
  const int colors = static_cast<int>(
      std::min<coord_t>(rt_->default_colors(), std::max<coord_t>(1, rows_)));
  if (row_part_ && row_part_->colors == colors) return *row_part_;
  auto cache = std::make_shared<RowPartCache>();
  cache->colors = colors;
  if (colors > 1 && !empty_) {
    // One host scan of pos (a fence point), amortized across every kernel
    // launch of this matrix and its value-sharing derivatives.
    auto pv = pos_.span<Rect1>();
    std::vector<coord_t> weights(static_cast<std::size_t>(rows_));
    coord_t total = 0;
    for (coord_t i = 0; i < rows_; ++i) {
      weights[static_cast<std::size_t>(i)] = pv[static_cast<std::size_t>(i)].size();
      total += weights[static_cast<std::size_t>(i)];
    }
    if (total > 0) {
      coord_t max_color_nnz = 0;
      const auto eq = rt::Partition::equal(rows_, colors);
      for (const Interval& iv : eq->subs()) {
        coord_t w = 0;
        for (coord_t i = iv.lo; i < iv.hi; ++i) {
          w += weights[static_cast<std::size_t>(i)];
        }
        max_color_nnz = std::max(max_color_nnz, w);
      }
      cache->imbalance_ratio = static_cast<double>(max_color_nnz) *
                               static_cast<double>(colors) /
                               static_cast<double>(total);
      cache->balanced = rt::Partition::balanced(weights, colors);
    }
  }
  row_part_ = std::move(cache);
  return *row_part_;
}

double CsrMatrix::row_imbalance_ratio() const {
  return row_part_cache().imbalance_ratio;
}

rt::PartitionStrategy CsrMatrix::partition_strategy() const {
  rt::PartitionStrategy s = part_strategy_ != rt::PartitionStrategy::Unset
                                ? part_strategy_
                                : rt_->partition_strategy();
  if (s == rt::PartitionStrategy::Auto) {
    s = (!empty_ && row_imbalance_ratio() > kAutoImbalanceThreshold)
            ? rt::PartitionStrategy::Nnz
            : rt::PartitionStrategy::Rows;
  }
  return s == rt::PartitionStrategy::Nnz ? rt::PartitionStrategy::Nnz
                                         : rt::PartitionStrategy::Rows;
}

rt::PartitionRef CsrMatrix::balanced_row_partition() const {
  if (partition_strategy() != rt::PartitionStrategy::Nnz) return nullptr;
  // Null for empty/single-color matrices: the equal split is already right.
  return row_part_cache().balanced;
}

void CsrMatrix::apply_row_strategy(rt::TaskLauncher& launch, int arg) const {
  if (auto part = balanced_row_partition()) {
    launch.set_partition(arg, std::move(part));
  }
}

// ---------------------------------------------------------------------------
// SpMV (DISTAL-generated structure; cf. Fig. 7 of the paper)
// ---------------------------------------------------------------------------

DArray CsrMatrix::spmv(const DArray& x) const {
  LSR_CHECK_MSG(x.size() == cols_, "spmv dimension mismatch");
  DArray y(*rt_, rt_->create_store(rt::DType::F64, {rows_}, rt::FirstWrite::Full));
  TaskLauncher launch(*rt_, "csr_spmv");
  int iy = launch.add_output(y.store());
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  int ix = launch.add_input(x.store());
  launch.align(iy, ip);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  launch.image_points(ic, ix);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto yv = ctx.full<double>(iy);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    auto xv = ctx.full<double>(ix);
    Interval rows = ctx.elem_interval(iy);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      double acc = 0;
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) acc += vv[j] * xv[cv[j]];
      yv[i] = acc;
    }
  });
  // A point's nonzeros are its crd image (pos rows are contiguous). Global-CSR
  // pieces are rebased into a local matrix before the cuSPARSE-style call
  // (Section 3): the reshape term.
  launch.set_cost([=](const TaskContext& ctx) {
    const double rows = ctx.count(iy), local_nnz = ctx.count(ic);
    return rt::TaskCost{rows * 24.0 + local_nnz * 16.0 + ctx.count(ix) * 8.0,
                        2.0 * local_nnz, 1.0, local_nnz * 8.0 + rows * 16.0};
  });
  launch.execute();
  return y;
}

// ---------------------------------------------------------------------------
// SpMM: C[m,k] = A @ B, B dense (row gather through the crd image)
// ---------------------------------------------------------------------------

DArray CsrMatrix::spmm(const DArray& b) const {
  LSR_CHECK_MSG(b.dim() == 2 && b.rows() == cols_, "spmm dimension mismatch");
  coord_t k = b.cols();
  DArray c(*rt_, rt_->create_store(rt::DType::F64, {rows_, k}));
  TaskLauncher launch(*rt_, "csr_spmm");
  int ic_out = launch.add_output(c.store());
  int ip = launch.add_input(pos_);
  int icrd = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  int ib = launch.add_input(b.store());
  launch.align(ic_out, ip);
  launch.image_rects(ip, icrd);
  launch.image_rects(ip, iv);
  launch.image_points(icrd, ib);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto C = ctx.full<double>(ic_out);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(icrd);
    auto vv = ctx.full<double>(iv);
    auto B = ctx.full<double>(ib);
    Interval rows = ctx.interval(ic_out);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      for (coord_t col = 0; col < k; ++col) C[i * k + col] = 0;
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
        double a = vv[j];
        coord_t brow = cv[j];
        for (coord_t col = 0; col < k; ++col) C[i * k + col] += a * B[brow * k + col];
      }
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double local_nnz = ctx.count(icrd);
    const double touched_b = static_cast<double>(ctx.elem_interval(ib).size());
    return rt::TaskCost{ctx.count(ic_out) * (16.0 + 8.0 * k) + local_nnz * 16.0 + touched_b * 8.0,
                        2.0 * local_nnz * static_cast<double>(k), 1.0, local_nnz * 8.0};
  });
  launch.execute();
  return c;
}

// ---------------------------------------------------------------------------
// SDDMM: out = A ⊙ (B @ C) — the factorization kernel (Section 6.2)
// ---------------------------------------------------------------------------

CsrMatrix CsrMatrix::sddmm(const DArray& b, const DArray& c) const {
  LSR_CHECK_MSG(b.dim() == 2 && c.dim() == 2, "sddmm needs 2-D operands");
  LSR_CHECK_MSG(b.rows() == rows_ && c.cols() == cols_ && b.cols() == c.rows(),
                "sddmm dimension mismatch");
  coord_t k = b.cols(), n = c.cols();
  rt::Store out_vals = rt_->create_store(rt::DType::F64, {nnz_store_len()});
  TaskLauncher launch(*rt_, "csr_sddmm");
  int io = launch.add_output(out_vals);
  int ip = launch.add_input(pos_);
  int icrd = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  int ib = launch.add_input(b.store());
  int icd = launch.add_input(c.store());
  launch.align(ip, ib);
  launch.image_rects(ip, icrd);
  launch.image_rects(ip, iv);
  launch.image_rects(ip, io);
  launch.broadcast(icd);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto O = ctx.full<double>(io);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(icrd);
    auto vv = ctx.full<double>(iv);
    auto B = ctx.full<double>(ib);
    auto C = ctx.full<double>(icd);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
        coord_t col = cv[j];
        double acc = 0;
        for (coord_t l = 0; l < k; ++l) acc += B[i * k + l] * C[l * n + col];
        O[j] = vv[j] * acc;
      }
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double local_nnz = ctx.count(icrd);
    return rt::TaskCost{local_nnz * (24.0 + 8.0 * static_cast<double>(k)) +
                            ctx.count(ip) * (16.0 + 8.0 * k),
                        2.0 * local_nnz * static_cast<double>(k)};
  });
  launch.execute();
  return with_vals(out_vals);
}

// ---------------------------------------------------------------------------
// Value-space operations (the "ported to NumPy ops" group, Section 5.2):
// non-zero-preserving unary/scaling operations reuse the dense library on
// the vals store, sharing pos/crd with this matrix.
// ---------------------------------------------------------------------------

CsrMatrix CsrMatrix::with_vals(rt::Store vals) const {
  CsrMatrix r(*rt_, rows_, cols_, pos_, crd_, std::move(vals));
  r.empty_ = empty_;
  // Same pos store, same row split: share the strategy override and the
  // cached balanced partition (a stable uid keeps image caches warm).
  r.part_strategy_ = part_strategy_;
  r.row_part_ = row_part_;
  return r;
}

CsrMatrix CsrMatrix::scale(Scalar a) const {
  return with_vals(DArray(*rt_, vals_).scale(a).store());
}

CsrMatrix CsrMatrix::abs_values() const {
  return with_vals(DArray(*rt_, vals_).abs().store());
}

CsrMatrix CsrMatrix::power_values(double p) const {
  DArray v(*rt_, vals_);
  // Reuse the dense task machinery with a custom unary body.
  rt::Store out = rt_->create_store(rt::DType::F64, {vals_.volume()});
  TaskLauncher launch(*rt_, "csr_power");
  int ia = launch.add_input(vals_);
  int ic = launch.add_output(out);
  launch.align(ia, ic);
  launch.set_leaf([=](TaskContext& ctx) {
    auto x = ctx.full<double>(ia);
    auto y = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = std::pow(x[i], p);
  });
  launch.set_cost(rt::per_element(ic, 16.0, 10.0));
  launch.execute();
  return with_vals(out);
}

CsrMatrix CsrMatrix::copy() const {
  return with_vals(DArray(*rt_, vals_).copy().store());
}

CsrMatrix CsrMatrix::scale_rows(const DArray& d) const {
  LSR_CHECK_MSG(d.size() == rows_, "scale_rows dimension mismatch");
  rt::Store out = rt_->create_store(rt::DType::F64, {vals_.volume()});
  TaskLauncher launch(*rt_, "csr_scale_rows");
  int ip = launch.add_input(pos_);
  int id = launch.add_input(d.store());
  int iv = launch.add_input(vals_);
  int io = launch.add_output(out);
  launch.align(ip, id);
  launch.image_rects(ip, iv);
  launch.image_rects(ip, io);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto pv = ctx.full<Rect1>(ip);
    auto dv = ctx.full<double>(id);
    auto vv = ctx.full<double>(iv);
    auto ov = ctx.full<double>(io);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) ov[j] = vv[j] * dv[i];
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double local_nnz = ctx.count(iv);
    return rt::TaskCost{local_nnz * 24.0 + ctx.count(ip) * 24.0, local_nnz};
  });
  launch.execute();
  return with_vals(out);
}

CsrMatrix CsrMatrix::scale_cols(const DArray& d) const {
  LSR_CHECK_MSG(d.size() == cols_, "scale_cols dimension mismatch");
  rt::Store out = rt_->create_store(rt::DType::F64, {vals_.volume()});
  TaskLauncher launch(*rt_, "csr_scale_cols");
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int id = launch.add_input(d.store());
  int iv = launch.add_input(vals_);
  int io = launch.add_output(out);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  launch.image_rects(ip, io);
  launch.image_points(ic, id);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto dv = ctx.full<double>(id);
    auto vv = ctx.full<double>(iv);
    auto ov = ctx.full<double>(io);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) ov[j] = vv[j] * dv[cv[j]];
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double local_nnz = ctx.count(ic);
    return rt::TaskCost{local_nnz * 32.0 + ctx.count(ip) * 16.0, local_nnz};
  });
  launch.execute();
  return with_vals(out);
}

// ---------------------------------------------------------------------------
// Reductions & extraction
// ---------------------------------------------------------------------------

DArray CsrMatrix::diagonal() const {
  coord_t n = std::min(rows_, cols_);
  DArray d(*rt_, rt_->create_store(rt::DType::F64, {rows_}));
  TaskLauncher launch(*rt_, "csr_diagonal");
  int id = launch.add_output(d.store());
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  launch.align(id, ip);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto dv = ctx.full<double>(id);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      double diag = 0;
      if (i < n) {
        for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
          if (cv[j] == i) diag += vv[j];
        }
      }
      dv[i] = diag;
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double local_nnz = ctx.count(ic);
    return rt::TaskCost{local_nnz * 16.0 + ctx.count(ip) * 24.0, local_nnz};
  });
  launch.execute();
  return d;
}

DArray CsrMatrix::row_nnz() const {
  DArray d(*rt_, rt_->create_store(rt::DType::F64, {rows_}));
  TaskLauncher launch(*rt_, "csr_row_nnz");
  int id = launch.add_output(d.store());
  int ip = launch.add_input(pos_);
  launch.align(id, ip);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto dv = ctx.full<double>(id);
    auto pv = ctx.full<Rect1>(ip);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i)
      dv[i] = static_cast<double>(pv[i].size());
  });
  launch.set_cost(rt::per_element(ip, 24.0, 0));
  launch.execute();
  return d;
}

DArray CsrMatrix::sum(int axis) const {
  LSR_CHECK_MSG(axis == 0 || axis == 1, "axis must be 0 or 1");
  if (axis == 1) {
    // Row sums: aligned row-split.
    DArray d(*rt_, rt_->create_store(rt::DType::F64, {rows_}));
    TaskLauncher launch(*rt_, "csr_row_sum");
    int id = launch.add_output(d.store());
    int ip = launch.add_input(pos_);
    int iv = launch.add_input(vals_);
    launch.align(id, ip);
    launch.image_rects(ip, iv);
    apply_row_strategy(launch, ip);
    launch.set_leaf([=](TaskContext& ctx) {
      auto dv = ctx.full<double>(id);
      auto pv = ctx.full<Rect1>(ip);
      auto vv = ctx.full<double>(iv);
      Interval rows = ctx.interval(ip);
      for (coord_t i = rows.lo; i < rows.hi; ++i) {
        double acc = 0;
        for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) acc += vv[j];
        dv[i] = acc;
      }
    });
    launch.set_cost([=](const TaskContext& ctx) {
      const double local_nnz = ctx.count(iv);
      return rt::TaskCost{local_nnz * 8.0 + ctx.count(ip) * 24.0, local_nnz};
    });
    launch.execute();
    return d;
  }
  // Column sums: scatter partials, combined by a store reduction.
  DArray d(*rt_, rt_->create_store(rt::DType::F64, {cols_}));
  TaskLauncher launch(*rt_, "csr_col_sum");
  int id = launch.add_reduction(d.store());
  int ip = launch.add_input(pos_);
  int ic = launch.add_input(crd_);
  int iv = launch.add_input(vals_);
  launch.image_rects(ip, ic);
  launch.image_rects(ip, iv);
  apply_row_strategy(launch, ip);
  launch.set_leaf([=](TaskContext& ctx) {
    auto dv = ctx.full<double>(id);
    auto pv = ctx.full<Rect1>(ip);
    auto cv = ctx.full<coord_t>(ic);
    auto vv = ctx.full<double>(iv);
    Interval rows = ctx.interval(ip);
    for (coord_t i = rows.lo; i < rows.hi; ++i) {
      for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) dv[cv[j]] += vv[j];
    }
  });
  launch.set_cost([=](const TaskContext& ctx) {
    const double local_nnz = ctx.count(ic);
    return rt::TaskCost{local_nnz * 24.0 + ctx.count(ip) * 16.0, local_nnz};
  });
  launch.execute();
  return d;
}

Scalar CsrMatrix::sum_all() const {
  // Never reduce over the 1-element placeholder vals store of an empty
  // matrix — its contents are not data (see norm_fro()).
  if (nnz() == 0) return {0.0, 0.0};
  return DArray(*rt_, vals_).sum();
}

const DArray& CsrMatrix::check_row() const {
  if (!check_row_) check_row_ = std::make_shared<DArray>(sum(0));
  return *check_row_;
}

const DArray& CsrMatrix::abs_check_row() const {
  if (!abs_check_row_) abs_check_row_ = std::make_shared<DArray>(abs_values().sum(0));
  return *abs_check_row_;
}

void CsrMatrix::to_host(std::vector<coord_t>& indptr, std::vector<coord_t>& indices,
                        std::vector<double>& values) const {
  auto pv = pos_.span<Rect1>();
  indptr.assign(static_cast<std::size_t>(rows_) + 1, 0);
  indices.clear();
  values.clear();
  if (empty_) return;
  auto cv = crd_.span<coord_t>();
  auto vv = vals_.span<double>();
  for (coord_t i = 0; i < rows_; ++i) {
    for (coord_t j = pv[i].lo; j <= pv[i].hi; ++j) {
      indices.push_back(cv[j]);
      values.push_back(vv[j]);
    }
    indptr[static_cast<std::size_t>(i) + 1] = static_cast<coord_t>(indices.size());
  }
}

}  // namespace legate::sparse
