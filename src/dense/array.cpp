#include "dense/array.h"

#include <cmath>
#include <cstring>

namespace legate::dense {

namespace {

/// Hash-based per-element random value so results are independent of the
/// partitioning (important: distributed and sequential runs must agree).
double hashed_uniform(std::uint64_t seed, coord_t i) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

DArray DArray::zeros(rt::Runtime& rt, coord_t n) {
  DArray a(rt, rt.create_store(rt::DType::F64, {n}));
  a.fill(0.0);
  return a;
}

DArray DArray::zeros2d(rt::Runtime& rt, coord_t m, coord_t n) {
  DArray a(rt, rt.create_store(rt::DType::F64, {m, n}));
  a.fill(0.0);
  return a;
}

DArray DArray::full(rt::Runtime& rt, coord_t n, double v) {
  DArray a(rt, rt.create_store(rt::DType::F64, {n}));
  a.fill(v);
  return a;
}

DArray DArray::arange(rt::Runtime& rt, coord_t n) {
  DArray a(rt, rt.create_store(rt::DType::F64, {n}));
  rt::TaskLauncher launch(rt, "arange");
  int out = launch.add_output(a.store_);
  launch.set_leaf([out](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = static_cast<double>(i);
  });
  launch.set_cost(rt::per_element(out, 8.0, 0));
  launch.execute();
  return a;
}

DArray DArray::random(rt::Runtime& rt, coord_t n, std::uint64_t seed) {
  DArray a(rt, rt.create_store(rt::DType::F64, {n}));
  rt::TaskLauncher launch(rt, "random");
  int out = launch.add_output(a.store_);
  launch.set_leaf([out, seed](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = hashed_uniform(seed, i);
  });
  launch.set_cost(rt::per_element(out, 8.0, 10.0));
  launch.execute();
  return a;
}

DArray DArray::random2d(rt::Runtime& rt, coord_t m, coord_t n, std::uint64_t seed) {
  DArray a(rt, rt.create_store(rt::DType::F64, {m, n}));
  rt::TaskLauncher launch(rt, "random2d");
  int out = launch.add_output(a.store_);
  launch.set_leaf([out, seed](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(out);
    Interval iv = ctx.elem_interval(out);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = hashed_uniform(seed, i);
  });
  launch.set_cost(rt::per_element(out, 8.0, 10.0));
  launch.execute();
  return a;
}

DArray DArray::from_vector(rt::Runtime& rt, const std::vector<double>& v) {
  return DArray(rt, rt.attach(v));
}

// ---------------------------------------------------------------------------
// Elementwise helpers
// ---------------------------------------------------------------------------

DArray DArray::binary(const DArray& o, const char* name,
                      double (*op)(double, double)) const {
  LSR_CHECK_MSG(size() == o.size(), "shape mismatch");
  DArray r(*rt_, rt_->create_store(rt::DType::F64, store_.shape(), rt::FirstWrite::Full));
  rt::TaskLauncher launch(*rt_, name);
  int ia = launch.add_input(store_);
  int ib = launch.add_input(o.store_);
  int ic = launch.add_output(r.store_);
  launch.align(ia, ib);
  launch.align(ia, ic);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto a = ctx.full<double>(ia);
    auto b = ctx.full<double>(ib);
    auto c = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i) c[i] = op(a[i], b[i]);
  });
  launch.set_cost(rt::per_element(ic, 24.0, 1.0));
  launch.execute();
  return r;
}

void DArray::inplace_binary(const DArray& o, const char* name,
                            double (*op)(double, double)) {
  LSR_CHECK_MSG(size() == o.size(), "shape mismatch");
  rt::TaskLauncher launch(*rt_, name);
  int ia = launch.add_inout(store_);
  int ib = launch.add_input(o.store_);
  launch.align(ia, ib);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto a = ctx.full<double>(ia);
    auto b = ctx.full<double>(ib);
    Interval iv = ctx.elem_interval(ia);
    for (coord_t i = iv.lo; i < iv.hi; ++i) a[i] = op(a[i], b[i]);
  });
  launch.set_cost(rt::per_element(ia, 24.0, 1.0));
  launch.execute();
}

DArray DArray::unary(const char* name, double (*op)(double)) const {
  DArray r(*rt_, rt_->create_store(rt::DType::F64, store_.shape(), rt::FirstWrite::Full));
  rt::TaskLauncher launch(*rt_, name);
  int ia = launch.add_input(store_);
  int ic = launch.add_output(r.store_);
  launch.align(ia, ic);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto a = ctx.full<double>(ia);
    auto c = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i) c[i] = op(a[i]);
  });
  launch.set_cost(rt::per_element(ic, 16.0, 1.0));
  launch.execute();
  return r;
}

DArray DArray::add(const DArray& o) const {
  return binary(o, "add", [](double a, double b) { return a + b; });
}
DArray DArray::sub(const DArray& o) const {
  return binary(o, "sub", [](double a, double b) { return a - b; });
}
DArray DArray::mul(const DArray& o) const {
  return binary(o, "mul", [](double a, double b) { return a * b; });
}
DArray DArray::div(const DArray& o) const {
  return binary(o, "div", [](double a, double b) { return a / b; });
}
DArray DArray::maximum(const DArray& o) const {
  return binary(o, "maximum", [](double a, double b) { return a > b ? a : b; });
}
DArray DArray::minimum(const DArray& o) const {
  return binary(o, "minimum", [](double a, double b) { return a < b ? a : b; });
}
DArray DArray::abs() const {
  return unary("abs", [](double a) { return std::fabs(a); });
}
DArray DArray::sqrt() const {
  return unary("sqrt", [](double a) { return std::sqrt(a); });
}
DArray DArray::exp() const {
  return unary("exp", [](double a) { return std::exp(a); });
}
DArray DArray::log() const {
  return unary("log", [](double a) { return std::log(a); });
}
DArray DArray::neg() const {
  return unary("neg", [](double a) { return -a; });
}
DArray DArray::square() const {
  return unary("square", [](double a) { return a * a; });
}
DArray DArray::reciprocal() const {
  return unary("reciprocal", [](double a) { return 1.0 / a; });
}
DArray DArray::copy() const {
  return unary("copy", [](double a) { return a; });
}

DArray DArray::clip(double lo, double hi) const {
  DArray r(*rt_, rt_->create_store(rt::DType::F64, store_.shape(), rt::FirstWrite::Full));
  rt::TaskLauncher launch(*rt_, "clip");
  int ia = launch.add_input(store_);
  int ic = launch.add_output(r.store());
  launch.align(ia, ic);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto a = ctx.full<double>(ia);
    auto c = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i)
      c[i] = a[i] < lo ? lo : (a[i] > hi ? hi : a[i]);
  });
  launch.set_cost(rt::per_element(ic, 16.0, 1.0));
  launch.execute();
  return r;
}

DArray DArray::slice(coord_t lo, coord_t hi) const {
  LSR_CHECK_MSG(dim() == 1 && lo >= 0 && hi <= size() && lo <= hi,
                "invalid 1-D slice bounds");
  DArray r(*rt_, rt_->create_store(rt::DType::F64, {hi - lo}, rt::FirstWrite::Full));
  rt::TaskLauncher launch(*rt_, "slice");
  int ic = launch.add_output(r.store());
  int ia = launch.add_input(store_);
  // The input window tracks the output block shifted by `lo`.
  launch.halo(ic, ia, lo, lo);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto a = ctx.full<double>(ia);
    auto c = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i) c[i] = a[i + lo];
  });
  launch.set_cost(rt::per_element(ic, 16.0, 0));
  launch.execute();
  return r;
}

void DArray::iadd(const DArray& o) {
  inplace_binary(o, "iadd", [](double a, double b) { return a + b; });
}
void DArray::isub(const DArray& o) {
  inplace_binary(o, "isub", [](double a, double b) { return a - b; });
}
void DArray::imul(const DArray& o) {
  inplace_binary(o, "imul", [](double a, double b) { return a * b; });
}

DArray DArray::scale(Scalar a) const {
  DArray r(*rt_, rt_->create_store(rt::DType::F64, store_.shape(), rt::FirstWrite::Full));
  rt::TaskLauncher launch(*rt_, "scale");
  int ia = launch.add_input(store_);
  int ic = launch.add_output(r.store_);
  launch.align(ia, ic);
  launch.depend_on(a.ready, a.poisoned);
  double av = a.value;
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto x = ctx.full<double>(ia);
    auto y = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = av * x[i];
  });
  launch.set_cost(rt::per_element(ic, 16.0, 1.0));
  launch.execute();
  return r;
}

DArray DArray::add_scalar(Scalar a) const {
  DArray r(*rt_, rt_->create_store(rt::DType::F64, store_.shape(), rt::FirstWrite::Full));
  rt::TaskLauncher launch(*rt_, "add_scalar");
  int ia = launch.add_input(store_);
  int ic = launch.add_output(r.store_);
  launch.align(ia, ic);
  launch.depend_on(a.ready, a.poisoned);
  double av = a.value;
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto x = ctx.full<double>(ia);
    auto y = ctx.full<double>(ic);
    Interval iv = ctx.elem_interval(ic);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = x[i] + av;
  });
  launch.set_cost(rt::per_element(ic, 16.0, 1.0));
  launch.execute();
  return r;
}

void DArray::iscale(Scalar a) {
  rt::TaskLauncher launch(*rt_, "iscale");
  int ia = launch.add_inout(store_);
  launch.depend_on(a.ready, a.poisoned);
  double av = a.value;
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto x = ctx.full<double>(ia);
    Interval iv = ctx.elem_interval(ia);
    for (coord_t i = iv.lo; i < iv.hi; ++i) x[i] *= av;
  });
  launch.set_cost(rt::per_element(ia, 16.0, 1.0));
  launch.execute();
}

void DArray::axpy(Scalar a, const DArray& x) {
  LSR_CHECK_MSG(size() == x.size(), "shape mismatch");
  rt::TaskLauncher launch(*rt_, "axpy");
  int iy = launch.add_inout(store_);
  int ix = launch.add_input(x.store_);
  launch.align(iy, ix);
  launch.depend_on(a.ready, a.poisoned);
  double av = a.value;
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(iy);
    auto xs = ctx.full<double>(ix);
    Interval iv = ctx.elem_interval(iy);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] += av * xs[i];
  });
  launch.set_cost(rt::per_element(iy, 24.0, 2.0));
  launch.execute();
}

void DArray::xpay(Scalar a, const DArray& x) {
  LSR_CHECK_MSG(size() == x.size(), "shape mismatch");
  rt::TaskLauncher launch(*rt_, "xpay");
  int iy = launch.add_inout(store_);
  int ix = launch.add_input(x.store_);
  launch.align(iy, ix);
  launch.depend_on(a.ready, a.poisoned);
  double av = a.value;
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto y = ctx.full<double>(iy);
    auto xs = ctx.full<double>(ix);
    Interval iv = ctx.elem_interval(iy);
    for (coord_t i = iv.lo; i < iv.hi; ++i) y[i] = xs[i] + av * y[i];
  });
  launch.set_cost(rt::per_element(iy, 24.0, 2.0));
  launch.execute();
}

void DArray::fill(Scalar v) {
  rt::TaskLauncher launch(*rt_, "fill");
  int ia = launch.add_output(store_);
  launch.depend_on(v.ready, v.poisoned);
  double vv = v.value;
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto x = ctx.full<double>(ia);
    Interval iv = ctx.elem_interval(ia);
    for (coord_t i = iv.lo; i < iv.hi; ++i) x[i] = vv;
  });
  launch.set_cost(rt::per_element(ia, 8.0, 0));
  launch.execute();
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Scalar DArray::reduce(const char* name, rt::ScalarRedop rop, double init,
                      double (*fold)(double, double), const DArray* other) const {
  rt::TaskLauncher launch(*rt_, name);
  int ia = launch.add_input(store_);
  int ib = -1;
  if (other != nullptr) {
    ib = launch.add_input(other->store_);
    launch.align(ia, ib);
  }
  launch.reduce_scalar(rop);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto a = ctx.full<double>(ia);
    Interval iv = ctx.elem_interval(ia);
    double acc = init;
    if (ib >= 0) {
      auto b = ctx.full<double>(ib);
      for (coord_t i = iv.lo; i < iv.hi; ++i) acc = fold(acc, a[i] * b[i]);
    } else {
      for (coord_t i = iv.lo; i < iv.hi; ++i) acc = fold(acc, a[i]);
    }
    ctx.contribute(acc);
  });
  launch.set_cost(ib >= 0 ? rt::per_element(ia, 16.0, 2.0) : rt::per_element(ia, 8.0, 1.0));
  rt::Future f = launch.execute();
  return {f.value, f.ready, f.poisoned};
}

Scalar DArray::dot(const DArray& o) const {
  LSR_CHECK_MSG(size() == o.size(), "shape mismatch");
  return reduce("dot", rt::ScalarRedop::Sum, 0.0,
                [](double a, double b) { return a + b; }, &o);
}

Scalar DArray::norm() const {
  Scalar s = reduce("norm", rt::ScalarRedop::Sum, 0.0,
                    [](double a, double b) { return a + b; }, this);
  return {std::sqrt(s.value), s.ready, s.poisoned};
}

Scalar DArray::sum() const {
  return reduce("sum", rt::ScalarRedop::Sum, 0.0,
                [](double a, double b) { return a + b; }, nullptr);
}

Scalar DArray::max() const {
  return reduce("max", rt::ScalarRedop::Max,
                -std::numeric_limits<double>::infinity(),
                [](double a, double b) { return a > b ? a : b; }, nullptr);
}

Scalar DArray::min() const {
  return reduce("min", rt::ScalarRedop::Min,
                std::numeric_limits<double>::infinity(),
                [](double a, double b) { return a < b ? a : b; }, nullptr);
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

DArray DArray::matmul(const DArray& b) const {
  LSR_CHECK_MSG(dim() == 2 && b.dim() == 2 && cols() == b.rows(),
                "matmul shape mismatch");
  coord_t m = rows(), k = cols(), n = b.cols();
  DArray c(*rt_, rt_->create_store(rt::DType::F64, {m, n}));
  rt::TaskLauncher launch(*rt_, "matmul");
  int ia = launch.add_input(store_);
  int ibx = launch.add_input(b.store_);
  int ic = launch.add_output(c.store_);
  launch.align(ia, ic);
  launch.broadcast(ibx);
  launch.set_leaf([=](rt::TaskContext& ctx) {
    auto A = ctx.full<double>(ia);
    auto B = ctx.full<double>(ibx);
    auto C = ctx.full<double>(ic);
    Interval riv = ctx.interval(ic);  // row interval
    for (coord_t i = riv.lo; i < riv.hi; ++i) {
      for (coord_t j = 0; j < n; ++j) {
        double acc = 0;
        for (coord_t l = 0; l < k; ++l) acc += A[i * k + l] * B[l * n + j];
        C[i * n + j] = acc;
      }
    }
  });
  launch.set_cost([=](const rt::TaskContext& ctx) {
    const double rows_here = ctx.count(ic);
    return rt::TaskCost{rows_here * static_cast<double>(k + n) * 8.0 +
                            static_cast<double>(k) * static_cast<double>(n) * 8.0,
                        2.0 * rows_here * static_cast<double>(k) * static_cast<double>(n)};
  });
  launch.execute();
  return c;
}

DArray DArray::transpose() const {
  LSR_CHECK_MSG(dim() == 2, "transpose requires a 2-D array");
  coord_t m = rows(), n = cols();
  DArray t(*rt_, rt_->create_store(rt::DType::F64, {n, m}, rt::FirstWrite::Full));
  const rt::Store in = store_;
  const rt::Store out = t.store_;
  rt_->shuffle(in, out, [in, out, m, n]() {
    auto a = in.span<double>();
    auto b = out.span<double>();
    for (coord_t i = 0; i < m; ++i) {
      for (coord_t j = 0; j < n; ++j) b[j * m + i] = a[i * n + j];
    }
  });
  return t;
}

std::vector<double> DArray::to_vector() const {
  auto sp = store_.span<double>();
  return {sp.begin(), sp.end()};
}

}  // namespace legate::dense
