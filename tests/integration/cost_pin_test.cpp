// Cost pins: every library launch whose simulated cost comes from a leaf
// cost formula, run one operation at a time on a 4-GPU machine and on a
// 2-socket CPU machine, at 1 and 4 executor threads. Per operation the test
// pins the exact simulated-makespan delta, the number of point tasks charged
// and the last launch's per-point work gauges (lsr_part_max_work /
// lsr_part_mean_work). A cost formula that changes its arithmetic, its
// summation order or which points it charges moves at least one of them.
//
// The pins are exact doubles written as hex-float literals. A mismatch
// prints the observed row in table syntax.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "../sparse/oracle.h"
#include "solve/multigrid.h"
#include "sparse/formats.h"

namespace legate {
namespace {

using dense::DArray;
using sparse::CsrMatrix;

struct Pin {
  const char* op;
  double dt;        ///< simulated makespan delta of the operation
  double tasks;     ///< lsr_sim_tasks_total delta
  double max_work;  ///< lsr_part_max_work after the operation
  double mean_work; ///< lsr_part_mean_work after the operation
};

/// The operands every operation draws on, built once per runtime.
struct Operands {
  explicit Operands(rt::Runtime& rt)
      : A(sparse::testing::upload(rt, sparse::testing::random_host_csr(kN, kN, 0.02, 11))),
        B(sparse::testing::upload(rt, sparse::testing::random_host_csr(kN, kN, 0.02, 12))),
        x(DArray::random(rt, kN, 3)),
        y(DArray::random(rt, kN, 4)),
        X(DArray::random2d(rt, kN, kK, 5)),
        U(DArray::random2d(rt, kN, kK, 6)),
        Vt(DArray::random2d(rt, kK, kN, 7)),
        Dm(DArray::random2d(rt, 96, 80, 8)) {}

  static constexpr coord_t kN = 600;
  static constexpr coord_t kK = 8;
  CsrMatrix A, B;
  DArray x, y, X, U, Vt, Dm;
};

using Op = std::function<void(rt::Runtime&, Operands&)>;

const std::vector<std::pair<const char*, Op>>& ops() {
  static const std::vector<std::pair<const char*, Op>> kOps = {
      {"spmv", [](rt::Runtime&, Operands& o) { (void)o.A.spmv(o.x); }},
      {"spmm", [](rt::Runtime&, Operands& o) { (void)o.A.spmm(o.X); }},
      {"sddmm", [](rt::Runtime&, Operands& o) { (void)o.A.sddmm(o.U, o.Vt); }},
      {"spgemm", [](rt::Runtime&, Operands& o) { (void)o.A.spgemm(o.B); }},
      {"add", [](rt::Runtime&, Operands& o) { (void)o.A.add(o.B); }},
      {"sub", [](rt::Runtime&, Operands& o) { (void)o.A.sub(o.B); }},
      {"multiply", [](rt::Runtime&, Operands& o) { (void)o.A.multiply(o.B); }},
      {"prune", [](rt::Runtime&, Operands& o) { (void)o.A.prune(0.5); }},
      {"transpose", [](rt::Runtime&, Operands& o) { (void)o.A.transpose(); }},
      {"tocoo", [](rt::Runtime&, Operands& o) { (void)o.A.tocoo(); }},
      {"coo_tocsr", [](rt::Runtime&, Operands& o) { (void)o.A.tocoo().tocsr(); }},
      {"coo_spmv", [](rt::Runtime&, Operands& o) { (void)o.A.tocoo().spmv(o.x); }},
      {"csc_spmv", [](rt::Runtime&, Operands& o) { (void)o.A.tocsc().spmv(o.x); }},
      {"todia", [](rt::Runtime&, Operands& o) { (void)o.A.todia(); }},
      {"dia_spmv",
       [](rt::Runtime& rt, Operands& o) {
         (void)sparse::diags(rt, Operands::kN, {{-1, 1.0}, {0, -2.0}, {1, 1.0}}).todia().spmv(o.x);
       }},
      {"todense", [](rt::Runtime&, Operands& o) { (void)o.A.todense(); }},
      {"from_dense", [](rt::Runtime&, Operands& o) { (void)sparse::csr_from_dense(o.Dm); }},
      {"bsr_spmv",
       [](rt::Runtime&, Operands& o) { (void)sparse::BsrMatrix::from_csr(o.A, 4).spmv(o.x); }},
      {"scale_rows", [](rt::Runtime&, Operands& o) { (void)o.A.scale_rows(o.x); }},
      {"scale_cols", [](rt::Runtime&, Operands& o) { (void)o.A.scale_cols(o.y); }},
      {"power", [](rt::Runtime&, Operands& o) { (void)o.A.power_values(2.0); }},
      {"row_sum", [](rt::Runtime&, Operands& o) { (void)o.A.sum(1); }},
      {"col_sum", [](rt::Runtime&, Operands& o) { (void)o.A.sum(0); }},
      {"sum_all", [](rt::Runtime&, Operands& o) { (void)o.A.sum_all(); }},
      {"row_nnz", [](rt::Runtime&, Operands& o) { (void)o.A.row_nnz(); }},
      {"diagonal", [](rt::Runtime&, Operands& o) { (void)o.A.diagonal(); }},
      {"with_diagonal", [](rt::Runtime&, Operands& o) { (void)o.A.with_diagonal(o.x); }},
      {"getcol", [](rt::Runtime&, Operands& o) { (void)o.A.getcol(17); }},
      {"tril", [](rt::Runtime&, Operands& o) { (void)o.A.tril(0); }},
      {"count_nonzero", [](rt::Runtime&, Operands& o) { (void)o.A.count_nonzero(); }},
      {"dense_unary", [](rt::Runtime&, Operands& o) { (void)o.x.abs(); }},
      {"dense_clip", [](rt::Runtime&, Operands& o) { (void)o.x.clip(0.1, 0.9); }},
      {"dense_binary", [](rt::Runtime&, Operands& o) { (void)o.x.add(o.y); }},
      {"dense_inplace", [](rt::Runtime&, Operands& o) { o.y.iadd(o.x); }},
      {"dense_slice", [](rt::Runtime&, Operands& o) { (void)o.x.slice(10, 410); }},
      {"dense_scale", [](rt::Runtime&, Operands& o) { (void)o.x.scale(2.0); }},
      {"dense_add_scalar", [](rt::Runtime&, Operands& o) { (void)o.x.add_scalar(2.0); }},
      {"dense_iscale", [](rt::Runtime&, Operands& o) { o.y.iscale(0.5); }},
      {"dense_axpy", [](rt::Runtime&, Operands& o) { o.y.axpy(0.25, o.x); }},
      {"dense_xpay", [](rt::Runtime&, Operands& o) { o.y.xpay(0.25, o.x); }},
      {"dense_fill", [](rt::Runtime&, Operands& o) { o.y.fill(1.5); }},
      {"dense_arange", [](rt::Runtime& rt, Operands&) { (void)DArray::arange(rt, 777); }},
      {"dense_dot", [](rt::Runtime&, Operands& o) { (void)o.x.dot(o.y); }},
      {"dense_norm", [](rt::Runtime&, Operands& o) { (void)o.x.norm(); }},
      {"dense_sum", [](rt::Runtime&, Operands& o) { (void)o.x.sum(); }},
      {"dense_max", [](rt::Runtime&, Operands& o) { (void)o.x.max(); }},
      {"dense_matmul", [](rt::Runtime&, Operands& o) { (void)o.U.matmul(o.Vt); }},
      {"dense_transpose", [](rt::Runtime&, Operands& o) { (void)o.U.transpose(); }},
      {"gmg_setup",
       [](rt::Runtime& rt, Operands&) {
         auto A = sparse::diags(rt, 256, {{-1, -1.0}, {0, 2.0}, {1, -1.0}});
         solve::TwoLevelGmg gmg(A, solve::TwoLevelGmg::injection_1d(rt, 256));
       }},
  };
  return kOps;
}

const std::vector<Pin> kGpuPins = {
    {"spmv", 0x1.60288f4297dep-15, 0x1p+2, 0x1.482cp+15, 0x1.43ebp+15},
    {"spmm", 0x1.938d99fbd82ep-15, 0x1p+2, 0x1.ae4p+16, 0x1.aa78p+16},
    {"sddmm", 0x1.508430de10f9p-15, 0x1p+2, 0x1.92acp+17, 0x1.8c87p+17},
    {"spgemm", 0x1.120f7b3db52aap-13, 0x1.2p+3, 0x1.72e3p+19, 0x1.6d3ep+19},
    {"add", 0x1.0f22e125dca4cp-13, 0x1.2p+3, 0x1.3149p+17, 0x1.2d9f2p+17},
    {"sub", 0x1.0624dd2f1a9fcp-13, 0x1.2p+3, 0x1.3149p+17, 0x1.2d9f2p+17},
    {"multiply", 0x1.0624dd2f1a9fcp-13, 0x1.2p+3, 0x1.3149p+17, 0x1.2d9f2p+17},
    {"prune", 0x1.05e5bbc13e698p-13, 0x1.2p+3, 0x1.e156p+15, 0x1.d9898p+15},
    {"transpose", 0x1.7ccd30511c5ap-15, 0x1p+0, 0x1.e156p+15, 0x1.d9898p+15},
    {"tocoo", 0x1.4c6a0bdf4ad6p-15, 0x1p+2, 0x1.2d18p+16, 0x1.285ep+16},
    {"coo_tocsr", 0x1.5b288277b0d4p-14, 0x1.4p+2, 0x1.2d18p+16, 0x1.285ep+16},
    {"coo_spmv", 0x1.7f4d793298a5p-14, 0x1p+3, 0x1.2d62p+16, 0x1.2d578p+16},
    {"csc_spmv", 0x1.64763108a1ep-14, 0x1.4p+2, 0x1.05c2p+16, 0x1.02018p+16},
    {"todia", 0x1.291b10969c1ap-14, 0x1p+3, 0x1.23b8p+16, 0x1.1efep+16},
    {"dia_spmv", 0x1.107e537695e2p-13, 0x1.8p+3, 0x1.22ap+13, 0x1.22ap+13},
    {"todense", 0x1.4fd121882376p-14, 0x1p+3, 0x1.e156p+15, 0x1.d9898p+15},
    {"from_dense", 0x1.0606b38ce9c38p-13, 0x1.2p+3, 0x1.0ep+14, 0x1.0ep+14},
    {"bsr_spmv", 0x1.7cd65da73004p-15, 0x1p+2, 0x1.3918p+18, 0x1.33e9p+18},
    {"scale_rows", 0x1.767cff7bac04p-15, 0x1p+2, 0x1.88c6p+15, 0x1.82dd8p+15},
    {"scale_cols", 0x1.4fb0af5905f8p-15, 0x1p+2, 0x1.f416p+15, 0x1.ec498p+15},
    {"power", 0x1.4f3250a75aaap-15, 0x1p+2, 0x1.7524p+15, 0x1.7517p+15},
    {"row_sum", 0x1.4f6dd5efb704p-15, 0x1p+2, 0x1.3eccp+14, 0x1.3a8bp+14},
    {"col_sum", 0x1.c6a1a7896884p-15, 0x1p+2, 0x1.7f66p+15, 0x1.797d8p+15},
    {"sum_all", 0x1.4ddb5ebce8f4p-15, 0x1p+2, 0x1.0254p+14, 0x1.024bp+14},
    {"row_nnz", 0x1.b3f8d30e1868p-16, 0x1p+2, 0x1.c2p+11, 0x1.c2p+11},
    {"diagonal", 0x1.4fdc8c48c298p-15, 0x1p+2, 0x1.1416p+15, 0x1.10118p+15},
    {"with_diagonal", 0x1.4fd2c3115ec4p-15, 0x1p+2, 0x1.e156p+15, 0x1.d9898p+15},
    {"getcol", 0x1.4f43ee0b0e5cp-15, 0x1p+2, 0x1.1416p+15, 0x1.10118p+15},
    {"tril", 0x1.4fb0af5905f8p-15, 0x1p+2, 0x1.7f66p+15, 0x1.797d8p+15},
    {"count_nonzero", 0x1.c4a3bd10057cp-15, 0x1p+2, 0x1.0254p+14, 0x1.024bp+14},
    {"dense_unary", 0x1.b3f24ce92b3p-16, 0x1p+2, 0x1.3ecp+11, 0x1.3ecp+11},
    {"dense_clip", 0x1.4f8b588e369p-15, 0x1p+2, 0x1.3ecp+11, 0x1.3ecp+11},
    {"dense_binary", 0x1.4f8e9ba0ad2cp-15, 0x1p+2, 0x1.d4cp+11, 0x1.d4cp+11},
    {"dense_inplace", 0x1.4f8b588e369p-15, 0x1p+2, 0x1.d4cp+11, 0x1.d4cp+11},
    {"dense_slice", 0x1.4f85e8c4c634p-15, 0x1p+2, 0x1.9p+10, 0x1.9p+10},
    {"dense_scale", 0x1.4f8d8545305p-15, 0x1p+2, 0x1.3ecp+11, 0x1.3ecp+11},
    {"dense_add_scalar", 0x1.4f8b588e369p-15, 0x1p+2, 0x1.3ecp+11, 0x1.3ecp+11},
    {"dense_iscale", 0x1.4f8b588e369p-15, 0x1p+2, 0x1.3ecp+11, 0x1.3ecp+11},
    {"dense_axpy", 0x1.4f8e9ba0ad2cp-15, 0x1p+2, 0x1.e78p+11, 0x1.e78p+11},
    {"dense_xpay", 0x1.4f8b588e369p-15, 0x1p+2, 0x1.e78p+11, 0x1.e78p+11},
    {"dense_fill", 0x1.4f84d2694958p-15, 0x1p+2, 0x1.2cp+10, 0x1.2cp+10},
    {"dense_arange", 0x1.4f8c5313c08cp-15, 0x1p+2, 0x1.86p+10, 0x1.848p+10},
    {"dense_dot", 0x1.c4fe66801cbp-15, 0x1p+2, 0x1.518p+11, 0x1.518p+11},
    {"dense_norm", 0x1.4f8b588e369p-15, 0x1p+2, 0x1.518p+11, 0x1.518p+11},
    {"dense_sum", 0x1.4f88157bbff4p-15, 0x1p+2, 0x1.518p+10, 0x1.518p+10},
    {"dense_max", 0x1.4f8b588e369p-15, 0x1p+2, 0x1.518p+10, 0x1.518p+10},
    {"dense_matmul", 0x1.c47dfc7e9b18p-16, 0x1p+2, 0x1.0d88p+21, 0x1.0d88p+21},
    {"dense_transpose", 0x1.6a0adb6d471cp-15, 0x1p+2, 0x1.0d88p+21, 0x1.0d88p+21},
    {"gmg_setup", 0x1.236f90b0b891p-11, 0x1.38p+5, 0x1.1p+9, 0x1.1p+9},
};

const std::vector<Pin> kCpuPins = {
    {"spmv", 0x1.a14f36b4b5ec8p-15, 0x1p+1, 0x1.31c4p+16, 0x1.312bp+16},
    {"spmm", 0x1.57eb81b7eb78p-15, 0x1p+1, 0x1.6p+17, 0x1.5f78p+17},
    {"sddmm", 0x1.711c9a764878p-15, 0x1p+1, 0x1.8d64p+18, 0x1.8c87p+18},
    {"spgemm", 0x1.1e81a6c29e57ap-13, 0x1.4p+2, 0x1.6df2ap+20, 0x1.6d3ep+20},
    {"add", 0x1.02c0c9247a51p-13, 0x1.4p+2, 0x1.2f34p+18, 0x1.2d9f2p+18},
    {"sub", 0x1.0624dd2f1a9fcp-13, 0x1.4p+2, 0x1.2f34p+18, 0x1.2d9f2p+18},
    {"multiply", 0x1.0624dd2f1a9fcp-13, 0x1.4p+2, 0x1.2f34p+18, 0x1.2d9f2p+18},
    {"prune", 0x1.0624dd2f1aap-13, 0x1.4p+2, 0x1.daa2p+16, 0x1.d9898p+16},
    {"transpose", 0x1.6937cffa92fap-15, 0x1p+0, 0x1.daa2p+16, 0x1.d9898p+16},
    {"tocoo", 0x1.405edb789c28p-15, 0x1p+1, 0x1.2908p+17, 0x1.285ep+17},
    {"coo_tocsr", 0x1.9878395fcf4ap-14, 0x1.8p+1, 0x1.2908p+17, 0x1.285ep+17},
    {"coo_spmv", 0x1.2400f3e47e25p-14, 0x1p+2, 0x1.2d62p+17, 0x1.2d578p+17},
    {"csc_spmv", 0x1.63cdcafac1a6p-14, 0x1.8p+1, 0x1.054bp+17, 0x1.02018p+17},
    {"todia", 0x1.57908d691465p-14, 0x1p+2, 0x1.1fa8p+17, 0x1.1efep+17},
    {"dia_spmv", 0x1.066f1916b394p-13, 0x1.8p+2, 0x1.22ap+14, 0x1.22ap+14},
    {"todense", 0x1.63ef9647e812p-14, 0x1p+2, 0x1.daa2p+16, 0x1.d9898p+16},
    {"from_dense", 0x1.0624dd2f1aa08p-13, 0x1.4p+2, 0x1.0ep+15, 0x1.0ep+15},
    {"bsr_spmv", 0x1.797cc39ffd62p-15, 0x1p+1, 0x1.3434p+19, 0x1.33e9p+19},
    {"scale_rows", 0x1.56247cd50dc6p-15, 0x1p+1, 0x1.83b2p+16, 0x1.82dd8p+16},
    {"scale_cols", 0x1.51698de64968p-15, 0x1p+1, 0x1.ed62p+16, 0x1.ec498p+16},
    {"power", 0x1.4b22fd3454e4p-15, 0x1p+1, 0x1.7524p+16, 0x1.7517p+16},
    {"row_sum", 0x1.4e043d20557ap-15, 0x1p+1, 0x1.3b24p+15, 0x1.3a8bp+15},
    {"col_sum", 0x1.8e91a5980fp-15, 0x1p+1, 0x1.7a52p+16, 0x1.797d8p+16},
    {"sum_all", 0x1.4abd0a8237cp-15, 0x1p+1, 0x1.0254p+15, 0x1.024bp+15},
    {"row_nnz", 0x1.134ab8d884fcp-15, 0x1p+1, 0x1.c2p+12, 0x1.c2p+12},
    {"diagonal", 0x1.539c99fde678p-15, 0x1p+1, 0x1.10a2p+16, 0x1.10118p+16},
    {"with_diagonal", 0x1.531d57de9724p-15, 0x1p+1, 0x1.daa2p+16, 0x1.d9898p+16},
    {"getcol", 0x1.4bf9593dd5fcp-15, 0x1p+1, 0x1.10a2p+16, 0x1.10118p+16},
    {"tril", 0x1.51698de64968p-15, 0x1p+1, 0x1.7a52p+16, 0x1.797d8p+16},
    {"count_nonzero", 0x1.85dc817c2564p-15, 0x1p+1, 0x1.0254p+15, 0x1.024bp+15},
    {"dense_unary", 0x1.13204d78bfep-15, 0x1p+1, 0x1.3ecp+12, 0x1.3ecp+12},
    {"dense_clip", 0x1.4f8b588e369p-15, 0x1p+1, 0x1.3ecp+12, 0x1.3ecp+12},
    {"dense_binary", 0x1.4fb5c3edfbacp-15, 0x1p+1, 0x1.d4cp+12, 0x1.d4cp+12},
    {"dense_inplace", 0x1.4f8b588e369p-15, 0x1p+1, 0x1.d4cp+12, 0x1.d4cp+12},
    {"dense_slice", 0x1.4f44a599436p-15, 0x1p+1, 0x1.9p+11, 0x1.9p+11},
    {"dense_scale", 0x1.4fa7a02364a4p-15, 0x1p+1, 0x1.3ecp+12, 0x1.3ecp+12},
    {"dense_add_scalar", 0x1.4f8b588e369p-15, 0x1p+1, 0x1.3ecp+12, 0x1.3ecp+12},
    {"dense_iscale", 0x1.4f8b588e369p-15, 0x1p+1, 0x1.3ecp+12, 0x1.3ecp+12},
    {"dense_axpy", 0x1.4fb5c3edfbacp-15, 0x1p+1, 0x1.e78p+12, 0x1.e78p+12},
    {"dense_xpay", 0x1.4f8b588e369p-15, 0x1p+1, 0x1.e78p+12, 0x1.e78p+12},
    {"dense_fill", 0x1.4f3681ceac54p-15, 0x1p+1, 0x1.2cp+11, 0x1.2cp+11},
    {"dense_arange", 0x1.4f97ee2b7a7p-15, 0x1p+1, 0x1.85p+11, 0x1.848p+11},
    {"dense_dot", 0x1.8a619103348cp-15, 0x1p+1, 0x1.518p+12, 0x1.518p+12},
    {"dense_norm", 0x1.4f8b588e369p-15, 0x1p+1, 0x1.518p+12, 0x1.518p+12},
    {"dense_sum", 0x1.4f60ed2e717p-15, 0x1p+1, 0x1.518p+11, 0x1.518p+11},
    {"dense_max", 0x1.4f8b588e369p-15, 0x1p+1, 0x1.518p+11, 0x1.518p+11},
    {"dense_matmul", 0x1.7c0e43ec6cbp-15, 0x1p+1, 0x1.0b3p+22, 0x1.0b3p+22},
    {"dense_transpose", 0x1.072f6ac6a8a4p-15, 0x1p+1, 0x1.0b3p+22, 0x1.0b3p+22},
    {"gmg_setup", 0x1.23aa725734de8p-11, 0x1.5p+4, 0x1.1p+10, 0x1.1p+10},
};

double metric(rt::Runtime& rt, const char* name) {
  const auto snap = rt.metrics_snapshot();
  const auto* m = snap.find(name);
  return m != nullptr ? m->value : -1.0;
}

void check(const sim::Machine& machine, int threads, const std::vector<Pin>& pins,
           const char* table) {
  rt::RuntimeOptions opts;
  opts.exec_threads = threads;
  opts.fusion = rt::Fusion::Off;
  opts.comm = comm::Mode::Off;
  opts.partition = rt::PartitionStrategy::Rows;
  opts.diag = diag::Mode::Off;
  rt::Runtime rt(machine, opts);
  Operands o(rt);
  std::string observed;
  for (const auto& [name, op] : ops()) {
    const double t0 = rt.sim_time();
    const double n0 = metric(rt, "lsr_sim_tasks_total");
    op(rt, o);
    Pin got{name, rt.sim_time() - t0, metric(rt, "lsr_sim_tasks_total") - n0,
            metric(rt, "lsr_part_max_work"), metric(rt, "lsr_part_mean_work")};
    char row[256];
    std::snprintf(row, sizeof(row), "    {\"%s\", %a, %a, %a, %a},\n", got.op, got.dt,
                  got.tasks, got.max_work, got.mean_work);
    observed += row;
    const Pin* want = nullptr;
    for (const Pin& p : pins) {
      if (std::string(p.op) == name) want = &p;
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no pin for " << name;
      continue;
    }
    EXPECT_EQ(got.dt, want->dt) << name;
    EXPECT_EQ(got.tasks, want->tasks) << name;
    EXPECT_EQ(got.max_work, want->max_work) << name;
    EXPECT_EQ(got.mean_work, want->mean_work) << name;
  }
  if (::testing::Test::HasFailure()) {
    std::printf("observed %s (threads=%d):\n%s", table, threads, observed.c_str());
  }
}

class CostPin : public ::testing::TestWithParam<int> {};

TEST_P(CostPin, FourGpus) {
  sim::PerfParams pp;
  check(sim::Machine::gpus(4, pp), GetParam(), kGpuPins, "kGpuPins");
}

TEST_P(CostPin, TwoSockets) {
  sim::PerfParams pp;
  check(sim::Machine::sockets(2, pp), GetParam(), kCpuPins, "kCpuPins");
}

INSTANTIATE_TEST_SUITE_P(Threads, CostPin, ::testing::Values(1, 4));

}  // namespace
}  // namespace legate
