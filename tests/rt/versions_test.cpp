// The write sequence and the image memo (DESIGN.md §4). Every write of a
// store draws a fresh version, an attach included, and one memo per
// (source, kind, write sequence) holds both the solved image content and the
// replay's accounted identities.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <vector>

#include "apps/workloads.h"
#include "dense/array.h"
#include "rt/runtime.h"
#include "sparse/csr.h"

namespace legate::rt {
namespace {

using dense::DArray;

/// Point tasks, copies and per-link traffic charged by `fn`.
std::vector<double> traffic_of(Runtime& rt, const std::function<void()>& fn) {
  const metrics::Snapshot before = rt.metrics_snapshot();
  fn();
  const metrics::Snapshot d = rt.metrics_snapshot().delta(before);
  std::vector<double> out;
  for (const char* name :
       {"lsr_sim_tasks_total", "lsr_sim_copies_total", "lsr_sim_traffic_intra_bytes_total",
        "lsr_sim_traffic_nvlink_bytes_total", "lsr_sim_traffic_ib_bytes_total"}) {
    const auto* m = d.find(name);
    out.push_back(m != nullptr ? m->value : 0.0);
  }
  return out;
}

TEST(Versions, GetrowChargesLikeTheAttachOfItsValues) {
  // getrow builds the row on the host and attaches it: the attach is a new
  // write, and the sum must fetch the attached values from home memory
  // exactly as it does for a fresh attach of the same values. No device fill
  // precedes it, so both launch the same point tasks.
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    sim::PerfParams pp;
    RuntimeOptions o;
    o.exec_threads = threads;
    o.fusion = Fusion::Off;
    o.comm = comm::Mode::Off;
    o.partition = PartitionStrategy::Rows;
    Runtime rt(sim::Machine::gpus(4, pp, /*gpus_per_node=*/2), o);
    const apps::HostProblem p = apps::poisson2d(16);
    auto A = sparse::CsrMatrix::from_host(rt, p.rows, p.cols, p.indptr, p.indices,
                                          p.values);
    std::vector<double> row;
    double got = 0;
    const auto via_getrow = traffic_of(rt, [&] {
      DArray r = A.getrow(5);
      got = r.sum().value;
      row = r.to_vector();
    });
    double want = 0;
    const auto via_attach = traffic_of(rt, [&] {
      DArray r = DArray::from_vector(rt, row);
      want = r.sum().value;
    });
    EXPECT_EQ(got, want);
    EXPECT_GT(via_attach[1], 0);
    EXPECT_EQ(via_getrow, via_attach);
  }
}

struct ImageCounts {
  std::vector<double> misses, hits, created;  ///< per SpMV
  bool operator==(const ImageCounts&) const = default;
};

void PrintTo(const ImageCounts& c, std::ostream* os) {
  auto put = [&](const char* name, const std::vector<double>& v) {
    *os << name << "{";
    for (double x : v) *os << x << ",";
    *os << "} ";
  };
  put("misses", c.misses);
  put("hits", c.hits);
  put("created", c.created);
}

/// Four SpMVs over one matrix; with `span_read`, the host reads `pos`
/// through a (mutable) span between the second and the third.
ImageCounts spmv_images(int threads, Fusion fusion, bool reuse, bool span_read) {
  sim::PerfParams pp;
  RuntimeOptions o;
  o.exec_threads = threads;
  o.fusion = fusion;
  o.comm = comm::Mode::Off;
  o.partition = PartitionStrategy::Rows;
  o.partition_reuse = reuse;
  Runtime rt(sim::Machine::gpus(4, pp), o);
  const apps::HostProblem p = apps::poisson2d(24);
  auto A = sparse::CsrMatrix::from_host(rt, p.rows, p.cols, p.indptr, p.indices,
                                        p.values);
  DArray x = DArray::full(rt, p.rows, 1.0);
  ImageCounts out;
  for (int k = 0; k < 4; ++k) {
    if (span_read && k == 2) (void)A.pos().span<Rect1>();
    const metrics::Snapshot before = rt.metrics_snapshot();
    DArray y = A.spmv(x);
    const metrics::Snapshot d = rt.metrics_snapshot().delta(before);
    auto v = [&](const char* name) {
      const auto* m = d.find(name);
      return m != nullptr ? m->value : 0.0;
    };
    out.misses.push_back(v("lsr_rt_image_cache_misses_total"));
    out.hits.push_back(v("lsr_rt_image_cache_hits_total"));
    out.created.push_back(v("lsr_rt_partitions_created_total"));
  }
  return out;
}

TEST(Versions, ImageAccountingKeysByReplayIdentity) {
  // An SpMV takes three images: crd and vals by the rows of pos (one
  // partition, so the second is a hit), x by crd. Without key-partition
  // reuse every SpMV solves over fresh partition identities, so its images
  // are new partitions although their content is memoized; with reuse only
  // the first SpMV creates any. A span read of `pos` rebuilds the content
  // but accounts nothing.
  const ImageCounts no_reuse{{2, 2, 2, 2}, {1, 1, 1, 1}, {3, 3, 3, 3}};
  const ImageCounts reuse{{2, 0, 0, 0}, {1, 3, 3, 3}, {3, 0, 0, 0}};
  for (int threads : {1, 4}) {
    for (Fusion fusion : {Fusion::Off, Fusion::On}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " fusion=" << fusion_mode_name(fusion));
      for (bool span_read : {false, true}) {
        EXPECT_EQ(spmv_images(threads, fusion, false, span_read), no_reuse);
        EXPECT_EQ(spmv_images(threads, fusion, true, span_read), reuse);
      }
    }
  }
}

}  // namespace
}  // namespace legate::rt
