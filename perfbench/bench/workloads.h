#pragma once

// The benchmark's workloads. Each is a closed loop driven from the control
// thread through the public sparse/dense/solve/rt APIs: the next iteration
// is issued only when the previous one has finished (every iteration ends in
// Runtime::fence()).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rt/runtime.h"
#include "spans.h"

namespace perfbench {

/// Runtime configuration a workload depends on. Every field is set
/// explicitly, so no LSR_* environment variable can change it.
struct Pinned {
  int procs{1};
  double cost_scale{1.0};
  legate::rt::Fusion fusion{legate::rt::Fusion::Off};
  legate::comm::Mode comm{legate::comm::Mode::Off};
  legate::rt::PartitionStrategy partition{legate::rt::PartitionStrategy::Rows};
};

/// Executor threads every workload runs with: 3 pool workers plus the
/// helping control thread.
constexpr int kExecThreads = 3;

/// Output checks against baselines::ref, counted into failed/attempted.
struct Checks {
  long attempted{0};
  long failed{0};
  std::vector<std::string> failures;  ///< first few failure messages
  void expect(bool ok, const std::string& what);
};

/// Single-thread baselines::ref timings on the workload's own inputs.
struct RefTimings {
  double spmv_ms{0};
  double dot_ms{0};
  double axpy_ms{0};
  double spmv_bytes{0};  ///< CSR arrays + x + y, computed from array sizes
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual Pinned pinned() const = 0;

  /// Seeded host inputs and reference data (outside every timed region).
  virtual void generate(std::uint64_t seed) = 0;
  /// Runtime construction, distribution and the first iteration: the
  /// setup_s region. Tears down any runtime a previous setup() built.
  virtual void setup(Tracer* t) = 0;
  /// One iteration, ending in Runtime::fence().
  virtual void iterate(Tracer* t) = 0;
  /// Check the iteration that just finished (outside the timed region).
  virtual void check_iteration(Checks& c) = 0;
  /// End-of-run checks.
  virtual void check_final(Checks& c) = 0;
  /// Destroy the runtime and every distributed object.
  virtual void teardown() = 0;
  /// Drop host inputs and reference data.
  virtual void release_inputs() = 0;

  /// baselines::ref timings on this workload's inputs (traced run only).
  virtual RefTimings ref_timings() = 0;
  /// Wall ms per iteration of solve::cg(A, b, 0, K) on the warmed runtime,
  /// or a negative value when the workload has no SPD system.
  virtual double solve_cg_iter_ms(Tracer* t) {
    (void)t;
    return -1;
  }

  /// The runtime of the last setup(); valid until teardown().
  [[nodiscard]] legate::rt::Runtime& runtime() { return *rt_; }
  [[nodiscard]] bool has_runtime() const { return rt_ != nullptr; }

 protected:
  /// Build a runtime with every option pinned (diag, integrity and faults
  /// off) and verify the resolved configuration; throws std::runtime_error
  /// when the runtime resolved anything other than what was asked for.
  void make_runtime();

  std::unique_ptr<legate::rt::Runtime> rt_;
};

/// The workload called `name`, or null when there is none.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// One line naming the resolved runtime configuration.
std::string describe_config(legate::rt::Runtime& rt);

}  // namespace perfbench
