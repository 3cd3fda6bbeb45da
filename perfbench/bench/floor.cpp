#include "floor.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"

namespace perfbench {

std::size_t llc_bytes() {
  std::size_t best = 0;
  int best_level = -1;
  for (int idx = 0; idx < 16; ++idx) {
    std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lf(dir + "/level"), sf(dir + "/size"), tf(dir + "/type");
    int level = 0;
    std::string size, type;
    if (!(lf >> level) || !(sf >> size) || !(tf >> type)) continue;
    if (type == "Instruction" || size.empty()) continue;
    std::size_t v = std::stoull(size);
    char unit = size.back();
    if (unit == 'K') v <<= 10;
    if (unit == 'M') v <<= 20;
    if (unit == 'G') v <<= 30;
    if (level > best_level || (level == best_level && v > best)) {
      best_level = level;
      best = v;
    }
  }
  return best;
}

TriadResult stream_triad(std::size_t array_bytes, int threads, int passes) {
  const std::size_t n = array_bytes / sizeof(double);
  // Uninitialized storage: each thread first-touches its own slice below.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const double s = 3.0;
  auto run_parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      std::size_t lo = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
      std::size_t hi =
          n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(threads);
      pool.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& th : pool) th.join();
  };
  run_parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e30;
  for (int p = 0; p < passes; ++p) {
    double t0 = now_s();
    run_parallel([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    best = std::min(best, now_s() - t0);
  }
  // Keep the result observable so the passes cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  TriadResult r;
  r.array_bytes = n * sizeof(double);
  r.gbps = 24.0 * static_cast<double>(n) / best / 1e9;
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
