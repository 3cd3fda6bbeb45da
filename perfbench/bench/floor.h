#pragma once

// Host facts the leaf-kernel floor is read against: last-level cache size,
// STREAM-triad bandwidth, and process peak RSS.

#include <cstddef>

namespace perfbench {

/// Size in bytes of the largest cache level cpu0 reports in sysfs; 0 when
/// sysfs has no cache information.
std::size_t llc_bytes();

struct TriadResult {
  std::size_t array_bytes{0};  ///< bytes of each of the three arrays
  double gbps{0};              ///< best pass: 24 bytes per element / time
};

/// STREAM triad a = b + s*c over arrays of `array_bytes` each, split over
/// `threads` threads; returns the best of `passes` timed passes.
TriadResult stream_triad(std::size_t array_bytes, int threads, int passes);

/// Process peak resident set size in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
