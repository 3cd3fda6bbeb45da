#pragma once

// In-memory spans around the public library calls the benchmark makes.
//
// A span holds its name, start, end, parent span and iteration id. Spans are
// opened and closed on the control thread only (the benchmark is a closed
// loop with one caller), so a parent stack is enough to link them. Self time
// is a span's duration minus the time its child spans cover. The recorded
// spans are written at exit as Chrome-trace JSON in the same layout that
// legate::prof emits, so Perfetto opens both files.

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's monotonic clock.
double now_s();

/// Whether a span's time is issue-side work or a drain: a fence point of the
/// execution pipeline, where deferred leaf and replay work completes. Root
/// spans enclose one iteration (or the set-up) and hold only glue.
enum class SpanKind { Issue, Drain, Root };

struct SpanRecord {
  std::string name;
  SpanKind kind{SpanKind::Issue};
  double start{0};
  double end{0};
  int parent{-1};
  int iter{-1};
  std::size_t pending_before{0};  ///< deferred launches when the span opened
};

class Tracer {
 public:
  /// Iteration id stamped on spans opened from now on (-1: outside the loop).
  void set_iter(int it) { iter_ = it; }
  /// Deferred-launch probe (Runtime::pending_launches). An Issue span during
  /// which the pipeline went from non-empty to empty drained it, and is
  /// relabelled Drain.
  void set_pending_probe(std::function<std::size_t()> probe) {
    probe_ = std::move(probe);
  }

  int open(const char* name, SpanKind kind);
  void close(int id);

  /// Self time of the spans with one name: total, the part spent in spans
  /// labelled Drain, and the number of spans.
  struct SelfTime {
    double total{0};
    double drain{0};
    int calls{0};
  };
  /// Self time per span name over spans whose iteration id lies in
  /// [first_iter, last_iter].
  [[nodiscard]] std::map<std::string, SelfTime> self_times(int first_iter,
                                                           int last_iter) const;

  /// Chrome-trace JSON: one process for the control thread, one complete
  /// ("X") event per span with id/parent/iteration in args.
  void write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<double> self_seconds() const;

  int iter_{-1};
  std::function<std::size_t()> probe_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  double epoch_{now_s()};
};

/// RAII span; a null tracer (untraced runs) makes it a no-op.
class Span {
 public:
  Span(Tracer* t, const char* name, SpanKind kind = SpanKind::Issue)
      : t_(t), id_(t_ != nullptr ? t_->open(name, kind) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
