#include "spans.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, SpanKind kind) {
  SpanRecord r;
  r.name = name;
  r.kind = kind;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.iter = iter_;
  if (probe_) r.pending_before = probe_();
  int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(r));
  stack_.push_back(id);
  spans_.back().start = now_s();  // last, so bookkeeping stays outside
  return id;
}

void Tracer::close(int id) {
  double t = now_s();
  SpanRecord& r = spans_[static_cast<std::size_t>(id)];
  r.end = t;
  if (probe_ && r.kind == SpanKind::Issue && r.pending_before > 0 && probe_() == 0) {
    r.kind = SpanKind::Drain;
  }
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end - spans_[i].start;
    self[i] += dur;
    if (spans_[i].parent >= 0) self[static_cast<std::size_t>(spans_[i].parent)] -= dur;
  }
  return self;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times(int first_iter,
                                                           int last_iter) const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].iter < first_iter || spans_[i].iter > last_iter) continue;
    SelfTime& st = out[spans_[i].name];
    st.total += self[i];
    if (spans_[i].kind == SpanKind::Drain) st.drain += self[i];
    ++st.calls;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
     << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
        "\"args\":{\"name\":\"perfbench host spans\"}},"
     << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"control thread\"}}";
  // Spans are appended in open order, so timestamps are already monotonic.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const char* cat = s.kind == SpanKind::Drain  ? "drain"
                      : s.kind == SpanKind::Root ? "root"
                                                 : "issue";
    os << ",{\"name\":\"" << s.name << "\",\"cat\":\"" << cat
       << "\",\"ph\":\"X\",\"ts\":" << (s.start - epoch_) * 1e6
       << ",\"dur\":" << (s.end - s.start) * 1e6
       << ",\"pid\":0,\"tid\":0,\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"iter\":" << s.iter << "}}";
  }
  os << "]}";
  std::ofstream f(path);
  f << os.str();
  if (!f.flush()) throw std::runtime_error("cannot write span trace: " + path);
}

}  // namespace perfbench
