#include "prof/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace legate::prof {

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
void append_escaped(std::ostringstream& os, std::string_view s) {
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          os << buf;
        } else {
          os << ch;
        }
    }
  }
}

void append_str(std::ostringstream& os, std::string_view key, std::string_view v,
                bool comma = true) {
  os << '"';
  append_escaped(os, key);
  os << "\":\"";
  append_escaped(os, v);
  os << '"';
  if (comma) os << ',';
}

}  // namespace

std::string chrome_trace_json(const Recorder& rec) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };

  // Metadata: processes are nodes, threads are resource tracks.
  std::vector<int> seen_nodes;
  for (std::size_t t = 0; t < rec.tracks().size(); ++t) {
    const Track& tr = rec.tracks()[t];
    bool new_node = true;
    for (int n : seen_nodes) new_node = new_node && n != tr.node;
    if (new_node) {
      seen_nodes.push_back(tr.node);
      sep();
      os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << tr.node
         << ",\"args\":{\"name\":\"node " << tr.node << "\"}}";
    }
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << tr.node
       << ",\"tid\":" << t << ",\"args\":{";
    append_str(os, "name", tr.name, /*comma=*/false);
    os << "}}";
  }

  // Events arrive in append order, which interleaves arbitrarily when the
  // exec pool records from several worker threads. Emit both timelines in
  // timestamp order (stable on ties, keyed by record id) so the trace — and
  // any tool that streams it — sees monotonic ts per process.
  std::vector<const Event*> ordered;
  ordered.reserve(rec.events().size());
  for (const Event& ev : rec.events()) ordered.push_back(&ev);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) {
                     if (a->start != b->start) return a->start < b->start;
                     return a->id < b->id;
                   });

  for (const Event* evp : ordered) {
    const Event& ev = *evp;
    const Track& tr = rec.tracks()[static_cast<std::size_t>(ev.track)];
    const bool instant = is_marker(ev.cat);
    sep();
    os << '{';
    append_str(os, "name", ev.name.empty() ? category_name(ev.cat) : ev.name);
    append_str(os, "cat", category_name(ev.cat));
    // Timestamps are microseconds in the trace-event format.
    if (instant) {
      os << "\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ev.start * 1e6 << ',';
    } else {
      os << "\"ph\":\"X\",\"ts\":" << ev.start * 1e6
         << ",\"dur\":" << (ev.end - ev.start) * 1e6 << ',';
    }
    os << "\"pid\":" << tr.node << ",\"tid\":" << ev.track << ",\"args\":{";
    os << "\"id\":" << ev.id << ",\"pred\":" << ev.pred;
    if (ev.bytes > 0) os << ",\"bytes\":" << ev.bytes;
    if (ev.src_mem >= 0) os << ",\"src_mem\":" << ev.src_mem;
    if (ev.dst_mem >= 0) os << ",\"dst_mem\":" << ev.dst_mem;
    if (ev.src_node >= 0) os << ",\"src_node\":" << ev.src_node;
    if (ev.dst_node >= 0) os << ",\"dst_node\":" << ev.dst_node;
    os << "}}";
  }

  // Measured wall-clock timeline: events carrying a real leaf-execution
  // interval are emitted a second time under a dedicated process, on the
  // same logical track ids, so the simulated and measured timelines can be
  // compared side by side in the viewer. Wall timestamps are seconds since
  // Recorder::wall_epoch().
  constexpr int kWallPid = 999;
  bool wall_meta = false;
  std::vector<int> wall_tracks;
  std::vector<const Event*> wall_ordered;
  for (const Event& ev : rec.events()) {
    if (ev.wall_end >= 0) wall_ordered.push_back(&ev);
  }
  std::stable_sort(wall_ordered.begin(), wall_ordered.end(),
                   [](const Event* a, const Event* b) {
                     if (a->wall_start != b->wall_start) {
                       return a->wall_start < b->wall_start;
                     }
                     return a->id < b->id;
                   });
  for (const Event* evp : wall_ordered) {
    const Event& ev = *evp;
    if (!wall_meta) {
      wall_meta = true;
      sep();
      os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << kWallPid
         << ",\"args\":{\"name\":\"measured wall-clock\"}}";
    }
    bool new_track = true;
    for (int t : wall_tracks) new_track = new_track && t != ev.track;
    if (new_track) {
      wall_tracks.push_back(ev.track);
      const Track& tr = rec.tracks()[static_cast<std::size_t>(ev.track)];
      sep();
      os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << kWallPid
         << ",\"tid\":" << ev.track << ",\"args\":{";
      append_str(os, "name", tr.name, /*comma=*/false);
      os << "}}";
    }
    sep();
    os << '{';
    append_str(os, "name", ev.name.empty() ? category_name(ev.cat) : ev.name);
    append_str(os, "cat", "wall");
    os << "\"ph\":\"X\",\"ts\":" << ev.wall_start * 1e6
       << ",\"dur\":" << (ev.wall_end - ev.wall_start) * 1e6 << ',';
    os << "\"pid\":" << kWallPid << ",\"tid\":" << ev.track << ",\"args\":{";
    os << "\"id\":" << ev.id << ",\"sim_start\":" << ev.start
       << ",\"sim_end\":" << ev.end;
    os << "}}";
  }
  os << "]}";
  return os.str();
}

void write_chrome_trace(const Recorder& rec, const std::string& path) {
  std::string json = chrome_trace_json(rec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open trace file: " + path);
  std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = n == json.size() && std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("short write to trace file: " + path);
}

}  // namespace legate::prof
