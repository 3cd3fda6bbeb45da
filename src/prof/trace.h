#pragma once

#include <string>

#include "prof/prof.h"

namespace legate::prof {

/// Serialize the recorded timeline in Chrome-trace ("Trace Event") JSON.
/// Loads directly in chrome://tracing and Perfetto: tracks become threads,
/// nodes become processes, and every task/copy/allreduce/stall/checkpoint is
/// one complete ("X") event carrying its payload in `args`. Marker categories
/// (prof::is_marker) are emitted as "i" events.
[[nodiscard]] std::string chrome_trace_json(const Recorder& rec);

/// Write chrome_trace_json() to `path`; throws std::runtime_error on I/O
/// failure.
void write_chrome_trace(const Recorder& rec, const std::string& path);

}  // namespace legate::prof
