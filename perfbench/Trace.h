//===- Trace.h - In-memory spans, written as Chrome trace JSON -*- C++ -*-===//
///
/// \file
/// Spans around the public calls the benchmark makes into each Concord
/// layer. A span always measures its duration (the end-to-end metrics use
/// it); it is recorded only when tracing is on. Recorded spans stay in
/// per-thread buffers until the run ends and are then written as Chrome
/// trace-event JSON (B/E pairs carrying span id, parent id and run id),
/// which chrome://tracing and Perfetto open directly.
///
/// A span's layer is its name up to the first '.', e.g. "gpusim.run" is
/// charged to gpusim. Spans the benchmark itself owns (run, set-up,
/// batches, cells, frames) use the layer "bench". Children may run on
/// other threads (matrix cells run under one batch span); check_trace.py
/// computes self times from the written file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>

namespace perfbench {

namespace trace {

/// Turns recording on for the rest of the process. \p RunId tags every
/// span (workload name and seed).
void enable(const std::string &RunId);
bool enabled();

/// Id of the innermost open span on the calling thread (0 if none); pass
/// it to spans opened on worker threads to keep the parent link.
uint64_t current();

/// Number of spans recorded so far.
uint64_t spanCount();

/// Writes every recorded span to \p Path. Returns false (with \p Error)
/// if a span is still open or the file cannot be written.
bool write(const std::string &Path, std::string *Error);

} // namespace trace

/// RAII span. Measures its duration whether or not tracing is on.
class Span {
public:
  /// \p Name must be a string literal (stored by pointer). \p Parent
  /// defaults to the innermost open span on this thread.
  explicit Span(const char *Name, uint64_t Parent = ~0ull);
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double end();
  uint64_t id() const { return Id; }

private:
  const char *Name;
  uint64_t Id = 0; ///< 0 when not recording.
  uint64_t Parent = 0;
  int64_t StartNs = 0;
  int64_t EndNs = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
