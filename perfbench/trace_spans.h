// The benchmark's own tracing: spans the driver records around each call
// it makes into a library module's public functions. Spans are held in
// memory and written out at the end in Chrome trace-event form
// (chrome://tracing, Perfetto). Each span has a name, the layer (module)
// it enters, start and end, its parent span, and the id of the benchmark
// operation it belongs to. Per-layer self time is a span's duration minus
// its children's.
//
// The recorder is off unless enabled (the driver's --trace 1); a disabled
// ScopedSpan costs one branch, so untraced runs measure the program alone.

#ifndef PERFBENCH_TRACE_SPANS_H_
#define PERFBENCH_TRACE_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    const char* layer = "";
    uint64_t op = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root
    uint32_t thread = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// The process-wide recorder.
  static SpanRecorder& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span. Returns its index (-1 when disabled).
  int64_t Begin(const char* layer, std::string name);
  void End(int64_t index);

  /// Starts a new benchmark operation on the calling thread: spans opened
  /// from now on carry its id.
  void BeginOperation();

  /// Closed spans so far (copy; call after the workload's threads joined).
  std::vector<Span> Snapshot() const;

  /// Self time (duration minus children) summed per layer, in ms.
  static std::map<std::string, double> SelfMsByLayer(
      const std::vector<Span>& spans);

  /// Writes `spans` as {"traceEvents":[...]} to `path`.
  static bool WriteChromeTrace(const std::vector<Span>& spans,
                               const std::string& path);

 private:
  SpanRecorder() : origin_(Clock::now()) {}

  bool enabled_ = false;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_op_ = 1;
  uint32_t next_thread_ = 1;
};

/// RAII span: `ScopedSpan s("exec", "TupleSet::Canonical");`.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, std::string name)
      : index_(SpanRecorder::Get().enabled()
                   ? SpanRecorder::Get().Begin(layer, std::move(name))
                   : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) SpanRecorder::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

/// RAII operation: a new operation id plus its root span (layer "driver").
class ScopedOperation {
 public:
  explicit ScopedOperation(std::string name)
      : span_("driver", Start(std::move(name))) {}

 private:
  static std::string Start(std::string name) {
    if (SpanRecorder::Get().enabled()) SpanRecorder::Get().BeginOperation();
    return name;
  }

  ScopedSpan span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SPANS_H_
