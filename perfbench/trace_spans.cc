#include "trace_spans.h"

#include <cstdio>

namespace perfbench {

namespace {

struct ThreadState {
  uint32_t id = 0;
  uint64_t op = 0;
  std::vector<int64_t> open;  // indices of this thread's open spans
};

thread_local ThreadState t_state;

double Us(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

void AppendEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* const recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::BeginOperation() {
  std::lock_guard<std::mutex> lock(mu_);
  t_state.op = next_op_++;
}

int64_t SpanRecorder::Begin(const char* layer, std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = layer;
  span.parent = t_state.open.empty() ? -1 : t_state.open.back();
  std::lock_guard<std::mutex> lock(mu_);
  if (t_state.id == 0) t_state.id = next_thread_++;
  span.op = t_state.op;
  span.thread = t_state.id;
  const int64_t index = static_cast<int64_t>(spans_.size());
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  t_state.open.push_back(index);
  return index;
}

void SpanRecorder::End(int64_t index) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = now;
  if (!t_state.open.empty() && t_state.open.back() == index) {
    t_state.open.pop_back();
  }
}

std::vector<SpanRecorder::Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer(
    const std::vector<Span>& spans) {
  // Children nest strictly inside their parent on the same thread, so a
  // parent's self time is its duration minus the sum of its children's.
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = MsBetween(spans[i].start, spans[i].end);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -=
          MsBetween(spans[i].start, spans[i].end);
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer] += self[i];
  }
  return by_layer;
}

bool SpanRecorder::WriteChromeTrace(const std::vector<Span>& spans,
                                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin = Get().origin_;
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char nums[256];
    std::snprintf(nums, sizeof(nums),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"op\":%llu,\"span\":%zu,"
                  "\"parent\":%lld}}",
                  s.thread, Us(origin, s.start), Us(s.start, s.end),
                  static_cast<unsigned long long>(s.op), i,
                  static_cast<long long>(s.parent));
    out += i == 0 ? "{\"name\":\"" : ",\n{\"name\":\"";
    AppendEscaped(s.name, &out);
    out += "\",\"cat\":\"";
    AppendEscaped(s.layer, &out);
    out += nums;
  }
  out += "\n]}\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
