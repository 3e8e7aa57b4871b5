// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around each call into a
// library layer (graph, sim, tree/shortcut/core, apps). A span holds its
// name, start and end, the span that was open when it started (its parent)
// and the op id shared by all spans of one op input. Nothing is written
// until the run ends; write_chrome() then emits Chrome trace-event JSON
// ("ph": "X" complete events), the format in-program spans can later nest
// under.
//
// Recording is switched per op input: with the tracer off, Span costs one
// branch and records nothing, so the same code path serves traced and
// untraced ops.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  const char* name = "";  // string literal: "<layer>.<call>"
  std::int64_t beg_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        // index of the enclosing span, -1 at top level
  std::int64_t op = -1;   // op input the span belongs to, -1 for set-up
  int threads = 0;        // engine thread count of the call, 0 if none
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_op(std::int64_t op) { op_ = op; }
  void set_threads(int threads) { threads_ = threads; }

  int open(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(),
                      op_, threads_});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  // Durations in ms of every span with this name.
  std::vector<double> durations_ms(std::string_view name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.beg_ns) * 1e-6);
    return out;
  }

  // Writes every span as a Chrome trace-event complete event; timestamps
  // are microseconds since the first span. Returns false on I/O failure.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().beg_ns;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const std::string_view name(s.name);
      const auto dot = name.find('.');
      const std::string cat(name.substr(0, dot));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"op\":%lld,\"threads\":%d}}\n",
                   i == 0 ? "" : ",", s.name, cat.c_str(),
                   static_cast<double>(s.beg_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.beg_ns) * 1e-3, i, s.parent,
                   static_cast<long long>(s.op), s.threads);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  std::int64_t op_ = -1;
  int threads_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op while the tracer is off.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Span() { t_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
