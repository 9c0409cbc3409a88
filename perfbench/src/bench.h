// Shared pieces of the iFlex benchmark runner: the run clock, the
// in-memory span recorder, and the failure log every workload reports
// into. The runner only records raw observations (timestamps, samples,
// counters); perfbench/metrics.py turns them into metrics.
#ifndef IFLEX_PERFBENCH_BENCH_H_
#define IFLEX_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call (main() calls it
/// first thing, so every timestamp of a run shares one origin).
int64_t NowNs();

/// Spans recorded by the benchmark around its calls into each layer. They
/// live in memory and are written out once, when the run ends. Recording
/// is switched per pass, so one run can time an untraced and a traced
/// pass of the same work. Thread-safe.
class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (0, the "no span" id, when
  /// recording is off). `trace` groups the spans of one session or
  /// request; `parent` is the span that caused this one.
  uint32_t Begin(std::string_view name, const char* layer, uint32_t trace,
                 uint32_t parent);
  void End(uint32_t id);
  /// Records an interval measured by the caller (question waits).
  void Add(std::string_view name, const char* layer, uint32_t trace,
           uint32_t parent, int64_t start_ns, int64_t end_ns);

  void WriteJson(iflex::obs::JsonWriter* w) const;

 private:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;
    uint32_t trace = 0;
    std::string name;
    const char* layer = "";
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII wrapper over SpanRecorder::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, const char* layer,
             uint32_t trace, uint32_t parent = 0)
      : rec_(rec), id_(rec->Begin(name, layer, trace, parent)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

/// Operations attempted against the program and the ones that failed or
/// returned a wrong output. Any failure makes the run incorrect.
class RunLog {
 public:
  void Attempt(size_t n = 1);
  void Fail(const std::string& what);
  size_t attempted() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  size_t attempted_ = 0;
  std::vector<std::string> failures_;
};

struct Args {
  std::string workload;
  uint64_t seed = 11;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the run (data dirs of the served workload).
  std::string work_dir;
};

/// Writes every counter and gauge of `snap` as one JSON object.
void WriteCounters(const iflex::obs::MetricRegistry::Snapshot& snap,
                   iflex::obs::JsonWriter* w);

/// Each workload writes its raw record as keys of the already-open
/// top-level JSON object.
void RunRefineWorkload(const Args& args, SpanRecorder* spans, RunLog* log,
                       iflex::obs::JsonWriter* w);
void RunServeWorkload(const Args& args, SpanRecorder* spans, RunLog* log,
                      iflex::obs::JsonWriter* w);

}  // namespace perfbench

#endif  // IFLEX_PERFBENCH_BENCH_H_
