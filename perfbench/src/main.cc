// iflex_perfbench: runs one benchmark workload against the iFlex
// libraries and writes its raw observations as one JSON object.
//
//   iflex_perfbench --workload refine-sim|full-join|serve-durable
//                   --seed N --seconds S --trace 0|1
//                   --work-dir DIR --out FILE
//
// perfbench/run.py builds and runs this binary, then derives, checks and
// prints the metrics; see perfbench/README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

uint32_t SpanRecorder::Begin(std::string_view name, const char* layer,
                             uint32_t trace, uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.parent = parent;
  s.trace = trace;
  s.name = std::string(name);
  s.layer = layer;
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::End(uint32_t id) {
  if (id == 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

void SpanRecorder::Add(std::string_view name, const char* layer,
                       uint32_t trace, uint32_t parent, int64_t start_ns,
                       int64_t end_ns) {
  if (!enabled_) return;
  Span s;
  s.parent = parent;
  s.trace = trace;
  s.name = std::string(name);
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(s));
}

void SpanRecorder::WriteJson(iflex::obs::JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginArray();
  for (const Span& s : spans_) {
    w->BeginArray();
    w->Number(static_cast<uint64_t>(s.id));
    w->Number(static_cast<uint64_t>(s.parent));
    w->Number(static_cast<uint64_t>(s.trace));
    w->String(s.name);
    w->String(s.layer);
    w->Number(static_cast<uint64_t>(s.start_ns));
    w->Number(static_cast<uint64_t>(s.end_ns < 0 ? s.start_ns : s.end_ns));
    w->EndArray();
  }
  w->EndArray();
}

void RunLog::Attempt(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void RunLog::Fail(const std::string& what) {
  std::fprintf(stderr, "[perfbench] FAIL: %s\n", what.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  failures_.push_back(what);
}

size_t RunLog::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::vector<std::string> RunLog::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

void WriteCounters(const iflex::obs::MetricRegistry::Snapshot& snap,
                   iflex::obs::JsonWriter* w) {
  w->BeginObject();
  for (const auto& [name, value] : snap.counters) w->Key(name).Number(value);
  for (const auto& [name, value] : snap.gauges) w->Key(name).Number(value);
  w->EndObject();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  NowNs();
  Args args;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (out_path.empty() || args.work_dir.empty()) {
    std::fprintf(stderr, "usage: %s --workload W --seed N --seconds S "
                         "--trace 0|1 --work-dir DIR --out FILE\n", argv[0]);
    return 2;
  }

  SpanRecorder spans;
  RunLog log;
  iflex::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("seed").Number(static_cast<uint64_t>(args.seed));
  w.Key("trace").Bool(args.trace);
  if (args.workload == "refine-sim" || args.workload == "full-join") {
    RunRefineWorkload(args, &spans, &log, &w);
  } else if (args.workload == "serve-durable") {
    RunServeWorkload(args, &spans, &log, &w);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  w.Key("peak_rss_kb").Number(static_cast<uint64_t>(usage.ru_maxrss));
  w.Key("attempted").Number(static_cast<uint64_t>(log.attempted()));
  w.Key("failures").BeginArray();
  for (const std::string& f : log.failures()) w.String(f);
  w.EndArray();
  w.Key("spans");
  spans.WriteJson(&w);
  w.EndObject();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(w.str().data(), 1, w.str().size(), f);
  std::fclose(f);
  return 0;
}
