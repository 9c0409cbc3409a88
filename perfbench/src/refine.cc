// The two in-process refinement workloads (README.md, "Workloads"):
//   refine-sim  Simulation-strategy sessions on a serial executor;
//   full-join   Sequential-strategy sessions on a TaskPool.
// Every session runs the paper's develop/execute/refine loop
// (RefinementSession::Run) against a simulated developer that the
// benchmark wraps, so each question the developer is asked is timed from
// outside the program.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "assistant/session.h"
#include "assistant/strategy.h"
#include "bench.h"
#include "exec/executor.h"
#include "oracle/evaluate.h"
#include "oracle/timemodel.h"
#include "runtime/task_pool.h"
#include "tasks/task.h"
#include "xlog/precise.h"

namespace perfbench {
namespace {

using namespace iflex;

struct Scenario {
  const char* id;
  size_t scale;
  std::string Name() const { return std::string(id) + "@" + std::to_string(scale); }
};

struct Config {
  std::vector<Scenario> scenarios;
  StrategyKind strategy = StrategyKind::kSimulation;
  /// TaskPool width; 0 runs every execution serially.
  size_t pool_threads = 0;
  bool require_converged = false;
  /// Nominal length of one pass over the scenarios on a 4-core host; the
  /// pass count is --seconds over it, rounded up, so a seed always does
  /// the same work.
  double nominal_pass_s = 5;
};

// Why these scenarios: README.md, "Workloads".
Config ConfigFor(const std::string& workload) {
  Config c;
  if (workload == "refine-sim") {
    c.scenarios = {{"T8", 2490}, {"T5", 500}, {"T7", 500}};
    c.strategy = StrategyKind::kSimulation;
    c.require_converged = true;
    c.nominal_pass_s = 4;
  } else {
    c.scenarios = {{"T3", 250}, {"T9", 500}};
    c.strategy = StrategyKind::kSequential;
    size_t hw = std::max(1u, std::thread::hardware_concurrency());
    c.pool_threads = std::min<size_t>(4, hw);
    c.nominal_pass_s = 4;
  }
  return c;
}

/// Forwards every call to the task's simulated developer and records
/// when each Ask started and ended, so the question waits exclude the
/// time spent answering.
class ForwardingDeveloper : public DeveloperInterface {
 public:
  ForwardingDeveloper(SimulatedDeveloper* inner, SpanRecorder* spans,
                      uint32_t trace, uint32_t parent)
      : inner_(inner), spans_(spans), trace_(trace), parent_(parent) {}

  Answer Ask(const Question& question, const Feature& feature) override {
    ScopedSpan span(spans_, "oracle.ask", "oracle", trace_, parent_);
    int64_t start = NowNs();
    Answer a = inner_->Ask(question, feature);
    asks_.emplace_back(start, NowNs());
    return a;
  }
  std::optional<Value> ProvideExample(const AttributeRef& attr) override {
    return inner_->ProvideExample(attr);
  }
  double LastAnswerSeconds() const override {
    return inner_->LastAnswerSeconds();
  }

  const std::vector<std::pair<int64_t, int64_t>>& asks() const {
    return asks_;
  }

 private:
  SimulatedDeveloper* inner_;
  SpanRecorder* spans_;
  uint32_t trace_;
  uint32_t parent_;
  std::vector<std::pair<int64_t, int64_t>> asks_;
};

/// While alive, moves the thread that made it to a CPU drawn at random
/// from those it may run on, every 100 ms. Other tenants slow single cores
/// of the host, each on its own, by up to several times for seconds at a
/// stretch, and a serial run that stayed on one core would read that
/// core's luck; hopping makes every unit read the cores' mean speed, as
/// a pooled run does (README.md, "Statistics and noise").
class CpuHopper {
 public:
  CpuHopper() : tid_(gettid()) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
    if (cpus.size() < 2) return;
    thread_ = std::thread([this, cpus] {
      std::minstd_rand rng(1);
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                           [this] { return stop_; })) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[rng() % cpus.size()], &one);
        (void)sched_setaffinity(tid_, sizeof(one), &one);  // best effort
      }
    });
  }
  ~CpuHopper() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  const pid_t tid_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// A finished session of the last pass, kept for the post-pass phases.
struct Finished {
  Scenario scenario;
  std::unique_ptr<TaskInstance> task;
  SessionResult result;
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::unique_ptr<TaskInstance> BuildTask(const Scenario& sc, uint64_t seed,
                                        RunLog* log) {
  log->Attempt();
  auto task = MakeTask(sc.id, sc.scale, seed);
  if (!task.ok()) {
    log->Fail(sc.Name() + ": MakeTask: " + task.status().ToString());
    return nullptr;
  }
  return std::move(*task);
}

/// Runs one refinement session and writes its record; returns the
/// finished session when it succeeded.
std::optional<Finished> RunSession(const Config& cfg, const Scenario& sc,
                                   std::unique_ptr<TaskInstance> task,
                                   runtime::TaskPool* pool, uint32_t trace,
                                   SpanRecorder* spans, RunLog* log,
                                   obs::JsonWriter* w) {
  obs::MetricRegistry registry;
  SessionOptions options;
  options.strategy = cfg.strategy;
  options.pool = pool;
  options.exec_options.metrics = &registry;

  uint32_t run_span =
      spans->Begin("assistant.run " + sc.Name(), "assistant", trace, 0);
  ForwardingDeveloper developer(task->developer.get(), spans, trace, run_span);
  RefinementSession session(*task->catalog, task->initial_program, &developer,
                            options);
  log->Attempt();
  int64_t start = NowNs();
  Result<SessionResult> result = session.Run();
  int64_t end = NowNs();
  spans->End(run_span);
  if (!result.ok()) {
    log->Fail(sc.Name() + ": Run: " + result.status().ToString());
    return std::nullopt;
  }
  // The assistant asks its questions in rounds, one per iteration. The
  // interval before a round's first ask is the assistant's work the
  // developer waits through; the questions of a round come together.
  std::vector<size_t> rounds;
  for (const IterationRecord& it : result->iterations) {
    if (!it.questions.empty()) rounds.push_back(it.questions.size());
  }
  const auto& asks = developer.asks();
  size_t questions = 0;
  for (size_t n : rounds) questions += n;
  if (questions != asks.size()) {
    log->Fail(sc.Name() + ": " + std::to_string(asks.size()) +
              " asks for " + std::to_string(questions) +
              " questions in the iterations");
  }
  int64_t prev = start;
  size_t next_ask = 0;
  for (size_t n : rounds) {
    if (next_ask + n > asks.size()) break;
    spans->Add("assistant.question_wait", "assistant", trace, run_span, prev,
               asks[next_ask].first);
    next_ask += n;
    prev = asks[next_ask - 1].second;
  }
  spans->Add("assistant.result_wait", "assistant", trace, run_span, prev, end);

  uint32_t eval_span = spans->Begin("oracle.evaluate", "oracle", trace, 0);
  log->Attempt();
  int64_t eval_start = NowNs();
  EvalReport report = EvaluateResult(*task->corpus, result->final_result,
                                     task->gold.query_result);
  int64_t eval_end = NowNs();
  spans->End(eval_span);

  if (result->report.degraded) {
    log->Fail(sc.Name() + ": session degraded: " + result->report.ToString());
  }
  if (!report.covers_all_gold) {
    log->Fail(sc.Name() + ": result lost gold tuples: " + report.ToString());
  }
  if (cfg.require_converged && !result->converged) {
    log->Fail(sc.Name() + ": session did not converge");
  }

  DeveloperTimeModel model;
  double developer_min =
      model.IFlexSkeletonMinutes(task->n_rules) +
      static_cast<double>(result->questions_asked) *
          model.seconds_per_question / 60.0 +
      task->cleanup_minutes;

  w->BeginObject();
  w->Key("scenario").String(sc.Name());
  w->Key("documents").Number(static_cast<uint64_t>(task->corpus->size()));
  w->Key("run_start_ns").Number(static_cast<uint64_t>(start));
  w->Key("run_end_ns").Number(static_cast<uint64_t>(end));
  w->Key("asks").BeginArray();
  for (const auto& [ask_start, ask_end] : asks) {
    w->BeginArray();
    w->Number(static_cast<uint64_t>(ask_start));
    w->Number(static_cast<uint64_t>(ask_end));
    w->EndArray();
  }
  w->EndArray();
  w->Key("rounds").BeginArray();
  for (size_t n : rounds) w->Number(static_cast<uint64_t>(n));
  w->EndArray();
  w->Key("questions").Number(static_cast<uint64_t>(result->questions_asked));
  w->Key("simulations").Number(static_cast<uint64_t>(result->simulations_run));
  w->Key("dont_knows")
      .Number(static_cast<uint64_t>(task->developer->dont_knows()));
  w->Key("superset_pct").Number(report.superset_pct);
  w->Key("developer_min").Number(developer_min);
  w->Key("evaluate_ms").Number(Ms(eval_end - eval_start));
  w->Key("counters");
  WriteCounters(registry.Snap(), w);
  w->EndObject();
  return Finished{sc, std::move(task), std::move(*result)};
}

/// Cold Execute of `program` on a fresh executor (no reuse cache, private
/// Verify memo); returns the wall ms, or nullopt after logging a failure.
/// `check` inspects the result.
std::optional<double> ColdExecute(
    const Finished& f, const Program& program, runtime::TaskPool* pool,
    const char* what, uint32_t trace, SpanRecorder* spans, RunLog* log,
    const std::function<void(const CompactTable&)>& check) {
  ExecOptions options;
  options.pool = pool;
  Executor exec(*f.task->catalog, options);
  ScopedSpan span(spans, std::string("exec.execute ") + what,
                  pool != nullptr ? "runtime" : "exec", trace);
  log->Attempt();
  int64_t start = NowNs();
  Result<CompactTable> result = exec.Execute(program);
  int64_t end = NowNs();
  if (!result.ok()) {
    log->Fail(f.scenario.Name() + ": " + what +
              " execute: " + result.status().ToString());
    return std::nullopt;
  }
  check(*result);
  return Ms(end - start);
}

/// Timing samples gathered across the whole run, so that they span the
/// run's host-speed phases instead of one burst (README.md, "Statistics and noise").
struct Samples {
  std::map<std::string, std::vector<double>> make_task_ms;
  std::map<std::string, std::vector<double>> recover_ms;
  std::map<std::string, std::vector<double>> execute_ms;
  std::map<std::string, std::vector<double>> serial_execute_ms;
  /// Per scenario, one sample per recovery: mean ms per answer applied.
  std::map<std::string, std::vector<double>> write_ms;
  std::vector<double> xlog_execute_ms;
};

std::unique_ptr<TaskInstance> TimedBuild(const Scenario& sc, uint64_t seed,
                                         uint32_t trace, SpanRecorder* spans,
                                         RunLog* log, Samples* samples) {
  ScopedSpan span(spans, "tasks.make_task " + sc.Name(), "tasks", trace);
  int64_t start = NowNs();
  std::unique_ptr<TaskInstance> task = BuildTask(sc, seed, log);
  if (task != nullptr) {
    samples->make_task_ms[sc.Name()].push_back(Ms(NowNs() - start));
  }
  return task;
}

/// Re-applies every answer of a finished session to `program`; returns
/// how many. Failures are logged when `log` is set.
size_t ReplayAnswers(const Finished& f, const Catalog& catalog,
                     Program* program, RunLog* log) {
  size_t answers = 0;
  for (const IterationRecord& it : f.result.iterations) {
    for (size_t i = 0; i < it.questions.size(); ++i) {
      ++answers;
      Status st = ApplyAnswer(program, catalog, it.questions[i], it.answers[i]);
      if (log == nullptr) continue;
      log->Attempt();
      if (!st.ok()) {
        log->Fail(f.scenario.Name() + ": ApplyAnswer: " + st.ToString());
      }
    }
  }
  return answers;
}

/// Rebuilds a finished session from its durable record: the scenario and
/// the developer's answers. Recovery builds the task and re-applies every
/// answer, each application being one program write.
void Recover(const Finished& f, uint64_t seed, uint32_t trace, bool check,
             SpanRecorder* spans, RunLog* log, Samples* samples) {
  int64_t start = NowNs();
  std::unique_ptr<TaskInstance> task =
      TimedBuild(f.scenario, seed, trace, spans, log, samples);
  if (task == nullptr) return;
  Program program = task->initial_program;
  {
    ScopedSpan span(spans, "assistant.apply_answers", "assistant", trace);
    ReplayAnswers(f, *task->catalog, &program, log);
  }
  int64_t end = NowNs();
  // One answer takes about a microsecond, so the write sample is the
  // fastest of several whole replays, per answer.
  constexpr int kWriteReps = 50;
  int64_t best = std::numeric_limits<int64_t>::max();
  size_t answers = 0;
  for (int rep = 0; rep < kWriteReps; ++rep) {
    Program scratch = task->initial_program;
    int64_t replay_start = NowNs();
    answers = ReplayAnswers(f, *task->catalog, &scratch, nullptr);
    best = std::min(best, NowNs() - replay_start);
  }
  if (answers > 0) {
    samples->write_ms[f.scenario.Name()].push_back(
        Ms(best) / static_cast<double>(answers));
  }
  samples->recover_ms[f.scenario.Name()].push_back(Ms(end - start));
  if (check && program.ToString() != f.result.final_program.ToString()) {
    log->Fail(f.scenario.Name() +
              ": replayed answers do not rebuild the final program");
  }
}

/// Cold executes of a session's final program; the first result must be
/// byte-identical to the session's own final result.
void ExecuteFinal(const Finished& f, runtime::TaskPool* pool, int reps,
                  uint32_t trace, SpanRecorder* spans, RunLog* log,
                  std::vector<double>* out) {
  const char* what = pool != nullptr ? "final (pool)" : "final";
  std::string want = f.result.final_result.ToString(f.task->corpus.get());
  for (int rep = 0; rep < reps; ++rep) {
    std::optional<double> ms = ColdExecute(
        f, f.result.final_program, pool, what, trace, spans, log,
        [&](const CompactTable& table) {
          if (rep == 0 && table.ToString(f.task->corpus.get()) != want) {
            log->Fail(f.scenario.Name() + ": " + what +
                      " execute differs from the session's final result");
          }
        });
    if (!ms.has_value()) return;
    out->push_back(*ms);
  }
}

/// The precise Xlog baseline of a scenario must be exact.
void RunXlog(const Finished& f, SpanRecorder* spans, RunLog* log,
             Samples* samples) {
  log->Attempt();
  Status st = AddPreciseBaseline(f.task.get());
  if (!st.ok()) {
    log->Fail(f.scenario.Name() + ": AddPreciseBaseline: " + st.ToString());
    return;
  }
  const auto& gold = f.task->apply_cleanup ? f.task->cleanup_gold
                                           : f.task->gold.query_result;
  std::optional<double> ms = ColdExecute(
      f, f.task->precise_program, nullptr, "xlog", 0, spans, log,
      [&](const CompactTable& table) {
        EvalReport report = EvaluateResult(*f.task->corpus, table, gold);
        if (!report.exact) {
          log->Fail(f.scenario.Name() +
                    ": Xlog baseline not exact: " + report.ToString());
        }
      });
  if (ms.has_value()) samples->xlog_execute_ms.push_back(*ms);
}

void WriteSampleMap(const char* key,
                    const std::map<std::string, std::vector<double>>& map,
                    obs::JsonWriter* w) {
  w->Key(key).BeginObject();
  for (const auto& [name, values] : map) {
    w->Key(name).BeginArray();
    for (double v : values) w->Number(v);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

void RunRefineWorkload(const Args& args, SpanRecorder* spans, RunLog* log,
                       obs::JsonWriter* w) {
  const Config cfg = ConfigFor(args.workload);
  std::unique_ptr<runtime::TaskPool> pool;
  if (cfg.pool_threads > 0) {
    pool = std::make_unique<runtime::TaskPool>(cfg.pool_threads);
  }
  std::optional<CpuHopper> hopper;
  if (pool == nullptr) hopper.emplace();
  w->Key("pool_threads").Number(static_cast<uint64_t>(cfg.pool_threads));
  uint32_t next_trace = 0;
  Samples samples;

  // ---- warm-up: build the scenarios, untimed, for a second -----------
  // A process starts on a cold CPU (clock ramp, empty caches); the first
  // timed set-up would otherwise read slow.
  for (int64_t start = NowNs(); NowNs() - start < 1000000000;) {
    for (const Scenario& sc : cfg.scenarios) {
      (void)MakeTask(sc.id, sc.scale, args.seed);
    }
  }

  // ---- set-up: build every scenario; every later build adds a sample --
  constexpr int kSetupReps = 3;
  spans->set_enabled(args.trace);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (const Scenario& sc : cfg.scenarios) {
      TimedBuild(sc, args.seed, ++next_trace, spans, log, &samples);
    }
  }

  // ---- timed passes over every scenario ------------------------------
  // After each session: recover it from its record eight times, and execute its
  // final program cold on the full data: three times a pass when that is
  // cheap, in the first pass (and the first traced one) only when it is
  // not (a long execute already spans the host's speed phases).
  // A traced run times one untraced pass first; the traced passes that
  // follow give the per-layer numbers and the tracing overhead.
  constexpr int kRecoverReps = 8;
  constexpr double kCheapExecuteMs = 200;
  constexpr int kCheapExecuteReps = 3;
  const int passes = std::max(
      args.trace ? 2 : 1,
      static_cast<int>(std::ceil(args.seconds / cfg.nominal_pass_s)));
  std::vector<Finished> finished;
  w->Key("passes").BeginArray();
  for (int pass = 0; pass < passes; ++pass) {
    bool traced = args.trace && pass > 0;
    spans->set_enabled(traced);
    finished.clear();
    w->BeginObject();
    w->Key("traced").Bool(traced);
    w->Key("sessions").BeginArray();
    for (const Scenario& sc : cfg.scenarios) {
      uint32_t trace = ++next_trace;
      std::unique_ptr<TaskInstance> task =
          TimedBuild(sc, args.seed, trace, spans, log, &samples);
      if (task == nullptr) continue;
      std::optional<Finished> f = RunSession(cfg, sc, std::move(task),
                                             pool.get(), trace, spans, log, w);
      if (!f.has_value()) continue;
      for (int rep = 0; rep < kRecoverReps; ++rep) {
        Recover(*f, args.seed, trace, pass == 0 && rep == 0, spans, log,
                &samples);
      }
      std::vector<double>& exec_ms = samples.execute_ms[sc.Name()];
      bool cheap = !exec_ms.empty() && exec_ms.back() < kCheapExecuteMs;
      if (exec_ms.empty() || cheap || (traced && pass == 1)) {
        ExecuteFinal(*f, pool.get(), cheap ? kCheapExecuteReps : 1, trace,
                     spans, log, &exec_ms);
      }
      finished.push_back(std::move(*f));
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  spans->set_enabled(args.trace);

  for (const Finished& f : finished) RunXlog(f, spans, log, &samples);
  // Traced run only: the serial final execute beside the pooled one.
  if (args.trace && pool != nullptr) {
    for (const Finished& f : finished) {
      ExecuteFinal(f, nullptr, 1, 0, spans, log,
                   &samples.serial_execute_ms[f.scenario.Name()]);
    }
  }

  WriteSampleMap("make_task_ms", samples.make_task_ms, w);
  WriteSampleMap("recover_ms", samples.recover_ms, w);
  WriteSampleMap("execute_ms", samples.execute_ms, w);
  WriteSampleMap("serial_execute_ms", samples.serial_execute_ms, w);
  WriteSampleMap("write_ms", samples.write_ms, w);
  w->Key("xlog_execute_ms").BeginArray();
  for (double ms : samples.xlog_execute_ms) w->Number(ms);
  w->EndArray();
}

}  // namespace perfbench
