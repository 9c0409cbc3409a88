// The serve-durable workload (README.md, "Workloads"): an in-process
// iflexd with durable sessions (fsync on every journal record, serial
// execution), driven closed-loop by one client connection per developer
// session over the real wire. Each pass starts the server on an empty
// data dir, runs every session's script, stops the server and times a
// fresh Start() that recovers the sessions from disk.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alog/program.h"
#include "bench.h"
#include "common/rng.h"
#include "datagen/movies.h"
#include "exec/executor.h"
#include "oracle/evaluate.h"
#include "oracle/timemodel.h"
#include "serve/client.h"
#include "serve/command_interpreter.h"
#include "serve/server.h"
#include "text/markup_parser.h"

namespace perfbench {
namespace {

using namespace iflex;
namespace fs = std::filesystem;

constexpr size_t kSessions = 3;
/// Refinement rounds per session and pass: every constraint takes every
/// position of the order twice (README.md, "Workloads").
constexpr int kRounds = 8;
/// Year bounds of the session queries; the seed deals them to sessions.
constexpr int kYears[] = {1970, 1980, 1990};
/// Restarts timed per pass, each recovering every session from disk.
constexpr int kRestarts = 5;
/// Correct answers for the two extractors of the session program; every
/// round applies all of them, in a seeded order.
constexpr const char* kConstraints[] = {
    "extractEbert 0 bold_font yes",
    "extractEbert 1 numeric yes",
    "extractImdb 0 italic_font yes",
    "extractImdb 1 numeric yes",
};
constexpr size_t kNumConstraints = std::size(kConstraints);

struct Command {
  std::string text;
  /// 'w': mutating (journaled), 'r': run, 'o': other.
  char kind = 'o';
  /// The run that ends a refinement round (every constraint applied).
  bool closes_round = false;
};

struct SessionPlan {
  std::string id;
  int year = 0;
  std::vector<Command> setup;   // gen, declare, rule, query
  std::vector<Command> script;  // setup + the refinement rounds
  size_t rule_commands = 0;
  size_t constrain_commands = 0;
};

std::vector<std::string> Rules(int year) {
  return {
      "rule q(t, t2) :- ebertPages(x), extractEbert(x, t, yr), "
      "imdbPages(y), extractImdb(y, t2, yr2), yr = yr2, yr < " +
          std::to_string(year) + ".",
      "rule extractEbert(x, t, yr) :- from(x, t), from(x, yr).",
      "rule extractImdb(x, t, yr) :- from(x, t), from(x, yr).",
  };
}

/// The developer's command script for one session: set up the program,
/// run it, then refine it round after round. The seed picks the session's
/// year bound from kYears and the order of its constraints; round r
/// applies that order rotated by r, reversed from round 4 on. Every seed
/// thus does about the same work, with different inputs per session.
SessionPlan MakePlan(uint64_t seed, size_t session) {
  SessionPlan plan;
  plan.id = "s" + std::to_string(session);
  Rng seed_rng(seed);
  size_t years[kSessions] = {0, 1, 2};
  for (size_t i = kSessions - 1; i > 0; --i) {
    std::swap(years[i], years[seed_rng.Uniform(i + 1)]);
  }
  plan.year = kYears[years[session]];
  Rng rng(seed * 7919 + session + 1);
  const std::vector<std::string> rules = Rules(plan.year);
  plan.setup = {{"gen movies", 'w'},
                {"declare extractEbert 1 2", 'w'},
                {"declare extractImdb 1 2", 'w'}};
  for (const std::string& r : rules) plan.setup.push_back({r, 'w'});
  plan.setup.push_back({"query q", 'w'});
  plan.rule_commands = rules.size();

  size_t order[kNumConstraints];
  for (size_t i = 0; i < kNumConstraints; ++i) order[i] = i;
  for (size_t i = kNumConstraints - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }

  plan.script = plan.setup;
  plan.script.push_back({"run", 'r'});
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      plan.script.push_back({"clear", 'w'});
      for (const std::string& r : rules) plan.script.push_back({r, 'w'});
    }
    for (size_t i = 0; i < kNumConstraints; ++i) {
      size_t k = (static_cast<size_t>(round) + i) % kNumConstraints;
      if (round >= kRounds / 2) k = kNumConstraints - 1 - k;
      plan.script.push_back(
          {std::string("constrain ") + kConstraints[order[k]], 'w'});
      plan.script.push_back({"run", 'r', i + 1 == kNumConstraints});
      ++plan.constrain_commands;
    }
  }
  return plan;
}

struct Expected {
  bool ok = false;
  std::string output;
};

/// What one session must answer: the script replayed through a batch
/// CommandInterpreter with no server in between.
struct Reference {
  std::vector<Expected> responses;
  std::string final_run;  // one more `run` after the script
  double superset_pct = 0;
  size_t gold_tuples = 0;
};

/// Gold answer of the session query over the `gen movies` corpus: every
/// (Ebert title, IMDB title) pair of one year before `year`. The corpus
/// is regenerated from the same spec the interpreter uses, and must
/// render byte-identically to the interpreter's, or the gold is refused.
Result<std::vector<std::vector<Value>>> MoviesGold(const Corpus& served,
                                                   int year) {
  MoviesSpec spec;
  spec.n_imdb = 50;
  spec.n_ebert = 50;
  spec.n_prasanna = 50;
  spec.n_shared = 10;
  Corpus corpus;
  MoviesData data = GenerateMovies(&corpus, spec);
  if (corpus.size() != served.size()) {
    return Status::Internal("gen movies corpus differs from the gold spec");
  }
  for (DocId d = 0; d < corpus.size(); ++d) {
    if (RenderMarkup(corpus.Get(d)) != RenderMarkup(served.Get(d))) {
      return Status::Internal("gen movies corpus differs from the gold spec");
    }
  }
  std::vector<std::vector<Value>> gold;
  for (const MovieRecord& e : data.ebert) {
    if (e.year >= year) continue;
    for (const MovieRecord& i : data.imdb) {
      if (i.year == e.year) {
        gold.push_back({Value::String(e.title), Value::String(i.title)});
      }
    }
  }
  return gold;
}

Reference BatchReference(const SessionPlan& plan, RunLog* log) {
  Reference ref;
  serve::CommandInterpreter interp;
  for (const Command& c : plan.script) {
    serve::CommandOutcome outcome = interp.Interpret(c.text);
    ref.responses.push_back({outcome.status.ok(), outcome.output});
  }
  ref.final_run = interp.Interpret("run").output;

  log->Attempt();
  auto gold = MoviesGold(interp.corpus(), plan.year);
  if (!gold.ok()) {
    log->Fail(plan.id + ": " + gold.status().ToString());
    return ref;
  }
  auto program = ParseProgram(interp.program_src(), interp.catalog());
  if (!program.ok()) {
    log->Fail(plan.id + ": final program: " + program.status().ToString());
    return ref;
  }
  program->set_query("q");
  Executor exec(interp.catalog());
  auto table = exec.Execute(*program);
  if (!table.ok()) {
    log->Fail(plan.id + ": final program: " + table.status().ToString());
    return ref;
  }
  EvalReport report = EvaluateResult(interp.corpus(), *table, *gold);
  ref.superset_pct = report.superset_pct;
  ref.gold_tuples = report.gold_tuples;
  if (report.gold_tuples == 0) {
    log->Fail(plan.id + ": empty gold answer");
  } else if (!report.covers_all_gold) {
    log->Fail(plan.id + ": result lost gold tuples: " + report.ToString());
  }
  return ref;
}

struct Request {
  char kind = 'o';
  bool closes_round = false;
  bool ok = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Deterministic per-session gauges the interpreter sets after every
/// command; equal before a stop and after recovery.
struct SessionState {
  struct Gauges {
    double documents = -1;
    double tables = -1;
    double program_bytes = -1;
    bool operator==(const Gauges&) const = default;
  };
  Gauges gauges;
  /// The session's whole telemetry exposition (exec.* counters too).
  std::string exposition;
};

double ReadGauge(const std::string& exposition, const std::string& name) {
  size_t pos = 0;
  while ((pos = exposition.find(name, pos)) != std::string::npos) {
    bool line_start = pos == 0 || exposition[pos - 1] == '\n';
    size_t eol = exposition.find('\n', pos);
    std::string line = exposition.substr(pos, eol - pos);
    pos = eol;
    if (!line_start) continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    return std::strtod(line.c_str() + space + 1, nullptr);
  }
  return -1;
}

Result<SessionState> ReadState(serve::LineClient* client,
                               const std::string& sid) {
  auto resp = client->Call("telemetry " + sid);
  if (!resp.ok()) return resp.status();
  if (!resp->ok) return Status::Internal("telemetry " + sid + ": " + resp->error);
  SessionState s;
  s.gauges.documents = ReadGauge(resp->output, "iflex_session_documents");
  s.gauges.tables = ReadGauge(resp->output, "iflex_session_tables");
  s.gauges.program_bytes =
      ReadGauge(resp->output, "iflex_session_program_bytes");
  s.exposition = resp->output;
  return s;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

serve::ServerOptions Options(const fs::path& dir) {
  serve::ServerOptions so;
  so.threads = 1;
  so.data_dir = dir.string();
  so.durability.fsync = durability::FsyncPolicy::kEveryRecord;
  so.run_id = "perfbench";
  // Every session is admitted at once: request latency has no queueing
  // term, so writes and runs keep their own latency (README.md).
  so.max_concurrent = kSessions;
  return so;
}

/// Sends `line`, records the request, and checks the response.
bool Call(serve::LineClient* client, const std::string& line,
          const Command& cmd, const Expected* want, uint32_t trace,
          uint32_t parent, SpanRecorder* spans, RunLog* log,
          std::vector<Request>* out) {
  Request r;
  r.kind = cmd.kind;
  r.closes_round = cmd.closes_round;
  log->Attempt();
  {
    const std::string& text = cmd.text.empty() ? line : cmd.text;
    ScopedSpan span(spans, "serve.request " + text.substr(0, text.find(' ')),
                    "serve", trace, parent);
    r.start_ns = NowNs();
    auto resp = client->Call(line);
    r.end_ns = NowNs();
    if (!resp.ok()) {
      log->Fail(line + ": transport: " + resp.status().ToString());
    } else if (want != nullptr &&
               (resp->ok != want->ok || resp->output != want->output)) {
      log->Fail(line + ": response differs from the batch replay");
    } else if (want == nullptr && !resp->ok) {
      log->Fail(line + ": " + resp->code + " " + resp->error);
    } else {
      r.ok = resp->ok;
    }
  }
  out->push_back(r);
  return r.ok;
}

void WriteSnapshot(const obs::MetricRegistry::Snapshot& snap,
                   obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("counters");
  WriteCounters(snap, w);
  for (const char* name : {"serve.request_ms", "serve.queue_ms"}) {
    w->Key(name).BeginArray();
    auto it = snap.histograms.find(name);
    if (it != snap.histograms.end()) {
      for (double v : it->second.samples) w->Number(v);
    }
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

void RunServeWorkload(const Args& args, SpanRecorder* spans, RunLog* log,
                      obs::JsonWriter* w) {
  const fs::path root = fs::path(args.work_dir) / "serve";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  w->Key("pool_threads").Number(static_cast<uint64_t>(1));

  std::vector<SessionPlan> plans;
  std::vector<Reference> refs;
  w->Key("reference").BeginArray();
  DeveloperTimeModel model;
  for (size_t s = 0; s < kSessions; ++s) plans.push_back(MakePlan(args.seed, s));
  refs.resize(kSessions);
  {
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] { refs[s] = BatchReference(plans[s], log); });
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t s = 0; s < kSessions; ++s) {
    const SessionPlan& p = plans[s];
    const Reference& r = refs[s];
    w->BeginObject();
    w->Key("session").String(p.id);
    w->Key("superset_pct").Number(r.superset_pct);
    w->Key("gold_tuples").Number(static_cast<uint64_t>(r.gold_tuples));
    w->Key("developer_min")
        .Number(model.IFlexSkeletonMinutes(p.rule_commands) +
                static_cast<double>(p.constrain_commands) *
                    model.seconds_per_question / 60.0);
    w->EndObject();
  }
  w->EndArray();
  uint32_t next_trace = 0;

  // ---- set-up: start on an empty data dir and set every session up ---
  // Repeated before the first pass and after every pass, so the samples
  // span the run instead of one burst.
  std::vector<double> setup_s;
  int setup_rep = 0;
  auto set_up = [&] {
    fs::path dir = root / ("setup" + std::to_string(setup_rep++));
    uint32_t trace = ++next_trace;
    int64_t start = NowNs();
    serve::Server server(Options(dir));
    Status st;
    {
      ScopedSpan span(spans, "serve.start", "serve", trace);
      log->Attempt();
      st = server.Start();
    }
    if (!st.ok()) {
      log->Fail("Server::Start: " + st.ToString());
      return;
    }
    serve::LineClient client;
    log->Attempt();
    if (!client.Connect(server.port()).ok()) {
      log->Fail("connect failed");
      return;
    }
    std::vector<Request> ignored;
    for (const SessionPlan& p : plans) {
      Call(&client, "open " + p.id, Command{}, nullptr, trace, 0, spans, log,
           &ignored);
      for (const Command& c : p.setup) {
        Call(&client, "cmd " + p.id + " " + c.text, c, nullptr, trace, 0,
             spans, log, &ignored);
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    client.Close();
    server.Stop();
    fs::remove_all(dir, ec);
  };
  constexpr int kSetupReps = 3;
  constexpr int kSetupRepsPerPass = 2;
  spans->set_enabled(args.trace);
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();

  // ---- timed passes --------------------------------------------------
  // The pass count is --seconds over the nominal pass length (3 s on a
  // 4-core host), rounded up, so a seed always does the same work.
  constexpr double kNominalPassS = 3;
  const int passes = std::max(
      args.trace ? 2 : 1,
      static_cast<int>(std::ceil(args.seconds / kNominalPassS)));
  w->Key("passes").BeginArray();
  for (int pass = 0; pass < passes; ++pass) {
    bool traced = args.trace && pass > 0;
    spans->set_enabled(traced);
    fs::path dir = root / ("pass" + std::to_string(pass));
    w->BeginObject();
    w->Key("traced").Bool(traced);

    serve::Server server(Options(dir));
    log->Attempt();
    Status st = server.Start();
    if (!st.ok()) {
      log->Fail("Server::Start: " + st.ToString());
      w->EndObject();
      break;
    }
    std::vector<std::vector<Request>> requests(kSessions);
    std::vector<std::thread> clients;
    for (size_t s = 0; s < kSessions; ++s) {
      uint32_t trace = ++next_trace;
      clients.emplace_back([&, s, trace] {
        const SessionPlan& p = plans[s];
        ScopedSpan session_span(spans, "serve.session " + p.id, "serve",
                                trace);
        serve::LineClient client;
        log->Attempt();
        if (!client.Connect(server.port()).ok()) {
          log->Fail(p.id + ": connect failed");
          return;
        }
        std::vector<Request> opened;
        if (!Call(&client, "open " + p.id, Command{}, nullptr, trace,
                  session_span.id(), spans, log, &opened)) {
          return;
        }
        for (size_t i = 0; i < p.script.size(); ++i) {
          Call(&client, "cmd " + p.id + " " + p.script[i].text, p.script[i],
               &refs[s].responses[i], trace, session_span.id(), spans, log,
               &requests[s]);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    // State before the stop, then the server's own counters.
    std::vector<SessionState> before(kSessions);
    {
      serve::LineClient client;
      if (client.Connect(server.port()).ok()) {
        for (size_t s = 0; s < kSessions; ++s) {
          log->Attempt();
          auto state = ReadState(&client, plans[s].id);
          if (!state.ok()) {
            log->Fail(state.status().ToString());
          } else {
            before[s] = *state;
          }
        }
      } else {
        log->Fail("connect failed");
      }
    }
    obs::MetricRegistry::Snapshot served = server.metrics().Snap();
    server.Stop();
    uint64_t dir_bytes = DirBytes(dir);

    // Restart over the populated data dir, several times: each Start()
    // replays every session's journal before the listener opens.
    std::vector<double> recover_s;
    obs::MetricRegistry::Snapshot recovered;
    for (int restart = 0; restart < kRestarts; ++restart) {
      serve::Server restarted(Options(dir));
      uint32_t trace = ++next_trace;
      int64_t recover_start = NowNs();
      {
        ScopedSpan span(spans, "serve.recover", "durability", trace);
        log->Attempt();
        st = restarted.Start();
      }
      recover_s.push_back(static_cast<double>(NowNs() - recover_start) / 1e9);
      if (!st.ok()) {
        log->Fail("restart: " + st.ToString());
        break;
      }
      obs::MetricRegistry::Snapshot snap = restarted.metrics().Snap();
      if (snap.counters["serve.sessions_recovered"] != kSessions) {
        log->Fail("restart recovered " +
                  std::to_string(snap.counters["serve.sessions_recovered"]) +
                  " of " + std::to_string(kSessions) + " sessions");
      }
      if (restart == 0) recovered = snap;
      serve::LineClient client;
      log->Attempt();
      if (!client.Connect(restarted.port()).ok()) {
        log->Fail("connect after restart failed");
        continue;
      }
      std::vector<Request> ignored;
      for (size_t s = 0; s < kSessions; ++s) {
        log->Attempt();
        auto state = ReadState(&client, plans[s].id);
        if (!state.ok() || !(state->gauges == before[s].gauges)) {
          log->Fail(plans[s].id + ": recovered state differs");
        }
        if (restart + 1 == kRestarts) {
          Expected want{true, refs[s].final_run};
          Call(&client, "cmd " + plans[s].id + " run", Command{"run", 'r'},
               &want, trace, 0, spans, log, &ignored);
        }
      }
      client.Close();
      restarted.Stop();
    }
    fs::remove_all(dir, ec);

    w->Key("recover_s").BeginArray();
    for (double x : recover_s) w->Number(x);
    w->EndArray();
    w->Key("telemetry").BeginArray();
    for (const SessionState& b : before) w->String(b.exposition);
    w->EndArray();
    w->Key("data_dir_bytes").Number(dir_bytes);
    w->Key("served");
    WriteSnapshot(served, w);
    w->Key("recovered");
    WriteSnapshot(recovered, w);
    w->Key("sessions").BeginArray();
    for (size_t s = 0; s < kSessions; ++s) {
      w->BeginObject();
      w->Key("session").String(plans[s].id);
      w->Key("documents").Number(before[s].gauges.documents);
      w->Key("requests").BeginArray();
      for (const Request& r : requests[s]) {
        w->BeginArray();
        w->String(std::string(1, r.kind));
        w->Bool(r.closes_round);
        w->Bool(r.ok);
        w->Number(static_cast<uint64_t>(r.start_ns));
        w->Number(static_cast<uint64_t>(r.end_ns));
        w->EndArray();
      }
      w->EndArray();
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();

    spans->set_enabled(args.trace);
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) set_up();
  }
  w->EndArray();
  w->Key("setup_s").BeginArray();
  for (double x : setup_s) w->Number(x);
  w->EndArray();
  fs::remove_all(root, ec);
}

}  // namespace perfbench
