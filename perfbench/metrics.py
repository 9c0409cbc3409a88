"""Arithmetic of the iFlex benchmark: percentiles, ratios with their
bases, question waits, span self time, and the metrics derived from the
raw record the runner binary writes (see README.md for every definition).
Pure functions, covered by test_metrics.py."""

import math
import statistics

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50, 75, 80, 90, 95, 99, 99.9)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. Returns (value, samples beyond it)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1], n - rank


class Tail:
    def __init__(self, p, value, beyond, n):
        self.p, self.value, self.beyond, self.n = p, value, beyond, n

    def __str__(self):
        return "p%g of %d samples (%d beyond)" % (self.p, self.n, self.beyond)


def tail(values):
    """The highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples beyond it, never below the median. With too few samples for
    any it is the median (the printed count then shows it is unresolved)."""
    best = Tail(50, median(values), len(values) // 2, len(values))
    for p in TAIL_LADDER:
        value, beyond = percentile(values, p)
        if beyond >= TAIL_MIN_BEYOND and value >= best.value:
            best = Tail(p, value, beyond, len(values))
    return best


class Ratio:
    """A ratio that keeps its base, so it never prints without it."""

    def __init__(self, num, den):
        self.num, self.den = num, den
        self.value = num / den if den else 0.0

    def __str__(self):
        return "%.4g (%s/%s)" % (self.value, _fmt(self.num), _fmt(self.den))


def _fmt(x):
    return "%d" % x if float(x).is_integer() else "%.4g" % x


def question_waits(run_start, asks, run_end, rounds=None):
    """Splits one session into the developer's waits. The assistant asks
    its questions in rounds (one per iteration; `rounds` gives each
    round's question count, one question each when None). A wait runs
    from the session start or the end of the previous round's last Ask to
    the round's first Ask; the questions of a round come together, so the
    gaps between them are no wait. The result wait runs from the last Ask
    to the end of Run. Time inside Ask is excluded. Returns
    (waits, result_wait), in the input's unit."""
    if rounds is None:
        rounds = [1] * len(asks)
    waits = []
    prev = run_start
    first = 0
    for n in rounds:
        waits.append(asks[first][0] - prev)
        first += n
        prev = asks[first - 1][1]
    return waits, run_end - prev


def self_times(spans):
    """Per-layer span time. spans: [id, parent, trace, name, layer, start,
    end]. A span's self time is its duration minus the part of it that its
    children cover. Returns {layer: [count, total, self]}."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        start, end = s[5], s[6]
        covered = 0
        cursor = start
        for c in sorted(children.get(s[0], []), key=lambda c: c[5]):
            lo, hi = max(c[5], cursor), min(c[6], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = out.setdefault(s[4], [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered
    return out


# ---- metrics from the raw record -----------------------------------------
#
# A unit is one piece of deterministic work that every pass repeats: a
# session of a scenario, one question of it, or one request of a served
# session. A unit's time is its fastest repetition in the run, because
# other tenants of the host only ever add time (README.md, "Statistics").
# Metrics are then medians, tails or sums over units. The question waits
# of a refinement workload are the exception: their median and tail are
# taken over every wait of every pass, which reads steadier across runs
# than the median of each wait's fastest repetition.

def _untraced(raw):
    passes = [p for p in raw["passes"] if not p["traced"]]
    return passes or raw["passes"]


def _traced(raw):
    passes = [p for p in raw["passes"] if p["traced"]]
    return passes or raw["passes"]


def fastest(repetitions):
    """Element-wise minimum over repetitions of equally long sequences
    (truncated to the shortest)."""
    return [min(xs) for xs in zip(*repetitions)]


def sum_of_medians(samples):
    """Sum over the keys of {key: [samples]} of each key's median."""
    return sum(median(v) for v in samples.values())


def sum_of_fastest(samples):
    """Sum over the keys of {key: [samples]} of each key's minimum."""
    return sum(min(v) for v in samples.values() if v)


def _refine_summary(passes):
    """End-to-end numbers of a refinement workload over `passes`."""
    runs, results, waits = {}, {}, []
    questions = 0
    for i, p in enumerate(passes):
        for s in p["sessions"]:
            sc = s["scenario"]
            w, rw = question_waits(s["run_start_ns"], s["asks"],
                                   s["run_end_ns"], s["rounds"])
            waits.extend(x / 1e6 for x in w)
            runs.setdefault(sc, []).append(
                (s["run_end_ns"] - s["run_start_ns"]) / 1e9)
            results.setdefault(sc, []).append(rw / 1e9)
            if i == 0:
                questions += s["questions"]
    refine_s = sum_of_fastest(runs)
    interactions = questions + len(runs)
    return {
        "refine_s": refine_s,
        "waits_ms": waits,
        "result_wait_s": sum_of_fastest(results),
        "requests_per_s": interactions / refine_s if refine_s else 0.0,
        "interactions": interactions,
    }


def _serve_summary(passes):
    """End-to-end numbers of the served workload over `passes`."""
    walls, latencies, kinds = {}, {}, {}
    for p in passes:
        for s in p["sessions"]:
            reqs = s["requests"]
            if not reqs:
                continue
            sid = s["session"]
            walls.setdefault(sid, []).append((reqs[-1][4] - reqs[0][3]) / 1e9)
            latencies.setdefault(sid, []).append(
                [(end - start) / 1e6 for _k, _c, _ok, start, end in reqs])
            kinds[sid] = [(k, c) for k, c, _ok, _s, _e in reqs]
    lat, writes, runs, closing = [], [], [], 0.0
    for sid, reps in latencies.items():
        closers = []
        for (kind, closes), ms in zip(kinds[sid], fastest(reps)):
            lat.append(ms)
            if kind == "w":
                writes.append(ms)
            elif kind == "r":
                runs.append(ms)
                if closes:
                    closers.append(ms)
        closing += median(closers) / 1e3
    per_pass = sum(len(k) for k in kinds.values())
    refine_s = sum_of_fastest(walls)
    return {
        "refine_s": refine_s,
        "waits_ms": lat,
        "result_wait_s": closing,
        "requests_per_s": per_pass / refine_s if refine_s else 0.0,
        "write_ms": writes,
        "run_ms": runs,
        "interactions": per_pass,
    }


def is_serve(raw):
    return raw["workload"] == "serve-durable"


def end_to_end(raw):
    """{metric: (value, unit, note)} over the untraced passes."""
    serve = is_serve(raw)
    passes = _untraced(raw)
    x = (_serve_summary if serve else _refine_summary)(passes)
    m = {}
    if serve:
        m["setup_s"] = (median(raw["setup_s"]), "s",
                        "median of %d set-ups" % len(raw["setup_s"]))
    else:
        m["setup_s"] = (sum_of_medians(raw["make_task_ms"]) / 1e3, "s",
                        "sum over scenarios of the median of %d builds"
                        % min(len(v) for v in raw["make_task_ms"].values()))
    m["refine_s"] = (x["refine_s"], "s",
                     "sum over sessions, fastest of %d passes" % len(passes))
    t = tail(x["waits_ms"])
    m["question_wait_p50_ms"] = (median(x["waits_ms"]), "ms",
                                 "median of %d waits" % len(x["waits_ms"]))
    m["question_wait_tail_ms"] = (t.value, "ms", str(t))
    m["result_wait_s"] = (x["result_wait_s"], "s", "sum over sessions")
    if serve:
        supersets = [r["superset_pct"] for r in raw["reference"]]
    else:
        supersets = [s["superset_pct"] for s in raw["passes"][0]["sessions"]]
    m["superset_pct"] = (statistics.mean(supersets) if supersets else 0.0, "%",
                         "mean of %d sessions" % len(supersets))
    m["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024.0, "MB", "")
    m["requests_per_s"] = (x["requests_per_s"], "1/s",
                           "%d interactions per pass" % x["interactions"])
    if serve:
        m["write_p50_ms"] = (median(x["write_ms"]), "ms",
                             "median of %d writes" % len(x["write_ms"]))
        m["execute_p50_ms"] = (median(x["run_ms"]), "ms",
                               "median of %d runs" % len(x["run_ms"]))
        recovers = [r for p in passes for r in p["recover_s"]]
        m["recover_s"] = (min(recovers), "s", "fastest of %d restarts"
                          % len(recovers))
    else:
        writes = [min(v) for v in raw["write_ms"].values() if v]
        m["write_p50_ms"] = (median(writes), "ms",
                             "median of %d sessions' fastest mean per answer" % len(writes))
        execs = [min(v) for v in raw["execute_ms"].values() if v]
        m["execute_p50_ms"] = (median(execs), "ms",
                               "median of %d sessions" % len(execs))
        m["recover_s"] = (sum_of_fastest(raw["recover_ms"]) / 1e3, "s",
                          "sum over sessions, fastest of %d"
                          % min(len(v) for v in raw["recover_ms"].values()))
    return m


def _sum_counters(sessions, prefix):
    total = {}
    for s in sessions:
        for k, v in s.items():
            if k.startswith(prefix):
                name = k[len(prefix):]
                total[name] = total.get(name, 0) + v
    return total


def _exec_layer(c, prefix, out, top_level):
    g = lambda k: c.get(k, 0)
    out[prefix + "rules_evaluated"] = g("rules_evaluated")
    out[prefix + "rules_compiled_ratio"] = Ratio(g("rules_compiled"),
                                                 g("rules_evaluated"))
    out[prefix + "join_pairs"] = g("join_pairs")
    if top_level:
        out[prefix + "join_probes"] = g("join_probes")
    out[prefix + "join_pairs_per_tuple"] = Ratio(g("join_pairs"),
                                                 g("tuples_emitted"))
    out[prefix + "constraint_cells"] = g("constraint_cells")
    out[prefix + "reuse_hit_ratio"] = Ratio(
        g("cache_hits"), g("cache_hits") + g("cache_misses"))
    # The intern/verify-memo counters are cumulative snapshots that the
    # simulation registries sum on merge, so only the top-level ones make a
    # ratio (README.md, "Counter defect").
    if top_level:
        out[prefix + "verify_memo_hit_ratio"] = Ratio(
            g("verify_memo_hits"), g("verify_memo_hits") + g("verify_memo_misses"))


def parse_openmetrics(text):
    """{metric name: value} of the samples of one exposition, with the
    iflex_ prefix and _total suffix removed and '_' for '.' kept as is."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        try:
            value = float(line.rsplit(" ", 1)[1])
        except (IndexError, ValueError):
            continue
        if name.startswith("iflex_"):
            name = name[len("iflex_"):]
        if name.endswith("_total"):
            name = name[:-len("_total")]
        out[name] = out.get(name, 0) + value
    return out


def per_layer(raw):
    """{metric: value or Ratio} over the traced passes; layers a workload
    does not use read 0."""
    serve = is_serve(raw)
    traced = _traced(raw)
    last = traced[-1]
    out = {}
    out["tasks.make_task_ms"] = sum_of_fastest(raw.get("make_task_ms", {}))
    out["datagen.documents"] = sum(s.get("documents", 0)
                                   for s in last["sessions"])

    sessions = [] if serve else last["sessions"]
    counters = [s["counters"] for s in sessions]
    session = _sum_counters(counters, "session.")
    questions = sum(s["questions"] for s in sessions)
    sims = sum(s["simulations"] for s in sessions)
    ask_ns = sum(e - b for s in sessions for b, e in s["asks"])
    run_ns = sum(s["run_end_ns"] - s["run_start_ns"] for s in sessions)
    out["assistant.iterations"] = session.get("iterations", 0)
    out["assistant.questions"] = questions
    out["assistant.simulations"] = sims
    out["assistant.simulations_per_question"] = Ratio(sims, questions)
    out["assistant.subset_grows"] = session.get("subset_grows", 0)
    out["assistant.run_ms"] = (run_ns - ask_ns) / 1e6
    out["oracle.ask_ms"] = ask_ns / 1e6
    out["oracle.asks"] = sum(len(s["asks"]) for s in sessions)
    out["oracle.dont_knows"] = sum(s["dont_knows"] for s in sessions)
    out["oracle.evaluate_ms"] = sum(s["evaluate_ms"] for s in sessions)
    out["oracle.developer_min"] = sum(
        s["developer_min"] for s in (raw["reference"] if serve else sessions))

    threads = raw.get("pool_threads", 0)
    pool_ms = 0.0
    if serve:
        final_ms = 0.0
    elif threads:
        final_ms = sum_of_fastest(raw.get("serial_execute_ms", {}))
        pool_ms = sum_of_fastest(raw["execute_ms"])
    else:
        final_ms = sum_of_fastest(raw["execute_ms"])
    out["exec.final_execute_ms"] = final_ms
    out["exec.xlog_execute_ms"] = sum(raw.get("xlog_execute_ms", []))

    if serve:
        top = {}
        for text in last.get("telemetry", []):
            for k, v in parse_openmetrics(text).items():
                if k.startswith("exec_"):
                    top[k[len("exec_"):]] = top.get(k[len("exec_"):], 0) + v
        sim = {}
    else:
        top = _sum_counters(counters, "exec.")
        sim = _sum_counters(counters, "sim.exec.")
    _exec_layer(top, "exec.", out, top_level=True)
    _exec_layer(sim, "sim.exec.", out, top_level=False)

    out["runtime.pool_threads"] = threads
    out["runtime.final_execute_pool_ms"] = pool_ms
    out["runtime.parallel_efficiency"] = Ratio(final_ms, pool_ms * threads) \
        if pool_ms else Ratio(0, 0)

    if serve:
        served = last["served"]
        c = served["counters"]
        client_p50 = median(_serve_summary([last])["waits_ms"])
        server_p50 = median(served["serve.request_ms"])
        out["serve.request_ms_p50"] = server_p50
        out["serve.queue_ms_tail"] = tail(served["serve.queue_ms"]).value
        out["serve.wire_ms_p50"] = client_p50 - server_p50
        out["serve.rejected"] = (c.get("serve.rejected_overload", 0) +
                                 c.get("serve.rejected_deadline", 0))
        out["serve.errors"] = c.get("serve.errors", 0)
        appends = c.get("serve.journal_appends", 0)
        replayed = last["recovered"]["counters"].get("serve.replayed_commands", 0)
        recover_ms = min(last["recover_s"]) * 1e3
        out["durability.journal_appends"] = appends
        out["durability.journal_bytes_per_write"] = Ratio(last["data_dir_bytes"],
                                                          appends)
        out["durability.snapshots"] = c.get("serve.snapshots", 0)
        out["durability.replayed_commands"] = replayed
        out["durability.recover_ms_per_command"] = Ratio(recover_ms, replayed)
    else:
        for k in ("serve.request_ms_p50", "serve.queue_ms_tail",
                  "serve.wire_ms_p50", "serve.rejected", "serve.errors",
                  "durability.journal_appends", "durability.snapshots",
                  "durability.replayed_commands"):
            out[k] = 0
        out["durability.journal_bytes_per_write"] = Ratio(0, 0)
        out["durability.recover_ms_per_command"] = Ratio(0, 0)

    untraced = [p for p in raw["passes"] if not p["traced"]]
    if untraced and len(traced) and traced is not raw["passes"]:
        f = _serve_summary if serve else _refine_summary
        base = f(untraced)["refine_s"]
        with_spans = f(traced)["refine_s"]
        out["obs.trace_overhead_pct"] = 100.0 * (with_spans - base) / base
    else:
        out["obs.trace_overhead_pct"] = 0.0
    return out


def deterministic_counts(raw):
    """Counts that must repeat exactly for a seed, per pass:
    [{name: value}]. Compared across the passes of a run and across runs."""
    out = []
    if is_serve(raw):
        ref = {"%s.%s" % (r["session"], k): r[k] for r in raw["reference"]
               for k in ("superset_pct", "developer_min", "gold_tuples")}
        for p in raw["passes"]:
            c = dict(ref)
            sc = p["served"]["counters"]
            c["serve.journal_appends"] = sc.get("serve.journal_appends", 0)
            c["serve.snapshots"] = sc.get("serve.snapshots", 0)
            c["serve.replayed_commands"] = p["recovered"]["counters"].get(
                "serve.replayed_commands", 0)
            for i, text in enumerate(p.get("telemetry", [])):
                om = parse_openmetrics(text)
                for k in ("exec_rules_evaluated", "exec_join_pairs"):
                    c["s%d.%s" % (i, k.replace("_", ".", 1))] = om.get(k, 0)
            out.append(c)
        return out
    for p in raw["passes"]:
        c = {}
        for s in p["sessions"]:
            sc = s["scenario"]
            for k in ("questions", "simulations", "developer_min",
                      "superset_pct"):
                c["%s.%s" % (sc, k)] = s[k]
            for k in ("exec.join_pairs", "sim.exec.join_pairs",
                      "exec.rules_evaluated", "sim.exec.rules_evaluated"):
                c["%s.%s" % (sc, k)] = s["counters"].get(k, 0)
        out.append(c)
    return out


def count_mismatches(reference, other):
    """Names whose values differ between two count dicts (missing counts
    as a difference)."""
    names = set(reference) | set(other)
    return sorted(n for n in names if reference.get(n) != other.get(n))


def _units():
    units = {}
    count = ("datagen.documents", "assistant.iterations", "assistant.questions",
             "assistant.simulations", "assistant.subset_grows", "oracle.asks",
             "oracle.dont_knows", "runtime.pool_threads", "serve.rejected",
             "serve.errors", "durability.journal_appends",
             "durability.snapshots", "durability.replayed_commands")
    ms = ("tasks.make_task_ms", "assistant.run_ms", "oracle.ask_ms",
          "oracle.evaluate_ms", "exec.final_execute_ms",
          "exec.xlog_execute_ms", "runtime.final_execute_pool_ms",
          "serve.request_ms_p50", "serve.queue_ms_tail", "serve.wire_ms_p50",
          "durability.recover_ms_per_command")
    ratio = ("assistant.simulations_per_question", "runtime.parallel_efficiency")
    units["oracle.developer_min"] = "min"
    for name in count:
        units[name] = "count"
    for name in ms:
        units[name] = "ms"
    for name in ratio:
        units[name] = "ratio"
    for prefix in ("exec.", "sim.exec."):
        for name in ("rules_evaluated", "join_pairs", "join_probes",
                     "constraint_cells"):
            units[prefix + name] = "count"
        for name in ("rules_compiled_ratio", "join_pairs_per_tuple",
                     "reuse_hit_ratio", "verify_memo_hit_ratio"):
            units[prefix + name] = "ratio"
    units["durability.journal_bytes_per_write"] = "B"
    units["obs.trace_overhead_pct"] = "%"
    return units


PER_LAYER_UNITS = _units()
