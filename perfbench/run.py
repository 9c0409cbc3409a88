#!/usr/bin/env python3
"""iFlex benchmark: builds the runner from the tree it sits in, runs one
workload, checks every output, and prints each metric by name with its
unit. The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 perfbench/run.py --workload refine-sim|full-join|serve-durable
                           [--seed 11] [--seconds 10] [--trace 0|1]

--trace 0 prints the end-to-end metrics; --trace 1 records spans, writes
them to .bench_build/perfbench/, and prints the per-layer metrics and a
self-time table. Exits non-zero when any output is wrong. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402

WORKLOADS = ("refine-sim", "full-join", "serve-durable")
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
OUT_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "iflex_perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def self_test():
    """The benchmark's own arithmetic must pass its tests before any run."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_metrics")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def configured_here():
    """True when the CMake cache in CMAKE_DIR was made for this checkout.
    A build tree copied or moved with its checkout keeps the old absolute
    paths, and CMake refuses to build from it."""
    want = {"CMAKE_HOME_DIRECTORY": HERE, "CMAKE_CACHEFILE_DIR": CMAKE_DIR}
    seen = {}
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                key = line.split(":", 1)[0]
                if key in want:
                    seen[key] = os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        return False
    return all(seen.get(k) == os.path.realpath(v) for k, v in want.items())


def build():
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    if not configured_here():
        shutil.rmtree(CMAKE_DIR, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "iflex_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def fingerprint(raw):
    """Host fingerprint: absolute times compare only between equal ones."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"cores": os.cpu_count() or 1, "cpu_model": model,
            "build_type": build_type, "pool_threads": raw["pool_threads"]}


def tree_digest():
    """Digest of the program and benchmark sources: deterministic counts
    are compared across runs only while it stays the same."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_determinism(raw, failures):
    """Deterministic counts must repeat across the passes of this run and
    across runs of the same tree and seed. Returns the checks made."""
    counts = M.deterministic_counts(raw)
    checks = 0
    repeated = True
    for i, c in enumerate(counts[1:], start=2):
        checks += 1
        diff = M.count_mismatches(counts[0], c)
        if diff:
            repeated = False
            failures.append("pass %d counts differ from pass 1: %s"
                            % (i, ", ".join(diff[:8])))
    record_path = os.path.join(OUT_DIR, "counts-%s-seed%d.json"
                               % (raw["workload"], raw["seed"]))
    digest = tree_digest()
    previous = None
    try:
        with open(record_path) as f:
            previous = json.load(f)
    except (OSError, ValueError):
        pass
    if previous and previous.get("tree") == digest:
        checks += 1
        diff = M.count_mismatches(previous["counts"], counts[0])
        if diff:
            failures.append("counts differ from the previous run: %s"
                            % ", ".join(diff[:8]))
        print("determinism: %d counts compared with the previous run of this "
              "tree: %s" % (len(counts[0]), "MISMATCH" if diff else "identical"))
    elif not failures:
        with open(record_path, "w") as f:
            json.dump({"tree": digest, "counts": counts[0]}, f, indent=1,
                      sort_keys=True)
    print("determinism: %d counts x %d passes: %s"
          % (len(counts[0]), len(counts),
             "identical" if repeated else "MISMATCH"))
    return checks


def compare_with_previous(raw, fp, metrics):
    """Prints the change against the previous run of this workload and
    seed when it ran on a host with the same fingerprint."""
    path = os.path.join(OUT_DIR, "last-%s-seed%d-trace%d.json"
                        % (raw["workload"], raw["seed"], int(raw["trace"])))
    try:
        with open(path) as f:
            previous = json.load(f)
    except (OSError, ValueError):
        previous = None
    if previous is None:
        print("comparison: no earlier run of this workload and seed")
    elif previous["fingerprint"] != fp:
        print("comparison: the earlier run had host %s; absolute times are "
              "not comparable" % json.dumps(previous["fingerprint"],
                                            sort_keys=True))
    else:
        print("comparison with the earlier run on this host:")
        for name, value in metrics.items():
            old = previous["metrics"].get(name)
            if isinstance(old, (int, float)) and old:
                print("  %-36s %12.6g -> %12.6g (%+.1f%%)"
                      % (name, old, value, 100.0 * (value - old) / old))
    with open(path, "w") as f:
        json.dump({"fingerprint": fp, "metrics": metrics}, f, indent=1)


def write_trace(raw):
    """Writes the recorded spans as a chrome://tracing file."""
    events = []
    for sid, parent, trace, name, layer, start, end in raw["spans"]:
        events.append({"name": name, "cat": layer, "ph": "X",
                       "ts": start / 1e3, "dur": (end - start) / 1e3,
                       "pid": 1, "tid": trace,
                       "args": {"id": sid, "parent": parent, "trace": trace}})
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                        % (raw["workload"], raw["seed"]))
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    return path


def print_self_times(raw):
    rows = M.self_times(raw["spans"])
    total_self = sum(r[2] for r in rows.values()) or 1
    print("self time per layer (%d spans):" % len(raw["spans"]))
    print("  %-12s %7s %12s %12s %7s" % ("layer", "spans", "total_ms",
                                          "self_ms", "self%"))
    for layer, (count, total, own) in sorted(rows.items(),
                                             key=lambda kv: -kv[1][2]):
        print("  %-12s %7d %12.3f %12.3f %6.1f%%"
              % (layer, count, total / 1e6, own / 1e6, 100.0 * own / total_self))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not self_test():
        log("perfbench: self-test of the benchmark arithmetic failed")
        return 1
    if not build():
        log("perfbench: build failed")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    raw_path = os.path.join(OUT_DIR, "raw-%s.json" % args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", raw_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=900)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: runner exited with %d" % proc.returncode)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    failures = list(raw["failures"])
    attempted = raw["attempted"]
    fp = fingerprint(raw)
    print("iFlex benchmark: workload %s, seed %d, %s passes, trace %d"
          % (args.workload, args.seed, len(raw["passes"]), args.trace))
    print("host: %d cores, %s, %s build, pool width %d"
          % (fp["cores"], fp["cpu_model"], fp["build_type"],
             fp["pool_threads"]))
    attempted += check_determinism(raw, failures)

    out = {}
    if args.trace == 0:
        print("end-to-end metrics:")
        for name, (value, unit, note) in M.end_to_end(raw).items():
            out[name] = {"value": value, "unit": unit}
            print("  %-26s %14.6g %-4s %s" % (name, value, unit, note))
        compare_with_previous(raw, fp, {k: v["value"] for k, v in out.items()})
    else:
        print("per-layer metrics (traced passes):")
        units = M.PER_LAYER_UNITS
        for name, value in M.per_layer(raw).items():
            shown = value.value if isinstance(value, M.Ratio) else value
            out[name] = {"value": shown, "unit": units[name]}
            print("  %-40s %s %s" % (name, value, units[name]))
        print_self_times(raw)
        print("spans written to %s" % os.path.relpath(write_trace(raw), ROOT))

    for f in failures:
        print("FAIL: %s" % f)
    result = {"correct": not failures, "attempted": max(1, attempted),
              "failed": len(failures), "metrics": out}
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
