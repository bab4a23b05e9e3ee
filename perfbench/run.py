"""leibnizx benchmark: end-to-end metrics, a traced per-layer table, and a
self-test.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload
    python3 perfbench/run.py --workload defects          # known defects
    python3 perfbench/run.py --self-test

Each run starts fresh worker processes (``worker.py``) that import the
library from ``src/``.  Set-up is timed from process start to inputs loaded,
in several processes before and after the measured one, and the median is
reported.  One worker runs the workload as a closed loop: one client, one
CLI call at a time.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it runs a warm-up, an untraced and a traced pass and
reports the per-layer table.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
Workloads, metrics and bounds are declared in BENCHMARK.json at the root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9      # set-up timings per run, the measuring worker's too
DEADLINE_S = 170       # a run must end within the driver's 180 s

sys.path.insert(0, HERE)
import tracing  # noqa: E402  (per-layer metric mapping, no library import)


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def environment(workload, seed):
    """Where the numbers come from; the scalar backend is filled in by the
    worker, so Fraction and gmpy2 numbers are never compared."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


class Worker:
    """One worker process; stopped and waited for on every exit path."""

    def __init__(self, workload, seed, seconds, mode, deadline, quick=False,
                 corrupt=False):
        self.deadline = deadline
        work_dir = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload,
                                                                seed))
        os.makedirs(work_dir, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--work-dir", work_dir]
        cmd += ["--quick"] * quick + ["--corrupt"] * corrupt
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def ready(self):
        """Seconds from process start to READY."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.finish()
            raise BenchError("worker failed during set-up")
        return time.perf_counter() - self.t0

    def finish(self):
        """The worker's result object (its last output line)."""
        left = self.deadline - time.perf_counter()
        try:
            out, _ = self.proc.communicate(timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the run deadline")
        if self.proc.returncode != 0:
            raise BenchError("worker exited with %d" % self.proc.returncode)
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def op_medians(passes):
    """Each command's median time across the passes that ran it.  Medians
    per command, rather than of whole passes, keep one slow stretch of the
    host from moving a run's figures."""
    times = {}
    for p in passes:
        for key, t in p["op_s"].items():
            times.setdefault(key, []).append(t)
    return [statistics.median(ts) for ts in times.values()]


def failures(passes):
    """{op key: reasons} for each distinct command that failed in any pass,
    with the reasons of its first failure."""
    out = {}
    for p in passes:
        for f in p["failed"]:
            out.setdefault(f["op"], f["why"])
    return out


def run_workload(spec, workload, seed, seconds, traced, quick=False,
                 corrupt=False):
    """(result line object, environment, worker report).  attempted and
    failed count distinct commands, so they do not grow with the number of
    passes that fit in a run."""
    deadline = time.perf_counter() + DEADLINE_S
    setups = []

    def setup_only():
        with Worker(workload, seed, seconds, "setup", deadline, quick) as w:
            setups.append(w.ready())
            w.finish()

    extra = 0 if traced else SETUP_SAMPLES - 1
    for _ in range(extra // 2):
        setup_only()
    mode = "trace" if traced else "measure"
    with Worker(workload, seed, seconds, mode, deadline, quick,
                corrupt) as w:
        setups.append(w.ready())
        rep = w.finish()
    for _ in range(extra - extra // 2):
        setup_only()
    passes = rep["passes"]
    attempted = len({key for p in passes for key in p["op_s"]})
    failed = len(failures(passes))
    if traced:
        try:
            metrics = tracing.metrics(rep["layers"], set(rep["absent"]),
                                      spec["per_layer"])
        except KeyError as e:
            raise BenchError("per-layer metric %s is not computed" % e)
    else:
        medians = op_medians(passes)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(medians), "unit": "s"},
            "slowest_op_s": {"value": max(medians), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    env = environment(workload, seed)
    env.update(python=rep["python"], backend=rep["backend"],
               passes=len(passes), setup_samples=len(setups))
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, env, rep


def print_report(line, env, rep, traced):
    print("environment " + json.dumps(env, sort_keys=True))
    for key, why in failures(rep["passes"]).items():
        print("FAILED %s: %s" % (key, "; ".join(why)))
    print("ops %d  ops_failed %d" % (line["attempted"], line["failed"]))
    if traced:
        print("%-40s %14s %s" % ("layer metric", "value", "unit"))
        for name, m in line["metrics"].items():
            value = "absent" if m.get("absent") else "%.6g" % m["value"]
            print("%-40s %14s %s" % (name, value, m["unit"]))
    else:
        for name, m in line["metrics"].items():
            print("%-14s %12.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(line), flush=True)


def self_test(spec):
    """Quick sizes of every workload: metric names and units, exact count
    repeatability, and a corrupted expected answer that must be caught."""
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    counts = ("freealg.ideal_span.products", "freealg.ideal_span.rows",
              "linalg.echelon_insert.n")
    problems = []
    for wl in [w["name"] for w in spec["workloads"]]:
        line, _, _ = run_workload(spec, wl, 1, 1, False, quick=True)
        got = {k: m["unit"] for k, m in line["metrics"].items()}
        if got != e2e:
            problems.append("%s: end-to-end metrics %r" % (wl, got))
        if not line["correct"]:
            problems.append("%s: quick run not correct" % wl)
        try:  # per-layer names and units are those of BENCHMARK.json
            t1, _, _ = run_workload(spec, wl, 1, 1, True, quick=True)
            t2, _, _ = run_workload(spec, wl, 1, 1, True, quick=True)
        except BenchError as e:
            problems.append("%s: %s" % (wl, e))
            continue
        for c in counts:
            a, b = t1["metrics"][c]["value"], t2["metrics"][c]["value"]
            if a != b:
                problems.append("%s: %s not repeatable (%r, %r)"
                                % (wl, c, a, b))
        bad, _, rep = run_workload(spec, wl, 1, 1, False, quick=True,
                                   corrupt=True)
        if bad["correct"] or not bad["failed"]:
            problems.append("%s: corrupted answer for %r not caught"
                            % (wl, rep["corrupted"]))
        print("self-test %s: %s" % (wl, "checked"), flush=True)
    for p in problems:
        print("self-test FAILED " + p)
    if not problems:
        print("self-test ok")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    for need in ("BENCHMARK.json", "src/leibnizx/cli.py", "corpus"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("error: %s not found; run from a leibnizx source checkout"
                  % need, file=sys.stderr)
            return 2
    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    for wl in todo:
        if wl not in names and wl != "defects":
            print("error: unknown workload %r" % wl, file=sys.stderr)
            return 2
        try:
            line, env, rep = run_workload(spec, wl, args.seed, seconds,
                                          bool(args.trace))
        except BenchError as e:
            print("error: %s: %s" % (wl, e), file=sys.stderr)
            return 1
        print_report(line, env, rep, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
