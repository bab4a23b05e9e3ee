"""One benchmark process: set up a workload, then run it as a closed loop.

One client issues one ``leibnizx.cli.main`` call at a time, in this
process, with no threads.  The worker prints ``READY`` once the library is
imported and the workload's inputs are generated and loaded, so that the
parent can time set-up from interpreter start.  It then runs passes over
the workload and prints one JSON line with what it measured.

Modes: ``setup`` stops after READY; ``measure`` runs passes until
``--seconds`` is spent (at least one); ``trace`` runs a warm-up pass, then
alternates untraced and traced passes, and reports the value of every
per-layer metric.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

TRACE_PAIRS = 3  # untraced/traced pass pairs in a traced run


def run_op(cli_main, op):
    """Run one CLI invocation; returns (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(op.argv + ["--format", "json"])
    except SystemExit as e:  # argparse rejects flags by exiting
        code = e.code
    except Exception as e:  # a traceback is a failed operation; go on
        error = "%s: %s" % (type(e).__name__, e)
    return code, out.getvalue(), error


def run_pass(cli_main, ops, checker, tracer=None):
    gc.collect()
    times, failed = {}, []
    t0 = time.perf_counter()
    for op in ops:
        span = tracer.open("cli." + op.kind) if tracer else None
        t = time.perf_counter()
        code, stdout, error = run_op(cli_main, op)
        times[op.key] = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        bad = checker(op, code, stdout, error)
        if bad:
            failed.append({"op": op.key, "why": bad})
    return {"wall_s": time.perf_counter() - t0, "op_s": times,
            "failed": failed}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    t = time.perf_counter()
    from leibnizx import io as lio
    from leibnizx.cli import main as cli_main
    from leibnizx.scalars import Q
    import_s = time.perf_counter() - t

    import workloads
    t = time.perf_counter()
    rounds, inputs = workloads.build(args.workload, args.seed,
                                     args.work_dir, args.quick)
    generate_s = time.perf_counter() - t
    for path in inputs:
        lio.load_path(path)
    corrupted = workloads.corrupt(rounds[0]) if args.corrupt else None
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"import_s": import_s, "generate_s": generate_s,
              "backend": Q.__module__, "python": sys.version.split()[0],
              "corrupted": corrupted}
    if args.mode == "measure":
        passes = []
        t_end = time.perf_counter() + args.seconds
        while True:
            ops = rounds[len(passes) % len(rounds)]
            passes.append(run_pass(cli_main, ops, workloads.check))
            longest = max(p["wall_s"] for p in passes)
            if time.perf_counter() + longest > t_end:
                break
        result["passes"] = passes
    else:
        import tracing
        # The first pass of a process runs slower and is not compared.  Then
        # untraced and traced passes alternate, because one pair of passes
        # differs by more than the tracing costs on a noisy host; the layer
        # values come from the first traced pass.
        passes = [run_pass(cli_main, rounds[0], workloads.check)]
        first = None
        for _ in range(TRACE_PAIRS):
            passes.append(run_pass(cli_main, rounds[0], workloads.check))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes.append(run_pass(cli_main, rounds[0], workloads.check,
                                       tracer))
            finally:
                tracer.uninstall()
            first = first or (tracer, passes[-1])
        tracer, traced = first
        overhead = (statistics.median(p["wall_s"] for p in passes[2::2])
                    / statistics.median(p["wall_s"] for p in passes[1::2])
                    - 1)
        result["passes"] = passes
        result["layers"] = tracer.values(
            traced["wall_s"], overhead,
            {"import_s": import_s, "generate_s": generate_s})
        result["absent"] = sorted(tracer.absent)
        with open(os.path.join(args.work_dir, "spans.json"), "w",
                  encoding="utf-8") as f:
            json.dump(tracer.timeline(), f)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
