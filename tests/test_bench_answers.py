"""The benchmark's own answer checks, run in Tier-1 on its quick operations.

``perfbench/workloads.py`` builds each workload's commands and knows the
answer each must give (README contract, the Loday-Pirashvili closed form
for ``ul``, and ``perfbench/expected.json``).  Here the quick subset of
corpus-verify, lm-envelope and rebased runs through ``leibnizx.cli.main``
the way a benchmark worker runs it.  The rebased inputs are seeded integer
basis changes of the corpus, whose rows carry rational coefficients, so
these cases exercise the denominators the exact elimination clears.

The traced run of the benchmark patches the library at the boundaries
``perfbench/tracing.py`` names; the traced cases here check that every
boundary still resolves and every per-layer metric reads a number.
"""

import json
import math
import pathlib
import sys

import pytest

from leibnizx.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_op, run_pass  # noqa: E402

CASES = [("corpus-verify", 1), ("lm-envelope", 1), ("rebased", 1),
         ("rebased", 2)]


@pytest.mark.parametrize("workload,seed", CASES)
def test_quick_ops_give_expected_answers(workload, seed, tmp_path,
                                         monkeypatch):
    monkeypatch.chdir(ROOT)  # workloads name corpus files from the root
    rounds, _ = workloads.build(workload, seed, str(tmp_path), quick=True)
    ops = [op for ops in rounds for op in ops]
    assert ops
    bad = []
    for op in ops:
        why = workloads.check(op, *run_op(main, op))
        if why:
            bad.append((op.key, why))
    assert not bad


@pytest.mark.parametrize("workload", ["corpus-verify", "lm-envelope"])
def test_traced_quick_ops_give_numeric_layer_metrics(workload, tmp_path,
                                                     monkeypatch):
    """A traced pass over the quick ops, as the benchmark's traced run
    makes it: the answers stay right, no boundary is absent, and every
    per-layer metric of BENCHMARK.json is a finite number."""
    monkeypatch.chdir(ROOT)
    rounds, _ = workloads.build(workload, 1, str(tmp_path), quick=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(main, rounds[0], workloads.check, tracer)
    finally:
        tracer.uninstall()
    assert not traced["failed"]
    assert not tracer.absent
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        per_layer = json.load(f)["per_layer"]
    values = tracer.values(traced["wall_s"], 0.0,
                           {"import_s": 0.0, "generate_s": 0.0})
    for name, m in tracing.metrics(values, tracer.absent, per_layer).items():
        v = m["value"]
        assert type(v) in (int, float) and math.isfinite(v), (name, v)


def test_traced_verify_records_its_checker(monkeypatch):
    """``verify`` looks its checker up when it runs, so the tracer's
    wrapper of lemma41_check is the one called."""
    monkeypatch.chdir(ROOT)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["verify", "lemma41", "corpus/xmod-id-a1.json",
                     "--degree", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["xul.lemma41_check"][0] >= 1
