"""The benchmark's own answer checks, run in Tier-1 on its quick operations.

``perfbench/workloads.py`` builds each workload's commands and knows the
answer each must give (README contract, the Loday-Pirashvili closed form
for ``ul``, and ``perfbench/expected.json``).  Here the quick subset of
corpus-verify, lm-envelope and rebased runs through ``leibnizx.cli.main``
the way a benchmark worker runs it.  The rebased inputs are seeded integer
basis changes of the corpus, whose rows carry rational coefficients, so
these cases exercise the denominators the exact elimination clears.
"""

import pathlib
import sys

import pytest

from leibnizx.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from worker import run_op  # noqa: E402

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
