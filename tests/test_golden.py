"""Golden outputs: canonical CLI reports compared byte for byte.

Each case runs ``leibnizx.cli.main`` from the repository root on a corpus
file or a rational input under ``tests/rational``, with ``--format json
--dump-basis``, and compares its exit code and stdout with the file
committed under ``tests/golden``.  A refactor that
keeps behaviour keeps these bytes; a change that is meant to alter a
report must say so and rewrite the affected file with

    PYTHONPATH=src python tests/test_golden.py NAME...

(no NAME rewrites every case).
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from leibnizx.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
INPUTS = ("corpus", "tests/rational")
FLAGS = ("--format", "json", "--dump-basis")
SLACK = ("--slack", "1")


def _cases():
    stems = sorted(p.stem for p in (ROOT / "corpus").glob("*.json"))
    cases = [("check", stem) for stem in stems]
    cases += [("check", p.stem)
              for p in sorted((ROOT / "tests" / "rational").glob("*.json"))]
    cases += [
        ("ul", "l2", "--degree", "4", *SLACK),
        ("ul", "r2", "--degree", "3", *SLACK),
        ("ul", "a1", "--degree", "5", *SLACK),
        ("xul", "xmod-id-a1", "--degree", "3", *SLACK),
        ("xul", "xmod-incl-l2", "--degree", "3", *SLACK),
        ("xul", "xmod-zero-a1", "--degree", "3", *SLACK),
        ("verify", "lemma41", "xmod-id-a1", "--degree", "3", *SLACK),
        ("verify", "prop42", "a1", "--degree", "4", "--report-degree", "2",
         *SLACK),
        ("verify", "thm5", "xrep-id-a1", "--degree", "3", *SLACK),
        ("verify", "squares", "r2", "--degree", "3", *SLACK),
        ("verify", "theta", "xmod-id-a1", "--degree", "3", *SLACK),
        # rejected invocations: exit 2 and nothing on stdout
        ("xul", "xmod-id-a1", "--degree", "3", "--report-degree", "2",
         *SLACK),
        ("ul", "xmod-id-a1", "--degree", "3", *SLACK),
        ("lm", "xmod-id-a1", "--degree", "8"),
        ("lm", "xmod-id-l2", "--degree", "8"),
        ("lm", "xmod-incl-l2", "--degree", "7"),
        ("lm", "xmod-zero-a1", "--degree", "8"),
        ("lm", "xmod-id-r2", "--degree", "4"),
        ("lm", "xmod-id-l2", "--degree", "5", "--slack", "0"),
        # the default slack
        ("ul", "l2", "--degree", "4"),
        ("ul", "r2", "--degree", "3"),
        ("ul", "a1", "--degree", "5"),
        ("xul", "xmod-incl-l2", "--degree", "3"),
        ("xul", "xmod-id-a1", "--degree", "3"),
        # builders with no other golden
        ("verify", "theta", "xmod-incl-l2", "--degree", "3", *SLACK),
        ("verify", "theta", "xmod-zero-a1", "--degree", "3", *SLACK),
        ("verify", "thm5", "xrep-zero-incl-l2", "--degree", "3", *SLACK),
        ("verify", "squares", "l2", "--degree", "3", *SLACK),
        ("verify", "prop42", "l2", "--degree", "3", *SLACK),
        ("verify", "prop42", "r2", "--degree", "3", *SLACK),
        ("verify", "lemma41", "xmod-incl-l2", "--degree", "3", *SLACK),
        ("xul", "xmod-id-l2", "--degree", "3", "--slack", "0"),
        # the lm bottom ideal at higher degrees and other slacks
        ("lm", "xmod-incl-l2", "--degree", "8"),
        ("lm", "xmod-id-l2", "--degree", "9", "--slack", "1"),
        ("lm", "xmod-id-r2", "--degree", "5", "--slack", "0"),
        ("lm", "xmod-id-a1", "--degree", "9", "--slack", "0"),
        ("verify", "theta", "xmod-id-l2", "--degree", "3", "--slack", "1"),
        # the slowest commands of the acceptance suite, at the default slack
        ("verify", "lemma41", "xmod-incl-l2", "--degree", "4",
         "--report-degree", "2"),
        ("xul", "xmod-id-r2", "--degree", "3"),
        ("xul", "xmod-id-l2", "--degree", "3"),
        ("lm", "xmod-id-r2", "--degree", "5"),
        # lemma41's certificates and the ideal span at slack 0
        ("verify", "lemma41", "xmod-id-a1", "--degree", "3", "--slack", "0"),
        ("verify", "lemma41", "xmod-incl-l2", "--degree", "3",
         "--slack", "0"),
        ("ul", "l2", "--degree", "4", "--slack", "0"),
        # the kernel-product quotient and Phi's ideal check above degree 3
        ("xul", "xmod-id-r2", "--degree", "4", *SLACK),
        ("xul", "xmod-incl-l2", "--degree", "5", *SLACK),
        ("verify", "thm5", "xrep-zero-incl-l2", "--degree", "4", *SLACK),
        # the envelope quotients by rewriting, at the slowest reads
        ("xul", "xmod-id-r2", "--degree", "5", *SLACK),
        ("verify", "theta", "xmod-id-r2", "--degree", "4", *SLACK),
        ("ul", "r2", "--degree", "6"),
        # theta's well-definedness check above degree 5
        ("verify", "theta", "xmod-id-r2", "--degree", "6", *SLACK),
        ("verify", "theta", "xmod-id-l2", "--degree", "6", *SLACK),
        # U/X at degree 5 on the Leibniz (non-Lie) identity crossed modules
        ("xul", "xmod-id-l2", "--degree", "5", *SLACK),
        ("verify", "prop42", "r2", "--degree", "5", *SLACK),
        # Lemma 4.1's right side above degree 5
        ("verify", "lemma41", "xmod-id-r2", "--degree", "7", *SLACK),
        # rational inputs: seeded basis changes of l2, r2 and their
        # identity crossed modules, whose constants have denominators
        ("ul", "rebased-l2", "--degree", "3", *SLACK),
        ("lm", "rebased-xmod-id-l2", "--degree", "5", *SLACK),
        ("verify", "squares", "rebased-l2", "--degree", "3", *SLACK),
        # Theorem 5 with a nonzero Phi: the representation of
        # tests/test_xrep.py::_xi_rep, xi1 = -xi2 = id over (A1, A1, id)
        ("verify", "thm5", "xrep-xi-a1", "--degree", "3", *SLACK),
    ]
    return {"-".join(c).replace("--", ""): c for c in cases}


CASES = _cases()


def _argv(case):
    """The input stem is the first argument that names a file in one of
    the INPUTS directories."""
    argv = list(case)
    for i, a in enumerate(argv):
        found = [d for d in INPUTS if (ROOT / d / (a + ".json")).exists()]
        if found:
            argv[i] = "%s/%s.json" % (found[0], a)
            break
    return argv + list(FLAGS)


def _run(case):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(_argv(case))
    finally:
        os.chdir(cwd)
    return {"argv": _argv(case), "exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = json.loads((GOLDEN / (name + ".json")).read_text("utf-8"))
    got = _run(CASES[name])
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sys.argv[1:] or sorted(CASES):
        text = json.dumps(_run(CASES[name]), indent=1, sort_keys=True)
        (GOLDEN / (name + ".json")).write_text(text + "\n", "utf-8")
        print(name)
