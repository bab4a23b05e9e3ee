"""Benchmark workloads: the CLI commands each one runs and the answer each
command must give.

An operation is one ``leibnizx`` CLI invocation.  Its key names the command
with the input file's stem in place of its path, so a command on a rebased
input shares its key, and so its expected answer, with the same command on
the corpus file it was rebased from: isomorphic inputs keep every verdict
and dimension.  Expected answers come from three places:

* exit code and verdict from the README contract: corpus statements are
  theorems and pass, each ``bad-*`` file fails at its named identity, and
  malformed input exits 2;
* ``ul`` dimensions from the closed form of Loday-Pirashvili,
  UL(g) = (K + g) (x) U(g_Lie), with PBW dimensions for U(g_Lie);
* every other pinned field from ``expected.json``.
"""

import json
import os
from math import comb

import rebase

HERE = os.path.dirname(os.path.abspath(__file__))

# (dim g, dim g_Lie) for the corpus algebras with a closed-form UL
UL_CLOSED_FORM = {"a1": (1, 1), "l2": (2, 1), "r2": (2, 2)}

# Heavy commands of corpus-verify and rebased close their ideals one degree
# past the working degree instead of two.  The degrees stay those of the
# acceptance tests, and every verdict and dimension is the same, but a pass
# takes seconds instead of half a minute, so a run holds enough passes for
# its medians to be steady.
SLACK = ("--slack", "1")

# rebased draws this many basis changes per run and pass i runs draw
# i mod REBASED_DRAWS.  A draw's pass time varies by about 12% (IQR/median)
# with its signs; the run's per-command medians then mix four draws, so a
# run's figures depend less on which matrices its seed picked.  A 30 s run
# holds seven or more passes, so every draw runs in every run.
REBASED_DRAWS = 4


class Op:
    __slots__ = ("key", "argv", "kind", "stem", "path", "quick", "expect")

    def __init__(self, cmd, stem, path, flags=(), quick=False):
        self.key = " ".join([*cmd, stem, *flags])
        self.stem = stem
        self.path = path
        self.argv = [*cmd, path, *flags]
        self.kind = ".".join(cmd)
        self.quick = quick
        self.expect = None


def ul_dims(stem, degree):
    """dim UL(g)_{<=k} = dim U_{<=k} + dim g * dim U_{<=k-1}, with
    dim U(g_Lie)_{<=k} = C(k + m, m) for m = dim g_Lie (PBW)."""
    n, m = UL_CLOSED_FORM[stem]
    dims = [comb(k + m, m) + (n * comb(k - 1 + m, m) if k else 0)
            for k in range(degree + 1)]
    return {"exit": 0, "verdict": "pass",
            "fields": {"dimensions.dims_by_degree": dims,
                       "dimensions.dim": dims[-1],
                       "certificates.ideal_stabilized": True}}


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)


def _corpus_ops(corpus):
    def op(cmd, stem, *flags, quick=False):
        return Op(cmd, stem, os.path.join(corpus, stem + ".json"),
                  flags + SLACK, quick)

    stems = sorted(f[:-5] for f in os.listdir(corpus) if f.endswith(".json"))
    ops = [Op(["check"], s, os.path.join(corpus, s + ".json"), quick=True)
           for s in stems]
    ops += [op(["ul"], "l2", "--degree", "4"),
            op(["ul"], "r2", "--degree", "3"),
            op(["ul"], "a1", "--degree", "5", quick=True)]
    ops += [op(["xul"], "xmod-id-a1", "--degree", "3"),
            op(["xul"], "xmod-incl-l2", "--degree", "3"),
            op(["xul"], "xmod-zero-a1", "--degree", "3", quick=True)]
    ops += [op(["verify", "lemma41"], "xmod-id-a1", "--degree", "3"),
            op(["verify", "prop42"], "a1", "--degree", "4",
               "--report-degree", "2"),
            op(["verify", "thm5"], "xrep-id-a1", "--degree", "3",
               quick=True),
            op(["verify", "squares"], "r2", "--degree", "3"),
            op(["verify", "theta"], "xmod-id-a1", "--degree", "3")]
    # malformed input that is rejected correctly today
    ops += [op(["xul"], "xmod-id-a1", "--degree", "3", "--report-degree",
               "2", quick=True),
            op(["ul"], "xmod-id-a1", "--degree", "3", quick=True)]
    return ops


def _lm_ops(corpus):
    def op(stem, degree, quick=False):
        return Op(["lm"], stem, os.path.join(corpus, stem + ".json"),
                  ("--degree", degree), quick)

    return [op("xmod-id-a1", "8"), op("xmod-id-l2", "8"),
            op("xmod-incl-l2", "7", quick=True),
            op("xmod-zero-a1", "8", quick=True)]


def _defect_ops(corpus):
    """Commands whose answer differs from the README contract today.  Each
    counts as a failed operation until the library is fixed."""
    def op(cmd, stem, *flags):
        return Op(cmd, stem, os.path.join(corpus, stem + ".json"), flags,
                  quick=True)

    return [op(["lm"], "xmod-id-r2", "--degree", "4"),
            op(["ul"], "a1", "--degree", "2", "--slack", "-3"),
            op(["ul"], "a1", "--degree", "0"),
            op(["xul"], "xmod-id-a1", "--report-degree", "-1"),
            op(["verify", "theta"], "xmod-id-a1", "--degree", "1")]


def _rebased_ops(work_dir, seed):
    paths = rebase.write_rebased("corpus", work_dir, seed)
    ops = [Op(["check"], s, paths[s], quick=True) for s in sorted(paths)]

    def op(cmd, stem, degree, quick=False):
        return Op(cmd, stem, paths[stem], ("--degree", degree) + SLACK,
                  quick)

    ops += [op(["ul"], "l2", "3"), op(["ul"], "r2", "3"),
            op(["verify", "squares"], "l2", "3"),
            op(["verify", "squares"], "r2", "3"),
            op(["xul"], "xmod-id-a1", "3", quick=True),
            op(["lm"], "xmod-id-l2", "5"),
            op(["lm"], "xmod-id-a1", "6", quick=True)]
    return ops


def build(workload, seed, work_dir, quick=False):
    """(rounds, input files to load at set-up).  A round is the list of ops,
    with expectations attached, that one pass runs; pass i runs round
    i mod len(rounds)."""
    corpus = "corpus"
    if workload == "corpus-verify":
        rounds = [_corpus_ops(corpus)]
    elif workload == "lm-envelope":
        rounds = [_lm_ops(corpus)]
    elif workload == "defects":
        rounds = [_defect_ops(corpus)]
    elif workload == "rebased":
        rounds = [_rebased_ops(os.path.join(work_dir, "draw%d" % i),
                               "%d.%d" % (seed, i))
                  for i in range(REBASED_DRAWS)]
    else:
        raise ValueError("unknown workload %r" % workload)
    inputs = sorted({op.path for ops in rounds for op in ops})
    if quick:
        rounds = [[op for op in ops if op.quick] for ops in rounds]
    expected = load_expected()
    for op in (op for ops in rounds for op in ops):
        flags = op.argv[len(op.kind.split(".")) + 1:]
        opts = dict(zip(flags[::2], flags[1::2]))
        if op.kind == "ul" and op.stem in UL_CLOSED_FORM \
                and set(opts) <= {"--degree", "--slack"} \
                and int(opts.get("--degree", 3)) >= 1 \
                and int(opts.get("--slack", 2)) >= 1:
            op.expect = ul_dims(op.stem, int(opts.get("--degree", 3)))
        else:
            op.expect = expected[op.key]
    return rounds, inputs


def _lookup(doc, path):
    """Resolve "record.field.0..." against a CLI JSON report; the first
    part names a record or "certificates"."""
    parts = path.split(".")
    head = {r["name"]: r for r in doc["records"]}
    head["certificates"] = doc["certificates"]
    cur = head
    for p in parts:
        if isinstance(cur, list):
            cur = cur[int(p)]
        else:
            cur = cur[p]
    return cur


def check(op, code, stdout, error):
    """Mismatches between one CLI outcome and the op's expected answer."""
    want = op.expect
    if error is not None:
        return ["raised %s" % error]
    bad = []
    if code != want["exit"]:
        bad.append("exit %r, expected %r" % (code, want["exit"]))
    if "verdict" not in want and not want.get("fields"):
        return bad
    try:
        doc = json.loads(stdout)
    except ValueError:
        return bad + ["no JSON report"]
    if doc.get("verdict") != want.get("verdict"):
        bad.append("verdict %r, expected %r" % (doc.get("verdict"),
                                                want.get("verdict")))
    for path, value in sorted(want.get("fields", {}).items()):
        try:
            got = _lookup(doc, path)
        except (KeyError, IndexError, ValueError):
            bad.append("%s missing" % path)
            continue
        if got != value:
            bad.append("%s = %r, expected %r" % (path, got, value))
    return bad


def corrupt(ops):
    """Change one pinned expected field, so that the correctness check
    must report a failure."""
    for op in ops:
        fields = op.expect.get("fields")
        if fields:
            path = sorted(fields)[0]
            v = fields[path]
            if isinstance(v, bool):
                new = not v
            elif isinstance(v, int):
                new = v + 1
            elif isinstance(v, list):
                new = v + [0]
            else:
                new = "%s?" % v
            op.expect = dict(op.expect, fields=dict(fields, **{path: new}))
            return op.key
    raise ValueError("no op has a pinned field to corrupt")
