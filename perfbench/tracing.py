"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each library layer from outside
the library: every import site of a module-level function is patched, and
methods are patched on their class.  A wrapped function opens a span (name,
start, end, parent); hot leaf calls instead add to counters on the span
that encloses them, so a pass with millions of echelon inserts keeps a
bounded number of spans.  Self time is a span's duration minus the time its
child spans cover.  A boundary that no longer exists in the library is
reported by name as absent, never as zero.
"""

import functools
import importlib
import sys
import time

SPAN, LEAF = "span", "leaf"

# (metric prefix, module, attribute, kind).  An attribute "Cls.meth" is a
# method patched on its class; a bare name is a module-level function
# patched wherever it was imported.
BOUNDARIES = (
    ("freealg.ideal_span", "leibnizx.freealg", "ideal_span", SPAN),
    ("freealg.extend_by", "leibnizx.freealg", "TruncQuotAlgebra.extend_by",
     SPAN),
    ("freealg.induced_map", "leibnizx.freealg", "induced_map", SPAN),
    ("freealg.subspace_product", "leibnizx.freealg", "subspace_product",
     SPAN),
    ("freealg.filtration_basis", "leibnizx.freealg", "filtration_basis",
     SPAN),
    ("freealg.mult", "leibnizx.freealg", "TruncQuotAlgebra.mult", SPAN),
    ("freealg.reduce_word", "leibnizx.freealg",
     "TruncQuotAlgebra.reduce_word", LEAF),
    ("freealg.truncideal_reduce_vec", "leibnizx.freealg",
     "TruncIdeal.reduce_vec", LEAF),
    ("linalg.echelon_insert", "leibnizx.linalg", "Echelon.insert", LEAF),
    ("linalg.echelon_canonical_rows", "leibnizx.linalg",
     "Echelon.canonical_rows", SPAN),
    ("linalg.linearmap_kernel", "leibnizx.linalg", "LinearMap.kernel", SPAN),
    ("linalg.linearmap_apply", "leibnizx.linalg", "LinearMap.apply", LEAF),
    ("linalg.linearmap_compose", "leibnizx.linalg", "LinearMap.compose",
     SPAN),
    ("linalg.subspace_from_vectors", "leibnizx.linalg",
     "Subspace.from_vectors", SPAN),
    ("lm.lm_xmod_envelope", "leibnizx.lm", "lm_xmod_envelope", SPAN),
    ("lm.u_lie", "leibnizx.lm", "u_lie", SPAN),
    ("lm.tensor_bimodule.left_mult", "leibnizx.lm",
     "TensorBimodule.left_mult", SPAN),
    ("lm.tensor_bimodule.right_mult_gen", "leibnizx.lm",
     "TensorBimodule.right_mult_gen", SPAN),
    ("lm.check_lm_assoc_xmod", "leibnizx.lm", "check_lm_assoc_xmod", SPAN),
    ("envelope.ul", "leibnizx.envelope", "ul", SPAN),
    ("envelope.ul_map", "leibnizx.envelope", "ul_map", SPAN),
    ("xul.xul", "leibnizx.xul", "xul", SPAN),
    ("xul.check_trunc_xmod", "leibnizx.xul", "check_trunc_xmod", SPAN),
    ("xul.lemma41_check", "leibnizx.xul", "lemma41_check", SPAN),
    ("xrep.rep_to_xmodule", "leibnizx.xrep", "rep_to_xmodule", SPAN),
    ("xrep.check_xmodule", "leibnizx.xrep", "check_xmodule", SPAN),
    ("xrep.xmodule_to_rep", "leibnizx.xrep", "xmodule_to_rep", SPAN),
    ("leibniz.check_leibniz", "leibnizx.leibniz",
     "LeibnizAlgebra.check_leibniz", SPAN),
    ("leibniz.check_rep", "leibnizx.leibniz", "check_rep", SPAN),
    ("xmod.check_xmod", "leibnizx.xmod", "check_xmod", SPAN),
    ("xrep.check_xmod_rep", "leibnizx.xrep", "check_xmod_rep", SPAN),
    ("io.load_path", "leibnizx.io", "load_path", SPAN),
)

CLI_KINDS = ("check", "ul", "xul", "lm", "verify.lemma41", "verify.prop42",
             "verify.thm5", "verify.squares", "verify.theta")

# Layer metrics that need a boundary their name does not start with.
NEEDS = {"scalars.row_coeff_bits_max": "freealg.ideal_span"}

KEEP_SPANS = 20000  # closed spans kept for the timeline dump


def boundary_of(metric):
    """The boundary a per-layer metric is measured at, or None for the
    metrics (cli, setup, trace) that need no patched boundary."""
    if metric in NEEDS:
        return NEEDS[metric]
    for prefix, _, _, _ in BOUNDARIES:
        if metric.startswith(prefix + "."):
            return prefix
    return None


def metrics(values, absent, per_layer):
    """{name: {"value", "unit"}} for the per_layer entries of
    BENCHMARK.json; a metric at an absent boundary gives value None with
    "absent": true.  KeyError names a declared metric nothing computes."""
    out = {}
    for m in per_layer:
        name, unit = m["name"], m["unit"]
        if boundary_of(name) in absent:
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "child_s", "leaves")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.leaves = {}
        self.end = None
        self.start = time.perf_counter()


class Tracer:
    """Collects spans and leaf counters while installed."""

    def __init__(self):
        self.closed = []
        self.stack = []
        self.next_id = 0
        self.calls = {}           # span name -> [n, s (outermost), self_s]
        self.depth = {}           # span name -> open spans of that name
        self.leaf = {}            # leaf name -> [n, s, non-None returns]
        self.under = {}           # (span name, leaf name) -> n
        self.rows = 0             # rows returned by ideal_span
        self.bits_max = 0         # largest coefficient bit length in them
        self.absent = set()
        self._undo = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        span = Span(self.next_id, name, self.stack[-1] if self.stack else None)
        self.next_id += 1
        self.stack.append(span)
        self.depth[name] = self.depth.get(name, 0) + 1
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        dur = span.end - span.start
        rec = self.calls.setdefault(span.name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[2] += dur - span.child_s
        self.depth[span.name] -= 1
        if not self.depth[span.name]:  # count recursion once
            rec[1] += dur
        if span.parent is not None:
            span.parent.child_s += dur
        for leaf, n in span.leaves.items():
            key = (span.name, leaf)
            self.under[key] = self.under.get(key, 0) + n
        if len(self.closed) < KEEP_SPANS:
            self.closed.append(span)

    def timeline(self):
        """Kept spans as [id, parent id, name, start, end] rows."""
        return [[s.id, s.parent.id if s.parent else None, s.name, s.start,
                 s.end] for s in self.closed]

    # -- wrappers ------------------------------------------------------------

    def _span_fn(self, name, fn):
        after = self._ideal_rows if name == "freealg.ideal_span" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(out)
            return out
        return traced

    def _leaf_fn(self, name, fn):
        rec = self.leaf.setdefault(name, [0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t = clock()
            out = fn(*args, **kwargs)
            rec[1] += clock() - t
            rec[0] += 1
            if out is not None:
                rec[2] += 1
            if stack:
                leaves = stack[-1].leaves
                leaves[name] = leaves.get(name, 0) + 1
            return out
        return counted

    def _ideal_rows(self, ideal):
        self.rows += len(ideal.rows)
        for row in ideal.rows:
            for x in row.values():
                b = max(int(x.numerator).bit_length(),
                        int(x.denominator).bit_length())
                if b > self.bits_max:
                    self.bits_max = b

    # -- install -----------------------------------------------------------

    def install(self):
        for prefix, modname, attr, kind in BOUNDARIES:
            mod = importlib.import_module(modname)
            make = self._span_fn if kind == SPAN else self._leaf_fn
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = owner.__dict__.get(meth) if owner else None
                if raw is None:
                    self.absent.add(prefix)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(make(prefix, raw.__func__))
                else:
                    new = make(prefix, raw)
                setattr(owner, meth, new)
                self._undo.append((owner, meth, raw))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.add(prefix)
                continue
            new = make(prefix, orig)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("leibnizx"):
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, new)
                            self._undo.append((m, k, orig))

    def uninstall(self):
        for owner, k, orig in reversed(self._undo):
            setattr(owner, k, orig)
        self._undo.clear()

    # -- metrics -----------------------------------------------------------

    def _span_stat(self, name, i):
        return self.calls.get(name, [0, 0.0, 0.0])[i]

    def _leaf_stat(self, name, i):
        return self.leaf.get(name, [0, 0.0, 0])[i]

    def values(self, traced_wall, overhead, setup):
        """Every per-layer metric value by name.  traced_wall is the wall
        time of the traced pass, overhead the traced/untraced ratio - 1, and
        setup holds import_s and generate_s from the worker."""
        v = {}
        for prefix, _, _, kind in BOUNDARIES:
            if kind == SPAN:
                v[prefix + ".n"] = self._span_stat(prefix, 0)
                v[prefix + ".s"] = self._span_stat(prefix, 1)
                v[prefix + ".self_s"] = self._span_stat(prefix, 2)
            else:
                n, s = self._leaf_stat(prefix, 0), self._leaf_stat(prefix, 1)
                v[prefix + ".n"] = n
                v[prefix + ".s"] = s
                v[prefix + ".us"] = s / n * 1e6 if n else 0.0
        ins = self._leaf_stat("linalg.echelon_insert", 0)
        v["linalg.echelon_insert.kept_ratio"] = (
            self._leaf_stat("linalg.echelon_insert", 2) / ins if ins else 0.0)
        v["freealg.ideal_span.products"] = self.under.get(
            ("freealg.ideal_span", "linalg.echelon_insert"), 0)
        v["freealg.ideal_span.rows"] = self.rows
        v["freealg.ideal_span.wall_share"] = (
            v["freealg.ideal_span.s"] / traced_wall)
        v["scalars.row_coeff_bits_max"] = self.bits_max
        rw = self._leaf_stat("freealg.reduce_word", 0)
        v["freealg.reduce_word.miss_ratio"] = (
            self._leaf_stat("freealg.truncideal_reduce_vec", 0) / rw
            if rw else 0.0)
        for k in CLI_KINDS:
            v["cli.%s.s" % k] = self._span_stat("cli." + k, 1)
        v["setup.import_s"] = setup["import_s"]
        v["setup.generate_s"] = setup["generate_s"]
        v["trace.overhead_ratio"] = overhead
        return v
