"""JSON file formats for the objects the command line works with.

Every scalar in a file is a rational written as a string, "n" or "n/d";
floats never appear.  Sparse data only: omitted entries are zero.  Basis
elements are referred to by name, and all name references are validated at
load time.  ``dumps`` produces a canonical form (sorted keys, fixed
indentation), so load -> dump -> load is the identity and dumping a freshly
loaded canonical file reproduces it byte for byte.

Kinds:

  leibniz_algebra   name, basis, bracket entries {left, right, value}
  assoc_algebra     name, basis, product entries {left, right, value}
  xmod              q, p (inline or by path), eta, action {left, right}
  rep               algebra, module basis, left/right entries {p, m, value}
  xmod_rep          xmod, n/m bases, mu, four action tables, xi1/xi2
  module            algebra, module basis, generator matrices keyed "b_l"
                    and "b_r" per algebra basis name b

Sub-objects may be inlined or referenced by a path string, resolved
relative to the referencing file.
"""

import contextvars
import json
import os

from .scalars import rat_from_str, rat_to_str
from .linalg import LinearMap
from .leibniz import Action, LeibnizAlgebra, LeibnizRep
from .assoc import AssocAlgebra
from .xmod import LeibnizXMod
from .xrep import LeibnizXModRep
from .envelope import ULModule


class FormatError(ValueError):
    """Malformed or inconsistent input file; maps to exit code 2."""


# ---------------------------------------------------------------------------
# helpers


def _need(data, key, kind, typ=object):
    """data[key], which must be there and of JSON type typ if given."""
    if key not in data:
        raise FormatError("%s file is missing %r" % (kind, key))
    if not isinstance(data[key], typ):
        raise FormatError("%s: %r must be a JSON %s" % (
            kind, key, {dict: "object", list: "array", str: "string"}[typ]))
    return data[key]


def _basis_index(names, kind):
    if not all(isinstance(b, str) for b in names):
        raise FormatError("%s basis names must be strings" % kind)
    if len(set(names)) != len(names):
        raise FormatError("%s file has duplicate basis names" % kind)
    return {b: i for i, b in enumerate(names)}


def _rat(s):
    if not isinstance(s, str):
        raise FormatError("rational values must be strings, got %r" % (s,))
    try:
        return rat_from_str(s)
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError("bad rational %r: %s" % (s, e))


def _value_vec(value, index, where):
    """A {basis name: rational string} map as a sparse vector."""
    out = {}
    if not isinstance(value, dict):
        raise FormatError("%s: value must be an object" % where)
    for name, s in value.items():
        if name not in index:
            raise FormatError("%s: unknown basis element %r" % (where, name))
        out[index[name]] = _rat(s)
    return out


def _tensor_from_entries(entries, key1, key2, idx1, idx2, idx_out, where):
    t = [[{} for _ in idx2] for _ in idx1]
    if not isinstance(entries, list) or {type(e) for e in entries} - {dict}:
        raise FormatError("%s: table must be an array of objects" % where)
    for e in entries:
        n1, n2 = _need(e, key1, where, str), _need(e, key2, where, str)
        if n1 not in idx1 or n2 not in idx2:
            raise FormatError("%s: unknown basis element in entry (%r, %r)"
                              % (where, n1, n2))
        t[idx1[n1]][idx2[n2]] = _value_vec(_need(e, "value", where), idx_out,
                                           where)
    return t


def _action_mats(entries, akey, mkey, a_idx, m_idx, out_idx, where):
    """Table entries {akey, mkey, value} as one LinearMap m -> out per
    a-basis element."""
    t = _tensor_from_entries(entries, akey, mkey, a_idx, m_idx, out_idx,
                             where)
    return tuple(LinearMap.from_cols(len(out_idx), row) for row in t)


def _entries(key1, names1, key2, names2, names_out, value_at):
    """Table entries {key1, key2, value} for each nonzero sparse vector
    value_at(i, j), i over names1 (outer) and j over names2."""
    out = []
    for i, b1 in enumerate(names1):
        for j, b2 in enumerate(names2):
            v = value_at(i, j)
            if v:
                out.append({key1: b1, key2: b2,
                            "value": {names_out[k]: rat_to_str(c)
                                      for k, c in sorted(v.items())}})
    return out


def _left_entries(mats, p_names, m_names):
    """Entries {p, m, value} of a left action, one map per p."""
    return _entries("p", p_names, "m", m_names, m_names,
                    lambda i, j: mats[i].col(j))


def _right_entries(mats, p_names, m_names):
    """Entries {m, p, value} of a right action, one map per p."""
    return _entries("m", m_names, "p", p_names, m_names,
                    lambda j, i: mats[i].col(j))


def _matrix_cols(data, src_index, dst_index, where):
    """{src name: {dst name: rat}} as a LinearMap src -> dst."""
    cols = [{} for _ in src_index]
    if not isinstance(data, dict):
        raise FormatError("%s: matrix must be an object" % where)
    for name, col in data.items():
        if name not in src_index:
            raise FormatError("%s: unknown column %r" % (where, name))
        cols[src_index[name]] = _value_vec(col, dst_index, where)
    return LinearMap.from_cols(len(dst_index), cols)


def _matrix_dump(f, src_names, dst_names):
    out = {}
    for j, name in enumerate(src_names):
        col = f.col(j)
        if col:
            out[name] = {dst_names[i]: rat_to_str(c)
                         for i, c in sorted(col.items())}
    return out


def _gen_names(prefix, n):
    return ["%s%d" % (prefix, i) for i in range(n)]


# ---------------------------------------------------------------------------
# algebras


def _load_algebra(data, cls):
    kind = _KIND_OF_TYPE[cls]
    name = _need(data, "name", kind, str)
    basis = _need(data, "basis", kind, list)
    idx = _basis_index(basis, kind)
    entries = data.get(_TABLE_KEY[cls], [])
    t = _tensor_from_entries(entries, "left", "right", idx, idx, idx,
                             "%s %s" % (kind, name))
    return cls(name, tuple(basis), t)


def _dump_algebra(alg):
    return {
        "kind": _KIND_OF_TYPE[type(alg)],
        "name": alg.name,
        "basis": list(alg.basis),
        _TABLE_KEY[type(alg)]: _entries("left", alg.basis, "right", alg.basis,
                                        alg.basis, alg.product_basis),
    }


# the table key of an algebra file, "bracket" or "product"
_TABLE_KEY = {LeibnizAlgebra: "bracket", AssocAlgebra: "product"}


# ---------------------------------------------------------------------------
# crossed modules


def _load_xmod(data, base_dir):
    q = _load_sub(data, "q", "leibniz_algebra", base_dir, "xmod")
    p = _load_sub(data, "p", "leibniz_algebra", base_dir, "xmod")
    qi = _basis_index(q.basis, "xmod q")
    pi = _basis_index(p.basis, "xmod p")
    eta = _matrix_cols(data.get("eta", {}), qi, pi, "xmod eta")
    action = _need(data, "action", "xmod", dict)
    left = _tensor_from_entries(action.get("left", []), "p", "q",
                                pi, qi, qi, "xmod action left")
    right = _tensor_from_entries(action.get("right", []), "q", "p",
                                 qi, pi, qi, "xmod action right")
    return LeibnizXMod(q, p, eta, Action(p, q, left, right))


def _dump_xmod(x):
    act = x.action
    left = _entries("p", x.p.basis, "q", x.q.basis, x.q.basis,
                    lambda i, j: act.left_tensor[i][j])
    right = _entries("q", x.q.basis, "p", x.p.basis, x.q.basis,
                     lambda j, i: act.right_tensor[j][i])
    return {
        "kind": "xmod",
        "q": _dump_algebra(x.q),
        "p": _dump_algebra(x.p),
        "eta": _matrix_dump(x.eta, x.q.basis, x.p.basis),
        "action": {"left": left, "right": right},
    }


# ---------------------------------------------------------------------------
# representations


def _load_rep(data, base_dir):
    p = _load_sub(data, "algebra", "leibniz_algebra", base_dir, "rep")
    module = _need(data, "module", "rep", list)
    mi = _basis_index(module, "rep module")
    pi = _basis_index(p.basis, "rep algebra")
    left = _action_mats(data.get("left", []), "p", "m", pi, mi, mi,
                        "rep left")
    right = _action_mats(data.get("right", []), "p", "m", pi, mi, mi,
                         "rep right")
    return LeibnizRep(p, len(module), left, right)


def _dump_rep(rep):
    m_names = _gen_names("m", rep.module_dim)
    return {
        "kind": "rep",
        "algebra": _dump_algebra(rep.algebra),
        "module": m_names,
        "left": _left_entries(rep.left_mats, rep.algebra.basis, m_names),
        "right": _right_entries(rep.right_mats, rep.algebra.basis, m_names),
    }


def _load_xmod_rep(data, base_dir):
    x = _load_sub(data, "xmod", "xmod", base_dir, "xmod_rep")
    n_names = _need(data, "n", "xmod_rep", list)
    m_names = _need(data, "m", "xmod_rep", list)
    ni = _basis_index(n_names, "xmod_rep n")
    mi = _basis_index(m_names, "xmod_rep m")
    pi = _basis_index(x.p.basis, "xmod_rep p")
    qi = _basis_index(x.q.basis, "xmod_rep q")
    mu = _matrix_cols(data.get("mu", {}), ni, mi, "xmod_rep mu")

    def rep_of(prefix, idx):
        left, right = (
            _action_mats(data.get(prefix + side, []), "p", "m", pi, idx, idx,
                         "xmod_rep " + prefix)
            for side in ("_left", "_right"))
        return LeibnizRep(x.p, len(idx), left, right)

    rep_n, rep_m = rep_of("n", ni), rep_of("m", mi)
    xi1, xi2 = (_action_mats(data.get(key, []), "q", "m", qi, mi, ni,
                             "xmod_rep " + key) for key in ("xi1", "xi2"))
    return LeibnizXModRep(x, mu, rep_n, rep_m, xi1, xi2)


def _dump_xmod_rep(r):
    x = r.xmod
    n_names = _gen_names("n", r.n_dim)
    m_names = _gen_names("m", r.m_dim)
    xi1 = _entries("q", x.q.basis, "m", m_names, n_names,
                   lambda j, jm: r.xi1[j].col(jm))
    xi2 = _entries("m", m_names, "q", x.q.basis, n_names,
                   lambda jm, j: r.xi2[j].col(jm))
    return {
        "kind": "xmod_rep",
        "xmod": _dump_xmod(x),
        "n": n_names,
        "m": m_names,
        "mu": _matrix_dump(r.mu, n_names, m_names),
        "n_left": _left_entries(r.rep_n.left_mats, x.p.basis, n_names),
        "n_right": _right_entries(r.rep_n.right_mats, x.p.basis, n_names),
        "m_left": _left_entries(r.rep_m.left_mats, x.p.basis, m_names),
        "m_right": _right_entries(r.rep_m.right_mats, x.p.basis, m_names),
        "xi1": xi1,
        "xi2": xi2,
    }


# ---------------------------------------------------------------------------
# envelope modules


def _load_module(data, base_dir):
    p = _load_sub(data, "algebra", "leibniz_algebra", base_dir, "module")
    module = _need(data, "module", "module", list)
    mi = _basis_index(module, "module")
    gens = _need(data, "generators", "module", dict)
    labels = ["%s_l" % b for b in p.basis] + ["%s_r" % b for b in p.basis]
    for key in gens:
        if key not in labels:
            raise FormatError("module: unknown generator %r" % key)
    mats = [_matrix_cols(gens.get(lbl, {}), mi, mi, "module generator " + lbl)
            for lbl in labels]
    return ULModule(p, len(module), tuple(mats))


def _dump_module(mod):
    p = mod.p
    m_names = _gen_names("m", mod.dim)
    labels = ["%s_l" % b for b in p.basis] + ["%s_r" % b for b in p.basis]
    gens = {}
    for lbl, f in zip(labels, mod.gen_mats):
        m = _matrix_dump(f, m_names, m_names)
        if m:
            gens[lbl] = m
    return {
        "kind": "module",
        "algebra": _dump_algebra(p),
        "module": m_names,
        "generators": gens,
    }


# ---------------------------------------------------------------------------
# dispatch


def _load_sub(data, key, expected_kind, base_dir, where):
    sub = _need(data, key, where)
    if isinstance(sub, str):
        path = os.path.join(base_dir, sub)
        obj = load_path(path)
        want = _KIND_OF_TYPE.get(type(obj))
        if want != expected_kind:
            raise FormatError("%s: %r is a %s file, expected %s"
                              % (where, sub, want, expected_kind))
        return obj
    if not isinstance(sub, dict):
        raise FormatError("%s: %r must be inline or a path" % (where, key))
    if sub.get("kind", expected_kind) != expected_kind:
        raise FormatError("%s: %r has kind %r, expected %s"
                          % (where, key, sub.get("kind"), expected_kind))
    return load_data(dict(sub, kind=expected_kind), base_dir)


def load_data(data, base_dir="."):
    """Build the library object described by a parsed JSON document."""
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    kind = _need(data, "kind", "input")
    if kind == "leibniz_algebra":
        return _load_algebra(data, LeibnizAlgebra)
    if kind == "assoc_algebra":
        return _load_algebra(data, AssocAlgebra)
    if kind == "xmod":
        return _load_xmod(data, base_dir)
    if kind == "rep":
        return _load_rep(data, base_dir)
    if kind == "xmod_rep":
        return _load_xmod_rep(data, base_dir)
    if kind == "module":
        return _load_module(data, base_dir)
    raise FormatError("unknown kind %r" % kind)


# real paths of the files being loaded in this context, outermost first
_LOADING = contextvars.ContextVar("loading", default=())


def load_path(path):
    real, loading = os.path.realpath(path), _LOADING.get()
    if real in loading:
        raise FormatError("path reference cycle: " + " -> ".join(
            loading[loading.index(real):] + (real,)))
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise FormatError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise FormatError("%s is not valid JSON: %s" % (path, e))
    token = _LOADING.set(loading + (real,))
    try:
        return load_data(data, os.path.dirname(os.path.abspath(path)))
    finally:
        _LOADING.reset(token)


_KIND_OF_TYPE = {
    LeibnizAlgebra: "leibniz_algebra",
    AssocAlgebra: "assoc_algebra",
    LeibnizXMod: "xmod",
    LeibnizRep: "rep",
    LeibnizXModRep: "xmod_rep",
    ULModule: "module",
}


def dump_data(obj):
    """The canonical JSON document for a library object."""
    if type(obj) in _TABLE_KEY:
        return _dump_algebra(obj)
    if isinstance(obj, LeibnizXMod):
        return _dump_xmod(obj)
    if isinstance(obj, LeibnizRep):
        return _dump_rep(obj)
    if isinstance(obj, LeibnizXModRep):
        return _dump_xmod_rep(obj)
    if isinstance(obj, ULModule):
        return _dump_module(obj)
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def dumps(obj):
    return json.dumps(dump_data(obj), indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"
