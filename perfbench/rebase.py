"""Seeded change of basis for the corpus Leibniz algebras.

Draws small integer invertible matrices from a seed and rewrites a
``leibniz_algebra`` file, and its identity and zero crossed modules, in the
new basis.  Isomorphic inputs keep every dimension and verdict of their
source, but their structure constants are dense rationals instead of sparse
+-1 entries.  All arithmetic here is stdlib ``fractions``, independent of
the library under test, and every drawn algebra is checked against the
Leibniz identity before it is written.
"""

import json
import os
import random
from fractions import Fraction

ENTRIES = (-2, -1, 1, 2)  # every matrix entry is nonzero, so rows are dense
DET = 3  # |det| of every drawn matrix larger than 1x1, so that every seed
         # brings denominators of the same size
SOURCES = ("a1", "l2", "r2")  # corpus algebras that are rebased


def rat_str(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def inverse(m):
    """(inverse, determinant) of a square Fraction matrix by Gauss-Jordan;
    ValueError if singular."""
    n = len(m)
    det = Fraction(1)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular basis change")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a], det


def draw_basis_change(rng, n):
    """(m, m^-1) for an invertible n x n integer matrix m with entries in
    ENTRIES and, for n > 1, |det m| = DET; column j of m is the j-th new
    basis vector in old coordinates."""
    while True:
        m = [[Fraction(rng.choice(ENTRIES)) for _ in range(n)]
             for _ in range(n)]
        try:
            m_inv, det = inverse(m)
        except ValueError:
            continue
        if n == 1 or abs(det) == DET:
            return m, m_inv


def read_bracket(doc):
    """(basis names, c) with [e_i, e_j] = sum_k c[i][j][k] e_k."""
    basis = doc["basis"]
    idx = {b: i for i, b in enumerate(basis)}
    n = len(basis)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for e in doc["bracket"]:
        for name, s in e["value"].items():
            c[idx[e["left"]]][idx[e["right"]]][idx[name]] = Fraction(s)
    return basis, c


def change_tensor(t, a, b, c_inv):
    """Bilinear t: U x V -> W rewritten for new bases of U, V (columns of a
    and b) and of W (inverse c_inv)."""
    nu, nv, nw = len(a), len(b), len(c_inv)
    out = [[[Fraction(0)] * nw for _ in range(nv)] for _ in range(nu)]
    for x in range(nu):
        for y in range(nv):
            old = [sum((a[i][x] * b[j][y] * t[i][j][k]
                        for i in range(nu) for j in range(nv)), Fraction(0))
                   for k in range(nw)]
            out[x][y] = [sum((c_inv[z][k] * old[k] for k in range(nw)),
                             Fraction(0)) for z in range(nw)]
    return out


def check_leibniz(c):
    """Raise ValueError unless [[x,y],z] = [x,[y,z]] + [[x,z],y] on the
    basis."""
    n = len(c)

    def br(u, v):
        return [sum((u[i] * v[j] * c[i][j][k]
                     for i in range(n) for j in range(n)), Fraction(0))
                for k in range(n)]

    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for x in unit:
        for y in unit:
            for z in unit:
                lhs = br(br(x, y), z)
                rhs = [s + t for s, t in zip(br(x, br(y, z)),
                                             br(br(x, z), y))]
                if lhs != rhs:
                    raise ValueError("basis change broke the Leibniz "
                                     "identity")


def _entries(basis1, basis2, key1, key2, t, basis_out):
    out = []
    for i, b1 in enumerate(basis1):
        for j, b2 in enumerate(basis2):
            value = {basis_out[k]: rat_str(x)
                     for k, x in enumerate(t[i][j]) if x != 0}
            if value:
                out.append({key1: b1, key2: b2, "value": value})
    return out


def algebra_doc(name, basis, c):
    return {"kind": "leibniz_algebra", "name": name, "basis": list(basis),
            "bracket": _entries(basis, basis, "left", "right", c, basis)}


def identity_xmod_doc(name, basis, c, p_change, q_change):
    """id: g -> g with p = g in one basis and q = g in another; the action
    is the bracket, so eta becomes P^-1 Q."""
    (pm, pm_inv), (qm, qm_inv) = p_change, q_change
    n = len(basis)
    cp = change_tensor(c, pm, pm, pm_inv)
    cq = change_tensor(c, qm, qm, qm_inv)
    check_leibniz(cp)
    check_leibniz(cq)
    left = change_tensor(c, pm, qm, qm_inv)   # p x q -> q, [p, q]
    right = change_tensor(c, qm, pm, qm_inv)  # q x p -> q, [q, p]
    eta = {}
    for j, b in enumerate(basis):
        col = {basis[i]: rat_str(sum((pm_inv[i][k] * qm[k][j]
                                      for k in range(n)), Fraction(0)))
               for i in range(n)}
        eta[b] = {k: v for k, v in col.items() if v != "0"}
    return {"kind": "xmod",
            "p": algebra_doc(name, basis, cp),
            "q": algebra_doc(name, basis, cq),
            "eta": eta,
            "action": {"left": _entries(basis, basis, "p", "q", left, basis),
                       "right": _entries(basis, basis, "q", "p", right,
                                         basis)}}


def zero_xmod_doc(p_doc):
    return {"kind": "xmod", "p": p_doc,
            "q": {"kind": "leibniz_algebra", "name": "0", "basis": [],
                  "bracket": []},
            "eta": {}, "action": {"left": [], "right": []}}


def write_rebased(corpus_dir, out_dir, seed):
    """Write <src>.json, xmod-id-<src>.json and xmod-zero-<src>.json for each
    source algebra under out_dir; returns {file stem: path}."""
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for src in SOURCES:
        with open(os.path.join(corpus_dir, src + ".json"),
                  encoding="utf-8") as f:
            doc = json.load(f)
        basis, c = read_bracket(doc)
        p_change = draw_basis_change(rng, len(basis))
        q_change = draw_basis_change(rng, len(basis))
        name = doc["name"] + "'"
        xid = identity_xmod_doc(name, basis, c, p_change, q_change)
        docs = {src: xid["p"], "xmod-id-" + src: xid,
                "xmod-zero-" + src: zero_xmod_doc(xid["p"])}
        for stem, d in docs.items():
            path = os.path.join(out_dir, stem + ".json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(d, f, indent=2, sort_keys=True)
                f.write("\n")
            paths[stem] = path
    return paths
