import itertools
import pathlib

import pytest

from leibnizx import io
from leibnizx.freealg import (TruncIdeal, TruncQuotAlgebra, filtration_basis,
                              word_key)
from leibnizx.leibniz import LeibnizAlgebra
from leibnizx.linalg import Echelon, Subspace, vec_add_scaled
from leibnizx.scalars import Q

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


def corpus_path(name):
    return str(CORPUS / name)


def is_normal(x):
    """x is a nonzero scalar in the normal form of stored coefficients: an
    ``int`` when it is integral, a ``Q`` otherwise."""
    if type(x) is int:
        return x != 0
    return type(x) is Q and x.denominator != 1


def is_normal_vec(v):
    return all(is_normal(x) for x in v.values())


def fraction_reduce(v, rows, keyf):
    """Subtract the row (pivot coefficient 1) at v's minimal pivot until no
    coordinate of v is a pivot; returns v, the exact residue.  The oracle of
    the integer elimination: its arithmetic is on ``Q`` values only."""
    while True:
        hit = None
        for c in v:
            if c in rows and (hit is None or keyf(c) < keyf(hit)):
                hit = c
        if hit is None:
            return v
        m = Q(v[hit])
        for k, x in rows[hit].items():
            y = Q(v.get(k, 0)) - m * Q(x)
            if y:
                v[k] = y
            else:
                v.pop(k, None)


def all_words(ngens, degree):
    """Every word of length <= degree on ngens letters, length-first then
    lexicographically: the truncated free algebra's basis, enumerated here
    independently of any quotient."""
    return [w for d in range(degree + 1)
            for w in itertools.product(range(ngens), repeat=d)]


def span_rows(quot):
    """The canonical reduced echelon rows, in :func:`word_key` order, of
    the span quot reduces by: {w: 1} - reduce_word(w) for each word w of
    length <= D that is not a class word."""
    return [vec_add_scaled({w: 1}, quot.reduce_word(w), -1)
            for w in sorted(all_words(len(quot.gens), quot.degree),
                            key=word_key)
            if w not in quot.class_index]


def free_reclosure(quot, added):
    """Oracle for ``TruncQuotAlgebra.extend_by``: the quotient by the
    closure, in the free algebra, of quot's ideal span (:func:`span_rows`)
    and the rows ``added`` (word-keyed vectors) under multiplication by a
    generator on either side within the degree; every row, old or added,
    is multiplied again."""
    g, D = len(quot.gens), quot.degree
    ech, work = Echelon(word_key), []

    def insert(vec):
        piv = ech.insert(vec)
        if piv is not None and len(piv) < D:
            work.append(piv)

    for row in span_rows(quot) + list(added):
        insert(row)
    while work:
        row = ech.rows[work.pop()]
        for x in range(g):
            insert({(x,) + w: c for w, c in row.items()})
            insert({w + (x,): c for w, c in row.items()})
    rows = ech.canonical_rows()
    return TruncQuotAlgebra(quot.gens, D,
                            TruncIdeal(rows, quot.ideal.stabilized))


def all_pairs_product(a_sub, b_sub, quot):
    """Oracle for ``freealg.subspace_product``: the span of the products
    a*b of every filtration row a of a_sub and b of b_sub with
    fdeg(a) + fdeg(b) <= D, as a Subspace in class coordinates."""
    fa = filtration_basis(quot, a_sub)
    fb = filtration_basis(quot, b_sub)
    prods = [quot.to_coords(quot.mult(va, vb))
             for da, va in fa for db, vb in fb if da + db <= quot.degree]
    return Subspace.from_vectors(quot.dim, prods)


def assert_x_matches_all_pairs(module, build, monkeypatch):
    """Run build(), which calls module.kernel_product_quotient once, and
    check its quotient by X against the quotient by the closure, in the
    free algebra (:func:`free_reclosure`), of the envelope's ideal and the
    all-pairs products Ker s·Ker t + Ker t·Ker s: the same class words and
    the same reduction of every word."""
    calls = []
    kernel_product_quotient = module.kernel_product_quotient

    def recording(env, *args):
        out = kernel_product_quotient(env, *args)
        calls.append((env, out))
        return out

    monkeypatch.setattr(module, "kernel_product_quotient", recording)
    build()
    (env, kq), = calls
    assert env.ideal.stabilized
    prods = all_pairs_product(kq.s_ker, kq.t_ker, env).sum(
        all_pairs_product(kq.t_ker, kq.s_ker, env))
    want = free_reclosure(env, [env.from_coords(r) for r in prods.rows])
    assert kq.quot.class_words == want.class_words
    for w in all_words(len(env.gens), env.degree):
        assert kq.quot.reduce_word(w) == want.reduce_word(w), w


def violated_rows(rows, dst, gen_images):
    """Oracle for ``induced_map``'s check: the rows (word-keyed vectors)
    whose image under the word-wise extension of the generator images is
    not zero, each image of a word multiplied out letter by letter."""
    memo = {(): dst.unit()}

    def image(w):
        if w not in memo:
            memo[w] = dst.mult(image(w[:-1]), gen_images[w[-1]])
        return memo[w]

    bad = []
    for row in rows:
        out = {}
        for w, c in row.items():
            vec_add_scaled(out, image(w), c)
        if out:
            bad.append(row)
    return bad


def hemisemidirect(a):
    """The hemisemidirect product of g = <h, e>, [h,e] = e, and the right
    g-module k², m0·h = a·m0, m1·h = (a-1)·m1, m0·e = m1, on the basis
    (h, e, m0, m1): [m, x] = m·x, and [x, m] = [m, m'] = 0
    (Kinyon–Weinstein).  It is Leibniz and not Lie, and span(m0, m1) is a
    two-sided ideal."""
    h, e, m0, m1 = range(4)
    cells = [[{} for _ in range(4)] for _ in range(4)]
    cells[h][e], cells[e][h] = {e: 1}, {e: -1}
    cells[m0][h], cells[m1][h] = {m0: a}, {m1: a - 1}
    cells[m0][e] = {m1: 1}
    return LeibnizAlgebra("hsd(%d)" % a, ("h", "e", "m0", "m1"), cells)


HSD_PARAMS = (0, 2, -1)


@pytest.fixture(scope="session")
def load():
    cache = {}

    def _load(name):
        if name not in cache:
            cache[name] = io.load_path(corpus_path(name))
        return cache[name]

    return _load


@pytest.fixture(scope="session")
def a1(load):
    return load("a1.json")


@pytest.fixture(scope="session")
def l2(load):
    return load("l2.json")


@pytest.fixture(scope="session")
def r2(load):
    return load("r2.json")


@pytest.fixture(scope="session")
def xmods(load):
    names = ("xmod-zero-a1.json", "xmod-id-a1.json", "xmod-id-l2.json",
             "xmod-id-r2.json", "xmod-incl-l2.json")
    return {n: load(n) for n in names}
