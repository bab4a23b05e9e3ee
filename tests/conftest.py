import itertools
import pathlib

import pytest

from leibnizx import io
from leibnizx.freealg import (TruncIdeal, TruncQuotAlgebra, filtration_basis,
                              induced_map, word_key)
from leibnizx.leibniz import LeibnizAlgebra
from leibnizx.linalg import Echelon, Subspace, vec_add_scaled
from leibnizx.scalars import Q
from leibnizx.xmod import identity_xmod, ideal_inclusion_xmod

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


def record_kernel_quotient(module, build, monkeypatch):
    """Run build(), which calls module.kernel_product_quotient once, and
    return build()'s result and that call's (envelope, target, s and t
    generator images, result)."""
    calls = []
    kernel_product_quotient = module.kernel_product_quotient

    def recording(env, target, s_imgs, t_imgs, *args):
        out = kernel_product_quotient(env, target, s_imgs, t_imgs, *args)
        calls.append((env, target, s_imgs, t_imgs, out))
        return out

    monkeypatch.setattr(module, "kernel_product_quotient", recording)
    out = build()
    (call,) = calls
    return out, call


def full_kernels(env, target, s_imgs, t_imgs):
    """Oracle for the kernels of the cat¹ maps: s and t built on the whole
    envelope (``induced_map``, which checks them on env's rows) and their
    whole kernels, as ((s, Ker s), (t, Ker t))."""
    maps = [induced_map(env, target, imgs) for imgs in (s_imgs, t_imgs)]
    return [(f, f.kernel()) for f in maps]


def assert_x_matches_all_pairs(module, build, monkeypatch):
    """Run build(), which calls module.kernel_product_quotient once, and
    check its quotient by X against the quotient by the closure, in the
    free algebra (:func:`free_reclosure`), of the envelope's ideal and the
    all-pairs products Ker s·Ker t + Ker t·Ker s: the same class words and
    the same reduction of every word."""
    _, (env, target, s_imgs, t_imgs, kq) = record_kernel_quotient(
        module, build, monkeypatch)
    assert env.ideal.stabilized
    (_, s_ker), (_, t_ker) = full_kernels(env, target, s_imgs, t_imgs)
    prods = all_pairs_product(s_ker, t_ker, env).sum(
        all_pairs_product(t_ker, s_ker, env))
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


def hemisemidirect_xmod(a, kind):
    """The identity crossed module of hemisemidirect(a) (kind "identity"),
    or the inclusion of its two-sided ideal span(m0, m1) ("inclusion")."""
    p = hemisemidirect(a)
    if kind == "identity":
        return identity_xmod(p)
    return ideal_inclusion_xmod(p, Subspace.from_vectors(4, [{2: 1}, {3: 1}]))


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
