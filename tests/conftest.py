import itertools
import pathlib

import pytest

from leibnizx import io
from leibnizx.freealg import (TruncIdeal, TruncQuotAlgebra, _ambiguities,
                              filtration_basis, induced_map, rewriter,
                              word_key)
from leibnizx.leibniz import LeibnizAlgebra
from leibnizx.linalg import Echelon, LinearMap, Subspace, vec_add_scaled
from leibnizx.scalars import Q, exact
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


def groebner_basis(relations, cap):
    """Reference completion: Buchberger–Mora (Mora, TCS 134, 1994) over
    :func:`word_key`, capped at ambiguity words of length <= cap.

    Each round interreduces the relations (the canonical rows G of their
    echelon), takes each row as the rewriting rule of its leading word,
    and rewrites both sides of every ambiguity to normal form
    (``freealg.rewriter``).  A nonzero difference from an ambiguity word of
    length <= cap joins the relations; it contains no leading word, so it
    is independent of them and the round grows.  The rounds end when one
    adds nothing, which they do since each new relation has degree <= cap;
    every ambiguity of length <= cap then resolves.  Returns (G, closed):
    closed is True only when every ambiguity resolves, and then G is a
    Gröbner basis by the diamond lemma.  ``freealg.ideal_span`` is its
    first round: it certifies exactly the relation sets this closes in
    one round, adding nothing."""
    ech = Echelon(word_key)
    for r in relations:
        ech.insert(r)
    grew = True
    while grew:
        G = ech.canonical_rows()
        rules = {min(row, key=word_key): row for row in G}
        normal_form, _ = rewriter(rules)
        closed, grew = True, False
        for word, p, q in _ambiguities(rules):
            if len(word) > cap and not closed:
                continue  # it can no longer change the outcome
            diff = normal_form(vec_add_scaled(p, q, -1))
            if diff:
                closed = False
                if len(word) <= cap and ech.insert(diff) is not None:
                    grew = True
    return G, closed


def completed_quotient(gens, relations, degree, slack):
    """The quotient by the reference completion (:func:`groebner_basis`)
    of the relations, capped at degree + slack: its rows of degree <= D,
    with its closed flag as the certificate.  Below the cap every
    ambiguity resolves, so the normal words of length <= D span a
    complement of the span of the u*g*v of degree <= D, open or closed."""
    relations = [{w: exact(c) for w, c in r.items() if c} for r in relations]
    G, closed = groebner_basis(relations, degree + slack)
    rows = [r for r in G if max(map(len, r)) <= degree]
    return TruncQuotAlgebra(gens, degree, TruncIdeal(rows, closed))


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


class TensorRef:
    """Test-side reference for the bimodule U ⊗ V of the enveloping
    functor, U an enveloping algebra whose letter g acts on V on the right
    by right_bracket[g]: the basis x ⊗ v_k for U's class words x of length
    <= D - 1, coordinate ``index(x, k)`` of filtration degree |x| + 1.  U
    multiplies the left factor, and a letter g acts on the right by (x ⊗
    v)g = xg ⊗ v + x ⊗ [v,g], extended to words letter by letter.  No
    product is memoised."""

    def __init__(self, U, module_dim, right_bracket):
        self.U, self.module_dim = U, module_dim
        self.right_bracket = tuple(right_bracket)
        self.words = tuple(w for w in U.class_words if len(w) < U.degree)
        self.windex = {w: i for i, w in enumerate(self.words)}
        self.fdegs = tuple(len(w) + 1 for w in self.words
                           for _ in range(module_dim))

    @property
    def dim(self):
        return len(self.words) * self.module_dim

    def index(self, w, k):
        return self.windex[w] * self.module_dim + k

    def fdeg_index(self, flat):
        return self.fdegs[flat]

    def fdeg(self, vec):
        return max(map(self.fdegs.__getitem__, vec), default=0)

    def tensor(self, ucls, vvec):
        """Class vector ⊗ module vector, in this reference's coordinates."""
        out = {}
        for w, c in ucls.items():
            vec_add_scaled(out, {self.index(w, k): cv
                                 for k, cv in vvec.items()}, c)
        return out

    def left_mult(self, ucls, bvec, bound):
        assert self.U.fdeg(ucls) + self.fdeg(bvec) <= bound
        out = {}
        for flat, c in bvec.items():
            wi, k = divmod(flat, self.module_dim)
            vec_add_scaled(out, self.tensor(
                self.U.mult(ucls, {self.words[wi]: 1}), {k: 1}), c)
        return out

    def right_mult_gen(self, bvec, g, bound):
        assert self.fdeg(bvec) + 1 <= bound
        out = {}
        for flat, c in bvec.items():
            wi, k = divmod(flat, self.module_dim)
            w = self.words[wi]
            vec_add_scaled(out, self.tensor(
                self.U.reduce_word(w + (g,)), {k: 1}), c)
            vec_add_scaled(out, self.tensor(
                {w: 1}, self.right_bracket[g].col(k)), c)
        return out

    def right_mult(self, bvec, ucls, bound):
        assert self.fdeg(bvec) + self.U.fdeg(ucls) <= bound
        out = {}
        for w, c in ucls.items():
            tmp = bvec
            for g in w:
                tmp = self.right_mult_gen(tmp, g, bound)
            vec_add_scaled(out, tmp, c)
        return out

    def pair_word(self, flat):
        """The word x·v_k of coordinate flat, in the letters of a pair
        algebra or of sq (module letters first)."""
        wi, k = divmod(flat, self.module_dim)
        return tuple(g + self.module_dim for g in self.words[wi]) + (k,)

    def to_pair(self, a, r):
        """The pair (a, r), a in this reference's coordinates and r a class
        vector of U, as a class vector of the pair algebra."""
        out = {self.pair_word(flat): c for flat, c in a.items()}
        out.update(shift_letters(r, self.module_dim))
        return out


def direct_sum(f, g):
    """f ⊕ g, block-diagonal: φ ⊕ ψ on q ⊕ p coordinates, or a map of
    a direct sum of modules."""
    n = f.rows
    return LinearMap.from_cols(n + g.rows, [
        f.col(j) for j in range(f.cols)] + [
        {n + i: c for i, c in g.col(j).items()} for j in range(g.cols)])


def shift_letters(cv, off):
    return {tuple(g + off for g in w): c for w, c in cv.items()}


def pair_connect(P, alpha, vec):
    """The connecting map x·v_k -> x·alpha(v_k) of a pair algebra P
    (``lm.pair_algebra``) with nv = alpha.cols module letters, word by word
    on a vector of its words x·v_k, into P's classes of U's words."""
    nv, out = alpha.cols, {}
    for w, c in vec.items():
        vec_add_scaled(out, P.reduce({w[:-1] + (nv + j,): cj for j, cj in
                                      alpha.col(w[-1]).items()}), c)
    return out


def connect_bimodule_violations(P, alpha, d):
    """The connecting map of a pair algebra is a bimodule map over U: for
    every class word b = x·v_k with |b| + 1 <= d and every letter g of U,
    alpha(g·b) = g·alpha(b) and alpha(b·g) = alpha(b)·g, products in P."""
    nv, bad = alpha.cols, []
    for w in P.class_words:
        if not w or w[-1] >= nv or len(w) + 1 > d:
            continue
        cb = pair_connect(P, alpha, {w: 1})
        for g in range(nv, len(P.gens)):
            if pair_connect(P, alpha, P.mult({(g,): 1}, {w: 1}, d)) != \
                    P.mult({(g,): 1}, cb, d):
                bad.append(("left", (g, w)))
            if pair_connect(P, alpha, P.mult({w: 1}, {(g,): 1}, d)) != \
                    P.mult(cb, {(g,): 1}, d):
                bad.append(("right", (g, w)))
    return bad


def pair_product(ref, alpha, u, v, bound):
    """Oracle for the pair algebra's product: (a, r)(a', r') = (alpha(a)a'
    + ar' + ra', rr') on pairs (reference coordinates, class vector of U),
    from U's products and the reference's actions, with alpha(x ⊗ v_k) =
    x·alpha(v_k)."""
    U = ref.U
    (a, r), (a2, r2) = u, v
    conn = {}
    for flat, c in a.items():
        wi, k = divmod(flat, ref.module_dim)
        vec_add_scaled(conn, U.mult({ref.words[wi]: 1}, U.reduce(
            {(j,): cj for j, cj in alpha.col(k).items()})), c)
    bot = ref.left_mult(conn, a2, bound) if a2 else {}
    if r2:
        vec_add_scaled(bot, ref.right_mult(a, r2, bound), 1)
    if a2:
        vec_add_scaled(bot, ref.left_mult(r, a2, bound), 1)
    return bot, U.mult(r, r2, bound)


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


def _module_xmod(p, kind, nm):
    """The identity crossed module of p (kind "identity"), or the
    inclusion of the two-sided ideal spanned by its last nm basis vectors,
    the module letters ("inclusion")."""
    if kind == "identity":
        return identity_xmod(p)
    return ideal_inclusion_xmod(p, Subspace.from_vectors(
        p.dim, [{i: 1} for i in range(p.dim - nm, p.dim)]))


def hemisemidirect_xmod(a, kind):
    """The identity crossed module of hemisemidirect(a) (kind "identity"),
    or the inclusion of its two-sided ideal span(m0, m1) ("inclusion")."""
    return _module_xmod(hemisemidirect(a), kind, 2)


def sl2_ad():
    """The hemisemidirect product of sl2 = <h, e, f>, [h,e] = 2e, [h,f] =
    -2f, [e,f] = h, and its adjoint module as a right module, on the basis
    (h, e, f, mh, me, mf): [m, x] = [m, x]_sl2, and [x, m] = [m, m'] = 0.
    It is Leibniz (the Jacobi identity of sl2 makes the module a right
    module) and not Lie, its Liezation is sl2, and span(mh, me, mf) is a
    two-sided ideal."""
    sl2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    cells = [[{} for _ in range(6)] for _ in range(6)]
    for (i, j), v in sl2.items():
        cells[i][j] = dict(v)
        cells[j][i] = {k: -c for k, c in v.items()}
        cells[3 + i][j] = {3 + k: c for k, c in v.items()}
        cells[3 + j][i] = {3 + k: -c for k, c in v.items()}
    return LeibnizAlgebra("sl2+ad", ("h", "e", "f", "mh", "me", "mf"), cells)


def sl2_ad_xmod(kind):
    """The identity crossed module of sl2 ⋉ ad (kind "identity"), or the
    inclusion of its ideal span(mh, me, mf) ("inclusion")."""
    return _module_xmod(sl2_ad(), kind, 3)


def case_xmod(xmods, case):
    """The crossed module of a test case: a corpus file name, a pair (a,
    kind) of :func:`hemisemidirect_xmod`, or "sl2ad-" and a kind of
    :func:`sl2_ad_xmod`."""
    if isinstance(case, tuple):
        return hemisemidirect_xmod(*case)
    if case.startswith("sl2ad-"):
        return sl2_ad_xmod(case[len("sl2ad-"):])
    return xmods[case]


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
