import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizx.scalars import Q
from leibnizx.freealg import word_key
from leibnizx.linalg import (Echelon, LinearMap, Subspace, lincomb,
                             quotient_basis, rational, reduce_by_pivots,
                             residue, vec_add_scaled, zero_subspace)

from leibnizx.leibniz import _tensor

from conftest import fraction_reduce, is_normal, is_normal_vec


def sv(*pairs):
    return {k: Q(c) for k, c in pairs}


def test_vec_helpers():
    v = sv((0, 1), (2, 3))
    vec_add_scaled(v, sv((0, -1), (1, 5)), Q(1))
    assert v == sv((1, 5), (2, 3))


def test_echelon_insert_and_reduce():
    ech = Echelon()
    assert ech.insert(sv((0, 2), (1, 4))) == 0
    # dependent vector is rejected
    assert ech.insert(sv((0, 1), (1, 2))) is None
    assert ech.insert(sv((1, 1))) == 1
    assert len(ech) == 2
    assert ech.reduce(sv((0, 7), (1, 9))) == {}
    assert ech.contains(sv((0, 3), (1, 6)))
    # rows are pivot-normalized
    assert ech.rows[0][0] == 1


def test_echelon_canonical_rows_back_substitute():
    ech = Echelon()
    ech.insert(sv((0, 1), (1, 1)))
    ech.insert(sv((1, 1), (2, 1)))
    rows = ech.canonical_rows()
    assert rows == [sv((0, 1), (2, -1)), sv((1, 1), (2, 1))]


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(3, [sv((0, 1), (1, 1)), sv((1, 2))])
    b = Subspace.from_vectors(3, [sv((1, 1)), sv((0, 5))])
    assert a == b
    assert a.dim == 2
    assert a.contains_vec(sv((0, 1), (1, 7)))
    assert not a.contains_vec(sv((2, 1)))


def test_subspace_coords_roundtrip_and_rejection():
    s = Subspace.from_vectors(3, [sv((0, 1), (2, 1)), sv((1, 1))])
    v = sv((0, 2), (1, -3), (2, 2))
    c = s.coords(v)
    assert c == {0: Q(2), 1: Q(-3)}
    rebuilt = {}
    for i, x in c.items():
        vec_add_scaled(rebuilt, s.rows[i], x)
    assert rebuilt == v
    # zero coordinates are not stored
    assert s.coords(sv((1, 4))) == {1: Q(4)}
    assert s.coords({}) == {}
    try:
        s.coords(sv((2, 1)))
        assert False, "coords outside the subspace must raise"
    except ValueError:
        pass


def _coords_by_rows(s, v):
    """Oracle for Subspace.coords: every row in turn, reading v at its
    pivot."""
    out, w = {}, {}
    for i, (p, r) in enumerate(zip(s.pivots, s.rows)):
        c = v.get(p, 0)
        if c != 0:
            out[i] = c
            vec_add_scaled(w, r, c)
    if w != {k: x for k, x in v.items() if x != 0}:
        raise ValueError("vector not in subspace")
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 7),
       st.lists(st.dictionaries(st.integers(0, 6), st.integers(-3, 3),
                                max_size=4), max_size=5),
       st.lists(st.integers(-2, 2), min_size=5, max_size=5),
       st.dictionaries(st.integers(0, 6), st.integers(-2, 2), max_size=2))
def test_subspace_coords_match_the_row_loop(n, raw, mix, noise):
    """coords, which looks up v's support among the pivots, against the
    loop over every row: the same coordinates in the same (row) order for
    a combination of the rows with explicit zeros in it, and ValueError
    from both for that combination moved off the subspace."""
    s = Subspace.from_vectors(n, [{k: x for k, x in r.items() if k < n and x}
                                  for r in raw])
    v = {}
    for r, c in zip(s.rows, mix):
        vec_add_scaled(v, r, c)
    got = s.coords({**{k: 0 for k in range(n)}, **v})
    assert got == _coords_by_rows(s, v)
    assert list(got) == sorted(got)
    off = vec_add_scaled(dict(v), {k: x for k, x in noise.items() if k < n},
                         1)
    try:
        want = _coords_by_rows(s, off)
    except ValueError:
        with pytest.raises(ValueError):
            s.coords(off)
    else:
        assert s.coords(off) == want


def test_subspace_sum_intersect():
    a = Subspace.from_vectors(3, [sv((0, 1))])
    b = Subspace.from_vectors(3, [sv((0, 1), (1, 1))])
    assert a.sum(b).dim == 2
    assert a.intersect(b) == zero_subspace(3)
    c = Subspace.from_vectors(3, [sv((0, 1)), sv((1, 1))])
    assert c.intersect(b) == b


def test_quotient_basis_projection():
    s = Subspace.from_vectors(3, [sv((0, 1), (2, 1))])
    comp, proj = s.quotient_basis()
    assert comp == (1, 2)
    # e0 == -e2 mod s, so both project to the same vector
    assert proj.apply(sv((0, 1))) == proj.apply(sv((2, -1)))
    for r in s.rows:
        assert proj.apply(r) == {}


def test_linear_map_basics():
    f = LinearMap.from_cols(2, [sv((0, 1), (1, 1)), sv((1, 2))])
    assert f.col(0) == sv((0, 1), (1, 1))
    assert f.apply(sv((0, 1), (1, 1))) == sv((0, 1), (1, 3))
    assert (f @ LinearMap.identity(2)) == f
    assert f.rank() == 2
    assert f.kernel() == zero_subspace(2)


def test_kernel_image():
    # rank-1 map: (x, y) -> (x + y, 2x + 2y)
    f = LinearMap.from_cols(2, [sv((0, 1), (1, 2)), sv((0, 1), (1, 2))])
    assert f.rank() == 1
    k = f.kernel()
    assert k.dim == 1
    assert f.apply(k.rows[0]) == {}
    assert f.image() == Subspace.from_vectors(2, [sv((0, 1), (1, 2))])


def test_restrict():
    f = LinearMap.from_cols(2, [sv((0, 1)), sv((1, 1)), sv((0, 1))])
    sub = Subspace.from_vectors(3, [sv((0, 1), (2, -1)), sv((0, 1))])
    g = f.restrict(sub)
    assert g.cols == 2
    assert [g.col(j) for j in range(2)] == [f.apply(r) for r in sub.rows]


coeffs = st.integers(min_value=-4, max_value=4)


def sparse_cols(rows, cols):
    """Random columns as sparse dicts; zero values are allowed in, and
    from_cols must drop them."""
    return st.lists(st.dictionaries(st.integers(0, rows - 1), coeffs),
                    min_size=cols, max_size=cols)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(lambda rows: st.tuples(
    st.just(rows), sparse_cols(rows, 3))))
def test_rank_nullity(shape_cols):
    rows, cols = shape_cols
    f = LinearMap.from_cols(rows, cols)
    assert f.rank() + f.kernel().dim == 3
    for r in f.kernel().rows:
        assert f.apply(r) == {}


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(coeffs, min_size=4, max_size=4),
                min_size=1, max_size=3),
       st.lists(st.lists(coeffs, min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_intersection_modular_law(rows_a, rows_b):
    def sub(rows):
        return Subspace.from_vectors(
            4, [{i: Q(c) for i, c in enumerate(r) if c} for r in rows])

    a, b = sub(rows_a), sub(rows_b)
    inter, total = a.intersect(b), a.sum(b)
    assert inter.dim + total.dim == a.dim + b.dim
    assert a.contains(inter) and b.contains(inter)
    assert total.contains(a) and total.contains(b)


def lincomb_fold(mats, coeffs, rows, cols):
    """The fold lincomb replaces; kept as its oracle."""
    out = LinearMap.zero(rows, cols)
    for k, c in coeffs.items():
        out = out.add(mats[k].scale(c))
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_lincomb_matches_fold(rows, cols, data):
    mats = [LinearMap.from_cols(rows, data.draw(sparse_cols(rows, cols)))
            for _ in range(data.draw(st.integers(1, 3)))]
    cs = data.draw(st.dictionaries(st.integers(0, len(mats) - 1),
                                   coeffs.map(Q)))
    assert lincomb(mats, cs, rows, cols) == \
        lincomb_fold(mats, cs, rows, cols)


def test_lincomb_edge_cases():
    f = LinearMap.from_cols(2, [sv((0, 1)), sv((1, -1)), sv((0, 2))])
    # empty coefficients give the zero map of the requested shape
    assert lincomb([f], {}, 2, 3) == LinearMap.zero(2, 3)
    # coefficients that cancel
    assert lincomb([f, f], {0: Q(2), 1: Q(-2)}, 2, 3).is_zero()
    # dict-indexed matrices, non-square
    g = LinearMap.from_cols(2, [sv((1, 1)), sv((0, 1)), {}])
    assert lincomb({"f": f, "g": g}, {"g": Q(3), "f": Q(1, 2)}, 2, 3) == \
        f.scale(Q(1, 2)).add(g.scale(3))
    try:
        lincomb([f], {0: Q(1)}, 3, 2)
        assert False, "a shape mismatch must raise"
    except ValueError:
        pass


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(coeffs, min_size=4, max_size=4),
                min_size=0, max_size=3),
       st.lists(coeffs, min_size=4, max_size=4), st.booleans())
def test_reducer_residue_matches_subspace(span, vec, reverse):
    """The residue modulo a span is the same under either pivot order once
    it is read modulo the span; under the natural order it is exactly
    Subspace.reduce_vec's."""
    vectors = [{i: Q(c) for i, c in enumerate(r) if c} for r in span]
    v = {i: Q(c) for i, c in enumerate(vec) if c}
    sub = Subspace.from_vectors(4, vectors)
    ech = Echelon((lambda i: -i) if reverse else (lambda i: i))
    for u in vectors:
        ech.insert(u)
    w = {i: c for i, c in enumerate(vec) if c}
    d = reduce_by_pivots(w, ech.rows, ech.keyf)
    assert d > 0 and not set(w) & set(ech.rows)
    res = {k: Q(x, d) for k, x in w.items()}
    assert sub.reduce_vec(res) == sub.reduce_vec(v)
    if not reverse:
        assert res == sub.reduce_vec(v)


# ---------------------------------------------------------------------------
# the rational echelon the integer one replaced, kept as its oracle


class FractionEchelon:
    def __init__(self, keyf):
        self.keyf = keyf
        self.rows = {}

    def reduce(self, v):
        return fraction_reduce(dict(v), self.rows, self.keyf)

    def insert(self, v):
        v = self.reduce(v)
        if not v:
            return None
        piv = min(v, key=self.keyf)
        inv = 1 / Q(v[piv])
        self.rows[piv] = {k: inv * x for k, x in v.items()}
        return piv

    def canonical_rows(self):
        done = {}
        for piv in sorted(self.rows, key=self.keyf, reverse=True):
            done[piv] = fraction_reduce(dict(self.rows[piv]), done, self.keyf)
        return [done[p] for p in sorted(done, key=self.keyf)]


N = 6
WORDS = [w for d in range(3) for w in itertools.product(range(2), repeat=d)]
KEYS = {
    "natural": (lambda i: i, list(range(N))),
    "reversed": (lambda i: -i, list(range(N))),
    "word_key": (word_key, WORDS[:N]),
}
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(
    lambda x: x != 0)
sparse = st.dictionaries(st.integers(0, N - 1), rationals, max_size=N)


def _primitive_rows(ech):
    for piv, row in ech.rows.items():
        assert all(type(x) is int for x in row.values())
        assert gcd(*row.values()) == 1
        assert row[piv] > 0


@pytest.mark.parametrize("key", sorted(KEYS))
@settings(deadline=None, max_examples=80)
@given(st.lists(sparse, max_size=6), st.lists(sparse, min_size=1,
                                                 max_size=3))
def test_integer_echelon_matches_fraction_oracle(key, vecs, probes):
    keyf, coords = KEYS[key]

    def at(v):
        return {coords[i]: x for i, x in v.items()}

    ech, oracle = Echelon(keyf), FractionEchelon(keyf)
    for v in vecs:
        assert ech.insert(at(v)) == oracle.insert(at(v))
    assert set(ech.rows) == set(oracle.rows)
    _primitive_rows(ech)
    # each integer row is a positive multiple of the rational one
    assert all(rational(r, r[p]) == oracle.rows[p]
               for p, r in ech.rows.items())
    assert ech.canonical_rows() == oracle.canonical_rows()
    for p in probes:
        res = oracle.reduce(at(p))
        assert ech.contains(at(p)) == (not res)
        # Echelon.reduce gives a nonzero multiple of the residue
        got = ech.reduce(at(p))
        assert set(got) == set(res)
        if res:
            k = min(res, key=keyf)
            assert {c: x * res[k] for c, x in got.items()} == \
                {c: got[k] * x for c, x in res.items()}
    if key == "word_key":
        return
    # Subspace is pivoted at the lowest coordinate, whatever keyf
    natural = FractionEchelon(lambda i: i)
    for v in vecs:
        natural.insert(at(v))
    canon = natural.canonical_rows()
    sub = Subspace.from_vectors(N, [at(v) for v in vecs])
    assert list(sub.rows) == canon
    for p in probes:
        assert sub.reduce_vec(at(p)) == fraction_reduce(
            dict(at(p)), {min(r): r for r in canon}, natural.keyf)
    comp, proj = quotient_basis(N, ech.rows, keyf)
    ocomp = tuple(i for i in range(N) if i not in oracle.rows)
    pos = {c: i for i, c in enumerate(ocomp)}
    ocols = [{pos[c]: x for c, x in
              fraction_reduce({j: Q(1)}, oracle.rows, keyf).items()}
             for j in range(N)]
    assert comp == ocomp
    assert proj == LinearMap.from_cols(len(ocomp), ocols)
    scomp, sproj = sub.quotient_basis()
    spos = {c: i for i, c in enumerate(scomp)}
    assert sproj == LinearMap.from_cols(
        len(scomp), [{spos[c]: x for c, x in
                      sub.reduce_vec({j: Q(1)}).items()}
                     for j in range(N)])


def test_float_coefficient_is_rejected():
    ech = Echelon()
    ech.insert({0: Q(1), 1: Q(2)})
    for bad in ({0: 0.5}, {1: Q(1), 2: 1.0}, {0: 0.1}):
        with pytest.raises(TypeError):
            ech.insert(bad)
        with pytest.raises(TypeError):
            Subspace.full(3).reduce_vec(bad)
        # stored vectors: map columns and structure constants
        with pytest.raises(TypeError):
            LinearMap.from_cols(3, [bad])
        with pytest.raises(TypeError):
            _tensor(1, 1, 3, [[bad]])
    assert len(ech) == 1


@pytest.mark.parametrize("key", sorted(KEYS))
@settings(deadline=None, max_examples=60)
@given(st.lists(sparse, max_size=6), st.lists(sparse, min_size=1, max_size=3),
       st.dictionaries(st.integers(0, N - 1), st.integers(-12, 12)),
       st.integers(-6, 6).filter(bool))
def test_outputs_are_in_normal_form(key, vecs, probes, w, d):
    """rational, residue and canonical_rows give an int for every integral
    value and a Q for every other, and equal the all-Q computation."""
    keyf, coords = KEYS[key]

    def at(v):
        return {coords[i]: x for i, x in v.items()}

    w = {k: x for k, x in w.items() if x}
    got = rational(w, d)
    assert is_normal_vec(got)
    assert got == {k: Q(x, d) for k, x in w.items()}
    ech, oracle = Echelon(keyf), FractionEchelon(keyf)
    for v in vecs:
        ech.insert(at(v))
        oracle.insert(at(v))
    rows = ech.canonical_rows()
    assert all(is_normal_vec(r) for r in rows)
    assert rows == oracle.canonical_rows()
    for p in probes:
        res = residue(at(p), ech.rows, keyf)
        assert is_normal_vec(res)
        assert res == oracle.reduce(at(p))


# ---------------------------------------------------------------------------
# the dense LinearMap the sparse one replaced, kept as its oracle


class DenseMap:
    """Matrix over Q with entries[i][j] in row i, column j."""

    def __init__(self, rows, cols, entries):
        self.rows, self.cols = rows, cols
        self.entries = tuple(tuple(Q(x) for x in r) for r in entries)
        assert len(self.entries) == rows
        assert all(len(r) == cols for r in self.entries)

    @classmethod
    def from_cols(cls, rows, cols_vectors):
        return cls(rows, len(cols_vectors),
                   [[v.get(i, 0) for v in cols_vectors] for i in range(rows)])

    def col(self, j):
        return {i: self.entries[i][j] for i in range(self.rows)
                if self.entries[i][j] != 0}

    def apply(self, v):
        return {i: x for i in range(self.rows)
                if (x := sum((self.entries[i][j] * c for j, c in v.items()),
                             Q(0))) != 0}

    def compose(self, other):
        return DenseMap(self.rows, other.cols,
                        [[sum((self.entries[i][k] * other.entries[k][j]
                               for k in range(self.cols)), Q(0))
                          for j in range(other.cols)]
                         for i in range(self.rows)])

    def add(self, other):
        return DenseMap(self.rows, self.cols,
                        [[a + b for a, b in zip(ra, rb)]
                         for ra, rb in zip(self.entries, other.entries)])

    def scale(self, c):
        return DenseMap(self.rows, self.cols,
                        [[c * x for x in r] for r in self.entries])

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)

    def rref(self):
        """(reduced rows, pivot columns) by plain Gauss-Jordan."""
        m = [list(r) for r in self.entries]
        pivots = []
        for j in range(self.cols):
            r = len(pivots)
            hit = next((i for i in range(r, self.rows) if m[i][j] != 0),
                       None)
            if hit is None:
                continue
            m[r], m[hit] = m[hit], m[r]
            m[r] = [x / m[r][j] for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][j] != 0:
                    m[i] = [a - m[i][j] * b for a, b in zip(m[i], m[r])]
            pivots.append(j)
        return m, pivots

    def kernel_basis(self):
        m, pivots = self.rref()
        out = []
        for f in range(self.cols):
            if f in pivots:
                continue
            v = {f: Q(1)}
            for r, p in enumerate(pivots):
                if m[r][f] != 0:
                    v[p] = -m[r][f]
            out.append(v)
        return out

    def rank(self):
        return len(self.rref()[1])


def to_dense(f):
    return DenseMap.from_cols(f.rows, [f.col(j) for j in range(f.cols)])


def assert_normal(f):
    """Every stored column is in normal form: each value a nonzero ``int``
    when integral and a ``Q`` otherwise, each row index in range."""
    for j in range(f.cols):
        for i, x in f.col(j).items():
            assert is_normal(x)
            assert 0 <= i < f.rows


small_q = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))


def dense_entries(rows, cols, zero=False):
    cell = st.just(0) if zero else small_q
    return st.lists(st.lists(cell, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def sparse_of(d):
    return LinearMap.from_cols(
        d.rows, [{i: d.entries[i][j] for i in range(d.rows)}
                 for j in range(d.cols)])


def check_against_dense(a, b, c, v, s, coeffs_):
    """a, c: rows x cols; b: cols x k; all DenseMap.  Compares every
    operation of the sparse LinearMap with the oracle."""
    fa, fb, fc = sparse_of(a), sparse_of(b), sparse_of(c)
    for f, d in ((fa, a), (fb, b), (fc, c)):
        assert_normal(f)
        assert (f.rows, f.cols) == (d.rows, d.cols)
        assert [f.col(j) for j in range(f.cols)] == \
            [d.col(j) for j in range(d.cols)]
        assert f.is_zero() == d.is_zero()
    assert fa.apply(v) == a.apply(v)
    results = [(fa.compose(fb), a.compose(b)), (fa.add(fc), a.add(c)),
               (fa.scale(s), a.scale(Q(s))),
               (lincomb([fa, fc], coeffs_, a.rows, a.cols),
                a.scale(Q(coeffs_.get(0, 0))).add(
                    c.scale(Q(coeffs_.get(1, 0)))))]
    for got, want in results:
        assert_normal(got)
        assert to_dense(got).entries == want.entries
        assert got.is_zero() == want.is_zero()
    # equality is equality of entries, and equal maps hash alike
    assert (fa == fc) == (a.entries == c.entries)
    assert fa == sparse_of(DenseMap(a.rows, a.cols, a.entries))
    assert hash(fa) == hash(sparse_of(a))
    ker = fa.kernel()
    assert ker == Subspace.from_vectors(a.cols, a.kernel_basis())
    assert fa.rank() == a.rank() == fa.image().dim
    assert all(fa.image().contains_vec(a.col(j)) for j in range(a.cols))
    assert ker.dim + a.rank() == a.cols
    for sub in (ker, Subspace.full(a.cols)):
        g = fa.restrict(sub)
        assert_normal(g)
        assert [g.col(j) for j in range(g.cols)] == \
            [a.apply(r) for r in sub.rows]


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.booleans(), st.data())
def test_sparse_linear_map_matches_dense_oracle(rows, cols, k, zero, data):
    a = DenseMap(rows, cols, data.draw(dense_entries(rows, cols, zero)))
    b = DenseMap(cols, k, data.draw(dense_entries(cols, k)))
    c = DenseMap(rows, cols, data.draw(dense_entries(rows, cols)))
    v = data.draw(st.dictionaries(st.integers(0, cols - 1), small_q)
                  if cols else st.just({}))
    s = data.draw(small_q)
    cs = data.draw(st.dictionaries(st.integers(0, 1), small_q))
    check_against_dense(a, b, c, v, s, cs)


def test_sparse_linear_map_edge_shapes():
    z23 = DenseMap(2, 3, [[0] * 3] * 2)
    for a, b, c in ((z23, DenseMap(3, 0, [[]] * 3), z23),
                    (DenseMap(0, 2, []), DenseMap(2, 2, [[1, 0], [0, 0]]),
                     DenseMap(0, 2, [])),
                    (DenseMap(2, 0, [[], []]), DenseMap(0, 1, []),
                     DenseMap(2, 0, [[], []]))):
        check_against_dense(a, b, c, {}, 0, {0: Q(1)})
    # integer and zero input values are normalised on the way in
    f = LinearMap.from_cols(2, [{0: 1, 1: 0}, {1: Q(0)}])
    assert_normal(f)
    assert f.col(0) == {0: Q(1)} and f.col(1) == {}
    with pytest.raises(ValueError):
        LinearMap.from_cols(2, [{2: Q(1)}])
    with pytest.raises(ValueError):
        LinearMap.from_cols(2, [{-1: Q(1)}])
