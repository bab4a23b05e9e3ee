from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizx.scalars import Q
from leibnizx.linalg import (Echelon, LinearMap, Subspace, lincomb,
                             reduce_by_pivots, vec_add_scaled, zero_subspace)


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
    rebuilt = {}
    for x, row in zip(c, s.rows):
        vec_add_scaled(rebuilt, row, x)
    assert rebuilt == v
    try:
        s.coords(sv((2, 1)))
        assert False, "coords outside the subspace must raise"
    except ValueError:
        pass


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
    f = LinearMap(2, 2, [[1, 1], [2, 2]])
    assert f.rank() == 1
    k = f.kernel()
    assert k.dim == 1
    assert f.apply(k.rows[0]) == {}
    assert f.image() == Subspace.from_vectors(2, [sv((0, 1), (1, 2))])


def test_restrict():
    f = LinearMap(2, 3, [[1, 0, 1], [0, 1, 0]])
    sub = Subspace.from_vectors(3, [sv((0, 1), (2, -1)), sv((0, 1))])
    g = f.restrict(sub)
    assert g.cols == 2
    assert [g.col(j) for j in range(2)] == [f.apply(r) for r in sub.rows]


coeffs = st.integers(min_value=-4, max_value=4)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(coeffs, min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_nullity(mat):
    f = LinearMap(len(mat), 3, mat)
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


def dense(rows, cols):
    return st.lists(st.lists(coeffs, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_lincomb_matches_fold(rows, cols, data):
    mats = [LinearMap(rows, cols, data.draw(dense(rows, cols)))
            for _ in range(data.draw(st.integers(1, 3)))]
    cs = data.draw(st.dictionaries(st.integers(0, len(mats) - 1),
                                   coeffs.map(Q)))
    assert lincomb(mats, cs, rows, cols) == \
        lincomb_fold(mats, cs, rows, cols)


def test_lincomb_edge_cases():
    f = LinearMap(2, 3, [[1, 0, 2], [0, -1, 0]])
    # empty coefficients give the zero map of the requested shape
    assert lincomb([f], {}, 2, 3) == LinearMap.zero(2, 3)
    # coefficients that cancel
    assert lincomb([f, f], {0: Q(2), 1: Q(-2)}, 2, 3).is_zero()
    # dict-indexed matrices, non-square
    g = LinearMap(2, 3, [[0, 1, 0], [1, 0, 0]])
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
    res = reduce_by_pivots(dict(v), ech.rows, ech.keyf)
    assert not set(res) & set(ech.rows)
    assert sub.reduce_vec(res) == sub.reduce_vec(v)
    if not reverse:
        assert res == sub.reduce_vec(v)
