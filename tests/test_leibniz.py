import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizx.scalars import Q
from leibnizx.linalg import LinearMap, Subspace, vec_add_scaled
from leibnizx.leibniz import (LeibnizAlgebra, LeibnizRep, _bilinear,
                              _tensor, abelian, adjoint_action, basis_vec,
                              check_action, check_rep, liezation,
                              quotient_algebra, rep_to_abelian_extension,
                              semidirect, subalgebra_ideal_closure,
                              zero_action, zero_rep)

from conftest import is_normal_vec


def test_corpus_algebras(a1, l2, r2):
    for alg in (a1, l2, r2):
        assert not alg.check_leibniz()
    assert a1.is_lie() and r2.is_lie()
    assert not l2.is_lie()  # [a,a] = b is a nonzero square


def test_square_bracket_fails():
    bad = LeibnizAlgebra("bad", ("e",), [[{0: 1}]])
    viol = bad.check_leibniz()
    assert viol and viol[0][:3] == (0, 0, 0)


def test_bracket_bilinear(l2):
    x = {0: Q(2), 1: Q(-1)}
    y = {0: Q(1)}
    lhs = l2.bracket(x, y)
    rhs = {}
    for i, ci in x.items():
        vec_add_scaled(rhs, l2.bracket(basis_vec(i), y), ci)
    assert lhs == rhs


vecs2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda t: {i: Q(c) for i, c in enumerate(t) if c})


@settings(deadline=None, max_examples=50)
@given(vecs2, vecs2, vecs2)
def test_leibniz_identity_on_vectors(x, y, z):
    # the identity extends from basis triples to all vectors
    alg = LeibnizAlgebra("R2", ("x", "y"),
                         [[{}, {0: 1}], [{0: -1}, {}]])
    lhs = alg.bracket(alg.bracket(x, y), z)
    rhs = alg.bracket(x, alg.bracket(y, z))
    vec_add_scaled(rhs, alg.bracket(alg.bracket(x, z), y), Q(1))
    assert lhs == rhs


def test_squares_span(l2, r2):
    assert l2.squares_span() == Subspace.from_vectors(2, [{1: Q(1)}])
    # R2 is Lie: no squares
    assert r2.squares_span().dim == 0


def test_adjoint_action_and_semidirect(l2):
    act = adjoint_action(l2)
    assert not check_action(act)
    sd = semidirect(act)
    assert sd.dim == 4
    assert not sd.check_leibniz()
    # the p-part multiplies like p
    assert sd.bracket_basis(2, 2) == {3: Q(1)}


def test_zero_action_semidirect_is_direct_sum(a1, l2):
    sd = semidirect(zero_action(l2, a1))
    assert not sd.check_leibniz()
    assert sd.bracket_basis(0, 1) == {}


def test_broken_action_detected(l2):
    # "action" by the identity on an abelian carrier violates the mixed
    # identities for L2 because [a,a] = b acts nontrivially
    q = abelian("M", ("m",))
    act_tensor = [[{0: 1}], [{0: 1}]]
    from leibnizx.leibniz import Action
    act = Action(l2, q, act_tensor, [[{0: 1}, {0: 1}]])
    assert check_action(act)


def test_check_rep_corpus(load):
    for name in ("rep-a1-r.json", "rep-adj-l2.json", "rep-adj-r2.json",
                 "rep-zero-l2.json", "rep-zero-r2.json"):
        assert not check_rep(load(name)), name
    bad = load("bad-rep-a1.json")
    assert [v[0] for v in check_rep(bad)] == ["axiom3"]


def test_rep_as_abelian_extension(load):
    good = rep_to_abelian_extension(load("rep-adj-l2.json"))
    assert not good.check_leibniz()
    bad = rep_to_abelian_extension(load("bad-rep-a1.json"))
    assert bad.check_leibniz()


def test_zero_rep(r2):
    assert not check_rep(zero_rep(r2, 3))


def test_ideal_closure(l2):
    closure = subalgebra_ideal_closure(l2, [{0: Q(1)}])
    # a generates b = [a,a], so the closure is everything
    assert closure.dim == 2
    only_b = subalgebra_ideal_closure(l2, [{1: Q(1)}])
    assert only_b.dim == 1


def test_quotient_algebra_rejects_non_ideal(r2):
    line = Subspace.from_vectors(2, [{1: Q(1)}])  # [x,y]=x leaves span{y}
    try:
        quotient_algebra(r2, line)
        assert False, "span{y} is not an ideal of R2"
    except ValueError:
        pass


def test_liezation(l2, r2, a1):
    lie, proj = liezation(l2)
    assert lie.dim == 1 and lie.is_lie()
    assert proj.apply({1: Q(1)}) == {}
    for alg in (a1, r2):  # already Lie: liezation is an isomorphism
        lie, proj = liezation(alg)
        assert lie.dim == alg.dim
        assert proj.rank() == alg.dim


# ---------------------------------------------------------------------------
# sparse structure constants against a dense triple loop


small_q = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def dense_bilinear(cube, x, y, nk):
    """sum_{i,j,k} x_i y_j cube[i][j][k] e_k, zeros dropped."""
    out = {}
    for k in range(nk):
        s = sum((Q(x.get(i, 0)) * Q(y.get(j, 0)) * Q(cube[i][j][k])
                 for i in range(len(cube)) for j in range(len(cube[i]))),
                Q(0))
        if s != 0:
            out[k] = s
    return out


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_bilinear_matches_dense_loop(ni, nj, nk, data):
    cube = data.draw(st.lists(st.lists(
        st.lists(small_q, min_size=nk, max_size=nk),
        min_size=nj, max_size=nj), min_size=ni, max_size=ni))
    t = _tensor(ni, nj, nk, [[{k: c for k, c in enumerate(cell)}
                              for cell in row] for row in cube])
    for row in t:
        for cell in row:
            assert is_normal_vec(cell)
            assert all(0 <= k < nk for k in cell)

    def vecs(n):
        return (st.dictionaries(st.integers(0, n - 1), small_q)
                if n else st.just({}))

    x, y = data.draw(vecs(ni)), data.draw(vecs(nj))
    assert _bilinear(t, x, y) == dense_bilinear(cube, x, y, nk)


def test_tensor_shape_is_checked():
    for cells in ([[{}]], [[{}, {}], [{}, {}]], [[{2: 1}, {}]]):
        with pytest.raises(ValueError):
            _tensor(1, 2, 2, cells)
    assert _tensor(1, 1, 2, [[{0: 0, 1: 2}]]) == (({1: Q(2)},),)
