"""Exact violation lists of the crossed-module, cat¹ and morphism checkers
of both flavours, Leibniz and associative, on passing and perturbed inputs.

Tags and their order are part of each checker's output, so every list is
compared whole.  A perturbed input changes one cell of a structure tensor
(negated, or set to the first basis vector where it is zero) or one column
of a map.
"""

import dataclasses
import pathlib

import pytest

from leibnizx import io
from leibnizx.linalg import LinearMap, vec_add_scaled
from leibnizx.leibniz import (Action, LeibnizAlgebra, adjoint_action,
                              basis_vec, check_action)
from leibnizx.assoc import AssocAlgebra, check_assoc_action
from leibnizx.xmod import (AssocXMod, LeibnizXMod, assoc_cat1_to_xmod,
                           assoc_roundtrip_isomorphism, assoc_xmod_to_cat1,
                           cat1_to_xmod, check_assoc_xmod,
                           check_assoc_xmod_morphism, check_cat1,
                           check_cat1_assoc, check_xmod, check_xmod_morphism,
                           integral, roundtrip_isomorphism, xmod_to_cat1)
from leibnizx.scalars import Q
from leibnizx.xrep import endo_xmod

I = LinearMap.identity
E11 = LinearMap.from_cols(2, [{0: 1}, {}])
DELTAS = (E11, LinearMap.identity(1), LinearMap.zero(3, 1))


def _perturb(tensor, i, j):
    rows = [list(r) for r in tensor]
    rows[i][j] = {k: -v for k, v in rows[i][j].items()} or {0: 1}
    return rows


def _with_col(f, j, col):
    return LinearMap.from_cols(
        f.rows, [col if k == j else f.col(k) for k in range(f.cols)])


def test_leibniz_flavour_passes(xmods):
    for name, x in xmods.items():
        nq, np_ = x.q.dim, x.p.dim
        assert check_action(x.action) == [], name
        assert check_xmod(x) == [], name
        c = xmod_to_cat1(x)
        assert check_cat1(c) == [], name
        x2 = cat1_to_xmod(c)
        assert x2.q.bracket_tensor == x.q.bracket_tensor, name
        assert x2.eta == x.eta, name
        assert x2.action.left_tensor == x.action.left_tensor, name
        assert x2.action.right_tensor == x.action.right_tensor, name
        assert roundtrip_isomorphism(x) == (I(nq), I(np_)), name
        assert check_xmod_morphism(x, x, I(nq), I(np_)) == [], name


def test_assoc_flavour_passes():
    for delta in DELTAS:
        ax = endo_xmod(delta)
        nb, na = ax.B.dim, ax.A.dim
        assert check_assoc_action(ax.action) == []
        assert check_assoc_xmod(ax) == []
        c = assoc_xmod_to_cat1(ax)
        assert check_cat1_assoc(c) == []
        x2 = assoc_cat1_to_xmod(c)
        assert (x2.B.name, x2.B.basis) == (
            "Ker s", tuple("k%d" % i for i in range(nb)))
        assert x2.B.product_tensor == ax.B.product_tensor
        assert x2.rho == ax.rho
        assert x2.action.left_tensor == ax.action.left_tensor
        assert x2.action.right_tensor == ax.action.right_tensor
        assert assoc_roundtrip_isomorphism(ax) == (I(nb), I(na))
        assert check_assoc_xmod_morphism(ax, ax, I(nb), I(na)) == []


LEIBNIZ_CASES = {
    ("xmod-id-r2", "action_left"): [
        (("p", "q", "p"), (0, 0, 1)), (("p", "q", "p"), (0, 1, 0)),
        (("p", "q", "p"), (1, 0, 0)), (("p", "p", "q"), (0, 0, 0)),
        (("p", "p", "q"), (0, 0, 1)), (("p", "p", "q"), (0, 1, 0)),
        (("q", "p", "q"), (1, 0, 0))],
    ("xmod-id-r2", "xmod_left"): [
        ("action", (("p", "q", "p"), (0, 0, 1))),
        ("action", (("p", "q", "p"), (0, 1, 0))),
        ("action", (("p", "q", "p"), (1, 0, 0))),
        ("action", (("p", "p", "q"), (0, 0, 0))),
        ("action", (("p", "p", "q"), (0, 0, 1))),
        ("action", (("p", "p", "q"), (0, 1, 0))),
        ("action", (("q", "p", "q"), (1, 0, 0))),
        ("peiffer_left", (0, 0)), ("equivariance_left", (0, 0))],
    ("xmod-id-r2", "action_right"): [
        (("q", "p", "p"), (0, 0, 1)), (("q", "p", "p"), (0, 1, 0)),
        (("p", "q", "p"), (0, 1, 0)), (("p", "p", "q"), (0, 0, 1)),
        (("p", "p", "q"), (1, 0, 0)), (("q", "p", "q"), (1, 0, 0))],
    ("xmod-id-r2", "xmod_right"): [
        ("action", (("q", "p", "p"), (0, 0, 1))),
        ("action", (("q", "p", "p"), (0, 1, 0))),
        ("action", (("p", "q", "p"), (0, 1, 0))),
        ("action", (("p", "p", "q"), (0, 0, 1))),
        ("action", (("p", "p", "q"), (1, 0, 0))),
        ("action", (("q", "p", "q"), (1, 0, 0))),
        ("peiffer_right", (0, 0)), ("equivariance_right", (0, 0))],
    ("xmod-id-r2", "xmod_eta"): [
        ("peiffer_left", (0, 1)), ("peiffer_right", (1, 0)),
        ("equivariance_left", (0, 1)), ("equivariance_right", (0, 1))],
    ("xmod-id-r2", "cat1_t"): [
        ("t_hom", (1, 2)), ("t_hom", (2, 1)), ("CLb2", None)],
    ("xmod-id-r2", "morphism_phi"): [
        ("phi_hom", (0, 1)), ("phi_hom", (1, 0)), ("square", None)],
    ("xmod-id-r2", "morphism_psi"): [
        ("psi_hom", (0, 1)), ("psi_hom", (1, 0)), ("square", None),
        ("act_left", (0, 1)), ("act_right", (0, 1)), ("act_left", (1, 0)),
        ("act_right", (1, 0))],
    ("xmod-id-l2", "action_left"): [],
    ("xmod-id-l2", "xmod_left"): [
        ("peiffer_left", (0, 0)), ("equivariance_left", (0, 0))],
    ("xmod-id-l2", "action_right"): [],
    ("xmod-id-l2", "xmod_right"): [
        ("peiffer_right", (0, 0)), ("equivariance_right", (0, 0))],
    ("xmod-id-l2", "xmod_eta"): [
        ("eta_hom", (0, 0)), ("peiffer_left", (0, 0)),
        ("peiffer_right", (0, 0)), ("equivariance_left", (0, 0)),
        ("equivariance_right", (0, 0))],
    ("xmod-id-l2", "cat1_t"): [
        ("t_hom", (0, 0)), ("t_hom", (0, 2)), ("t_hom", (2, 0)),
        ("CLb2", None)],
    ("xmod-id-l2", "morphism_phi"): [("phi_hom", (0, 0)), ("square", None)],
    ("xmod-id-l2", "morphism_psi"): [
        ("psi_hom", (0, 0)), ("square", None), ("act_left", (0, 0)),
        ("act_right", (0, 0))],
}


def _leibniz_case(x, kind):
    left = dataclasses.replace(
        x.action, left_tensor=_perturb(x.action.left_tensor, 0, 0))
    right = dataclasses.replace(
        x.action, right_tensor=_perturb(x.action.right_tensor, 0, 0))
    c = xmod_to_cat1(x)
    nq, np_ = x.q.dim, x.p.dim
    return {
        "action_left": lambda: check_action(left),
        "xmod_left": lambda: check_xmod(LeibnizXMod(x.q, x.p, x.eta, left)),
        "action_right": lambda: check_action(right),
        "xmod_right": lambda: check_xmod(
            LeibnizXMod(x.q, x.p, x.eta, right)),
        "xmod_eta": lambda: check_xmod(
            LeibnizXMod(x.q, x.p, _with_col(x.eta, 0, {}), x.action)),
        "cat1_t": lambda: check_cat1(
            dataclasses.replace(c, t=_with_col(c.t, 0, {}))),
        "morphism_phi": lambda: check_xmod_morphism(
            x, x, I(nq).scale(2), I(np_)),
        "morphism_psi": lambda: check_xmod_morphism(
            x, x, I(nq), I(np_).scale(2)),
    }[kind]()


@pytest.mark.parametrize("case", sorted(LEIBNIZ_CASES))
def test_leibniz_flavour_perturbed(case, load):
    name, kind = case
    x = load(name + ".json")
    assert _leibniz_case(x, kind) == LEIBNIZ_CASES[case]


def test_leibniz_flavour_bad_algebra(load):
    bad = load("bad-leibniz.json")
    x = LeibnizXMod(bad, bad, I(bad.dim), adjoint_action(bad))
    assert check_xmod(x) == [
        ("leibniz_q", (0, 0, 0)), ("leibniz_p", (0, 0, 0))] + [
        ("action", (pat, (0, 0, 0)))
        for pat in (("q", "p", "p"), ("p", "q", "p"), ("p", "p", "q"),
                    ("q", "q", "p"), ("q", "p", "q"), ("p", "q", "q"))]
    assert check_cat1(xmod_to_cat1(x)) == [
        ("leibniz_total", (i, j, k))
        for i in (0, 1) for j in (0, 1) for k in (0, 1)]


ASSOC_CASES = {
    "action_left": [
        (("a", "b", "a"), (1, 0, 3)), (("a", "b", "b"), (1, 0, 1))],
    "xmod_left": [
        ("action", (("a", "b", "a"), (1, 0, 3))),
        ("action", (("a", "b", "b"), (1, 0, 1))),
        ("peiffer_left", (2, 0)), ("equivariance_left", (1, 0))],
    "action_right": [
        (("a", "b", "a"), (1, 0, 0)), (("b", "a", "a"), (0, 0, 0)),
        (("b", "a", "a"), (0, 0, 3)), (("b", "b", "a"), (2, 0, 0)),
        (("b", "a", "b"), (0, 0, 0)), (("b", "a", "b"), (0, 0, 1))],
    "xmod_right": [
        ("action", (("a", "b", "a"), (1, 0, 0))),
        ("action", (("b", "a", "a"), (0, 0, 0))),
        ("action", (("b", "a", "a"), (0, 0, 3))),
        ("action", (("b", "b", "a"), (2, 0, 0))),
        ("action", (("b", "a", "b"), (0, 0, 0))),
        ("action", (("b", "a", "b"), (0, 0, 1))),
        ("peiffer_right", (0, 0)), ("equivariance_right", (0, 0))],
    "xmod_rho": [
        ("peiffer_left", (0, 0)), ("peiffer_right", (0, 0)),
        ("rho_hom", (0, 1)), ("peiffer_left", (0, 1)), ("rho_hom", (2, 0)),
        ("peiffer_right", (2, 0)), ("equivariance_left", (1, 0)),
        ("equivariance_right", (3, 0))],
    "xmod_bottom": [
        ("assoc_B", (0, 0, 1)), ("assoc_B", (2, 0, 0)),
        ("action", (("b", "b", "a"), (0, 0, 3))),
        ("action", (("a", "b", "b"), (1, 0, 0))),
        ("rho_hom", (0, 0)), ("peiffer_left", (0, 0)),
        ("peiffer_right", (0, 0))],
    "cat1_bottom": [
        ("assoc_total", (0, 0, 1)), ("assoc_total", (0, 0, 7)),
        ("assoc_total", (2, 0, 0)), ("assoc_total", (5, 0, 0)),
        ("t_hom", (0, 0)), ("CAs2", None)],
    "cat1_t": [
        ("t_hom", (0, 1)), ("t_hom", (0, 7)), ("t_hom", (2, 0)),
        ("t_hom", (5, 0)), ("CAs2", None), ("CAs2", None), ("CAs2", None)],
    "morphism_phi": [
        ("phi_hom", (0, 0)), ("phi_hom", (0, 1)), ("phi_hom", (2, 0)),
        ("phi_hom", (2, 1)), ("square", None)],
    "morphism_psi": [
        ("psi_hom", (0, 0)), ("psi_hom", (0, 3)), ("psi_hom", (1, 0)),
        ("psi_hom", (2, 1)), ("psi_hom", (2, 2)), ("psi_hom", (3, 4)),
        ("psi_hom", (4, 4)), ("square", None), ("act_left", (0, 0)),
        ("act_right", (0, 0)), ("act_left", (0, 1)), ("act_right", (0, 2)),
        ("act_left", (1, 0)), ("act_left", (1, 1)), ("act_left", (2, 2)),
        ("act_left", (2, 3)), ("act_right", (3, 0)), ("act_right", (3, 2)),
        ("act_right", (4, 1)), ("act_right", (4, 3))],
}


def _assoc_case(ax, kind):
    B, A, rho, act = ax.B, ax.A, ax.rho, ax.action
    left = dataclasses.replace(
        act, left_tensor=_perturb(act.left_tensor, 1, 0))
    right = dataclasses.replace(
        act, right_tensor=_perturb(act.right_tensor, 0, 0))
    bad_b = dataclasses.replace(
        B, product_tensor=_perturb(B.product_tensor, 0, 0))
    bad_bottom = AssocXMod(bad_b, A, rho,
                           dataclasses.replace(act, target=bad_b))
    c = assoc_xmod_to_cat1(ax)
    return {
        "action_left": lambda: check_assoc_action(left),
        "xmod_left": lambda: check_assoc_xmod(AssocXMod(B, A, rho, left)),
        "action_right": lambda: check_assoc_action(right),
        "xmod_right": lambda: check_assoc_xmod(AssocXMod(B, A, rho, right)),
        "xmod_rho": lambda: check_assoc_xmod(
            AssocXMod(B, A, _with_col(rho, 0, {}), act)),
        "xmod_bottom": lambda: check_assoc_xmod(bad_bottom),
        "cat1_bottom": lambda: check_cat1_assoc(
            assoc_xmod_to_cat1(bad_bottom)),
        "cat1_t": lambda: check_cat1_assoc(
            dataclasses.replace(c, t=_with_col(c.t, 0, {}))),
        "morphism_phi": lambda: check_assoc_xmod_morphism(
            ax, ax, I(B.dim).scale(2), I(A.dim)),
        "morphism_psi": lambda: check_assoc_xmod_morphism(
            ax, ax, I(B.dim), I(A.dim).scale(2)),
    }[kind]()


@pytest.mark.parametrize("kind", sorted(ASSOC_CASES))
def test_assoc_flavour_perturbed(kind):
    assert _assoc_case(endo_xmod(E11), kind) == ASSOC_CASES[kind]


# Rational inputs: the rebased identity crossed modules under
# tests/rational, whose constants have denominators, with one action cell
# or one eta entry moved by 1/3 along the first basis vector.
RATIONAL = pathlib.Path(__file__).resolve().parent / "rational"


def _action(pattern, *triples):
    return [("action", (tuple(pattern), tuple(map(int, t))))
            for t in triples]


def _moved(cell):
    return vec_add_scaled(dict(cell), {0: 1}, Q(1, 3))


RATIONAL_CASES = {
    ("xmod-id-l2", "action_left"):
        _action("pqp", "000", "001", "010", "011", "100", "101") +
        _action("ppq", "000", "001", "010", "011", "100", "110") +
        _action("qpq", "000", "100") +
        _action("pqq", "000", "001", "010", "011") +
        [("peiffer_left", (0, 0)), ("peiffer_left", (1, 0)),
         ("equivariance_left", (0, 0))],
    ("xmod-id-l2", "action_right"):
        _action("qpp", "000", "001", "010", "011", "101", "110") +
        _action("pqp", "000", "010", "100", "110") +
        _action("ppq", "000", "001", "100", "101") +
        _action("qqp", "000", "010", "100", "110") +
        _action("qpq", "000", "001", "100", "101") +
        [("peiffer_right", (0, 0)), ("peiffer_right", (0, 1)),
         ("equivariance_right", (0, 0))],
    ("xmod-id-l2", "eta"): [
        ("eta_hom", (0, 0)), ("peiffer_left", (0, 0)),
        ("peiffer_right", (0, 0)), ("eta_hom", (0, 1)),
        ("peiffer_left", (0, 1)), ("eta_hom", (1, 0)),
        ("peiffer_right", (1, 0)), ("eta_hom", (1, 1)),
        ("equivariance_left", (0, 0)), ("equivariance_right", (0, 0)),
        ("equivariance_left", (0, 1)), ("equivariance_right", (0, 1)),
        ("equivariance_left", (1, 0)), ("equivariance_right", (1, 0)),
        ("equivariance_left", (1, 1)), ("equivariance_right", (1, 1))],
    ("xmod-id-r2", "action_left"):
        _action("pqp", "000", "001", "010", "011", "100") +
        _action("ppq", "000", "001", "010", "011", "100") +
        _action("qpq", "100") +
        _action("pqq", "001", "010") +
        [("peiffer_left", (0, 0)), ("peiffer_left", (1, 0)),
         ("equivariance_left", (0, 0))],
    ("xmod-id-r2", "action_right"):
        _action("qpp", "001", "010", "101", "110") +
        _action("pqp", "000", "010", "100", "110") +
        _action("ppq", "000", "001", "100", "101") +
        _action("qqp", "010", "100") +
        _action("qpq", "001", "100") +
        [("peiffer_right", (0, 0)), ("peiffer_right", (0, 1)),
         ("equivariance_right", (0, 0))],
    ("xmod-id-r2", "eta"): [
        ("peiffer_left", (0, 0)), ("peiffer_right", (0, 0)),
        ("eta_hom", (0, 1)), ("peiffer_left", (0, 1)),
        ("eta_hom", (1, 0)), ("peiffer_right", (1, 0)),
        ("equivariance_left", (0, 0)), ("equivariance_right", (0, 0)),
        ("equivariance_left", (0, 1)), ("equivariance_right", (0, 1)),
        ("equivariance_left", (1, 0)), ("equivariance_right", (1, 0)),
        ("equivariance_left", (1, 1)), ("equivariance_right", (1, 1))],
}


@pytest.mark.parametrize("case", sorted(RATIONAL_CASES))
def test_rational_flavour_perturbed(case):
    name, kind = case
    x = io.load_path(str(RATIONAL / ("rebased-%s.json" % name)))
    assert check_xmod(x) == []
    act, eta = x.action, x.eta
    if kind == "eta":
        eta = _with_col(eta, 0, _moved(eta.col(0)))
    else:
        field = kind[len("action_"):] + "_tensor"
        cells = [list(r) for r in getattr(act, field)]
        cells[0][0] = _moved(cells[0][0])
        act = dataclasses.replace(act, **{field: cells})
    want = RATIONAL_CASES[case]
    assert check_action(act) == [v for tag, v in want if tag == "action"]
    assert check_xmod(LeibnizXMod(x.q, x.p, eta, act)) == want


def _entries(x):
    """Every structure constant of a crossed module."""
    q, p, eta, act = x
    cells = [eta.col(j) for j in range(eta.cols)]
    for t in (q.bracket_tensor, p.bracket_tensor, act.left_tensor,
              act.right_tensor):
        cells += [c for row in t for c in row]
    return [v for c in cells for v in c.values()]


def test_integral_keeps_integral_inputs():
    root = RATIONAL.parent.parent / "corpus"
    for path in sorted(root.glob("*.json")):
        obj = io.load_path(str(path))
        if isinstance(obj, (LeibnizAlgebra, AssocAlgebra, LeibnizXMod)):
            assert integral(obj) is obj, path.name


@pytest.mark.parametrize("name", ["xmod-id-l2", "xmod-id-r2"])
def test_integral_copy_of_rational_xmod(name):
    x = io.load_path(str(RATIONAL / ("rebased-%s.json" % name)))
    y = integral(x)
    assert any(type(v) is not int for v in _entries(x))
    assert all(type(v) is int for v in _entries(y))
    assert integral(y) is y
    assert y.q.basis == x.q.basis and y.p.basis == x.p.basis


def test_integral_scales_as_documented():
    """B = Q·d with d·d = d/3, A = Q·e with e·e = e/2, rho(d) = 2e/3 and
    e acting on d by 1/2 on both sides: mu = 2 (A and the action), L = 3
    (B and rho), lambda = 6, so the copy has d·d = 2d, e·e = e, action 1
    and rho = 2."""
    b = AssocAlgebra("B", ("d",), [[{0: Q(1, 3)}]])
    a = AssocAlgebra("A", ("e",), [[{0: Q(1, 2)}]])
    half = [[{0: Q(1, 2)}]]
    ax = AssocXMod(b, a, I(1).scale(Q(2, 3)), Action(a, b, half, half))
    y = integral(ax)
    assert y.B.product_tensor == (({0: 2},),)
    assert y.A.product_tensor == (({0: 1},),)
    assert y.action.left_tensor == y.action.right_tensor == (({0: 1},),)
    assert y.rho == I(1).scale(2)
    assert check_assoc_xmod(ax) == check_assoc_xmod(y) == []
    assert integral(a).product_tensor == (({0: 1},),)


def _naive_violations(alg, mult, holds):
    """Violating triples with both sides, evaluated on alg itself."""
    n = alg.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = [basis_vec(i), basis_vec(j), basis_vec(k)]
                lhs, rhs = holds(lambda x, y: mult(alg, x, y), *e)
                if lhs != rhs:
                    out.append((i, j, k, lhs, rhs))
    return out


def _leibniz_sides(br, x, y, z):
    return br(br(x, y), z), vec_add_scaled(br(x, br(y, z)),
                                           br(br(x, z), y), 1)


def _assoc_sides(mu, x, y, z):
    return mu(mu(x, y), z), mu(x, mu(y, z))


def test_rational_algebra_witnesses_are_unscaled():
    """The witnesses of check_leibniz and check_assoc, found on the
    integral copy, equal the two sides evaluated on the input itself."""
    x = io.load_path(str(RATIONAL / "rebased-xmod-id-l2.json"))
    bad = dataclasses.replace(
        x.q, bracket_tensor=[[_moved(c) if (i, j) == (0, 1) else c
                              for j, c in enumerate(row)]
                             for i, row in enumerate(x.q.bracket_tensor)])
    want = _naive_violations(bad, LeibnizAlgebra.bracket, _leibniz_sides)
    assert want and bad.check_leibniz() == want
    third = AssocAlgebra("t", ("u", "v"),
                         [[{1: Q(1, 3)}, {0: Q(2, 5)}], [{}, {1: Q(1, 2)}]])
    want = _naive_violations(third, AssocAlgebra.mult, _assoc_sides)
    assert want and third.check_assoc() == want
