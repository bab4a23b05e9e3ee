"""Exact violation lists of the crossed-module, cat¹ and morphism checkers
of both flavours, Leibniz and associative, on passing and perturbed inputs.

Tags and their order are part of each checker's output, so every list is
compared whole.  A perturbed input changes one cell of a structure tensor
(negated, or set to the first basis vector where it is zero) or one column
of a map.
"""

import dataclasses

import pytest

from leibnizx.linalg import LinearMap
from leibnizx.leibniz import adjoint_action, check_action
from leibnizx.assoc import check_assoc_action
from leibnizx.xmod import (AssocXMod, LeibnizXMod, assoc_cat1_to_xmod,
                           assoc_roundtrip_isomorphism, assoc_xmod_to_cat1,
                           cat1_to_xmod, check_assoc_xmod,
                           check_assoc_xmod_morphism, check_cat1,
                           check_cat1_assoc, check_xmod, check_xmod_morphism,
                           roundtrip_isomorphism, xmod_to_cat1)
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
