import pytest

from leibnizx.scalars import Q
from leibnizx.linalg import LinearMap, Subspace
from leibnizx.leibniz import zero_action
from leibnizx.xmod import (LeibnizXMod, cat1_roundtrip_isomorphism,
                           cat1_to_xmod, check_cat1, check_xmod,
                           check_xmod_morphism, ideal_inclusion_xmod,
                           identity_xmod, roundtrip_isomorphism, xmod_to_cat1,
                           zero_xmod)
from leibnizx.xrep import endo_xmod


def test_corpus_xmods_pass(xmods):
    for name, x in xmods.items():
        assert not check_xmod(x), name


def test_inclusion_xmod_structure(xmods):
    x = xmods["xmod-incl-l2.json"]
    assert x.q.dim == 1 and x.p.dim == 2
    assert x.eta.col(0) == {1: Q(1)}
    # the ideal span{b} is central, so q and the action are trivial
    assert x.q.product_basis(0, 0) == {}


def test_broken_peiffer_detected(l2):
    # identity boundary with the zero action: Peiffer fails on [a,a] = b
    x = LeibnizXMod(l2, l2, LinearMap.identity(2), zero_action(l2, l2))
    tags = {t for t, _ in check_xmod(x)}
    assert "peiffer_left" in tags or "peiffer_right" in tags


def test_cat1_and_back(xmods):
    for name, x in xmods.items():
        c = xmod_to_cat1(x)
        assert not check_cat1(c), name
        x2 = cat1_to_xmod(c)
        assert x2.q.dim == x.q.dim and x2.p.dim == x.p.dim


def test_roundtrip_isomorphisms(xmods):
    for name, x in xmods.items():
        phi, psi = roundtrip_isomorphism(x)
        assert phi.rank() == x.q.dim
        assert psi == LinearMap.identity(x.p.dim)
        f = cat1_roundtrip_isomorphism(xmod_to_cat1(x))
        assert f.rank() == x.q.dim + x.p.dim


def test_xmod_morphism_checker(xmods):
    x = xmods["xmod-incl-l2.json"]
    idl2 = xmods["xmod-id-l2.json"]
    # inclusion of the ideal into the identity crossed module
    phi = LinearMap.from_cols(2, [{1: Q(1)}])
    psi = LinearMap.identity(2)
    assert not check_xmod_morphism(x, idl2, phi, psi)
    # a wrong phi breaks the square
    assert check_xmod_morphism(x, idl2, LinearMap.from_cols(2, [{0: Q(1)}]),
                               psi)


def test_assoc_flavor_roundtrip():
    # endomorphism crossed module of a linear map as the associative example
    delta = LinearMap.from_cols(2, [{0: Q(1)}, {}])  # V = K^2 -> W = K^2
    ax = endo_xmod(delta)
    assert not check_xmod(ax)
    c = xmod_to_cat1(ax)
    assert not check_cat1(c)
    phi, psi = roundtrip_isomorphism(ax)
    assert phi.rank() == ax.B.dim
    assert psi == LinearMap.identity(ax.A.dim)


def test_zero_and_identity_special_cases(a1):
    z = zero_xmod(a1)
    assert z.q.dim == 0
    i = identity_xmod(a1)
    assert i.eta == LinearMap.identity(1)
    assert not check_xmod(z) and not check_xmod(i)
