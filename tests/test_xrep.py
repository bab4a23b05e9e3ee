import pytest

from leibnizx.scalars import Q
from leibnizx.linalg import LinearMap
from leibnizx.xmod import check_assoc_xmod, identity_xmod
from leibnizx.xrep import (LeibnizXModRep, check_xmod_rep, check_xmodule,
                           check_xmodule_morphism, endo_pairs_subspace,
                           endo_xmod, hom_to_map, map_to_hom,
                           rep_to_xmodule, xmodule_to_rep, zero_xmod_rep)
from leibnizx.xul import xul
from leibnizx.leibniz import zero_rep, LeibnizRep


def test_hom_coordinates_roundtrip():
    f = LinearMap.from_cols(2, [{0: 1}, {0: 2, 1: -1}, {1: 5}])
    assert hom_to_map(map_to_hom(f), 2, 3) == f


def test_endo_pairs_subspace():
    delta = LinearMap.from_cols(2, [{0: Q(1)}, {}])
    pairs = endo_pairs_subspace(delta)
    # for delta = E_11 the constraints are beta11 = alpha11, beta21 = 0,
    # alpha12 = 0: three conditions on eight parameters
    assert pairs.dim == 5


def test_endo_xmod_is_assoc_xmod():
    for delta in (LinearMap.from_cols(2, [{0: Q(1)}, {}]),
                  LinearMap.zero(3, 1)):
        ax = endo_xmod(delta)
        assert not check_assoc_xmod(ax)
        assert ax.B.dim == delta.rows * delta.cols


def test_corpus_xmod_reps(load):
    good = load("xrep-id-a1.json")
    assert not check_xmod_rep(good)
    zero = load("xrep-zero-incl-l2.json")
    assert not check_xmod_rep(zero)
    bad = load("bad-xrep-a1.json")
    assert [v[0] for v in check_xmod_rep(bad)] == ["LbM1a"]


def test_rep_to_xmodule_rejects_bad(load):
    bad = load("bad-xrep-a1.json")
    tx = xul(bad.xmod, 3)
    with pytest.raises(ValueError, match="not a representation"):
        rep_to_xmodule(bad, tx)


def test_roundtrip_identity_a1(load):
    r = load("xrep-id-a1.json")
    tx = xul(r.xmod, 3)
    mod = rep_to_xmodule(r, tx)
    assert not check_xmodule(mod)
    back = xmodule_to_rep(mod)
    assert back.mu == r.mu
    assert back.rep_n == r.rep_n and back.rep_m == r.rep_m
    assert back.xi1 == r.xi1 and back.xi2 == r.xi2


def test_roundtrip_zero_inclusion(load):
    r = load("xrep-zero-incl-l2.json")
    tx = xul(r.xmod, 3)
    mod = rep_to_xmodule(r, tx)
    assert not check_xmodule(mod)
    assert xmodule_to_rep(mod).mu == r.mu


def test_module_morphism_checker(load):
    r = load("xrep-id-a1.json")
    tx = xul(r.xmod, 3)
    mod = rep_to_xmodule(r, tx)
    idn = LinearMap.identity(mod.n_dim)
    idm = LinearMap.identity(mod.m_dim)
    assert not check_xmodule_morphism(mod, mod, idn, idm)
    # scaling only one side breaks the mu square
    assert check_xmodule_morphism(mod, mod, idn.scale(2), idm)
    # scaling both sides by the same unit is a morphism
    assert not check_xmodule_morphism(mod, mod, idn.scale(2), idm.scale(2))


def test_nontrivial_xi_representation(a1):
    """A representation with a nonzero bridge map: N = M = K over
    (A1, A1, id) with xi1 = -xi2 and everything else zero."""
    x = identity_xmod(a1)
    one = LinearMap.identity(1)
    r = LeibnizXModRep(x, LinearMap.zero(1, 1),
                       zero_rep(a1, 1), zero_rep(a1, 1),
                       (one,), (one.scale(-1),))
    bad = check_xmod_rep(r)
    if bad:
        # whichever identity fails must name a bridge axiom
        assert all(tag.startswith("Lb") for tag, _ in bad)
    else:
        tx = xul(x, 3)
        mod = rep_to_xmodule(r, tx)
        assert not check_xmodule(mod)
        assert xmodule_to_rep(mod).xi1 == r.xi1
