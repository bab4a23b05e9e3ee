import contextlib
import dataclasses
import io as stdio
import pathlib

import pytest

from leibnizx import cli, envelope, io, leibniz, xrep
from leibnizx.scalars import Q
from leibnizx.linalg import LinearMap
from leibnizx.xmod import check_xmod, identity_xmod
from leibnizx.xrep import (LeibnizXModRep, check_xmod_rep, check_xmodule,
                           check_xmodule_morphism, endo_pairs_subspace,
                           endo_xmod, hom_to_map, map_to_hom,
                           rep_to_xmodule, xmodule_to_rep, zero_xmod_rep)
from leibnizx.xul import xul
from leibnizx.leibniz import zero_rep, LeibnizRep

from conftest import CORPUS, direct_sum


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
        assert not check_xmod(ax)
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


def test_thm5_checks_each_representation_once(monkeypatch):
    """verify thm5 checks its input once: check_xmod_rep runs check_rep on
    the p-actions on N and M, and no check_module follows, as its
    relations restate check_rep (tests/test_envelope.py)."""
    reps, mods = [], []
    check_rep, check_module = leibniz.check_rep, envelope.check_module
    for module in (xrep, cli):
        monkeypatch.setattr(module, "check_rep",
                            lambda r: reps.append(r) or check_rep(r))
    for module in (envelope, cli):
        monkeypatch.setattr(module, "check_module",
                            lambda m: mods.append(m) or check_module(m))
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.main(["verify", "thm5",
                         str(CORPUS / "xrep-id-a1.json"), "--degree", "3"])
    assert code == 0
    assert len(reps) == 2 and not mods


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


def _rep_sum(r, s):
    """R ⊕ S for crossed representations over one crossed module, every
    map block-diagonal."""
    def rep(one, two):
        return LeibnizRep(one.algebra, one.module_dim + two.module_dim,
                          tuple(map(direct_sum, one.left_mats,
                                    two.left_mats)),
                          tuple(map(direct_sum, one.right_mats,
                                    two.right_mats)))

    return LeibnizXModRep(r.xmod, direct_sum(r.mu, s.mu),
                          rep(r.rep_n, s.rep_n), rep(r.rep_m, s.rep_m),
                          tuple(map(direct_sum, r.xi1, s.xi1)),
                          tuple(map(direct_sum, r.xi2, s.xi2)))


def _summand(n, k):
    """The projection K^n ⊕ K^n -> K^n onto summand k (0 or 1)."""
    cols = [{i: 1} for i in range(n)]
    return LinearMap.from_cols(n, [{}] * n + cols if k else cols + [{}] * n)


@pytest.mark.parametrize("name", ["xrep-id-a1.json",
                                  "xrep-zero-incl-l2.json", "xi-a1"])
def test_thm5_sends_morphisms_to_module_morphisms(load, name):
    """Theorem 5 on morphisms, at D3: the projection R ⊕ R -> R onto the
    first summand is a morphism of crossed representations, and
    rep_to_xmodule at both ends makes it a module morphism
    (check_xmodule_morphism).  f_N perturbed by the second summand's
    projection is flagged wherever a structure map sees N: mu on
    xrep-id-a1, phi on _xi_rep.  On xrep-zero-incl-l2 mu, psi and phi all
    vanish, so every pair of maps is a morphism there."""
    r = _xi_rep(load("a1.json")) if name == "xi-a1" else load(name)
    rr = _rep_sum(r, r)
    assert check_xmod_rep(rr) == []
    tx = xul(r.xmod, 3)
    mod1, mod2 = rep_to_xmodule(rr, tx), rep_to_xmodule(r, tx)
    f_n, f_m = _summand(r.n_dim, 0), _summand(r.m_dim, 0)
    assert check_xmodule_morphism(mod1, mod2, f_n, f_m) == []
    bent = f_n.add(_summand(r.n_dim, 1))
    bad = check_xmodule_morphism(mod1, mod2, bent, f_m)
    assert {tag for tag, _ in bad} == {"xrep-id-a1.json": {"mu_square"},
                    "xrep-zero-incl-l2.json": set(),
                    "xi-a1": {"phi"}}[name]


def _right_rep(a1):
    """R_right: N = M = K over (A1, A1, id) with mu = id, the right action
    of a equal to 1 on N and on M, xi2 = 1 and everything else zero."""
    one, zero = LinearMap.identity(1), LinearMap.zero(1, 1)
    right = LeibnizRep(a1, 1, (zero,), (one,))
    return LeibnizXModRep(identity_xmod(a1), one, right, right, (zero,),
                          (one,))


def test_module_morphisms_see_the_p_actions(load):
    """check_xmodule_morphism's psi_n and psi_m checks, at D3: the
    projection of R_right ⊕ xrep-id-a1 onto R_right is a module morphism;
    the sum of the two summand projections on N and on M commutes with mu
    but not with the p-actions, nor with phi."""
    r = _right_rep(load("a1.json"))
    src = _rep_sum(r, load("xrep-id-a1.json"))
    assert check_xmod_rep(r) == [] == check_xmod_rep(src)
    tx = xul(r.xmod, 3)
    mod1, mod2 = rep_to_xmodule(src, tx), rep_to_xmodule(r, tx)
    first = _summand(1, 0)
    assert check_xmodule_morphism(mod1, mod2, first, first) == []
    both = first.add(_summand(1, 1))
    bad = check_xmodule_morphism(mod1, mod2, both, both)
    assert {tag for tag, _ in bad} == {"psi_n", "psi_m", "phi"}


def _xi_rep(a1):
    """A representation with a nonzero bridge map: N = M = K over
    (A1, A1, id) with xi1 = -xi2 and everything else zero."""
    one = LinearMap.identity(1)
    return LeibnizXModRep(identity_xmod(a1), LinearMap.zero(1, 1),
                          zero_rep(a1, 1), zero_rep(a1, 1),
                          (one,), (one.scale(-1),))


def test_xi_rep_file_is_xi_rep(a1):
    """tests/rational/xrep-xi-a1.json, which the golden cases run through
    check and verify thm5, is _xi_rep written by io.dumps."""
    path = pathlib.Path(__file__).resolve().parent / "rational" / \
        "xrep-xi-a1.json"
    assert path.read_text("utf-8") == io.dumps(_xi_rep(a1))


def test_nontrivial_xi_representation(a1):
    """The representation with a nonzero bridge map of _xi_rep: if it
    fails, it fails a bridge axiom; else its module passes and gives xi1
    back."""
    r = _xi_rep(a1)
    x = r.xmod
    bad = check_xmod_rep(r)
    if bad:
        # whichever identity fails must name a bridge axiom
        assert all(tag.startswith("Lb") for tag, _ in bad)
    else:
        tx = xul(x, 3)
        mod = rep_to_xmodule(r, tx)
        assert not check_xmodule(mod)
        assert xmodule_to_rep(mod).xi1 == r.xi1


def _full_loop_check(mod):
    """Oracle for ``check_xmodule``: the bimodule equations against every
    embedded class word of UL(p) but the unit, not only its letters."""
    tx = mod.tx
    d = tx.report_degree
    bar, up = tx.ambient, tx.ul_p
    bad = []
    rows = tx.b_filtration(d)
    for deg, v in rows:
        c = bar.to_coords(v)
        bc = tx.B.coords(c)
        rho_b = tx.rho.apply(bc)
        alpha = mod.psi_n.class_mat(up.from_coords(rho_b))
        beta = mod.psi_m.class_mat(up.from_coords(rho_b))
        pb = mod.phi(bc)
        if alpha != pb.compose(mod.mu):
            bad.append(("gamma_alpha", deg))
        if beta != mod.mu.compose(pb):
            bad.append(("gamma_beta", deg))
        for i, w in enumerate(up.class_words):
            du = len(w)
            if w == () or deg + du > d:
                continue
            uvec = {i: 1}
            ucls = up.from_coords(uvec)
            a = tx.embed.apply(uvec)
            ab = bar.mult(bar.from_coords(a), v, d)
            ba = bar.mult(v, bar.from_coords(a), d)
            phi_ab = mod.phi(tx.B.coords(bar.to_coords(ab)))
            phi_ba = mod.phi(tx.B.coords(bar.to_coords(ba)))
            if phi_ab != pb.compose(mod.psi_m.class_mat(ucls)):
                bad.append(("phi_ab", (du, deg)))
            if phi_ba != mod.psi_n.class_mat(ucls).compose(pb):
                bad.append(("phi_ba", (du, deg)))
    return bad


@pytest.mark.parametrize("D", [3, 4, 5])
@pytest.mark.parametrize("name", ["xrep-id-a1.json",
                                  "xrep-zero-incl-l2.json", "xi-a1"])
def test_checker_flags_what_the_full_loops_flag(load, name, D):
    """check_xmodule on the letters of UL(p) against the loop over every
    class word: both pass the module of a corpus representation and of
    _xi_rep, whose phi is not zero, and they agree on pass or fail with one phi
    column doubled and shifted by a matrix unit, for each column in turn.
    The corpus phi is zero, so doubling alone would change nothing; on
    xrep-zero-incl-l2 mu and psi are zero too, so only the bimodule
    equations can see the shift."""
    r = _xi_rep(load("a1.json")) if name == "xi-a1" else load(name)
    mod = rep_to_xmodule(r, xul(r.xmod, D))
    assert check_xmodule(mod) == [] == _full_loop_check(mod)
    unit = LinearMap.from_cols(mod.n_dim, [{0: 1}] + [{}] * (mod.m_dim - 1))
    flagged = 0
    for j, f in enumerate(mod.phi_cols):
        cols = list(mod.phi_cols)
        cols[j] = f.scale(2).add(unit)
        bent = dataclasses.replace(mod, phi_cols=tuple(cols))
        got = check_xmodule(bent)
        assert bool(got) == bool(_full_loop_check(bent)), j
        flagged += bool(got)
    assert flagged or D == 3
