import dataclasses
import math
import random
import sys

import pytest

from leibnizx import io
from leibnizx.scalars import Q
from leibnizx.linalg import LinearMap
from leibnizx.freealg import HomomorphismError
from leibnizx.leibniz import check_rep, liezation, semidirect, zero_rep
from leibnizx.envelope import (ULModule, check_module, module_to_rep,
                               rep_to_module, ul, ul_images, ul_map,
                               ul_relations)
from leibnizx.lm import u_lie

from conftest import CORPUS

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import rebase  # noqa: E402


def test_relation_count(l2):
    # three families over all basis pairs
    assert len(ul_relations(l2)) == 3 * 2 * 2


def test_ul_dimensions_abelian(a1):
    # two commuting generators minus the relation x_r x_l + x_l x_l = 0
    # leave 2D + 1 classes up to degree D
    for D in (2, 3, 4):
        alg = ul(a1, D)
        assert alg.ideal.stabilized
        assert alg.dim == 2 * D + 1


def test_ul_dimensions_l2(l2):
    # UL(L2) ~ U(Liez L2) ⊕ (U(Liez L2) ⊗ L2) as a filtered space
    lie, _ = liezation(l2)
    assert lie.dim == 1
    for D in (2, 3):
        alg = ul(l2, D)
        assert alg.ideal.stabilized
        u_dims = lambda d: d + 1  # U of a 1-dim Lie algebra
        assert alg.dim == u_dims(D) + u_dims(D - 1) * 2


def test_ul_images_blocks(l2):
    """The images of f's columns in the l-block, then in the r-block
    (letters offset by f.rows), each the class alg.reduce gives.  A letter
    can reduce to zero: b_r = [a,a]_r = 0 in UL(L2)."""
    alg = ul(l2, 2)
    f = LinearMap.from_cols(2, [{0: Q(1), 1: Q(2)}, {1: Q(1)}])
    images = ul_images(alg, f)
    assert images == [
        alg.reduce({(0,): Q(1), (1,): Q(2)}), alg.reduce({(1,): Q(1)}),
        alg.reduce({(2,): Q(1), (3,): Q(2)}), alg.reduce({(3,): Q(1)})]
    assert images[0] == {(0,): Q(1), (1,): Q(2)}
    assert images[2] == {(2,): Q(1)} and images[3] == {}


def test_ul_map_functorial(l2):
    lie, proj = liezation(l2)
    src = ul(l2, 3)
    dst = ul(lie, 3)
    f = ul_map(src, dst, proj)
    # unital algebra map: unit to unit
    assert f.apply(src.to_coords(src.unit())) == dst.to_coords(dst.unit())
    # the non-homomorphism b -> a is rejected
    swap = LinearMap.from_cols(2, [{0: Q(1)}, {0: Q(1)}])
    with pytest.raises(HomomorphismError):
        ul_map(src, src, swap)


def test_rep_module_roundtrip(load):
    rep = load("rep-adj-l2.json")
    mod = rep_to_module(rep)
    assert not check_module(mod)
    assert module_to_rep(mod) == rep


def _corpus_reps(load):
    """Every representation the corpus holds: the rep files, and the
    p-actions on N and M of the crossed-module representations."""
    reps = [load(n) for n in ("rep-a1-r.json", "rep-adj-l2.json",
                              "rep-adj-r2.json", "rep-zero-l2.json",
                              "rep-zero-r2.json", "bad-rep-a1.json")]
    for n in ("xrep-id-a1.json", "xrep-zero-incl-l2.json"):
        reps += [load(n).rep_n, load(n).rep_m]
    r = io.load_path(CORPUS.parent / "tests" / "rational" / "xrep-xi-a1.json")
    return reps + [r.rep_n, r.rep_m]


def _bent_rep(rep, rng):
    """rep with one entry of one action matrix moved by a nonzero
    integer."""
    side = rng.choice(("left_mats", "right_mats"))
    mats = list(getattr(rep, side))
    i, m = rng.randrange(len(mats)), rep.module_dim
    cols = [mats[i].col(c) for c in range(m)]
    r, c = rng.randrange(m), rng.randrange(m)
    cols[c][r] = cols[c].get(r, 0) + rng.choice((-2, -1, 1, 2))
    mats[i] = LinearMap.from_cols(m, cols)
    return dataclasses.replace(rep, **{side: tuple(mats)})


def test_check_rep_is_check_module(load):
    """check_rep finds a violation exactly when a defining relation of
    UL(p) fails to act as zero on rep_to_module(rep): on the corpus
    representations and 30 seeded single-entry perturbations of each.
    rep_to_xmodule reads its UL(p)-modules off this, with no check of
    their own."""
    rng = random.Random(5)
    flagged = 0
    for rep in _corpus_reps(load):
        assert bool(check_rep(rep)) == bool(check_module(rep_to_module(rep)))
        for _ in range(30 if rep.module_dim else 0):
            bent = _bent_rep(rep, rng)
            bad = check_rep(bent)
            assert bool(bad) == bool(check_module(rep_to_module(bent)))
            flagged += bool(bad)
    assert flagged


def test_module_words_act_leftmost_first(load):
    rep = load("rep-a1-r.json")
    mod = rep_to_module(rep)
    # the word (l, r) acts as M[r] o M[l]
    expect = mod.gen_mats[1] @ mod.gen_mats[0]
    assert mod.word_mat((0, 1)) == expect


def test_module_multiplicativity(load):
    rep = load("rep-adj-l2.json")
    quot = ul(rep.algebra, 3)
    mod = rep_to_module(rep)
    for i, w1 in enumerate(quot.class_words):
        for w2 in quot.class_words:
            if len(w1) + len(w2) > quot.degree:
                continue
            prod = quot.mult({w1: Q(1)}, {w2: Q(1)})
            assert mod.class_mat(prod) == \
                mod.word_mat(w2) @ mod.word_mat(w1)


def test_broken_module_detected(a1):
    # both generators acting as 1 violate (y_r + y_l) x_l = 0
    one = LinearMap.identity(1)
    mod = ULModule(a1, 1, (one, one))
    assert check_module(mod)


def test_zero_rep_gives_zero_module(r2):
    alg = ul(r2, 2)
    mod = rep_to_module(zero_rep(r2, 2))
    assert not check_module(mod)
    for w in alg.class_words:
        if w:
            assert mod.word_mat(w).is_zero()


ENVELOPE_SOURCES = ("a1.json", "l2.json", "r2.json", "xmod-zero-a1.json",
                    "xmod-id-a1.json", "xmod-id-l2.json", "xmod-id-r2.json",
                    "xmod-incl-l2.json")


def _rebased(p, rng):
    """p in a seeded integer basis, drawn and checked by perfbench/rebase.py
    with its own Fraction arithmetic."""
    basis, c = rebase.read_bracket(io.dump_data(p))
    m, m_inv = rebase.draw_basis_change(rng, len(basis))
    c = rebase.change_tensor(c, m, m, m_inv)
    rebase.check_leibniz(c)
    return io.load_data(rebase.algebra_doc(p.name + "'", basis, c))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ENVELOPE_SOURCES)
def test_envelopes_of_valid_inputs_certify(load, name, seed):
    """A seeded basis change of a corpus algebra, or of the semidirect
    product of a corpus crossed module, has a certified envelope whose
    dimensions are the Loday–Pirashvili count: UL(g) ≅ (K ⊕ g) ⊗ U(g_Lie),
    so dim UL(g)_{<=k} = C(k+m, m) + n·C(k-1+m, m) for n = dim g and
    m = dim g_Lie; U(g_Lie) certifies with the PBW count C(k+m, m).  The
    generator checks of induced_map and rep_to_xmodule rest on this."""
    obj = load(name)
    p = semidirect(obj.action) if name.startswith("xmod") else obj
    g = _rebased(p, random.Random(seed))
    lie, _ = liezation(g)
    n, m, D = g.dim, lie.dim, 4
    alg = ul(g, D)
    assert alg.ideal.stabilized
    assert [alg.dim_upto(k) for k in range(D + 1)] == [
        math.comb(k + m, m) + (n * math.comb(k - 1 + m, m) if k else 0)
        for k in range(D + 1)]
    U = u_lie(lie, D)
    assert U.ideal.stabilized
    assert [U.dim_upto(k) for k in range(D + 1)] == [
        math.comb(k + m, m) for k in range(D + 1)]
