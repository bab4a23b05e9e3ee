import dataclasses
import itertools
import json
import random
import sys

import pytest

from leibnizx import io, lm, xul as xul_module
from leibnizx.freealg import (TruncQuotAlgebra, filtration_basis, induced_map,
                              letter_classes)
from leibnizx.scalars import Q
from leibnizx.envelope import ul, ul_images, ul_map
from leibnizx.linalg import LinearMap, Subspace, zero_subspace
from leibnizx.leibniz import semidirect, zero_action
from leibnizx.xmod import (LeibnizXMod, check_xmod, check_xmod_morphism,
                           identity_xmod, xmod_to_cat1, zero_xmod)
from leibnizx.xul import (check_trunc_xmod, embedding_squares_check,
                          lemma41_check, prop42_check, xul)

from conftest import (CORPUS, HSD_PARAMS, all_words,
                      assert_x_matches_all_pairs, case_xmod,
                      direct_sum as _direct_sum, free_reclosure,
                      full_kernels, hemisemidirect, hemisemidirect_xmod,
                      record_kernel_quotient, span_rows, violated_rows)

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import rebase  # noqa: E402


def test_xul_rejects_bad_input(l2):
    broken = LeibnizXMod(l2, l2, LinearMap.identity(2), zero_action(l2, l2))
    with pytest.raises(ValueError):
        xul(broken, 3)


def test_xul_rejects_bad_report_degree(a1):
    with pytest.raises(ValueError):
        xul(identity_xmod(a1), 3, report_degree=2)


def test_xul_identity_a1(a1):
    tx = xul(identity_xmod(a1), 3)
    assert tx.report_degree == 1
    assert tx.certificates["ul_semidirect_stabilized"]
    assert tx.certificates["ul_p_stabilized"]
    # B is the kernel of the unital map bar_s, so it avoids the unit class
    assert tx.b_dim_upto(1) == 2
    assert not check_trunc_xmod(tx)


def test_xul_zero_xmod_is_trivial(a1, l2):
    for p in (a1, l2):
        tx = xul(zero_xmod(p), 3)
        assert tx.B == zero_subspace(tx.ambient.dim)
        assert tx.ambient.dim == tx.ul_p.dim
        assert not check_trunc_xmod(tx)


def test_xul_inclusion_l2(xmods):
    tx = xul(xmods["xmod-incl-l2.json"], 3)
    assert not check_trunc_xmod(tx)
    # rho lands in UL(p) and is compatible with the boundary on degree 1
    for deg, v in tx.b_filtration(1):
        bc = tx.B.coords(tx.ambient.to_coords(v))
        out = tx.rho.apply(bc)
        assert set(out) <= set(range(tx.ul_p.dim))


def _pair_on(P1, P2, L1, L2, f):
    """P(f) between algebras whose letters are the module letters of the
    Lie objects L1, L2 and then those of their tops (pair algebras, and
    sq): f on the module letters and L(f) on the others."""
    return induced_map(P1, P2, letter_classes(P2, f) + letter_classes(
        P2, lm._liezed(f, L1, L2), L2.bottom_dim))


_ROWS = {"source": ("top", "sq", "bottom", "carrier"),
         "target": ("ug", "target", "target_bottom", "dst")}


def _row_on(Y1, Y2, f, row):
    """The maps that f induces on one row of two lm envelopes: f: q ⊕ p ->
    q' ⊕ p' on the source row, f: p -> p' on the target row.  L(f) on the
    tops, and :func:`_pair_on` on the row's pair-shaped algebra,
    restricted to the bottoms."""
    (U1, P1, B1, L1), (U2, P2, B2, L2) = (
        [getattr(Y, a) for a in _ROWS[row]] for Y in (Y1, Y2))
    top = induced_map(U1, U2, letter_classes(U2, lm._liezed(f, L1, L2)))
    P = _pair_on(P1, P2, L1, L2, f)
    return top, LinearMap.from_cols(B2.dim, [
        B2.to_coords(P2.from_coords(P.col(P1.class_index[w])))
        for w in B1.words])


def _lm_on(Y1, Y2, f):
    """The maps that f: q ⊕ p -> q' ⊕ p' induces between two lm
    envelopes: L(f) on the tops, and on sq f on the module letters and L(f)
    on the top letters, restricted to the bottoms."""
    return _row_on(Y1, Y2, f, "source")


def _on_ambients(t1, t2, f):
    """UL(f) between the ambients of two xul envelopes, for f = φ ⊕ ψ."""
    return induced_map(t1.ambient, t2.ambient, ul_images(t2.ambient, f))


@pytest.mark.parametrize("D", [3, 4, 5, 6])
def test_xul_is_natural(xmods, D):
    """xul and lm as functors on the morphism (η, id): xmod-incl-l2 ->
    xmod-id-l2.  UL(φ ⋊ ψ) on the ambients commutes with s̄, t̄ and the
    embedding, against ul_map on ψ = id, and sends B into B.  In lm the
    induced map of the tops, by L(φ ⊕ ψ), commutes with us2, ut2 and emb
    against the identity on U(Liez p), and the induced map of sq, φ ⊕ ψ on
    the module letters, commutes with us1 and ut1 on the bottoms.  (0, id)
    is no crossed-module morphism, and its t̄ and ut1 squares fail; lm's
    top row cannot tell it apart, as η(b) is a square of l2, so L(η ⊕ id)
    = L(0 ⊕ id)."""
    x1, x2 = xmods["xmod-incl-l2.json"], xmods["xmod-id-l2.json"]
    t1, t2 = xul(x1, D), xul(x2, D)
    Y1, Y2 = (lm.lm_xmod_envelope(t.cat1, D) for t in (t1, t2))
    psi = LinearMap.identity(x1.p.dim)
    u_psi = ul_map(t1.ul_p, t2.ul_p, psi)

    def plus_psi(phi):
        return _direct_sum(phi, psi)

    def on_ambients(phi):
        return _on_ambients(t1, t2, plus_psi(phi))

    assert not check_xmod_morphism(x1, x2, x1.eta, psi)
    F = on_ambients(x1.eta)
    assert t2.bar_s.compose(F) == u_psi.compose(t1.bar_s)
    assert t2.bar_t.compose(F) == u_psi.compose(t1.bar_t)
    assert F.compose(t1.embed) == t2.embed.compose(u_psi)
    assert all(t2.B.contains_vec(F.apply(r)) for r in t1.B.rows)
    top, bottom = _lm_on(Y1, Y2, plus_psi(x1.eta))
    assert Y2.us2.compose(top) == Y1.us2 and Y2.ut2.compose(top) == Y1.ut2
    assert top.compose(Y1.emb) == Y2.emb
    assert Y2.us1.compose(bottom) == Y1.us1
    assert Y2.ut1.compose(bottom) == Y1.ut1

    zero = LinearMap.zero(x2.q.dim, x1.q.dim)
    assert check_xmod_morphism(x1, x2, zero, psi)
    assert t2.bar_t.compose(on_ambients(zero)) != u_psi.compose(t1.bar_t)
    top0, bottom0 = _lm_on(Y1, Y2, plus_psi(zero))
    assert top0 == top
    assert Y2.ut1.compose(bottom0) != Y1.ut1


def _matrix(m):
    """A square Fraction matrix of perfbench/rebase.py as a LinearMap."""
    n = len(m)
    return LinearMap.from_cols(n, [{i: Q(m[i][j]) for i in range(n)
                                    if m[i][j]} for j in range(n)])


def _rebased_identity_xmod(seed, src):
    """(x', (Q, Q⁻¹), (P, P⁻¹)): the identity crossed module of corpus
    algebra src that ``rebase.write_rebased`` writes for seed, with its
    basis changes of q and p, replayed in write_rebased's order."""
    rng = random.Random(seed)
    for name in rebase.SOURCES:
        doc = json.loads((CORPUS / (name + ".json")).read_text("utf-8"))
        basis, c = rebase.read_bracket(doc)
        p_change = rebase.draw_basis_change(rng, len(basis))
        q_change = rebase.draw_basis_change(rng, len(basis))
        if name == src:
            return io.load_data(rebase.identity_xmod_doc(
                doc["name"] + "'", basis, c, p_change, q_change)), \
                q_change, p_change


@pytest.mark.parametrize("D", [3, 4, 5])
@pytest.mark.parametrize("src", rebase.SOURCES)
@pytest.mark.parametrize("seed", [1, 2])
def test_xul_is_natural_under_rebasing(load, seed, src, D):
    """The basis changes that perfbench/rebase.py draws give an
    isomorphism (Q⁻¹, P⁻¹) from the identity crossed module of a corpus
    algebra to its rebased copy.  It passes check_xmod_morphism, and so
    does its inverse (Q, P).  UL(φ ⋊ ψ) on the xul ambients commutes with
    s̄, t̄ and the embedding, against ul_map on ψ, and sends B into B; the
    inverse pair's map undoes it on both sides.  (0, P⁻¹) is no
    crossed-module morphism, and its t̄ square fails."""
    x = identity_xmod(load(src + ".json"))
    x2, (qm, qm_inv), (pm, pm_inv) = _rebased_identity_xmod(seed, src)
    t1, t2 = xul(x, D), xul(x2, D)
    phi, psi = _matrix(qm_inv), _matrix(pm_inv)
    u_psi = ul_map(t1.ul_p, t2.ul_p, psi)

    assert check_xmod_morphism(x, x2, phi, psi) == []
    assert check_xmod_morphism(x2, x, _matrix(qm), _matrix(pm)) == []
    F = _on_ambients(t1, t2, _direct_sum(phi, psi))
    assert t2.bar_s.compose(F) == u_psi.compose(t1.bar_s)
    assert t2.bar_t.compose(F) == u_psi.compose(t1.bar_t)
    assert F.compose(t1.embed) == t2.embed.compose(u_psi)
    assert all(t2.B.contains_vec(F.apply(r)) for r in t1.B.rows)
    G = _on_ambients(t2, t1, _direct_sum(_matrix(qm), _matrix(pm)))
    assert G.compose(F) == LinearMap.identity(t1.ambient.dim)
    assert F.compose(G) == LinearMap.identity(t2.ambient.dim)

    zero = LinearMap.zero(x2.q.dim, x.q.dim)
    assert check_xmod_morphism(x, x2, zero, psi)
    F0 = _on_ambients(t1, t2, _direct_sum(zero, psi))
    assert t2.bar_t.compose(F0) != u_psi.compose(t1.bar_t)


def _theta(tx, Y, row):
    """θ on UL(q ⋊ p) ("source") or on UL(p) ("target"), into the pair
    algebra of the carrier over U(L) or into the target, with the generator
    images of ``lm.theta_check``; returns (θ, its codomain)."""
    src, P, L = ((tx.ul_sd, lm.pair_algebra(Y.carrier, Y.usd), Y.carrier)
                 if row == "source" else (tx.ul_p, Y.target, Y.dst))
    return induced_map(src, P, lm._theta_images(P, L)), P


NATURAL_CASES = [
    pytest.param("incl", "xmod-incl-l2.json", "xmod-id-l2.json",
                 id="incl-l2"),
    pytest.param("incl", "sl2ad-inclusion", "sl2ad-identity",
                 id="incl-sl2ad")] + [
    pytest.param("incl", (a, "inclusion"), (a, "identity"),
                 id="incl-hsd%d" % a) for a in HSD_PARAMS] + [
    pytest.param("rebased", src, seed, id="rebased-%s-%d" % (src, seed))
    for src in rebase.SOURCES for seed in (1, 2)]


@pytest.mark.parametrize("D", [3, 4])
@pytest.mark.parametrize("kind, a, b", NATURAL_CASES)
def test_lm_and_theta_are_natural(xmods, load, kind, a, b, D):
    """lm and θ as functors on two kinds of crossed-module morphism
    (φ, ψ): (η, id) from an inclusion crossed module to the identity one
    (xmod-incl-l2 -> xmod-id-l2, and sl2 ⋉ ad and the hemisemidirect
    products with their module ideals), and the rebasing isomorphisms
    (Q⁻¹, P⁻¹) of test_xul_is_natural_under_rebasing.  In lm the maps
    that φ ⊕ ψ induces on the source row commute with us2, ut2, emb, us1
    and ut1 against the maps ψ induces on the target row.  θ′ ∘ UL(φ ⋊ ψ)
    = P(φ ⋊ ψ) ∘ θ on UL(q ⋊ p), for P(f) the induced map between the two
    pair algebras, and likewise with ψ on UL(p).  (0, ψ) is no
    crossed-module morphism, and its t̄ and ut1 squares fail."""
    if kind == "incl":
        x1, x2 = case_xmod(xmods, a), case_xmod(xmods, b)
        phi, psi = x1.eta, LinearMap.identity(x1.p.dim)
    else:
        x1 = identity_xmod(load(a + ".json"))
        x2, (_, qm_inv), (_, pm_inv) = _rebased_identity_xmod(b, a)
        phi, psi = _matrix(qm_inv), _matrix(pm_inv)
    assert check_xmod_morphism(x1, x2, phi, psi) == []
    t1, t2 = xul(x1, D), xul(x2, D)
    Y1, Y2 = (lm.lm_xmod_envelope(t.cat1, D) for t in (t1, t2))
    f = _direct_sum(phi, psi)

    top, bottom = _row_on(Y1, Y2, f, "source")
    ug, tb = _row_on(Y1, Y2, psi, "target")
    assert Y2.us2.compose(top) == ug.compose(Y1.us2)
    assert Y2.ut2.compose(top) == ug.compose(Y1.ut2)
    assert top.compose(Y1.emb) == Y2.emb.compose(ug)
    assert Y2.us1.compose(bottom) == tb.compose(Y1.us1)
    assert Y2.ut1.compose(bottom) == tb.compose(Y1.ut1)

    for row, g, ul1, ul2, L1, L2 in (
            ("source", f, t1.ul_sd, t2.ul_sd, Y1.carrier, Y2.carrier),
            ("target", psi, t1.ul_p, t2.ul_p, Y1.dst, Y2.dst)):
        (th1, P1), (th2, P2) = _theta(t1, Y1, row), _theta(t2, Y2, row)
        assert th2.compose(ul_map(ul1, ul2, g)) == \
            _pair_on(P1, P2, L1, L2, g).compose(th1)

    zero = LinearMap.zero(x2.q.dim, x1.q.dim)
    assert check_xmod_morphism(x1, x2, zero, psi)
    f0 = _direct_sum(zero, psi)
    assert t2.bar_t.compose(_on_ambients(t1, t2, f0)) != \
        ul_map(t1.ul_p, t2.ul_p, psi).compose(t1.bar_t)
    assert Y2.ut1.compose(_row_on(Y1, Y2, f0, "source")[1]) != \
        tb.compose(Y1.ut1)


def test_lemma41_identity_a1(a1):
    rec = lemma41_check(identity_xmod(a1), 3)
    assert rec["verdict"] == "pass"
    assert rec["lhs_dim"] == rec["rhs_dim"] == 2
    assert rec["stabilized"] and all(rec["certificates"].values())


@pytest.mark.parametrize("name", ["xmod-zero-a1.json", "xmod-id-a1.json",
                                  "xmod-id-l2.json", "xmod-id-r2.json",
                                  "xmod-incl-l2.json"])
@pytest.mark.parametrize("D", [3, 4])
def test_lemma41_needs_no_rerun(xmods, name, D):
    """The degree+1 rerun that lemma41 once made as its stability
    certificate: with both envelopes exact, it gives the same dimensions
    and equality as the one build."""
    x, d = xmods[name], D - 2
    runs = [xul_module._lemma41_core(x, D_, d) for D_ in (D, D + 1)]
    assert all(usd_ok and p_ok for _, _, usd_ok, p_ok in runs)
    lhs, rhs, _, _ = runs[0]
    for lhs2, rhs2, _, _ in runs[1:]:
        assert (lhs2.dim, rhs2.dim, lhs2 == rhs2) == \
            (lhs.dim, rhs.dim, lhs == rhs)
    rec = lemma41_check(x, D)
    assert (rec["lhs_dim"], rec["rhs_dim"], rec["equal"]) == \
        (lhs.dim, rhs.dim, lhs == rhs)
    assert rec["certificates"] == {"ul_semidirect_stabilized": True,
                                   "ul_p_stabilized": True}


def test_lemma41_reads_both_envelope_certificates(a1, monkeypatch):
    """A false certificate of UL(p) alone makes lemma41 inconclusive."""
    real = xul_module.ul

    def unstable_p(p, degree):
        alg = real(p, degree)
        if p is a1:
            alg.ideal.stabilized = False
        return alg

    monkeypatch.setattr(xul_module, "ul", unstable_p)
    rec = lemma41_check(identity_xmod(a1), 3)
    assert rec["equal"] and rec["stabilized"]
    assert rec["certificates"] == {"ul_semidirect_stabilized": True,
                                   "ul_p_stabilized": False}
    assert rec["verdict"] == "inconclusive"


def test_prop42_a1(a1):
    rec = prop42_check(a1, 3)
    assert rec["verdict"] == "pass"
    assert rec["composite_on_ul_is_id"] and rec["composite_on_b_is_id"]
    # the identification misses the unit: one fewer class on the B side
    assert rec["b_dim_upto_d"] == rec["ul_dim_upto_d"] - 1


def test_embedding_squares(a1, l2, r2):
    for p in (a1, l2, r2):
        rec = embedding_squares_check(p, 3)
        assert rec["verdict"] == "pass"
        assert rec["b_dim"] == 0
        assert rec["ambient_dim"] == rec["ul_p_dim"]


def _unstable_xul(monkeypatch):
    """Make every xul() report its envelopes as not stabilized."""
    real = xul_module.xul

    def unstable(*args, **kwargs):
        tx = real(*args, **kwargs)
        certs = dict(tx.certificates, ul_semidirect_stabilized=False,
                     ul_p_stabilized=False)
        return dataclasses.replace(tx, certificates=certs)

    monkeypatch.setattr(xul_module, "xul", unstable)


def test_prop42_fail_wins_over_false_certificates(a1, monkeypatch):
    _unstable_xul(monkeypatch)
    assert prop42_check(a1, 3)["verdict"] == "inconclusive"
    monkeypatch.setattr(xul_module, "check_trunc_xmod",
                        lambda tx: [("CAs2", (1, 1))])
    rec = prop42_check(a1, 3)
    assert rec["xmod_violations"] == 1
    assert rec["verdict"] == "fail"


def test_embedding_squares_reads_certificates(a1, monkeypatch):
    _unstable_xul(monkeypatch)
    rec = embedding_squares_check(a1, 3)
    assert rec["b_dim"] == 0
    assert rec["verdict"] == "inconclusive"


XMOD_NAMES = ("xmod-zero-a1.json", "xmod-id-a1.json", "xmod-id-l2.json",
              "xmod-id-r2.json", "xmod-incl-l2.json")


@pytest.mark.parametrize("name,D", [
    (name, D) for name in XMOD_NAMES for D in (3, 4, 5)
    if (name, D) != ("xmod-id-r2.json", 5)])
def test_kernel_product_quotient_matches_free_reclosure(xmods, name, D,
                                                        monkeypatch):
    """extend_by(rows) presents the quotient by the envelope's rows with
    the degree-two generators of X, and they resolve; the
    re-closure of the whole ideal in the free algebra gives the same class
    words and the same reduction of every word.  Each of the three induced
    maps, checked on its source ideal's rows, kills every row of that
    ideal's span too, and s̄, t̄, checked on the quotient's rows, kill
    every row of the envelope's span: s and t are algebra maps on it."""
    extends, maps = [], []
    extend_by = TruncQuotAlgebra.extend_by
    induced_map = xul_module.induced_map

    def recording_extend(quot, rows):
        out = extend_by(quot, rows)
        extends.append((quot, rows, out))
        return out

    def recording_map(src, dst, gen_images):
        maps.append((src, dst, gen_images))
        return induced_map(src, dst, gen_images)

    monkeypatch.setattr(TruncQuotAlgebra, "extend_by", recording_extend)
    monkeypatch.setattr(xul_module, "induced_map", recording_map)
    xul(xmods[name], D)
    (env, rows, quot), = extends
    assert env.ideal.stabilized
    assert quot.ideal.stabilized
    want = free_reclosure(env, rows)
    assert quot.class_words == want.class_words
    for w in all_words(len(env.gens), env.degree):
        assert quot.reduce_word(w) == want.reduce_word(w), w
    assert len(maps) == 3
    for src, dst, gen_images in maps:
        rows = span_rows(want if src is quot else src)
        assert not violated_rows(rows, dst, gen_images)
    for src, dst, gen_images in maps[:2]:
        assert src is quot
        assert not violated_rows(span_rows(env), dst, gen_images)


@pytest.mark.parametrize("name,D", [
    (name, D) for name in XMOD_NAMES for D in (3, 4, 5)
    if (name, D) != ("xmod-id-r2.json", 5)])
def test_x_from_generators_matches_all_pairs(xmods, name, D, monkeypatch):
    """X built from the degree-two generators A·B + B·A gives the quotient
    that the closure of every product of kernel filtration rows gives."""
    assert_x_matches_all_pairs(
        xul_module, lambda: xul(xmods[name], D), monkeypatch)


@pytest.mark.parametrize("stem", ["xmod-id-a1", "xmod-id-l2", "xmod-id-r2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_x_from_generators_matches_all_pairs_rebased(stem, seed, tmp_path,
                                                     monkeypatch):
    """The same on seeded basis changes, whose kernel rows carry dense
    rational coefficients."""
    x = io.load_path(rebase.write_rebased(str(CORPUS), str(tmp_path),
                                          seed)[stem])
    assert_x_matches_all_pairs(
        xul_module, lambda: xul(x, 4), monkeypatch)


def _assert_prop42_dims(x, D, zero=False):
    """U/X against its closed form, at each degree d <= D: dim (U/X)_{<=d}
    is 2·dim UL(p)_{<=d} - 1 for an identity crossed module (Prop. 4.2:
    Ker s̄ is the augmentation ideal of UL(p)) and dim UL(p)_{<=d} for a
    zero one; the completion of U/X closes."""
    tx = xul(x, D)
    assert tx.certificates["kernel_product_stabilized"] is True
    for d in range(D + 1):
        up = tx.ul_p.dim_upto(d)
        assert tx.ambient.dim_upto(d) == (up if zero else 2 * up - 1), d
    return tx


@pytest.mark.parametrize("D", [3, 4, 5])
@pytest.mark.parametrize("stem", ["a1", "l2", "r2"])
def test_ambient_dims_follow_prop42(load, stem, D):
    p = load(stem + ".json")
    tx = _assert_prop42_dims(identity_xmod(p), D)
    if (stem, D) == ("r2", 5):
        assert (tx.ambient.dim, tx.ul_p.dim) == (101, 51)
    _assert_prop42_dims(zero_xmod(p), D, zero=True)


@pytest.mark.parametrize("stem", ["xmod-id-a1", "xmod-id-l2", "xmod-id-r2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_ambient_dims_follow_prop42_rebased(stem, seed, tmp_path):
    x = io.load_path(rebase.write_rebased(str(CORPUS), str(tmp_path),
                                          seed)[stem])
    _assert_prop42_dims(x, 4)


@pytest.mark.parametrize("kind", ["identity", "inclusion"])
@pytest.mark.parametrize("a", HSD_PARAMS)
def test_x_matches_all_pairs_beyond_the_corpus(a, kind, monkeypatch):
    """X from its degree-two generators against the all-pairs closure on
    crossed modules that are not isomorphic to a corpus one."""
    p = hemisemidirect(a)
    assert not p.check_leibniz() and not p.is_lie()
    x = hemisemidirect_xmod(a, kind)
    assert not check_xmod(x)
    assert_x_matches_all_pairs(
        xul_module, lambda: xul(x, 3), monkeypatch)


@pytest.mark.parametrize("a", HSD_PARAMS)
def test_ambient_dims_follow_prop42_beyond_the_corpus(a):
    _assert_prop42_dims(identity_xmod(hemisemidirect(a)), 4)


DEGREE_ONE_INPUTS = (
    [("corpus", name) for name in XMOD_NAMES]
    + [("hemisemidirect-" + kind, a) for kind in ("identity", "inclusion")
       for a in HSD_PARAMS]
    + [("rebased-%d" % seed, stem) for seed in (1, 2)
       for stem in ("xmod-id-a1", "xmod-id-l2", "xmod-id-r2")])


@pytest.mark.parametrize("pipeline", ["xul", "lm"])
@pytest.mark.parametrize("source,arg", DEGREE_ONE_INPUTS)
def test_degree_one_kernel_rows_match_full_kernels(xmods, source, arg,
                                                   pipeline, tmp_path,
                                                   monkeypatch):
    """kernel_product_quotient takes Ker s ∩ F_1 and Ker t ∩ F_1 from the
    unit and the letters alone: they are the degree-one filtration rows of
    the whole kernels of s and t built on the envelope, for xul's
    UL(q ⋊ p) and lm's U(h ⋊ g)."""
    if source == "corpus":
        x = xmods[arg]
    elif source.startswith("hemisemidirect-"):
        x = hemisemidirect_xmod(arg, source.split("-")[1])
    else:
        seed = int(source.split("-")[1])
        x = io.load_path(rebase.write_rebased(str(CORPUS), str(tmp_path),
                                              seed)[arg])
    if pipeline == "xul":
        module, build = xul_module, lambda: xul(x, 3)
    else:
        module, build = lm, lambda: lm.lm_xmod_envelope(
            xmod_to_cat1(x), 3)
    _, (env, target, s_imgs, t_imgs, kq) = record_kernel_quotient(
        module, build, monkeypatch)
    for rows, (_, ker) in zip((kq.s_rows, kq.t_rows),
                              full_kernels(env, target, s_imgs, t_imgs)):
        assert rows == [v for _, v in filtration_basis(env, ker, 1)]


def _full_loop_check(tx):
    """Oracle for ``check_trunc_xmod``: CAs1, CAs2 and the crossed-module
    identities on filtration rows with degree sums at most the report
    degree, UL(p) running over every class word, not only its letters."""
    bad = []
    d = tx.report_degree
    bar, up = tx.ambient, tx.ul_p

    if tx.bar_s.compose(tx.embed) != LinearMap.identity(up.dim):
        bad.append(("CAs1_s", None))
    if tx.bar_t.compose(tx.embed) != LinearMap.identity(up.dim):
        bad.append(("CAs1_t", None))

    def mult_coords(a, b, bound):
        av, bv = bar.from_coords(a), bar.from_coords(b)
        return bar.to_coords(bar.mult(av, bv, bound))

    B_rows = tx.b_filtration(d)
    Kt = tx.bar_t.kernel()
    Kt_rows = filtration_basis(bar, Kt, d)

    # CAs2: kernel products vanish up to degree d
    for da, va in B_rows:
        for db, vb in Kt_rows:
            if da + db > d:
                continue
            a, b = bar.to_coords(va), bar.to_coords(vb)
            if mult_coords(a, b, d) or mult_coords(b, a, d):
                bad.append(("CAs2", (da, db)))

    # crossed-module identities on filtration bases
    up_rows = [(len(w), {i: 1})
               for i, w in enumerate(up.class_words) if len(w) <= d]
    for da, va in B_rows:
        a = bar.to_coords(va)
        ra = tx.rho.apply(tx.B.coords(a))
        for db, vb in B_rows:
            if da + db > d:
                continue
            b = bar.to_coords(vb)
            ab = mult_coords(a, b, d)
            rb = tx.rho.apply(tx.B.coords(b))
            # rho is multiplicative
            lhs = tx.rho.apply(tx.B.coords(ab))
            rhs = up.to_coords(
                up.mult(up.from_coords(ra), up.from_coords(rb), d))
            if lhs != rhs:
                bad.append(("rho_hom", (da, db)))
            # Peiffer: rho(a).b = a.b = a.rho(b)
            if mult_coords(tx.embed.apply(ra), b, d) != ab:
                bad.append(("peiffer_left", (da, db)))
            if mult_coords(a, tx.embed.apply(rb), d) != ab:
                bad.append(("peiffer_right", (da, db)))
        for du, vu in up_rows:
            if da + du > d:
                continue
            u = tx.embed.apply(vu)
            ua = mult_coords(u, a, d)
            au = mult_coords(a, u, d)
            if not tx.B.contains_vec(ua) or not tx.B.contains_vec(au):
                bad.append(("action_not_in_B", (du, da)))
                continue
            # equivariance: rho(u.b) = u rho(b), rho(b.u) = rho(b) u
            uq = {i: c for i, c in vu.items()}
            if tx.rho.apply(tx.B.coords(ua)) != up.to_coords(
                    up.mult(up.from_coords(uq), up.from_coords(ra), d)):
                bad.append(("equivariance_left", (du, da)))
            if tx.rho.apply(tx.B.coords(au)) != up.to_coords(
                    up.mult(up.from_coords(ra), up.from_coords(uq), d)):
                bad.append(("equivariance_right", (du, da)))
    return bad


SPAN_CASES = list(XMOD_NAMES) + [
    (a, kind) for a in HSD_PARAMS for kind in ("identity", "inclusion")] + [
    "sl2ad-identity", "sl2ad-inclusion"]


@pytest.mark.parametrize("D", [4, 5])
@pytest.mark.parametrize(
    "case", SPAN_CASES,
    ids=lambda v: "hsd%d-%s" % v if isinstance(v, tuple) else str(v))
def test_kernels_are_generated_in_degree_one(xmods, case, D):
    """The spanning statement (S) of kernel_xmod_violations, at every
    k <= D: Ker s̄ ∩ F_k and Ker t̄ ∩ F_k are spanned by the a·u and by the
    u·a for a in the kernel's degree-one filtration rows and |u| <= k - 1,
    against the kernels' filtration bases."""
    tx = xul(case_xmod(xmods, case), D)
    bar = tx.ambient
    words = [(len(u), {u: 1}) for u in bar.class_words if len(u) < D]
    for f in (tx.bar_s, tx.bar_t):
        ker = f.kernel()
        gens = [a for _, a in filtration_basis(bar, ker, 1)]
        left = [(du, bar.to_coords(bar.mult(a, u)))
                for a in gens for du, u in words]
        right = [(du, bar.to_coords(bar.mult(u, a)))
                 for a in gens for du, u in words]
        for k in range(D + 1):
            want = Subspace.from_vectors(bar.dim, [
                bar.to_coords(v) for _, v in filtration_basis(bar, ker, k)])
            for prods in (left, right):
                assert Subspace.from_vectors(
                    bar.dim, [v for du, v in prods if du <= k - 1]) == want, k


def _perturbations(tx):
    """tx with one of bar_s, bar_t, embed and rho given every other column
    doubled (the same supports, so the same degrees; the odd columns under
    its name, the even ones under its name with a prime)."""
    out = {}
    for name in ("bar_s", "bar_t", "embed", "rho"):
        f = getattr(tx, name)
        for even, key in ((0, name), (1, name + "'")):
            cols = [{i: (1 + (j + even) % 2) * c for i, c in f.col(j).items()}
                    for j in range(f.cols)]
            out[key] = dataclasses.replace(
                tx, **{name: LinearMap.from_cols(f.rows, cols)})
    return out


FULL_LOOP_CASES = (
    [(name, D) for name in XMOD_NAMES for D in (3, 4, 5)]
    + [((a, kind), D) for a in HSD_PARAMS for kind in ("identity", "inclusion")
       for D in (3, 4)]
    + [("sl2ad-" + kind, D) for kind in ("identity", "inclusion")
       for D in (3, 4)])


@pytest.mark.parametrize(
    "case,D", FULL_LOOP_CASES,
    ids=lambda v: "hsd%d-%s" % v if isinstance(v, tuple) else str(v))
def test_checker_flags_what_the_full_loops_flag(xmods, case, D):
    """check_trunc_xmod, with UL(p) on its unit and letters, against the
    full loops over every class word: both report nothing on the
    envelope, and each perturbed envelope is flagged by the checker
    exactly when the full loops flag it."""
    tx = xul(case_xmod(xmods, case), D)
    assert check_trunc_xmod(tx) == [] == _full_loop_check(tx)
    for what, bent in _perturbations(tx).items():
        assert bool(check_trunc_xmod(bent)) == bool(_full_loop_check(bent)), \
            what


@pytest.mark.parametrize("D", [4, 5])
@pytest.mark.parametrize(
    "case", list(XMOD_NAMES) + [(a, kind) for a in HSD_PARAMS
                                for kind in ("identity", "inclusion")],
    ids=lambda v: "hsd%d-%s" % v if isinstance(v, tuple) else str(v))
def test_rho_is_multiplicative(xmods, case, D):
    """Why check_trunc_xmod needs no hom check on rho: rho, bar_t (an
    induced_map) restricted to B, is multiplicative on every pair of B
    filtration rows with degree sum at most the report degree.  B's rows
    have fdeg >= 1, so at D3 (d = 1) there is no such pair."""
    tx = xul(case_xmod(xmods, case), D)
    d, bar, up = tx.report_degree, tx.ambient, tx.ul_p

    def rho(v):
        return up.from_coords(tx.rho.apply(tx.B.coords(bar.to_coords(v))))

    rows = tx.b_filtration(d)
    pairs = [(a, b) for da, a in rows for db, b in rows if da + db <= d]
    assert pairs or case == "xmod-zero-a1.json"
    for a, b in pairs:
        assert rho(bar.mult(a, b, d)) == up.mult(rho(a), rho(b), d)


def _word_enumeration_span(usd, nq, d):
    """Oracle for Lemma 4.1's right side: the span of the classes of every
    word of length <= d that contains a pure-q letter."""
    g = len(usd.gens)
    qletters = set(range(nq)) | set(range(g // 2, g // 2 + nq))
    return Subspace.from_vectors(usd.dim, [
        usd.to_coords(usd.reduce_word(w))
        for k in range(1, d + 1)
        for w in itertools.product(range(g), repeat=k)
        if qletters.intersection(w)])


@pytest.mark.parametrize("D", [3, 4, 5])
@pytest.mark.parametrize(
    "case", list(XMOD_NAMES) + [(a, kind) for a in HSD_PARAMS
                                for kind in ("identity", "inclusion")],
    ids=lambda v: "hsd%d-%s" % v if isinstance(v, tuple) else str(v))
def test_kernel_words_span_matches_word_enumeration(xmods, case, D):
    """The class words with a q-letter span what the classes of all words
    with a q-letter span, at the report degree D - 2."""
    x = case_xmod(xmods, case)
    usd = ul(semidirect(x.action), D)
    got = xul_module._kernel_words_span(usd, x.q.dim, D - 2)
    assert got == _word_enumeration_span(usd, x.q.dim, D - 2)
