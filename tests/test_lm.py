import contextlib
import dataclasses
import io as stdio
import json
import random
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizx import cli, io, lm, xmod, xul
from leibnizx.freealg import (HomomorphismError, filtration_basis,
                              induced_map, presented)
from leibnizx.scalars import Q
from leibnizx.linalg import Echelon, LinearMap, Subspace, vec_add_scaled
from leibnizx.leibniz import Action, LeibnizAlgebra, semidirect
from leibnizx.xmod import (check_xmod, ideal_inclusion_xmod,
                           identity_violations, identity_xmod, xmod_to_cat1,
                           zero_xmod)
from leibnizx.lm import (LMAssocXMod, TensorBimodule, _shift_vec,
                         check_lm_assoc_xmod, check_lm_lie_object,
                         leibniz_to_lm, lm_xmod_envelope, pair_algebra,
                         theta_check, u_lie)

from conftest import (CORPUS, HSD_PARAMS, TensorRef, all_words,
                      assert_x_matches_all_pairs, case_xmod,
                      connect_bimodule_violations, full_kernels,
                      hemisemidirect_xmod, pair_connect, pair_product,
                      record_kernel_quotient, shift_letters, sl2_ad_xmod)

sys.path.insert(0, str(CORPUS.parent / "perfbench"))

import rebase  # noqa: E402


# ---------------------------------------------------------------------------
# oracles: the kernels' filtration bases and the associated classical
# crossed module, over every filtration row


def b_filtration(Y):
    """(degree, vector) basis of Ker us1 whose rows of degree <= k span
    Ker us1 ∩ F_k, sorted by degree."""
    return tuple((deg, Y.bottom.to_coords(v)) for deg, v in
                 filtration_basis(Y.bottom, Y.us1.kernel()))


def b_ker_filtration(Y, d):
    return [(deg, v) for deg, v in b_filtration(Y) if deg <= d]


def s_ker_filtration(Y, d):
    return [(deg, Y.top.to_coords(v))
            for deg, v in filtration_basis(Y.top, Y.us2.kernel(), d)]


@dataclasses.dataclass(frozen=True)
class AssociatedXMod:
    """Classical (truncated) crossed module of associative algebras built
    from the enveloping object: carriers b_ker ⊕ s_ker and
    (U(g) ⊗ M) ⊕ U(g), products (a,r)(a',r') = (alpha(a)a' + ar' + ra', rr').

    The top row's carrier is the target pair algebra, whose product is
    this one (``lm.pair_algebra``).  The bottom-row ambient is sq with
    the connect term added: in sq (b + s)(b' + s') = bs' + sb' + ss', as
    it is square-zero.  Elements are class vectors of the target and of
    sq."""

    Y: LMAssocXMod

    def bottom_mult(self, u, v, bound):
        """Product in the bottom-row ambient (quotient bottom ⊕ top)."""
        Y = self.Y
        out = Y.sq.mult(u, v, bound)
        b = Y.bottom.to_coords(
            {w: c for w, c in u.items() if w in Y.bottom.index})
        b2 = {w: c for w, c in v.items() if w in Y.bottom.index}
        if b and b2:
            conn = _shift_vec(Y.top.from_coords(Y.connect.apply(b)),
                              Y.carrier.bottom_dim)
            vec_add_scaled(out, Y.sq.mult(conn, b2, bound), 1)
        return out

    @cached_property
    def _t(self):
        return self.Y.pair_map(self.Y.ut1, self.Y.ut2)

    def boundary(self, u):
        Y = self.Y
        return Y.target.from_coords(self._t.apply(Y.sq.to_coords(u)))

    def embed_pair(self, u):
        """(U(g) ⊗ M) ⊕ U(g) into the bottom-row ambient, through the
        s-section and the g-block embedding."""
        Y = self.Y
        a = {w: c for w, c in u.items() if w in Y.target_bottom.index}
        r = {w: c for w, c in u.items() if w not in a}
        out = Y.bottom.from_coords(Y.section(Y.target_bottom.to_coords(a)))
        vec_add_scaled(out, _shift_vec(Y.r_on_top(_shift_vec(
            r, -Y.dst.bottom_dim)), Y.carrier.bottom_dim), 1)
        return out


def check_associated_xmod(ax):
    """Truncated associative crossed-module axioms
    (``xmod.identity_violations``) on filtration bases at the report
    degree, over every kernel row and every target class word.
    Associativity of the top row is the target pair algebra's, proven when
    its rows resolve (``u_g_stabilized``)."""
    Y = ax.Y
    d = Y.report_degree
    b_rows = [(db, Y.bottom.from_coords(v))
              for db, v in b_ker_filtration(Y, d)]
    b_rows += [(ds, _shift_vec(Y.top.from_coords(v), Y.carrier.bottom_dim))
               for ds, v in s_ker_filtration(Y, d)]
    a_rows = [(len(w), {w: 1}) for w in Y.target.class_words if len(w) <= d]
    return identity_violations(
        b_rows, a_rows, lambda u, v: ax.bottom_mult(u, v, d),
        lambda u, v: Y.target.mult(u, v, d), ax.boundary,
        lambda r, u: ax.bottom_mult(ax.embed_pair(r), u, d),
        lambda u, r: ax.bottom_mult(u, ax.embed_pair(r), d),
        "boundary_mult", d)


def test_leibniz_to_lm(l2, r2):
    for p in (l2, r2):
        L = leibniz_to_lm(p)
        assert not check_lm_lie_object(L)
    # L2 maps onto its 1-dimensional liezation
    assert leibniz_to_lm(l2).lie.dim == 1


def test_lm_xmod_envelope_checks_its_input(xmods):
    """lm_xmod_envelope leaves the crossed-module axioms to its callers;
    the one check of its own is its carrier's, built by leibniz_to_lm,
    which refuses an action whose semidirect product is not Leibniz."""
    x = xmods["xmod-id-r2.json"]
    left = [[dict(c) for c in row] for row in x.action.left_tensor]
    left[0][1][0] = left[0][1].get(0, 0) + 1
    bent = x._replace(action=Action(x.p, x.q, left, x.action.right_tensor))
    assert check_xmod(bent) and semidirect(bent.action).check_leibniz()
    with pytest.raises(ValueError, match="does not descend|Lie-object"):
        lm_xmod_envelope(xmod_to_cat1(bent), 3)


REBASED_XMODS = ("xmod-id-a1", "xmod-id-l2", "xmod-id-r2", "xmod-zero-l2")


@pytest.fixture(scope="module")
def rebased_xmods(tmp_path_factory):
    """The seeded basis changes (seeds 1 and 2) of REBASED_XMODS."""
    out = {}
    for seed in (1, 2):
        paths = rebase.write_rebased(
            str(CORPUS), str(tmp_path_factory.mktemp("rebased%d" % seed)),
            seed)
        for name in REBASED_XMODS:
            out[seed, name] = io.load_path(paths[name])
    return out


# ---------------------------------------------------------------------------
# oracle: the cat¹ Lie object (L(q ⋊ p), s, t), written out


def cat1_violations(x, carrier, dst):
    """Oracle for the carrier of ``lm_xmod_envelope``: the cat¹ axioms of
    (L(q ⋊ p), s, t) over L(p) on basis vectors, for carrier = L(q ⋊ p)
    and dst = L(p), with L(s), L(t) taken through the carrier's lifts
    (``lm._liezed``).  The carrier is a Lie object; its lifts are q's
    first, then those of L(p); s2, t2 are well defined, Lie maps and split
    by p's letters; s1, t1 are equivariant over them; [Ker s2, Ker t2] =
    [Ker t2, Ker s2] = 0; and [Ker s1, Ker t2] = [Ker t1, Ker s2] = 0."""
    L, g, nq = carrier.lie, dst.lie, x.q.dim
    h = L.dim - g.dim
    bad = [("carrier",) + v for v in check_lm_lie_object(carrier)]
    lifts = list(carrier.alpha.kernel().complement_pivots())
    if any(c >= nq for c in lifts[:h]) or lifts[h:] != [
            nq + c for c in dst.alpha.kernel().complement_pivots()]:
        bad.append(("pivot_layout",))
    maps = {}
    c = xmod_to_cat1(x)
    for name, f1 in zip("st", (c.s, c.t)):
        f2 = lm._liezed(f1, carrier, dst)
        maps[name] = f1, f2
        if f2.compose(carrier.alpha) != dst.alpha.compose(f1):
            bad.append((name + "2_well_defined",))
        if any(f2.col(h + j) != {j: 1} for j in range(g.dim)):
            bad.append((name + "2_split",))
        for i in range(L.dim):
            for j in range(L.dim):
                if f2.apply(L.product_basis(i, j)) != \
                        g.product(f2.col(i), f2.col(j)):
                    bad.append((name + "2_lie_map", (i, j)))
            if f1.compose(carrier.right_mats[i]) != \
                    dst.right(f2.col(i)).compose(f1):
                bad.append((name + "1_equivariance", i))
    (s1, s2), (t1, t2) = maps["s"], maps["t"]
    for a in s2.kernel().rows:
        for b in t2.kernel().rows:
            if L.product(a, b) or L.product(b, a):
                bad.append(("ker_s2_ker_t2",))
    for f1, f2, tag in ((s1, t2, "ker_s1_ker_t2"), (t1, s2, "ker_t1_ker_s2")):
        for n in f1.kernel().rows:
            for a in f2.kernel().rows:
                if carrier.right(a).apply(n):
                    bad.append((tag,))
    return bad


LIE_SQUARES = [("corpus", name, None) for name in (
    "xmod-zero-a1.json", "xmod-id-a1.json", "xmod-id-l2.json",
    "xmod-id-r2.json", "xmod-incl-l2.json")] + \
    [("hsd", a, kind) for a in HSD_PARAMS for kind in ("identity",
                                                       "inclusion")] + \
    [(kind, seed, name) for kind in ("rebased", "rebased_integral")
     for seed in (1, 2) for name in REBASED_XMODS]


@pytest.mark.parametrize("case", LIE_SQUARES, ids=lambda c: "%s-%s-%s" % c)
def test_carrier_flags_what_the_families_flag(xmods, rebased_xmods, case):
    """The cat¹ carrier against the crossed-module families: the envelope's
    carrier is L(q ⋊ p) and its target L(p), its s2 and t2 are L(s) and
    L(t) on the letters, and the cat¹ oracle reports nothing; on η
    doubled or zeroed the oracle flags exactly when check_xmod flags.  The
    carrier does not depend on η, so the flags come from s2, t2 and the
    kernel brackets."""
    kind, a, b = case
    if kind == "corpus":
        x = xmods[a]
    elif kind == "hsd":
        x = hemisemidirect_xmod(a, b)
    else:
        x = rebased_xmods[a, b]
        x = xmod.integral(x) if kind == "rebased_integral" else x
    Y = lm_xmod_envelope(xmod_to_cat1(x), 3)
    assert Y.carrier == leibniz_to_lm(semidirect(x.action))
    assert Y.dst == leibniz_to_lm(x.p)
    c = xmod_to_cat1(x)
    for f1, u in zip((c.s, c.t), (Y.us2, Y.ut2)):
        f2 = lm._liezed(f1, Y.carrier, Y.dst)
        for i in range(f2.cols):
            assert Y.ug.from_coords(u.col(Y.top.class_index[(i,)])) == \
                {(j,): c for j, c in f2.col(i).items()}
    assert cat1_violations(x, Y.carrier, Y.dst) == []
    for eta in (x.eta.scale(2), LinearMap.zero(x.p.dim, x.q.dim)):
        z = x._replace(eta=eta)
        assert bool(cat1_violations(z, Y.carrier, Y.dst)) == \
            bool(check_xmod(z)), eta


def test_theta_checks_its_input_once(xmods, monkeypatch):
    """theta_check gets its input's crossed-module check through xul;
    lm_xmod_envelope does not repeat it."""
    x = xmods["xmod-id-a1.json"]
    seen = []
    check = xul.check_xmod
    monkeypatch.setattr(xul, "check_xmod",
                        lambda y: seen.append(y) or check(y))
    assert theta_check(x, 3)["verdict"] == "pass"
    assert sum(y is x for y in seen) == 1


def test_u_lie_dimensions(r2):
    from leibnizx.leibniz import liezation
    lie, _ = liezation(r2)
    U = u_lie(lie, 3)
    # PBW for a 2-dimensional Lie algebra: 1 + 2 + 3 + 4 classes
    assert U.dim == 10
    assert U.ideal.stabilized


def test_u_lm_object(a1, l2):
    """The enveloping object (U(g) ⊗ M -> U(g)) of a Lie object as its pair
    algebra over U(g): the dimensions of both parts, a closed completion,
    and a connecting map that is a bimodule map."""
    L = leibniz_to_lm(a1)
    A = pair_algebra(L, u_lie(L.lie, 2))
    assert TensorBimodule(A, L.bottom_dim).dim == 2 and A.dim == 2 + 3
    assert A.ideal.stabilized
    assert not connect_bimodule_violations(A, L.alpha, 2)
    L = leibniz_to_lm(l2)
    B = pair_algebra(L, u_lie(L.lie, 3))
    assert not connect_bimodule_violations(B, L.alpha, 3)
    # top algebra is U(Liez L2), a polynomial ring in one variable
    assert B.dim - TensorBimodule(B, L.bottom_dim).dim == 4


def test_lm_envelope_zero_xmod(a1):
    Y = lm_xmod_envelope(xmod_to_cat1(zero_xmod(a1)), 3)
    assert Y.report_degree == 1
    # nothing to quotient: both kernels of the s-maps vanish
    assert len(b_ker_filtration(Y, 1)) == 0
    assert not check_lm_assoc_xmod(Y)


def test_lm_envelope_identity_a1(a1):
    Y = lm_xmod_envelope(xmod_to_cat1(identity_xmod(a1)), 3)
    assert not check_lm_assoc_xmod(Y)
    assert Y.certificates["u_semidirect_stabilized"]
    assert not check_associated_xmod(AssociatedXMod(Y))


def test_theta_zero_a1(a1):
    rec = theta_check(zero_xmod(a1), 4)
    assert rec["verdict"] == "pass"
    assert rec["lhs_dim_upto_d"] == 5
    assert rec["bottom_dim_upto_d"] == 2
    assert rec["top_dim_upto_d"] == 3


def test_theta_identity_a1(a1):
    rec = theta_check(identity_xmod(a1), 3)
    assert rec["verdict"] == "pass"
    assert rec["relations_killed"] and rec["ideal_mapped"]
    assert rec["quotient_bijective"] and rec["cat_maps_intertwined"]


def test_relations_lie_in_ideal_rows(xmods):
    """theta_check checks only the ideal span: every defining relation of
    UL(q ⋊ p) and UL(p) reduces to zero by it at D3."""
    from leibnizx.envelope import ul_relations
    from leibnizx.leibniz import semidirect
    from leibnizx.xul import xul
    for name, x in xmods.items():
        tx = xul(x, 3)
        for ulg, p in ((tx.ul_sd, semidirect(x.action)), (tx.ul_p, x.p)):
            for r in ul_relations(p):
                assert ulg.ideal.reduce_vec(r) == {}, name


def _filtration_prefix(dim, fdeg, k):
    """F_k of a space whose coordinates have the degrees fdeg(i)."""
    return Subspace.from_vectors(dim, [{i: 1} for i in range(dim)
                                       if fdeg(i) <= k])


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_bottom_filtration_matches_intersections(xmods, degree):
    """For every corpus crossed module, the degree-<=k rows of the bottom
    filtration basis span Ker us1 ∩ F_k for every k, and each row has the
    degree it is listed with."""
    for name, x in xmods.items():
        Y = lm_xmod_envelope(xmod_to_cat1(x), degree)
        rows = b_filtration(Y)
        fdeg = lambda i: len(Y.bottom.words[i])
        kernel = Y.us1.kernel()
        assert len(rows) == kernel.dim, name
        degrees = [deg for deg, _ in rows]
        assert degrees == sorted(degrees), name
        assert all(max(map(fdeg, v)) == deg for deg, v in rows), name
        for k in range(degree + 1):
            want = kernel.intersect(
                _filtration_prefix(Y.bottom.dim, fdeg, k))
            got = Subspace.from_vectors(
                Y.bottom.dim, [v for deg, v in rows if deg <= k])
            assert got == want, (name, k)


def _tensor_map(bim, Y, top_hom, f1):
    """Oracle: U(f2) ⊗ f1 on every coordinate of bim, into the target's
    bottom U(g) ⊗ M, for the algebra map f2 given on class coordinates by
    top_hom and a linear map f1."""
    tbim = TensorRef(Y.ug, Y.dst.bottom_dim, Y.dst.right_mats)
    cols = []
    for flat in range(bim.dim):
        wi, k = divmod(flat, bim.module_dim)
        img = Y.ug.from_coords(
            top_hom.apply({bim.U.class_index[bim.words[wi]]: 1}))
        a = tbim.tensor(img, f1.col(k))
        cols.append(Y.target_bottom.to_coords(tbim.to_pair(a, {})))
    return LinearMap.from_cols(Y.target_bottom.dim, cols)


def _bottom_class(Y, bim, bvec):
    """The class in Y's bottom of a vector of U(h ⋊ g) ⊗ V in bim's
    coordinates: sq's reduction of its words x·v_k."""
    out = {}
    for flat, c in bvec.items():
        vec_add_scaled(out, Y.sq.reduce_word(bim.pair_word(flat)), c)
    return Y.bottom.to_coords(out)


def _intersection_filtration(bim, sub):
    """Oracle: a filtration basis of a subspace of U ⊗ V from one Zassenhaus
    intersection sub ∩ F_k per degree k."""
    ech = Echelon()
    out = []
    for k in range(1, bim.U.degree + 1):
        f_k = _filtration_prefix(bim.dim, bim.fdeg_index, k)
        for row in sub.intersect(f_k).rows:
            if ech.insert(dict(row)) is not None:
                out.append((k, dict(row)))
    return out


def _all_pairs_y_ideal(bim, top_s_ker, top_t_ker, bot_s, bot_t, degree):
    """Oracle: Y' seeded with every bottom filtration row times every top
    kernel filtration row, at every degree, then closed under
    multiplication by generators on both sides."""
    ech = Echelon()
    work = []

    def insert(vec):
        piv = ech.insert(vec)
        if piv is not None:
            work.append(ech.rows[piv])

    top_s, top_t = (filtration_basis(bim.U, K) for K in (top_s_ker, top_t_ker))
    for bot, tp in ((bot_s, top_t), (bot_t, top_s)):
        for db, vb in bot:
            for dt, vt in tp:
                if db + dt <= degree:
                    insert(bim.right_mult(vb, vt, degree))
                    insert(bim.left_mult(vt, vb, degree))
    while work:
        vec = work.pop()
        if bim.fdeg(vec) + 1 > degree:
            continue
        for a in range(len(bim.right_bracket)):
            insert(bim.left_mult({(a,): Q(1)}, vec, degree))
            insert(bim.right_mult_gen(vec, a, degree))
    return Subspace.from_vectors(bim.dim, list(ech.rows.values()))


def _assert_y_ideal_matches_all_pairs(x, degree, monkeypatch):
    """The bottom of the square-zero algebra against the all-pairs oracle
    in U ⊗ V (U = U(h ⋊ g), before X'): every oracle row reduces to zero,
    and at each degree the bottom has dim U ⊗ V minus the oracle's
    dimension.  The top maps s2, t2 and their kernels are built on the
    whole of U (:func:`conftest.full_kernels`); the bottom kernels Ks1 and
    Kt1 come from the kernels of the oracle maps U(s2) ⊗ s1 and
    U(t2) ⊗ t1 by elimination, and the envelope's us1 and ut1 agree with
    those maps through the quotient.  Returns the envelope."""
    Y, (env, target, s_imgs, t_imgs, _) = record_kernel_quotient(
        lm, lambda: lm_xmod_envelope(xmod_to_cat1(x), degree),
        monkeypatch)
    (s2, s2_ker), (t2, t2_ker) = full_kernels(env, target, s_imgs, t_imgs)
    bim = TensorRef(Y.usd, Y.carrier.bottom_dim, Y.carrier.right_mats)
    bottoms = []
    c = xmod_to_cat1(x)
    for top_hom, f1, induced in ((s2, c.s, Y.us1), (t2, c.t, Y.ut1)):
        f = _tensor_map(bim, Y, top_hom, f1)
        for flat in range(bim.dim):
            assert induced.apply(_bottom_class(Y, bim, {flat: 1})) == \
                f.apply({flat: 1})
        bottoms.append(_intersection_filtration(bim, f.kernel()))
    want = _all_pairs_y_ideal(bim, s2_ker, t2_ker, *bottoms, degree)
    for row in want.rows:
        assert _bottom_class(Y, bim, row) == {}
    want_rows = _intersection_filtration(bim, want)
    assert len(want_rows) == want.dim
    for k in range(degree + 1):
        assert Y.bottom.dim_upto(k) == \
            sum(1 for f in bim.fdegs if f <= k) - \
            sum(1 for deg, _ in want_rows if deg <= k), k
    return Y


# slack is the retired --slack value each case once ran at; the ids keep
# it, and it changes nothing now, so the slack-1 cases repeat slack-0 ones
Y_CASES = [(name, degree, slack)
           for slack, top in ((0, 7), (1, 5))
           for name in ("xmod-zero-a1.json", "xmod-id-a1.json",
                        "xmod-id-l2.json", "xmod-id-r2.json",
                        "xmod-incl-l2.json")
           for degree in range(2, (5 if name == "xmod-id-r2.json" else top)
                               + 1)]


@pytest.mark.parametrize("name,degree,slack", Y_CASES)
def test_y_ideal_matches_all_pairs_seed(xmods, name, degree, slack,
                                        monkeypatch):
    """Y' completed from its seeds, the products of the bottom kernels'
    generators with the degree-one rows of the top kernels, is the ideal
    that every product of kernel filtration rows generates."""
    _assert_y_ideal_matches_all_pairs(xmods[name], degree, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2])
def test_y_ideal_matches_all_pairs_seed_rebased(seed, tmp_path, monkeypatch):
    """The same on a seeded basis change of xmod-id-l2, whose kernel rows
    carry dense rational coefficients."""
    paths = rebase.write_rebased(str(CORPUS), str(tmp_path), seed)
    x = io.load_path(paths["xmod-id-l2"])
    _assert_y_ideal_matches_all_pairs(x, 5, monkeypatch)


@pytest.mark.parametrize("kind", ["identity", "inclusion"])
@pytest.mark.parametrize("a", HSD_PARAMS)
def test_lm_beyond_the_corpus(a, kind, monkeypatch):
    """The envelope of the hemisemidirect crossed modules, which are not
    isomorphic to a corpus one: its bottom is the all-pairs oracle's, both
    presentations resolve, and every crossed-module identity holds."""
    x = hemisemidirect_xmod(a, kind)
    Y = _assert_y_ideal_matches_all_pairs(x, 3, monkeypatch)
    assert Y.certificates["kernel_product_stabilized"]
    assert check_lm_assoc_xmod(Y) == [] == _full_loop_check(Y)


def test_open_bottom_completion_is_inconclusive(monkeypatch):
    """A bottom completion that does not close leaves
    kernel_product_stabilized False, and lm reports inconclusive, not
    pass."""
    def open_square_zero(gens, relations, degree):
        quot = presented(gens, relations, degree)
        if gens[0] == "v0":  # the square-zero algebra's first letter
            quot.ideal.stabilized = False
        return quot

    monkeypatch.setattr(lm, "presented", open_square_zero)
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["lm", str(CORPUS / "xmod-id-l2.json"), "--degree", "5",
                  "--format", "json"])
    doc = json.loads(out.getvalue())
    assert doc["certificates"] == {"kernel_product_stabilized": False,
                                   "u_g_stabilized": True,
                                   "u_semidirect_stabilized": True}
    assert doc["verdict"] == "inconclusive"


@pytest.mark.parametrize("name,D", [
    (name, D) for name in ("xmod-zero-a1.json", "xmod-id-a1.json",
                           "xmod-id-l2.json", "xmod-id-r2.json",
                           "xmod-incl-l2.json")
    for D in (3, 4, 5) if (name, D) != ("xmod-id-r2.json", 5)])
def test_top_x_from_generators_matches_all_pairs(xmods, name, D,
                                                 monkeypatch):
    """The top row's X' built from the degree-one generators a·w·b gives
    the quotient that the closure of every product of kernel filtration
    rows gives."""
    x = xmods[name]
    assert_x_matches_all_pairs(
        lm, lambda: lm_xmod_envelope(xmod_to_cat1(x), D), monkeypatch)


@pytest.mark.parametrize("seed", [1, 2])
def test_top_x_from_generators_matches_all_pairs_rebased(seed, tmp_path,
                                                         monkeypatch):
    paths = rebase.write_rebased(str(CORPUS), str(tmp_path), seed)
    x = io.load_path(paths["xmod-id-l2"])
    assert_x_matches_all_pairs(
        lm, lambda: lm_xmod_envelope(xmod_to_cat1(x), 5), monkeypatch)




def _full_loop_check(Y):
    """Oracle for ``check_lm_assoc_xmod``: every identity on filtration
    bases with degree sums at most the report degree, U(g) running over
    all its class words, the bridge identities over every basis vector of
    U(g) ⊗ M, and the three triple identities that restate associativity
    of the square-zero algebra.  The top row's cat¹ axioms are checked as
    ``test_xul.py``'s oracle checks the enveloping crossed module's: both
    us2 and ut2 split emb, and Ker us2 and Ker ut2 annihilate each
    other."""
    d = Y.report_degree
    Ug, top, tb = Y.ug, Y.top, Y.target_bottom
    mv = Y.dst.bottom_dim
    bad = [("target",) + v
           for v in connect_bimodule_violations(Y.target, Y.dst.alpha, d)]

    r_words = [(len(w), {w: 1}) for w in Ug.class_words if len(w) <= d]
    s_rows = s_ker_filtration(Y, d)
    b_rows = b_ker_filtration(Y, d)
    a_rows = [(len(w), {i: 1}) for i, w in enumerate(tb.words)
              if len(w) <= d]
    s_cls = [(ds, top.from_coords(v), Ug.from_coords(Y.ut2.apply(v)))
             for ds, v in s_rows]

    for dr, r in r_words:
        rc = Ug.to_coords(r)
        if Y.us2.apply(Y.emb.apply(rc)) != rc:
            bad.append(("s2_section", dr))
        if Y.ut2.apply(Y.emb.apply(rc)) != rc:
            bad.append(("t2_section", dr))
    for da, a in a_rows:
        if Y.us1.apply(Y.section(a)) != a:
            bad.append(("s1_section", da))

    t_rows = filtration_basis(top, Y.ut2.kernel(), d)
    for ds, s, _ in s_cls:
        for dt, t in t_rows:
            if ds + dt <= d and (top.mult(s, t, d) or top.mult(t, s, d)):
                bad.append(("CAs2_top", (ds, dt)))

    for ds, s, ts in s_cls:
        for ds2, s2, ts2 in s_cls:
            if ds + ds2 > d:
                continue
            prod = top.mult(s, s2, d)
            if prod != top.mult(Y.r_on_top(ts), s2, d):
                bad.append(("peiffer_top_left", (ds, ds2)))
            if prod != top.mult(s, Y.r_on_top(ts2), d):
                bad.append(("peiffer_top_right", (ds, ds2)))
        for dr, r in r_words:
            if dr + ds > d:
                continue
            rt = Y.r_on_top(r)
            if Ug.from_coords(Y.ut2.apply(top.to_coords(
                    top.mult(rt, s, d)))) != Ug.mult(r, ts, d):
                bad.append(("t2_equivariance_left", (dr, ds)))
            if Ug.from_coords(Y.ut2.apply(top.to_coords(
                    top.mult(s, rt, d)))) != Ug.mult(ts, r, d):
                bad.append(("t2_equivariance_right", (dr, ds)))

    for db, b in b_rows:
        tbv = Y.ut1.apply(b)
        for dr, r in r_words:
            if dr + db > d:
                continue
            rt = Y.r_on_top(r)
            if Y.ut1.apply(Y.bottom.left_mult(rt, b, d)) != \
                    tb.left_mult(r, tbv, d):
                bad.append(("t1_equivariance_left", (dr, db)))
            if Y.ut1.apply(Y.bottom.right_mult(b, rt, d)) != \
                    tb.right_mult(tbv, r, d):
                bad.append(("t1_equivariance_right", (dr, db)))

    for da, a in a_rows:
        for ds, s, ts in s_cls:
            if da + ds > d:
                continue
            x1 = Y.xi1(a, s, d)
            x2 = Y.xi2(s, a, d)
            if Y.us1.apply(x1) or Y.us1.apply(x2):
                bad.append(("xi_not_in_kernel", (da, ds)))
            if Y.ut1.apply(x1) != tb.right_mult(a, ts, d):
                bad.append(("xi1_boundary", (da, ds)))
            if Y.ut1.apply(x2) != tb.left_mult(ts, a, d):
                bad.append(("xi2_boundary", (da, ds)))
            ca = shift_letters(pair_connect(
                Y.target, Y.dst.alpha, tb.from_coords(a)), -mv)
            if Y.connect.apply(x1) != \
                    top.to_coords(top.mult(Y.r_on_top(ca), s, d)):
                bad.append(("xi1_connect", (da, ds)))
            if Y.connect.apply(x2) != \
                    top.to_coords(top.mult(s, Y.r_on_top(ca), d)):
                bad.append(("xi2_connect", (da, ds)))
            for ds2, s2, _ in s_cls:
                if da + ds + ds2 > d:
                    continue
                if Y.bottom.right_mult(x1, s2, d) != \
                        Y.xi1(a, top.mult(s, s2, d), d):
                    bad.append(("xi1_balanced", (da, ds, ds2)))
                if Y.bottom.left_mult(s, Y.xi1(a, s2, d), d) != \
                        Y.bottom.right_mult(x2, s2, d):
                    bad.append(("xi_exchange", (da, ds, ds2)))
                if Y.bottom.left_mult(s, Y.xi2(s2, a, d), d) != \
                        Y.xi2(top.mult(s, s2, d), a, d):
                    bad.append(("xi2_balanced", (da, ds, ds2)))

    for db, b in b_rows:
        tb = Y.ut1.apply(b)
        for ds, s, _ in s_cls:
            if db + ds > d:
                continue
            if Y.xi1(tb, s, d) != Y.bottom.right_mult(b, s, d):
                bad.append(("peiffer_xi1", (db, ds)))
            if Y.xi2(s, tb, d) != Y.bottom.left_mult(s, b, d):
                bad.append(("peiffer_xi2", (db, ds)))
    return bad


def _scaled(vec, c):
    return {i: c * x for i, x in vec.items()}


class _BentXi1(lm.LMAssocXMod):
    def xi1(self, avec, top_cls, bound):
        return _scaled(super().xi1(avec, top_cls, bound), 2)


class _BentXi2(lm.LMAssocXMod):
    def xi2(self, top_cls, avec, bound):
        return _scaled(super().xi2(top_cls, avec, bound), -1)


def _off_f1_bimodule(Y):
    """Y with ut1 doubled off S, the span at fdeg <= d of the x·n and n·x
    for n in Ker us1 ∩ F₁ and of the bridge values ξ₁(1 ⊗ m, a) and
    ξ₂(a, 1 ⊗ m) for a in k_s: ut1 + ut1∘π for π the projection onto
    S's complement coordinates along S.  Every identity the checker reads
    on those generators still holds, so a checker that took Ker us1 ∩ F₁
    for the b-generators would pass it.  Where Ker us1 ∩ F_d leaves S
    (hsd0-inclusion at D5), ut1 is no longer a bimodule map there, and the
    full loops flag it."""
    d, top, bottom = Y.report_degree, Y.top, Y.bottom
    ns = [v for _, v in b_ker_filtration(Y, 1)]
    us = [{u: 1} for u in top.class_words if len(u) < d]
    span = [Y.bottom.left_mult(u, n, d) for n in ns for u in us] + \
        [Y.bottom.right_mult(n, u, d) for n in ns for u in us]
    if d >= 2:
        ms = [{Y.target_bottom.index[(k,)]: 1}
              for k in range(Y.dst.bottom_dim)]
        k_s = [top.from_coords(v) for v in Y.kernel_generators()[0]]
        span += [Y.xi1(m, a, d) for m in ms for a in k_s] + \
            [Y.xi2(a, m, d) for m in ms for a in k_s]
    comp, proj = Subspace.from_vectors(bottom.dim, span).quotient_basis()
    lift = LinearMap.from_cols(bottom.dim, [{c: 1} for c in comp])
    return dataclasses.replace(
        Y, ut1=Y.ut1.add(Y.ut1.compose(lift.compose(proj))))


def _perturbations(Y):
    """Envelopes that may fail the crossed-module identities: one of the
    maps us1, ut1, us2, ut2, emb and connect with every other column
    doubled (the same supports, so the same degrees; the odd columns under
    its name, the even ones under its name with a prime), ξ₁ doubled, ξ₂
    negated, and ut1 doubled off the sub-bimodule that Ker us1 ∩ F₁
    generates (:func:`_off_f1_bimodule`)."""
    fields = {f.name: getattr(Y, f.name) for f in dataclasses.fields(Y)}
    out = {"xi1": _BentXi1(**fields), "xi2": _BentXi2(**fields),
           "ut1_off_f1": _off_f1_bimodule(Y)}
    for name in ("us1", "ut1", "us2", "ut2", "emb", "connect"):
        f = getattr(Y, name)
        for even, key in ((0, name), (1, name + "'")):
            cols = [{i: (1 + (j + even) % 2) * c for i, c in f.col(j).items()}
                    for j in range(f.cols)]
            out[key] = dataclasses.replace(
                Y, **{name: LinearMap.from_cols(f.rows, cols)})
    return out


@pytest.mark.parametrize("name,degree", [("xmod-id-l2.json", 6),
                                         ("xmod-id-r2.json", 5),
                                         ("xmod-incl-l2.json", 5)])
def test_checker_flags_what_the_full_loops_flag(xmods, name, degree):
    """The checker on generators against the full loops: on a passing
    envelope both report nothing, each perturbed envelope is flagged by
    the checker exactly when the full loops flag it, and the ut1, ξ₁ and
    ξ₂ perturbations are flagged.  A failing envelope's list may differ,
    as the checker names generators where the full loops name words.
    xmod-incl-l2 is the corpus input whose Ker us1 ∩ F₂ leaves the
    sub-bimodule that Ker us1 ∩ F₁ generates; there the ut1 perturbation
    changes no identity, and the full loops do not flag it either."""
    Y = lm_xmod_envelope(xmod_to_cat1(xmods[name]), degree)
    assert check_lm_assoc_xmod(Y) == [] == _full_loop_check(Y)
    bent = _perturbations(Y)
    for what, Z in bent.items():
        assert bool(check_lm_assoc_xmod(Z)) == bool(_full_loop_check(Z)), what
    flagged = ("xi1", "xi2") if name == "xmod-incl-l2.json" else \
        ("ut1", "xi1", "xi2")
    for what in flagged:
        assert check_lm_assoc_xmod(bent[what]), what


BEYOND_CHECKER_CASES = [("hsd", a, kind) for a in HSD_PARAMS
                        for kind in ("identity", "inclusion")] + \
    [("rebased", seed, name) for seed in (1, 2) for name in REBASED_XMODS] + \
    [("sl2ad", "", kind) for kind in ("identity", "inclusion")]


@pytest.mark.parametrize("degree", [3, 4, 5])
@pytest.mark.parametrize("case", BEYOND_CHECKER_CASES,
                         ids=lambda c: "%s%s-%s" % c)
def test_checker_matches_the_full_loops_beyond_the_corpus(rebased_xmods,
                                                          case, degree):
    """The checker on generators against the full loops on the
    hemisemidirect crossed modules (sl2 ⋉ ad among them) and on seeded
    basis changes of the corpus, whose kernel rows carry dense rational
    coefficients: both report nothing, and each perturbed envelope is
    flagged by one exactly when it is flagged by the other."""
    kind, a, b = case
    if kind == "rebased":
        x = rebased_xmods[a, b]
    else:
        x = hemisemidirect_xmod(a, b) if kind == "hsd" else sl2_ad_xmod(b)
    Y = lm_xmod_envelope(xmod_to_cat1(x), degree)
    assert check_lm_assoc_xmod(Y) == [] == _full_loop_check(Y)
    for what, Z in _perturbations(Y).items():
        assert bool(check_lm_assoc_xmod(Z)) == bool(_full_loop_check(Z)), what


@pytest.mark.parametrize("name,degree", [
    (name, degree) for name in ("xmod-zero-a1.json", "xmod-id-a1.json",
                                "xmod-id-l2.json", "xmod-incl-l2.json",
                                "xmod-id-r2.json", "hsd2-identity",
                                "hsd-1-inclusion")
    for degree in ((3, 4) if name == "xmod-id-r2.json" else (3, 4, 5, 6))])
def test_kernels_are_generated_in_low_degree(xmods, name, degree):
    """The spanning statements of check_lm_assoc_xmod's docstring, at
    every k <= D: Ker us2 ∩ F_k is spanned by the a·u and by the u·a for a
    in Ker us2 ∩ F_1 and |u| <= k - 1, and Ker us1 ∩ F_k by the x·b and by
    the b·x for b in Ker us1 ∩ F_2 and |x| + fdeg b <= k, against the
    filtration bases, with the generators the checker takes
    (LMAssocXMod.kernel_generators); and b_ker_dim_upto counts Ker us1 ∩
    F_k."""
    if name.startswith("hsd"):
        a, kind = name[3:].rsplit("-", 1)
        x = hemisemidirect_xmod(int(a), kind)
    else:
        x = xmods[name]
    Y = lm_xmod_envelope(xmod_to_cat1(x), degree)
    top, bottom = Y.top, Y.bottom
    s_gens, b_gens = Y.kernel_generators()
    k_s = [top.from_coords(v) for v in s_gens]
    k_2 = [(max(len(bottom.words[i]) for i in v), v) for v in b_gens]
    words = [(len(u), {u: 1}) for u in top.class_words]
    for k in range(degree + 1):
        s_want = Subspace.from_vectors(
            top.dim, [v for _, v in s_ker_filtration(Y, k)])
        for prods in ((top.mult(a, u) for a in k_s
                       for du, u in words if du <= k - 1),
                      (top.mult(u, a) for a in k_s
                       for du, u in words if du <= k - 1)):
            assert Subspace.from_vectors(
                top.dim, map(top.to_coords, prods)) == s_want, k
        b_want = Subspace.from_vectors(
            bottom.dim, [v for _, v in b_ker_filtration(Y, k)])
        assert Y.b_ker_dim_upto(k) == b_want.dim, k
        for prods in ((Y.bottom.left_mult(u, b, degree) for db, b in k_2
                       for du, u in words if du + db <= k),
                      (Y.bottom.right_mult(b, u, degree) for db, b in k_2
                       for du, u in words if du + db <= k)):
            assert Subspace.from_vectors(bottom.dim, prods) == b_want, k


@pytest.mark.parametrize("kind", ["identity", "inclusion"])
@pytest.mark.parametrize("a", HSD_PARAMS)
def test_theta_beyond_the_corpus(a, kind):
    """verify theta on the hemisemidirect crossed modules: every flag of
    the comparison holds and every certificate is true."""
    rec = theta_check(hemisemidirect_xmod(a, kind), 3)
    assert all(rec[k] for k in (
        "relations_killed", "pre_quotient_dims_equal",
        "pre_quotient_bijective", "ideal_mapped", "quotient_dims_equal",
        "quotient_bijective", "cat_maps_intertwined"))
    assert all(rec["certificates"].values())
    assert rec["verdict"] == "pass"


def _rebased_hemisemidirect_xmod(a, kind, seed):
    """hemisemidirect_xmod(a, kind), with p in the seeded integer basis
    that perfbench/rebase.py draws (and checks with its own Fraction
    arithmetic) unless seed is None; the ideal span(m0, m1) of the
    inclusion is carried into the new basis."""
    x = hemisemidirect_xmod(a, kind)
    if seed is None:
        return x
    basis, c = rebase.read_bracket(io.dump_data(x.p))
    m, m_inv = rebase.draw_basis_change(random.Random(seed), len(basis))
    c = rebase.change_tensor(c, m, m, m_inv)
    rebase.check_leibniz(c)
    p = io.load_data(rebase.algebra_doc(x.p.name + "'", basis, c))
    if kind == "identity":
        return identity_xmod(p)
    return ideal_inclusion_xmod(p, Subspace.from_vectors(p.dim, [
        {i: Q(m_inv[i][k]) for i in range(p.dim) if m_inv[i][k]}
        for k in (2, 3)]))


@settings(deadline=None, max_examples=12)
@given(st.integers(-2, 3), st.sampled_from(["identity", "inclusion"]),
       st.one_of(st.none(), st.integers(0, 2 ** 16)), st.sampled_from([3, 4]))
def test_every_presentation_resolves_in_one_pass(a, kind, seed, D):
    """Every certificate of ul, xul, lm_xmod_envelope and theta_check holds
    at D3–4 on the hemisemidirect crossed modules, in their own basis and
    in seeded basis changes: one diamond-lemma pass over the interreduced
    relations certifies each presentation, the proven kinds (U(g), UL(p),
    the pair algebras) and the checked ones (the kernel-product quotients
    and the square-zero algebra) alike.  theta_check's certificates are
    those of the xul and the lm_xmod_envelope it builds, UL(p) among
    them (``ul_ul_p_stabilized``), with its pair algebra P joined in."""
    x = _rebased_hemisemidirect_xmod(a, kind, seed)
    rec = theta_check(x, D)
    assert set(rec["certificates"]) == {
        "u_semidirect_stabilized", "u_g_stabilized",
        "kernel_product_stabilized", "ul_ul_semidirect_stabilized",
        "ul_ul_p_stabilized", "ul_kernel_product_stabilized"}
    assert all(rec["certificates"].values())
    assert rec["verdict"] == "pass"


CORPUS_XMODS = ("xmod-zero-a1.json", "xmod-id-a1.json", "xmod-id-l2.json",
                "xmod-id-r2.json", "xmod-incl-l2.json")
BEYOND = [(a, kind) for a in HSD_PARAMS for kind in ("identity", "inclusion")]


@pytest.mark.parametrize("name", CORPUS_XMODS)
def test_associated_xmod_identities(xmods, name):
    """check_associated_xmod, through the shared identity loop, reports
    nothing on the corpus at D4 and flags the embedding with every other
    column doubled (either parity) wherever the kernels are not zero."""
    Y = lm_xmod_envelope(xmod_to_cat1(xmods[name]), 4)
    assert check_associated_xmod(AssociatedXMod(Y)) == []
    bent = _perturbations(Y)
    for what in ("emb", "emb'") if name != "xmod-zero-a1.json" else ():
        assert check_associated_xmod(AssociatedXMod(bent[what])), what


@pytest.mark.parametrize("D", [4, 5])
@pytest.mark.parametrize("name", CORPUS_XMODS)
def test_ut2_is_multiplicative(xmods, name, D):
    """Why check_lm_assoc_xmod's t2_hom cannot fail: ut2, an induced_map,
    is multiplicative on every pair of top class words with degree sum at
    most the report degree."""
    Y = lm_xmod_envelope(xmod_to_cat1(xmods[name]), D)
    d, top = Y.report_degree, Y.top

    def ut2(v):
        return Y.ug.from_coords(Y.ut2.apply(top.to_coords(v)))

    words = [{w: 1} for w in top.class_words if len(w) <= d]
    pairs = [(u, v) for u in words for v in words
             if top.fdeg(u) + top.fdeg(v) <= d]
    assert len(pairs) > len(words)
    for u, v in pairs:
        assert ut2(top.mult(u, v, d)) == Y.ug.mult(ut2(u), ut2(v), d)


ORACLE_CASES = [(name, 4) for name in CORPUS_XMODS] + \
    [(case, 3) for case in BEYOND]


def _case_id(v):
    return "hsd%d-%s" % v if isinstance(v, tuple) else str(v)


def _xi_two_step(Y, avec, s, bound):
    """Oracle for ξ₁ and ξ₂: ξ₁(x ⊗ m, s) = emb(x)·((1 ⊗ (0,m))·s) and
    ξ₂(s, x ⊗ m) = (s·emb(x))·(0,m), each term of a target-bottom vector
    two products in sq, with the target's letters of U(g) in the p-block
    of L and m in the p-block of V."""
    n_dim = Y.carrier.bottom_dim - Y.dst.bottom_dim
    off = n_dim + Y.carrier.lie.dim - Y.dst.lie.dim
    sv = _shift_vec(s, Y.carrier.bottom_dim)
    x1, x2 = {}, {}
    for w, c in Y.target_bottom.from_coords(avec).items():
        x, m = tuple(g + off for g in w[:-1]), (n_dim + w[-1],)
        vec_add_scaled(x1, Y.sq.mult(
            {x: c}, Y.sq.mult({m: 1}, sv, bound - len(x)), bound), 1)
        vec_add_scaled(x2, Y.sq.mult(
            Y.sq.mult(sv, {x: c}, bound - 1), {m: 1}, bound), 1)
    return Y.bottom.to_coords(x1), Y.bottom.to_coords(x2)


XI_CASES = list(CORPUS_XMODS) + BEYOND + ["sl2ad-identity",
                                           "sl2ad-inclusion"]


@pytest.mark.parametrize("D", [3, 4, 5])
@pytest.mark.parametrize("case", XI_CASES, ids=_case_id)
def test_xi_matches_two_step_products(xmods, case, D):
    """ξ₁(y, s) = σ(y)·s and ξ₂(s, y) = s·σ(y), products with the
    s-section in sq, against the two-step formulas (:func:`_xi_two_step`)
    on every target-bottom row y and every filtration row s of Ker us2
    (k_s and the rows above it) with degree sum at most the report
    degree."""
    Y = lm_xmod_envelope(xmod_to_cat1(case_xmod(xmods, case)), D)
    d = Y.report_degree
    s_rows = [(ds, Y.top.from_coords(v)) for ds, v in s_ker_filtration(Y, d)]
    checked = 0
    for i, w in enumerate(Y.target_bottom.words):
        for ds, s in s_rows:
            if len(w) + ds <= d:
                a = {i: 1}
                assert (Y.xi1(a, s, d), Y.xi2(s, a, d)) == \
                    _xi_two_step(Y, a, s, d), (w, s)
                checked += 1
    assert checked or not s_rows or d < 2


def _as_pair(ref, w):
    """A class word of a pair algebra as a pair (reference coordinates,
    class vector of U)."""
    nv = ref.module_dim
    if w and w[-1] < nv:
        return {ref.index(tuple(g - nv for g in w[:-1]), w[-1]): 1}, {}
    return {}, {tuple(g - nv for g in w): 1}


@pytest.mark.parametrize("case,D", ORACLE_CASES, ids=_case_id)
def test_pair_algebra_matches_pair_product(xmods, case, D):
    """The pair algebra of the target, over U(g), and of theta's source,
    over U(h ⋊ g): its rows resolve, its dimension at every degree is
    U's plus that of U ⊗ V, and its product of any two class words with
    fdeg sum <= D is the pair product (a, r)(a', r') = (alpha(a)a' + ar' +
    ra', rr') of the test-side U ⊗ V."""
    Y = lm_xmod_envelope(xmod_to_cat1(case_xmod(xmods, case)), D)
    for L, U, P in ((Y.dst, Y.ug, Y.target),
                    (Y.carrier, Y.usd, pair_algebra(Y.carrier, Y.usd))):
        assert P.ideal.stabilized
        ref = TensorRef(U, L.bottom_dim, L.right_mats)
        for k in range(D + 1):
            assert P.dim_upto(k) == U.dim_upto(k) + \
                sum(1 for f in ref.fdegs if f <= k)
        for w1 in P.class_words:
            for w2 in P.class_words:
                if len(w1) + len(w2) <= D:
                    want = pair_product(ref, L.alpha, _as_pair(ref, w1),
                                        _as_pair(ref, w2), D)
                    assert P.mult({w1: 1}, {w2: 1}) == ref.to_pair(*want)


def _theta_by_words(ref, alpha, bound):
    """Oracle: theta word by word into the test-side pairs (U ⊗ V) ⊕ U:
    the k-th l-letter goes to (-1 ⊗ v_k, 0), the k-th r-letter to (0,
    alpha(v_k)), and a word to the pair product of its letters' images."""
    U, nv = ref.U, ref.module_dim
    images = [(ref.tensor(U.unit(), {k: -1}), {}) for k in range(nv)]
    images += [({}, U.reduce({(j,): c for j, c in alpha.col(k).items()}))
               for k in range(nv)]
    memo = {(): ({}, U.unit())}

    def value(w):
        if w not in memo:
            memo[w] = pair_product(ref, alpha, value(w[:-1]),
                                   images[w[-1]], bound)
        return memo[w]

    def evaluate(vec):
        a, r = {}, {}
        for w, c in vec.items():
            va, vr = value(w)
            vec_add_scaled(a, va, c)
            vec_add_scaled(r, vr, c)
        return a, r

    return evaluate


def _kills_span(evaluate, quot):
    """Oracle: a word-wise map kills the ideal's span V_D when it agrees on
    every word of length <= D with the word's class, as the rows w -
    reduce_word(w) are a basis of V_D."""
    return all(evaluate({w: 1}) == evaluate(quot.reduce_word(w))
               for w in all_words(len(quot.gens), quot.degree)
               if w not in quot.class_index)


def _record_induced_maps(monkeypatch):
    """Record every lm.induced_map call as (src, dst, images, result)."""
    calls = []
    induced = lm.induced_map

    def recording(src, dst, images):
        out = induced(src, dst, images)
        calls.append((src, dst, images, out))
        return out

    monkeypatch.setattr(lm, "induced_map", recording)
    return calls


@pytest.mark.parametrize("case,D", ORACLE_CASES, ids=_case_id)
def test_theta_matches_word_enumeration(xmods, case, D, monkeypatch):
    """theta_check's induced maps against theta evaluated on every word of
    length <= D, into the test-side pairs: the enumeration finds the ideal
    killed, as the verdict says, and every class word's value is the
    induced map's column, on UL(q ⋊ p) and on UL(p)."""
    x = case_xmod(xmods, case)
    calls = _record_induced_maps(monkeypatch)
    rec = theta_check(x, D)
    assert rec["relations_killed"] and rec["verdict"] == "pass"
    Y = lm_xmod_envelope(xmod_to_cat1(x), D)
    (usd1, P, _, theta), (ul_p, P_g, _, theta_p) = calls
    for quot, L, U, alg, f in ((usd1, Y.carrier, Y.usd, P, theta),
                               (ul_p, Y.dst, Y.ug, P_g, theta_p)):
        ref = TensorRef(U, L.bottom_dim, L.right_mats)
        evaluate = _theta_by_words(ref, L.alpha, D)
        assert _kills_span(evaluate, quot)
        for j, w in enumerate(quot.class_words):
            assert alg.to_coords(ref.to_pair(*evaluate({w: 1}))) == f.col(j)


def test_induced_map_refuses_a_flipped_image(xmods, monkeypatch):
    """theta with the sign of one l-letter's image flipped is no algebra
    map, on UL(q ⋊ p) nor on UL(p): induced_map refuses it."""
    calls = _record_induced_maps(monkeypatch)
    theta_check(xmods["xmod-id-r2.json"], 3)
    assert len(calls) == 2
    for src, dst, images, _ in calls:
        bent = [{w: -c for w, c in images[0].items()}] + images[1:]
        with pytest.raises(HomomorphismError):
            induced_map(src, dst, bent)


def _projection(src, dst):
    """Each class word of src to its class in dst, which has src's
    letters, as in ``theta_check``."""
    return LinearMap.from_cols(dst.dim, [
        dst.to_coords(dst.reduce_word(w)) for w in src.class_words])


def _ideal_mapped_by_kernel(x, D, theta):
    """Oracle for theta_check's ideal_mapped: θ̄, θ followed by sq's
    class, applied to every row of the kernel of the projection of
    UL(q ⋊ p) onto U/X, which is the quotient ideal X up to D."""
    tx = xul.xul(x, D)
    Y = lm_xmod_envelope(tx.cat1, D)
    theta_bar = _projection(pair_algebra(Y.carrier, Y.usd), Y.sq).compose(
        theta)
    return not any(theta_bar.apply(r) for r in
                   _projection(tx.ul_sd, tx.ambient).kernel().rows)


def _doubled(f, even):
    """f with every other column doubled: the odd ones, or with even the
    even ones."""
    return LinearMap.from_cols(f.rows, [
        {i: (1 + (j + even) % 2) * c for i, c in f.col(j).items()}
        for j in range(f.cols)])


@pytest.mark.parametrize("bend", [None, 0, 1])
@pytest.mark.parametrize("name", CORPUS_XMODS)
def test_ideal_mapped_matches_the_kernel_loop(xmods, name, bend,
                                              monkeypatch):
    """ideal_mapped, θ̄ = θ̄∘ι∘π on U/X's class words, against θ̄ applied
    to every row of Ker π, with θ on UL(q ⋊ p) as built and with every
    other column doubled.  The doubled θ maps X outside Y′ on the identity
    crossed modules, so ideal_mapped is false there; on xmod-zero-a1 X is
    0, and on xmod-incl-l2 the doubled θ still maps X into Y′."""
    x, induced, thetas = xmods[name], lm.induced_map, []

    def bent(src, dst, images):
        out = induced(src, dst, images)
        if not thetas:  # theta_check's first induced_map is θ
            out = out if bend is None else _doubled(out, bend)
            thetas.append(out)
        return out

    monkeypatch.setattr(lm, "induced_map", bent)
    got = theta_check(x, 4)["ideal_mapped"]
    assert got == _ideal_mapped_by_kernel(x, 4, thetas[0])
    assert got == (bend is None or "-id-" not in name)


def test_theta_reports_an_unkilled_relation(xmods, monkeypatch):
    """When induced_map refuses theta, verify theta reports
    relations_killed false and fails with exit 1, not a traceback; the
    checks that need theta are left out of the record."""
    def refuse(src, dst, images):
        raise HomomorphismError("generator images do not preserve the ideal")

    monkeypatch.setattr(lm, "induced_map", refuse)
    rec = theta_check(xmods["xmod-id-a1.json"], 3)
    assert rec["relations_killed"] is False and rec["verdict"] == "fail"
    assert set(rec) == {"name", "degree", "report_degree",
                        "relations_killed", "lhs_dim_upto_d",
                        "bottom_dim_upto_d", "top_dim_upto_d",
                        "certificates", "verdict"}
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "theta", str(CORPUS / "xmod-id-a1.json"),
                         "--degree", "3", "--slack", "1", "--format", "json"])
    doc = json.loads(out.getvalue())
    assert code == 1 and doc["verdict"] == "fail"
    assert doc["records"][0]["relations_killed"] is False


def test_lm_checks_each_lie_datum_once(monkeypatch):
    """One lm run checks each Lie datum once: check_xmod the input,
    check_lm_lie_object the carrier L(q ⋊ p), and check_leibniz no
    algebra twice.  On xmod-id-l2, whose q and p are equal algebras,
    check_leibniz runs on q and on the carrier's Lie algebra (check_xmod
    reports q's list for p too); on xmod-incl-l2, whose q and p differ, on
    q, p and the carrier's Lie algebra."""
    xs, objs, algs = [], [], []
    check_xmod = xul.check_xmod
    for module in (xul, xmod, cli):
        monkeypatch.setattr(module, "check_xmod",
                            lambda y: xs.append(y) or check_xmod(y))
    check_obj = lm.check_lm_lie_object
    monkeypatch.setattr(lm, "check_lm_lie_object",
                        lambda L: objs.append(L) or check_obj(L))
    check_leibniz = LeibnizAlgebra.check_leibniz
    monkeypatch.setattr(LeibnizAlgebra, "check_leibniz",
                        lambda alg: algs.append(alg) or check_leibniz(alg))
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["lm", str(CORPUS / "xmod-id-l2.json"),
                         "--degree", "8", "--format", "json"])
    assert code == 0
    assert len(xs) == 1
    assert [L.bottom_dim for L in objs] == [4]
    assert len(algs) == 2 and algs[1] is objs[0].lie

    objs.clear()
    algs.clear()
    with contextlib.redirect_stdout(out):
        code = cli.main(["lm", str(CORPUS / "xmod-incl-l2.json"),
                         "--degree", "5", "--format", "json"])
    assert code == 0
    assert len({id(alg) for alg in algs}) == len(algs) == 3
    assert any(alg is objs[0].lie for alg in algs)
