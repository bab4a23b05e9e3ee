"""Acceptance gate: the ten product criteria, one test (and one pass/fail
line under ``pytest -v``) each.

All tolerances are zero — every comparison is exact rational arithmetic.
Runtime budgets are reported per criterion but not asserted, so a slow
machine cannot turn a correct run red.
"""

import itertools
import time

from leibnizx import io
from leibnizx.scalars import Q
from leibnizx.linalg import Echelon, LinearMap
from leibnizx.freealg import word_key
from leibnizx.leibniz import check_rep, liezation
from leibnizx.envelope import (check_module, module_to_rep, rep_to_module,
                               ul, ul_relations)
from leibnizx.xmod import (cat1_roundtrip_isomorphism, check_cat1,
                           check_xmod, roundtrip_isomorphism, xmod_to_cat1,
                           zero_xmod)
from leibnizx.xrep import (check_xmod_rep, check_xmodule,
                           check_xmodule_morphism, rep_to_xmodule,
                           xmodule_to_rep)
from leibnizx.xul import (check_trunc_xmod, embedding_squares_check,
                          lemma41_check, prop42_check, xul)
from leibnizx.lm import (TensorBimodule, check_lm_assoc_xmod, leibniz_to_lm,
                         lm_xmod_envelope, pair_algebra, theta_check, u_lie)
from leibnizx.cli import main as cli_main

from conftest import connect_bimodule_violations, corpus_path

XMOD_NAMES = ("xmod-zero-a1.json", "xmod-id-a1.json", "xmod-id-l2.json",
              "xmod-id-r2.json", "xmod-incl-l2.json")
REP_NAMES = ("rep-a1-r.json", "rep-adj-l2.json", "rep-adj-r2.json",
             "rep-zero-l2.json", "rep-zero-r2.json")


def budget(name, limit_s, t0):
    dt = time.time() - t0
    print("criterion %-28s %6.1fs (budget %ds)" % (name, dt, limit_s))


def test_c01_axiom_suites(load):
    t0 = time.time()
    for name in ("a1.json", "l2.json", "r2.json"):
        assert not load(name).check_leibniz(), name
    assert not load("assoc2.json").check_assoc()
    for name in XMOD_NAMES:
        assert not check_xmod(load(name)), name
    for name in REP_NAMES:
        assert not check_rep(load(name)), name
    for name in ("xrep-id-a1.json", "xrep-zero-incl-l2.json"):
        assert not check_xmod_rep(load(name)), name
    # the three designed failures fail, each at the intended identity
    assert load("bad-leibniz.json").check_leibniz()
    assert [v[0] for v in check_rep(load("bad-rep-a1.json"))] == ["axiom3"]
    assert [v[0] for v in check_xmod_rep(load("bad-xrep-a1.json"))] == \
        ["LbM1a"]
    budget("1 axiom-suites", 1, t0)


def test_c02_cat1_equivalence(load):
    t0 = time.time()
    for name in XMOD_NAMES:
        x = load(name)
        c = xmod_to_cat1(x)
        assert not check_cat1(c), name
        # explicit isomorphisms in both directions
        phi, psi = roundtrip_isomorphism(x)
        assert phi.rank() == x.q.dim
        assert psi == LinearMap.identity(x.p.dim)
        f = cat1_roundtrip_isomorphism(c)
        assert f.rank() == c.total.dim
    budget("2 cat1-equivalence", 1, t0)


def brute_force_ul_dim(p, D, slack=2):
    """Independent oracle: dense enumeration of all w1 * r * w2 products,
    echelonized in elimination order; classes are the non-pivot words."""
    g = 2 * p.dim
    top = D + slack
    ech = Echelon(word_key)
    for r in ul_relations(p):
        terms = list(r.items())
        dr = max(map(len, r), default=0)
        for a in range(top - dr + 1):
            for w1 in itertools.product(range(g), repeat=a):
                for b in range(top - dr - a + 1):
                    for w2 in itertools.product(range(g), repeat=b):
                        ech.insert({w1 + tw + w2: c for tw, c in terms})
    # a pivot is the longest word of its row, so pivot length <= D
    # means the whole row lives in the degree-<=D window
    killed = sum(1 for piv in ech.rows if len(piv) <= D)
    return sum(g ** k for k in range(D + 1)) - killed


def test_c03_ul_dimensions(a1, l2):
    t0 = time.time()
    for D in (2, 3, 4):
        alg = ul(a1, D)
        assert alg.ideal.stabilized
        assert alg.dim == 2 * D + 1
        assert brute_force_ul_dim(a1, D) == 2 * D + 1
    lie, _ = liezation(l2)
    assert lie.dim == 1
    u = lambda d: d + 1  # dim of the polynomial ring k[t] up to degree d
    for D in (2, 3):
        alg = ul(l2, D)
        assert alg.ideal.stabilized
        expect = u(D) + u(D - 1) * 2
        assert alg.dim == expect
        assert brute_force_ul_dim(l2, D) == expect
    budget("3 ul-dimensions", 30, t0)


def test_c04_rep_module_equivalence(load):
    t0 = time.time()
    assert len(REP_NAMES) >= 5
    for name in REP_NAMES:
        rep = load(name)
        mod = rep_to_module(rep)
        assert not check_module(mod), name
        assert module_to_rep(mod) == rep, name
        # multiplicativity of the module structure at D = 3: words act
        # leftmost factor first, so psi(ab) = psi(b) o psi(a)
        quot = ul(rep.algebra, 3)
        for w1 in quot.class_words:
            for w2 in quot.class_words:
                if len(w1) + len(w2) > 3:
                    continue
                prod = quot.mult({w1: Q(1)}, {w2: Q(1)})
                assert mod.class_mat(prod) == \
                    mod.word_mat(w2) @ mod.word_mat(w1), name
    budget("4 rep-module-equivalence", 10, t0)


def test_c05_kernel_lemma(load):
    t0 = time.time()
    for name in ("xmod-id-a1.json", "xmod-incl-l2.json"):
        x = load(name)
        for d in (1, 2):
            rec = lemma41_check(x, d + 2, report_degree=d)
            assert rec["verdict"] == "pass", (name, d, rec)
            assert rec["equal"]
            assert rec["stabilized"] and all(rec["certificates"].values())
    budget("5 kernel-lemma", 60, t0)


def test_c06_enveloping_xmod(load):
    t0 = time.time()
    for name in XMOD_NAMES:
        tx = xul(load(name), 3)
        assert not check_trunc_xmod(tx), name
        assert tx.certificates["ul_semidirect_stabilized"]
        assert tx.certificates["ul_p_stabilized"]
    # the zero crossed module embeds with an exactly zero B-part
    for alg in ("a1.json", "l2.json", "r2.json"):
        rec = embedding_squares_check(load(alg), 3)
        assert rec["verdict"] == "pass"
        assert rec["b_dim"] == 0
    budget("6 enveloping-xmod", 60, t0)


def test_c07_augmentation_isomorphism(a1, l2):
    t0 = time.time()
    rec = prop42_check(a1, 4, report_degree=2)
    assert rec["verdict"] == "pass", rec
    rec = prop42_check(l2, 3, report_degree=1)
    assert rec["verdict"] == "pass", rec
    budget("7 augmentation-isomorphism", 120, t0)


def test_c08_xmod_rep_equivalence(load):
    t0 = time.time()
    for name in ("xrep-id-a1.json", "xrep-zero-incl-l2.json"):
        r = load(name)
        tx = xul(r.xmod, 3)
        mod = rep_to_xmodule(r, tx)
        # crossed-module-morphism conditions for (phi, psi) at the report
        # degree
        assert not check_xmodule(mod), name
        back = xmodule_to_rep(mod)
        assert io.dumps(back) == io.dumps(r), name
        # sampled representation morphisms round-trip: identity and a
        # uniform scaling
        idn = LinearMap.identity(mod.n_dim)
        idm = LinearMap.identity(mod.m_dim)
        assert not check_xmodule_morphism(mod, mod, idn, idm)
        assert not check_xmodule_morphism(mod, mod, idn.scale(3),
                                          idm.scale(3))
        if name == "xrep-id-a1.json":
            # mu is nonzero here, so scaling one side only is not a
            # morphism
            assert check_xmodule_morphism(mod, mod, idn.scale(3), idm)
    budget("8 xmod-rep-equivalence", 120, t0)


def test_c09_categorical_envelope(load, a1, l2, r2):
    t0 = time.time()
    # the enveloping object is the pair algebra (U(g) ⊗ M) ⊕ U(g): its top
    # row is U(g) computed directly, its bottom U(g)_{<=k-1} ⊗ M, and its
    # connecting map a bimodule map
    for p in (l2, r2):
        L = leibniz_to_lm(p)
        U_direct = u_lie(L.lie, 3)
        A = pair_algebra(L, U_direct)
        bottom = TensorBimodule(A, L.bottom_dim)
        for k in range(4):
            assert A.dim_upto(k) - bottom.dim_upto(k) == \
                U_direct.dim_upto(k)
            assert bottom.dim_upto(k) == \
                (L.bottom_dim * U_direct.dim_upto(k - 1) if k else 0)
        assert not connect_bimodule_violations(A, L.alpha, 3)
    # crossed-module identities of the envelope at the report degree
    for x, D in ((zero_xmod(a1), 4), (load("xmod-id-a1.json"), 3)):
        Y = lm_xmod_envelope(xmod_to_cat1(x), D)
        assert not check_lm_assoc_xmod(Y)
    # the comparison map theta; ideal_mapped is the generator-wise image
    # of the kernel-product ideal in its categorical counterpart
    rec = theta_check(zero_xmod(a1), 4, report_degree=2)
    assert rec["verdict"] == "pass", rec
    assert (rec["lhs_dim_upto_d"], rec["top_dim_upto_d"],
            rec["bottom_dim_upto_d"]) == (5, 3, 2)
    rec = theta_check(load("xmod-id-a1.json"), 3, report_degree=1)
    assert rec["verdict"] == "pass", rec
    assert rec["ideal_mapped"] and rec["cat_maps_intertwined"]
    budget("9 categorical-envelope", 300, t0)


def test_c10_determinism_and_stability(load, a1, capsys):
    t0 = time.time()
    # identical reports across runs, both output formats
    for argv in (["xul", corpus_path("xmod-id-a1.json"), "--degree", "3",
                  "--format", "json"],
                 ["check", corpus_path("r2.json")]):
        cli_main(list(argv))
        out1 = capsys.readouterr().out
        cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert out1 == out2
    # passes are stable under D -> D + 1
    x = load("xmod-id-a1.json")
    r3 = lemma41_check(x, 3, report_degree=1)
    r4 = lemma41_check(x, 4, report_degree=1)
    assert r3["verdict"] == r4["verdict"] == "pass"
    assert (r3["lhs_dim"], r3["rhs_dim"]) == (r4["lhs_dim"], r4["rhs_dim"])
    assert not check_trunc_xmod(xul(x, 3))
    assert not check_trunc_xmod(xul(x, 4))
    d3 = ul(a1, 3)
    d4 = ul(a1, 4)
    for k in range(4):
        assert d3.dim_upto(k) == d4.dim_upto(k)
    rec4 = theta_check(zero_xmod(a1), 4, report_degree=2)
    rec5 = theta_check(zero_xmod(a1), 5, report_degree=2)
    assert rec4["verdict"] == rec5["verdict"] == "pass"
    assert rec4["top_dim_upto_d"] == rec5["top_dim_upto_d"]
    budget("10 determinism-stability", 60, t0)
