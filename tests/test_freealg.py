import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizx.scalars import Q
from leibnizx.envelope import ul, ul_relations
from leibnizx.freealg import (HomomorphismError, TruncIdeal,
                              filtration_basis, ideal_span, induced_map,
                              presented, rewriter, subspace_product,
                              word_key)
from leibnizx.leibniz import liezation
from leibnizx.linalg import Echelon, Subspace
from leibnizx.lm import lie_relations

from conftest import (all_pairs_product, all_words, completed_quotient,
                      fraction_reduce, free_reclosure, groebner_basis,
                      is_normal_vec, span_rows)


def test_word_key_elimination_order():
    # longer words come first; lex within a length
    ws = [(), (0,), (1,), (0, 0), (0, 1)]
    assert sorted(ws, key=word_key) == [(0, 0), (0, 1), (0,), (1,), ()]


def commutator_relations(g):
    return [{(i, j): 1, (j, i): -1}
            for i in range(g) for j in range(i + 1, g)]


def test_polynomial_ring_dimensions():
    """T(x_1..x_g)/(commutators) has the dimensions of a polynomial ring:
    dim of degree <= D is C(D + g, g)."""
    for g, D in ((2, 4), (3, 3)):
        quot = presented(_gens(g), commutator_relations(g), D)
        assert quot.ideal.stabilized
        for d in range(D + 1):
            assert quot.dim_upto(d) == math.comb(d + g, g)


def test_ideal_span_brute_force_agreement():
    """The truncated ideal span equals the naive span of all products
    w1 * r * w2 enumerated densely at the same top degree."""
    rels = [{(0, 1): 1, (1, 0): -1, (0,): -1}]
    quot = presented(("x", "y"), rels, 3)
    index = {w: i for i, w in enumerate(all_words(2, 3))}
    top = quot.degree + 2
    vecs = []
    for r in rels:
        for a in range(top + 1):
            for w1 in itertools.product(range(2), repeat=a):
                for b in range(top - a - max(map(len, r)) + 1):
                    for w2 in itertools.product(range(2), repeat=b):
                        vecs.append({w1 + w + w2: c for w, c in r.items()})
    # cut down to degree <= 3 the slow way: echelonize in elimination order
    # and keep rows supported there
    from leibnizx.linalg import Echelon
    ech = Echelon(word_key)
    for v in sorted(vecs, key=lambda v: word_key(min(v, key=word_key))):
        ech.insert(dict(v))
    kept = [r for r in ech.canonical_rows()
            if len(min(r, key=word_key)) <= 3]
    expect = Subspace.from_vectors(
        len(index), [{index[w]: c for w, c in r.items()} for r in kept
                     if all(len(w) <= 3 for w in r)])
    got = Subspace.from_vectors(
        len(index), [{index[w]: c for w, c in r.items()}
                     for r in span_rows(quot)])
    assert got.contains(expect)


def _insert_products(ech, g, relations, lo_total, hi_total):
    """Insert all w1*r*w2 with lo_total < top degree <= hi_total."""
    for r in relations:
        dr = max(map(len, r))
        terms = list(r.items())
        for a in range(0, hi_total - dr + 1):
            for w1 in itertools.product(range(g), repeat=a):
                left = [(w1 + w, c) for w, c in terms]
                bmax = hi_total - dr - a
                for b in range(0, bmax + 1):
                    if a + dr + b <= lo_total:
                        continue
                    for w2 in itertools.product(range(g), repeat=b):
                        ech.insert({u + w2: c for u, c in left})


def _rows_upto(ech, D):
    out = Echelon(word_key)
    for piv, row in ech.rows.items():
        if len(piv) <= D:
            out.insert(dict(row))
    return out.canonical_rows()


def _nonzero(relations):
    """The relations with zero coefficients dropped, and zero ones too."""
    relations = [{w: c for w, c in r.items() if c} for r in relations]
    return [r for r in relations if r]


def enumerated_ideal(g, D, relations, slack):
    """Oracle: the rows from enumerating every product w1*r*w2 of top
    degree <= D + slack, on g generators."""
    relations = _nonzero(relations)
    ech = Echelon(word_key)
    _insert_products(ech, g, relations, -1, D + slack)
    return _rows_upto(ech, D)


def _gens(n):
    return tuple("x%d" % i for i in range(n))


def _resolves(relations):
    """Whether the relations resolve every ambiguity as given: the
    reference completion with no ambiguity window adds nothing."""
    return groebner_basis(_nonzero(relations), 0)[1]


@pytest.mark.parametrize("slack", [0, 1, 2])
def test_ideal_span_matches_enumeration(a1, l2, r2, slack):
    """The span the quotient reduces by has the rows of the full
    enumeration up to degree D + slack, whatever the slack, with a proof,
    on the envelope and Lie presentations."""
    cases = [(2 * a1.dim, ul_relations(a1), (2, 3, 4)),
             (2 * l2.dim, ul_relations(l2), (2, 3)),
             (2 * r2.dim, ul_relations(r2), (2, 3)),
             (r2.dim, lie_relations(r2), (2, 3, 4)),
             (1, lie_relations(liezation(l2)[0]), (2, 3, 4))]
    for g, rels, degrees in cases:
        # PBW type (Loday–Pirashvili): every ambiguity resolves
        assert _resolves(rels)
        for D in degrees:
            quot = presented(_gens(g), rels, D)
            assert span_rows(quot) == enumerated_ideal(
                g, D, rels, slack), (g, D)
            assert quot.ideal.stabilized is True, (g, D)


_WORDS = [w for d in range(3) for w in itertools.product(range(3), repeat=d)]


def _assert_certified(g, D, rels, ideal):
    """A stabilized ideal holds every row of the slack-3 enumeration."""
    if ideal.stabilized:
        for row in enumerated_ideal(g, D, rels, 3):
            assert ideal.reduce_vec(row) == {}


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 3), st.integers(1, 4),
       st.lists(st.dictionaries(st.sampled_from(_WORDS), st.integers(-2, 2),
                                min_size=1, max_size=4),
                min_size=1, max_size=4))
def test_ideal_span_matches_enumeration_random(g, D, raw):
    rels = [{w: c for w, c in t.items()
             if len(w) <= D and all(x < g for x in w)} for t in raw]
    quot = presented(_gens(g), rels, D)
    assert quot.ideal.stabilized is _resolves(rels)
    if _resolves(rels):
        # the relations have degree <= 2, so each product u*g*v of degree
        # <= D comes from products of the relations of degree <= D + 2:
        # the slack-2 enumeration is the ideal's whole part of degree <= D
        assert span_rows(quot) == enumerated_ideal(g, D, rels, 2)
    elif D <= 3:
        # the slack-3 enumeration at D4 (top degree 7) can take minutes
        _assert_certified(g, D, rels, quot.ideal)


def generator_products(n, D, gens):
    """Oracle for a presented quotient: the canonical rows, keyed by pivot,
    of the span of every u*g*v with g in gens and |u| + deg g + |v| <= D,
    on n generators."""
    ech = Echelon(word_key)
    for gen in gens:
        top = max(map(len, gen))
        for a in range(D - top + 1):
            for b in range(D - top - a + 1):
                for u in itertools.product(range(n), repeat=a):
                    for v in itertools.product(range(n), repeat=b):
                        ech.insert({u + w + v: c for w, c in gen.items()})
    return {min(r, key=word_key): r for r in ech.canonical_rows()}


def test_quotient_matches_generator_products_open_or_closed():
    """Whether the reference completion closes or stays open, the class
    words of its quotient are the words that are no pivot of the span of
    the generator products u*g*v of degree <= D, and every word reduces
    to its residue modulo that span.  The seeded sets include both kinds
    (21 of the 300 stay open).  The one-pass certificate of ``presented``
    holds exactly on the sets that resolve as given, and then its quotient
    is the reference's."""
    rng = random.Random(15)
    seen = set()
    for _ in range(300):
        n, D, slack = rng.randint(2, 3), rng.randint(2, 4), rng.randint(0, 2)
        words = [w for w in _WORDS if all(x < n for x in w)]
        rels = [{w: rng.randint(-2, 2)
                 for w in rng.sample(words, rng.randint(1, 3))}
                for _ in range(rng.randint(2, 4))]
        quot = completed_quotient(_gens(n), rels, D, slack)
        one = presented(_gens(n), rels, D)
        assert one.ideal.stabilized is _resolves(rels)
        if one.ideal.stabilized:
            assert one.class_words == quot.class_words
        rows = generator_products(n, D, quot.ideal.rows)
        assert quot.class_words == tuple(w for w in all_words(n, D)
                                         if w not in rows)
        for w in all_words(n, D):
            assert quot.reduce_word(w) == fraction_reduce(
                {w: Q(1)}, rows, word_key), w
        seen.add(quot.ideal.stabilized)
    assert seen == {True, False}


def _normal_words_by_suffixes(ideal, ngens, degree):
    """Oracle for TruncIdeal.normal_words: the breadth-first enumeration
    that tests each candidate word's suffixes up to the longest leading
    word's length against the leading words."""
    leading = {min(r, key=word_key) for r in ideal.rows}
    longest = max(map(len, leading), default=0)

    def normal(w):
        return not any(w[i:] in leading
                       for i in range(max(len(w) - longest, 0), len(w) + 1))

    out = [()] if normal(()) else []
    for w in out:
        if len(w) < degree:
            out += [w + (g,) for g in range(ngens) if normal(w + (g,))]
    return tuple(out)


def test_normal_words_match_the_suffix_enumeration():
    """normal_words, which finds the letters that may follow each context
    once, against the enumeration over every suffix: on the completed
    bases of seeded random relation sets (leading words of lengths one to
    four, as completion adds longer rows) and on ideals whose rows are
    random words of mixed lengths, the same words in the same order."""
    rng = random.Random(24)
    lengths = set()
    for _ in range(200):
        n, D = rng.randint(2, 3), rng.randint(2, 5)
        words = [w for w in _WORDS if all(x < n for x in w)]
        rels = [{w: rng.randint(-2, 2)
                 for w in rng.sample(words, rng.randint(1, 3))}
                for _ in range(rng.randint(2, 4))]
        ideal = completed_quotient(_gens(n), rels, D, rng.randint(0, 1)).ideal
        lengths |= {len(min(r, key=word_key)) for r in ideal.rows}
        assert ideal.normal_words(n, D) == \
            _normal_words_by_suffixes(ideal, n, D)
    for _ in range(200):
        n, D = rng.randint(1, 3), rng.randint(0, 6)
        rows = [{tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))): 1}
                for _ in range(rng.randint(0, 4))]
        ideal = TruncIdeal(rows, True)
        lengths |= {len(w) for r in rows for w in r}
        assert ideal.normal_words(n, D) == \
            _normal_words_by_suffixes(ideal, n, D)
    assert {1, 2, 3, 4} <= lengths


def test_rewriter_chain_longer_than_the_recursion_limit():
    """x0x1 -> x1x0 sorts 0^k 1^k in k*k steps, one word after another;
    with k*k above the recursion limit the normal form still comes out,
    and a second call reads the memo."""
    k = math.isqrt(sys.getrecursionlimit()) + 1
    normal_form, memo = rewriter({(0, 1): {(0, 1): 1, (1, 0): -1}})
    w, sorted_w = (0,) * k + (1,) * k, (1,) * k + (0,) * k
    assert normal_form({w: 2}) == {sorted_w: 2}
    assert memo[w] == {sorted_w: 1}
    assert normal_form({w: 1, (0,): 3}) == {sorted_w: 1, (0,): 3}


def test_unresolved_overlap_is_completed():
    """x0x0 -> x1 overlaps itself in x0x0x0, where x1x0 and x0x1 differ:
    not a Gröbner basis as given, so the one pass does not certify it.
    The reference completion adds x0x1 - x1x0 and closes at every slack
    once the window holds x0x0x0, so the rows include (x1x0 - x0x1)x0,
    which the slack-0 enumeration misses."""
    rels = [{(0, 0): 1, (1,): -1}]
    assert not _resolves(rels)
    for D in (2, 3):
        assert ideal_span(rels, D).stabilized is False
    assert enumerated_ideal(2, 3, rels, 0) != enumerated_ideal(2, 3, rels, 3)
    for slack in (0, 1, 2):
        quot = completed_quotient(_gens(2), rels, 3, slack)
        assert quot.ideal.stabilized is True, slack
        assert span_rows(quot) == enumerated_ideal(2, 3, rels, 3), slack
    # at D2 the window x0x0 (length 2) misses the overlap at slack 0
    assert completed_quotient(_gens(2), rels, 2, 0).ideal.stabilized is False
    assert completed_quotient(_gens(2), rels, 2, 1).ideal.stabilized is True


def test_inclusion_ambiguities():
    """x1x2 -> x3 lies inside the leading word of x0x1x2.  When the second
    relation is x0(x1x2 - x3) the inclusion resolves; when it is x0x1x2
    alone, x0x3 is a new element of the ideal and (x0x3)x0 needs
    products of degree 4: the one pass does not certify it, and the
    reference completion adds x0x3 and closes."""
    resolved = [{(1, 2): 1, (3,): -1}, {(0, 1, 2): 1, (0, 3): -1}]
    assert _resolves(resolved)
    quot = presented(_gens(4), resolved, 3)
    assert span_rows(quot) == enumerated_ideal(4, 3, resolved, 2)
    assert quot.ideal.stabilized is True
    unresolved = [{(1, 2): 1, (3,): -1}, {(0, 1, 2): 1}]
    assert not _resolves(unresolved)
    assert presented(_gens(4), unresolved, 3).ideal.stabilized is False
    for slack in (0, 1, 2):
        quot = completed_quotient(_gens(4), unresolved, 3, slack)
        assert quot.ideal.stabilized is True, slack
        assert quot.ideal.reduce_vec({(0, 3, 0): 1}) == {}
        assert span_rows(quot) == enumerated_ideal(4, 3, unresolved, 3)


def test_slack_heuristic_counterexample_is_never_certified():
    """Relations on which the slack S/S+1 comparison certified 21 rows at
    slack 0, though the ideal's part of degree <= 3 has 29.  The one pass
    does not certify them; the reference completion stays open at slacks
    0 and 1 and closes at slack 2."""
    rels = [{(0, 2): 2, (1, 1): -2}, {(2, 1): 1},
            {(0, 1): 1, (0,): -2, (2, 0): -2}]
    words = len(all_words(3, 3))
    assert presented(_gens(3), rels, 3).ideal.stabilized is False
    for slack in (0, 1, 2, 3):
        quot = completed_quotient(_gens(3), rels, 3, slack)
        assert quot.ideal.stabilized is (slack >= 2), slack
        assert words - quot.dim == 29 or not quot.ideal.stabilized, slack
        _assert_certified(3, 3, rels, quot.ideal)
    assert words - completed_quotient(_gens(3), rels, 3, 0).dim == 21


def test_certified_closure_runs_on_the_interreduced_relations():
    """x0x1 + x2 and x0x1 + x3 have leading parts that cancel: x2 - x3 is
    in the ideal, and so is (x2 - x3)x0x0 at degree 3, but only products of
    the raw relations of degree 4 reach it.  The certified closure runs on
    the interreduced relations and finds it."""
    rels = [{(0, 1): 1, (2,): 1}, {(0, 1): 1, (3,): 1}]
    assert _resolves(rels)
    exact = enumerated_ideal(4, 3, rels, 2)
    witness = {(2, 0, 0): Q(1), (3, 0, 0): Q(-1)}
    raw = Echelon(word_key)
    for r in enumerated_ideal(4, 3, rels, 0):
        raw.insert(dict(r))
    assert not raw.contains(witness)
    quot = presented(_gens(4), rels, 3)
    assert span_rows(quot) == exact
    assert quot.ideal.stabilized is True
    assert quot.ideal.reduce_vec(witness) == {}


def test_quotient_reduce_and_mult():
    quot = presented(("x", "y"), commutator_relations(2), 4)
    xy = quot.reduce_word((0, 1))
    yx = quot.reduce_word((1, 0))
    assert xy == yx
    a, b = quot.gen_class(0), quot.gen_class(1)
    ab = quot.mult(a, b)
    ba = quot.mult(b, a)
    assert ab == ba
    assert quot.mult(ab, ba) == quot.mult(ba, ab)
    try:
        quot.mult(ab, quot.mult(ab, ab))
        assert False, "degree overflow must raise"
    except ValueError:
        pass


def test_quotient_coordinates_and_filtration():
    quot = presented(("x", "y"), commutator_relations(2), 3)
    v = quot.reduce({(1, 0): 1, (): 1})
    assert quot.from_coords(quot.to_coords(v)) == v
    assert quot.fdeg(v) == 2
    assert quot.dim_upto(1) == 3


def test_induced_map_checks_relations():
    quot = presented(("x", "y"), commutator_relations(2), 3)
    # swapping the generators is an automorphism of the commutative ring
    f = induced_map(quot, quot, [quot.gen_class(1), quot.gen_class(0)])
    assert f.rank() == quot.dim
    # a noncommutative target rejects the same images, naming the leading
    # word of the violated row of the ideal
    assert quot.ideal.rows == ({(0, 1): 1, (1, 0): -1},)
    nc = presented(("x", "y"), [], 3)
    with pytest.raises(HomomorphismError, match=r"generator with leading "
                                                r"word \(0, 1\)"):
        induced_map(quot, nc, [nc.gen_class(0), nc.gen_class(1)])
    # after extend_by, an added row is in the completed rows too
    no_x = quot.extend_by([quot.gen_class(0)])
    induced_map(no_x, no_x, [no_x.gen_class(0), no_x.gen_class(1)])
    with pytest.raises(HomomorphismError, match=r"leading word \(0,\)"):
        induced_map(no_x, quot, [quot.gen_class(0), quot.gen_class(1)])


def test_extend_by_is_a_two_sided_ideal():
    quot = presented(("x", "y"), commutator_relations(2), 3)
    bigger = quot.extend_by([quot.gen_class(0)])
    # x and everything it divides is gone
    assert bigger.reduce_word((0,)) == {}
    assert bigger.reduce_word((1, 0)) == {}
    assert bigger.reduce_word((0, 1)) == {}
    assert bigger.dim == 4  # 1, y, y^2, y^3 survive
    # no added rows: the ideal and the quotient are unchanged
    assert quot.extend_by([]) is quot


def test_filtration_basis_degrees():
    quot = presented(("x", "y"), commutator_relations(2), 3)
    sub = Subspace.from_vectors(
        quot.dim, [quot.to_coords(quot.reduce_word(w))
                   for w in ((0,), (0, 1))])
    assert [d for d, _ in filtration_basis(quot, sub)] == [1, 2]
    assert [d for d, _ in filtration_basis(quot, sub, 1)] == [1]


def test_subspace_product_boundary():
    """subspace_product takes the degree-one rows of two ideals generated
    in degree one and gives the degree-two generators A·B of their
    product: for I = (x) and J = (y)
    in the free algebra on x, y at D3, the single word x·y.  Completed by
    extend_by they give I·J: the words with an x somewhere before a y,
    the same as the closure of every product of filtration rows."""
    quot = presented(("x", "y"), [], 3)

    def letter_ideal(x):
        return Subspace.from_vectors(
            quot.dim, [{i: 1} for i, w in enumerate(quot.class_words)
                       if x in w])

    I, J = letter_ideal(0), letter_ideal(1)
    prod = subspace_product(
        *([v for _, v in filtration_basis(quot, K, 1)] for K in (I, J)))
    assert prod == [{(0, 1): 1}]
    closed = quot.extend_by(prod)
    assert closed.ideal.stabilized
    assert set(quot.class_words) - set(closed.class_words) == {
        w for w in quot.class_words
        if any(w[i] == 0 and 1 in w[i + 1:] for i in range(len(w)))}
    assert closed.class_words == free_reclosure(quot, [
        quot.from_coords(r)
        for r in all_pairs_product(I, J, quot).rows]).class_words


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.sampled_from([(), (0,), (1,), (0, 1), (1, 0)]),
                          st.integers(-3, 3)), min_size=1, max_size=4),
       st.sampled_from([(0,), (1,), (0, 0)]))
def test_quotient_mult_is_bilinear_and_associative(terms, w):
    quot = presented(("x", "y"), commutator_relations(2), 4)
    a = quot.reduce({tw: Q(c) for tw, c in terms if c})
    if quot.fdeg(a) > 1:
        a = {tw: c for tw, c in a.items() if len(tw) <= 1}
    b = quot.reduce_word(w)
    c = quot.gen_class(0)
    left = quot.mult(quot.mult(a, b), c)
    right = quot.mult(a, quot.mult(b, c))
    assert left == right


_QWORDS = [w for d in range(3) for w in itertools.product(range(2), repeat=d)]
_small_q = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _class_vec(words):
    return st.dictionaries(st.sampled_from(words), _small_q, max_size=3)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.dictionaries(st.sampled_from(_QWORDS), _small_q,
                                min_size=1, max_size=3),
                max_size=3),
       _class_vec(_QWORDS[:3]), _class_vec(_QWORDS))
def test_quotient_outputs_are_in_normal_form(raw, ta, tb):
    """reduce_word and mult give an int for every integral coefficient and
    a Q for every other, and equal the all-Q computation, also when the
    relations have non-integral coefficients."""
    quot = presented(("x", "y"), raw, 3)
    rows = {min(r, key=word_key): r for r in span_rows(quot)}

    def oracle(w):
        return fraction_reduce({w: Q(1)}, rows, word_key)

    for w in all_words(2, 3):
        got = quot.reduce_word(w)
        assert is_normal_vec(got)
        assert got == oracle(w)
    a, b = quot.reduce(ta), quot.reduce(tb)
    want = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for k, x in oracle(wa + wb).items():
                want[k] = Q(want.get(k, 0)) + Q(ca) * Q(cb) * Q(x)
    got = quot.mult(a, b)
    assert is_normal_vec(got)
    assert got == {k: x for k, x in want.items() if x}


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["commutative", "free", "weyl"]),
       st.lists(st.dictionaries(st.sampled_from(_QWORDS), _small_q,
                                min_size=1, max_size=3),
                min_size=1, max_size=3))
def test_extend_by_matches_free_reclosure(relations, raw):
    """Completing a certified quotient's rows with the added rows (the
    reference completion) gives the class words and reductions of the
    re-closure of the whole ideal in the free algebra; every old row and
    every added row reduces to zero in the new quotient.  ``extend_by``
    certifies exactly the cases that resolve as given."""
    rels = {"commutative": commutator_relations(2), "free": [],
            "weyl": [{(0, 1): 1, (1, 0): -1, (): -1}]}[relations]
    quot = presented(("x", "y"), rels, 4)
    assert quot.ideal.stabilized
    added = [quot.reduce(t) for t in raw]
    rows = quot.ideal.rows + tuple(added)
    assert quot.extend_by(added).ideal.stabilized is _resolves(rows)
    got = completed_quotient(quot.gens, rows, 4, 2)
    want = free_reclosure(quot, added)
    assert got.class_words == want.class_words
    for w in all_words(2, 4):
        assert got.reduce_word(w) == want.reduce_word(w), w
    assert len(all_words(2, 4)) - got.dim == len(want.ideal.rows)
    for row in quot.ideal.rows + tuple(added):
        assert not got.reduce(row), row


def test_extend_by_unit_row_gives_the_zero_quotient(a1):
    """A unit leading word () lies in every word: the quotient is zero,
    the completion closes, and every word reduces to zero."""
    quot = ul(a1, 3)
    zero = quot.extend_by([{(): 1}])
    assert zero.dim == 0
    assert zero.class_words == ()
    assert zero.ideal.stabilized is True
    for d in range(quot.degree + 1):
        for w in itertools.product(range(2 * a1.dim), repeat=d):
            assert zero.reduce_word(w) == {}, w


def test_extend_by_normalizes_the_added_rows(a1):
    """A zero coefficient is dropped and a scalar multiple gives the same
    ideal: the class words and reductions are those of the plain row."""
    quot = ul(a1, 3)
    want = quot.extend_by([{(0,): 1}])
    for row in ({(0,): 1, (1,): 0}, {(0,): Q(2)}):
        got = quot.extend_by([row])
        assert got.class_words == want.class_words, row
        for d in range(quot.degree + 1):
            for w in itertools.product(range(2 * a1.dim), repeat=d):
                assert got.reduce_word(w) == want.reduce_word(w), (row, w)
