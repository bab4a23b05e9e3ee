"""Truncated tensor algebras, noncommutative polynomials, degree-bounded
two-sided ideals with a Gröbner certificate, and presented quotients.

Words are tuples of generator indices, enumerated length-first then
lexicographically; this fixes canonical coordinates for every construction
built on top (enveloping algebras, kernel ideals, quotients).

Ideals of inhomogeneous relations are not always visible at a finite
degree: an element of degree <= D may need products w1*r*w2 of higher top
degree.  :func:`ideal_span` completes the relations (Buchberger–Mora,
Mora, TCS 134, 1994) with ambiguity words capped at D + S (slack), and
closes the span of degree <= D from the result one degree at a time: each
level multiplies by the generators only the echelon rows the previous
level added, which spans the same space as enumerating every product.
When every ambiguity resolves, the completed relations are a Gröbner
basis (Bergman's diamond lemma, Adv. Math. 29, 1978), and the span is the
ideal's whole part of degree <= D: the stabilization flag is a proof.

Each ideal keeps the generators it was closed from: a quotient of a
quotient closes only the rows it adds, in the first quotient's class
coordinates, and an algebra map is checked on the generators alone.
"""

import heapq
import itertools

from .scalars import exact
from .linalg import (Echelon, LinearMap, Subspace, int_vec, residue,
                     vec_add_scaled)


def word_key(w):
    """Elimination order: longer words first, lex-smaller first within a
    degree.  Pivots under this order are top-degree words of their rows,
    which keeps quotient coordinates aligned with the filtration."""
    return (-len(w), w)


class NCPoly:
    """Noncommutative polynomial: finite map word -> rational, each
    coefficient in the normal form of ``scalars.exact``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for w, c in terms.items():
                c = exact(c)
                if c != 0:
                    t[tuple(w)] = c
        self.terms = t

    @classmethod
    def word(cls, w, coeff=1):
        return cls({tuple(w): coeff})

    @classmethod
    def unit(cls):
        return cls({(): 1})

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other):
        t = dict(self.terms)
        vec_add_scaled(t, other.terms, 1)
        return NCPoly(t)

    def __sub__(self, other):
        t = dict(self.terms)
        vec_add_scaled(t, other.terms, -1)
        return NCPoly(t)

    def __rmul__(self, c):
        return NCPoly({w: c * x for w, x in self.terms.items()})

    def __neg__(self):
        return -1 * self

    def __mul__(self, other):
        """Bilinear extension of word concatenation."""
        out = {}
        for w1, c1 in self.terms.items():
            vec_add_scaled(out, {w1 + w2: c2
                                 for w2, c2 in other.terms.items()}, c1)
        return NCPoly(out)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = []
        for w in sorted(self.terms, key=word_key, reverse=True):
            bits.append("%s*%s" % (self.terms[w], ".".join(map(str, w)) or "1"))
        return "NCPoly(%s)" % " + ".join(bits)


class FreeAlgebra:
    """Free associative unital algebra on named generators, truncated at a
    working degree; fixes the canonical word enumeration."""

    def __init__(self, gens, degree):
        self.gens = tuple(gens)
        self.degree = degree
        self.words = tuple(w for d in range(degree + 1) for w in
                           itertools.product(range(self.ngens), repeat=d))
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def ngens(self):
        return len(self.gens)

    @property
    def dim(self):
        return len(self.words)

    def dim_upto(self, d):
        return sum(self.ngens ** k for k in range(min(d, self.degree) + 1))

    def poly_to_vec(self, p):
        """Sparse word-keyed vector (identity on the term dict, validated)."""
        for w in p.terms:
            if len(w) > self.degree:
                raise ValueError("word exceeds truncation degree")
            if any(c >= self.ngens for c in w):
                raise ValueError("generator index out of range")
        return dict(p.terms)

    def vec_to_coords(self, v):
        return {self.index[w]: c for w, c in v.items()}


class TruncIdeal:
    """Degree-truncated two-sided ideal span with a stabilization flag.

    ``gens`` are word-keyed vectors; closing their span under x*v and v*x
    for generators x and elements v of degree < D gives the span when
    ``stabilized`` is True, and a space containing it otherwise.  So a map
    of words into an associative algebra that multiplies images kills the
    span once it kills ``gens``.

    ``rows`` is the canonical reduced echelon basis (elimination order
    :func:`word_key`) of the span, the ideal's whole part of degree <= D
    when ``stabilized`` is True.  An ideal that extends the ideal of a
    quotient ``base`` keeps only the rows it adds, in ``base``'s class
    coordinates, and reduces by ``base`` first.
    """

    def __init__(self, algebra, rows, stabilized, gens, base=None):
        self.algebra = algebra
        self.rows = tuple(rows)
        self.gens = tuple(gens)
        self.base = base
        # integer copies of the rows, for reduction
        self._introws = {min(r, key=word_key): int_vec(r)[0]
                         for r in self.rows}
        self.pivots = frozenset(self._introws)
        if base is not None:
            self.pivots |= base.ideal.pivots
        self.stabilized = stabilized

    @property
    def dim(self):
        return len(self.pivots)

    def reduce_vec(self, v):
        """Residue of a word-keyed vector modulo the ideal span."""
        if self.base is not None:
            v = self.base.reduce(v)
        return residue(v, self._introws, word_key)


def _close_level(ech, frontier, relations, g):
    """Raise the span V_{m-1} to V_m.

    ``frontier`` holds (pivot, made_right) for the rows the echelon gained
    at level m-1; ``relations`` are the word-keyed relation vectors of
    degree m.  Each frontier row is multiplied by every generator on the
    right, and on the left too unless it was itself made as a right
    product.  Returns the frontier of level m.
    """
    new = []
    for piv, made_right in frontier:
        row = ech.rows[piv]
        for x in range(g):
            p = ech.insert({w + (x,): c for w, c in row.items()})
            if p is not None:
                new.append((p, True))
            if not made_right:
                p = ech.insert({(x,) + w: c for w, c in row.items()})
                if p is not None:
                    new.append((p, False))
    for r in relations:
        p = ech.insert(r)
        if p is not None:
            new.append((p, False))
    return new


def _normal_form(v, rules):
    """Normal form of a word-keyed vector under the rewriting rules, each a
    monic relation row keyed by its leading word.  The greatest reducible
    word (least :func:`word_key`) is rewritten first, at its shortest and
    then leftmost leading word, by subtracting the row placed there (which
    cancels the word), until none is left.  The result is linear in v."""
    lengths = sorted({len(a) for a in rules})
    work = dict(v)
    heap = [word_key(w) for w in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)[1]
        c = work[w]
        if c == 0:
            continue
        hit = next(((i, L) for L in lengths for i in range(len(w) - L + 1)
                    if w[i:i + L] in rules), None)
        if hit is None:
            out[w] = c
            continue
        i, L = hit
        for u, d in rules[w[i:i + L]].items():
            x = w[:i] + u + w[i + L:]
            if x not in work:
                heapq.heappush(heap, word_key(x))
            work[x] = work.get(x, 0) - c * d
    return out


def _ambiguities(rules):
    """Every ambiguity of the rewriting rules, as (word, p, q) with p and q
    the two rows placed at the word, so that p - q rewrites it both ways.
    An overlap is a proper suffix of one leading word that equals a proper
    prefix of another (or of itself); an inclusion is one leading word
    inside another."""
    def shift(x, t, z):
        return {x + u + z: c for u, c in t.items()}

    for a, ta in rules.items():
        for b, tb in rules.items():
            for k in range(1, min(len(a), len(b))):
                if a[-k:] == b[:k]:
                    yield (a + b[k:], shift((), ta, b[k:]),
                           shift(a[:-k], tb, ()))
            if a != b:
                for i in range(len(b) - len(a) + 1):
                    if b[i:i + len(a)] == a:
                        yield b, shift(b[:i], ta, b[i + len(a):]), tb


def groebner_basis(relations, cap):
    """Buchberger–Mora completion of the relations over :func:`word_key`,
    capped at ambiguity words of length <= cap.

    Each round interreduces the relations (the canonical rows G of their
    echelon), takes each row as the rewriting rule of its leading word,
    and rewrites both sides of every ambiguity to normal form.  A nonzero
    difference from an ambiguity word of length <= cap joins the
    relations; the rounds end when one adds nothing, which they do since
    each new relation has degree <= cap.  Returns (G, closed): closed is
    True only when every ambiguity resolves, and then G is a Gröbner basis
    by the diamond lemma: every element of the ideal of degree <= D is a
    combination of products u*g*v of degree <= D."""
    ech = Echelon(word_key)
    for r in relations:
        ech.insert(r.terms)
    grew = True
    while grew:
        G = ech.canonical_rows()
        rules = {min(row, key=word_key): row for row in G}
        closed, grew = True, False
        for word, p, q in _ambiguities(rules):
            if len(word) > cap and not closed:
                continue  # it can no longer change the outcome
            diff = _normal_form(vec_add_scaled(p, q, -1), rules)
            if diff:
                closed = False
                if len(word) <= cap and ech.insert(diff) is not None:
                    grew = True
    return G, closed


def ideal_span(algebra, relations, slack=2):
    """Truncated two-sided ideal of the given relation polynomials.

    The relations are completed (:func:`groebner_basis`) with ambiguity
    words capped at D + S (D = algebra.degree, S = slack), and the rows
    span V_D, the span of all u*g*v of degree <= D for g in the completed
    basis G.  ``stabilized`` is True only when G is a Gröbner basis; the
    rows are then exactly the ideal's part of degree <= D, whatever the
    slack.  Otherwise they span a subspace of it, and raising the slack
    may close the completion.

    V_D is built one level at a time from its generators:

        V_m = V_{m-1} + sum_x (x V_{m-1} + V_{m-1} x) + span{g : deg g = m}.

    Multiplication by a generator x is linear and x V_{m-2} already lies in
    V_{m-1}, so only the rows the echelon gained at level m-1 (the
    frontier) are multiplied.  A frontier row n made as a right product
    n'y, with n' in V_{m-2}, is multiplied on the right only.  Indeed
    n = n'y - s with s in the span at n's insertion, so x n = (x n')y - x s:
    x n' lies in V_{m-1}, so (x n')y lies in V_{m-1} y, which V_{m-1} and
    the right products of the frontier span; s lies in V_{m-2} plus the
    frontier rows inserted before n, whose left multiples are covered by
    induction on insertion order.  The span is thus exactly the one the
    full enumeration gives, and the rows are its canonical RREF.
    """
    D = algebra.degree
    if any(r.degree() > D for r in relations):
        raise ValueError("relation degree exceeds working degree")
    G, closed = groebner_basis(relations, D + slack)
    gens = [r for r in G if max(map(len, r)) <= D]
    ech, frontier = Echelon(word_key), []
    for m in range(D + 1):
        level = [r for r in gens if max(map(len, r)) == m]
        frontier = _close_level(ech, frontier, level, algebra.ngens)
    return TruncIdeal(algebra, ech.canonical_rows(), closed, gens)


class HomomorphismError(ValueError):
    """Raised when generator images fail to preserve the defining ideal."""


class TruncQuotAlgebra:
    """Quotient of a truncated free algebra by a truncated ideal, with
    canonical class coordinates aligned to the filtration.

    Class coordinates are the non-pivot words of the ideal's elimination
    echelon; the filtration layer F_d is spanned exactly by the class words
    of length <= d, so fdeg of a class vector is the top length in its
    support.
    """

    def __init__(self, parent, ideal):
        self.parent = parent
        self.ideal = ideal
        self.class_words = tuple(w for w in parent.words
                                 if w not in ideal.pivots)
        self.class_index = {w: i for i, w in enumerate(self.class_words)}
        self._reduce_memo = {}

    @property
    def dim(self):
        return len(self.class_words)

    @property
    def degree(self):
        return self.parent.degree

    def dim_upto(self, d):
        return sum(1 for w in self.class_words if len(w) <= d)

    def unit(self):
        return {(): 1}

    def reduce_word(self, w):
        if w in self.class_index:
            return {w: 1}
        r = self._reduce_memo.get(w)
        if r is None:
            r = self.ideal.reduce_vec({w: 1})
            self._reduce_memo[w] = r
        return dict(r)

    def reduce(self, vec):
        """Word-keyed parent vector -> canonical class vector."""
        out = {}
        for w, c in vec.items():
            vec_add_scaled(out, self.reduce_word(w), c)
        return out

    def fdeg(self, cv):
        return max((len(w) for w in cv), default=0)

    def mult(self, a, b, bound=None):
        """Class multiplication; defined when fdeg(a)+fdeg(b) <= degree."""
        bound = self.degree if bound is None else bound
        da, db = self.fdeg(a), self.fdeg(b)
        if da + db > bound:
            raise ValueError("product degree %d exceeds bound %d"
                             % (da + db, bound))
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                vec_add_scaled(out, self.reduce_word(wa + wb), ca * cb)
        return out

    def gen_class(self, i):
        return self.reduce_word((i,))

    # -- coordinates -------------------------------------------------------

    def to_coords(self, cv):
        return {self.class_index[w]: c for w, c in cv.items()}

    def from_coords(self, v):
        return {self.class_words[i]: c for i, c in v.items()}

    def filtration_subspace(self, d):
        return Subspace.from_vectors(
            self.dim, [{i: 1} for i, w in enumerate(self.class_words)
                       if len(w) <= d])

    def extend_by(self, sub):
        """Quotient by the two-sided ideal generated by the current ideal
        and a Subspace given in class coordinates, within the degree.

        Only the added rows are closed under multiplication by generators,
        each product reduced by :meth:`reduce`; the current ideal, closed
        already when stabilized, is not touched.  The class words are this
        quotient's minus the pivots of the closed rows."""
        added = [self.from_coords(r) for r in sub.rows]
        ech, work = Echelon(word_key), list(added)
        while work:
            piv = ech.insert(work.pop())
            if piv is None or len(piv) == self.degree:
                continue  # a product would leave the truncation window
            row = ech.rows[piv]
            for x in range(self.parent.ngens):
                work += (self.reduce({(x,) + w: c for w, c in row.items()}),
                         self.reduce({w + (x,): c for w, c in row.items()}))
        ideal = TruncIdeal(self.parent, ech.canonical_rows(),
                           self.ideal.stabilized,
                           self.ideal.gens + tuple(added), base=self)
        return TruncQuotAlgebra(self.parent, ideal)


def quotient(algebra, ideal):
    """The truncated quotient algebra T_{<=D} / ideal span."""
    if ideal.algebra is not algebra:
        raise ValueError("ideal was not computed over this algebra")
    return TruncQuotAlgebra(algebra, ideal)


def word_fold(images, mult, unit):
    """Memoised left fold over words: () gives unit, and w + (g,) gives
    mult(value of w, images[g]).  Returns the evaluator of one word."""
    memo = {(): unit}

    def value(w):
        out = memo.get(w)
        if out is None:
            out = memo[w] = mult(value(w[:-1]), images[w[-1]])
        return out

    return value


def induced_map(src, dst, gen_images):
    """Algebra map src -> dst from degree-<=1 generator images.

    Verifies that the word-wise extension kills the generators of src's
    ideal, and so its span when dst is associative (certified; see
    :class:`TruncIdeal`); raises HomomorphismError naming a violated
    generator's leading word otherwise.  Returns a LinearMap on class
    coordinates.
    """
    if len(gen_images) != src.parent.ngens:
        raise ValueError("need one image per generator")
    for img in gen_images:
        if dst.fdeg(img) > 1:
            raise ValueError("generator image must have fdeg <= 1")
    image = word_fold(gen_images, dst.mult, dst.unit())
    for gen in src.ideal.gens:
        out = {}
        for w, c in gen.items():
            vec_add_scaled(out, image(w), c)
        if out:
            raise HomomorphismError(
                "generator images do not preserve the ideal; violated "
                "generator with leading word %s" % (min(gen, key=word_key),))
    cols = [dst.to_coords(image(w)) for w in src.class_words]
    return LinearMap.from_cols(dst.dim, cols)


def filtration_basis(quot, sub, upto=None):
    """Filtration basis of a Subspace given in quot's class coordinates:
    its rows echelonized in elimination order, as a list of (fdeg, class
    vector) with fdeg = pivot length, sorted by fdeg.

    Rows with fdeg <= d span sub ∩ F_d; with upto=d only those are returned.
    They are the canonical rows of sub ∩ F_d, so only the rows of sub
    pivoted inside F_d are echelonized: F_d is the first dim_upto(d) class
    coordinates, and a vector of sub ∩ F_d is zero at every other pivot.
    """
    rows = sub.rows
    if upto is not None:
        n = quot.dim_upto(upto)
        rows = [r for r, p in zip(rows, sub.pivots) if p < n]
    ech = Echelon(word_key)
    for r in rows:
        ech.insert(quot.from_coords(r))
    rows = ech.canonical_rows()
    out = [(len(min(r, key=word_key)), r) for r in rows]
    out.sort(key=lambda t: (t[0], word_key(min(t[1], key=word_key))))
    return [t for t in out if upto is None or t[0] <= upto]


def subspace_product(a_sub, b_sub, quot):
    """Generators of the product I·J of two ideals generated in degree
    one, given as Subspaces of quot's class space: the span of a·w·b for a
    and b the fdeg-1 filtration rows of I and J and w a class word of
    length <= D - 2, as a Subspace in class coordinates.  Closed under
    multiplication by generators (``extend_by``), it gives I·J ∩ F_D.

    I and J are the kernels Ker s, Ker t of algebra maps s, t from quot to
    a target with a common section σ, an algebra map that sends the target
    generators to section letters of quot (so s∘σ = t∘σ = id).  Take for
    letters the section letters and a basis A of I ∩ F_1 (for J, of
    J ∩ F_1).  An x in I ∩ F_k is a sum of words of length <= k in them;
    the words in section letters alone sum to σ(y) for some y, and s kills
    every other word, so y = s(x) = 0 and x is a sum of u·a·v with a in A
    and |u| + 1 + |v| <= k.  Hence the product of filtration rows of I and
    J within the degree is a sum of u·a·w·b·v, and I·J = ⟨A·E·B⟩ with E the
    class words, at each degree <= D: the closure of this span equals the
    closure of all products of filtration rows whenever quot is certified.
    """
    fa = [va for _, va in filtration_basis(quot, a_sub, 1)]
    fb = [vb for _, vb in filtration_basis(quot, b_sub, 1)]
    mids = [w for w in quot.class_words if len(w) <= quot.degree - 2]
    reduce_word = quot.reduce_word
    prods = []
    for va in fa:
        for w in mids:
            for vb in fb:
                out = {}
                for x, ca in va.items():
                    for y, cb in vb.items():
                        vec_add_scaled(out, reduce_word(x + w + y), ca * cb)
                prods.append(quot.to_coords(out))
    return Subspace.from_vectors(quot.dim, prods)
