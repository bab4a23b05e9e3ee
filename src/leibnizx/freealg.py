"""Presented quotients of truncated free algebras: degree-bounded
two-sided ideals with a diamond-lemma certificate, and their quotients.

Relations, ideal rows and class vectors are word-keyed dicts {word:
rational}.  Words are tuples of generator indices, enumerated length-first
then lexicographically; this fixes canonical coordinates for every
construction built on top (enveloping algebras, kernel ideals, quotients).

Ideals of inhomogeneous relations are not always visible at a finite
degree: an element of degree <= D may need products w1*r*w2 of higher top
degree.  :func:`presented` builds a quotient from generators and relations
alone: :func:`ideal_span` interreduces them once and checks, in one pass,
that every ambiguity of the rows resolves, the hypothesis of Bergman's
diamond lemma (Adv. Math. 29, 1978).  The class words are the normal words
of the rows, enumerated directly, and a word reduces by the rows' rewriter,
whose memo keeps each normal form once.  When every ambiguity resolves the
rows are a Gröbner basis and the quotient is by the ideal's whole part of
degree <= D: the stabilization flag is a proof.  Otherwise it is False.

Which presentations pass is settled where they are built: U(g) in
``lm.u_lie``, UL(p) in ``envelope.ul`` and the pair algebras in
``lm.pair_algebra`` are proven to resolve for every input, and the
kernel-product quotients (:meth:`TruncQuotAlgebra.extend_by` with A·B) and
``lm``'s square-zero algebra are checked on each input.

A quotient of a presented quotient by added rows is presented too, by the
first quotient's rows and the added ones.  An algebra map is checked on the
rows alone.
"""

import itertools

from .scalars import exact
from .linalg import Echelon, LinearMap, vec_add_scaled


def word_key(w):
    """Elimination order: longer words first, lex-smaller first within a
    degree.  Pivots under this order are top-degree words of their rows,
    which keeps quotient coordinates aligned with the filtration."""
    return (-len(w), w)


class TruncIdeal:
    """Degree-truncated two-sided ideal span with a stabilization flag.

    ``rows`` are word-keyed vectors, each monic at its leading word and the
    rewriting rule of that word.  The span is that of every u*g*v of
    degree <= D for g in ``rows``, so a map of words into an associative
    algebra that multiplies images kills the span once it kills ``rows``.
    When ``stabilized``, every ambiguity of the rules resolves, and the
    words that contain no leading word span a complement of the span, the
    ideal's whole part of degree <= D (the diamond lemma).
    """

    def __init__(self, rows, stabilized):
        self.rows = tuple(rows)
        self.stabilized = stabilized
        self._leading = {min(r, key=word_key): r for r in self.rows}
        self._residue, self.memo = rewriter(self._leading)

    def reduce_vec(self, v):
        """Residue of a word-keyed vector modulo the ideal span."""
        return self._residue(v)

    def normal_words(self, ngens, degree):
        """The words of length <= degree that contain no leading word,
        length-first then lexicographically.  A word is normal when its
        prefix is and no leading word ends it, so each length extends the
        normal words of the one before, in order, letter by letter.  A
        leading word that ends w·g has length at most the longest, L, so
        which letters g may follow a normal w depends only on w's last
        L - 1 letters, its context; each context's letters are found once."""
        k = max(map(len, self._leading), default=1) - 1
        follow = {}

        def letters(ctx):
            return [g for g in range(ngens)
                    if not any((ctx + (g,))[i:] in self._leading
                               for i in range(len(ctx) + 1))]

        out = [] if () in self._leading else [()]
        for w in out:  # breadth first: out grows as it is read
            if len(w) < degree:
                ctx = w[max(len(w) - k, 0):]
                gs = follow.get(ctx)
                if gs is None:
                    gs = follow[ctx] = letters(ctx)
                out += [w + (g,) for g in gs]
        return tuple(out)


def rewriter(rules):
    """The normal form under rewriting rules, each a monic relation row
    keyed by its leading word, as a function of word-keyed vectors.

    A word is rewritten at its shortest, then leftmost, leading word by
    subtracting the row placed there, which cancels it; every other word
    of that placed row is greater under :func:`word_key`, so rewriting
    ends.  This first step fixes each word's normal form, memoised per
    word; a vector's is the combination of its words'.  A word's normal
    form is built without recursion: the words it reaches are collected,
    then resolved greatest first, each after the words it rewrites to.
    Returns the normal form and its memo {word: normal form}."""
    lengths = sorted({len(a) for a in rules})
    memo = {}

    def step(w):
        """The terms (word, coefficient) w rewrites to in one step, or None
        when w contains no leading word."""
        for L in lengths:
            for i in range(len(w) - L + 1):
                a = w[i:i + L]
                if a in rules:
                    return [(w[:i] + u + w[i + L:], -d)
                            for u, d in rules[a].items() if u != a]
        return None

    def word_form(w):
        reached, stack = {w: step(w)}, [w]
        while stack:
            for x, _ in reached[stack.pop()] or ():
                if x not in memo and x not in reached:
                    reached[x] = step(x)
                    stack.append(x)
        for x in sorted(reached, key=word_key, reverse=True):
            memo[x] = out = {x: 1} if reached[x] is None else {}
            for y, c in reached[x] or ():
                vec_add_scaled(out, memo[y], c)
        return memo[w]

    def normal_form(v):
        out = {}
        for w, c in v.items():
            vec_add_scaled(out, memo[w] if w in memo else word_form(w), c)
        return out

    return normal_form, memo


def _ambiguities(rules):
    """Every ambiguity of the rewriting rules, as (word, p, q) with p and q
    the two rows placed at the word, so that p - q rewrites it both ways.
    An overlap is a proper suffix of one leading word that equals a proper
    prefix of another (or of itself); an inclusion is one leading word
    inside another.  Leading words are looked up by their proper prefixes
    and subwords, not compared pairwise."""
    def shift(x, t, z):
        return {x + u + z: c for u, c in t.items()}

    starting = {}
    for b in rules:
        for k in range(1, len(b)):
            starting.setdefault(b[:k], []).append(b)
    for a, ta in rules.items():
        for k in range(1, len(a)):
            for b in starting.get(a[-k:], ()):
                yield (a + b[k:], shift((), ta, b[k:]),
                       shift(a[:-k], rules[b], ()))
    for b, tb in rules.items():
        for i, j in itertools.combinations_with_replacement(
                range(len(b) + 1), 2):
            if j - i < len(b) and b[i:j] in rules:
                yield b, shift(b[:i], rules[b[i:j]], b[j:]), tb


def ideal_span(relations, degree):
    """Truncated two-sided ideal of the given relations, word-keyed
    vectors, each put into normal form (zeros dropped, values ``exact``).

    The relations are interreduced once (the canonical rows of their
    echelon under :func:`word_key`), each row the rewriting rule of its
    leading word.  ``stabilized`` is whether both sides of every ambiguity
    (:func:`_ambiguities`) reach one normal form under the ideal's own
    rewriter, whose memo the quotient reuses (``_residue``, not the traced
    ``reduce_vec``, which counts a quotient's misses).  Then the rows are a
    Gröbner basis by the diamond lemma, and every element of the ideal of
    degree <= D is a combination of u*g*v of degree <= D, as rewriting
    never lengthens a word.
    """
    relations = [{w: exact(c) for w, c in r.items() if c} for r in relations]
    if any(len(w) > degree for r in relations for w in r):
        raise ValueError("relation degree exceeds working degree")
    ech = Echelon(word_key)
    for r in relations:
        ech.insert(r)
    ideal = TruncIdeal(ech.canonical_rows(), False)
    ideal.stabilized = not any(
        ideal._residue(vec_add_scaled(p, q, -1))
        for _, p, q in _ambiguities(ideal._leading))
    return ideal


class HomomorphismError(ValueError):
    """Raised when generator images fail to preserve the defining ideal."""


class TruncQuotAlgebra:
    """Quotient of the free algebra on named generators, truncated at a
    working degree, by a truncated ideal, with canonical class coordinates
    aligned to the filtration.

    Class coordinates are the normal words of the ideal's rows, and a word
    reduces to its normal form, kept once in the ideal's memo.  The
    filtration layer F_d is spanned exactly by the class words of length
    <= d, so fdeg of a class vector is the top length in its support.
    """

    def __init__(self, gens, degree, ideal):
        self.gens = tuple(gens)
        self.degree = degree
        self.ideal = ideal
        self.class_words = ideal.normal_words(len(self.gens), degree)
        self.class_index = {w: i for i, w in enumerate(self.class_words)}

    @property
    def dim(self):
        return len(self.class_words)

    def dim_upto(self, d):
        return sum(1 for w in self.class_words if len(w) <= d)

    def unit(self):
        return {(): 1}

    def reduce_word(self, w):
        if w in self.class_index:
            return {w: 1}
        r = self.ideal.memo.get(w)
        return dict(r) if r is not None else self.ideal.reduce_vec({w: 1})

    def reduce(self, vec):
        """Word-keyed vector -> canonical class vector."""
        out = {}
        for w, c in vec.items():
            vec_add_scaled(out, self.reduce_word(w), c)
        return out

    def fdeg(self, cv):
        return max(map(len, cv), default=0)

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

    def extend_by(self, rows):
        """Quotient by the two-sided ideal generated by this quotient's
        ideal and the word-keyed ``rows`` of degree <= D: the presented
        quotient of this ideal's rows together with the added ones.  Its
        ``stabilized`` is checked afresh, so it is a proof for the new
        ideal whatever this quotient's certificate says.  With no rows the
        ideal is this one, and so is the quotient.

        With the kernel-product rows A·B (:func:`subspace_product`) this
        is checked on each input, not proven: no count of the quotient's
        dimension is known for a general crossed module.  On the corpus,
        its rebased copies and the hemisemidirect families every such
        quotient resolves in the one pass."""
        if not rows:
            return self
        return presented(self.gens, self.ideal.rows + tuple(rows),
                         self.degree)


def presented(gens, relations, degree):
    """The presented quotient of the free algebra on gens, truncated at
    degree, by the relations (word-keyed vectors): its ideal is
    :func:`ideal_span` of them, certified by one diamond-lemma pass."""
    return TruncQuotAlgebra(gens, degree, ideal_span(relations, degree))


def letter_classes(dst, f, off=0):
    """The columns of a linear map f as classes in dst of combinations of
    its letters: column j, a combination of the e_k, goes to the class of
    that combination of the letters off + k."""
    return [dst.reduce({(off + k,): c for k, c in f.col(j).items()})
            for j in range(f.cols)]


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

    Verifies that the word-wise extension kills the rows of src's ideal,
    and so its span when dst is associative (certified; see
    :class:`TruncIdeal`); raises HomomorphismError naming a violated
    generator's leading word otherwise.  Returns a LinearMap on class
    coordinates.
    """
    if len(gen_images) != len(src.gens):
        raise ValueError("need one image per generator")
    for img in gen_images:
        if dst.fdeg(img) > 1:
            raise ValueError("generator image must have fdeg <= 1")
    image = word_fold(gen_images, dst.mult, dst.unit())
    for gen in src.ideal.rows:
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


def subspace_product(a_rows, b_rows):
    """The degree-two generators A·B of the product I·J of two ideals of a
    presented quotient quot, generated in degree one: the products a·b =
    sum of a_x b_y (x, y), word-keyed, for a and b the rows of A = I ∩ F_1
    and B = J ∩ F_1, class vectors of quot.  Completed with quot's ideal
    (``extend_by``), they give the quotient by I·J, and by I·J + J·I for
    the kernels of a cat¹ envelope.

    I and J are the kernels Ker s, Ker t of algebra maps s, t from quot to
    a target with a common section σ, an algebra map that sends the target
    generators to section letters of quot (so s∘σ = t∘σ = id).  Let A and B
    be I ∩ F_1 and J ∩ F_1, and E the words.

    I·J = ⟨A·E·B⟩.  Take for letters the section letters and a basis of A.
    An x in I ∩ F_k is a sum of words of length <= k in them; the words in
    section letters alone sum to σ(y) for some y, and s kills every other
    word, so y = s(x) = 0 and x is a sum of u·a·v with a in A and
    |u| + 1 + |v| <= k.  So a product of I and J is a sum of u·a·w·b·v.

    E·B ⊆ B·E + B.  For quot = UL(q ⋊ p), t is UL of a Leibniz map, so
    Ker t ∩ (q ⋊ p) is a two-sided Leibniz ideal and B is its l-copy plus
    its r-copy.  For a letter z and u in that ideal the relations of
    ``envelope.ul_relations`` give

        z_r u_r = u_r z_r + [z,u]_r        z_r u_l = u_l z_r - [u,z]_l
        z_l u_r = u_r z_l + [z,u]_l        z_l u_l = -z_r u_l

    with [z,u] and [u,z] in the ideal again.  For U(h ⋊ g), the top row of
    ``lm``, Ker t is a Lie ideal and zu = uz + [z,u].  By induction on
    |w|, w·b is a sum of b'·w' with b' in B and |w'| <= |w|, so
    a·w·b is in ⟨A·B⟩ and I·J = ⟨A·B⟩; the same holds for J·I with A.

    B·A lies in span(A·B) when s and t are induced by the two maps of a
    cat¹ algebra (q ⋊ p for a crossed module, h ⋊ g for ``lm``).  There
    [Ker s, Ker t] = [Ker t, Ker s] = 0, so for b in B and a in A the
    relations above give

        b_r a_r = a_r b_r      b_r a_l = a_l b_r
        b_l a_r = a_r b_l      b_l a_l = -a_l b_r

    and in U(h ⋊ g) ba = ab.  So I·J + J·I = ⟨A·B⟩.  These identities hold
    in the envelope itself, not only below a degree, so when quot's rows
    with A·B resolve (``stabilized``) the quotient is the one by I·J + J·I
    exactly at each degree <= D.
    """
    def times(a, b):
        out = {}
        for x, c in a.items():
            vec_add_scaled(out, {x + y: d for y, d in b.items()}, c)
        return out

    return [times(va, vb) for va in a_rows for vb in b_rows]
