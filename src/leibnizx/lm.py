"""The tensor category of linear maps and the enveloping construction
inside it.

Objects are linear maps (M -> g); a Lie object is such a map with g a Lie
algebra, M a right g-module and the map equivariant.  A Leibniz algebra p
embeds as the Lie object L(p) = (p -> Liez(p)) (Loday–Pirashvili, Math.
Ann. 296, 1993).  A Leibniz crossed module is a cat¹ algebra (q ⋊ p, s,
t), so the envelope is built on the carrier L(q ⋊ p), checked once as a
Lie object (:func:`leibniz_to_lm`), with L(s), L(t): L(q ⋊ p) -> L(p).

The enveloping functor sends a Lie object to (U(g) ⊗ M -> U(g)) with

    g(x ⊗ m) = gx ⊗ m        (x ⊗ m)g = xg ⊗ m + x ⊗ [m,g]

and the carrier with L(s), L(t) to a crossed module of associative
algebras in this category, via the kernels of the induced cat¹
projections modulo the kernel-product ideals X' (top) and Y' (bottom).
Every algebra here is a presented algebra (``freealg.presented``),
certified like every other quotient.  The pair algebra (U ⊗ M) ⊕ U of a
Lie object, with (a, r)(a', r') = (alpha(a)a' + ar' + ra', rr'), is one
(:func:`pair_algebra`): it is the target row, and theta's codomain.  The
top row is the plain construction run on U(Liez(q ⋊ p)): it is built by
``xul.kernel_product_quotient``, the function the enveloping crossed
module uses, and the report degree follows the same rule.  The whole
source row is one presented algebra, the square-zero extension of the top
by the bottom (U ⊗ V)/Y', with the pair algebra's letters and alpha = 0.
"""

from dataclasses import dataclass, field

from .linalg import LinearMap, lincomb, vec_add_scaled
from .freealg import (HomomorphismError, TruncQuotAlgebra, induced_map,
                      presented)
from .leibniz import LeibnizAlgebra, basis_vec, liezation, semidirect
from .xmod import cat1_matrices
from .xul import (combine_verdict, kernel_product_quotient, report_degree_for,
                  xul)


# ---------------------------------------------------------------------------
# objects and the tensor product


@dataclass(frozen=True)
class LMLieObject:
    """Lie algebra in the category: a linear map alpha from the bottom to a
    Lie algebra, the top; the bottom is a right module over the top, and
    alpha is equivariant."""

    alpha: LinearMap   # bottom -> top
    lie: LeibnizAlgebra
    right_mats: tuple  # per top-basis LinearMap bottom -> bottom, m -> [m,g_k]

    def __post_init__(self):
        if self.alpha.rows != self.lie.dim:
            raise ValueError("structure map has the wrong shape")

    @property
    def bottom_dim(self):
        return self.alpha.cols

    def right(self, gvec):
        return lincomb(self.right_mats, gvec, self.bottom_dim, self.bottom_dim)


def check_lm_lie_object(L):
    bad = []
    bad += [("leibniz",) + v[:2] for v in L.lie.check_leibniz()]
    if not L.lie.is_lie():
        bad.append(("not_lie",))
    g = L.lie
    R = L.right_mats
    for i in range(g.dim):
        for j in range(g.dim):
            # [m,[g_i,g_j]] = [[m,g_i],g_j] - [[m,g_j],g_i]
            if L.right(g.product_basis(i, j)) != \
                    R[j].compose(R[i]).add(R[i].compose(R[j]).scale(-1)):
                bad.append(("module", (i, j)))
        # alpha([m,g_i]) = [alpha(m), g_i]
        adj = LinearMap.from_cols(
            g.dim, [g.product_basis(k, i) for k in range(g.dim)])
        if L.alpha.compose(R[i]) != adj.compose(L.alpha):
            bad.append(("equivariance", i))
    return bad


# ---------------------------------------------------------------------------
# Leibniz algebras as Lie objects in the category


def _quotient_action(bracket_right, proj):
    """Right action of a quotient on a space, through the lifts of its
    basis, the complement pivots of Ker proj; the kernel must act as zero
    on the nose."""
    ker = proj.kernel()
    for r in ker.rows:
        if not bracket_right(r).is_zero():
            raise ValueError("right action does not descend to the quotient")
    return tuple(bracket_right(basis_vec(c)) for c in ker.complement_pivots())


def _leibniz_object(p, lie, proj):
    """(p -> lie) for a quotient map proj of p onto a Lie algebra lie, with
    the right action induced by the bracket, unchecked."""
    def right_by(v):
        return LinearMap.from_cols(
            p.dim, [p.product(basis_vec(a), v) for a in range(p.dim)])

    return LMLieObject(proj, lie, _quotient_action(right_by, proj))


def _liezed(f, src, dst):
    """L(f) on the tops: dst.alpha ∘ f on the lifts of src's top basis, the
    complement pivots of Ker src.alpha (as in :func:`_quotient_action`),
    for a linear map f of the bottoms that maps Ker src.alpha into Ker
    dst.alpha."""
    lifts = src.alpha.kernel().complement_pivots()
    return LinearMap.from_cols(dst.lie.dim,
                               [dst.alpha.apply(f.col(c)) for c in lifts])


def leibniz_to_lm(p):
    """(p -> Liez(p)) with the right action induced by the bracket."""
    out = _leibniz_object(p, *liezation(p))
    bad = check_lm_lie_object(out)
    if bad:
        raise ValueError("Leibniz embedding fails Lie-object checks: %r"
                         % bad[:3])
    return out


# ---------------------------------------------------------------------------
# enveloping algebra in the category


def lie_relations(g):
    """x_i x_j - x_j x_i - [x_i, x_j] for a Lie algebra, as word-keyed
    vectors."""
    rels = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            br = {(k,): v for k, v in g.product_basis(i, j).items()}
            rels.append(vec_add_scaled({(i, j): 1, (j, i): -1}, br, -1))
    return rels


def u_lie(g, degree):
    """Truncated universal enveloping algebra of a Lie algebra.

    Its certificate holds for every Lie algebra and every basis.  Under
    :func:`freealg.word_key` the rows of :func:`lie_relations` lead with
    x_i x_j for i < j, each once, and no other word of a row contains one,
    so interreduction keeps them and the normal words are the words with
    non-increasing letters.  The only ambiguities are the overlaps
    x_i x_j x_k with i < j < k, and the Jacobi identity resolves each
    (Bergman, Adv. Math. 29, 1978, §3: the PBW theorem)."""
    return presented(g.basis, lie_relations(g), degree)


def _shift_vec(cv, off):
    """A word-keyed vector with every letter shifted by off: g-letters into
    the g-block of a semidirect product, or an enveloping algebra's letters
    past the module letters of a pair algebra."""
    return {tuple(g + off for g in w): c for w, c in cv.items()}


def _pair_relations(U, right_mats, alpha_cols):
    """The relations of the pair algebra (U ⊗ V) ⊕ U in its letters, the
    v_k of V first and then U's: U's rows, v_k x_g - x_g v_k - [v_k, g]
    and v_k v_l - alpha(v_k)·v_l.  right_mats[g] is the right action of
    U's letter g on V, alpha_cols[k] is alpha(v_k) in U's letters."""
    nv = len(alpha_cols)
    rels = [_shift_vec(r, nv) for r in U.ideal.rows]
    for g, mat in enumerate(right_mats):
        for k in range(nv):
            rels.append(vec_add_scaled(
                {(k, nv + g): 1, (nv + g, k): -1},
                {(l,): c for l, c in mat.col(k).items()}, -1))
    rels += [vec_add_scaled({(k, l): 1}, {(nv + j, l): c for j, c in
                                          alpha_cols[k].items()}, -1)
             for k in range(nv) for l in range(nv)]
    return rels


def pair_algebra(L, U):
    """The pair algebra (U ⊗ V) ⊕ U of a Lie object L = (V -> g), for U an
    enveloping algebra of g (U(g), or U(Liez(q ⋊ p)) for the carrier), with
    (a, r)(a', r') = (alpha(a)a' + ar' + ra', rr'), as one presented
    algebra (:func:`_pair_relations`).

    Under :func:`freealg.word_key` v_k x_g leads over x_g v_k, and v_k v_l
    over x_j v_l, so the normal words are U's class words x, the pairs
    (0, x), and the words x·v_k, the pairs (x ⊗ v_k, 0) of filtration
    degree |x| + 1.  A word x·v_k·y reduces to (x ⊗ v_k)·y by the module
    rule, and x·v_k·v_l to x·alpha(v_k)·v_l, so the product of class words
    is the pair product once alpha(a·y) = alpha(a)·y.  That holds as alpha
    is equivariant (``check_lm_lie_object``, and :func:`_leibniz_object`
    for a Leibniz algebra): alpha((x ⊗ v)g) = x·(g·alpha(v) + [alpha(v),
    g]) = x·alpha(v)·g.  So the connecting map
    x ⊗ v -> x·alpha(v) is a bimodule map and needs no check of its own.

    Its certificate holds for U = U(g) (:func:`u_lie`), the only U it is
    built on.  Each of U's leading words, v_k x_g and v_k v_l leads one
    relation, and no other word of a relation contains one, so
    interreduction keeps them, and the normal words are x and x·v_k as
    above, for x the normal words of U, a basis of U.  The pair product
    is associative, since U ⊗ V is a U-bimodule and alpha a bimodule
    map.  The algebra map from the presented algebra that sends x_g to
    (0, g) and v_k to (1 ⊗ v_k, 0) kills the relations, as (1 ⊗ v_k)g =
    g ⊗ v_k + 1 ⊗ [v_k,g] and (1 ⊗ v_k)(1 ⊗ v_l) = alpha(v_k) ⊗ v_l, and
    it sends x to (0, x) and x·v_k to (x ⊗ v_k, 0), a basis of
    (U ⊗ V) ⊕ U.  So the normal words, which span the presented algebra,
    are a basis of it, and by the diamond lemma (Bergman, Adv. Math. 29,
    1978, Thm. 1.2) every ambiguity resolves."""
    alpha = [L.alpha.col(k) for k in range(L.bottom_dim)]
    gens = tuple("m%d" % k for k in range(L.bottom_dim)) + U.gens
    return presented(gens, _pair_relations(U, L.right_mats, alpha),
                     U.degree)


# ---------------------------------------------------------------------------
# enveloping crossed module in the category


def _on_first(f, n):
    """f on its first n source coordinates: on F_k of a length-first
    basis for n = dim_upto(k)."""
    return LinearMap.from_cols(f.rows, [f.col(j) for j in range(n)])


class TensorBimodule:
    """The bottom of a presented algebra P whose letters below nv are
    module letters: its class words x·v that end in one, in P's class-word
    order, as a bimodule over the rest.  That order is length-first, so a
    word's fdeg is its length and F_k is spanned by the first dim_upto(k)
    coordinates.  For a pair algebra (:func:`pair_algebra`) this is U ⊗
    V, and for ``sq`` (:func:`lm_xmod_envelope`) (U ⊗ V)/Y' over the top.
    Every product is P's, a right product letter by letter: (x ⊗ v)g = xg
    ⊗ v + x ⊗ [v,g].  ``perfbench/tracing.py`` times left_mult and
    right_mult_gen as the bottom products."""

    def __init__(self, P, nv):
        self.P, self.nv = P, nv
        self.words = tuple(w for w in P.class_words if w and w[-1] < nv)
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self):
        return len(self.words)

    def dim_upto(self, d):
        return sum(1 for w in self.words if len(w) <= d)

    def from_coords(self, v):
        return {self.words[i]: c for i, c in v.items()}

    def to_coords(self, cv):
        return {self.index[w]: c for w, c in cv.items()}

    def left_mult(self, ucls, bvec, bound):
        return self.to_coords(self.P.mult(
            _shift_vec(ucls, self.nv), self.from_coords(bvec), bound))

    def right_mult_gen(self, bvec, g, bound):
        return self.to_coords(self.P.mult(
            self.from_coords(bvec), {(self.nv + g,): 1}, bound))

    def right_mult(self, bvec, ucls, bound):
        out = {}
        for w, c in ucls.items():
            tmp = bvec
            for g in w:
                tmp = self.right_mult_gen(tmp, g, bound)
            vec_add_scaled(out, tmp, c)
        return out


@dataclass(frozen=True)
class LMAssocXMod:
    """Truncated enveloping crossed module in the category: kernels of the
    induced s-maps modulo the kernel-product ideals, with the t-maps as
    boundaries and xi-maps per the tensor formulas.

    Every bottom product is a product in ``sq`` (see
    :func:`lm_xmod_envelope`), whose letters are the basis of V = q ⊕ p
    and then those of L = Liez(q ⋊ p); a bottom vector is in ``bottom``'s
    coordinates.  The target row is the pair algebra of L(p) = (p -> g),
    g = Liez(p), over U(g) (:func:`pair_algebra`), and a vector of its
    bottom U(g) ⊗ p is in ``target_bottom``'s coordinates."""

    dst: LMLieObject            # L(p) = (p -> g)
    ug: TruncQuotAlgebra        # U(g)
    target: TruncQuotAlgebra    # (U(g) ⊗ p) ⊕ U(g)
    target_bottom: TensorBimodule  # its words x·m
    carrier: LMLieObject    # L(q ⋊ p) = (V -> L)
    usd: TruncQuotAlgebra   # U(L), before the kernel-product quotient
    top: TruncQuotAlgebra   # U(L) / X'
    sq: TruncQuotAlgebra    # top ⋉ (U(L) ⊗ V)/Y'
    bottom: TensorBimodule  # sq's words x·v
    connect: LinearMap      # bottom -> top class coords, x·v -> x·alpha(v)
    us1: LinearMap          # bottom -> target bottom
    ut1: LinearMap
    us2: LinearMap          # top -> U(g) classes
    ut2: LinearMap
    emb: LinearMap          # U(g) classes -> top classes
    report_degree: int
    certificates: dict = field(default_factory=dict)

    def r_on_top(self, ug_cls):
        """A U(g) class as a top class through the p-block embedding."""
        return self.top.from_coords(
            self.emb.apply(self.ug.to_coords(ug_cls)))

    def _section_terms(self, avec):
        """(emb(x), (0, m_k), c) as words of sq for each term c·x·m_k of a
        target-bottom vector: the target's letters of U(g) go to the
        p-block of L in sq, m_k to the p-block of V."""
        n_dim = self.carrier.bottom_dim - self.dst.bottom_dim
        off = n_dim + self.carrier.lie.dim - self.dst.lie.dim
        for w, c in self.target_bottom.from_coords(avec).items():
            yield (tuple(g + off for g in w[:-1]), (n_dim + w[-1],), c)

    def section(self, avec):
        """x ⊗ m -> class of emb(x) ⊗ (0, m): the s-section of the
        bottom row."""
        out = {}
        for x, m, c in self._section_terms(avec):
            vec_add_scaled(out, self.sq.reduce_word(x + m), c)
        return self.bottom.to_coords(out)

    def xi1(self, avec, top_cls, bound):
        """xi1(x ⊗ m, s) = emb(x) · ((1 ⊗ (0,m)) · s)."""
        s, out = _shift_vec(top_cls, self.carrier.bottom_dim), {}
        for x, m, c in self._section_terms(avec):
            r = self.sq.mult({m: 1}, s, bound - len(x))
            vec_add_scaled(out, self.sq.mult({x: c}, r, bound), 1)
        return self.bottom.to_coords(out)

    def xi2(self, top_cls, avec, bound):
        """xi2(s, x ⊗ m) = (s · emb(x)) ⊗ (0, m)."""
        s, out = _shift_vec(top_cls, self.carrier.bottom_dim), {}
        for x, m, c in self._section_terms(avec):
            prod = self.sq.mult(s, {x: c}, bound - 1)
            vec_add_scaled(out, self.sq.mult(prod, {m: 1}, bound), 1)
        return self.bottom.to_coords(out)

    def pair_map(self, f1, f2):
        """f1 on sq's bottom words and f2 on its top words, as one map of
        class coordinates from sq into the target: (us1, us2) or (ut1, ut2)
        on pairs."""
        nv, cols = self.carrier.bottom_dim, []
        for w in self.sq.class_words:
            if w in self.bottom.index:
                v = self.target_bottom.from_coords(
                    f1.col(self.bottom.index[w]))
            else:
                v = _shift_vec(self.ug.from_coords(f2.col(
                    self.top.class_index[tuple(g - nv for g in w)])),
                    self.target_bottom.nv)
            cols.append(self.target.to_coords(v))
        return LinearMap.from_cols(self.target.dim, cols)

    def kernel_generators(self):
        """(k_s, K_2): the canonical rows of Ker us2 ∩ F_1 in top
        coordinates and of Ker us1 ∩ F_2 in bottom coordinates, the
        kernels of us2 and us1 on their first dim_upto(1) and dim_upto(2)
        coordinates; they generate both kernels
        (:func:`check_lm_assoc_xmod`)."""
        return (_on_first(self.us2, self.top.dim_upto(1)).kernel().rows,
                _on_first(self.us1, self.bottom.dim_upto(2)).kernel().rows)

    def b_ker_dim_upto(self, d):
        """dim Ker us1 ∩ F_d: F_d is the first bottom.dim_upto(d)
        coordinates, as ``TensorBimodule`` is length-first."""
        n = self.bottom.dim_upto(d)
        return n - _on_first(self.us1, n).rank()


def lm_xmod_envelope(x, degree, report_degree=None):
    """Build the truncated enveloping crossed module in the category of a
    Leibniz crossed module x, which its callers check
    (``xul.require_xmod``).

    The carrier is L(q ⋊ p) = (V -> L), V = q ⊕ p and L = Liez(q ⋊ p),
    checked as a Lie object (:func:`leibniz_to_lm`); the target is L(p) =
    (p -> g), g = Liez(p), a Lie object as p is Leibniz.  s(q,p) = p and
    t(q,p) = η(q) + p are s1, t1 on V, and s2, t2 are their Liezations
    L(s), L(t) (:func:`_liezed`).  Ker alpha = Leib(q ⋊ p) is
    block-diagonal, as a square (u,v)² differs from (0,v²) by an element
    of q; so its complement pivots, the lifts of L's basis, are the
    q-block's first and then those of g, and g's letters are the last
    dim g letters of L: the section of s2 and t2.

    (L(q ⋊ p), s, t) is a cat¹ Lie object.  s and t are Leibniz maps, as x
    passes ``check_xmod``, so they map Leib(q ⋊ p) = Ker alpha into
    Leib(p): s2 and t2 are well defined, and s1, t1 are equivariant over
    them.  Ker s2 = alpha(Ker s), as Leib(p) = s(σ(Leib p)) for the section
    σ, so [Ker s2, Ker t2] = alpha([Ker s, Ker t]) = 0 by CLb2.  Right
    brackets with squares vanish in a Leibniz algebra, so [Ker s1, Ker t2]
    = [Ker s, Ker t] = 0, and likewise with s and t exchanged.

    The top row is U(L) / X' as a presented quotient whose one-pass
    certificate is ``kernel_product_stabilized`` (see
    :func:`freealg.subspace_product`), so it is proven when that holds.
    The target row is the pair algebra of L(p) over U(g)
    (:func:`pair_algebra`), certified with U(g) (``u_g_stabilized``).

    The source row is one presented algebra sq, the square-zero extension
    top ⋉ (U ⊗ V)/Y' for U = U(L).  Its letters and relations are those
    of the carrier's pair algebra over the top with alpha = 0
    (:func:`_pair_relations`: v_k for the basis of V, then the letters of
    L; the top's rows, v_k x_g - x_g v_k - [v_k, g] as (x ⊗ v)g = xg ⊗ v
    + x ⊗ [v,g], and v_k v_l), and the seeds of Y'.
    The normal words are top class words x and words x·v_k.  The
    relations but the seeds present top ⋉ (top ⊗ V), and in a square-zero
    algebra the ideal that elements of V-degree one generate is the
    sub-bimodule they generate.  So when sq's rows resolve, the words
    x·v_k are a basis of (U ⊗ V)/Y', and sq's certificate joins
    ``kernel_product_stabilized``: Y' is a kernel-product ideal like X'.
    Like X' (:meth:`freealg.TruncQuotAlgebra.extend_by`), sq is checked on
    each input, not proven: no count of its dimension is known in general.

    Let Ks1, Kt1 be the kernels of the bottom maps U(s2) ⊗ s1, U(t2) ⊗ t1
    and Ks2, Kt2 those of s2, t2 on U.  Y' = Ks1·Kt2 + Ks2·Kt1 + Kt1·Ks2 +
    Kt2·Ks1 is the sub-bimodule generated by the seeds g0·a for g0 in a
    generating set G of Ks1 and a in the degree-one rows k_t of Kt2, and
    the same with s and t exchanged.  Kt2 = U·k_t = k_t·U, as x·a = a·x +
    [x,a] and k_t is a Lie ideal, and Ker(f ⊗ g) = Ker f ⊗ V + U ⊗ Ker g,
    so Ks1 = U·G for G the a ⊗ v_k (a in k_s) and the 1 ⊗ n (n in
    Ker s1).  For x, y in U and b in Kt2, x·g0·y·b = x·g0·(y·b) and
    b·x·g0·y = (b·x)·g0·y lie in the sub-bimodule of the g0·a and a·g0.
    X' ⊗ V lies in Y': a·b·v = a·(b·v) with b·v in Kt1, v·a·b = (v·a)·b
    with v·a in Ks1, for a in Ks2 and b in Kt2.  A seed longer than D is
    left out, as ``presented`` takes no relation beyond its degree.

    The a·g0 lie in the span of the seeds of both families, so they are
    not seeds themselves.  The carrier is a cat¹ Lie object (above):
    [Ker t2, Ker s2] = 0 in L, and [n, a] = 0 for n in Ker s1, a in Ker
    t2, and for n in Ker t1, a in Ker s2.  In sq a·v = v·a - [v,a] for a
    in L and v in V.  For g0 = 1 ⊗ n, n in Ker s1: a·g0 = g0·a - [n,a]
    = g0·a.  For g0 = x ⊗ v, x in k_s: a·x = x·a as [a,x] = 0, so a·g0 =
    x·v·a - x·n' = g0·a - x·n' with n' = [v,a] in Ker t1 (t1[v,a] =
    [t1 v, t2 a] = 0), and x·n' = n'·x - [n',x] = n'·x, a seed of the
    exchanged family (1 ⊗ n' in its G, x in k_s).  All three have the
    degree of a·g0 or degree two, so none is left out below D.  The same
    holds with s and t exchanged.

    The seeds g0·a are computed on words x·v_k by the right action
    (x ⊗ v)a = xa ⊗ v + x ⊗ [v,a], with xa reduced in the top.  The s-map,
    the t-map and the connecting map are bimodule maps, so they vanish on
    Y' once they vanish on its seeds.
    """
    carrier = leibniz_to_lm(semidirect(x.action))
    dst = _leibniz_object(x.p, *liezation(x.p))
    report_degree = report_degree_for(degree, report_degree)

    usd = u_lie(carrier.lie, degree)
    Ug = u_lie(dst.lie, degree)
    target = pair_algebra(dst, Ug)
    mv = dst.bottom_dim
    target_bottom = TensorBimodule(target, mv)

    s1, t1 = cat1_matrices(x.eta)
    s2, t2 = (_liezed(f, carrier, dst) for f in (s1, t1))
    h_dim = carrier.lie.dim - dst.lie.dim

    def top_images(f):
        return [Ug.reduce({(j,): c for j, c in f.col(a).items()})
                for a in range(carrier.lie.dim)]

    kq = kernel_product_quotient(usd, Ug, top_images(s2), top_images(t2),
                                 [h_dim + j for j in range(dst.lie.dim)])
    top, nv = kq.quot, carrier.bottom_dim
    alpha = [top.reduce({(j,): c for j, c in carrier.alpha.col(k).items()})
             for k in range(nv)]

    def on_words(f):
        """f(x, k) extended linearly to the words x·v_k of sq."""
        def image(cv):
            out = {}
            for w, c in cv.items():
                vec_add_scaled(out, f(tuple(g - nv for g in w[:-1]), w[-1]),
                               c)
            return out
        return image

    def tensor_map(f2, f1):  # U(f2) ⊗ f1, as the target's class words y·m
        return on_words(lambda x, k: {
            tuple(g + mv for g in y) + (l,): cy * cl
            for y, cy in Ug.from_coords(f2.col(top.class_index[x])).items()
            for l, cl in f1.col(k).items()})

    bottom_maps = (
        (tensor_map(kq.bar_s, s1), target_bottom, "s-map does not vanish on"),
        (tensor_map(kq.bar_t, t1), target_bottom, "t-map does not vanish on"),
        (on_words(lambda x, k: top.mult({x: 1}, alpha[k])), top,
         "connecting map does not kill"))

    def right_act(vec, a):
        """(x ⊗ v)a = xa ⊗ v + x ⊗ [v,a] on words x·v_k, for a top class
        vector a of fdeg <= 1."""
        out = {}
        for w, c in vec.items():
            x, k = tuple(g - nv for g in w[:-1]), w[-1]
            for u, cu in a.items():
                vec_add_scaled(out, {
                    tuple(g + nv for g in y) + (k,): cy
                    for y, cy in top.reduce_word(x + u).items()}, c * cu)
                for g in u:
                    vec_add_scaled(out, {w[:-1] + (l,): cl for l, cl in
                                         carrier.right_mats[g].col(k).items()},
                                   c * cu)
        return out

    k_s, k_t = ([top.reduce(a) for a in rows]
                for rows in (kq.s_rows, kq.t_rows))
    seeds = []
    for f1, k_own, k_other in ((s1, k_s, k_t), (t1, k_t, k_s)):
        gens = [{tuple(g + nv for g in x) + (k,): c for x, c in a.items()}
                for a in k_own for k in range(nv)]
        gens += [{(l,): c for l, c in n.items()} for n in f1.kernel().rows]
        seeds += [right_act(g0, a) for g0 in gens
                  if top.fdeg(g0) < degree for a in k_other]
    for seed in seeds:
        for f, _, message in bottom_maps:
            if f(seed):
                raise ValueError(message + " the bottom ideal")

    sq = presented(tuple("v%d" % k for k in range(nv)) + usd.gens,
                   _pair_relations(top, carrier.right_mats, [{}] * nv) +
                   seeds, degree)
    bottom = TensorBimodule(sq, nv)
    us1, ut1, connect = (
        LinearMap.from_cols(cod.dim, [cod.to_coords(f({w: 1}))
                                      for w in bottom.words])
        for f, cod, _ in bottom_maps)
    return LMAssocXMod(
        dst, Ug, target, target_bottom, carrier, usd, top, sq, bottom, connect,
        us1, ut1, kq.bar_s, kq.bar_t, kq.embed, report_degree,
        {"u_semidirect_stabilized": usd.ideal.stabilized,
         "u_g_stabilized": Ug.ideal.stabilized and target.ideal.stabilized,
         "kernel_product_stabilized":
             top.ideal.stabilized and sq.ideal.stabilized})


def check_lm_assoc_xmod(Y):
    """The action and crossed-module identities of the enveloping object
    at the report degree d, on generators, with degree sums at most d;
    an induction gives every other pair of filtration rows.

    U(g), the target, the top and sq are presented algebras, associative
    when their rows resolve (the certificates); the target's
    connecting map is a bimodule map (:func:`pair_algebra`).  emb, us2 and
    ut2 are ``induced_map``s, so algebra maps, and ut2∘emb = id, as t2 is
    the identity on g's letters; us1, ut1 and the connecting map are
    bimodule maps over us2, ut2 and the top, as they are defined on the
    words x·v and kill Y' (:func:`lm_xmod_envelope`).  So Ker us2 is an
    ideal of the top and Ker us1 a sub-bimodule of the bottom.  Their
    generators k_s = Ker us2 ∩ F_1 and K_2 = Ker us1 ∩ F_2 are computed
    from the envelope's own maps (:meth:`LMAssocXMod.kernel_generators`).

    Two spanning statements carry the reductions; all degrees are at most
    d.  (S) Ker us2 ∩ F_k is spanned by the a·u and by the u·a for a in
    k_s and |u| <= k - 1 (the argument of :func:`freealg.subspace_product`
    with x·a = a·x + [x,a], as k_s is a Lie ideal).  (B) Ker us1 ∩ F_k is
    spanned by the x·b and by the b·x for b in K_2 and |x| + fdeg b <= k.
    Proof of (B): π(y ⊗ v) = y·v is a map of left top-modules from top ⊗
    V onto the bottom with kernel Y', and us1∘π = us2 ⊗ s1, as us1 is
    us2 ⊗ s1 on the words x·v and us2 ⊗ s1 kills Y'.  The bottom's class
    words x·v have top class words x, so π maps F_{k-1} ⊗ V onto F_k, and
    Ker us1 ∩ F_k = π(K) for K the kernel of us2 ⊗ s1 on F_{k-1} ⊗ V.
    The kernel of f ⊗ g on W ⊗ V is Ker(f on W) ⊗ V + W ⊗ Ker g, so K is
    spanned by the u·a ⊗ v (by (S)) and the x ⊗ n for n in N = Ker s1,
    and π(K) by the u·π(a ⊗ v) and x·π(1 ⊗ n), whose factors lie in K_2.
    For the right products, a top letter l and a b = y·v give l·b - b·l =
    π([l,y] ⊗ v - y ⊗ [v,l]), in Ker us1 ∩ F_{fdeg b}, so x·b - b·x lies
    in Ker us1 ∩ F_{k-1} for |x| + fdeg b <= k, and by induction on k the
    b·x span Ker us1 ∩ F_k too.

    - The U(g) side runs over the unit and the letters.  A class word r
      with |r| >= 1 is r'·g for its prefix r', a class word, and a letter
      g, and emb(r) = emb(r')·emb(g) (:func:`freealg.word_fold`).  So
      us2(emb(r)) = r (s2_section) holds for every r once it holds for the
      unit and the letters.  For s in Ker us2 ∩ F_{d-|r|}, by induction on
      |r|: emb(r)·s = emb(r')·(emb(g)·s) with emb(g)·s in Ker us2, so
      ut2(emb(r)·s) = r'·ut2(emb(g)·s) = r'·g·ut2(s); and s·emb(r) =
      (s·emb(r'))·emb(g) with s·emb(r') in Ker us2 ∩ F_{d-1}, so
      ut2(s·emb(r)) = ut2(s)·r'·g.  The same induction over Ker us1 gives
      t1_equivariance.
    - t2_equivariance runs s over k_s.  ut2 is multiplicative, so
      ut2(emb(g)·a·u) = ut2(emb(g)·a)·ut2(u) = g·ut2(a·u) and
      ut2(u·a·emb(g)) = ut2(u)·ut2(a)·g = ut2(u·a)·g, and (S) gives every
      s in Ker us2 ∩ F_{d-1}.
    - t1_equivariance runs b over K_2.  ut1 is a bimodule map over ut2, so
      ut1(emb(g)·b·x) = g·ut1(b)·ut2(x) = g·ut1(b·x) and ut1(x·b·emb(g)) =
      ut2(x)·ut1(b)·g = ut1(x·b)·g, and (B) gives every b.
    - xi1(x ⊗ m, s) = emb(x)·((1 ⊗ m)·s) = σ(x ⊗ m)·s and xi2(s, x ⊗ m) =
      s·σ(x ⊗ m) in sq, for σ the s-section; σ(r·y) = emb(r)·σ(y) and
      σ(y·r) = σ(y)·emb(r), as [(0,m), emb(g)] = (0, [m,g]).  So xi1(y,
      s)·s' = xi1(y, s·s'), s·xi2(s', y) = xi2(s·s', y) and s·xi1(y, s') =
      xi2(s, y)·s' restate associativity of sq, which its certificate
      proves; they are not checked.
    - The bridge identities run over the degree-one rows y = 1 ⊗ m and s
      in k_s.  Let z = xi1(1 ⊗ m, s), in Ker us1.  Then xi1(x ⊗ m, s) =
      emb(x)·z: its us1 is x·us1(z) = 0, its ut1 is x·ut1(z) = x·((1 ⊗
      m)·ut2(s)) = (x ⊗ m)·ut2(s) (t1_equivariance), and its connecting
      image is emb(x)·emb(alpha(m))·s = emb(x·alpha(m))·s.  And xi2(s, x ⊗
      m) = xi2(s', 1 ⊗ m) for s' = s·emb(x) in Ker us2 ∩ F_{ds+|x|}, with
      ut2(s') = ut2(s)·x (t2_equivariance): it lies in Ker us1, its ut1 is
      ut2(s)·x ⊗ m = ut2(s)·(x ⊗ m), and its connecting image is
      s'·emb(alpha(m)) = s·emb(x·alpha(m)).  For s = a·u with a in k_s,
      xi1(y, a·u) = xi1(y, a)·u, whose us1, ut1 and connecting image are
      those of xi1(y, a) times us2(u), ut2(u) and u on the right; for s =
      u·a, xi2(u·a, y) = u·xi2(a, y), the same on the left.  (S) gives
      every s in Ker us2 ∩ F_{d-1}.
    - peiffer_top runs both factors over k_s.  Each side of s·s2 =
      emb(ut2(s))·s2 is right top-linear in s2, and of s·s2 =
      s·emb(ut2(s2)) left top-linear in s, so by (S) the checks give (a -
      emb(ut2(a)))·s2 = 0 and s·(a - emb(ut2(a))) = 0 for a in k_s and s,
      s2 in Ker us2.  The top is generated by its letters, and F_1 of the
      top is the unit, emb(g) and k_s, as us2∘emb = id; x - emb(ut2(x)) is
      0 on the unit and on emb(g) (ut2∘emb = id).  For x = l·x' with l in
      F_1, x - emb(ut2(x)) = (l - emb(ut2(l)))·x' + emb(ut2(l))·(x' -
      emb(ut2(x'))), and x'·s2 is in Ker us2; so by induction on |x|, (x -
      emb(ut2(x)))·s2 = 0 for every x, and s·(x - emb(ut2(x))) = 0 from x
      = x'·l: both Peiffer identities on every pair.
    - peiffer_xi runs b over K_2 and s over k_s: xi1(ut1(b), s) = b·s and
      xi2(s, ut1(b)) = s·b read b·a = σ(ut1(b))·a and a·b = a·σ(ut1(b)) for
      b in K_2 and a in k_s, so by (S), with s = a·u and s = u·a, b·s =
      σ(ut1(b))·s and s·b = s·σ(ut1(b)) for every s in Ker us2.  For b·x:
      xi1(ut1(b·x), s) = σ(ut1(b)·ut2(x))·s = σ(ut1(b))·emb(ut2(x))·s,
      and (b·x)·s = b·(x·s) = σ(ut1(b))·x·s, equal by the top identity
      (x - emb(ut2(x)))·s = 0 above.  For x·b: s·(x·b) = (s·x)·b =
      s·x·σ(ut1(b)) and xi2(s, ut1(x·b)) = s·emb(ut2(x))·σ(ut1(b)), equal
      by s·(x - emb(ut2(x))) = 0.  (B) gives every b.
    """
    d = Y.report_degree
    Ug, top, tb, bottom = Y.ug, Y.top, Y.target_bottom, Y.bottom
    bad = []

    r_gens = [(len(w), {w: 1}, Y.r_on_top({w: 1}))
              for w in Ug.class_words if len(w) <= 1]
    a_rows = [(len(w), {i: 1}) for i, w in enumerate(tb.words)
              if len(w) <= d]
    s_gens, b_gens = Y.kernel_generators()
    k_s = []
    for v in s_gens:
        ts = Ug.from_coords(Y.ut2.apply(v))
        s = top.from_coords(v)
        k_s.append((top.fdeg(s), s, ts, Y.r_on_top(ts)))
    b_rows = [(max(len(bottom.words[i]) for i in v), v) for v in b_gens]

    # cat-style splittings of the two s-maps
    for dr, r, _ in r_gens:
        rc = Ug.to_coords(r)
        if Y.us2.apply(Y.emb.apply(rc)) != rc:
            bad.append(("s2_section", dr))
    for da, a in a_rows:
        if Y.us1.apply(Y.section(a)) != a:
            bad.append(("s1_section", da))

    # top row: boundary is equivariant, Peiffer products hold
    for ds, s, ts, ets in k_s:
        for ds2, a, _, _ in k_s:
            if ds + ds2 > d:
                continue
            if top.mult(s, a, d) != top.mult(ets, a, d):
                bad.append(("peiffer_top_left", (ds, ds2)))
            if top.mult(a, s, d) != top.mult(a, ets, d):
                bad.append(("peiffer_top_right", (ds2, ds)))
        for dr, r, rt in r_gens:
            if dr + ds > d:
                continue
            if Ug.from_coords(Y.ut2.apply(top.to_coords(
                    top.mult(rt, s, d)))) != Ug.mult(r, ts, d):
                bad.append(("t2_equivariance_left", (dr, ds)))
            if Ug.from_coords(Y.ut2.apply(top.to_coords(
                    top.mult(s, rt, d)))) != Ug.mult(ts, r, d):
                bad.append(("t2_equivariance_right", (dr, ds)))

    # bottom row: omega1 is an R-bimodule map into the A-carrier
    for db, b in b_rows:
        tbv = Y.ut1.apply(b)
        for dr, r, rt in r_gens:
            if dr + db > d:
                continue
            if Y.ut1.apply(bottom.left_mult(rt, b, d)) != \
                    tb.left_mult(r, tbv, d):
                bad.append(("t1_equivariance_left", (dr, db)))
            if Y.ut1.apply(bottom.right_mult(b, rt, d)) != \
                    tb.right_mult(tbv, r, d):
                bad.append(("t1_equivariance_right", (dr, db)))

    # bridge identities between the xi-maps and the boundaries
    for k in range(Y.dst.bottom_dim):
        a = {tb.index[(k,)]: 1}
        ca = Y.r_on_top(Ug.reduce(
            {(j,): c for j, c in Y.dst.alpha.col(k).items()}))
        for ds, s, ts, _ in k_s:
            if 1 + ds > d:
                continue
            x1 = Y.xi1(a, s, d)
            x2 = Y.xi2(s, a, d)
            if Y.us1.apply(x1) or Y.us1.apply(x2):
                bad.append(("xi_not_in_kernel", (1, ds)))
            if Y.ut1.apply(x1) != tb.right_mult(a, ts, d):
                bad.append(("xi1_boundary", (1, ds)))
            if Y.ut1.apply(x2) != tb.left_mult(ts, a, d):
                bad.append(("xi2_boundary", (1, ds)))
            if Y.connect.apply(x1) != top.to_coords(top.mult(ca, s, d)):
                bad.append(("xi1_connect", (1, ds)))
            if Y.connect.apply(x2) != top.to_coords(top.mult(s, ca, d)):
                bad.append(("xi2_connect", (1, ds)))

    # Peiffer identities tying the two rows together
    for db, b in b_rows:
        tbv = Y.ut1.apply(b)
        for ds, a, _, _ in k_s:
            if db + ds > d:
                continue
            if Y.xi1(tbv, a, d) != bottom.right_mult(b, a, d):
                bad.append(("peiffer_xi1", (db, ds)))
            if Y.xi2(a, tbv, d) != bottom.left_mult(a, b, d):
                bad.append(("peiffer_xi2", (db, ds)))
    return bad


# ---------------------------------------------------------------------------
# comparison with the plain enveloping crossed module


def theta_check(x, degree, report_degree=None):
    """Compare the enveloping crossed module of x with the associated
    crossed module of the categorical construction.

    The comparison map sends (q,p)_r to the degree-one class of the image
    of (q,p) in the Lie semidirect product and (q,p)_l to -1 ⊗ (q,p); the
    sign on the tensor generators pairs with the leftmost-factor-first
    module convention (see envelope), and is forced by the relation
    (y_r + y_l) x_l = 0.  The map must kill the presentation ideal, be
    filtration-bijective up to the report degree both before and after the
    kernel-product quotients, map the quotient ideal into its categorical
    counterpart, and intertwine the induced cat¹ maps.

    theta is ``freealg.induced_map`` from UL(q ⋊ p) into the pair algebra
    P = (U(L) ⊗ V) ⊕ U(L) of the carrier L(q ⋊ p) = (V -> L)
    (:func:`pair_algebra`), and on UL(p) into the target pair algebra.
    That check is exact.  A word-wise map into an associative algebra
    kills the ideal's span V_D once it kills the ideal's rows: V_D is
    spanned by the u·g·v of degree <= D for g in the rows, and their image
    is image(u)·image(g)·image(v) = 0.  P is associative when its rows
    resolve (Bergman's diamond lemma, Adv. Math. 29, 1978), so P's
    ``stabilized`` joins ``u_semidirect_stabilized``, as the target's joins
    ``u_g_stabilized``.  The defining relations get no check of their own:
    each is a combination of the interreduced rows, which lie in V_D.  When
    a row is not killed, theta is no map: ``relations_killed`` is false,
    the verdict fails, and the checks that need theta are left out of the
    record.

    P has sq's letters, so a class word of P is a word of sq, and theta's
    image in the quotient row is sq's class of it.  That projection is
    linear, not multiplicative: sq has alpha = 0.

    ``unit_ok`` cannot fail: ``induced_map`` sends the unit word to P's
    unit by construction (:func:`freealg.word_fold` starts its memo
    there).  It stays because the report's keys, and so the goldens,
    carry it.
    """
    d = report_degree_for(degree, report_degree)
    tx = xul(x, degree, report_degree=d)
    Y = lm_xmod_envelope(x, degree, report_degree=d)
    usd1, bar, sq = tx.ul_sd, tx.ambient, Y.sq
    P = pair_algebra(Y.carrier, Y.usd)

    certs = dict(Y.certificates)
    certs["u_semidirect_stabilized"] = \
        certs["u_semidirect_stabilized"] and P.ideal.stabilized
    certs.update({"ul_" + k: v for k, v in tx.certificates.items()})
    rec = {"name": "%s~%s" % (x.q.name, x.p.name), "degree": degree,
           "report_degree": d}
    dims = {"lhs_dim_upto_d": usd1.dim_upto(d),
            "bottom_dim_upto_d": Y.bottom.dim_upto(d),
            "top_dim_upto_d": Y.top.dim_upto(d),
            "certificates": certs}

    def images(alg, L):
        """-v_k for the l-letters, alpha(v_k) for the r-letters."""
        nv = L.bottom_dim
        return [{(k,): -1} for k in range(nv)] + \
            [alg.reduce({(nv + j,): c for j, c in L.alpha.col(k).items()})
             for k in range(nv)]

    try:
        theta = induced_map(usd1, P, images(P, Y.carrier))
        theta_p = induced_map(tx.ul_p, Y.target, images(Y.target, Y.dst))
    except HomomorphismError:
        return {**rec, "relations_killed": False, **dims,
                "verdict": combine_verdict(False, certs.values())}

    # filtration bijectivity before the kernel-product quotients
    n = usd1.dim_upto(d)
    unit_ok = theta.apply(usd1.to_coords(usd1.unit())) == \
        P.to_coords(P.unit())
    pre_dims_ok = all(usd1.dim_upto(k) == P.dim_upto(k)
                      for k in range(d + 1))
    pre_rank_ok = _on_first(theta, n).rank() == n

    # the quotient ideal lands in its categorical counterpart
    to_sq = LinearMap.from_cols(
        sq.dim, [sq.to_coords(sq.reduce_word(w)) for w in P.class_words])
    theta_bar = to_sq.compose(theta)
    x_maps_ok = not any(theta_bar.apply(r) for r in tx.pi.kernel().rows)

    # induced comparison on the quotients: filtration dims and rank,
    # and compatibility with the induced cat¹ maps
    quot_dims_ok = all(bar.dim_upto(k) == sq.dim_upto(k)
                       for k in range(d + 1))
    lm_s, lm_t = (Y.pair_map(f1, f2).compose(theta_bar)
                  for f1, f2 in ((Y.us1, Y.us2), (Y.ut1, Y.ut2)))
    qcols, morphism_ok = [], True
    for i, w in enumerate(bar.class_words[:bar.dim_upto(d)]):
        j = usd1.class_index[w]
        qcols.append(theta_bar.col(j))
        if lm_s.col(j) != theta_p.apply(tx.bar_s.col(i)) or \
                lm_t.col(j) != theta_p.apply(tx.bar_t.col(i)):
            morphism_ok = False
    quot_rank_ok = LinearMap.from_cols(sq.dim, qcols).rank() == len(qcols)

    ok = (unit_ok and pre_dims_ok and pre_rank_ok and x_maps_ok and
          quot_dims_ok and quot_rank_ok and morphism_ok)
    return {
        **rec,
        "unit_ok": unit_ok,
        "relations_killed": True,
        "pre_quotient_dims_equal": pre_dims_ok,
        "pre_quotient_bijective": pre_rank_ok,
        "ideal_mapped": x_maps_ok,
        "quotient_dims_equal": quot_dims_ok,
        "quotient_bijective": quot_rank_ok,
        "cat_maps_intertwined": morphism_ok,
        **dims,
        "verdict": combine_verdict(ok, certs.values()),
    }
