"""The tensor category of linear maps and the enveloping construction
inside it.

Objects are linear maps (M -> g); a Lie object is such a map with g a Lie
algebra, M a right g-module and the map equivariant.  A Leibniz algebra
embeds as (p -> Liez(p)), a Leibniz crossed module as the square

    q -> Liez(q)/[q,p]_x
    p -> Liez(p)

The enveloping functor sends a Lie object to (U(g) ⊗ M -> U(g)) with

    g(x ⊗ m) = gx ⊗ m        (x ⊗ m)g = xg ⊗ m + x ⊗ [m,g]

and a Lie crossed module to a crossed module of associative algebras in
this category, via the kernels of the induced cat¹ projections modulo the
kernel-product ideals X' (top) and Y' (bottom).  The top row is the
plain construction run on U(h ⋊ g): it is built by
``xul.kernel_product_quotient``, the function the enveloping crossed
module uses, and the report degree follows the same rule.  The whole source
row is one presented algebra, the square-zero extension of the top by the
bottom (U ⊗ V)/Y', completed like every other quotient.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .linalg import LinearMap, Subspace, lincomb, vec_add_scaled
from .freealg import (TruncQuotAlgebra, filtration_basis, presented,
                      word_fold)
from .leibniz import Action, LeibnizAlgebra, basis_vec, liezation, semidirect
from .xmod import LeibnizXMod, cat1_matrices, check_xmod, xliez
from .xul import (combine_verdict, kernel_product_quotient, report_degree_for,
                  xul)


# ---------------------------------------------------------------------------
# objects and the tensor product


@dataclass(frozen=True)
class LMObject:
    """A linear map bottom -> top."""

    bottom_dim: int
    top_dim: int
    alpha: LinearMap

    def __post_init__(self):
        if self.alpha.rows != self.top_dim or \
                self.alpha.cols != self.bottom_dim:
            raise ValueError("structure map has the wrong shape")


@dataclass(frozen=True)
class LMLieObject:
    """Lie algebra in the category: top is a Lie algebra, the bottom a
    right module over it, the structure map equivariant."""

    obj: LMObject
    lie: LeibnizAlgebra
    right_mats: tuple  # per top-basis LinearMap bottom -> bottom, m -> [m,g_k]

    @property
    def bottom_dim(self):
        return self.obj.bottom_dim

    @property
    def alpha(self):
        return self.obj.alpha

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
            if L.right(g.bracket_basis(i, j)) != \
                    R[j].compose(R[i]).add(R[i].compose(R[j]).scale(-1)):
                bad.append(("module", (i, j)))
        # alpha([m,g_i]) = [alpha(m), g_i]
        adj = LinearMap.from_cols(
            g.dim, [g.bracket_basis(k, i) for k in range(g.dim)])
        if L.alpha.compose(R[i]) != adj.compose(L.alpha):
            bad.append(("equivariance", i))
    return bad


@dataclass(frozen=True)
class LMLieXMod:
    """Crossed module of Lie algebras in the category: an arrow
    (rho1, rho2): (N, h) -> (M, g) with a right action of (M, g) on (N, h)
    given by g-actions on h and N together with xi: M ⊗ h -> N."""

    src: LMLieObject    # (N -> h)
    dst: LMLieObject    # (M -> g)
    rho1: LinearMap     # N -> M
    rho2: LinearMap     # h -> g
    act_h: tuple        # per g-basis LinearMap h -> h
    act_n: tuple        # per g-basis LinearMap N -> N
    xi: tuple           # per M-basis LinearMap h -> N

    def xi_of(self, mvec):
        return lincomb(self.xi, mvec, self.src.bottom_dim, self.src.lie.dim)

    def act_h_of(self, gvec):
        return lincomb(self.act_h, gvec, self.src.lie.dim, self.src.lie.dim)

    def act_n_of(self, gvec):
        return lincomb(self.act_n, gvec, self.src.bottom_dim,
                       self.src.bottom_dim)

    def top_xmod(self):
        """The classical Lie crossed module h -> g (left action is minus
        the right one)."""
        h, g = self.src.lie, self.dst.lie
        left = [[f.col(a) for a in range(h.dim)]
                for f in (m.scale(-1) for m in self.act_h)]
        right = [[f.col(a) for f in self.act_h] for a in range(h.dim)]
        return LeibnizXMod(h, g, self.rho2, Action(g, h, left, right))


def check_lm_lie_xmod(X):
    bad = []
    bad += [("src",) + v for v in check_lm_lie_object(X.src)]
    bad += [("dst",) + v for v in check_lm_lie_object(X.dst)]
    bad += [("top_xmod",) + v[:1] for v in check_xmod(X.top_xmod())]
    h, g = X.src.lie, X.dst.lie
    N = X.src.bottom_dim
    beta, alpha = X.src.alpha, X.dst.alpha
    for k in range(g.dim):
        for k2 in range(g.dim):
            # right g-module axiom on N
            if X.act_n_of(g.bracket_basis(k, k2)) != \
                    X.act_n[k2].compose(X.act_n[k]).add(
                        X.act_n[k].compose(X.act_n[k2]).scale(-1)):
                bad.append(("n_module", (k, k2)))
        # compatibility of the h- and g-actions on N through [h,g]
        for j in range(h.dim):
            lhs = X.act_n[k].compose(X.src.right_mats[j])
            rhs = X.src.right(X.act_h[k].col(j)).add(
                X.src.right_mats[j].compose(X.act_n[k]))
            if lhs != rhs:
                bad.append(("nh_compat", (j, k)))
        # beta equivariant for the g-actions
        if beta.compose(X.act_n[k]) != X.act_h[k].compose(beta):
            bad.append(("beta_equivariance", k))
    for i in range(X.dst.bottom_dim):
        # beta(xi(m,h)) = [alpha(m), h] = -[h, alpha(m)]
        if beta.compose(X.xi[i]) != X.act_h_of(alpha.col(i)).scale(-1):
            bad.append(("xi_beta", i))
        # rho1(xi(m,h)) = [m, rho2(h)]
        want = LinearMap.from_cols(
            X.dst.bottom_dim,
            [X.dst.right(X.rho2.col(j)).apply(basis_vec(i))
             for j in range(h.dim)])
        if X.rho1.compose(X.xi[i]) != want:
            bad.append(("xi_rho1", i))
        for k in range(g.dim):
            # [xi(m,h),g] = xi([m,g],h) + xi(m,[h,g])
            lhs = X.act_n[k].compose(X.xi[i])
            rhs = X.xi_of(X.dst.right_mats[k].col(i)).add(
                LinearMap.from_cols(
                    N, [X.xi[i].apply(X.act_h[k].col(j))
                        for j in range(h.dim)]))
            if lhs != rhs:
                bad.append(("xi_g", (i, k)))
        for j in range(h.dim):
            for j2 in range(h.dim):
                # xi(m,[h,h']) = [xi(m,h),h'] - [xi(m,h'),h]
                lhs = X.xi[i].apply(h.bracket_basis(j, j2))
                r1 = X.src.right_mats[j2].apply(X.xi[i].apply(basis_vec(j)))
                r2 = X.src.right_mats[j].apply(X.xi[i].apply(basis_vec(j2)))
                vec_add_scaled(lhs, r1, -1)
                vec_add_scaled(lhs, r2, 1)
                if lhs:
                    bad.append(("xi_hh", (i, j, j2)))
    for k in range(g.dim):
        # rho1 g-equivariant
        if X.rho1.compose(X.act_n[k]) != X.dst.right_mats[k].compose(X.rho1):
            bad.append(("rho1_equivariance", k))
    for j in range(h.dim):
        # [n,h] = xi(rho1(n), h) = [n, rho2(h)]
        peiffer = LinearMap.from_cols(
            N, [X.xi_of(X.rho1.col(a)).apply(basis_vec(j))
                for a in range(N)])
        if X.src.right_mats[j] != peiffer:
            bad.append(("peiffer_xi", j))
        if X.src.right_mats[j] != X.act_n_of(X.rho2.col(j)):
            bad.append(("peiffer_rho2", j))
    return bad


# ---------------------------------------------------------------------------
# Leibniz algebras and crossed modules as Lie data in the category


def _quotient_action(bracket_right, proj, dim):
    """Right action of a quotient on a space, through chosen lifts; the
    kernel must act as zero on the nose."""
    ker = proj.kernel()
    for r in ker.rows:
        if not bracket_right(r).is_zero():
            raise ValueError("right action does not descend to the quotient")
    comp = ker.complement_pivots()
    return tuple(bracket_right(basis_vec(c)) for c in comp)


def leibniz_to_lm(p):
    """(p -> Liez(p)) with the right action induced by the bracket."""
    Lp, projp = liezation(p)

    def right_by(v):
        return LinearMap.from_cols(
            p.dim, [p.bracket(basis_vec(a), v) for a in range(p.dim)])

    mats = _quotient_action(right_by, projp, p.dim)
    out = LMLieObject(LMObject(p.dim, Lp.dim, projp), Lp, mats)
    bad = check_lm_lie_object(out)
    if bad:
        raise ValueError("Leibniz embedding fails Lie-object checks: %r"
                         % bad[:3])
    return out


def xmod_to_lm(x):
    """The crossed-module square (q -> Liez(q)/[q,p]_x, p -> Liez(p)) of a
    crossed module x, which its callers check (``xul.require_xmod``).  The
    output is checked by its consumer, :func:`lm_xmod_envelope`."""
    xbar, proj_qbar, projp = xliez(x)
    q, p = x.q, x.p
    dst = leibniz_to_lm(p)
    h = xbar.q

    def q_right_by(v):
        return LinearMap.from_cols(
            q.dim, [q.bracket(basis_vec(a), v) for a in range(q.dim)])

    src_mats = _quotient_action(q_right_by, proj_qbar, q.dim)
    src = LMLieObject(LMObject(q.dim, h.dim, proj_qbar), h, src_mats)

    def n_right_by(v):
        return LinearMap.from_cols(
            q.dim, [x.action.right(basis_vec(a), v) for a in range(q.dim)])

    act_n = _quotient_action(n_right_by, projp, q.dim)
    act_h = tuple(
        LinearMap.from_cols(h.dim,
                            [xbar.action.right(basis_vec(a), basis_vec(k))
                             for a in range(h.dim)])
        for k in range(xbar.p.dim))

    # xi(m, hbar) = [m, lift of hbar] via the left action of p on q
    kq = proj_qbar.kernel()
    for r in kq.rows:
        for i in range(p.dim):
            if x.action.left(basis_vec(i), r):
                raise ValueError("xi does not descend to the Lie quotient")
    comp = kq.complement_pivots()
    xi = tuple(
        LinearMap.from_cols(q.dim,
                            [x.action.left(basis_vec(i), basis_vec(c))
                             for c in comp])
        for i in range(p.dim))

    return LMLieXMod(src, dst, x.eta, xbar.eta, act_h, act_n, xi)


# ---------------------------------------------------------------------------
# enveloping algebra in the category


def lie_relations(g):
    """x_i x_j - x_j x_i - [x_i, x_j] for a Lie algebra, as word-keyed
    vectors."""
    rels = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            br = {(k,): v for k, v in g.bracket_basis(i, j).items()}
            rels.append(vec_add_scaled({(i, j): 1, (j, i): -1}, br, -1))
    return rels


def u_lie(g, degree, slack=2):
    """Truncated universal enveloping algebra of a Lie algebra."""
    return presented(g.basis, lie_relations(g), degree, slack)


@dataclass(frozen=True)
class TensorBimodule:
    """Truncated U ⊗ V for U an enveloping algebra of a Lie algebra acting
    on V on the right.  The filtration degree of u ⊗ v is deg(u) + 1, so at
    working degree D the left factor carries classes of degree <= D - 1.

    Left multiplication only shifts the left factor; right multiplication
    by a degree-one element g is (x ⊗ v)g = xg ⊗ v + x ⊗ [v,g], extended to
    words generator by generator.  The product of a basis vector with a
    word or a generator is memoised as a column.
    """

    U: TruncQuotAlgebra
    module_dim: int
    right_bracket: tuple  # per U-generator LinearMap V -> V
    words: tuple = field(init=False)
    windex: dict = field(init=False)
    fdegs: tuple = field(init=False)
    # memoised columns: (word, flat) -> word·e_flat, (flat, g) -> e_flat·g
    _cols: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ws = tuple(w for w in self.U.class_words
                   if len(w) <= self.U.degree - 1)
        object.__setattr__(self, "words", ws)
        object.__setattr__(self, "windex",
                           {w: i for i, w in enumerate(ws)})
        object.__setattr__(self, "fdegs", tuple(
            len(w) + 1 for w in ws for _ in range(self.module_dim)))
        object.__setattr__(self, "_cols", {})

    @property
    def dim(self):
        return len(self.words) * self.module_dim

    def index(self, w, k):
        return self.windex[w] * self.module_dim + k

    def fdeg_index(self, flat):
        return self.fdegs[flat]

    def fdeg(self, vec):
        return max(map(self.fdegs.__getitem__, vec), default=0)

    def _at(self, ucls, k):
        """ucls ⊗ (k-th module basis vector), as bottom coordinates."""
        return {self.index(w, k): c for w, c in ucls.items()}

    def tensor(self, ucls, vvec):
        """Class vector ⊗ module vector, as bottom coordinates."""
        out = {}
        for w, c in ucls.items():
            vec_add_scaled(out, {self.index(w, k): cv
                                 for k, cv in vvec.items()}, c)
        return out

    def left_mult(self, ucls, bvec, bound):
        if self.U.fdeg(ucls) + self.fdeg(bvec) > bound:
            raise ValueError("product degree exceeds bound")
        out = {}
        for flat, c in bvec.items():
            for wa, ca in ucls.items():
                col = self._cols.get((wa, flat))
                if col is None:
                    wi, k = divmod(flat, self.module_dim)
                    col = self._cols[wa, flat] = self._at(
                        self.U.reduce_word(wa + self.words[wi]), k)
                vec_add_scaled(out, col, c * ca)
        return out

    def right_mult_gen(self, bvec, g, bound):
        if self.fdeg(bvec) + 1 > bound:
            raise ValueError("product degree exceeds bound")
        out = {}
        for flat, c in bvec.items():
            col = self._cols.get((flat, g))
            if col is None:
                wi, k = divmod(flat, self.module_dim)
                w = self.words[wi]
                col = self._cols[flat, g] = self._at(
                    self.U.reduce_word(w + (g,)), k)
                vec_add_scaled(col, {self.index(w, k2): cb for k2, cb in
                                     self.right_bracket[g].col(k).items()}, 1)
            vec_add_scaled(out, col, c)
        return out

    def right_mult(self, bvec, ucls, bound):
        if self.fdeg(bvec) + self.U.fdeg(ucls) > bound:
            raise ValueError("product degree exceeds bound")
        out = {}
        for w, c in ucls.items():
            tmp = bvec
            for g in w:
                tmp = self.right_mult_gen(tmp, g, bound)
            vec_add_scaled(out, tmp, c)
        return out


@dataclass(frozen=True)
class LMAssocObject:
    """The enveloping object (U(g) ⊗ M -> U(g)) of a Lie object."""

    L: LMLieObject
    bim: TensorBimodule
    connect: LinearMap  # bottom coordinates -> U class coordinates

    @property
    def U(self):
        return self.bim.U


def lm_assoc_object(L, U):
    """(U ⊗ M -> U) for a Lie object L and an enveloping algebra U of its
    top; the connecting map sends x ⊗ m to x·alpha(m)."""
    bim = TensorBimodule(U, L.bottom_dim, tuple(L.right_mats))
    alpha = [U.reduce({(j,): c for j, c in L.alpha.col(k).items()})
             for k in range(L.bottom_dim)]
    return LMAssocObject(L, bim, LinearMap.from_cols(U.dim, [
        U.to_coords(U.mult({w: 1}, alpha[k]))
        for w in bim.words for k in range(L.bottom_dim)]))


def u_lm(L, degree, slack=2):
    """Enveloping algebra in the category (:func:`lm_assoc_object` over
    U(g))."""
    return lm_assoc_object(L, u_lie(L.lie, degree, slack))


def check_lm_assoc_object(A, d):
    """The connecting map is a bimodule map, verified against degree-one
    multipliers on the filtration basis up to degree d."""
    bim, U = A.bim, A.U
    bad = []
    for flat in range(bim.dim):
        if bim.fdeg_index(flat) + 1 > d:
            continue
        b = {flat: 1}
        cb = U.from_coords(A.connect.apply(b))
        for g in range(len(bim.right_bracket)):
            gc = U.gen_class(g)
            lhs = U.from_coords(
                A.connect.apply(bim.left_mult(gc, b, d)))
            if lhs != U.mult(gc, cb, d):
                bad.append(("left", (g, flat)))
            rhs = U.from_coords(
                A.connect.apply(bim.right_mult_gen(b, g, d)))
            if rhs != U.mult(cb, gc, d):
                bad.append(("right", (g, flat)))
    return bad


# ---------------------------------------------------------------------------
# enveloping crossed module in the category


def _shift_vec(cv, off):
    """A word-keyed vector with every letter shifted by off: g-letters into
    the g-block of a semidirect product, or top letters into the
    square-zero algebra."""
    return {tuple(g + off for g in w): c for w, c in cv.items()}


class BottomBasis:
    """The bottom row's basis: the class words x·v of the square-zero
    algebra that end in a module letter (a letter below nv), in its
    class-word order.  That order is length-first, so a word's fdeg is its
    length and F_k is spanned by the first dim_upto(k) coordinates."""

    def __init__(self, sq, nv):
        self.words = tuple(w for w in sq.class_words if w and w[-1] < nv)
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


@dataclass(frozen=True)
class LMAssocXMod:
    """Truncated enveloping crossed module in the category: kernels of the
    induced s-maps modulo the kernel-product ideals, with the t-maps as
    boundaries and xi-maps per the tensor formulas.

    Every bottom product is a product in ``sq`` (see
    :func:`lm_xmod_envelope`), whose letters are the basis of V = N ⊕ M
    and then those of h ⋊ g; a bottom vector is in ``bottom``'s
    coordinates."""

    X: LMLieXMod
    target: LMAssocObject   # (U(g) ⊗ M -> U(g))
    carrier: LMLieObject    # (N ⊕ M -> h ⋊ g)
    usd: TruncQuotAlgebra   # U(h ⋊ g), before the kernel-product quotient
    top: TruncQuotAlgebra   # U(h ⋊ g) / X'
    top_proj: LinearMap     # usd class coords -> top class coords
    sq: TruncQuotAlgebra    # top ⋉ (U(h ⋊ g) ⊗ V)/Y'
    bottom: BottomBasis
    connect: LinearMap      # bottom -> top class coords, x·v -> x·alpha(v)
    us1: LinearMap          # bottom -> target bottom
    ut1: LinearMap
    us2: LinearMap          # top -> U(g) classes
    ut2: LinearMap
    emb: LinearMap          # U(g) classes -> top classes
    report_degree: int
    certificates: dict = field(default_factory=dict)

    # -- the bottom as a bimodule over the top, inside sq -------------------

    def _in_sq(self, top_cls):
        return _shift_vec(top_cls, self.carrier.bottom_dim)

    def left_mult(self, top_cls, wvec, bound):
        return self.bottom.to_coords(self.sq.mult(
            self._in_sq(top_cls), self.bottom.from_coords(wvec), bound))

    def right_mult(self, wvec, top_cls, bound):
        return self.bottom.to_coords(self.sq.mult(
            self.bottom.from_coords(wvec), self._in_sq(top_cls), bound))

    def bottom_class(self, bim, bvec):
        """The bottom class of a vector of U(h ⋊ g) ⊗ V, given in the
        coordinates of a TensorBimodule ``bim`` over usd or top."""
        nv = self.carrier.bottom_dim
        out = {}
        for flat, c in bvec.items():
            wi, k = divmod(flat, nv)
            vec_add_scaled(out, self.sq.reduce_word(
                tuple(g + nv for g in bim.words[wi]) + (k,)), c)
        return self.bottom.to_coords(out)

    def r_on_top(self, ug_cls):
        """A U(g) class as a top class through the g-block embedding."""
        return self.top.from_coords(
            self.emb.apply(self.target.U.to_coords(ug_cls)))

    def _section_terms(self, avec):
        """(emb(x), (0, m_k), c) as words of sq for each term c·x ⊗ m_k of
        a target-bottom vector."""
        tb = self.target.bim
        off = self.carrier.bottom_dim + self.X.src.lie.dim
        for flat, c in avec.items():
            wi, k = divmod(flat, tb.module_dim)
            yield (tuple(g + off for g in tb.words[wi]),
                   (self.X.src.bottom_dim + k,), c)

    def section(self, avec):
        """x ⊗ m -> class of emb(x) ⊗ (0, m): the s-section of the
        bottom row."""
        out = {}
        for x, m, c in self._section_terms(avec):
            vec_add_scaled(out, self.sq.reduce_word(x + m), c)
        return self.bottom.to_coords(out)

    def xi1(self, avec, top_cls, bound):
        """xi1(x ⊗ m, s) = emb(x) · ((1 ⊗ (0,m)) · s)."""
        s, out = self._in_sq(top_cls), {}
        for x, m, c in self._section_terms(avec):
            r = self.sq.mult({m: 1}, s, bound - len(x))
            vec_add_scaled(out, self.sq.mult({x: c}, r, bound), 1)
        return self.bottom.to_coords(out)

    def xi2(self, top_cls, avec, bound):
        """xi2(s, x ⊗ m) = (s · emb(x)) ⊗ (0, m)."""
        s, out = self._in_sq(top_cls), {}
        for x, m, c in self._section_terms(avec):
            prod = self.sq.mult(s, {x: c}, bound - 1)
            vec_add_scaled(out, self.sq.mult(prod, {m: 1}, bound), 1)
        return self.bottom.to_coords(out)

    # -- filtration bases ----------------------------------------------------

    @cached_property
    def b_filtration(self):
        """(degree, vector) basis of Ker us1 whose rows of degree <= k
        span Ker us1 ∩ F_k, sorted by degree."""
        return tuple((deg, self.bottom.to_coords(v)) for deg, v in
                     filtration_basis(self.bottom, self.us1.kernel()))

    def b_ker_filtration(self, d):
        return [(deg, v) for deg, v in self.b_filtration if deg <= d]

    def s_ker_filtration(self, d):
        return [(deg, self.top.to_coords(v))
                for deg, v in filtration_basis(self.top, self.us2.kernel(), d)]


def lm_semidirect_object(X):
    """(N ⊕ M -> h ⋊ g) as a Lie object: the carrier of the envelope."""
    x2 = X.top_xmod()
    sd = semidirect(x2.action)
    assert sd.is_lie()
    h, g = X.src.lie, X.dst.lie
    n_dim, m_dim = X.src.bottom_dim, X.dst.bottom_dim
    nv = n_dim + m_dim

    def vmat(j):
        # [(n,m), h_j] = ([n,h_j] + xi(m,h_j), 0)
        cols = [X.src.right_mats[j].col(a) for a in range(n_dim)]
        for i in range(m_dim):
            cols.append(dict(X.xi[i].col(j)))
        return LinearMap.from_cols(nv, cols)

    def vmat_g(k):
        cols = [X.act_n[k].col(a) for a in range(n_dim)]
        for i in range(m_dim):
            cols.append({n_dim + b: c
                         for b, c in X.dst.right_mats[k].col(i).items()})
        return LinearMap.from_cols(nv, cols)

    mats = tuple(vmat(j) for j in range(h.dim)) + \
        tuple(vmat_g(k) for k in range(g.dim))
    conn_cols = [dict(X.src.alpha.col(a)) for a in range(n_dim)] + \
        [{h.dim + b: c for b, c in X.dst.alpha.col(i).items()}
         for i in range(m_dim)]
    obj = LMObject(nv, sd.dim, LinearMap.from_cols(sd.dim, conn_cols))
    out = LMLieObject(obj, sd, mats)
    bad = check_lm_lie_object(out)
    if bad:
        raise ValueError("semidirect carrier fails Lie-object checks: %r"
                         % bad[:3])
    return out


def lm_xmod_envelope(X, degree, slack=2, report_degree=None):
    """Build the truncated enveloping crossed module in the category.

    The top row is U(h ⋊ g) / X' as a presented quotient whose completion
    certifies it (``kernel_product_stabilized``, see
    :func:`freealg.subspace_product`), so it is proven when that closes.

    The source row is one presented algebra sq, the square-zero extension
    top ⋉ (U ⊗ V)/Y' for U = U(h ⋊ g) and V = N ⊕ M.  Its letters are v_k
    for the basis of V, then those of h ⋊ g; its relations are the top's
    completed rows, v_k x_g - x_g v_k - [v_k, g] (as (x ⊗ v)g = xg ⊗ v +
    x ⊗ [v,g]), v_k v_l, and the seeds of Y'.  Under :func:`freealg.word_key`
    v_k x_g leads, so the normal words are top class words x and words
    x·v_k.  The relations but the seeds present top ⋉ (top ⊗ V), and in a
    square-zero algebra the ideal that elements of V-degree one generate
    is the sub-bimodule they generate.  So a closed completion makes the
    words x·v_k a basis of (U ⊗ V)/Y', and it joins
    ``kernel_product_stabilized``: Y' is a kernel-product ideal like X'.

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
    not seeds themselves.  The carrier is a cat¹ Lie object: [Ker t2,
    Ker s2] = 0 in h ⋊ g, and [n, a] = 0 for n in Ker s1, a in Ker t2,
    and for n in Ker t1, a in Ker s2 (the Peiffer identities
    ``check_lm_lie_xmod`` checks).  In sq a·v = v·a - [v,a] for a in
    h ⋊ g and v in V.  For g0 = 1 ⊗ n, n in Ker s1: a·g0 = g0·a - [n,a]
    = g0·a.  For g0 = x ⊗ v, x in k_s: a·x = x·a as [a,x] = 0, so a·g0 =
    x·v·a - x·n' = g0·a - x·n' with n' = [v,a] in Ker t1 (t1[v,a] =
    [t1 v, t2 a] = 0), and x·n' = n'·x - [n',x] = n'·x, a seed of the
    exchanged family (1 ⊗ n' in its G, x in k_s).  All three have the
    degree of a·g0 or degree two, so none is left out below D.  The same
    holds with s and t exchanged.

    The s-map, the t-map and the connecting map are bimodule maps, so they
    vanish on Y' once they vanish on its seeds, checked in top ⊗ V.
    """
    bad = check_lm_lie_xmod(X)
    if bad:
        raise ValueError("input fails crossed-module checks: %r" % bad[:3])
    report_degree = report_degree_for(degree, report_degree)

    carrier = lm_semidirect_object(X)
    usd = u_lie(carrier.lie, degree, slack)
    target = u_lm(X.dst, degree, slack)
    Ug, tbim = target.U, target.bim

    # s(h,g) = g, t(h,g) = rho2(h) + g on the top, the same with rho1 on
    # the bottom
    s1, t1 = cat1_matrices(X.rho1)
    s2, t2 = cat1_matrices(X.rho2)
    g_dim = X.dst.lie.dim
    h_dim = X.src.lie.dim

    def top_images(f):
        return [Ug.reduce({(j,): c for j, c in f.col(a).items()})
                for a in range(h_dim + g_dim)]

    kq = kernel_product_quotient(usd, Ug, top_images(s2), top_images(t2),
                                 [h_dim + j for j in range(g_dim)], slack)
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

    def tensor_map(f2, f1):  # U(f2) ⊗ f1
        return on_words(lambda x, k: tbim.tensor(
            Ug.from_coords(f2.col(top.class_index[x])), f1.col(k)))

    bottom_maps = (
        (tensor_map(kq.bar_s, s1), "s-map does not vanish on"),
        (tensor_map(kq.bar_t, t1), "t-map does not vanish on"),
        (on_words(lambda x, k: top.to_coords(top.mult({x: 1}, alpha[k]))),
         "connecting map does not kill"))

    pre = TensorBimodule(top, nv, carrier.right_mats)  # top ⊗ V
    k_s, k_t = ([top.reduce(a) for a in rows]
                for rows in (kq.s_rows, kq.t_rows))
    seeds = []
    for f1, k_own, k_other in ((s1, k_s, k_t), (t1, k_t, k_s)):
        gens = [pre.tensor(a, {k: 1}) for a in k_own for k in range(nv)]
        gens += [pre.tensor(top.unit(), n) for n in f1.kernel().rows]
        seeds += [pre.right_mult(g0, a, degree) for g0 in gens
                  if pre.fdeg(g0) < degree for a in k_other]
    seeds = [{tuple(g + nv for g in pre.words[flat // nv]) + (flat % nv,): c
              for flat, c in seed.items()} for seed in seeds]
    for seed in seeds:
        for f, message in bottom_maps:
            if f(seed):
                raise ValueError(message + " the bottom ideal")

    relations = [_shift_vec(r, nv) for r in top.ideal.rows] + seeds
    relations += [{(k, l): 1} for k in range(nv) for l in range(nv)]
    for g, mat in enumerate(carrier.right_mats):
        for k in range(nv):
            relations.append(vec_add_scaled(
                {(k, nv + g): 1, (nv + g, k): -1},
                {(l,): c for l, c in mat.col(k).items()}, -1))
    sq = presented(tuple("v%d" % k for k in range(nv)) + usd.gens,
                   relations, degree, slack)
    bottom = BottomBasis(sq, nv)
    us1, ut1, connect = (
        LinearMap.from_cols(rows, [f({w: 1}) for w in bottom.words])
        for (f, _), rows in zip(bottom_maps, (tbim.dim, tbim.dim, top.dim)))
    return LMAssocXMod(
        X, target, carrier, usd, top, kq.pi, sq, bottom, connect, us1, ut1,
        kq.bar_s, kq.bar_t, kq.embed, report_degree,
        {"u_semidirect_stabilized": usd.ideal.stabilized,
         "u_g_stabilized": Ug.ideal.stabilized,
         "kernel_product_stabilized":
             top.ideal.stabilized and sq.ideal.stabilized})


def check_lm_assoc_xmod(Y):
    """The action and crossed-module identities of the enveloping object
    at the report degree d, each on filtration bases with degree sums at
    most d, and on generators where an induction gives the rest.

    U(g), the top and sq are presented algebras, associative when their
    completions close (the certificates).  emb, us2 and ut2 are
    ``induced_map``s, so algebra maps; us1, ut1 and the connecting map are
    bimodule maps over us2, ut2 and the top, as they are defined on the
    words x·v and kill Y' (:func:`lm_xmod_envelope`).  So Ker us2 is an
    ideal of the top and Ker us1 a sub-bimodule of the bottom: both are
    closed under the top's action.

    - The U(g) side runs over the unit and the letters.  A class word r
      with |r| >= 1 is r'·g for its prefix r', a class word, and a letter
      g, and emb(r) = emb(r')·emb(g) (:func:`freealg.word_fold`).  So
      us2(emb(r)) = r (s2_section) holds for every r once it holds for the
      unit and the letters.  For s in Ker us2 ∩ F_{d-|r|}, by induction on
      |r|: emb(r)·s = emb(r')·(emb(g)·s) with emb(g)·s in Ker us2, so
      ut2(emb(r)·s) = r'·ut2(emb(g)·s) = r'·g·ut2(s); and s·emb(r) =
      (s·emb(r'))·emb(g) with s·emb(r') in Ker us2 ∩ F_{d-1}, so
      ut2(s·emb(r)) = ut2(s)·r'·g (t2_equivariance).  The same induction
      over Ker us1 gives t1_equivariance.
    - xi1(x ⊗ m, s) = emb(x)·(m·s) and xi2(s, x ⊗ m) = (s·emb(x))·m in
      sq.  So xi1(a, s)·s' = xi1(a, s·s'), s·xi2(s', a) = xi2(s·s', a) and
      s·xi1(a, s') = xi2(s, a)·s' restate associativity of sq, which its
      closed completion proves; they are not checked.
    - The bridge identities run over the degree-one rows a = 1 ⊗ m and s
      in Ker us2 ∩ F_{d-1}.  Let y = xi1(1 ⊗ m, s), in Ker us1.  Then
      xi1(x ⊗ m, s) = emb(x)·y: its us1 is x·us1(y) = 0, its ut1 is
      x·ut1(y) = x·((1 ⊗ m)·ut2(s)) = (x ⊗ m)·ut2(s) (t1_equivariance),
      and its connecting image is emb(x)·emb(alpha(m))·s =
      emb(x·alpha(m))·s.  And xi2(s, x ⊗ m) = xi2(s', 1 ⊗ m) for s' =
      s·emb(x) in Ker us2 ∩ F_{ds+|x|}, with ut2(s') = ut2(s)·x
      (t2_equivariance): it lies in Ker us1, its ut1 is ut2(s)·x ⊗ m =
      ut2(s)·(x ⊗ m), and its connecting image is s'·emb(alpha(m)) =
      s·emb(x·alpha(m)).
    - In each Peiffer identity one Ker us2 factor runs over the
      degree-one rows k_s alone.  Ker us2 ∩ F_k is spanned by the a·u and
      by the u·a for a in k_s and |u| <= k - 1 (the argument of
      :func:`freealg.subspace_product`, with x·a = a·x + [x,a] as k_s is a
      Lie ideal).  By associativity of the top and of sq, both sides of
      s·s2 = emb(ut2(s))·s2 are right top-linear in s2, those of s·s2 =
      s·emb(ut2(s2)) left top-linear in s, and for y in U(g) ⊗ M and b in
      Ker us1, xi1(y, s·u) = xi1(y, s)·u, b·(s·u) = (b·s)·u, xi2(u·s, y) =
      u·xi2(s, y) and (u·s)·b = u·(s·b).
    """
    d = Y.report_degree
    Ug, top, tbim = Y.target.U, Y.top, Y.target.bim
    bad = [("target",) + v for v in check_lm_assoc_object(Y.target, d)]

    r_gens = [(len(w), {w: 1}, Y.r_on_top({w: 1}))
              for w in Ug.class_words if len(w) <= 1]
    b_rows = Y.b_ker_filtration(d)
    a_rows = [(tbim.fdeg_index(i), {i: 1}) for i in range(tbim.dim)
              if tbim.fdeg_index(i) <= d]
    s_cls = []
    for ds, v in Y.s_ker_filtration(d):
        ts = Ug.from_coords(Y.ut2.apply(v))
        s_cls.append((ds, top.from_coords(v), ts, Y.r_on_top(ts)))

    # cat-style splittings of the two s-maps
    for dr, r, _ in r_gens:
        rc = Ug.to_coords(r)
        if Y.us2.apply(Y.emb.apply(rc)) != rc:
            bad.append(("s2_section", dr))
    for da, a in a_rows:
        if Y.us1.apply(Y.section(a)) != a:
            bad.append(("s1_section", da))

    # top row: boundary is equivariant, Peiffer products hold
    k_s = [a for ds, a, _, _ in s_cls if ds == 1]
    for ds, s, ts, ets in s_cls:
        for a in k_s if ds < d else ():
            if top.mult(s, a, d) != top.mult(ets, a, d):
                bad.append(("peiffer_top_left", (ds, 1)))
            if top.mult(a, s, d) != top.mult(a, ets, d):
                bad.append(("peiffer_top_right", (1, ds)))
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
        tb = Y.ut1.apply(b)
        for dr, r, rt in r_gens:
            if dr + db > d:
                continue
            if Y.ut1.apply(Y.left_mult(rt, b, d)) != \
                    tbim.left_mult(r, tb, d):
                bad.append(("t1_equivariance_left", (dr, db)))
            if Y.ut1.apply(Y.right_mult(b, rt, d)) != \
                    tbim.right_mult(tb, r, d):
                bad.append(("t1_equivariance_right", (dr, db)))

    # bridge identities between the xi-maps and the boundaries
    for k in range(tbim.module_dim):
        a = {tbim.index((), k): 1}
        ca = Y.r_on_top(Ug.from_coords(Y.target.connect.apply(a)))
        for ds, s, ts, _ in s_cls:
            if 1 + ds > d:
                continue
            x1 = Y.xi1(a, s, d)
            x2 = Y.xi2(s, a, d)
            if Y.us1.apply(x1) or Y.us1.apply(x2):
                bad.append(("xi_not_in_kernel", (1, ds)))
            if Y.ut1.apply(x1) != tbim.right_mult(a, ts, d):
                bad.append(("xi1_boundary", (1, ds)))
            if Y.ut1.apply(x2) != tbim.left_mult(ts, a, d):
                bad.append(("xi2_boundary", (1, ds)))
            if Y.connect.apply(x1) != top.to_coords(top.mult(ca, s, d)):
                bad.append(("xi1_connect", (1, ds)))
            if Y.connect.apply(x2) != top.to_coords(top.mult(s, ca, d)):
                bad.append(("xi2_connect", (1, ds)))

    # Peiffer identities tying the two rows together
    for db, b in b_rows:
        tb = Y.ut1.apply(b)
        for a in k_s if db < d else ():
            if Y.xi1(tb, a, d) != Y.right_mult(b, a, d):
                bad.append(("peiffer_xi1", (db, 1)))
            if Y.xi2(a, tb, d) != Y.left_mult(a, b, d):
                bad.append(("peiffer_xi2", (db, 1)))
    return bad


# ---------------------------------------------------------------------------
# associated classical crossed module and the comparison isomorphism


def _pair_mult(bot_ops, top_alg, connect, u, v, bound):
    """(a, r)(a', r') = (alpha(a)a' + ar' + ra', rr') for a pair algebra
    given by bottom operations (left_mult, right_mult, fdeg), the top
    algebra and the connecting map alpha (bottom -> top class vector)."""
    left_mult, right_mult, fdeg = bot_ops
    ub, ut = u
    vb, vt = v
    bot = {}
    if ub and vb:
        vec_add_scaled(bot, left_mult(connect(ub), vb, bound), 1)
    if ub and vt:
        vec_add_scaled(bot, right_mult(ub, vt, bound), 1)
    if ut and vb:
        vec_add_scaled(bot, left_mult(ut, vb, bound), 1)
    top = top_alg.mult(ut, vt, bound) if ut and vt else {}
    return bot, top


@dataclass(frozen=True)
class AssociatedXMod:
    """Classical (truncated) crossed module of associative algebras built
    from the enveloping object: carriers b_ker ⊕ s_ker and
    (U(g) ⊗ M) ⊕ U(g), products (a,r)(a',r') = (alpha(a)a' + ar' + ra', rr').

    Elements are pairs (bottom dict, top dict); the bottom-row ambient is
    the quotient bottom ⊕ the quotient top algebra."""

    Y: LMAssocXMod

    def top_mult(self, u, v, bound):
        """Product in (U(g) ⊗ M) ⊕ U(g)."""
        Y = self.Y
        tb = Y.target.bim
        return _pair_mult(
            (tb.left_mult, tb.right_mult, tb.fdeg), Y.target.U,
            lambda a: Y.target.U.from_coords(Y.target.connect.apply(a)),
            u, v, bound)

    def bottom_mult(self, u, v, bound):
        """Product in the bottom-row ambient (quotient bottom ⊕ top)."""
        Y = self.Y
        return _pair_mult(
            (Y.left_mult, Y.right_mult, None), Y.top,
            lambda b: Y.top.from_coords(Y.connect.apply(b)),
            u, v, bound)

    def boundary(self, u):
        b, s = u
        return (self.Y.ut1.apply(b),
                self.Y.target.U.from_coords(
                    self.Y.ut2.apply(self.Y.top.to_coords(s))))

    def embed_pair(self, u):
        """(U(g) ⊗ M) ⊕ U(g) into the bottom-row ambient, through the
        s-section and the g-block embedding."""
        a, r = u
        return (self.Y.section(a), self.Y.r_on_top(r))

    def act(self, u, v, bound, reverse=False):
        eu = self.embed_pair(u)
        return self.bottom_mult(v, eu, bound) if reverse \
            else self.bottom_mult(eu, v, bound)


def associated_xmod(Y):
    return AssociatedXMod(Y)


def check_associated_xmod(ax):
    """Truncated associative crossed-module axioms on filtration bases at
    the report degree: associativity, boundary multiplicativity and
    equivariance, and the Peiffer identities."""
    Y = ax.Y
    d = Y.report_degree
    Ug, top, tbim = Y.target.U, Y.top, Y.target.bim
    bad = []
    b_rows = [(db, (v, {})) for db, v in Y.b_ker_filtration(d)]
    b_rows += [(ds, ({}, top.from_coords(v)))
               for ds, v in Y.s_ker_filtration(d)]
    a_rows = [(tbim.fdeg_index(i), ({i: 1}, {}))
              for i in range(tbim.dim) if tbim.fdeg_index(i) <= d]
    a_rows += [(len(w), ({}, {w: 1})) for w in Ug.class_words
               if len(w) <= d]

    for du, u in a_rows:
        for dv, v in a_rows:
            for dw, w in a_rows:
                if du + dv + dw > d:
                    continue
                lhs = ax.top_mult(ax.top_mult(u, v, d), w, d)
                if lhs != ax.top_mult(u, ax.top_mult(v, w, d), d):
                    bad.append(("assoc_top", (du, dv, dw)))
    for du, u in b_rows:
        tu = ax.boundary(u)
        for dv, v in b_rows:
            if du + dv > d:
                continue
            prod = ax.bottom_mult(u, v, d)
            tv = ax.boundary(v)
            if ax.boundary(prod) != ax.top_mult(tu, tv, d):
                bad.append(("boundary_mult", (du, dv)))
            if prod != ax.act(tu, v, d):
                bad.append(("peiffer_left", (du, dv)))
            if prod != ax.act(tv, u, d, reverse=True):
                bad.append(("peiffer_right", (du, dv)))
        for dr, r in a_rows:
            if du + dr > d:
                continue
            if ax.boundary(ax.act(r, u, d)) != ax.top_mult(r, tu, d):
                bad.append(("equivariance_left", (dr, du)))
            if ax.boundary(ax.act(r, u, d, reverse=True)) != \
                    ax.top_mult(tu, r, d):
                bad.append(("equivariance_right", (dr, du)))
    return bad


# ---------------------------------------------------------------------------
# comparison with the plain enveloping crossed module


def _word_evaluator(images, mult, unit):
    value = word_fold(images, mult, unit)

    def eval_vec(vec):
        bot, top = {}, {}
        for w, c in vec.items():
            vb, vt = value(w)
            vec_add_scaled(bot, vb, c)
            vec_add_scaled(top, vt, c)
        return bot, top

    return eval_vec


def theta_check(x, degree, slack=2, report_degree=None):
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

    It kills the ideal's span V_D when theta(w) = theta(reduce_word(w)) for
    every word w of length <= D that is no class word, since the rows
    w - reduce_word(w) are a basis of V_D.  The defining relations get no
    check of their own: each of degree <= D reduces to zero by the
    completed rows of degree <= D, which lie in V_D, and theta is linear.
    """
    d = report_degree_for(degree, report_degree)
    tx = xul(x, degree, slack, report_degree=d)
    X = xmod_to_lm(x)
    Y = lm_xmod_envelope(X, degree, slack, report_degree=d)
    usd1 = tx.ul_sd.quot
    usd, top = Y.usd, Y.top
    Ug, tbim = Y.target.U, Y.target.bim
    sd_obj = lm_assoc_object(Y.carrier, usd)  # U(h ⋊ g) ⊗ V, unquotiented
    bim = sd_obj.bim

    nq, np_ = x.q.dim, x.p.dim
    n_sd = nq + np_
    h_dim = X.src.lie.dim

    def sd_proj_col(i):
        if i < nq:
            return dict(X.src.alpha.col(i))
        return {h_dim + j: c for j, c in X.dst.alpha.col(i - nq).items()}

    def evaluator(bimod, U, connect, alpha_cols):
        """theta on words, into the pair algebra (U ⊗ V) ⊕ U of bimod: the
        k-th module generator goes to (-1 ⊗ v_k, 0) in the first block of
        generators and to (0, alpha(v_k)) in the second."""
        images = [(bimod.tensor(U.unit(), {k: -1}), {})
                  for k in range(len(alpha_cols))]
        images += [({}, U.reduce({(j,): c for j, c in col.items()}))
                   for col in alpha_cols]

        def mult(u, v):
            return _pair_mult(
                (bimod.left_mult, bimod.right_mult, None), U,
                lambda b: U.from_coords(connect.apply(b)), u, v, degree)

        return _word_evaluator(images, mult, ({}, U.unit()))

    theta = evaluator(bim, usd, sd_obj.connect,
                      [sd_proj_col(g) for g in range(n_sd)])
    theta_p = evaluator(tbim, Ug, Y.target.connect,
                        [X.dst.alpha.col(i) for i in range(np_)])

    def kills_span(evaluate, quot):
        return all(evaluate({w: 1}) == evaluate(quot.reduce_word(w))
                   for d in range(quot.degree + 1)
                   for w in itertools.product(range(len(quot.gens)), repeat=d)
                   if w not in quot.class_index)

    ideal_ok = kills_span(theta, usd1)
    p_ideal_ok = kills_span(theta_p, tx.ul_p.quot)
    unit_ok = theta({(): 1}) == ({}, usd.unit())

    # filtration bijectivity before the kernel-product quotients
    pre_dims_ok = all(
        usd1.dim_upto(k) ==
        sum(1 for f in bim.fdegs if f <= k) + usd.dim_upto(k)
        for k in range(d + 1))
    def stacked(b, t, off):
        """The pair (b, t) as one vector, t's coordinates shifted by off."""
        return {**b, **{off + i: c for i, c in t.items()}}

    cols = [stacked(tb, usd.to_coords(tt), bim.dim) for tb, tt in
            (theta({w: 1}) for w in usd1.class_words if len(w) <= d)]
    pre_rank_ok = LinearMap.from_cols(
        bim.dim + usd.dim, cols).rank() == len(cols)

    # the quotient ideal lands in its categorical counterpart
    xk = tx.pi.kernel()
    x_maps_ok = True
    for deg, v in filtration_basis(usd1, xk):
        tb, tt = theta(v)
        if Y.bottom_class(bim, tb) or Y.top_proj.apply(usd.to_coords(tt)):
            x_maps_ok = False
            break

    # induced comparison on the quotients: filtration dims and rank,
    # and compatibility with the induced cat¹ maps
    bar = tx.ambient
    quot_dims_ok = all(
        bar.dim_upto(k) == Y.bottom.dim_upto(k) + top.dim_upto(k)
        for k in range(d + 1))

    morphism_ok = True
    qcols = []
    for deg, v in filtration_basis(bar, Subspace.full(bar.dim), d):
        tb, tt = theta(v)
        qb = Y.bottom_class(bim, tb)
        qt = Y.top_proj.apply(usd.to_coords(tt))
        qcols.append(stacked(qb, qt, Y.bottom.dim))
        sv = tx.bar_s.apply(bar.to_coords(v))
        pb, pt = theta_p(tx.ul_p.quot.from_coords(sv))
        if Y.us1.apply(qb) != pb or \
                Y.us2.apply(qt) != Ug.to_coords(pt):
            morphism_ok = False
        tv = tx.bar_t.apply(bar.to_coords(v))
        pb, pt = theta_p(tx.ul_p.quot.from_coords(tv))
        if Y.ut1.apply(qb) != pb or \
                Y.ut2.apply(qt) != Ug.to_coords(pt):
            morphism_ok = False
    quot_rank_ok = LinearMap.from_cols(
        Y.bottom.dim + top.dim, qcols).rank() == len(qcols)

    certs = dict(Y.certificates)
    certs.update({"ul_" + k: v for k, v in tx.certificates.items()})
    ok = (ideal_ok and p_ideal_ok and unit_ok and
          pre_dims_ok and pre_rank_ok and x_maps_ok and quot_dims_ok and
          quot_rank_ok and morphism_ok)
    return {
        "name": "%s~%s" % (x.q.name, x.p.name),
        "degree": degree,
        "report_degree": d,
        "unit_ok": unit_ok,
        "relations_killed": ideal_ok and p_ideal_ok,
        "pre_quotient_dims_equal": pre_dims_ok,
        "pre_quotient_bijective": pre_rank_ok,
        "ideal_mapped": x_maps_ok,
        "quotient_dims_equal": quot_dims_ok,
        "quotient_bijective": quot_rank_ok,
        "cat_maps_intertwined": morphism_ok,
        "lhs_dim_upto_d": usd1.dim_upto(d),
        "bottom_dim_upto_d": Y.bottom.dim_upto(d),
        "top_dim_upto_d": top.dim_upto(d),
        "certificates": certs,
        "verdict": combine_verdict(ok, certs.values()),
    }
