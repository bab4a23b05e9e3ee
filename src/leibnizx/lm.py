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
module uses, and the report degree follows the same rule.  Only the bottom
row, the tensor bimodule and its ideal Y', is built here.
"""

import itertools
from dataclasses import dataclass, field

from .linalg import (Echelon, LinearMap, Subspace, lincomb, quotient_basis,
                     vec_add_scaled)
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


def lm_tensor(x, y):
    """(M -> g) ⊗ (N -> h) = ((M⊗h) ⊕ (g⊗N) -> g⊗h), with the map
    alpha ⊗ 1 + 1 ⊗ beta; the M⊗h block comes first."""
    mg, gg = x.bottom_dim, x.top_dim
    nh, hh = y.bottom_dim, y.top_dim
    bot = mg * hh + gg * nh
    cols = []
    for i in range(mg):
        av = x.alpha.col(i)
        for j in range(hh):
            cols.append({k * hh + j: c for k, c in av.items()})
    for i in range(gg):
        for j in range(nh):
            bv = y.alpha.col(j)
            cols.append({i * hh + k: c for k, c in bv.items()})
    return LMObject(bot, gg * hh, LinearMap.from_cols(gg * hh, cols))


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
    words generator by generator.
    """

    U: TruncQuotAlgebra
    module_dim: int
    right_bracket: tuple  # per U-generator LinearMap V -> V
    words: tuple = field(init=False)
    windex: dict = field(init=False)

    def __post_init__(self):
        ws = tuple(w for w in self.U.class_words
                   if len(w) <= self.U.degree - 1)
        object.__setattr__(self, "words", ws)
        object.__setattr__(self, "windex",
                           {w: i for i, w in enumerate(ws)})

    @property
    def dim(self):
        return len(self.words) * self.module_dim

    def index(self, w, k):
        return self.windex[w] * self.module_dim + k

    def fdeg_index(self, flat):
        return len(self.words[flat // self.module_dim]) + 1

    def fdeg(self, vec):
        return max((self.fdeg_index(i) for i in vec), default=0)

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
            wi, k = divmod(flat, self.module_dim)
            for wa, ca in ucls.items():
                red = self.U.reduce_word(wa + self.words[wi])
                vec_add_scaled(out, self._at(red, k), c * ca)
        return out

    def right_mult_gen(self, bvec, g, bound):
        if self.fdeg(bvec) + 1 > bound:
            raise ValueError("product degree exceeds bound")
        out = {}
        for flat, c in bvec.items():
            wi, k = divmod(flat, self.module_dim)
            w = self.words[wi]
            vec_add_scaled(out, self._at(self.U.reduce_word(w + (g,)), k), c)
            vec_add_scaled(out, {self.index(w, k2): cb for k2, cb in
                                 self.right_bracket[g].col(k).items()}, c)
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


def u_lm(L, degree, slack=2):
    """Enveloping algebra in the category; the connecting map sends
    x ⊗ m to x·alpha(m)."""
    U = u_lie(L.lie, degree, slack)
    bim = TensorBimodule(U, L.bottom_dim, tuple(L.right_mats))
    cols = []
    for flat in range(bim.dim):
        wi, k = divmod(flat, bim.module_dim)
        out = {}
        for j, c in L.alpha.col(k).items():
            vec_add_scaled(out, U.reduce_word(bim.words[wi] + (j,)), c)
        cols.append(U.to_coords(out))
    return LMAssocObject(L, bim, LinearMap.from_cols(U.dim, cols))


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
    """Word-keyed vector over g-letters -> the same words over the g-block
    of a semidirect product."""
    return {tuple(g + off for g in w): c for w, c in cv.items()}


def _highest(i):
    """Echelon key that pivots each bottom row at its highest coordinate.
    Bottom coordinates ascend with fdeg, so such a row has the fdeg of its
    pivot, and reducing a vector by such rows never raises its fdeg."""
    return -i


def _bottom_filtration(bim, sub):
    """Filtration basis of a subspace of the bottom: pairs (degree, vector)
    sorted by degree, whose degree-<=k prefixes span sub ∩ (filtration <= k).
    Each vector has coefficient 1 at its highest coordinate.
    """
    ech = Echelon(_highest)
    for row in sub.rows:
        ech.insert(row)
    return [(bim.fdeg_index(p), ech.monic_row(p)) for p in sorted(ech.rows)]


def _quotient_filtration(pairs, proj):
    """Push a filtration basis through a linear quotient map, keeping the
    vectors that remain independent."""
    ech = Echelon()
    out = []
    for deg, v in pairs:
        img = proj.apply(v)
        if img and ech.insert(dict(img)) is not None:
            out.append((deg, img))
    return out


@dataclass(frozen=True)
class LMAssocXMod:
    """Truncated enveloping crossed module in the category: kernels of the
    induced s-maps modulo the kernel-product ideals, with the t-maps as
    boundaries and xi-maps per the tensor formulas."""

    X: LMLieXMod
    target: LMAssocObject   # (U(g) ⊗ M -> U(g))
    sd: LeibnizAlgebra      # h ⋊ g
    usd: TruncQuotAlgebra   # U(h ⋊ g), before the kernel-product quotient
    bim: TensorBimodule     # U(h ⋊ g) ⊗ (N ⊕ M), before the quotient
    connect_sd: LinearMap   # bottom coords -> U(h⋊g) class coords
    top: TruncQuotAlgebra   # U(h ⋊ g) / X'
    top_proj: LinearMap     # usd class coords -> top class coords
    bottom_proj: LinearMap  # bottom coords -> quotient coordinates
    bottom_comp: tuple      # pivot lift indices for the bottom quotient
    us1: LinearMap          # quotient bottom -> target bottom
    ut1: LinearMap
    us2: LinearMap          # top -> U(g) classes
    ut2: LinearMap
    emb: LinearMap          # U(g) classes -> top classes
    b_filtration: tuple     # (degree, vector) basis of Ker us1, by degree
    s_ker: Subspace         # Ker us2, in top class coordinates
    report_degree: int
    certificates: dict = field(default_factory=dict)

    # -- lifted operations on the quotient bottom --------------------------

    def lift(self, wvec):
        return {self.bottom_comp[i]: c for i, c in wvec.items()}

    def left_mult(self, top_cls, wvec, bound):
        return self.bottom_proj.apply(
            self.bim.left_mult(top_cls, self.lift(wvec), bound))

    def right_mult(self, wvec, top_cls, bound):
        return self.bottom_proj.apply(
            self.bim.right_mult(self.lift(wvec), top_cls, bound))

    def connect_bottom(self, wvec):
        """U(beta ⊕ alpha) on the quotient bottom, valued in top classes."""
        return self.top_proj.apply(
            self.usd.to_coords(self.usd.reduce(self.usd.from_coords(
                self.connect_sd.apply(self.lift(wvec))))))

    def r_on_top(self, ug_cls):
        """A U(g) class as a top class through the g-block embedding."""
        return self.top.from_coords(
            self.emb.apply(self.target.U.to_coords(ug_cls)))

    def xi1(self, avec, top_cls, bound):
        """xi1(x ⊗ m, s) = emb(x) · ((1 ⊗ (0,m)) · s), in quotient-bottom
        coordinates."""
        h_dim = self.X.src.lie.dim
        n_dim = self.X.src.bottom_dim
        out = {}
        for flat, c in avec.items():
            wi, k = divmod(flat, self.target.bim.module_dim)
            w = self.target.bim.words[wi]
            base = self.bim.tensor(self.usd.unit(), {n_dim + k: 1})
            r = self.bim.right_mult(base, top_cls, bound - len(w))
            r = self.bim.left_mult(_shift_vec({w: c}, h_dim), r, bound)
            vec_add_scaled(out, r, 1)
        return self.bottom_proj.apply(out)

    def xi2(self, top_cls, avec, bound):
        """xi2(s, x ⊗ m) = (s · emb(x)) ⊗ (0, m)."""
        h_dim = self.X.src.lie.dim
        n_dim = self.X.src.bottom_dim
        out = {}
        for flat, c in avec.items():
            wi, k = divmod(flat, self.target.bim.module_dim)
            w = self.target.bim.words[wi]
            prod = self.usd.mult(top_cls, _shift_vec({w: c}, h_dim),
                                 bound - 1)
            vec_add_scaled(out, self.bim.tensor(prod, {n_dim + k: 1}), 1)
        return self.bottom_proj.apply(out)

    # -- filtration bases --------------------------------------------------

    def b_ker_filtration(self, d):
        return [(deg, v) for deg, v in self.b_filtration if deg <= d]

    def s_ker_filtration(self, d):
        return [(deg, self.top.to_coords(v))
                for deg, v in filtration_basis(self.top, self.s_ker, d)]


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


def _tensor_hom(src_bim, dst_bim, top_hom, bottom_map):
    """U(f2) ⊗ f1 on bottom coordinates, for a filtration-preserving
    algebra map top_hom on class coords and linear f1 on the modules."""
    U2 = dst_bim.U
    cols = []
    for flat in range(src_bim.dim):
        wi, k = divmod(flat, src_bim.module_dim)
        w = src_bim.words[wi]
        img = U2.from_coords(top_hom.apply({src_bim.U.class_index[w]: 1}))
        cols.append(dst_bim.tensor(img, bottom_map.col(k)))
    return LinearMap.from_cols(dst_bim.dim, cols)


def _tensor_kernel(bim, top_rows, f):
    """Ker(U(f2) ⊗ f) on bottom coordinates, spanned by v ⊗ e_k for the
    filtration rows v of Ker U(f2) with fdeg <= D - 1 and the module basis
    vectors e_k, and by w ⊗ n for the class words w of the bottom and n in
    Ker f (see :func:`lm_xmod_envelope`)."""
    vecs = [bim.tensor(v, {k: 1}) for _, v in top_rows
            for k in range(bim.module_dim)]
    f_ker = f.kernel().rows
    vecs += [bim.tensor({w: 1}, n) for w in bim.words for n in f_ker]
    return Subspace.from_vectors(bim.dim, vecs)


def lm_xmod_envelope(X, degree, slack=2, report_degree=None):
    """Build the truncated enveloping crossed module in the category.

    The top row is U(h ⋊ g) / X' as a presented quotient whose completion
    certifies it (``kernel_product_stabilized``, see
    :func:`freealg.subspace_product`), so it is proven when that closes.

    The bottom ideal is Y' = Ker s1·Ker t2 + Ker s2·Ker t1 + Ker t1·Ker s2
    + Ker t2·Ker s1.  Ker s1 and Ker t1 are sub-bimodules; Ker s2 and
    Ker t2 are generated by Lie ideals k of degree one.  So Y' is generated
    by the seed products b·a and a·b, for b a filtration row of a bottom
    kernel and a a degree-one row of the matching k, and their span is
    closed already: for a generator x,

        (b·a)·x = (b·x)·a - b·[x,a]        x·(b·a) = (x·b)·a
        x·(a·b) = a·(x·b) + [x,a]·b        (a·b)·x = a·(b·x)

    with b·x, x·b in b's kernel at fdeg <= fdeg(b) + 1 and [x,a] in k, so
    each right-hand side is a sum of seed products within the degree when
    the left-hand side is.  That covers the seed span up to top-degree
    cancellation among seed products, a strictness gap that only Y' keeps
    and that a test checks.

    The bottom kernels need no elimination over U ⊗ V.  The bottom maps
    are Us1 = U(s2) ⊗ s1 and Ut1 = U(t2) ⊗ t1 (see :func:`_tensor_hom`) on
    F_{D-1} ⊗ V, and Ker(f ⊗ g) = Ker f ⊗ V + U ⊗ Ker g for linear maps f
    and g, so Ks1 and Kt1 are spanned by the fdeg <= D - 1 rows of the top
    kernel tensored with each module basis vector, and each class word
    tensored with the kernel of s1 or t1 (:func:`_tensor_kernel`).
    """
    bad = check_lm_lie_xmod(X)
    if bad:
        raise ValueError("input fails crossed-module checks: %r" % bad[:3])
    report_degree = report_degree_for(degree, report_degree)

    carrier = lm_semidirect_object(X)
    sd_obj = u_lm(carrier, degree, slack)
    usd, bim = sd_obj.U, sd_obj.bim
    target = u_lm(X.dst, degree, slack)
    Ug = target.U

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
    Us1 = _tensor_hom(bim, target.bim, kq.s, s1)
    Ut1 = _tensor_hom(bim, target.bim, kq.t, t1)
    ker_s, ker_t = (filtration_basis(usd, K, degree - 1)
                    for K in (kq.s_ker, kq.t_ker))
    Ks1 = _tensor_kernel(bim, ker_s, s1)
    Kt1 = _tensor_kernel(bim, ker_t, t1)

    # Y' rows are pivoted at their highest coordinate (see _highest): a
    # row's fdeg is its pivot's, and a lifted class has the least fdeg.
    ech = Echelon(_highest)
    top_s, top_t = ([t for t in rows if t[0] <= 1]
                    for rows in (ker_s, ker_t))
    bot_s, bot_t = (_bottom_filtration(bim, K) for K in (Ks1, Kt1))
    for bot, tp in ((bot_s, top_t), (bot_t, top_s)):
        for db, vb in bot:
            for dt, vt in tp:
                if db + dt <= degree:
                    ech.insert(bim.right_mult(vb, vt, degree))
                    ech.insert(bim.left_mult(vt, vb, degree))

    for row in ech.rows.values():
        if Us1.apply(row):
            raise ValueError("s-map does not vanish on the bottom ideal")
        if Ut1.apply(row):
            raise ValueError("t-map does not vanish on the bottom ideal")
        if kq.pi.apply(sd_obj.connect.apply(row)):
            raise ValueError("connecting map does not kill the bottom ideal")
    comp, bottom_proj = quotient_basis(bim.dim, ech.rows, _highest)

    def on_quotient(f):
        return LinearMap.from_cols(
            f.rows, [f.apply({c: 1}) for c in comp])

    # Ker us1 is the image of Ks1: us1 ∘ bottom_proj = Us1, as Us1
    # vanishes on Y'
    b_filtration = _quotient_filtration(bot_s, bottom_proj)
    return LMAssocXMod(
        X, target, carrier.lie, usd, bim, sd_obj.connect, kq.quot, kq.pi,
        bottom_proj, tuple(comp), on_quotient(Us1), on_quotient(Ut1),
        kq.bar_s, kq.bar_t, kq.embed, tuple(b_filtration),
        kq.bar_s.kernel(), report_degree,
        {"u_semidirect_stabilized": usd.ideal.stabilized,
         "u_g_stabilized": Ug.ideal.stabilized,
         "kernel_product_stabilized": kq.quot.ideal.stabilized})


def _section_bottom(Y, avec):
    """x ⊗ m -> class of emb(x) ⊗ (0, m): the s-section of the bottom row."""
    n_dim = Y.X.src.bottom_dim
    h_dim = Y.X.src.lie.dim
    out = {}
    for flat, c in avec.items():
        wi, k = divmod(flat, Y.target.bim.module_dim)
        w = Y.target.bim.words[wi]
        cls = Y.usd.reduce_word(tuple(g + h_dim for g in w))
        vec_add_scaled(out, Y.bim.tensor(cls, {n_dim + k: c}), 1)
    return Y.bottom_proj.apply(out)


def _memo(fn):
    """fn evaluated once for each distinct argument list: a sparse-vector
    argument is keyed by its items.  Each call returns a fresh copy of the
    stored result, so no caller can change it."""
    memo = {}

    def call(*args):
        key = tuple(frozenset(a.items()) if isinstance(a, dict) else a
                    for a in args)
        out = memo.get(key)
        if out is None:
            out = memo[key] = fn(*args)
        return dict(out)
    return call


def check_lm_assoc_xmod(Y):
    """All action and crossed-module identities of the enveloping object,
    on filtration bases with degree sums bounded by the report degree."""
    d = Y.report_degree
    Ug, top, tbim = Y.target.U, Y.top, Y.target.bim
    xi1, xi2, r_on_top, left_mult, right_mult, tmult = (
        _memo(f) for f in (Y.xi1, Y.xi2, Y.r_on_top, Y.left_mult,
                           Y.right_mult, top.mult))
    bad = []
    bad += [("target",) + v for v in check_lm_assoc_object(Y.target, d)]

    r_words = [(len(w), {w: 1}) for w in Ug.class_words if len(w) <= d]
    s_rows = Y.s_ker_filtration(d)
    b_rows = Y.b_ker_filtration(d)
    a_rows = [(tbim.fdeg_index(i), {i: 1}) for i in range(tbim.dim)
              if tbim.fdeg_index(i) <= d]
    s_cls = [(ds, top.from_coords(v), Ug.from_coords(Y.ut2.apply(v)))
             for ds, v in s_rows]

    # cat-style splittings of the two s-maps
    for dr, r in r_words:
        rc = Ug.to_coords(r)
        if Y.us2.apply(Y.emb.apply(rc)) != rc:
            bad.append(("s2_section", dr))
    for da, a in a_rows:
        if Y.us1.apply(_section_bottom(Y, a)) != a:
            bad.append(("s1_section", da))

    # top row: boundary is equivariant, Peiffer products hold
    for ds, s, ts in s_cls:
        for ds2, s2, ts2 in s_cls:
            if ds + ds2 > d:
                continue
            prod = tmult(s, s2, d)
            if prod != tmult(r_on_top(ts), s2, d):
                bad.append(("peiffer_top_left", (ds, ds2)))
            if prod != tmult(s, r_on_top(ts2), d):
                bad.append(("peiffer_top_right", (ds, ds2)))
        for dr, r in r_words:
            if dr + ds > d:
                continue
            rt = r_on_top(r)
            if Ug.from_coords(Y.ut2.apply(top.to_coords(
                    tmult(rt, s, d)))) != Ug.mult(r, ts, d):
                bad.append(("t2_equivariance_left", (dr, ds)))
            if Ug.from_coords(Y.ut2.apply(top.to_coords(
                    tmult(s, rt, d)))) != Ug.mult(ts, r, d):
                bad.append(("t2_equivariance_right", (dr, ds)))

    # bottom row: omega1 is an R-bimodule map into the A-carrier
    for db, b in b_rows:
        tb = Y.ut1.apply(b)
        for dr, r in r_words:
            if dr + db > d:
                continue
            rt = r_on_top(r)
            if Y.ut1.apply(left_mult(rt, b, d)) != \
                    tbim.left_mult(r, tb, d):
                bad.append(("t1_equivariance_left", (dr, db)))
            if Y.ut1.apply(right_mult(b, rt, d)) != \
                    tbim.right_mult(tb, r, d):
                bad.append(("t1_equivariance_right", (dr, db)))

    # bridge identities between the xi-maps and the boundaries
    for da, a in a_rows:
        for ds, s, ts in s_cls:
            if da + ds > d:
                continue
            x1 = xi1(a, s, d)
            x2 = xi2(s, a, d)
            if Y.us1.apply(x1) or Y.us1.apply(x2):
                bad.append(("xi_not_in_kernel", (da, ds)))
            if Y.ut1.apply(x1) != tbim.right_mult(a, ts, d):
                bad.append(("xi1_boundary", (da, ds)))
            if Y.ut1.apply(x2) != tbim.left_mult(ts, a, d):
                bad.append(("xi2_boundary", (da, ds)))
            ca = Ug.from_coords(Y.target.connect.apply(a))
            if Y.connect_bottom(x1) != \
                    top.to_coords(tmult(r_on_top(ca), s, d)):
                bad.append(("xi1_connect", (da, ds)))
            if Y.connect_bottom(x2) != \
                    top.to_coords(tmult(s, r_on_top(ca), d)):
                bad.append(("xi2_connect", (da, ds)))
            for ds2, s2, _ in s_cls:
                if da + ds + ds2 > d:
                    continue
                if right_mult(x1, s2, d) != \
                        xi1(a, tmult(s, s2, d), d):
                    bad.append(("xi1_balanced", (da, ds, ds2)))
                if left_mult(s, xi1(a, s2, d), d) != \
                        right_mult(xi2(s, a, d), s2, d):
                    bad.append(("xi_exchange", (da, ds, ds2)))
                if left_mult(s, xi2(s2, a, d), d) != \
                        xi2(tmult(s, s2, d), a, d):
                    bad.append(("xi2_balanced", (da, ds, ds2)))

    # Peiffer identities tying the two rows together
    for db, b in b_rows:
        tb = Y.ut1.apply(b)
        for ds, s, _ in s_cls:
            if db + ds > d:
                continue
            if xi1(tb, s, d) != right_mult(b, s, d):
                bad.append(("peiffer_xi1", (db, ds)))
            if xi2(s, tb, d) != left_mult(s, b, d):
                bad.append(("peiffer_xi2", (db, ds)))
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
            lambda b: Y.top.from_coords(Y.connect_bottom(b)),
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
        return (_section_bottom(self.Y, a), self.Y.r_on_top(r))

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
    usd, bim, top = Y.usd, Y.bim, Y.top
    Ug, tbim = Y.target.U, Y.target.bim

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

    theta = evaluator(bim, usd, Y.connect_sd,
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
    rhs_bottom = sorted(range(bim.dim), key=bim.fdeg_index)
    pre_dims_ok = all(
        usd1.dim_upto(k) ==
        sum(1 for i in rhs_bottom if bim.fdeg_index(i) <= k) +
        usd.dim_upto(k)
        for k in range(d + 1))
    cols = []
    lowwords = [w for w in usd1.class_words if len(w) <= d]
    for w in lowwords:
        tb, tt = theta({w: 1})
        col = dict(tb)
        for i, c in usd.to_coords(tt).items():
            col[bim.dim + i] = c
        cols.append(col)
    pre_rank_ok = LinearMap.from_cols(
        bim.dim + usd.dim, cols).rank() == len(lowwords)

    # the quotient ideal lands in its categorical counterpart
    xk = tx.pi.kernel()
    x_maps_ok = True
    for deg, v in filtration_basis(usd1, xk):
        tb, tt = theta(v)
        if Y.bottom_proj.apply(tb) or Y.top_proj.apply(usd.to_coords(tt)):
            x_maps_ok = False
            break

    # induced comparison on the quotients: filtration dims and rank,
    # and compatibility with the induced cat¹ maps
    bar = tx.ambient
    bpairs = _quotient_filtration(
        [(bim.fdeg_index(i), {i: 1}) for i in rhs_bottom], Y.bottom_proj)
    w_dim_upto = lambda k: sum(1 for deg, _ in bpairs if deg <= k)
    quot_dims_ok = all(
        bar.dim_upto(k) == w_dim_upto(k) + top.dim_upto(k)
        for k in range(d + 1))

    morphism_ok = True
    qcols = []
    wdim = Y.bottom_proj.rows
    nrows = 0
    for deg, v in filtration_basis(bar, Subspace.full(bar.dim), d):
        nrows += 1
        tb, tt = theta(v)
        qb = Y.bottom_proj.apply(tb)
        qt = Y.top_proj.apply(usd.to_coords(tt))
        col = dict(qb)
        for i, c in qt.items():
            col[wdim + i] = c
        qcols.append(col)
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
        wdim + top.dim, qcols).rank() == nrows

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
        "bottom_dim_upto_d": w_dim_upto(d),
        "top_dim_upto_d": top.dim_upto(d),
        "certificates": certs,
        "verdict": combine_verdict(ok, certs.values()),
    }
