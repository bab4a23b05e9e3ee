"""Representations of Leibniz crossed modules and left modules over the
truncated enveloping crossed module.

A representation of (q, p, eta) is an abelian crossed module (N, M, mu)
with p-actions on N and M and bilinear maps xi1: q x M -> N and
xi2: M x q -> N subject to fourteen identities; a left module over the
enveloping crossed module is a morphism into the endomorphism crossed
module (Hom(M,N), End(N,M,mu), Gamma).  The two are exchanged by
evaluating the word action

    Phi(q,p)_l(n,m) = ([q,n] + [p,n] + xi1(q,m), [p,m])
    Phi(q,p)_r(n,m) = ([n,q] + [n,p] + xi2(m,q), [m,p])

on kernel classes (words leftmost-factor-first, as in envelope).
"""

from dataclasses import dataclass

from .linalg import LinearMap, lincomb
from .leibniz import Action, LeibnizRep, basis_vec, check_rep, zero_rep
from .assoc import AssocAlgebra
from .xmod import AssocXMod
from .freealg import word_fold, word_key
from .envelope import ULModule, module_to_rep, rep_to_module
from .xul import TruncAssocXMod


# ---------------------------------------------------------------------------
# endomorphism crossed module


def _hom_index(i, j, w):
    """Coordinate of the elementary map E_ij (j-th source basis vector to
    i-th target basis vector) in a Hom(K^w, K^v) space."""
    return i * w + j


def hom_to_map(vec, v, w):
    """Hom-space coordinate vector -> LinearMap K^w -> K^v."""
    cols = [{} for _ in range(w)]
    for idx, c in vec.items():
        cols[idx % w][idx // w] = c
    return LinearMap.from_cols(v, cols)


def map_to_hom(f):
    return {_hom_index(i, j, f.cols): c
            for j in range(f.cols) for i, c in f.col(j).items()}


def endo_pairs_subspace(delta):
    """Pairs (alpha: V->V, beta: W->W) with beta delta = delta alpha, as a
    Subspace of K^(V²+W²) (alpha coordinates first)."""
    v, w = delta.cols, delta.rows
    n = v * v + w * w
    # kernel of (alpha, beta) -> beta delta - delta alpha
    cols = []
    for a in range(v):
        for b in range(v):
            alpha = LinearMap.from_cols(v, [basis_vec(a) if j == b else {}
                                            for j in range(v)])
            cols.append(map_to_hom(delta.compose(alpha).scale(-1)))
    for a in range(w):
        for b in range(w):
            beta = LinearMap.from_cols(w, [basis_vec(a) if j == b else {}
                                           for j in range(w)])
            cols.append(map_to_hom(beta.compose(delta)))
    return LinearMap.from_cols(w * v, cols).kernel()


def pair_maps(vec, v, w):
    """Split a (V²+W²)-coordinate vector into (alpha, beta) LinearMaps."""
    alpha = {k: c for k, c in vec.items() if k < v * v}
    beta = {k - v * v: c for k, c in vec.items() if k >= v * v}
    return hom_to_map(alpha, v, v), hom_to_map(beta, w, w)


def endo_xmod(delta):
    """(Hom(W,V), End(V,W,delta), Gamma) for delta: V -> W, as a concrete
    associative crossed module.

    Bottom product d d' = d∘delta∘d'; top product is componentwise
    composition; Gamma(d) = (d∘delta, delta∘d); actions (a,b)·d = a∘d and
    d·(a,b) = d∘b.
    """
    v, w = delta.cols, delta.rows
    pairs = endo_pairs_subspace(delta)
    ends = [pair_maps(r, v, w) for r in pairs.rows]
    homs = [hom_to_map({idx: 1}, v, w) for idx in range(v * w)]

    def to_pair_coords(alpha, beta):
        vec = dict(map_to_hom(alpha))
        for key, c in map_to_hom(beta).items():
            vec[v * v + key] = c
        return pairs.coords(vec)

    b_tensor = [[map_to_hom(da.compose(delta).compose(db)) for db in homs]
                for da in homs]
    B = AssocAlgebra("Hom", tuple("d%d" % i for i in range(len(homs))),
                     b_tensor)
    a_tensor = [[to_pair_coords(aa.compose(ba), ab.compose(bb))
                 for ba, bb in ends] for aa, ab in ends]
    A = AssocAlgebra("End", tuple("e%d" % i for i in range(pairs.dim)),
                     a_tensor)
    rho = LinearMap.from_cols(
        pairs.dim, [to_pair_coords(d.compose(delta), delta.compose(d))
                    for d in homs])
    left = [[map_to_hom(alpha.compose(d)) for d in homs] for alpha, _ in ends]
    right = [[map_to_hom(d.compose(beta)) for _, beta in ends] for d in homs]
    return AssocXMod(B, A, rho, Action(A, B, left, right))


# ---------------------------------------------------------------------------
# crossed-module representations


@dataclass(frozen=True)
class LeibnizXModRep:
    """(N, M, mu) with p-actions (as plain representations) and the two
    bilinear bridge maps; xi1[j]: M -> N is xi1(q_j, ·), xi2[j] is
    xi2(·, q_j)."""

    xmod: object            # LeibnizXMod
    mu: LinearMap           # N -> M
    rep_n: LeibnizRep
    rep_m: LeibnizRep
    xi1: tuple              # per q-basis LinearMap M -> N
    xi2: tuple

    @property
    def n_dim(self):
        return self.rep_n.module_dim

    @property
    def m_dim(self):
        return self.rep_m.module_dim

    def xi1_of(self, qvec):
        return lincomb(self.xi1, qvec, self.n_dim, self.m_dim)

    def xi2_of(self, qvec):
        return lincomb(self.xi2, qvec, self.n_dim, self.m_dim)


def zero_xmod_rep(x, n_dim, m_dim):
    z = tuple(LinearMap.zero(n_dim, m_dim) for _ in range(x.q.dim))
    return LeibnizXModRep(x, LinearMap.zero(m_dim, n_dim),
                          zero_rep(x.p, n_dim), zero_rep(x.p, m_dim), z, z)


def check_xmod_rep(r):
    """All fourteen identities (two equivariance, twelve bridge identities)
    as exact matrix equations over basis elements."""
    bad = []
    bad += [("rep_n",) + v for v in check_rep(r.rep_n)]
    bad += [("rep_m",) + v for v in check_rep(r.rep_m)]
    x = r.xmod
    q, p, eta, act = x.q, x.p, x.eta, x.action
    mu = r.mu
    LN, RN = r.rep_n.left_mats, r.rep_n.right_mats
    LM, RM = r.rep_m.left_mats, r.rep_m.right_mats
    ln, rn = r.rep_n.left, r.rep_n.right
    lm, rm = r.rep_m.left, r.rep_m.right

    for i in range(p.dim):
        if mu.compose(LN[i]) != LM[i].compose(mu):
            bad.append(("LbEQ1", i))
        if mu.compose(RN[i]) != RM[i].compose(mu):
            bad.append(("LbEQ2", i))
    for j in range(q.dim):
        etaj = eta.col(j)
        if mu.compose(r.xi2[j]) != rm(etaj):
            bad.append(("LbM1a", j))
        if mu.compose(r.xi1[j]) != lm(etaj):
            bad.append(("LbM1b", j))
        if r.xi2[j].compose(mu) != rn(etaj):
            bad.append(("LbM2a", j))
        if r.xi1[j].compose(mu) != ln(etaj):
            bad.append(("LbM2b", j))
    for i in range(p.dim):
        for j in range(q.dim):
            pq = act.left(basis_vec(i), basis_vec(j))
            qp = act.right(basis_vec(j), basis_vec(i))
            if r.xi2_of(pq) != r.xi2[j].compose(RM[i]).add(
                    RN[i].compose(r.xi2[j]).scale(-1)):
                bad.append(("LbM3a", (i, j)))
            if r.xi1_of(pq) != r.xi2[j].compose(LM[i]).add(
                    LN[i].compose(r.xi2[j]).scale(-1)):
                bad.append(("LbM3b", (i, j)))
            if r.xi2_of(qp) != RN[i].compose(r.xi2[j]).add(
                    r.xi2[j].compose(RM[i]).scale(-1)):
                bad.append(("LbM3c", (i, j)))
            if r.xi1_of(qp) != RN[i].compose(r.xi1[j]).add(
                    r.xi1[j].compose(RM[i]).scale(-1)):
                bad.append(("LbM3d", (i, j)))
            if r.xi1[j].compose(LM[i]) != r.xi1[j].compose(RM[i]).scale(-1):
                bad.append(("LbM5a", (i, j)))
            if LN[i].compose(r.xi1[j]) != LN[i].compose(r.xi2[j]).scale(-1):
                bad.append(("LbM5b", (i, j)))
    for j in range(q.dim):
        for j2 in range(q.dim):
            qq = q.product_basis(j, j2)
            eta_j, eta_j2 = eta.col(j), eta.col(j2)
            if r.xi2_of(qq) != rn(eta_j2).compose(r.xi2[j]).add(
                    rn(eta_j).compose(r.xi2[j2]).scale(-1)):
                bad.append(("LbM4a", (j, j2)))
            if r.xi1_of(qq) != rn(eta_j2).compose(r.xi1[j]).add(
                    ln(eta_j).compose(r.xi2[j2]).scale(-1)):
                bad.append(("LbM4b", (j, j2)))
    return bad


# ---------------------------------------------------------------------------
# left modules over the truncated enveloping crossed module


@dataclass(frozen=True)
class XModLeftModule:
    """A module over a truncated enveloping crossed module: psi = a pair of
    UL(p)-modules on N and M, phi = one Hom(M,N) value per kernel-basis
    row of B."""

    tx: TruncAssocXMod
    mu: LinearMap
    psi_n: ULModule
    psi_m: ULModule
    phi_cols: tuple  # LinearMap M -> N per row of tx.B

    @property
    def n_dim(self):
        return self.psi_n.dim

    @property
    def m_dim(self):
        return self.psi_m.dim

    def phi(self, b_coords):
        return lincomb(self.phi_cols, b_coords, self.n_dim, self.m_dim)


def phi_word_evaluator(tx, rep):
    """Memoized leftmost-first evaluation of T(Phi) on words of the
    ambient free algebra, as block matrices on N ⊕ M."""
    x = tx.x
    nq, np_ = x.q.dim, x.p.dim
    n_sd = nq + np_
    n, m = rep.n_dim, rep.m_dim
    size = n + m

    def block(tl, tr, br):
        cols = [tl.col(j) for j in range(n)]
        for j in range(m):
            col = tr.col(j)
            col.update((n + i, c) for i, c in br.col(j).items())
            cols.append(col)
        return LinearMap.from_cols(size, cols)

    gens = []
    for g in range(2 * n_sd):
        r_copy = g >= n_sd
        idx = g - n_sd if r_copy else g
        if idx < nq:
            etaq = x.eta.col(idx)
            if r_copy:
                gens.append(block(rep.rep_n.right(etaq), rep.xi2[idx],
                                  LinearMap.zero(m, m)))
            else:
                gens.append(block(rep.rep_n.left(etaq), rep.xi1[idx],
                                  LinearMap.zero(m, m)))
        else:
            i = idx - nq
            if r_copy:
                gens.append(block(rep.rep_n.right_mats[i],
                                  LinearMap.zero(n, m),
                                  rep.rep_m.right_mats[i]))
            else:
                gens.append(block(rep.rep_n.left_mats[i],
                                  LinearMap.zero(n, m),
                                  rep.rep_m.left_mats[i]))

    word_mat = word_fold(gens, lambda a, b: b.compose(a),
                         LinearMap.identity(size))

    def eval_vec(vec):
        return lincomb({w: word_mat(w) for w in vec}, vec, size, size)

    return eval_vec


def _m_column_blocks(mat, n, m):
    """(N <- M block, M <- M block) of a map on N ⊕ M."""
    cols = [mat.col(n + j) for j in range(m)]
    top = LinearMap.from_cols(n, [{i: c for i, c in col.items() if i < n}
                                  for col in cols])
    bot = LinearMap.from_cols(m, [{i - n: c for i, c in col.items() if i >= n}
                                  for col in cols])
    return top, bot


class XRepAxiomError(ValueError):
    """Raised by :func:`rep_to_xmodule` for an input that fails
    ``check_xmod_rep``; ``violations`` is that check's list."""

    def __init__(self, violations):
        super().__init__("not a representation: %r" % violations[:3])
        self.violations = violations


def rep_to_xmodule(r, tx):
    """Build the module: psi from the p-actions, phi by evaluating Phi on
    the kernel basis.  Phi multiplies matrices, so it is well defined once
    it kills the ambient ideal's rows (``freealg.TruncIdeal``); a
    violated generator raises with its leading word.

    The input is checked once, by ``check_xmod_rep``.  Its ``check_rep``
    on the p-actions on N and M is what makes psi two UL(p)-modules: the
    defining relations of UL(p) act as zero on ``rep_to_module(rep)``
    exactly when the three representation axioms hold (``envelope``)."""
    if r.xmod is not tx.x and r.xmod != tx.x:
        raise ValueError("representation and envelope have different inputs")
    bad = check_xmod_rep(r)
    if bad:
        raise XRepAxiomError(bad)
    psi_n, psi_m = rep_to_module(r.rep_n), rep_to_module(r.rep_m)
    ev = phi_word_evaluator(tx, r)
    n, m = r.n_dim, r.m_dim
    for gen in tx.ambient.ideal.rows:
        top, bot = _m_column_blocks(ev(gen), n, m)
        if not top.is_zero() or not bot.is_zero():
            raise ValueError(
                "Phi does not vanish on the ideal; leading word %s"
                % (min(gen, key=word_key),))
    cols = []
    for brow in tx.B.rows:
        vec = tx.ambient.from_coords(brow)
        top, bot = _m_column_blocks(ev(vec), n, m)
        if not bot.is_zero():
            raise ValueError("kernel class does not map into Hom(M, N)")
        cols.append(top)
    return XModLeftModule(tx, r.mu, psi_n, psi_m, tuple(cols))


def xmodule_to_rep(mod):
    """Read the representation data back off the degree-1 classes."""
    tx = mod.tx
    x = tx.x
    nq = x.q.dim
    n_sd = nq + x.p.dim
    rep_n, rep_m = module_to_rep(mod.psi_n), module_to_rep(mod.psi_m)

    def phi_of_word(g):
        v = tx.ambient.to_coords(tx.ambient.reduce_word((g,)))
        return mod.phi(tx.B.coords(v))

    xi1 = tuple(phi_of_word(j) for j in range(nq))
    xi2 = tuple(phi_of_word(n_sd + j) for j in range(nq))
    return LeibnizXModRep(x, mod.mu, rep_n, rep_m, xi1, xi2)


def check_xmodule(mod):
    """Crossed-module-morphism conditions for (phi, psi) at the report
    degree: psi∘rho = Gamma∘phi on the kernel filtration basis, and the
    two bimodule equations against the embedded letters of UL(p).

    The letters suffice, by the induction of
    :func:`xul.check_trunc_xmod`: for a class word r = r′·g, embed(r)·b =
    embed(r′)·(embed(g)·b) and b·embed(r) = (b·embed(r′))·embed(g), and
    ``ULModule.class_mat`` folds the generator matrices, so psi(r) =
    psi(g)∘psi(r′).  Then phi(embed(r)·b) = phi(embed(g)·b)∘psi_m(r′) =
    phi(b)∘psi_m(r), and phi(b·embed(r)) = psi_n(g)∘phi(b·embed(r′)) =
    psi_n(r)∘phi(b).  The unit gives phi(b) on both sides."""
    tx = mod.tx
    d = tx.report_degree
    bar, up = tx.ambient, tx.ul_p
    bad = []
    letters = [{w: 1} for w in up.class_words if len(w) == 1]

    def phi(v):
        return mod.phi(tx.B.coords(bar.to_coords(v)))

    rows = tx.b_filtration(d)
    for deg, v in rows:
        c = bar.to_coords(v)
        bc = tx.B.coords(c)
        rho_b = tx.rho.apply(bc)
        alpha = mod.psi_n.class_mat(up.from_coords(rho_b))
        beta = mod.psi_m.class_mat(up.from_coords(rho_b))
        pb = mod.phi(bc)
        if alpha != pb.compose(mod.mu):
            bad.append(("gamma_alpha", deg))
        if beta != mod.mu.compose(pb):
            bad.append(("gamma_beta", deg))
        for u in letters if deg < d else ():
            a = bar.from_coords(tx.embed.apply(up.to_coords(u)))
            if phi(bar.mult(a, v, d)) != pb.compose(mod.psi_m.class_mat(u)):
                bad.append(("phi_ab", (1, deg)))
            if phi(bar.mult(v, a, d)) != mod.psi_n.class_mat(u).compose(pb):
                bad.append(("phi_ba", (1, deg)))
    return bad


def check_xmodule_morphism(mod1, mod2, f_n, f_m):
    """Morphism of modules over the same enveloping crossed module: a pair
    of maps commuting with mu, psi and phi."""
    bad = []
    if mod1.tx is not mod2.tx and mod1.tx.x != mod2.tx.x:
        raise ValueError("modules over different enveloping crossed modules")
    if mod2.mu.compose(f_n) != f_m.compose(mod1.mu):
        bad.append(("mu_square", None))
    for g in range(len(mod1.psi_n.gen_mats)):
        if f_n.compose(mod1.psi_n.gen_mats[g]) != \
                mod2.psi_n.gen_mats[g].compose(f_n):
            bad.append(("psi_n", g))
        if f_m.compose(mod1.psi_m.gen_mats[g]) != \
                mod2.psi_m.gen_mats[g].compose(f_m):
            bad.append(("psi_m", g))
    for i in range(len(mod1.phi_cols)):
        if f_n.compose(mod1.phi_cols[i]) != mod2.phi_cols[i].compose(f_m):
            bad.append(("phi", i))
    return bad
