"""Crossed modules and cat¹-objects for Leibniz and associative algebras,
the equivalence between them, morphism checking, and the Lie quotient of a
Leibniz crossed module."""

from dataclasses import dataclass

from .linalg import LinearMap, vec_add_scaled
from .leibniz import (LeibnizAlgebra, LeibnizAction, adjoint_action,
                      basis_vec, check_action, liezation, quotient_algebra,
                      semidirect, subalgebra_ideal_closure, zero_action,
                      zero_algebra)
from .assoc import (AssocAlgebra, AssocAction, assoc_semidirect,
                    check_assoc_action)


# ---------------------------------------------------------------------------
# Leibniz crossed modules


@dataclass(frozen=True)
class LeibnizXMod:
    """Boundary map eta: q -> p with an action of p on q."""

    q: LeibnizAlgebra
    p: LeibnizAlgebra
    eta: LinearMap
    action: LeibnizAction


def zero_xmod(p):
    q = zero_algebra()
    return LeibnizXMod(q, p, LinearMap.zero(p.dim, 0), zero_action(p, q))


def identity_xmod(p):
    return LeibnizXMod(p, p, LinearMap.identity(p.dim), adjoint_action(p))


def _induced_cells(sub, mult, actors):
    """Structure constants on a subspace closed under mult, in its
    canonical coordinates: the product of its basis rows, and the products
    actor·row (left) and row·actor (right) for each actor vector."""
    rows, coords = sub.rows, sub.coords
    return ([[coords(mult(a, b)) for b in rows] for a in rows],
            [[coords(mult(e, a)) for a in rows] for e in actors],
            [[coords(mult(a, e)) for e in actors] for a in rows])


def ideal_inclusion_xmod(p, ideal_sub):
    """An ideal of p as a crossed module via the ambient bracket."""
    tensor, left, right = _induced_cells(
        ideal_sub, p.bracket, [basis_vec(i) for i in range(p.dim)])
    names = tuple("i%d" % a for a in range(ideal_sub.dim))
    q = LeibnizAlgebra("ideal", names, tensor)
    eta = LinearMap.from_cols(p.dim, ideal_sub.rows)
    return LeibnizXMod(q, p, eta, LeibnizAction(p, q, left, right))


def check_xmod(x):
    """Equivariance and Peiffer identities on basis pairs, plus all the
    underlying algebra/action axioms.  Returns a list of violations."""
    bad = []
    for tag, alg in (("q", x.q), ("p", x.p)):
        for v in alg.check_leibniz():
            bad.append(("leibniz_" + tag, v[:3]))
    for v in check_action(x.action):
        bad.append(("action", v))
    q, p, eta, act = x.q, x.p, x.eta, x.action
    for i in range(q.dim):
        for j in range(q.dim):
            lhs = eta.apply(q.bracket_basis(i, j))
            rhs = p.bracket(eta.col(i), eta.col(j))
            if lhs != rhs:
                bad.append(("eta_hom", (i, j)))
            qq = q.bracket_basis(i, j)
            if act.left(eta.col(i), basis_vec(j)) != qq:
                bad.append(("peiffer_left", (i, j)))
            if act.right(basis_vec(i), eta.col(j)) != qq:
                bad.append(("peiffer_right", (i, j)))
    for i in range(p.dim):
        for j in range(q.dim):
            if eta.apply(act.left(basis_vec(i), basis_vec(j))) != \
                    p.bracket(basis_vec(i), eta.col(j)):
                bad.append(("equivariance_left", (i, j)))
            if eta.apply(act.right(basis_vec(j), basis_vec(i))) != \
                    p.bracket(eta.col(j), basis_vec(i)):
                bad.append(("equivariance_right", (i, j)))
    return bad


def check_xmod_morphism(src, dst, phi, psi):
    """(phi, psi) conditions: psi eta = eta' phi and action compatibility."""
    bad = []
    q, p = src.q, src.p
    for i in range(q.dim):
        for j in range(q.dim):
            if phi.apply(q.bracket_basis(i, j)) != \
                    dst.q.bracket(phi.col(i), phi.col(j)):
                bad.append(("phi_hom", (i, j)))
    for i in range(p.dim):
        for j in range(p.dim):
            if psi.apply(p.bracket_basis(i, j)) != \
                    dst.p.bracket(psi.col(i), psi.col(j)):
                bad.append(("psi_hom", (i, j)))
    if psi.compose(src.eta) != dst.eta.compose(phi):
        bad.append(("square", None))
    for i in range(p.dim):
        for j in range(q.dim):
            if phi.apply(src.action.left(basis_vec(i), basis_vec(j))) != \
                    dst.action.left(psi.col(i), phi.col(j)):
                bad.append(("act_left", (i, j)))
            if phi.apply(src.action.right(basis_vec(j), basis_vec(i))) != \
                    dst.action.right(phi.col(j), psi.col(i)):
                bad.append(("act_right", (i, j)))
    return bad


# ---------------------------------------------------------------------------
# cat¹-objects (Leibniz flavor)


@dataclass(frozen=True)
class Cat1Leibniz:
    total: LeibnizAlgebra
    sub: LeibnizAlgebra
    embed: LinearMap  # sub -> total
    s: LinearMap      # total -> sub
    t: LinearMap


def _hom_violations(src, dst, f, mult_src, mult_dst):
    bad = []
    for i in range(src.dim):
        for j in range(src.dim):
            if f.apply(mult_src(basis_vec(i), basis_vec(j))) != \
                    mult_dst(f.col(i), f.col(j)):
                bad.append((i, j))
    return bad


def check_cat1(c):
    """CLb1 (s, t restrict to the identity on the subalgebra) and CLb2
    (kernels annihilate each other)."""
    bad = []
    bad += [("leibniz_total", v[:3]) for v in c.total.check_leibniz()]
    for name, f in (("s", c.s), ("t", c.t)):
        bad += [("%s_hom" % name, v)
                for v in _hom_violations(c.total, c.sub, f,
                                         c.total.bracket, c.sub.bracket)]
        if f.compose(c.embed) != LinearMap.identity(c.sub.dim):
            bad.append(("CLb1_%s" % name, None))
    ks, kt = c.s.kernel(), c.t.kernel()
    for a in ks.rows:
        for b in kt.rows:
            if c.total.bracket(a, b) or c.total.bracket(b, a):
                bad.append(("CLb2", None))
    return bad


def xmod_to_cat1(x):
    """Total algebra q ⋊ p with s(q,p) = p and t(q,p) = eta(q) + p."""
    total = semidirect(x.action)
    nq, np_ = x.q.dim, x.p.dim
    embed = LinearMap.from_cols(nq + np_,
                                [{nq + i: 1} for i in range(np_)])
    s = LinearMap.from_cols(np_, [{} for _ in range(nq)] +
                            [{i: 1} for i in range(np_)])
    t_cols = [x.eta.col(j) for j in range(nq)] + \
        [{i: 1} for i in range(np_)]
    t = LinearMap.from_cols(np_, t_cols)
    return Cat1Leibniz(total, x.p, embed, s, t)


def cat1_to_xmod(c):
    """Ker s with boundary t|_{Ker s} and the action induced by the total
    bracket."""
    K = c.s.kernel()
    tensor, left, right = _induced_cells(
        K, c.total.bracket, [c.embed.col(i) for i in range(c.sub.dim)])
    q = LeibnizAlgebra("Ker s", tuple("k%d" % a for a in range(K.dim)),
                       tensor)
    eta = LinearMap.from_cols(c.sub.dim, [c.t.apply(r) for r in K.rows])
    return LeibnizXMod(q, c.sub, eta, LeibnizAction(c.sub, q, left, right))


def roundtrip_isomorphism(x):
    """The canonical isomorphism x -> cat1_to_xmod(xmod_to_cat1(x)).

    Returns (phi, psi); raises if the morphism conditions fail or the maps
    are not invertible.
    """
    c = xmod_to_cat1(x)
    x2 = cat1_to_xmod(c)
    K = c.s.kernel()
    phi = LinearMap.from_cols(
        x2.q.dim,
        [K.coords({j: 1}) for j in range(x.q.dim)])
    psi = LinearMap.identity(x.p.dim)
    bad = check_xmod_morphism(x, x2, phi, psi)
    if bad:
        raise ValueError("round trip is not a crossed-module morphism: %r"
                         % bad[:3])
    if phi.rank() != x.q.dim or x2.q.dim != x.q.dim:
        raise ValueError("round trip map is not invertible")
    return phi, psi


def cat1_roundtrip_isomorphism(c):
    """Canonical iso c -> xmod_to_cat1(cat1_to_xmod(c)) on total algebras:
    v -> (coords of v - embed(s(v)) in Ker s, s(v))."""
    x = cat1_to_xmod(c)
    c2 = xmod_to_cat1(x)
    K = c.s.kernel()
    k = K.dim
    cols = []
    for j in range(c.total.dim):
        v = {j: 1}
        sv = c.s.apply(v)
        red = dict(v)
        vec_add_scaled(red, c.embed.apply(sv), -1)
        col = K.coords(red)
        for i, val in sv.items():
            col[k + i] = val
        cols.append(col)
    f = LinearMap.from_cols(c2.total.dim, cols)
    bad = _hom_violations(c.total, c2.total, f,
                          c.total.bracket, c2.total.bracket)
    if bad:
        raise ValueError("cat1 round trip not a homomorphism: %r" % bad[:3])
    if c2.s.compose(f) != c.s or c2.t.compose(f) != c.t:
        raise ValueError("cat1 round trip does not commute with s, t")
    if f.rank() != c.total.dim or c2.total.dim != c.total.dim:
        raise ValueError("cat1 round trip map is not invertible")
    return f


# ---------------------------------------------------------------------------
# associative crossed modules and cat¹-algebras


@dataclass(frozen=True)
class AssocXMod:
    B: AssocAlgebra
    A: AssocAlgebra
    rho: LinearMap
    action: AssocAction


def check_assoc_xmod(x):
    bad = []
    bad += [("assoc_B", v[:3]) for v in x.B.check_assoc()]
    bad += [("assoc_A", v[:3]) for v in x.A.check_assoc()]
    bad += [("action", v) for v in check_assoc_action(x.action)]
    B, A, rho, act = x.B, x.A, x.rho, x.action
    for i in range(B.dim):
        for j in range(B.dim):
            bb = B.mult_basis(i, j)
            if rho.apply(bb) != A.mult(rho.col(i), rho.col(j)):
                bad.append(("rho_hom", (i, j)))
            if act.left(rho.col(i), basis_vec(j)) != bb:
                bad.append(("peiffer_left", (i, j)))
            if act.right(basis_vec(i), rho.col(j)) != bb:
                bad.append(("peiffer_right", (i, j)))
    for i in range(A.dim):
        for j in range(B.dim):
            if rho.apply(act.left(basis_vec(i), basis_vec(j))) != \
                    A.mult(basis_vec(i), rho.col(j)):
                bad.append(("equivariance_left", (i, j)))
            if rho.apply(act.right(basis_vec(j), basis_vec(i))) != \
                    A.mult(rho.col(j), basis_vec(i)):
                bad.append(("equivariance_right", (i, j)))
    return bad


@dataclass(frozen=True)
class Cat1Assoc:
    total: AssocAlgebra
    sub: AssocAlgebra
    embed: LinearMap
    s: LinearMap
    t: LinearMap


def check_cat1_assoc(c):
    bad = []
    bad += [("assoc_total", v[:3]) for v in c.total.check_assoc()]
    for name, f in (("s", c.s), ("t", c.t)):
        bad += [("%s_hom" % name, v)
                for v in _hom_violations(c.total, c.sub, f,
                                         c.total.mult, c.sub.mult)]
        if f.compose(c.embed) != LinearMap.identity(c.sub.dim):
            bad.append(("CAs1_%s" % name, None))
    ks, kt = c.s.kernel(), c.t.kernel()
    for a in ks.rows:
        for b in kt.rows:
            if c.total.mult(a, b) or c.total.mult(b, a):
                bad.append(("CAs2", None))
    return bad


def assoc_xmod_to_cat1(x):
    total = assoc_semidirect(x.action)
    nb, na = x.B.dim, x.A.dim
    embed = LinearMap.from_cols(nb + na,
                                [{nb + i: 1} for i in range(na)])
    s = LinearMap.from_cols(na, [{} for _ in range(nb)] +
                            [{i: 1} for i in range(na)])
    t = LinearMap.from_cols(na, [x.rho.col(j) for j in range(nb)] +
                            [{i: 1} for i in range(na)])
    return Cat1Assoc(total, x.A, embed, s, t)


def assoc_cat1_to_xmod(c):
    K = c.s.kernel()
    tensor, left, right = _induced_cells(
        K, c.total.mult, [c.embed.col(i) for i in range(c.sub.dim)])
    B = AssocAlgebra("Ker s", tuple("k%d" % a for a in range(K.dim)), tensor)
    rho = LinearMap.from_cols(c.sub.dim, [c.t.apply(r) for r in K.rows])
    return AssocXMod(B, c.sub, rho, AssocAction(c.sub, B, left, right))


def check_assoc_xmod_morphism(src, dst, phi, psi):
    bad = []
    bad += [("phi_hom", v) for v in _hom_violations(src.B, dst.B, phi,
                                                    src.B.mult, dst.B.mult)]
    bad += [("psi_hom", v) for v in _hom_violations(src.A, dst.A, psi,
                                                    src.A.mult, dst.A.mult)]
    if psi.compose(src.rho) != dst.rho.compose(phi):
        bad.append(("square", None))
    for i in range(src.A.dim):
        for j in range(src.B.dim):
            if phi.apply(src.action.left(basis_vec(i), basis_vec(j))) != \
                    dst.action.left(psi.col(i), phi.col(j)):
                bad.append(("act_left", (i, j)))
            if phi.apply(src.action.right(basis_vec(j), basis_vec(i))) != \
                    dst.action.right(phi.col(j), psi.col(i)):
                bad.append(("act_right", (i, j)))
    return bad


def assoc_roundtrip_isomorphism(x):
    c = assoc_xmod_to_cat1(x)
    x2 = assoc_cat1_to_xmod(c)
    K = c.s.kernel()
    phi = LinearMap.from_cols(
        x2.B.dim,
        [K.coords({j: 1}) for j in range(x.B.dim)])
    psi = LinearMap.identity(x.A.dim)
    bad = check_assoc_xmod_morphism(x, x2, phi, psi)
    if bad:
        raise ValueError("round trip is not a crossed-module morphism: %r"
                         % bad[:3])
    if phi.rank() != x.B.dim or x2.B.dim != x.B.dim:
        raise ValueError("round trip map is not invertible")
    return phi, psi


# ---------------------------------------------------------------------------
# liezation of a crossed module


def xliez(x):
    """(Liez(q)/[q,p]_x, Liez(p), induced boundary) with the induced action.

    The bracket ideal [q,p]_x is closed under both the quotient bracket and
    the p-action; every induced map is checked for well-definedness.
    """
    q, p, eta, act = x.q, x.p, x.eta, x.action
    Lq, projq = liezation(q)
    Lp, projp = liezation(p)

    kq = projq.kernel()
    kp = projp.kernel()

    # p-action descends to Liez(q): kernel generators are killed
    for r in kq.rows:
        for i in range(p.dim):
            if projq.apply(act.left(basis_vec(i), r)) or \
                    projq.apply(act.right(r, basis_vec(i))):
                raise ValueError("p-action does not descend to Liez(q)")

    comp_q = kq.complement_pivots()
    gens = []
    for i in range(p.dim):
        for j in range(q.dim):
            g = act.right(basis_vec(j), basis_vec(i))
            vec_add_scaled(g, act.left(basis_vec(i), basis_vec(j)), 1)
            pg = projq.apply(g)
            if pg:
                gens.append(pg)
    maps = []
    for i in range(p.dim):
        maps.append(lambda v, i=i: projq.apply(
            act.left(basis_vec(i), _lift_rows(v, comp_q))))
        maps.append(lambda v, i=i: projq.apply(
            act.right(_lift_rows(v, comp_q), basis_vec(i))))
    J = subalgebra_ideal_closure(Lq, gens, also_maps=maps)
    qbar, projJ = quotient_algebra(Lq, J, name="Liez(q)/[q,p]x")

    proj_qbar = projJ.compose(projq)  # q -> qbar
    # induced boundary: eta maps ker(proj_qbar) into ker(projp)
    for r in proj_qbar.kernel().rows:
        if projp.apply(eta.apply(r)):
            raise ValueError("boundary does not descend to the Lie quotient")
    comp_qbar = proj_qbar.kernel().complement_pivots()
    eta_bar = LinearMap.from_cols(
        Lp.dim, [projp.apply(eta.col(c)) for c in comp_qbar])

    comp_p = kp.complement_pivots()
    # kernel of projp must act as zero on qbar
    for r in kp.rows:
        for c in comp_qbar:
            if proj_qbar.apply(act.left(r, {c: 1})) or \
                    proj_qbar.apply(act.right({c: 1}, r)):
                raise ValueError("Liez(p) action is not well defined")
    nqb, npb = qbar.dim, Lp.dim
    ps = [basis_vec(c) for c in comp_p]
    qs = [basis_vec(c) for c in comp_qbar]
    left = [[proj_qbar.apply(act.left(pi, qa)) for qa in qs] for pi in ps]
    right = [[proj_qbar.apply(act.right(qa, pi)) for pi in ps] for qa in qs]
    xbar = LeibnizXMod(qbar, Lp, eta_bar,
                       LeibnizAction(Lp, qbar, left, right))
    bad = check_xmod(xbar)
    if bad:
        raise ValueError("liezation output fails crossed-module axioms: %r"
                         % bad[:3])
    # Lie flavor: antisymmetric bracket and action
    assert qbar.is_lie() and Lp.is_lie()
    for i in range(npb):
        for a in range(nqb):
            s = dict(xbar.action.left(basis_vec(i), basis_vec(a)))
            vec_add_scaled(s, xbar.action.right(basis_vec(a), basis_vec(i)),
                           1)
            assert not s, "Lie quotient action is not antisymmetric"
    return xbar, proj_qbar, projp


def _lift_rows(v, comp):
    return {comp[a]: c for a, c in v.items()}
