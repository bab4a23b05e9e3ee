"""Crossed modules and cat¹-objects for Leibniz and associative algebras,
the equivalence between them, and morphism checking.

Each construction and check has one body for both flavours.  What differs
is passed in: the product, as the unbound method ``LeibnizAlgebra.bracket``
or ``AssocAlgebra.mult``; the algebra-axiom check; the violation tags; and
the constructors.  A crossed module unpacks as (bottom, top, boundary,
action)."""

from dataclasses import dataclass
from typing import NamedTuple

from .linalg import LinearMap, vec_add_scaled
from .leibniz import (Action, LeibnizAlgebra, adjoint_action, basis_vec,
                      check_action, denominator, integral_algebra, scaled,
                      semidirect, zero_action, zero_algebra)
from .assoc import AssocAlgebra, assoc_semidirect, check_assoc_action


class LeibnizXMod(NamedTuple):
    """Boundary map eta: q -> p with an action of p on q."""

    q: LeibnizAlgebra
    p: LeibnizAlgebra
    eta: LinearMap
    action: Action


class AssocXMod(NamedTuple):
    """Boundary map rho: B -> A with an action of A on B."""

    B: AssocAlgebra
    A: AssocAlgebra
    rho: LinearMap
    action: Action


def zero_xmod(p):
    q = zero_algebra()
    return LeibnizXMod(q, p, LinearMap.zero(p.dim, 0), zero_action(p, q))


def identity_xmod(p):
    return LeibnizXMod(p, p, LinearMap.identity(p.dim), adjoint_action(p))


def _induced_cells(sub, alg, mult, actors):
    """Structure constants on a subspace of alg closed under mult, in its
    canonical coordinates: the product of its basis rows, and the products
    actor·row (left) and row·actor (right) for each actor vector."""
    rows, coords = sub.rows, sub.coords
    return ([[coords(mult(alg, a, b)) for b in rows] for a in rows],
            [[coords(mult(alg, e, a)) for a in rows] for e in actors],
            [[coords(mult(alg, a, e)) for e in actors] for a in rows])


def ideal_inclusion_xmod(p, ideal_sub):
    """An ideal of p as a crossed module via the ambient bracket."""
    tensor, left, right = _induced_cells(
        ideal_sub, p, LeibnizAlgebra.bracket,
        [basis_vec(i) for i in range(p.dim)])
    names = tuple("i%d" % a for a in range(ideal_sub.dim))
    q = LeibnizAlgebra("ideal", names, tensor)
    eta = LinearMap.from_cols(p.dim, ideal_sub.rows)
    return LeibnizXMod(q, p, eta, Action(p, q, left, right))


def _constants(alg):
    return (alg.bracket_tensor if isinstance(alg, LeibnizAlgebra)
            else alg.product_tensor)


def integral(obj):
    """An isomorphic copy of an algebra or a crossed module, Leibniz or
    associative, whose structure constants are all ``int``; obj itself
    when they already are.

    An algebra is taken to the basis δ·e_i (:func:`integral_algebra`).  A
    crossed module (q, p, η, action) has p's basis scaled by μ, the lcm of
    the denominators of p's constants and of both action tensors, and q's
    by λ = μL, L that of q's constants and η's entries.  Its constants
    become μ·c_p, μ·(left and right action), λ·c_q and L·η: all integers.

    Every report that holds only isomorphism invariants may use the copy.
    Each checked identity is multilinear in its basis arguments, so it
    fails on a tuple of basis vectors exactly when it fails on their
    rescaled versions: violation tuples are the same.  A diagonal
    rescaling of the generators of a presented algebra only scales each
    word, so the diamond-lemma pass sees the same leading words and
    ambiguities and resolves the same ones, and pivots and complement
    coordinates, which depend only on supports, are the same: so are
    dimensions, class words and certificates."""
    if not isinstance(obj, tuple):
        return integral_algebra(obj, _constants(obj))[0]
    q, p, eta, act = obj
    mu = denominator(_constants(p), act.left_tensor, act.right_tensor)
    el = denominator(_constants(q), [[eta.col(j) for j in range(eta.cols)]])
    if mu == el == 1:
        return obj
    q2 = type(q)(q.name, q.basis, scaled(_constants(q), mu * el))
    p2 = type(p)(p.name, p.basis, scaled(_constants(p), mu))
    return type(obj)(q2, p2, eta.scale(el),
                     Action(p2, q2, scaled(act.left_tensor, mu),
                            scaled(act.right_tensor, mu)))


def identity_violations(bottom, top, mult, top_mult, boundary, left, right,
                        hom_tag, bound=None):
    """The five crossed-module identities: the boundary is multiplicative
    (tag hom_tag), Peiffer left and right on pairs of bottom rows, then
    equivariance left and right on pairs (top row, bottom row).

    bottom and top are lists of (label, vector); left(r, b) and right(b, r)
    are the top's actions on the bottom.  A violation is (tag, pair of
    labels).  With a bound the labels are degrees, and a pair is checked
    only when its degrees sum to at most the bound."""
    def within(la, lb):
        return bound is None or la + lb <= bound

    imaged = [(lb, b, boundary(b)) for lb, b in bottom]
    bad = []
    for la, a, ra in imaged:
        for lb, b, rb in imaged:
            if not within(la, lb):
                continue
            ab = mult(a, b)
            if boundary(ab) != top_mult(ra, rb):
                bad.append((hom_tag, (la, lb)))
            if left(ra, b) != ab:
                bad.append(("peiffer_left", (la, lb)))
            if right(a, rb) != ab:
                bad.append(("peiffer_right", (la, lb)))
    for lr, r in top:
        for lb, b, rb in imaged:
            if not within(lr, lb):
                continue
            if boundary(left(r, b)) != top_mult(r, rb):
                bad.append(("equivariance_left", (lr, lb)))
            if boundary(right(b, r)) != top_mult(rb, r):
                bad.append(("equivariance_right", (lr, lb)))
    return bad


def _xmod_violations(x, axioms, action_axioms, mult, tags):
    """Algebra and action axioms, then the crossed-module identities
    (:func:`identity_violations`) on basis vectors labelled by index,
    checked in ``int`` on the integral copy of x (:func:`integral`).
    tags names the axiom violations of the bottom and top algebras and the
    boundary's."""
    q, p, eta, act = integral(x)
    bad = [(tags[0], v[:3]) for v in axioms(q)]
    bad += [(tags[1], v[:3]) for v in axioms(p)]
    bad += [("action", v) for v in action_axioms(act)]
    return bad + identity_violations(
        [(i, basis_vec(i)) for i in range(q.dim)],
        [(i, basis_vec(i)) for i in range(p.dim)],
        lambda a, b: mult(q, a, b), lambda a, b: mult(p, a, b), eta.apply,
        act.left, act.right, tags[2])


def check_xmod(x):
    """Equivariance and Peiffer identities on basis pairs, plus all the
    underlying algebra/action axioms.  Returns a list of violations."""
    return _xmod_violations(x, LeibnizAlgebra.check_leibniz, check_action,
                            LeibnizAlgebra.bracket,
                            ("leibniz_q", "leibniz_p", "eta_hom"))


def check_assoc_xmod(x):
    return _xmod_violations(x, AssocAlgebra.check_assoc, check_assoc_action,
                            AssocAlgebra.mult,
                            ("assoc_B", "assoc_A", "rho_hom"))


def _hom_violations(src, dst, f, mult):
    bad = []
    for i in range(src.dim):
        for j in range(src.dim):
            if f.apply(mult(src, basis_vec(i), basis_vec(j))) != \
                    mult(dst, f.col(i), f.col(j)):
                bad.append((i, j))
    return bad


def _morphism_violations(src, dst, phi, psi, mult):
    """(phi, psi) conditions: both homomorphisms, psi eta = eta' phi and
    action compatibility."""
    q, p, eta, act = src
    q2, p2, eta2, act2 = dst
    bad = [("phi_hom", v) for v in _hom_violations(q, q2, phi, mult)]
    bad += [("psi_hom", v) for v in _hom_violations(p, p2, psi, mult)]
    if psi.compose(eta) != eta2.compose(phi):
        bad.append(("square", None))
    for i in range(p.dim):
        for j in range(q.dim):
            if phi.apply(act.left(basis_vec(i), basis_vec(j))) != \
                    act2.left(psi.col(i), phi.col(j)):
                bad.append(("act_left", (i, j)))
            if phi.apply(act.right(basis_vec(j), basis_vec(i))) != \
                    act2.right(phi.col(j), psi.col(i)):
                bad.append(("act_right", (i, j)))
    return bad


def check_xmod_morphism(src, dst, phi, psi):
    return _morphism_violations(src, dst, phi, psi, LeibnizAlgebra.bracket)


def check_assoc_xmod_morphism(src, dst, phi, psi):
    return _morphism_violations(src, dst, phi, psi, AssocAlgebra.mult)


# ---------------------------------------------------------------------------
# cat¹-objects


@dataclass(frozen=True)
class Cat1:
    """A cat¹-object, Leibniz or associative: a total algebra with two
    algebra maps s, t onto a subalgebra that both split its embedding."""

    total: object
    sub: object
    embed: LinearMap  # sub -> total
    s: LinearMap      # total -> sub
    t: LinearMap


def _cat1_violations(c, axioms, mult, tags):
    """The total algebra's axioms, then s and t as homomorphisms that
    restrict to the identity on the subalgebra (tag prefix + "1") and
    kernels that annihilate each other (prefix + "2"); tags is (axiom tag,
    prefix)."""
    axiom_tag, cat_tag = tags
    bad = [(axiom_tag, v[:3]) for v in axioms(c.total)]
    for name, f in (("s", c.s), ("t", c.t)):
        bad += [("%s_hom" % name, v)
                for v in _hom_violations(c.total, c.sub, f, mult)]
        if f.compose(c.embed) != LinearMap.identity(c.sub.dim):
            bad.append(("%s1_%s" % (cat_tag, name), None))
    ks, kt = c.s.kernel(), c.t.kernel()
    for a in ks.rows:
        for b in kt.rows:
            if mult(c.total, a, b) or mult(c.total, b, a):
                bad.append((cat_tag + "2", None))
    return bad


def check_cat1(c):
    """CLb1 (s, t restrict to the identity on the subalgebra) and CLb2
    (kernels annihilate each other)."""
    return _cat1_violations(c, LeibnizAlgebra.check_leibniz,
                            LeibnizAlgebra.bracket, ("leibniz_total", "CLb"))


def check_cat1_assoc(c):
    return _cat1_violations(c, AssocAlgebra.check_assoc, AssocAlgebra.mult,
                            ("assoc_total", "CAs"))


def cat1_matrices(eta):
    """s(q,p) = p and t(q,p) = eta(q) + p as maps on q ⊕ p coordinates,
    for a linear map eta: q -> p."""
    nq, np_ = eta.cols, eta.rows
    s_cols = [{} for _ in range(nq)] + [{i: 1} for i in range(np_)]
    t_cols = [eta.col(j) for j in range(nq)] + \
        [{i: 1} for i in range(np_)]
    return (LinearMap.from_cols(np_, s_cols), LinearMap.from_cols(np_, t_cols))


def _xmod_to_cat1(x, semidirect_of):
    q, p, eta, act = x
    embed = LinearMap.from_cols(q.dim + p.dim,
                                [{q.dim + i: 1} for i in range(p.dim)])
    return Cat1(semidirect_of(act), p, embed, *cat1_matrices(eta))


def xmod_to_cat1(x):
    """Total algebra q ⋊ p with s(q,p) = p and t(q,p) = eta(q) + p."""
    return _xmod_to_cat1(x, semidirect)


def assoc_xmod_to_cat1(x):
    return _xmod_to_cat1(x, assoc_semidirect)


def _cat1_to_xmod(c, mult, algebra, xmod):
    """Ker s with boundary t|_{Ker s} and the action induced by the total
    product, built with the algebra and crossed-module constructors."""
    K = c.s.kernel()
    tensor, left, right = _induced_cells(
        K, c.total, mult, [c.embed.col(i) for i in range(c.sub.dim)])
    bottom = algebra("Ker s", tuple("k%d" % a for a in range(K.dim)), tensor)
    eta = LinearMap.from_cols(c.sub.dim, [c.t.apply(r) for r in K.rows])
    return xmod(bottom, c.sub, eta, Action(c.sub, bottom, left, right))


def cat1_to_xmod(c):
    return _cat1_to_xmod(c, LeibnizAlgebra.bracket, LeibnizAlgebra,
                         LeibnizXMod)


def assoc_cat1_to_xmod(c):
    return _cat1_to_xmod(c, AssocAlgebra.mult, AssocAlgebra, AssocXMod)


def _roundtrip_isomorphism(x, to_cat1, to_xmod, morphism_violations):
    """The canonical isomorphism x -> to_xmod(to_cat1(x)).

    Returns (phi, psi); raises if the morphism conditions fail or the maps
    are not invertible.
    """
    c = to_cat1(x)
    x2 = to_xmod(c)
    K = c.s.kernel()
    q, p, q2 = x[0], x[1], x2[0]
    phi = LinearMap.from_cols(q2.dim,
                              [K.coords({j: 1}) for j in range(q.dim)])
    psi = LinearMap.identity(p.dim)
    bad = morphism_violations(x, x2, phi, psi)
    if bad:
        raise ValueError("round trip is not a crossed-module morphism: %r"
                         % bad[:3])
    if phi.rank() != q.dim or q2.dim != q.dim:
        raise ValueError("round trip map is not invertible")
    return phi, psi


def roundtrip_isomorphism(x):
    return _roundtrip_isomorphism(x, xmod_to_cat1, cat1_to_xmod,
                                  check_xmod_morphism)


def assoc_roundtrip_isomorphism(x):
    return _roundtrip_isomorphism(x, assoc_xmod_to_cat1, assoc_cat1_to_xmod,
                                  check_assoc_xmod_morphism)


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
    bad = _hom_violations(c.total, c2.total, f, LeibnizAlgebra.bracket)
    if bad:
        raise ValueError("cat1 round trip not a homomorphism: %r" % bad[:3])
    if c2.s.compose(f) != c.s or c2.t.compose(f) != c.t:
        raise ValueError("cat1 round trip does not commute with s, t")
    if f.rank() != c.total.dim or c2.total.dim != c.total.dim:
        raise ValueError("cat1 round trip map is not invertible")
    return f
