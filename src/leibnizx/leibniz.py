"""Finite-dimensional Leibniz algebras over Q: identity checking, actions,
semidirect products, representations, and the universal Lie quotient.

Elements are sparse coordinate vectors, and so are structure constants:
c[i][j] is the sparse vector {k: c} with [e_i, e_j] = sum_k c[i][j][k] e_k.
"""

from dataclasses import dataclass
from math import lcm

from .linalg import (Echelon, LinearMap, Subspace, lincomb, qvec, rational,
                     vec_add_scaled)


def _tensor(dim_i, dim_j, dim_k, cells):
    """Structure constants t[i][j] = {k: c} from nested sequences of
    sparse dicts, in normal form (``qvec``); checks the shape."""
    if len(cells) != dim_i or any(len(row) != dim_j for row in cells):
        raise ValueError("tensor shape does not match (%d, %d, %d)"
                         % (dim_i, dim_j, dim_k))
    return tuple(tuple(qvec(c, dim_k) for c in row) for row in cells)


def denominator(*tensors):
    """The least common denominator of the entries of the tensors."""
    den = 1
    for t in tensors:
        for row in t:
            for cell in row:
                for x in cell.values():
                    if type(x) is not int:
                        den = lcm(den, x.denominator)
    return den


def scaled(tensor, c):
    """Every entry of a tensor times c."""
    return [[{k: c * x for k, x in cell.items()} for cell in row]
            for row in tensor]


def integral_algebra(alg):
    """(copy, δ) for an algebra: the copy is alg in the basis δ·e_i, δ the
    lcm of the denominators of its structure constants, so its constants
    δ·c are integers; (alg, 1) when they already are."""
    den = denominator(alg.tensor)
    if den == 1:
        return alg, 1
    return type(alg)(alg.name, alg.basis, scaled(alg.tensor, den)), den


def _bilinear(tensor, x, y):
    """Evaluate a structure-constant tensor on sparse vectors."""
    out = {}
    for i, ci in x.items():
        ti = tensor[i]
        for j, cj in y.items():
            if ti[j]:
                vec_add_scaled(out, ti[j], ci * cj)
    return out


def _triple_violations(tensor, twist):
    """The basis triples (i, j, k, lhs, rhs) on which (e_i e_j) e_k =
    e_i (e_j e_k) + twist·(e_i e_k) e_j fails for the product with these
    structure constants: the Leibniz identity at twist 1, associativity at
    twist 0.  It runs in ``int`` on the integral copy (constants δ·c, as
    in :func:`integral_algebra`): the identity is trilinear, so it fails
    there on the same triples, with both sides δ² times these."""
    n, den = len(tensor), denominator(tensor)
    t = tensor if den == 1 else _tensor(n, n, n, scaled(tensor, den))
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _bilinear(t, t[i][j], basis_vec(k))
                rhs = _bilinear(t, basis_vec(i), t[j][k])
                if twist:
                    vec_add_scaled(rhs, _bilinear(t, t[i][k], basis_vec(j)),
                                   twist)
                if lhs != rhs:
                    bad.append((i, j, k, rational(lhs, den * den),
                                rational(rhs, den * den)))
    return bad


def basis_vec(i):
    return {i: 1}


@dataclass(frozen=True)
class Algebra:
    """An algebra given by structure constants, Leibniz or associative:
    tensor[i][j] = {k: c} with e_i e_j = sum_k c e_k.  ``product`` is the
    bracket of a Leibniz algebra and the product of an associative one; a
    subclass adds the check of its axioms."""

    name: str
    basis: tuple
    tensor: tuple

    def __post_init__(self):
        n = len(self.basis)
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "tensor", _tensor(n, n, n, self.tensor))

    @property
    def dim(self):
        return len(self.basis)

    def product(self, x, y):
        return _bilinear(self.tensor, x, y)

    def product_basis(self, i, j):
        return dict(self.tensor[i][j])


class LeibnizAlgebra(Algebra):
    """Leibniz algebra given by structure constants; Lie algebras are the
    antisymmetric special case."""

    def check_leibniz(self):
        """Exhaustive Leibniz identity check; returns violating triples
        (i, j, k, lhs, rhs) (:func:`_triple_violations`)."""
        return _triple_violations(self.tensor, 1)

    def is_lie(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                s = self.product_basis(i, j)
                vec_add_scaled(s, self.product_basis(j, i), 1)
                if s:
                    return False
        return True

    def squares_span(self):
        """span{[x,x]} = span{[e_i,e_j]+[e_j,e_i]} over Q (polarization)."""
        vecs = []
        for i in range(self.dim):
            for j in range(i, self.dim):
                s = self.product_basis(i, j)
                vec_add_scaled(s, self.product_basis(j, i), 1)
                if s:
                    vecs.append(s)
        return Subspace.from_vectors(self.dim, vecs)


def zero_algebra(name="0"):
    return LeibnizAlgebra(name, (), ())


def abelian(name, basis):
    return LeibnizAlgebra(name, tuple(basis),
                          [[{} for _ in basis] for _ in basis])


@dataclass(frozen=True)
class Action:
    """Action of an algebra on another, Leibniz or associative: tensors for
    the products actor·target (left) and target·actor (right), written
    [p_i, q_j] and [q_j, p_i] for Leibniz algebras."""

    actor: object
    target: object
    left_tensor: tuple   # p_i · q_j = sum_k left[i][j][k] q_k
    right_tensor: tuple  # q_j · p_i = sum_k right[j][i][k] q_k

    def __post_init__(self):
        np_, nq = self.actor.dim, self.target.dim
        object.__setattr__(self, "left_tensor",
                           _tensor(np_, nq, nq, self.left_tensor))
        object.__setattr__(self, "right_tensor",
                           _tensor(nq, np_, nq, self.right_tensor))

    def left(self, p, q):
        return _bilinear(self.left_tensor, p, q)

    def right(self, q, p):
        return _bilinear(self.right_tensor, q, p)


def zero_action(p, q):
    return Action(p, q, [[{}] * q.dim for _ in range(p.dim)],
                  [[{}] * p.dim for _ in range(q.dim)])


def adjoint_action(p):
    """p acting on itself by its own bracket."""
    return Action(p, p, p.tensor, p.tensor)


def _action_violations(act, kinds, patterns, twist):
    """The triples of basis vectors on which (xy)z = x(yz) + twist·(xz)y
    fails, for each placement pattern of actor and target entries: the
    Leibniz identity at twist 1, associativity at twist 0, as in
    :func:`_triple_violations`.

    kinds names the (actor, target) entries in the patterns.  Kinded
    vectors (kind, v) multiply by the actor's or the target's ``product``
    when both factors are of one kind, and by the action otherwise."""
    actor, target = act.actor, act.target
    ka, kt = kinds

    def mul(kx, x, ky, y):
        if kx == ka and ky == ka:
            return ka, actor.product(x, y)
        if kx == ka:
            return kt, act.left(x, y)
        if ky == ka:
            return kt, act.right(x, y)
        return kt, target.product(x, y)

    bad = []
    for pat in patterns:
        dims = [target.dim if k == kt else actor.dim for k in pat]
        for i in range(dims[0]):
            for j in range(dims[1]):
                for k in range(dims[2]):
                    x, y, z = zip(pat, map(basis_vec, (i, j, k)))
                    rhs = mul(*x, *mul(*y, *z))[1]
                    if twist:
                        vec_add_scaled(rhs, mul(*mul(*x, *z), *y)[1], twist)
                    if mul(*mul(*x, *y), *z)[1] != rhs:
                        bad.append((pat, (i, j, k)))
    return bad


def check_action(act):
    """The six mixed Leibniz identities, one per placement pattern of the
    q-entries in [[x,y],z] = [x,[y,z]] + [[x,z],y]."""
    return _action_violations(
        act, ("p", "q"),
        (("q", "p", "p"), ("p", "q", "p"), ("p", "p", "q"),
         ("q", "q", "p"), ("q", "p", "q"), ("p", "q", "q")), 1)


def semidirect(act):
    """The semidirect product on q ⊕ p (target first), of the target's
    flavour: (q1,p1)(q2,p2) = (q1 q2 + p1·q2 + q1·p2, p1 p2), for a Leibniz
    algebra [(q1,p1),(q2,p2)] = ([q1,q2]+[p1,q2]+[q1,p2], [p1,p2])."""
    p, q = act.actor, act.target
    nq = q.dim

    def cell(i, j):
        if i < nq and j < nq:
            return q.tensor[i][j]
        if i < nq:
            return act.right_tensor[i][j - nq]
        if j < nq:
            return act.left_tensor[i - nq][j]
        return {nq + k: v for k, v in p.tensor[i - nq][j - nq].items()}

    n = nq + p.dim
    names = tuple("q.%s" % b for b in q.basis) + \
        tuple("p.%s" % b for b in p.basis)
    return type(q)("%s⋊%s" % (q.name, p.name), names,
                   [[cell(i, j) for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class LeibnizRep:
    """Representation of p on a module M: matrices for [p_i, m] (left) and
    [m, p_i] (right)."""

    algebra: LeibnizAlgebra
    module_dim: int
    left_mats: tuple   # left_mats[i] : LinearMap M -> M, m -> [p_i, m]
    right_mats: tuple

    def left(self, pvec):
        return lincomb(self.left_mats, pvec, self.module_dim, self.module_dim)

    def right(self, pvec):
        return lincomb(self.right_mats, pvec, self.module_dim,
                       self.module_dim)


def zero_rep(p, module_dim):
    z = tuple(LinearMap.zero(module_dim, module_dim) for _ in range(p.dim))
    return LeibnizRep(p, module_dim, z, z)


def check_rep(rep):
    """The three representation axioms as matrix identities on basis pairs."""
    p = rep.algebra
    bad = []
    for i in range(p.dim):
        for j in range(p.dim):
            Rbr = rep.right(p.product_basis(i, j))
            Lbr = rep.left(p.product_basis(i, j))
            Ri, Rj = rep.right_mats[i], rep.right_mats[j]
            Li, Lj = rep.left_mats[i], rep.left_mats[j]
            # [m,[p_i,p_j]] = [[m,p_i],p_j] - [[m,p_j],p_i]
            if Rbr != Rj.compose(Ri).add(Ri.compose(Rj).scale(-1)):
                bad.append(("axiom1", i, j))
            # [p_i,[m,p_j]] = [[p_i,m],p_j] - [[p_i,p_j],m]
            if Li.compose(Rj) != Rj.compose(Li).add(Lbr.scale(-1)):
                bad.append(("axiom2", i, j))
            # [p_i,[p_j,m]] = [[p_i,p_j],m] - [[p_i,m],p_j]
            if Li.compose(Lj) != Lbr.add(Rj.compose(Li).scale(-1)):
                bad.append(("axiom3", i, j))
    return bad


def rep_to_abelian_extension(rep):
    """The Leibniz algebra M ⊕ p with M an abelian ideal; passes the
    Leibniz check iff the representation axioms hold."""
    p = rep.algebra
    m = rep.module_dim
    M = abelian("M", tuple("m%d" % i for i in range(m)))
    left = [[f.col(j) for j in range(m)] for f in rep.left_mats]
    right = [[f.col(j) for f in rep.right_mats] for j in range(m)]
    act = Action(p, M, left, right)
    return semidirect(act)


def subalgebra_ideal_closure(alg, seed):
    """Smallest subspace containing seed and closed under bracketing with
    the whole algebra on both sides."""
    ech = Echelon()
    work = []
    for v in seed:
        piv = ech.insert(dict(v))
        if piv is not None:
            work.append(ech.rows[piv])
    while work:
        v = work.pop()
        candidates = []
        for i in range(alg.dim):
            candidates.append(alg.product(basis_vec(i), v))
            candidates.append(alg.product(v, basis_vec(i)))
        for c in candidates:
            piv = ech.insert(c)
            if piv is not None:
                work.append(ech.rows[piv])
    return Subspace.from_vectors(alg.dim, ech.canonical_rows())


def quotient_algebra(alg, ideal_sub, name=None):
    """Quotient by a two-sided ideal subspace; returns (algebra, projection).

    Well-definedness ([I, alg] + [alg, I] ⊆ I) is verified exactly.
    """
    for r in ideal_sub.rows:
        for i in range(alg.dim):
            if not ideal_sub.contains_vec(alg.product(basis_vec(i), r)):
                raise ValueError("subspace is not a left ideal")
            if not ideal_sub.contains_vec(alg.product(r, basis_vec(i))):
                raise ValueError("subspace is not a right ideal")
    comp, proj = ideal_sub.quotient_basis()
    names = tuple(alg.basis[c] + "~" for c in comp)
    tensor = [[proj.apply(alg.product(basis_vec(a), basis_vec(b)))
               for b in comp] for a in comp]
    qname = name or ("%s/~" % alg.name)
    return LeibnizAlgebra(qname, names, tensor), proj


def liezation(alg):
    """Universal Lie quotient: divide by the ideal closure of the squares.

    Returns (lie algebra, projection).  The quotient of a Leibniz algebra
    by an ideal that holds every square is Lie, so it is not checked here;
    ``lm.leibniz_to_lm`` checks the Lie object it builds on it."""
    sq = alg.squares_span()
    ideal = subalgebra_ideal_closure(alg, list(sq.rows))
    return quotient_algebra(alg, ideal, name="Liez(%s)" % alg.name)
