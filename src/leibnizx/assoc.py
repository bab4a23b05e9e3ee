"""Associative algebras by structure constants (possibly non-unital); their
actions are ``leibniz.Action`` objects."""

from dataclasses import dataclass

from .leibniz import (_action_violations, _bilinear, _semidirect_cells,
                      _tensor, _triple_violations)


@dataclass(frozen=True)
class AssocAlgebra:
    name: str
    basis: tuple
    product_tensor: tuple  # e_i e_j = sum_k t[i][j][k] e_k

    def __post_init__(self):
        n = len(self.basis)
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "product_tensor",
                           _tensor(n, n, n, self.product_tensor))

    @property
    def dim(self):
        return len(self.basis)

    def mult(self, x, y):
        return _bilinear(self.product_tensor, x, y)

    def mult_basis(self, i, j):
        return dict(self.product_tensor[i][j])

    def check_assoc(self):
        """Violating triples (i, j, k, lhs, rhs) of associativity
        (:func:`leibniz._triple_violations`)."""
        return _triple_violations(self.product_tensor, 0)


def _assoc_holds(mul, x, y, z):
    """(xy)z = x(yz) on kinded vectors."""
    return mul(*mul(*x, *y), *z)[1] == mul(*x, *mul(*y, *z))[1]


def check_assoc_action(act):
    """Associativity of every triple mixing A and B elements."""
    return _action_violations(
        act, AssocAlgebra.mult, ("a", "b"),
        (("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a"),
         ("b", "b", "a"), ("b", "a", "b"), ("a", "b", "b")), _assoc_holds)


def assoc_semidirect(act):
    """Algebra on B ⊕ A: (b1,a1)(b2,a2) = (b1 b2 + a1·b2 + b1·a2, a1 a2)."""
    A, B = act.actor, act.target
    tensor = _semidirect_cells(B.mult_basis, A.mult_basis, act, B.dim, A.dim)
    names = tuple("b.%s" % x for x in B.basis) + \
        tuple("a.%s" % x for x in A.basis)
    return AssocAlgebra("%s⋊%s" % (B.name, A.name), names, tensor)
