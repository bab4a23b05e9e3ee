"""Associative algebras by structure constants (possibly non-unital), with
bimodule-style actions; mirrors the Leibniz layer."""

from dataclasses import dataclass

from .leibniz import _bilinear, _tensor, basis_vec, _semidirect_cells


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
        bad = []
        n = self.dim
        for i in range(n):
            for j in range(n):
                mij = self.mult_basis(i, j)
                for k in range(n):
                    lhs = self.mult(mij, basis_vec(k))
                    rhs = self.mult(basis_vec(i), self.mult_basis(j, k))
                    if lhs != rhs:
                        bad.append((i, j, k, lhs, rhs))
        return bad


@dataclass(frozen=True)
class AssocAction:
    """Bimodule-with-multiplication action of A on B: tensors for a·b and
    b·a."""

    actor: AssocAlgebra
    target: AssocAlgebra
    left_tensor: tuple   # a_i · b_j = sum_k left[i][j][k] b_k
    right_tensor: tuple  # b_j · a_i = sum_k right[j][i][k] b_k

    def __post_init__(self):
        na, nb = self.actor.dim, self.target.dim
        object.__setattr__(self, "left_tensor",
                           _tensor(na, nb, nb, self.left_tensor))
        object.__setattr__(self, "right_tensor",
                           _tensor(nb, na, nb, self.right_tensor))

    def left(self, a, b):
        return _bilinear(self.left_tensor, a, b)

    def right(self, b, a):
        return _bilinear(self.right_tensor, b, a)


def zero_assoc_action(a, b):
    return AssocAction(a, b, [[{}] * b.dim for _ in range(a.dim)],
                       [[{}] * a.dim for _ in range(b.dim)])


def check_assoc_action(act):
    """Associativity of every triple mixing A and B elements."""
    A, B = act.actor, act.target

    def mul(kx, x, ky, y):
        if kx == "a" and ky == "a":
            return "a", A.mult(x, y)
        if kx == "a":
            return "b", act.left(x, y)
        if ky == "a":
            return "b", act.right(x, y)
        return "b", B.mult(x, y)

    patterns = [("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a"),
                ("b", "b", "a"), ("b", "a", "b"), ("a", "b", "b")]
    bad = []
    for pat in patterns:
        dims = [A.dim if k == "a" else B.dim for k in pat]
        for i in range(dims[0]):
            for j in range(dims[1]):
                for k in range(dims[2]):
                    xs = (basis_vec(i), basis_vec(j), basis_vec(k))
                    ka, xy = mul(pat[0], xs[0], pat[1], xs[1])
                    _, lhs = mul(ka, xy, pat[2], xs[2])
                    kb, yz = mul(pat[1], xs[1], pat[2], xs[2])
                    _, rhs = mul(pat[0], xs[0], kb, yz)
                    if lhs != rhs:
                        bad.append((pat, (i, j, k)))
    return bad


def assoc_semidirect(act):
    """Algebra on B ⊕ A: (b1,a1)(b2,a2) = (b1 b2 + a1·b2 + b1·a2, a1 a2)."""
    A, B = act.actor, act.target
    tensor = _semidirect_cells(B.mult_basis, A.mult_basis, act, B.dim, A.dim)
    names = tuple("b.%s" % x for x in B.basis) + \
        tuple("a.%s" % x for x in A.basis)
    return AssocAlgebra("%s⋊%s" % (B.name, A.name), names, tensor)
