"""Universal enveloping algebra of a Leibniz algebra, truncated at a
working degree, and the equivalence between representations and left
modules over it.

For a Leibniz algebra p with basis e_0..e_{n-1}, the envelope is generated
by two copies of p — generator i is (e_i)_l and generator n+i is (e_i)_r —
subject to, for all x, y in p:

    x_r y_r - y_r x_r = [x,y]_r
    x_l y_r - y_r x_l = [x,y]_l
    (y_r + y_l) x_l   = 0

A word acts on a module with its *leftmost* factor applied first (so the
action is an algebra map into the opposite of the endomorphism algebra);
this is the convention under which x_l.m = [x,m], x_r.m = [m,x] turns the
three representation axioms into exactly the relations above.
"""

from dataclasses import dataclass
from functools import cached_property

from .linalg import LinearMap, lincomb, vec_add_scaled
from .freealg import induced_map, letter_classes, presented, word_fold
from .leibniz import LeibnizAlgebra, LeibnizRep


def ul_relations(p):
    """Defining relations on basis generators, as word-keyed vectors;
    l-block indices 0..n-1, r-block indices n..2n-1."""
    n = p.dim
    rels = []
    for i in range(n):
        for j in range(n):
            br = p.product_basis(i, j)
            br_l = {(k,): v for k, v in br.items()}
            br_r = {(n + k,): v for k, v in br.items()}
            # added, not a literal: at i = j the two words cancel
            rr = vec_add_scaled({(n + i, n + j): 1}, {(n + j, n + i): 1}, -1)
            rels.append(vec_add_scaled(rr, br_r, -1))
            lr = {(i, n + j): 1, (n + j, i): -1}
            rels.append(vec_add_scaled(lr, br_l, -1))
            rels.append({(n + j, i): 1, (j, i): 1})
    return rels


def ul(p, degree):
    """The degree-<=degree piece of the enveloping algebra of p: the
    presented quotient on the generators x_l (l-block) and x_r (r-block)
    by :func:`ul_relations`.

    Its certificate holds for every p and every basis.  Let n = dim p and
    m = dim p_Lie.  In degree one the relations span Leib(p)_r, the r-copy
    of the span of the squares [x,x]: the x_r x_r relations and the sums
    of the x_r y_r and y_r x_r ones.  Interreduced, those rows lead with
    n - m r-letters, and the other m r-letters span a complement of
    Leib(p)_r.  Under :func:`freealg.word_key` the quadratic rows lead with
    x_r y_r for x before y in the basis, with every x_l y_r and with every
    y_l x_l, and each of these words leads exactly one of them.  So the
    normal words are those m r-letters in non-increasing order followed by
    at most one l-letter, C(d+m, m) + n·C(d-1+m, m) of them of length <= d:
    Loday–Pirashvili's dimension of the part of UL(p) of filtration degree
    <= d (Math. Ann. 296, 1993: UL(p) ≅ U(p_Lie) ⊗ (K ⊕ p)).  The
    normal words of length <= d span that part, so they are a basis of
    it, and the normal words a basis of UL(p); by the diamond lemma
    (Bergman, Adv. Math. 29, 1978, Thm. 1.2) every ambiguity resolves."""
    gens = tuple("%s_l" % b for b in p.basis) + \
        tuple("%s_r" % b for b in p.basis)
    return presented(gens, ul_relations(p), degree)


def ul_images(dst, f):
    """Generator images x_l -> f(x)_l, x_r -> f(x)_r in the envelope dst of
    the envelope map induced by a linear map f into dst's algebra: the
    classes of f's columns in the l-block and in the r-block (offset
    f.rows), l-block first."""
    return letter_classes(dst, f) + letter_classes(dst, f, f.rows)


def ul_map(src, dst, f):
    """Functoriality: a Leibniz homomorphism f: p -> p' (as a LinearMap)
    induces an algebra map from the truncated envelope src of p to the
    truncated envelope dst of p'.

    Raises HomomorphismError if the generator images do not kill src's
    relation ideal (e.g. if f is not a homomorphism).
    """
    return induced_map(src, dst, ul_images(dst, f))


# ---------------------------------------------------------------------------
# left modules


@dataclass(frozen=True)
class ULModule:
    """Left module over the envelope of p: one matrix per generator.

    Words act leftmost-factor-first; the defining relations must act as
    zero, which makes the action of any ideal element vanish identically.
    """

    p: LeibnizAlgebra
    dim: int
    gen_mats: tuple  # one LinearMap per free generator (l-block then r-block)

    @cached_property
    def word_mat(self):
        """The matrix of a word: the generator matrices folded leftmost
        first, memoised (:func:`freealg.word_fold`)."""
        return word_fold(self.gen_mats, lambda a, b: b.compose(a),
                         LinearMap.identity(self.dim))

    def class_mat(self, cv):
        return lincomb({w: self.word_mat(w) for w in cv}, cv, self.dim,
                       self.dim)


def check_module(mod):
    """Indices of defining relations that fail to act as zero."""
    bad = []
    for k, rel in enumerate(ul_relations(mod.p)):
        if not mod.class_mat(rel).is_zero():
            bad.append(k)
    return bad


def rep_to_module(rep):
    """x_l acts by m -> [x,m], x_r by m -> [m,x]."""
    mats = tuple(rep.left_mats) + tuple(rep.right_mats)
    return ULModule(rep.algebra, rep.module_dim, mats)


def module_to_rep(mod):
    """Restrict the generator action back to the two copies of p."""
    n = mod.p.dim
    return LeibnizRep(mod.p, mod.dim,
                      tuple(mod.gen_mats[:n]), tuple(mod.gen_mats[n:]))
