"""Associative algebras by structure constants (possibly non-unital): the
``leibniz.Algebra`` body with associativity as the axiom check.  Their
actions are ``leibniz.Action`` objects."""

from dataclasses import replace

from .leibniz import (Algebra, _action_violations, _triple_violations,
                      semidirect)


class AssocAlgebra(Algebra):
    def check_assoc(self):
        """Violating triples (i, j, k, lhs, rhs) of associativity
        (:func:`leibniz._triple_violations`)."""
        return _triple_violations(self.tensor, 0)


def check_assoc_action(act):
    """Associativity of every triple mixing A and B elements."""
    return _action_violations(
        act, ("a", "b"),
        (("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a"),
         ("b", "b", "a"), ("b", "a", "b"), ("a", "b", "b")), 0)


def assoc_semidirect(act):
    """Algebra on B ⊕ A: (b1,a1)(b2,a2) = (b1 b2 + a1·b2 + b1·a2, a1 a2),
    :func:`leibniz.semidirect` with the basis names b.x and a.x."""
    A, B = act.actor, act.target
    names = tuple("b.%s" % x for x in B.basis) + \
        tuple("a.%s" % x for x in A.basis)
    return replace(semidirect(act), basis=names)
