from leibnizx.scalars import Q
from leibnizx.leibniz import Action, zero_action
from leibnizx.assoc import AssocAlgebra, assoc_semidirect, check_assoc_action


def test_corpus_assoc(load):
    alg = load("assoc2.json")
    assert not alg.check_assoc()
    # u is a left unit but not a right one: u*v = v, v*u = 0
    assert alg.mult_basis(0, 1) == {1: Q(1)}
    assert alg.mult_basis(1, 0) == {}


def test_nonassociative_detected():
    bad = AssocAlgebra("bad", ("u", "v"),
                       [[{1: 1}, {}], [{}, {0: 1}]])
    assert bad.check_assoc()


def test_zero_action_and_semidirect(load):
    alg = load("assoc2.json")
    b = AssocAlgebra("B", ("w",), [[{}]])
    act = zero_action(alg, b)
    assert not check_assoc_action(act)
    sd = assoc_semidirect(act)
    assert sd.dim == 3
    assert not sd.check_assoc()


def test_bimodule_action_checked(load):
    alg = load("assoc2.json")
    b = AssocAlgebra("B", ("w",), [[{}]])
    # u acts as 1 on both sides, v as 0: compatible with u*u = u, u*v = v?
    # (w·u)·v = w·v = 0 but w·(u·v) = w·v = 0 — fine; yet v·(u·w): v·w = 0
    # and (v·u)·w = 0 — also fine, so this one passes
    act = Action(alg, b, [[{0: 1}], [{}]], [[{0: 1}, {}]])
    assert not check_assoc_action(act)
    # v acting as 1 breaks (w·v)·v = w against w·(v·v) = 0
    bad = Action(alg, b, [[{}], [{0: 1}]], [[{}, {0: 1}]])
    assert check_assoc_action(bad)
