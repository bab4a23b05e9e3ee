import pytest

from leibnizx.linalg import LinearMap
from leibnizx.xmod import identity_xmod, zero_xmod
from leibnizx.lm import (LMObject, associated_xmod, check_associated_xmod,
                         check_lm_assoc_object, check_lm_assoc_xmod,
                         check_lm_lie_object, check_lm_lie_xmod,
                         leibniz_to_lm, lm_tensor, lm_xmod_envelope,
                         theta_check, u_lie, u_lm, xmod_to_lm)


def test_lm_tensor_shape():
    x = LMObject(1, 1, LinearMap.identity(1))
    y = LMObject(1, 1, LinearMap.identity(1))
    t = lm_tensor(x, y)
    # (M ⊗ h) ⊕ (g ⊗ N) over g ⊗ h
    assert t.bottom_dim == 2 and t.top_dim == 1
    assert t.alpha == LinearMap(1, 2, [[1, 1]])


def test_leibniz_to_lm(l2, r2):
    for p in (l2, r2):
        L = leibniz_to_lm(p)
        assert not check_lm_lie_object(L)
    # L2 maps onto its 1-dimensional liezation
    assert leibniz_to_lm(l2).lie.dim == 1


def test_xmod_to_lm(xmods):
    for name, x in xmods.items():
        X = xmod_to_lm(x)
        assert not check_lm_lie_xmod(X), name


def test_u_lie_dimensions(r2):
    from leibnizx.leibniz import liezation
    lie, _ = liezation(r2)
    U = u_lie(lie, 3)
    # PBW for a 2-dimensional Lie algebra: 1 + 2 + 3 + 4 classes
    assert U.dim == 10
    assert U.ideal.stabilized


def test_u_lm_object(a1, l2):
    A = u_lm(leibniz_to_lm(a1), 2)
    assert A.bim.dim == 2 and A.U.dim == 3
    assert not check_lm_assoc_object(A, 2)
    B = u_lm(leibniz_to_lm(l2), 3)
    assert not check_lm_assoc_object(B, 3)
    # top algebra is U(Liez L2), a polynomial ring in one variable
    assert B.U.dim == 4


def test_lm_envelope_zero_xmod(a1):
    Y = lm_xmod_envelope(xmod_to_lm(zero_xmod(a1)), 3)
    assert Y.report_degree == 1
    # nothing to quotient: both kernels of the s-maps vanish
    assert len(Y.b_ker_filtration(1)) == 0
    assert not check_lm_assoc_xmod(Y)


def test_lm_envelope_identity_a1(a1):
    Y = lm_xmod_envelope(xmod_to_lm(identity_xmod(a1)), 3)
    assert not check_lm_assoc_xmod(Y)
    assert Y.certificates["u_semidirect_stabilized"]
    ax = associated_xmod(Y)
    assert not check_associated_xmod(ax)


def test_theta_zero_a1(a1):
    rec = theta_check(zero_xmod(a1), 4)
    assert rec["verdict"] == "pass"
    assert rec["lhs_dim_upto_d"] == 5
    assert rec["bottom_dim_upto_d"] == 2
    assert rec["top_dim_upto_d"] == 3


def test_theta_identity_a1(a1):
    rec = theta_check(identity_xmod(a1), 3)
    assert rec["verdict"] == "pass"
    assert rec["relations_killed"] and rec["ideal_mapped"]
    assert rec["quotient_bijective"] and rec["cat_maps_intertwined"]
