import numpy as np
import pytest

from jetbm import (
    DomainError,
    JetPoint,
    QuarticTensor,
    SingularTensorError,
    TimeMetric,
    bm_metric_closed,
    g_scalars,
    metric_pair,
    metric_taylor2,
    taylor2_seed,
)
from jetbm.geometry import third_derivative

from conftest import assert_close, cone_points, max_rel

TM = TimeMetric.constant(1.0)


@pytest.fixture
def perturbed():
    return QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.01, (2, 3, 3, 4): -0.008})


# -- G-scalar hierarchy -------------------------------------------------------


def test_g_scalars_at_ones(bm):
    s = g_scalars(bm, np.ones(4))
    assert s.g1111 == pytest.approx(1.0)
    np.testing.assert_allclose(s.gi111, np.ones(4), rtol=1e-14)
    np.testing.assert_allclose(s.gij11, np.ones((4, 4)) - np.eye(4), atol=1e-14)
    assert s.det_gij11 == pytest.approx(-3.0, rel=1e-12)


def test_g_scalars_at_1234(bm):
    y = np.array([1.0, 2.0, 3.0, 4.0])
    s = g_scalars(bm, y)
    assert s.g1111 == pytest.approx(24.0)
    np.testing.assert_allclose(s.gi111, [24, 12, 8, 6], rtol=1e-14)
    assert s.gij11[0, 1] == pytest.approx(12.0)
    np.testing.assert_allclose(np.diag(s.gij11), np.zeros(4), atol=1e-14)


def test_bm_script_scalar_and_raised_vector(bm, rng):
    for y in cone_points(rng, 50):
        s = g_scalars(bm, y)
        assert max_rel(s.g_script, (2 / 3) * s.g1111) <= 1e-12
        assert max_rel(s.gj_up, y / 3) <= 1e-12


def test_euler_identities_hold_for_any_quartic(bm, perturbed, rng):
    for G in (bm, perturbed):
        for y in cone_points(rng, 50):
            s = g_scalars(G, y)
            assert max_rel(float(s.gi111 @ y), 4 * s.g1111) <= 1e-12
            assert max_rel(s.gij11 @ y, 3 * s.gi111) <= 1e-12
            assert max_rel(float(y @ s.gij11 @ y), 12 * s.g1111) <= 1e-12


def test_gij11_inverse_closed_form(bm, rng):
    for y in cone_points(rng, 50):
        s = g_scalars(bm, y)
        np.testing.assert_allclose(s.gij11 @ s.gij11_inv, np.eye(4), atol=1e-10)
        closed = (1 - 3 * np.eye(4)) * np.outer(y, y) / (3 * s.g1111)
        assert_close(s.gij11_inv, closed, 1e-12)


def test_higher_contractions_are_derivatives(bm, rng):
    """Gijk1 (``third_derivative``, the one helper that metric_taylor2 and
    the connection stage read) and Gijkl really are the third/fourth
    y-derivatives of G1111."""
    y = cone_points(rng, 1)[0]
    s = g_scalars(bm, y)
    gijk1 = third_derivative(bm, y)
    h = 1e-5
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        fd = (g_scalars(bm, y + e).gij11 - g_scalars(bm, y - e).gij11) / (2 * h)
        np.testing.assert_allclose(gijk1[:, :, k], fd, rtol=1e-7, atol=1e-7)
        fd = (third_derivative(bm, y + e) - third_derivative(bm, y - e)) / (2 * h)
        np.testing.assert_allclose(s.gijkl[:, :, :, k], fd, rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(s.gijkl, 24 * bm.dense, rtol=1e-15)


def test_singular_tensor_rejected():
    G = QuarticTensor.from_components({(1, 1, 1, 1): 1.0})
    with pytest.raises(SingularTensorError):
        g_scalars(G, np.ones(4))


def test_domain_validation(bm):
    with pytest.raises(DomainError):
        g_scalars(bm, np.array([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        bm_metric_closed(np.array([1.0, 0.0, 1.0, 1.0]))


# -- fundamental metric -------------------------------------------------------


def test_metric_at_ones(bm):
    mp = metric_pair(bm, TM, JetPoint.from_y(np.ones(4)))
    expected = (np.ones((4, 4)) - 2 * np.eye(4)) / 8
    np.testing.assert_allclose(mp.g_lo, expected, rtol=1e-14)
    np.testing.assert_allclose(mp.g_lo @ mp.g_up, np.eye(4), atol=1e-12)


def test_metric_at_1234_frozen_values(bm):
    mp = metric_pair(bm, TM, JetPoint.from_y([1.0, 2.0, 3.0, 4.0]))
    sq = np.sqrt(24.0)
    assert mp.g_lo[0, 0] == pytest.approx(-sq / 8, rel=1e-13)  # -0.6123724356957945
    assert mp.g_lo[0, 1] == pytest.approx(sq / 16, rel=1e-13)  # 0.3061862178478973
    assert mp.g_up[0, 0] == pytest.approx(-2 / sq, rel=1e-13)  # -0.4082482904638630
    assert mp.g_up[0, 1] == pytest.approx(4 / sq, rel=1e-13)  # 0.8164965809277260


def test_generic_pipeline_matches_closed_form(bm, rng):
    worst_lo = worst_up = 0.0
    for i, y in enumerate(cone_points(rng, 200)):
        p = JetPoint.from_y(y, t=float(rng.uniform(-1, 1)))
        mp = metric_pair(bm, TM, p)
        cl = bm_metric_closed(y)
        worst_lo = max(worst_lo, max_rel(mp.g_lo, cl.g_lo))
        worst_up = max(worst_up, max_rel(mp.g_up, cl.g_up))
    assert worst_lo <= 1e-10
    assert worst_up <= 1e-10


def test_metric_zero_homogeneous(bm, rng):
    for y in cone_points(rng, 25):
        base = metric_pair(bm, TM, JetPoint.from_y(y)).g_lo
        for lam in (0.5, 2.0, 7.0):
            scaled = metric_pair(bm, TM, JetPoint.from_y(lam * y)).g_lo
            assert max_rel(scaled, base) <= 1e-12


def test_metric_is_energy_hessian(bm, rng):
    """Eq-(3)-style assembly equals (h11/2) x Hessian of F^2 via Taylor2."""
    tm = TimeMetric.exponential(2.0, 0.7)
    for y in cone_points(rng, 25):
        t = float(rng.uniform(-1, 1))
        v = tm.eval(t)
        s = taylor2_seed(y)
        f2 = (s[0] * s[1] * s[2] * s[3]).sqrt() * v.h11_inv
        mp = metric_pair(bm, tm, JetPoint.from_y(y, t=t))
        assert_close(0.5 * v.h11 * f2.hess, mp.g_lo, 1e-9)


def test_closed_form_homogeneity_example():
    mp = bm_metric_closed(np.array([2.0, 2.0, 2.0, 2.0]))
    assert mp.g_lo[0, 1] == pytest.approx(1 / 8, rel=1e-14)
    ones = bm_metric_closed(np.ones(4))
    np.testing.assert_allclose(mp.g_lo, ones.g_lo, rtol=1e-14)


def test_custom_tensor_generic_path(perturbed, rng):
    for y in cone_points(rng, 20, lo=0.5, hi=2.0):
        mp = metric_pair(perturbed, TM, JetPoint.from_y(y))
        np.testing.assert_allclose(mp.g_lo @ mp.g_up, np.eye(4), atol=1e-10)
        np.testing.assert_array_equal(mp.g_lo, mp.g_lo.T)


def test_metric_taylor2_consistency(bm, rng):
    """Taylor2 metric values agree with metric_pair; gradients with FD."""
    y = cone_points(rng, 1)[0]
    gt = metric_taylor2(bm, y)
    mp = metric_pair(bm, TM, JetPoint.from_y(y))
    vals = np.array([[gt[i][j].value for j in range(4)] for i in range(4)])
    np.testing.assert_allclose(vals, mp.g_lo, rtol=1e-13)
    h = 1e-6 * y
    for k in range(4):
        e = np.zeros(4)
        e[k] = h[k]
        fd = (
            np.array([[metric_taylor2(bm, y + e)[i][j].value for j in range(4)] for i in range(4)])
            - np.array([[metric_taylor2(bm, y - e)[i][j].value for j in range(4)] for i in range(4)])
        ) / (2 * h[k])
        grads = np.array([[gt[i][j].grad[k] for j in range(4)] for i in range(4)])
        np.testing.assert_allclose(grads, fd, rtol=1e-6, atol=1e-9)
