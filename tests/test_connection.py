import numpy as np
import pytest

from jetbm import (
    JetPoint,
    QuarticTensor,
    TimeMetric,
    a_table,
    adapted_coframe,
    adapted_frame,
    apriori_nlc,
    bm_cartan_closed,
    canonical_nlc,
    cartan_connection,
    christoffel_time,
)

from conftest import BATCH_SIZES, cone_points, max_rel


# -- Christoffel symbol of h_11 ----------------------------------------------


def test_christoffel_constant_family():
    ct = christoffel_time(TimeMetric.constant(3.0), 1.7)
    assert ct.kappa == 0.0 and ct.dkappa == 0.0


def test_christoffel_exponential_family(rng):
    tm = TimeMetric.exponential(1.0, 1.0)
    for t in rng.uniform(-2, 2, 10):
        ct = christoffel_time(tm, t)
        assert ct.kappa == pytest.approx(0.5, rel=1e-14)
        assert abs(ct.dkappa) <= 1e-14


def test_christoffel_power_family_frozen():
    # kappa(t) = t/(1+t^2); dkappa = (1-t^2)/(1+t^2)^2; at t=0.5: 0.4 and 0.48
    ct = christoffel_time(TimeMetric.power(1.0), 0.5)
    assert ct.kappa == pytest.approx(0.4, rel=1e-14)
    assert ct.dkappa == pytest.approx(0.48, rel=1e-13)


def test_christoffel_derivative_matches_fd(families, rng):
    h = 1e-6
    for tm in families:
        for t in rng.uniform(-1.5, 1.5, 15):
            ct = christoffel_time(tm, t)
            fd = (christoffel_time(tm, t + h).kappa - christoffel_time(tm, t - h).kappa) / (2 * h)
            assert max_rel(ct.dkappa, fd) <= 1e-6 or abs(ct.dkappa - fd) <= 1e-9


# -- nonlinear connections ----------------------------------------------------


def _nlcs(tm, y, t=0.0):
    """The canonical and a-priori connections at one point, as N = 1 batches."""
    kappa = tm.eval([t]).kappa
    y = np.asarray(y, dtype=float)[None]
    return canonical_nlc(kappa, y), apriori_nlc(kappa, y)


def test_canonical_connection_constant_family():
    nlc, _ = _nlcs(TimeMetric.constant(2.0), [1, 2, 3, 4])
    np.testing.assert_array_equal(nlc.m, np.zeros((1, 4)))
    np.testing.assert_array_equal(nlc.n, np.zeros((1, 4, 4)))


def test_canonical_connection_exponential():
    nlc, _ = _nlcs(TimeMetric.exponential(1.0, 1.0), [1, 2, 3, 4])
    np.testing.assert_allclose(nlc.m[0], [-0.5, -1.0, -1.5, -2.0], rtol=1e-14)
    np.testing.assert_array_equal(nlc.n[0], np.zeros((4, 4)))


def test_canonical_connection_linear_in_kappa():
    m1 = _nlcs(TimeMetric.exponential(1.0, 1.0), [1, 2, 3, 4])[0].m
    m2 = _nlcs(TimeMetric.exponential(1.0, 2.0), [1, 2, 3, 4])[0].m
    np.testing.assert_allclose(m2, 2 * m1, rtol=1e-14)


def test_apriori_connection():
    can, apr = _nlcs(TimeMetric.exponential(1.0, 1.0), [1, 2, 3, 4])
    np.testing.assert_allclose(apr.n[0], -(1 / 6) * np.eye(4), rtol=1e-14)
    np.testing.assert_array_equal(apr.m, can.m)
    _, const = _nlcs(TimeMetric.constant(1.0), [1, 2, 3, 4])
    np.testing.assert_array_equal(const.n[0], np.zeros((4, 4)))


# -- adapted bases ------------------------------------------------------------


def test_frame_coframe_duality(families, rng):
    for tm in families:
        for y in cone_points(rng, 5):
            for nlc in _nlcs(tm, y, t=float(rng.uniform(-1, 1))):
                F = adapted_frame(nlc)[0]
                C = adapted_coframe(nlc)[0]
                np.testing.assert_allclose(F @ C.T, np.eye(9), atol=1e-12)


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize(
    "tm",
    [TimeMetric.constant(1.7), TimeMetric.exponential(0.8, 1.3), TimeMetric.power(-1.3)],
    ids=lambda tm: tm.family,
)
def test_batched_connections_and_frames_are_the_per_point_formulas(tm, size, rng):
    """The batched connections, frames and coframes equal the one-point
    formulas bit for bit, kappa coming from christoffel_time at each t, and
    the batched frame-coframe product equals the per-point one."""
    ys = cone_points(rng, size)
    ts = rng.uniform(-2, 2, size)
    kappa = tm.eval(ts).kappa
    batched = (canonical_nlc(kappa, ys), apriori_nlc(kappa, ys))
    frames = [(adapted_frame(nlc), adapted_coframe(nlc)) for nlc in batched]
    for n, (t, y) in enumerate(zip(ts.tolist(), ys)):
        k = christoffel_time(tm, t).kappa
        per_point = (
            (-k * y, np.zeros((4, 4))),  # canonical
            (-k * y, -(k / 3.0) * np.eye(4)),  # a-priori
        )
        for nlc, (F, C), (m, n_coef) in zip(batched, frames, per_point):
            np.testing.assert_array_equal(nlc.m[n], m)
            np.testing.assert_array_equal(nlc.n[n], n_coef)
            F1 = np.eye(9)
            F1[0, 5:] = -m
            F1[1:5, 5:] = -n_coef.T
            C1 = np.eye(9)
            C1[5:, 0] = m
            C1[5:, 1:5] = n_coef
            np.testing.assert_array_equal(F[n], F1)
            np.testing.assert_array_equal(C[n], C1)
            np.testing.assert_array_equal((F @ C.swapaxes(1, 2))[n], F1 @ C1.T)


# -- the coefficient table ---------------------------------------------------


def test_a_table_values():
    A = a_table()
    assert A[0, 1, 2] == pytest.approx(-1 / 8)  # all distinct
    assert A[0, 0, 1] == pytest.approx(1 / 8)  # i = j != k
    assert A[0, 1, 0] == pytest.approx(1 / 8)  # i = k != j
    assert A[2, 0, 0] == pytest.approx(1 / 8)  # j = k != i
    assert A[2, 2, 2] == pytest.approx(-3 / 8)  # all equal
    np.testing.assert_array_equal(A, A.transpose(0, 2, 1))


def test_a_table_row_sum_vanishes():
    A = a_table()
    np.testing.assert_allclose(np.einsum("mjm->j", A), np.zeros(4), atol=1e-15)
    # last-index contraction: the unit-cone version of C^i_j(m) y^m = 0
    np.testing.assert_allclose(np.einsum("ijm->ij", A), np.zeros((4, 4)), atol=1e-15)


# -- Cartan connection --------------------------------------------------------


def test_closed_form_values():
    tm = TimeMetric.exponential(1.0, 1.0)
    p = JetPoint.from_y([1.0, 2.0, 3.0, 4.0], t=0.0)
    cart = bm_cartan_closed(tm, p)
    assert cart.c[0, 1, 2] == pytest.approx(-1 / 48, rel=1e-14)  # A^1_23 / (y^2 y^3)
    assert cart.c[1, 1, 1] == pytest.approx(-3 / 16, rel=1e-14)  # (-3/8) / y^2
    np.testing.assert_array_equal(cart.gk, np.zeros((4, 4)))
    np.testing.assert_allclose(cart.l, (cart.kappa / 3) * cart.c, rtol=1e-14)


def test_generic_matches_closed(bm, rng):
    tm = TimeMetric.exponential(1.0, 0.9)
    worst = 0.0
    for y in cone_points(rng, 200):
        p = JetPoint.from_y(y, t=float(rng.uniform(-1, 1)))
        gen = cartan_connection(bm, tm, p)
        cl = bm_cartan_closed(tm, p)
        worst = max(worst, max_rel(gen.c, cl.c), max_rel(gen.l, cl.l))
        assert np.abs(gen.gk).max() <= 1e-10
    assert worst <= 1e-9


def test_c_at_ones_equals_a_table(bm):
    p = JetPoint.from_y(np.ones(4))
    gen = cartan_connection(bm, TimeMetric.constant(1.0), p)
    np.testing.assert_allclose(gen.c, a_table(), atol=1e-13)


def test_c_identities_bm(bm, rng):
    tm = TimeMetric.power(1.0)
    for y in cone_points(rng, 30):
        p = JetPoint.from_y(y, t=0.3)
        gen = cartan_connection(bm, tm, p)
        np.testing.assert_array_equal(gen.c, gen.c.transpose(0, 2, 1))  # exact symmetry
        assert np.abs(np.einsum("ijm,m->ij", gen.c, y)).max() <= 1e-10
        assert np.abs(np.einsum("mjm->j", gen.c)).max() <= 1e-10


def test_horizontal_part_vanishes_without_time_dependence(bm, rng):
    p = JetPoint.from_y(cone_points(rng, 1)[0])
    gen = cartan_connection(bm, TimeMetric.constant(5.0), p)
    np.testing.assert_array_equal(gen.l, np.zeros((4, 4, 4)))
    np.testing.assert_array_equal(gen.gk, np.zeros((4, 4)))


def _gl_transform(G: QuarticTensor, A: np.ndarray) -> QuarticTensor:
    dense = np.einsum("abcd,ap,bq,cr,ds->pqrs", G.dense, A, A, A, A)
    comps = {}
    for quad in G.components:
        zero = tuple(i - 1 for i in quad)
        comps[quad] = dense[zero]
    return QuarticTensor.from_components(comps)


def test_c_identities_for_general_quartic(rng):
    """Symmetry and y-transversality hold for any quartic tensor; the trace
    identity is specific to the Berwald-Moor family (its scalings and linear
    images), because the trace is the y-gradient of log|det g|."""
    tm = TimeMetric.constant(1.0)
    bm = QuarticTensor.berwald_moor()
    general = QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.02})
    scaled = QuarticTensor.from_components({(1, 2, 3, 4): 2.0 / 24})
    A = np.eye(4) + 0.05 * np.random.default_rng(5).normal(size=(4, 4))
    gl_image = _gl_transform(bm, A)

    for G in (general, scaled, gl_image):
        for y in cone_points(rng, 10, lo=0.7, hi=1.4):
            cart = cartan_connection(G, tm, JetPoint.from_y(y))
            np.testing.assert_array_equal(cart.c, cart.c.transpose(0, 2, 1))
            assert np.abs(np.einsum("ijm,m->ij", cart.c, y)).max() <= 1e-9

    for G in (scaled, gl_image):
        cart = cartan_connection(G, tm, JetPoint.from_y(np.array([1.1, 0.9, 1.2, 1.0])))
        assert np.abs(np.einsum("mjm->j", cart.c)).max() <= 1e-9

    cart = cartan_connection(general, tm, JetPoint.from_y(np.array([1.1, 0.9, 1.3, 1.0])))
    assert np.abs(np.einsum("mjm->j", cart.c)).max() > 1e-2  # pins the non-identity
