from itertools import product

import numpy as np
import pytest

from jetbm import (
    JetPoint,
    QuarticTensor,
    TimeMetric,
    bm_s_closed,
    bm_s_raised_field,
    bm_s_ricci_contracted,
    bm_s_ricci_field,
    bm_metric_closed,
    cartan_connection,
    christoffel_time,
    classify_s_case,
    curvatures,
    ricci_scalar,
    scalar_curvature_field,
    taylor2_seed,
    torsions,
)

from conftest import assert_close, cone_points, max_rel

EXP = TimeMetric.exponential(1.0, 1.0)
CONST = TimeMetric.constant(1.0)


# -- torsions ------------------------------------------------------------------


def test_torsions_vanish_for_constant_family(bm, rng):
    tor = torsions(bm, TimeMetric.constant(2.0), JetPoint.from_y(cone_points(rng, 1)[0]))
    np.testing.assert_array_equal(tor.p_mixed, np.zeros((4, 4, 4)))
    np.testing.assert_array_equal(tor.r_time, np.zeros((4, 4)))
    assert np.abs(tor.p_vert).max() > 0  # the vertical torsion is C itself


def test_time_torsion_value(bm):
    tor = torsions(bm, EXP, JetPoint.from_y(np.ones(4), t=0.0))
    np.testing.assert_allclose(tor.r_time, -(1 / 12) * np.eye(4), rtol=1e-13)


def test_mixed_torsion_value(bm):
    tor = torsions(bm, EXP, JetPoint.from_y([1.0, 2.0, 3.0, 4.0], t=0.0))
    # -(kappa/3) C^1_2(3) = -(1/6)(-1/48) = 1/288
    assert tor.p_mixed[0, 1, 2] == pytest.approx(1 / 288, rel=1e-12)


@pytest.mark.parametrize(
    "tm",
    [TimeMetric.constant(1.5), TimeMetric.exponential(0.8, -0.6), TimeMetric.power(1.2)],
    ids=["constant", "exponential", "power"],
)
def test_torsion_closed_forms_all_families(tm, bm, rng):
    for y in cone_points(rng, 20):
        t = float(rng.uniform(-1, 1))
        p = JetPoint.from_y(y, t=t)
        ct = christoffel_time(tm, t)
        cart = cartan_connection(bm, tm, p)
        tor = torsions(bm, tm, p)
        assert_close(tor.p_vert, cart.c, 1e-9)
        assert_close(tor.p_mixed, -(ct.kappa / 3) * cart.c, 1e-9)
        assert_close(tor.r_time, ((ct.dkappa - ct.kappa**2) / 3) * np.eye(4), 1e-9)


# -- the ten-case closed form ---------------------------------------------------


def test_every_index_combination_hits_exactly_one_case():
    counts = {}
    for l, i, j, k in product(range(4), repeat=4):
        case = classify_s_case(l, i, j, k)  # raises unless exactly one matches
        counts[case] = counts.get(case, 0) + 1
    assert counts[0] == 64  # j == k, forced by antisymmetry
    assert sum(counts.values()) == 256
    assert set(counts) == set(range(11))


def _bm_s_closed_loop(y):
    """The ten-case closed form entry by entry, as a loop over classify_s_case."""
    S = np.zeros((4, 4, 4, 4))
    for l, i, j, k in product(range(4), repeat=4):
        case = classify_s_case(l, i, j, k)
        if case == 2:
            S[l, i, j, k] = -y[l] / (16.0 * y[i] ** 2 * y[k])
        elif case == 3:
            S[l, i, j, k] = y[l] / (16.0 * y[i] ** 2 * y[j])
        elif case == 5:
            S[l, i, j, k] = 1.0 / (16.0 * y[i] * y[k])
        elif case == 6:
            S[l, i, j, k] = -1.0 / (16.0 * y[i] * y[j])
        elif case == 7:
            S[l, i, j, k] = 1.0 / (8.0 * y[i] ** 2)
        elif case == 8:
            S[l, i, j, k] = -1.0 / (8.0 * y[i] ** 2)
    return S


def test_vectorised_closed_s_equals_the_case_loop(rng):
    ys = cone_points(rng, 25)
    batch = bm_s_closed(ys)
    for n, y in enumerate(ys):
        expected = _bm_s_closed_loop(y)
        np.testing.assert_array_equal(bm_s_closed(y), expected)
        np.testing.assert_array_equal(batch[n], expected)


def test_closed_s_spot_values():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    S = bm_s_closed(y)
    assert S[3, 0, 1, 2] == 0.0  # distinct indices
    assert S[2, 0, 0, 1] == pytest.approx(-3 / 32)  # -(1/16) y3/(y1^2 y2)
    assert S[2, 0, 2, 1] == pytest.approx(1 / 32)  # (1/16)/(y1 y2), j = l
    ones = bm_s_closed(np.ones(4))
    assert ones[1, 0, 0, 1] == pytest.approx(1 / 8)
    assert ones[1, 0, 1, 0] == pytest.approx(-1 / 8)


def test_closed_s_antisymmetry_and_homogeneity(rng):
    for y in cone_points(rng, 20):
        S = bm_s_closed(y)
        np.testing.assert_array_equal(S, -S.transpose(0, 1, 3, 2))
        S2 = bm_s_closed(2.0 * y)
        assert max_rel(S2, S / 4.0) <= 1e-12  # degree -2 homogeneity


# -- generic curvature tensors ---------------------------------------------------


def test_generic_s_matches_closed(bm, rng):
    worst = 0.0
    for y in cone_points(rng, 100):
        p = JetPoint.from_y(y, t=float(rng.uniform(-1, 1)))
        cur = curvatures(bm, EXP, p)
        closed = bm_s_closed(y)
        worst = max(worst, np.abs(cur.s - closed).max() / np.abs(closed).max())
    assert worst <= 1e-9


def test_generic_s_exactly_antisymmetric(bm, rng):
    cur = curvatures(bm, EXP, JetPoint.from_y(cone_points(rng, 1)[0]))
    np.testing.assert_array_equal(cur.s, -cur.s.transpose(0, 1, 3, 2))


def test_r_and_p_proportional_to_s(bm, rng):
    for tm in (EXP, TimeMetric.power(-0.7)):
        for y in cone_points(rng, 15):
            t = float(rng.uniform(-1, 1))
            kappa = christoffel_time(tm, t).kappa
            cur = curvatures(bm, tm, JetPoint.from_y(y, t=t))
            assert_close(cur.r, (kappa**2 / 9) * cur.s, 1e-9)
            assert_close(cur.p, (kappa / 3) * cur.s, 1e-9)


def test_s_is_kappa_free(bm, rng):
    y = cone_points(rng, 1)[0]
    s_const = curvatures(bm, CONST, JetPoint.from_y(y)).s
    s_exp = curvatures(bm, EXP, JetPoint.from_y(y, t=0.4)).s
    np.testing.assert_allclose(s_const, s_exp, rtol=1e-12, atol=1e-15)
    r_const = curvatures(bm, CONST, JetPoint.from_y(y)).r
    np.testing.assert_array_equal(r_const, np.zeros((4, 4, 4, 4)))


# -- Ricci contractions and the field-theory table --------------------------------


def test_ricci_contraction_closed_form(bm, rng):
    """The contraction S^m_i(j)(m) of the closed S: diag 3/(8 y_i^2),
    off-diagonal -1/(8 y_i y_j)."""
    for y in cone_points(rng, 20):
        S = bm_s_closed(y)
        contracted = np.einsum("mijm->ij", S)
        assert_close(contracted, bm_s_ricci_contracted(y), 1e-12)


def test_ricci_pipeline_matches_contraction(bm, rng):
    for y in cone_points(rng, 20):
        t = float(rng.uniform(-1, 1))
        rs = ricci_scalar(bm, EXP, JetPoint.from_y(y, t=t))
        kappa = christoffel_time(EXP, t).kappa
        assert_close(rs.s_ricci, bm_s_ricci_contracted(y), 1e-10)
        assert_close(rs.r_ij, (kappa**2 / 9) * rs.s_ricci, 1e-10)
        assert_close(rs.p_ricci, (kappa / 3) * rs.s_ricci, 1e-10)
        assert_close(rs.s_raised, bm_metric_closed(y).g_up @ rs.s_ricci, 1e-10)


def test_field_table_diagonal_is_twice_the_contraction(bm, rng):
    """The closed table the field-theory layer uses agrees with the honest
    contraction off the diagonal and is exactly twice it on the diagonal;
    the verification suite reports this discrepancy."""
    for y in cone_points(rng, 10):
        tbl = bm_s_ricci_field(y)
        con = bm_s_ricci_contracted(y)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(tbl[off], con[off], rtol=1e-15)
        np.testing.assert_allclose(np.diag(tbl), 2.0 * np.diag(con), rtol=1e-15)


def test_scalar_curvature_values(bm):
    rs = ricci_scalar(bm, CONST, JetPoint.from_y(np.ones(4)))
    assert rs.sc == pytest.approx(-6.0, rel=1e-12)  # honest contraction
    assert scalar_curvature_field(CONST, 0.0, np.ones(4)) == pytest.approx(-9.0)
    # field layer at kappa = 1/2: -(9 + 1/4)/sqrt(24)
    assert scalar_curvature_field(EXP, 0.0, np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(
        -9.25 / np.sqrt(24), rel=1e-12
    )


def test_scalar_curvature_field_batch_equals_points(rng):
    ys = cone_points(rng, 7)
    ts = rng.uniform(-1, 1, 7)
    for tm in (EXP, TimeMetric.power(-1.3)):
        batch = scalar_curvature_field(tm, ts, ys)
        assert batch.shape == (7,)
        for n in range(7):
            assert batch[n] == scalar_curvature_field(tm, float(ts[n]), ys[n])


def test_honest_scalar_closed_form(bm, rng):
    """sc = -(6 h11 + 2 kappa^2 / 3)/sqrt(G1111) for the honest contraction."""
    for y in cone_points(rng, 10):
        t = float(rng.uniform(-1, 1))
        rs = ricci_scalar(bm, EXP, JetPoint.from_y(y, t=t))
        v = EXP.eval(t)
        kappa = christoffel_time(EXP, t).kappa
        expected = -(6 * v.h11 + (2 / 3) * kappa**2) / np.sqrt(np.prod(y))
        assert max_rel(rs.sc, expected) <= 1e-10


def test_raised_field_table(bm, rng):
    for y in cone_points(rng, 20):
        raised = bm_metric_closed(y).g_up @ bm_s_ricci_field(y)
        assert_close(raised, bm_s_raised_field(y), 1e-12)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert bm_s_raised_field(y)[1, 0] == pytest.approx((5 / 4) * 2 / np.sqrt(24), rel=1e-13)


def test_raised_orthogonality_and_divergence(bm, rng):
    """Both identities of the raised table: contraction with C vanishes, and
    the y-divergence is 3/(sqrt(G) y_i) for the field table but
    (3/2)/(sqrt(G) y_i) for the raised honest contraction."""
    tm = CONST
    for y in cone_points(rng, 10):
        p = JetPoint.from_y(y)
        cart = cartan_connection(bm, tm, p)
        rs = ricci_scalar(bm, tm, p)
        assert np.abs(np.einsum("mr,rim->i", rs.s_raised, cart.c)).max() <= 1e-10
        assert np.abs(np.einsum("mr,rim->i", bm_s_raised_field(y), cart.c)).max() <= 1e-10

        seeds = taylor2_seed(y)
        sq = (seeds[0] * seeds[1] * seeds[2] * seeds[3]).sqrt()
        for coef, factor in (((5 - 14 * np.eye(4)) / 4, 3.0), ((2 - 8 * np.eye(4)) / 4, 1.5)):
            div = np.zeros(4)
            for i in range(4):
                div[i] = sum((seeds[m] / seeds[i] / sq * coef[m, i]).grad[m] for m in range(4))
            assert max_rel(div, factor / (np.sqrt(np.prod(y)) * y)) <= 1e-9


def test_custom_tensor_curvature_structure(rng):
    """Generic identities survive for a non-Berwald-Moor quartic tensor."""
    G = QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.01})
    for y in cone_points(rng, 5, lo=0.7, hi=1.4):
        t = 0.3
        kappa = christoffel_time(EXP, t).kappa
        cur = curvatures(G, EXP, JetPoint.from_y(y, t=t))
        np.testing.assert_array_equal(cur.s, -cur.s.transpose(0, 1, 3, 2))
        assert_close(cur.r, (kappa**2 / 9) * cur.s, 1e-9)
        assert_close(cur.p, (kappa / 3) * cur.s, 1e-9)
        rs = ricci_scalar(G, EXP, JetPoint.from_y(y, t=t))
        np.testing.assert_allclose(rs.s_ricci, rs.s_ricci.T, atol=1e-12)
