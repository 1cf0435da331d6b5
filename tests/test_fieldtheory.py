import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetbm import (
    ConfigError,
    DomainError,
    JetPoint,
    QuarticTensor,
    TimeMetric,
    bm_metric_closed,
    bm_s_ricci_field,
    christoffel_time,
    conservation_residuals,
    des_check,
    einstein_blocks,
    em_form,
    grav_potential,
    metric_pair,
    scalar_curvature_field,
    taylor2_seed,
    xi_11,
)
from jetbm.closed import CONTRACTED_COEF, raised_divergence, raised_table_grad
from jetbm.fieldtheory import conservation_residuals_of, einstein_blocks_of, em_form_of
from jetbm.geometry import batches, geometry, raised_ricci_divergence
from jetbm.harness.config import parse_config

from conftest import BATCH_SIZES, assert_close, cone_points, max_rel

CONST = TimeMetric.constant(1.0)
EXP = TimeMetric.exponential(1.0, 1.0)
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CUSTOM = SCRIPTS.parent / "benchmarks" / "custom.ini"


# -- gravitational potential ----------------------------------------------------


def test_potential_blocks_at_ones(bm):
    pot = grav_potential(bm, CONST, JetPoint.from_y(np.ones(4)))
    assert pot.tt_block == 1.0
    np.testing.assert_allclose(pot.xx_block, (np.ones((4, 4)) - 2 * np.eye(4)) / 8, rtol=1e-14)
    np.testing.assert_array_equal(pot.yy_block, pot.xx_block)


def test_potential_yy_scaling(bm, rng):
    tm = TimeMetric.constant(4.0)
    y = cone_points(rng, 1)[0]
    pot = grav_potential(bm, tm, JetPoint.from_y(y))
    np.testing.assert_array_equal(pot.yy_block, pot.xx_block / 4.0)
    assert np.abs(pot.yy_block - (1 / pot.tt_block) * pot.xx_block).max() == 0.0


# -- Einstein blocks --------------------------------------------------------------


def test_xi_and_blocks_constant_family(bm):
    b = einstein_blocks(bm, CONST, JetPoint.from_y(np.ones(4)), 1.0)
    assert b.xi11 == pytest.approx(4.5)
    assert b.t_11 == pytest.approx(4.5)
    np.testing.assert_array_equal(b.t_i_yj, np.zeros((4, 4)))
    assert all(b.zero_blocks.values())


def test_xi_exponential(bm):
    b = einstein_blocks(bm, EXP, JetPoint.from_y(np.ones(4), t=0.0), 1.0)
    assert b.xi11 == pytest.approx(4.625)  # (9 + 1/4)/2
    assert xi_11(EXP, 0.0, 1.0) == pytest.approx(4.625)


def test_raised_t11_frozen(bm):
    b = einstein_blocks(bm, EXP, JetPoint.from_y([1.0, 2.0, 3.0, 4.0], t=0.0), 1.0)
    assert b.raised_t11 == pytest.approx(4.625 / np.sqrt(24), rel=1e-12)  # 0.944075


def test_einstein_requires_nonzero_constant(bm):
    with pytest.raises(ConfigError):
        einstein_blocks(bm, CONST, JetPoint.from_y(np.ones(4)), 0.0)
    with pytest.raises(ConfigError):
        xi_11(CONST, 0.0, 0.0)


def test_block_symmetry_and_zero_blocks(bm, rng):
    for y in cone_points(rng, 20):
        b = einstein_blocks(bm, EXP, JetPoint.from_y(y, t=0.7), 2.0)
        np.testing.assert_allclose(b.t_ij, b.t_ij.T, atol=1e-12)
        np.testing.assert_allclose(b.t_yy, b.t_yy.T, atol=1e-12)
        np.testing.assert_array_equal(b.t_i_yj, b.t_yi_j)


def test_raised_identities_cross_checked_by_raising(bm, rng):
    """Every displayed raised component equals the independent g-/h-raising
    of the corresponding lowered block."""
    for y in cone_points(rng, 20):
        t = float(rng.uniform(-1, 1))
        p = JetPoint.from_y(y, t=t)
        k = 1.7
        v = EXP.eval(t)
        b = einstein_blocks(bm, EXP, p, k)
        g_up = metric_pair(bm, EXP, p).g_up
        assert max_rel(b.raised_t11, v.h11_inv * b.t_11) <= 1e-9
        assert_close(b.raised_h, g_up @ b.t_ij, 1e-9)
        assert_close(b.raised_mixed_t, v.h11 * (g_up @ b.t_yi_j), 1e-9)
        assert_close(b.raised_mixed_v, g_up @ b.t_i_yj, 1e-9)
        assert_close(b.raised_vv, v.h11 * (g_up @ b.t_yy), 1e-9)


def test_blocks_use_field_table(bm, rng):
    y = cone_points(rng, 1)[0]
    t, k = 0.4, 1.0
    p = JetPoint.from_y(y, t=t)
    b = einstein_blocks(bm, EXP, p, k)
    v = EXP.eval(t)
    kappa = 0.5
    sq = np.sqrt(np.prod(y))
    expected = (kappa**2 / (9 * k)) * bm_s_ricci_field(y) + (b.xi11 / sq) * bm_metric_closed(y).g_lo
    assert_close(b.t_ij, expected, 1e-12)
    expected_yy = (1 / k) * bm_s_ricci_field(y) + (b.xi11 / sq) * v.h11_inv * bm_metric_closed(y).g_lo
    assert_close(b.t_yy, expected_yy, 1e-12)


# -- conservation laws -------------------------------------------------------------


def test_conservation_constant_family(bm):
    res = conservation_residuals(bm, CONST, JetPoint.from_y(np.ones(4)), 1.0)
    assert res.t1 == 0.0 and res.closed_t1 == 0.0
    np.testing.assert_allclose(res.ti, np.zeros(4), atol=1e-15)
    np.testing.assert_allclose(res.tyi, 0.75 * np.ones(4), rtol=1e-12)  # xi/6 = 0.75
    np.testing.assert_allclose(res.closed_tyi, res.tyi, rtol=1e-12)


def test_conservation_exponential_frozen(bm):
    res = conservation_residuals(bm, EXP, JetPoint.from_y(np.ones(4), t=0.0), 1.0)
    assert res.closed_t1 == pytest.approx(-0.125, rel=1e-12)
    assert res.t1 == pytest.approx(-0.125, rel=1e-10)
    np.testing.assert_allclose(res.closed_ti, (0.5 * 4.625 / 18) * np.ones(4), rtol=1e-12)
    assert max_rel(res.ti, res.closed_ti) <= 1e-10


def test_conservation_lhs_matches_rhs_random(bm, rng, families):
    for tm in families:
        for y in cone_points(rng, 8):
            t = float(rng.uniform(-1, 1))
            k = float(rng.choice([0.5, 1.0, 2.0, -1.5]))
            res = conservation_residuals(bm, tm, JetPoint.from_y(y, t=t), k)
            assert max_rel(res.t1, res.closed_t1) <= 1e-8 or abs(res.t1 - res.closed_t1) <= 1e-13
            assert max_rel(res.ti, res.closed_ti) <= 1e-8
            assert max_rel(res.tyi, res.closed_tyi) <= 1e-8


def test_residual_vector_never_zero_and_decays(bm):
    norms = []
    for s in (10.0, 100.0, 1000.0):
        res = conservation_residuals(bm, EXP, JetPoint.from_y(s * np.ones(4), t=0.0), 1.0)
        n = np.sqrt(res.t1**2 + np.sum(res.ti**2) + np.sum(res.tyi**2))
        assert n > 0.0
        norms.append(n)
    slope = (np.log(norms[2]) - np.log(norms[1])) / np.log(10.0)
    assert abs(slope + 2.0) <= 0.02  # within 1% of the exponent


def test_decay_is_cubic_for_constant_family(bm):
    norms = []
    for s in (10.0, 100.0):
        res = conservation_residuals(bm, CONST, JetPoint.from_y(s * np.ones(4)), 1.0)
        norms.append(np.sqrt(res.t1**2 + np.sum(res.ti**2) + np.sum(res.tyi**2)))
    slope = (np.log(norms[1]) - np.log(norms[0])) / np.log(10.0)
    assert abs(slope + 3.0) <= 1e-6


def test_conservation_custom_tensor_runs(rng):
    """Custom tensors go through the same assembly with the exact div S of
    the raised contraction; the divergences are finite, and the closed
    right-hand sides,
    which hold for Berwald-Moor alone, are None."""
    G = QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.005})
    res = conservation_residuals(G, EXP, JetPoint.from_y(np.array([1.0, 1.1, 0.9, 1.2]), t=0.2), 1.0)
    assert np.isfinite(res.t1) and np.all(np.isfinite(res.ti)) and np.all(np.isfinite(res.tyi))
    assert res.closed_t1 is None and res.closed_ti is None and res.closed_tyi is None


def _seeded_geometry(ini: str, rng, n: int):
    cfg = parse_config(ini.read_text())
    t = rng.uniform(cfg.t_min, cfg.t_max, n)
    return cfg, geometry(cfg.tensor, cfg.time_metric, t, cone_points(rng, n, cfg.y_min, cfg.y_max))


def _unreduced_reference(geo, k: float, step: float = 1e-5):
    """Ti and Tyi by the unreduced covariant definitions, which share no
    assembly with the kernel: for each raised block F,
    scale dF^m_i/dy^m + F^r_i conn^m_rm - F^m_r conn^r_im, with the partials
    central differences of F itself at the eight shifted points of every
    point (step ``step`` y), the horizontal parts with L and scale kappa/3
    and the vertical ones with C and scale 1."""
    n = len(geo)
    h = step * geo.y
    shift = h[:, :, None] * np.eye(4)
    ys = np.stack([geo.y[:, None, :] + shift, geo.y[:, None, :] - shift], axis=2).reshape(-1, 4)
    shifted = einstein_blocks_of(geometry(geo.tensor, geo.tm, np.repeat(geo.t, 8), ys), k)
    blocks = einstein_blocks_of(geo, k)

    def divergence(name, conn, scale):
        f = getattr(shifted, name).reshape(n, 4, 2, 4, 4)
        d = np.einsum("xmmi->xi", (f[:, :, 0] - f[:, :, 1]) / (2.0 * h[:, :, None, None]))
        field = getattr(blocks, name)
        return scale * d + np.einsum("xri,xmrm->xi", field, conn) - np.einsum("xmr,xrim->xi", field, conn)

    k3 = (geo.kappa / 3.0)[:, None]
    ti = divergence("raised_h", geo.l, k3) + divergence("raised_mixed_t", geo.c, 1.0)
    tyi = divergence("raised_mixed_v", geo.l, k3) + divergence("raised_vv", geo.c, 1.0)
    return ti, tyi


@pytest.mark.parametrize("ini", [CUSTOM, SCRIPTS / "dense.ini"], ids=lambda p: p.name)
def test_custom_conservation_matches_the_unreduced_definitions(ini, rng):
    """On a custom tensor, at 128 seeded points of the config's box, the one
    assembly (exact div S, exact gradient of 1/sqrt(G_1111), added C- and
    L-terms) gives the Ti and Tyi of the unreduced definitions
    (``_unreduced_reference``, central differences at the step h = 1e-5 y)
    within 1e-8 of each point's max|value| plus the reference's own
    truncation estimate |D(h) - D(2h)|, entry by entry.  A central
    difference's error is c h^2 to leading order, so D(h) - D(2h) is about
    -3 c h^2, and the exact value stays within a third of it (Richardson);
    measured, at most 0.35 of the whole bound (nine seeds).  T1 is
    (xi' - 2 kappa xi) / sqrt(G_1111) within 1e-12 relative: Euler's
    theorem, as 1/sqrt(G_1111) has degree -2 in y, with G_1111 from an
    einsum of G alone."""
    cfg, geo = _seeded_geometry(ini, rng, 128)
    k = cfg.einstein_k
    res = conservation_residuals_of(geo, k)
    refs = zip(_unreduced_reference(geo, k), _unreduced_reference(geo, k, 2e-5))
    for name, got, (want, coarse) in zip(("Ti", "Tyi"), (res.ti, res.tyi), refs):
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-8 * scale + np.abs(want - coarse)), name
    xi = xi_11(cfg.time_metric, geo.t, k)
    dxi = (9.0 * geo.dh11 + 2.0 * geo.kappa * geo.dkappa) / (2.0 * k)
    g1111 = np.einsum("pqrs,xp,xq,xr,xs->x", cfg.tensor.dense, geo.y, geo.y, geo.y, geo.y)
    euler = (dxi - 2.0 * geo.kappa * xi) / np.sqrt(g1111)
    assert np.all(np.abs(res.t1 - euler) <= 1e-12 * np.abs(euler))
    assert res.closed_t1 is None and res.closed_ti is None and res.closed_tyi is None


@pytest.mark.parametrize("ini", ["bm_power.ini", "bm_exponential.ini"])
def test_unreduced_divergences_agree_on_berwald_moor(ini, rng):
    """The custom tensors' div S source, the exact divergence of the full
    stage's raised contraction (``raised_ricci_divergence``, from the
    second-order jet), is on Berwald-Moor the divergence of the closed
    raised contraction (2 - 8 delta^m_i) y^m / (4 y^i sqrt(G_1111)) from
    the exact first-order partials of ``raised_table_grad``, within 1e-13
    of each point's max|div S| (about 3e-15 at worst), at 200 seeded points
    of the config's box.  The two derivations share no differentiation
    code."""
    cfg = parse_config((SCRIPTS / ini).read_text())
    t = rng.uniform(cfg.t_min, cfg.t_max, 200)
    y = cone_points(rng, 200, cfg.y_min, cfg.y_max)
    for geo in batches(cfg.tensor, cfg.time_metric, t, y):
        exact = raised_divergence(raised_table_grad(geo.y)[0], CONTRACTED_COEF)
        got = raised_ricci_divergence(geo)
        assert np.all(np.abs(got - exact).max(axis=1) <= 1e-13 * np.abs(exact).max(axis=1))


# -- the unsolvable ODE system ------------------------------------------------------


def test_des_constant():
    out = des_check(TimeMetric.constant(1.0), np.linspace(-1, 1, 7))
    np.testing.assert_array_equal(out.r1, np.zeros(7))
    np.testing.assert_allclose(out.r2, 9.0 * np.ones(7), rtol=1e-14)
    assert out.solvable is False


def test_des_exponential_at_zero():
    out = des_check(EXP, [0.0])
    assert out.r2[0] == pytest.approx(9.25)
    assert out.solvable is False


def test_des_always_positive_second_residual(families, rng):
    for tm in families:
        out = des_check(tm, rng.uniform(-3, 3, 25))
        assert np.all(out.r2 > 0.0)
        assert out.solvable is False


def _kappa_where_pow_and_product_round_apart():
    """An exponential time metric whose kappa at t = 0 has kappa ** 2 !=
    kappa * kappa, with the difference surviving in 9 h_11 + kappa^2
    (libm pow misrounds about 0.09 % of squares; h_11 = 1e-8 keeps 9 h_11
    below kappa^2)."""
    for lam in np.linspace(1.0, 9.0, 20001).tolist():
        tm = TimeMetric.exponential(1e-8, lam)
        v, kappa = tm.eval(0.0), christoffel_time(tm, 0.0).kappa
        if 9.0 * v.h11 + kappa**2 != 9.0 * v.h11 + kappa * kappa:
            return tm, v.h11, kappa
    raise AssertionError("no kappa found whose pow and product squares differ")


def test_kappa_squared_is_rounded_as_a_product_everywhere():
    tm, h11, kappa = _kappa_where_pow_and_product_round_apart()
    numerator = 9.0 * h11 + kappa * kappa
    y = np.array([0.5, 1.0, 2.0, 3.0])
    assert scalar_curvature_field(tm, 0.0, y) == -numerator / np.sqrt(np.prod(y))
    assert xi_11(tm, 0.0, 0.7) == numerator / (2.0 * 0.7)
    assert des_check(tm, [0.0]).r2[0] == numerator


def test_des_needs_samples():
    with pytest.raises(ConfigError):
        des_check(CONST, [])


# -- electromagnetic 2-form ----------------------------------------------------------


def test_em_form_vanishes(bm, families, rng):
    for tm in families:
        for y in cone_points(rng, 5):
            f = em_form(bm, tm, JetPoint.from_y(y, t=float(rng.uniform(-1, 1)))).f
            assert np.abs(f).max() <= 1e-10


def test_em_form_exact_zero_for_constant_family(bm, rng):
    f = em_form(bm, TimeMetric.constant(3.0), JetPoint.from_y(cone_points(rng, 1)[0])).f
    np.testing.assert_array_equal(f, np.zeros((4, 4)))


def test_em_form_antisymmetric_for_custom_tensor(rng):
    G = QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.01})
    f = em_form(G, EXP, JetPoint.from_y(np.array([1.0, 0.8, 1.2, 1.1]), t=0.3)).f
    np.testing.assert_array_equal(f, -f.T)


# -- the first-order raised table and the batched field layer ------------------

COEFS = ((5 - 14 * np.eye(4)) / 4, (2 - 8 * np.eye(4)) / 4)


def _per_entry_grad(y):
    """The per-entry Taylor2 oracle of ``raised_table_grad`` at one point y:
    the partials d/dy^m of s[m] / s[i] / sqrt(G_1111), indexed [m, i], then
    1/sqrt(G_1111) and its gradient."""
    s = taylor2_seed(y)
    sq = (s[0] * s[1] * s[2] * s[3]).sqrt()
    d = np.array([[(s[m] / s[i] / sq).grad[m] for i in range(4)] for m in range(4)])
    inv_sq = sq.reciprocal()
    return d, inv_sq.value, inv_sq.grad


def _assert_per_entry(ys, got):
    d, inv_sq, d_inv_sq = got
    assert d.shape == (len(ys), 4, 4) and inv_sq.shape == (len(ys),) and d_inv_sq.shape == (len(ys), 4)
    for n, y in enumerate(ys):
        want_d, want_inv, want_grad = _per_entry_grad(y)
        np.testing.assert_array_equal(d[n], want_d)
        assert inv_sq[n] == want_inv
        np.testing.assert_array_equal(d_inv_sq[n], want_grad)


def test_shared_raised_table_divergence_equals_scaled_entries(rng):
    """Scaling each partial by its coefficient and summing in m-order equals
    the m-th gradient entry of the scaled Taylor2 entry, summed the same way,
    bit for bit, for both coefficient tables."""
    for y in cone_points(rng, 5):
        d, _, _ = raised_table_grad(y[None])
        s = taylor2_seed(y)
        sq = (s[0] * s[1] * s[2] * s[3]).sqrt()
        for coef in COEFS:
            div = np.zeros(4)
            for i in range(4):
                acc = 0.0
                for m in range(4):
                    acc += (s[m] / s[i] / sq * coef[m, i]).grad[m]
                div[i] = acc
            np.testing.assert_array_equal(raised_divergence(d, coef)[0], div)


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batched_raised_table_is_the_per_entry_division(size, rng):
    """Every array of the batched first-order table equals the gradient of
    s[m] / s[i] / sqrt(G) computed at each point on its own, bit for bit, and
    a point alone gets what it gets in the batch, divergences included."""
    ys = cone_points(rng, size)
    batch = raised_table_grad(ys)
    _assert_per_entry(ys, batch)
    for n in (0, size // 2, size - 1):
        alone = raised_table_grad(ys[n : n + 1])
        for got, want in zip(alone, batch):
            np.testing.assert_array_equal(got[0], want[n])
        for coef in COEFS:
            np.testing.assert_array_equal(raised_divergence(alone[0], coef)[0], raised_divergence(batch[0], coef)[n])


@settings(max_examples=60, deadline=None)
@given(logy=st.lists(st.lists(st.floats(-8.0, 8.0), min_size=4, max_size=4), min_size=1, max_size=5))
def test_raised_table_is_the_per_entry_division_on_the_wide_cone(logy):
    """Over y log-uniform in [1e-8, 1e8]^4 the first-order table equals the
    per-entry Taylor2 gradients bit for bit."""
    ys = 10.0 ** np.array(logy)
    _assert_per_entry(ys, raised_table_grad(ys))


def test_raised_table_guards():
    """A point outside the positive cone, and one whose product y^1 y^2 y^3 y^4
    underflows to 0, raise the DomainError the Taylor2 chain raises."""
    ys = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0, 4.0]])
    with pytest.raises(DomainError, match="positive cone") as exc:
        raised_table_grad(ys)
    with pytest.raises(DomainError) as want:
        taylor2_seed(ys)
    assert str(exc.value) == str(want.value)
    tiny = np.full((1, 4), 1e-100)
    with pytest.raises(DomainError) as exc:
        raised_table_grad(tiny)
    s = taylor2_seed(tiny)
    with pytest.raises(DomainError) as want:
        (s[0] * s[1] * s[2] * s[3]).sqrt()
    assert str(exc.value) == str(want.value) == "sqrt of non-positive Taylor2 value at batch index 0, value=0.0"


def test_raised_table_guards_survive_optimize_flag():
    """Both guards raise their DomainError under python -O, which strips
    assert statements."""
    code = """
import numpy as np
from jetbm import DomainError
from jetbm.closed import raised_table_grad

if __debug__:
    raise SystemExit("not running under -O")
for y in ([[1.0, 0.0, 3.0, 4.0]], [[1e-100] * 4]):
    try:
        raised_table_grad(np.array(y))
    except DomainError as exc:
        print("DomainError:", exc)
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "DomainError: y must lie in the open positive cone at batch index 0, y=[1. 0. 3. 4.]",
        "DomainError: sqrt of non-positive Taylor2 value at batch index 0, value=0.0",
    ]


@pytest.mark.parametrize(
    "G",
    [QuarticTensor.berwald_moor(), QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.005})],
    ids=["berwald-moor", "custom"],
)
def test_batched_field_layer_equals_per_point(G, rng):
    ys = cone_points(rng, 6, lo=0.7, hi=1.4)
    ts = rng.uniform(-1, 1, 6)
    geo = geometry(G, EXP, ts, ys)
    blocks = einstein_blocks_of(geo, 1.5)
    cons = conservation_residuals_of(geo, 1.5)
    em = em_form_of(geo)
    for n in range(6):
        p = JetPoint.from_y(ys[n], t=ts[n])
        one = einstein_blocks(G, EXP, p, 1.5)
        np.testing.assert_array_equal(blocks.t_ij[n], one.t_ij)
        np.testing.assert_array_equal(blocks.raised_vv[n], one.raised_vv)
        # a double contraction in the unreduced divergences may round
        # differently inside a batch, hence a tolerance instead of equality
        res = conservation_residuals(G, EXP, p, 1.5)
        np.testing.assert_allclose(cons.t1[n], res.t1, rtol=1e-12)
        np.testing.assert_allclose(cons.ti[n], res.ti, rtol=1e-12)
        np.testing.assert_allclose(cons.tyi[n], res.tyi, rtol=1e-12)
        np.testing.assert_array_equal(em.f[n], em_form(G, EXP, p).f)


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_bm_conservation_point_alone_equals_point_in_batch(bm, size, rng):
    ys = cone_points(rng, size)
    ts = rng.uniform(-1, 1, size)
    batch = conservation_residuals_of(geometry(bm, EXP, ts, ys), 1.5)
    for n in (0, size // 2, size - 1):
        alone = conservation_residuals_of(geometry(bm, EXP, ts[n : n + 1], ys[n : n + 1]), 1.5)
        for name in ("t1", "ti", "tyi", "closed_t1", "closed_ti", "closed_tyi"):
            np.testing.assert_array_equal(getattr(batch, name)[n], getattr(alone, name)[0], err_msg=name)
