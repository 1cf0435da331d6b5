"""A complex-step oracle for the Cartan tensor C and the layers that follow
it, on every tensor.

g_ij is an analytic function of y, so its y-derivative is
dg_ij/dy^k = Im g_ij(y + i h e_k) / h, exact to rounding for a step h far
below |y^k| and free of subtraction (Squire & Trapp, SIAM Review 40(1),
1998; Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003).  The oracle forms
g from ``QuarticTensor.dense`` alone by plain complex ``np.einsum``, then
C^l_j(k) = (1/2) g^li dg_ij/dy^k with ``np.linalg.inv``: it shares no code
with the G-hierarchy, the packed jet or the closed inverse that the
connection stage reads.  From its own C and g^-1 it forms the vertical
curvature S, its Ricci contraction, the raised Ricci table and the scalar
curvature, and the time axis's h_11 and kappa from ``TimeMetric.eval``.
"""

from pathlib import Path

import numpy as np
import pytest

from jetbm import QuarticTensor
from jetbm.geometry import batches, connection_batches
from jetbm.harness import default_config, parse_config

from conftest import cone_points

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {
    "berwald-moor": None,
    "custom.ini": ROOT / "benchmarks" / "custom.ini",
    "dense.ini": ROOT / "scripts" / "dense.ini",
}
# the Berwald-Moor tensor under a time metric with kappa != 0, whose R_ij =
# (kappa^2 / 9) S_ij enters Sc
TIME_CONFIGS = {
    **CONFIGS,
    "bm_exponential.ini": ROOT / "scripts" / "bm_exponential.ini",
    "bm_power.ini": ROOT / "scripts" / "bm_power.ini",
}


def _metric(dense: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g_ij = (1/2) d^2 sqrt(G)/dy^i dy^j = 3 G_ij / sqrt(G) - 2 G_i G_j / G^(3/2),
    with G = G_pqrs y^p y^q y^r y^s, G_i = G_ipqr y^p y^q y^r and
    G_ij = G_ijpq y^p y^q, over y of shape (N, 4), real or complex."""
    g_ij = np.einsum("ijpq,xp,xq->xij", dense, y, y)
    g_i = np.einsum("ipqr,xp,xq,xr->xi", dense, y, y, y)
    g = np.einsum("pqrs,xp,xq,xr,xs->x", dense, y, y, y, y)
    assert np.all(g.real > 0.0), "outside the cone of G > 0"
    sq = np.sqrt(g)
    return 3.0 * g_ij / sq[:, None, None] - 2.0 * g_i[:, :, None] * g_i[:, None, :] / (g * sq)[:, None, None]


def complex_step_cartan(G: QuarticTensor, y: np.ndarray) -> np.ndarray:
    """C^l_j(k) over y of shape (N, 4), indexed [point, l, j, k] as the
    connection stage's ``c``.  Each point takes its step h = 1e-20 |y^k| in
    direction k, so the tiny and huge scales of the cone work too."""
    dg = np.empty(y.shape + (y.shape[1],) * 2)
    for k in range(y.shape[1]):
        h = 1e-20 * np.abs(y[:, k])
        z = y.astype(complex)
        z[:, k] += 1j * h
        dg[:, :, :, k] = _metric(G.dense, z).imag / h[:, None, None]
    return 0.5 * np.einsum("xli,xijk->xljk", np.linalg.inv(_metric(G.dense, y)), dg)


def _seeded(config):
    """The configuration and its 512 seeded points (t, y) of the default box."""
    cfg = parse_config(config.read_text()) if config else default_config()
    rng = np.random.default_rng(7)
    y = cone_points(rng, 512)
    t = rng.uniform(cfg.t_min, cfg.t_max, len(y))
    return cfg, t, y


def _point_rel(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Each point's largest error, scaled by the point's largest |want|."""
    axes = tuple(range(1, want.ndim))
    return np.abs(got - want).max(axis=axes, initial=0.0) / np.abs(want).max(axis=axes, initial=0.0)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_cartan_tensor_meets_the_complex_step_oracle(config):
    """At 512 seeded points of the default box the connection stage's C is
    within 1e-12 of each point's max|C| of the complex-step oracle (at worst
    2.6e-15 on Berwald-Moor, 3.6e-14 on custom.ini and 1.2e-13 on
    dense.ini)."""
    cfg, t, y = _seeded(config)
    c = np.concatenate([cn.c for cn in connection_batches(cfg.tensor, cfg.time_metric, t, y)])
    err = _point_rel(c, complex_step_cartan(cfg.tensor, y))
    assert err.max() <= 1e-12, f"worst point {err.argmax()}: y={y[err.argmax()]}, rel {err.max():.3g}"


# per layer, the largest error of a point against its own largest value; at
# worst (Berwald-Moor, custom.ini, dense.ini; the exponential and power
# families as Berwald-Moor): S 2.6e-15, 2.7e-14, 2.5e-13; S_ij 1.1e-15,
# 2.7e-14, 2.5e-13; S^m_i 2.3e-15, 4.8e-14, 3.1e-13; Sc 1.0e-15, 2.7e-14,
# 4.5e-13
CURVATURE_BOUNDS = {"s_curv": 1e-12, "s_ricci": 1e-12, "s_raised": 1e-12, "sc": 2e-12}


@pytest.mark.parametrize("config", TIME_CONFIGS.values(), ids=TIME_CONFIGS.keys())
def test_vertical_curvature_layers_meet_the_complex_step_oracle(config):
    """At 512 seeded points of the default box the full stage's S, S_ij,
    S^m_i and Sc are within CURVATURE_BOUNDS of the oracle's, each formed
    from the oracle's own C and g^-1:
    S^l_i(j)(k) = C^m_i(k) C^l_m(j) - C^m_i(j) C^l_m(k), S_ij = S^m_i(j)(m),
    S^m_i = g^mr S_ri and Sc = (kappa^2 / 9 + h_11) g^pq S_pq."""
    cfg, t, y = _seeded(config)
    geos = list(batches(cfg.tensor, cfg.time_metric, t, y))
    c = complex_step_cartan(cfg.tensor, y)
    g_up = np.linalg.inv(_metric(cfg.tensor.dense, y))
    s_curv = np.einsum("xmik,xlmj->xlijk", c, c) - np.einsum("xmij,xlmk->xlijk", c, c)
    s_ricci = np.einsum("xmijm->xij", s_curv)
    ax = cfg.time_metric.eval(t)
    want = {
        "s_curv": s_curv,
        "s_ricci": s_ricci,
        "s_raised": np.einsum("xmr,xri->xmi", g_up, s_ricci),
        "sc": (ax.kappa**2 / 9.0 + ax.h11) * np.einsum("xpq,xpq->x", g_up, s_ricci),
    }
    for name, bound in CURVATURE_BOUNDS.items():
        err = _point_rel(np.concatenate([getattr(geo, name) for geo in geos]), want[name])
        assert err.max() <= bound, f"{name}: worst point {err.argmax()}: y={y[err.argmax()]}, rel {err.max():.3g}"
