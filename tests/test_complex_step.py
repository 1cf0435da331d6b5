"""A complex-step oracle for the Cartan tensor C, on every tensor.

g_ij is an analytic function of y, so its y-derivative is
dg_ij/dy^k = Im g_ij(y + i h e_k) / h, exact to rounding for a step h far
below |y^k| and free of subtraction (Squire & Trapp, SIAM Review 40(1),
1998; Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003).  The oracle forms
g from ``QuarticTensor.dense`` alone by plain complex ``np.einsum``, then
C^l_j(k) = (1/2) g^li dg_ij/dy^k with ``np.linalg.inv``: it shares no code
with the G-hierarchy, the packed jet or the closed inverse that the
connection stage reads.
"""

from pathlib import Path

import numpy as np
import pytest

from jetbm import QuarticTensor
from jetbm.geometry import connection_batches
from jetbm.harness import default_config, parse_config

from conftest import cone_points

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {
    "berwald-moor": None,
    "custom.ini": ROOT / "benchmarks" / "custom.ini",
    "dense.ini": ROOT / "scripts" / "dense.ini",
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


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_cartan_tensor_meets_the_complex_step_oracle(config):
    """At 512 seeded points of the default box the connection stage's C is
    within 1e-12 of each point's max|C| of the complex-step oracle (at worst
    2.6e-15 on Berwald-Moor, 3.6e-14 on custom.ini and 1.2e-13 on
    dense.ini)."""
    cfg = parse_config(config.read_text()) if config else default_config()
    rng = np.random.default_rng(7)
    y = cone_points(rng, 512)
    t = rng.uniform(cfg.t_min, cfg.t_max, len(y))
    c = np.concatenate([cn.c for cn in connection_batches(cfg.tensor, cfg.time_metric, t, y)])
    want = complex_step_cartan(cfg.tensor, y)
    err = np.abs(c - want).max(axis=(1, 2, 3)) / np.abs(want).max(axis=(1, 2, 3))
    assert err.max() <= 1e-12, f"worst point {err.argmax()}: y={y[err.argmax()]}, rel {err.max():.3g}"
