"""The batched geometry kernel against the per-point Taylor2 oracle, its
batch independence, and its typed guards."""

import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from jetbm import (
    JetPoint,
    QuarticTensor,
    SingularTensorError,
    TimeMetric,
    g_scalars,
    metric_pair,
    metric_taylor2,
)
from jetbm.geometry import CHUNK, GScalars, geometry, g_hierarchy, take

from conftest import cone_points

EXP = TimeMetric.exponential(1.0, 1.0)
# the custom tensor of tests/test_harness.py::CUSTOM_OTHER
CUSTOM_OTHER = QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.01})


def _rel(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(b).max())


@pytest.mark.parametrize("G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER], ids=["berwald-moor", "custom-other"])
def test_tables_match_taylor2(G, rng):
    ys = cone_points(rng, 40)
    ts = rng.uniform(-1, 1, 40)
    geo = geometry(G, EXP, ts, ys)
    for n, y in enumerate(ys):
        gt = metric_taylor2(G, y)
        g = np.array([[gt[i][j].value for j in range(4)] for i in range(4)])
        t3 = np.array([[gt[i][j].grad for j in range(4)] for i in range(4)])
        t4 = np.array([[gt[i][j].hess for j in range(4)] for i in range(4)])
        assert _rel(geo.g_lo[n], g) <= 1e-12
        assert _rel(geo.t3[n], t3) <= 1e-12
        assert _rel(geo.t4[n], t4) <= 1e-12


def test_metric_is_the_plain_closed_formulas(rng):
    """The hierarchy, g_ij and g^jk equal the plain one-point formulas bit for
    bit; in particular g^jk = 4 sqrt(G)[G^jk11 + G^j_1 G^k_1 / (2 (G_1111 -
    scriptG))] is not a numerical inverse of g_ij, so the metric checks test
    the formula."""
    D = CUSTOM_OTHER.dense
    for y in cone_points(rng, 10):
        s = g_scalars(CUSTOM_OTHER, y)
        gij11 = 12.0 * np.einsum("ijpq,p,q->ij", D, y, y)
        gi111 = 4.0 * np.einsum("ipqr,p,q,r->i", D, y, y, y)
        g = np.einsum("pqrs,p,q,r,s", D, y, y, y, y)
        inv = np.linalg.inv(gij11)
        inv = 0.5 * (inv + inv.T)
        gj_up = inv @ gi111
        script = 0.5 * float(gi111 @ inv @ gi111)
        np.testing.assert_array_equal(s.gij11, gij11)
        np.testing.assert_array_equal(s.gi111, gi111)
        assert s.g1111 == g and s.g_script == script
        np.testing.assert_array_equal(s.gj_up, gj_up)
        mp = metric_pair(CUSTOM_OTHER, EXP, JetPoint.from_y(y))
        g_lo = (gij11 - np.outer(gi111, gi111) / (2.0 * g)) / (4.0 * np.sqrt(g))
        g_up = 4.0 * np.sqrt(g) * (inv + np.outer(gj_up, gj_up) / (2.0 * (g - script)))
        np.testing.assert_array_equal(mp.g_lo, 0.5 * (g_lo + g_lo.T))
        np.testing.assert_array_equal(mp.g_up, 0.5 * (g_up + g_up.T))


def _assert_point_equal(batch, n, one):
    for f in fields(batch):
        a, b = getattr(batch, f.name), getattr(one, f.name)
        if isinstance(a, GScalars):
            _assert_point_equal(a, n, b)
        elif isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a[n], b[0], err_msg=f.name)


@pytest.mark.parametrize("size", [1, CHUNK, CHUNK + 1])
def test_point_is_bit_identical_alone_and_in_a_batch(size, rng):
    ys = cone_points(rng, size, lo=0.7, hi=1.4)
    ts = rng.uniform(-1, 1, size)
    batch = geometry(CUSTOM_OTHER, EXP, ts, ys)
    assert len(batch) == size
    for n in sorted({0, size // 2, size - 1}):
        _assert_point_equal(batch, n, geometry(CUSTOM_OTHER, EXP, ts[n : n + 1], ys[n : n + 1]))


def test_g_scalars_is_one_point_of_the_hierarchy(rng):
    ys = cone_points(rng, 10)
    hierarchy = g_hierarchy(CUSTOM_OTHER, ys)
    for n, y in enumerate(ys):
        one = g_scalars(CUSTOM_OTHER, y)
        for f in fields(one):
            np.testing.assert_array_equal(getattr(take(hierarchy, n), f.name), getattr(one, f.name))


def test_batch_names_its_singular_point(rng):
    bm = QuarticTensor.berwald_moor()
    skewed = np.array([1e-2, 1e-2, 1e2, 1e2])  # det G_ij11 = -3 G_1111^2, tiny against max|G_ij11|^4
    with pytest.raises(SingularTensorError, match=r"1\.e-02"):
        metric_pair(bm, EXP, JetPoint.from_y(skewed))
    ys = cone_points(rng, 10)
    ys[6] = skewed
    with pytest.raises(SingularTensorError) as exc:
        geometry(bm, EXP, np.zeros(10), ys)
    assert str(skewed) in str(exc.value)


def test_rank_one_tensor_is_singular_everywhere(rng):
    G = QuarticTensor.from_components({(1, 1, 1, 1): 1.0})
    ys = cone_points(rng, 5)
    with pytest.raises(SingularTensorError) as exc:
        geometry(G, EXP, np.zeros(5), ys)
    assert str(ys[0]) in str(exc.value)
    with pytest.raises(SingularTensorError):
        g_scalars(G, ys[0])


def test_bundle_is_read_only():
    geo = geometry(QuarticTensor.berwald_moor(), EXP, [0.0], [[1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValueError):
        geo.c[0, 0, 0, 0] = 1.0


def test_guard_survives_optimize_flag():
    """The mixed-partial guard rejects a corrupted derivative table with a
    typed error even under python -O, which strips assert statements."""
    code = """
import numpy as np
from jetbm import InvariantError, QuarticTensor, TimeMetric
from jetbm.geometry import _guard_mixed_partials, geometry

if __debug__:
    raise SystemExit("not running under -O")
geo = geometry(QuarticTensor.berwald_moor(), TimeMetric.constant(1.0), [0.0], [[1.0, 2.0, 3.0, 4.0]])
t3 = geo.t3.copy()
t3[0, 0, 1, 2] += 1e-3
try:
    _guard_mixed_partials(t3, geo.t4, geo.y)
except InvariantError as exc:
    print("InvariantError:", exc)
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("InvariantError: mixed-partial consistency")
