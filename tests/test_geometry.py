"""The batched geometry kernel against the per-point Taylor2 oracle, its
batch independence, its three stages, and its typed guards."""

import re
import subprocess
import sys
from dataclasses import fields, replace
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jetbm.geometry as kernel
import jetbm.jetcore as jetcore
from jetbm import (
    DegenerateDenominatorError,
    DomainError,
    JetPoint,
    QuarticTensor,
    SingularTensorError,
    TimeAxis,
    TimeMetric,
    cartan_connection,
    christoffel_time,
    conservation_residuals,
    einstein_blocks,
    em_form,
    g_scalars,
    grav_potential,
    metric_pair,
    metric_taylor2,
    scalar_curvature_field,
)
from jetbm import fieldtheory
from jetbm.fieldtheory import conservation_residuals_of, einstein_blocks_of, em_form_of, grav_potential_of
from jetbm.geometry import (
    CHUNK,
    METRIC_CHUNK,
    Connection,
    Geometry,
    GScalars,
    Metric,
    batches,
    connection_batches,
    geometry,
    g_hierarchy,
    metric_batches,
    point_geometry,
    take,
    third_derivative,
)
from jetbm.harness import checks, cli, jsondoc
from jetbm.harness.config import RunConfig, parse_config

from conftest import BATCH_SIZES, cone_points, traced_peak

EXP = TimeMetric.exponential(1.0, 1.0)
# kappa varies with t, so L and G^k_j1 are nonzero and differ point by point
POWER = TimeMetric.power(-1.3)
# the custom tensor of tests/test_harness.py::CUSTOM_OTHER
CUSTOM_OTHER = QuarticTensor.from_components({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.01})


def _rel(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(b).max())


def _second_order_t4(geo):
    """t4[j,m,k,n] = d2 g_jm/dy^k dy^n over the bundle's points, from the
    second-order packed jet that ``raised_ricci_divergence`` runs, gathered
    as that function gathers it."""
    jet = kernel._metric_jet(geo.scalars, third_derivative(geo.tensor, geo.y), 2)
    return np.take(jet[1].T, kernel._T4, axis=1).reshape((len(geo),) + (4,) * 4)


@pytest.mark.parametrize("G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER], ids=["berwald-moor", "custom-other"])
def test_tables_match_taylor2(G, rng):
    """The first-order jet's t3 and the second-order jet's t4 are the Taylor2
    gradients and Hessians of g within 1e-12."""
    ys = cone_points(rng, 40)
    ts = rng.uniform(-1, 1, 40)
    geo = geometry(G, EXP, ts, ys)
    geo_t4 = _second_order_t4(geo)
    for n, y in enumerate(ys):
        gt = metric_taylor2(G, y)
        g = np.array([[gt[i][j].value for j in range(4)] for i in range(4)])
        t3 = np.array([[gt[i][j].grad for j in range(4)] for i in range(4)])
        t4 = np.array([[gt[i][j].hess for j in range(4)] for i in range(4)])
        assert _rel(geo.g_lo[n], g) <= 1e-12
        assert _rel(geo.t3[n], t3) <= 1e-12
        assert _rel(geo_t4[n], t4) <= 1e-12


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


# the G-hierarchy's contractions by their np.einsum specs, the reference the
# term-table sums reproduce bit for bit (G_ijk1, third_derivative, is still
# this einsum)
_HIERARCHY_SPECS = {
    "g1111": (1.0, "pqrs,...p,...q,...r,...s->...", 4),
    "gi111": (4.0, "ipqr,...p,...q,...r->...i", 3),
    "gij11": (12.0, "ijpq,...p,...q->...ij", 2),
    "gijk1": (24.0, "ijkp,...p->...ijk", 1),
}
# every component nonzero, so each contraction sums all of its terms
DENSE = parse_config(Path(__file__).resolve().parents[1].joinpath("scripts", "dense.ini").read_text()).tensor


def _einsum_level(G, name, y):
    scale, spec, order = _HIERARCHY_SPECS[name]
    return scale * np.einsum(spec, G.dense, *[y] * order)


def _assert_bits_equal(got, want, name=""):
    """Equal bit patterns (a -0.0 against a +0.0 differs), and the same type,
    so a one-point G_1111 stays a numpy scalar."""
    assert type(got) is type(want) and np.shape(got) == np.shape(want), name
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64), err_msg=name)


@pytest.mark.parametrize(
    "G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER, DENSE], ids=["berwald-moor", "custom-other", "dense"]
)
@pytest.mark.parametrize("size", (None,) + BATCH_SIZES)
def test_hierarchy_is_its_einsum_specs_bit_for_bit(G, size, rng):
    """third_derivative and every level of g_hierarchy equal their np.einsum
    specs bit for bit, at one point y of shape (4,) (size None) and over
    batches, and every level is C-contiguous."""
    y = cone_points(rng, 1 if size is None else size)
    if size is None:
        y = y[0]
    s = g_hierarchy(G, y)
    for name in _HIERARCHY_SPECS:
        got = third_derivative(G, y) if name == "gijk1" else getattr(s, name)
        _assert_bits_equal(got, _einsum_level(G, name, y), name)
        assert np.ndim(got) == 0 or got.flags.c_contiguous, name


_QUADS = list(combinations_with_replacement(range(1, 5), 4))


@settings(max_examples=150, deadline=None)
@given(
    pattern=st.lists(st.booleans(), min_size=len(_QUADS), max_size=len(_QUADS)),
    values=st.lists(
        st.floats(-1e250, 1e250, allow_nan=False, allow_infinity=False), min_size=len(_QUADS), max_size=len(_QUADS)
    ),
    logy=st.lists(st.lists(st.floats(-8.0, 8.0), min_size=4, max_size=4), min_size=1, max_size=2),
    size=st.sampled_from((1, 2, METRIC_CHUNK + 1)),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # G_2233 alone: G_i111 for i = 1, 4 and every G_ij11 with i or j in {1, 4} are all-zero
    pattern=[q == (2, 2, 3, 3) for q in _QUADS],
    values=[1.0] * len(_QUADS),
    logy=[[0.0, 1.0, -2.0, 3.0]],
    size=1,
    seed=0,
)
@example(  # the first term underflows to -0.0: the sum starts from +0.0
    pattern=[q == (1, 1, 1, 1) for q in _QUADS],
    values=[-1e-300] * len(_QUADS),
    logy=[[-8.0, 0.0, 0.0, 0.0]],
    size=1,
    seed=0,
)
def test_term_sums_are_einsum_for_any_sparsity(pattern, values, logy, size, seed):
    """Over random sparsity patterns, coefficients and y in [1e-8, 1e8]^4, the
    term-table sum of every contraction (before the guards of g_hierarchy)
    equals its np.einsum spec bit for bit, signed zeros included, at one
    point and over batches of 1, 2 and METRIC_CHUNK + 1 points: the drawn
    points first, then seeded log-uniform ones."""
    G = QuarticTensor({q: v for q, v, on in zip(_QUADS, values, pattern) if on})
    more = np.random.default_rng(seed).uniform(-8.0, 8.0, (max(size - len(logy), 0), 4))
    y = 10.0 ** np.concatenate([logy, more])[:size]
    for ys in (y, y[0]):
        for name, sums in zip(("g1111", "gi111", "gij11"), kernel._term_sums(G.terms, ys)):
            scale = _HIERARCHY_SPECS[name][0]
            want = _einsum_level(G, name, ys)
            _assert_bits_equal(scale * sums.T.reshape(want.shape), want, name)


def test_term_tables_are_read_only_and_built_once(monkeypatch, rng):
    """The tables are built when the tensor is, from its nonzero entries
    only, and no contraction builds them again."""
    built = []
    real = jetcore._term_tables
    monkeypatch.setattr(jetcore, "_term_tables", lambda values: built.append(1) or real(values))
    G = QuarticTensor.berwald_moor()
    assert len(built) == 1
    ys = cone_points(rng, CHUNK + 1)
    for y in (ys, ys[0]):
        g_hierarchy(G, y)
    list(metric_batches(G, EXP, np.zeros(len(ys)), ys))
    assert len(built) == 1 and G.terms is G.terms
    # Berwald-Moor, by block: 2 terms of each off-diagonal G_ij11 (the
    # diagonal's are +0.0 pads), 6 of each G_i111 and 24 of G_1111
    terms = G.terms
    assert terms.shapes == ((2, 16), (6, 4), (24, 1))
    assert terms.coef.shape == (32, 1) and terms.first.shape == (32,)
    assert [len(a) for a in terms.last] == [32, 24, 24] and [len(a) for a in terms.below] == [24, 24]
    # the diagonal G_11rs reads only pads; each later block reads every
    # product of the block below it, a permutation of the nonzero entries
    diagonal = [k * 16 + 5 * i for k in range(2) for i in range(4)]
    assert (terms.coef[diagonal] == 0.0).all() and (terms.first[diagonal] == 4).all()
    assert sorted(terms.below[1]) == list(range(24))
    assert set(terms.below[0]) == set(np.flatnonzero(terms.coef[:, 0]))
    for arr in (terms.coef, terms.first, *terms.last, *terms.below):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0


@pytest.mark.parametrize(
    "components, expected",
    [
        ({(1, 2, 3, 4): 1 / 24}, True),
        ({(4, 3, 2, 1): 1 / 24, (1, 1, 1, 1): -0.0}, True),
        ({(1, 2, 3, 4): 1 / 24, (1, 1, 2, 2): 0.01}, False),
        ({(1, 2, 3, 4): 1 / 12}, False),
    ],
)
def test_is_berwald_moor_is_stored_at_construction(components, expected):
    G = QuarticTensor(components)
    assert G.is_berwald_moor is expected and G._is_berwald_moor is expected


def _dense_jet_tables(s, gijk1):
    """t3 and t4 from the dense jet: value, gradient and Hessian of g_ij as
    [x,i,j], [x,i,j,k] and [x,i,j,k,n] by the product and chain rules over
    whole arrays, then the sorted representative of every index."""

    def mul(a, b):
        (av, ad, ah), (bv, bd, bh) = a, b
        cross = ad[..., :, None] * bd[..., None, :]
        hess = (av[..., None, None] * bh + bv[..., None, None] * ah) + (cross + cross.swapaxes(-1, -2))
        return av * bv, av[..., None] * bd + bv[..., None] * ad, hess

    def chain(a, f0, f1, f2):
        _, ad, ah = a
        hess = f1[..., None, None] * ah + f2[..., None, None] * (ad[..., :, None] * ad[..., None, :])
        return f0, f1[..., None] * ad, hess

    g = s.g1111[:, None, None]
    g_jet = (g, s.gi111[:, None, None, :], s.gij11[:, None, None, :, :])
    pi_jet = (s.gi111[:, :, None], s.gij11[:, :, None, :], gijk1[:, :, None, :, :])
    pj_jet = (s.gi111[:, None, :], s.gij11[:, None, :, :], gijk1[:, None, :, :, :])
    r = np.sqrt(g)
    inv_2g = chain(g_jet, 0.5 / g, -0.5 / (g * g), 1.0 / (g * g * g))
    inv_4sq = chain(g_jet, 0.25 / r, -0.125 / (r * g), 0.1875 / (r * g * g))
    qv, qd, qh = mul(mul(pi_jet, pj_jet), inv_2g)
    _, gd, gh = mul((s.gij11 - qv, gijk1 - qd, s.gijkl - qh), inv_4sq)
    canon = [np.sort(np.indices((4,) * k).reshape(k, -1), axis=0) for k in (3, 4)]
    return gd[(slice(None), *canon[0])].reshape(gd.shape), gh[(slice(None), *canon[1])].reshape(gh.shape)


def _einsum_tables(geo, t4, magnitude=False):
    """Every connection- and full-stage table of the bundle by its np.einsum
    spec, each from the bundle's own inputs to it, the curvatures by their
    defining formulas over dC, which reads t4.  With magnitude, every
    operand is replaced by its absolute value and every difference by a sum,
    so each table bounds the terms its sums add, the scale of its rounding
    error (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1)."""
    f, m = (np.abs, 1.0) if magnitude else (np.asarray, -1.0)  # m: the sign of a subtracted term
    g_up, t3, t4, c, l, kappa = (f(v) for v in (geo.g_up, geo.t3, t4, geo.c, geo.l, geo.kappa))
    k3 = (kappa / 3.0)[:, None, None, None]
    k3_5 = k3[..., None]
    dgu = m * np.einsum("xia,xabn,xbm->ximn", g_up, t3, g_up)
    dc = 0.5 * (np.einsum("ximn,xjmk->xijkn", dgu, t3) + np.einsum("xim,xjmkn->xijkn", g_up, t4))
    dl = k3_5 * dc
    x = np.einsum("xmij,xlmk->xlijk", c, c) + dc
    s_curv = x + m * x.swapaxes(3, 4)
    x = k3_5 * dl + np.einsum("xmij,xlmk->xlijk", l, l)
    r_curv = x + m * x.swapaxes(3, 4)
    cov = k3_5 * dc.swapaxes(3, 4) + np.einsum("xmik,xlmj->xlijk", c, l)
    cov = cov + m * np.einsum("xlmk,xmij->xlijk", c, l) + m * np.einsum("xlim,xmkj->xlijk", c, l)
    p_curv = dl + m * cov + np.einsum("xlim,xmjk->xlijk", c, m * k3 * c)
    r_ij, p_ricci, s_ricci = (np.einsum("xmijm->xij", f(v)) for v in (geo.r_curv, geo.p_curv, geo.s_curv))
    dg_dt = kappa[:, None, None] * np.einsum("xmjp,xp->xmj", t3, geo.y)
    return {
        "c": 0.5 * np.einsum("xim,xjmk->xijk", g_up, t3),
        "l": k3 * c,
        "gk": 0.5 * np.einsum("xkm,xmj->xkj", g_up, dg_dt),
        "p_mixed": m * l.transpose(0, 1, 3, 2),
        "p_vert": c,
        "r_curv": r_curv,
        "p_curv": p_curv,
        "s_curv": s_curv,
        "r_ij": r_ij,
        "p_ricci": p_ricci,
        "s_ricci": s_ricci,
        "s_raised": np.einsum("xmr,xri->xmi", g_up, s_ricci),
        "sc": np.einsum("xpq,xpq->x", g_up, r_ij) + f(geo.h11) * np.einsum("xpq,xpq->x", g_up, s_ricci),
    }


# the stacked matmuls sum in another order than np.einsum: every table stays
# within this many units in the last place of the largest magnitude its
# sums add
_EINSUM_ULPS = 4


@pytest.mark.parametrize("G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER], ids=["berwald-moor", "custom-other"])
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_stage_tables_match_their_einsum_specs(G, size, rng):
    """The packed jets' t3 and t4 are the dense jet's bit for bit, and every
    other connection- and full-stage table is its np.einsum spec within a
    few ulps of the largest magnitude its sums add: S, R and P against their
    defining formulas over dC, which the kernel forms from C alone."""
    ys = cone_points(rng, size)
    ts = rng.uniform(-1, 1, size)
    for geo in batches(G, EXP, ts, ys):
        t3, t4 = _dense_jet_tables(geo.scalars, third_derivative(G, geo.y))
        np.testing.assert_array_equal(geo.t3, t3)
        np.testing.assert_array_equal(_second_order_t4(geo), t4)
        scale = _einsum_tables(geo, t4, magnitude=True)
        for name, want in _einsum_tables(geo, t4).items():
            got = getattr(geo, name)
            assert got.shape == want.shape, name
            assert np.abs(got - want).max() <= _EINSUM_ULPS * np.spacing(scale[name].max()), name


def _packed_jet(s, gijk1):
    """The packed jet with every operand gathered up front and every jet
    alive to the end, each product forming all four of its parts: the
    reference that the trimmed ``_metric_jet`` reproduces bit for bit, at
    second order, and whose first part its first order does."""

    def mul(a, b):
        av, ak, an, ah = a
        bv, bk, bn, bh = b
        return av * bv, av * bk + bv * ak, av * bn + bv * an, (av * bh + bv * ah) + (ak * bn + an * bk)

    def chain(a, f0, f1, f2):
        _, ak, an, ah = a
        return f0, f1 * ak, f1 * an, f1 * ah + f2 * (ak * an)

    n = len(s.g1111)
    k = kernel
    gi, gj, gk, gn = s.gi111.T[np.stack([k._I, k._J, k._K, k._N])]
    gkn, gik, gin, gjk, gjn, gij = s.gij11.reshape(n, -1).T[np.stack([k._KN, k._IK, k._IN, k._JK, k._JN, k._IJ])]
    gikn, gjkn, gijk, gijn = gijk1.reshape(n, -1).T[np.stack([k._IKN, k._JKN, k._IJK, k._IJN])]
    gijkn = s.gijkl.reshape(n, -1).T[k._IJKN]
    g = s.g1111
    g_jet = (g, gk, gn, gkn)
    r = np.sqrt(g)
    inv_2g = chain(g_jet, 0.5 / g, -0.5 / (g * g), 1.0 / (g * g * g))
    inv_4sq = chain(g_jet, 0.25 / r, -0.125 / (r * g), 0.1875 / (r * g * g))
    qv, qk, qn, qh = mul(mul((gi, gik, gin, gikn), (gj, gjk, gjn, gjkn)), inv_2g)
    _, dk, _, dkn = mul((gij - qv, gijk - qk, gijn - qn, gijkn - qh), inv_4sq)
    return dk, dkn


@pytest.mark.parametrize(
    "G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER, DENSE], ids=["berwald-moor", "custom-other", "dense"]
)
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_trimmed_jet_is_the_packed_jet_bit_for_bit(G, size, rng):
    """The second-order jet is the packed jet bit for bit, and the
    first-order jet is its d/dy^k part at the first-order entries bit for
    bit: each sorted triple and its swap, read at n = 3, the first 30 of the
    50 entries."""
    assert kernel._ENTRIES[:30] == kernel._FIRST_ORDER
    assert sorted({e[:3] for e in kernel._FIRST_ORDER}) == sorted(
        {(a, b, c) for a, b, c in kernel._TRIPLES} | {(a, c, b) for a, b, c in kernel._TRIPLES}
    )
    ys = cone_points(rng, size)
    s, gijk1 = g_hierarchy(G, ys), third_derivative(G, ys)
    want = _packed_jet(s, gijk1)
    for order, entries in ((1, 30), (2, 50)):
        got = kernel._metric_jet(s, gijk1, order)
        assert len(got) == order
        for part, ref, name in zip(got, want, ("d", "h")):
            _assert_bits_equal(part, ref[:entries], f"{name} at order {order}")


def test_the_jet_no_longer_sets_the_kernels_peak(rng):
    """Over one CHUNK, the connection stage (the first-order jet and the
    tables it feeds) allocates less at its peak than the exact divergence of
    the raised Ricci table (the second-order jet and dC), and that less than
    the full stage."""
    (m,) = metric_batches(CUSTOM_OTHER, EXP, rng.uniform(-1, 1, CHUNK), cone_points(rng, CHUNK))
    cn = kernel._connection(m)
    geo = kernel._geometry(cn)
    kernel.raised_ricci_divergence(geo)
    second = traced_peak(kernel.raised_ricci_divergence, geo)
    assert traced_peak(kernel._connection, m) < second < traced_peak(kernel._geometry, cn)


def _assert_point_equal(batch, n, one):
    for f in fields(batch):
        a, b = getattr(batch, f.name), getattr(one, f.name)
        if isinstance(a, GScalars):
            _assert_point_equal(a, n, b)
        elif isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a[n], b[0], err_msg=f.name)


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_point_is_bit_identical_alone_and_in_a_batch(size, rng):
    ys = cone_points(rng, size, lo=0.7, hi=1.4)
    ts = rng.uniform(-1, 1, size)
    batch = geometry(CUSTOM_OTHER, EXP, ts, ys)
    assert len(batch) == size
    for n in sorted({0, size // 2, size - 1}):
        _assert_point_equal(batch, n, geometry(CUSTOM_OTHER, EXP, ts[n : n + 1], ys[n : n + 1]))


def _assert_stage_is_the_full_bundle(stage, cls, G, tm, size, rng):
    """Every field of the stage's bundles is bit-identical to the full
    bundle's: the metric stage's batches hold up to METRIC_CHUNK points, the
    deeper stages' chunks up to CHUNK.  A metric bundle holds no G_ijk1 and
    no bundle a second derivative of g, so no stage keeps what only a deeper
    stage or the exact divergence reads."""
    ys = cone_points(rng, size, lo=0.7, hi=1.4)
    ts = rng.uniform(-1, 1, size)
    parts = list(stage(G, tm, ts, ys))
    full = list(batches(G, tm, ts, ys))
    step = METRIC_CHUNK if cls is Metric else CHUNK
    assert [len(b) for b in parts] == [len(ys[lo : lo + step]) for lo in range(0, size, step)]
    for b in parts:
        assert type(b) is cls and not hasattr(b, "t4") and not hasattr(b.scalars, "gijk1")
        for f in fields(cls):
            a = getattr(b, f.name)
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable, f.name
            elif not isinstance(a, GScalars):
                assert a is getattr(full[0], f.name), f.name
    got, want = kernel._concat(parts), kernel._concat(full)
    for f in fields(cls):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, GScalars):
            for s in fields(GScalars):
                np.testing.assert_array_equal(getattr(a, s.name), getattr(b, s.name), err_msg=s.name)
        elif isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)


@pytest.mark.parametrize("G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER], ids=["berwald-moor", "custom-other"])
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_metric_stage_is_bit_identical_to_the_full_bundle(G, size, rng):
    _assert_stage_is_the_full_bundle(metric_batches, Metric, G, EXP, size, rng)


@pytest.mark.parametrize("G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER], ids=["berwald-moor", "custom-other"])
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_connection_stage_is_bit_identical_to_the_full_bundle(G, size, rng):
    """The first-order jet's t3, C, L and G^k_j1 are the full chain's
    second-order jet's, bit for bit."""
    _assert_stage_is_the_full_bundle(connection_batches, Connection, G, EXP, size, rng)


@pytest.mark.parametrize(
    "G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER, DENSE], ids=["berwald-moor", "custom-other", "dense"]
)
@pytest.mark.parametrize("tm", [EXP, POWER], ids=lambda tm: tm.family)
@pytest.mark.parametrize(
    "stage, cls", [(metric_batches, Metric), (connection_batches, Connection)], ids=["metric", "connection"]
)
def test_stages_are_bit_identical_across_both_batch_sizes(stage, cls, G, tm, rng):
    """Both shallower stages hold the full bundle's bits over a second metric
    batch of CHUNK + 1 points, so their bundles cross both CHUNK and
    METRIC_CHUNK, on every tensor and with a kappa that varies with t."""
    _assert_stage_is_the_full_bundle(stage, cls, G, tm, METRIC_CHUNK + CHUNK + 1, rng)


def test_each_chain_builds_only_the_orders_it_reads(rng, monkeypatch):
    """The metric chain computes no G_ijk1; the connection and full chains
    compute it and run the first-order jet once per chunk, and no bundle
    keeps a second derivative.  The second-order jet runs only in the exact
    divergence of the raised Ricci table, once per chunk of the conservation
    readers on a custom tensor (its eval included); no verify group runs it,
    on any tensor, nor does a Berwald-Moor eval."""
    calls = []
    real_third, real_jet = kernel.third_derivative, kernel._metric_jet
    monkeypatch.setattr(kernel, "third_derivative", lambda G, y: calls.append("gijk1") or real_third(G, y))
    monkeypatch.setattr(kernel, "_metric_jet", lambda s, g3, order: calls.append(order) or real_jet(s, g3, order))
    ys = cone_points(rng, CHUNK + 1)
    ts = rng.uniform(-1, 1, len(ys))
    chains = (
        (metric_batches, Metric, []),
        (connection_batches, Connection, ["gijk1", 1]),
        (batches, Geometry, ["gijk1", 1]),
    )
    for stage, cls, per_chunk in chains:
        calls.clear()
        parts = list(stage(DENSE, POWER, ts, ys))
        assert calls == per_chunk * len(parts) and len(parts) == (1 if cls is Metric else 2)
        for b in parts:
            assert type(b) is cls and not hasattr(b.scalars, "gijk1") and not hasattr(b, "t4")
    calls.clear()
    for geo in fieldtheory.conservation_batches(DENSE, POWER, ts, ys):
        conservation_residuals_of(geo, 1.5)
    assert calls == ["gijk1", 1, "gijk1", 2] * 2
    dense_ini = Path(__file__).resolve().parents[1] / "scripts" / "dense.ini"
    for argv, per_eval in (([], ["gijk1", 1]), ([f"--config={dense_ini}"], ["gijk1", 1, "gijk1", 2])):
        calls.clear()
        assert cli.main(["eval", "--t=0.3", "--y=1,2,3,4", *argv]) == 0
        assert calls == per_eval
    for G in (QuarticTensor.berwald_moor(), DENSE):
        calls.clear()
        checks.run_verify(RunConfig(tensor=G, time_metric=POWER, seed=5, samples=CHUNK + 6))
        assert 1 in calls and 2 not in calls


@pytest.mark.parametrize("stage", [connection_batches, batches], ids=["connection", "full"])
def test_the_first_order_jet_forms_no_second_derivative_factor(stage):
    """At y = 1e-30 (1, 1, 1, 1), G_1111 = 1e-120 and 1/G^3 overflows; the
    first-order jet never reads the chain rule's second-derivative factors,
    so neither stage forms them, and neither warns (the suite makes a
    RuntimeWarning an error)."""
    y = np.full((1, 4), 1e-30)
    (bundle,) = stage(QuarticTensor.berwald_moor(), EXP, np.zeros(1), y)
    assert np.isfinite(bundle.c).all()


@pytest.mark.parametrize(
    "G", [QuarticTensor.berwald_moor(), CUSTOM_OTHER, DENSE], ids=["berwald-moor", "custom-other", "dense"]
)
@pytest.mark.parametrize("size", [METRIC_CHUNK, METRIC_CHUNK + 1])
def test_points_are_bit_identical_across_the_metric_batch_boundary(G, size, rng):
    """Each stage gives a point the same bits in a batch of METRIC_CHUNK
    points or one more (a second metric batch of one point) as alone: at
    the ends of the first and second chunk slices, of the metric batch, and
    in the next one."""
    ys = cone_points(rng, size)
    ts = rng.uniform(-1, 1, size)
    picks = sorted({0, CHUNK - 1, CHUNK, METRIC_CHUNK - 1, size - 1})
    for stage in (metric_batches, connection_batches, batches):
        parts = list(stage(G, EXP, ts, ys))
        step = METRIC_CHUNK if stage is metric_batches else CHUNK
        assert [len(b) for b in parts] == [len(ys[lo : lo + step]) for lo in range(0, size, step)]
        batch = kernel._concat(parts)
        for n in picks:
            (one,) = stage(G, EXP, ts[n : n + 1], ys[n : n + 1])
            _assert_point_equal(batch, n, one)


def test_connection_stage_gets_c_contiguous_slices(rng, monkeypatch):
    """Each CHUNK slice of a metric batch that reaches the connection stage
    holds views of the metric bundle's arrays, C-contiguous, which the
    stacked matmuls need to round as over a whole batch; G_ijkl stays the
    zero-stride constant."""
    seen = []
    real = kernel._connection

    def connection(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(kernel, "_connection", connection)
    ys = cone_points(rng, METRIC_CHUNK + 1)
    list(connection_batches(DENSE, EXP, rng.uniform(-1, 1, len(ys)), ys))
    assert [len(m) for m in seen] == [CHUNK] * (METRIC_CHUNK // CHUNK) + [1]
    for m in seen[:-1]:
        arrays = {f.name: getattr(m, f.name) for f in fields(Metric) if isinstance(getattr(m, f.name), np.ndarray)}
        arrays.update({f.name: getattr(m.scalars, f.name) for f in fields(GScalars)})
        assert m.scalars.gijkl.strides[0] == 0
        del arrays["gijkl"]
        for name, a in arrays.items():
            assert a.flags.c_contiguous and not a.flags.owndata, name


_SKEWED = np.array([1e-2, 1e-2, 1e2, 1e2])  # det G_ij11 = -3 G_1111^2, tiny against max|G_ij11|^4


def _degenerate_at(bad, monkeypatch):
    """Make G_1111 - scriptG vanish at the point bad: the identity scriptG =
    (2/3) G_1111 of a nonsingular quartic keeps it away from zero otherwise."""
    real = kernel.g_hierarchy

    def hierarchy(G, y):
        s = real(G, y)
        hit = np.all(y == bad, axis=1)
        return replace(s, g_script=np.where(hit, s.g1111, s.g_script))

    monkeypatch.setattr(kernel, "g_hierarchy", hierarchy)


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.array([1.0, 2.0, -3.0, 4.0]), DomainError),
        (_SKEWED, SingularTensorError),
        (np.array([1.5, 2.5, 3.5, 4.5]), DegenerateDenominatorError),
        (np.empty((0, 4)), DomainError),
    ],
    ids=["non-cone", "singular", "degenerate", "empty"],
)
def test_both_stages_raise_the_same_typed_error_naming_the_point(bad, error, rng, monkeypatch):
    """The full, connection and metric stages and the one-bundle
    ``geometry`` reject a bad point, or a batch of no points, alike."""
    bm = QuarticTensor.berwald_moor()
    if error is DegenerateDenominatorError:
        _degenerate_at(bad, monkeypatch)
    if bad.ndim == 2:
        ys = bad
    else:
        ys = cone_points(rng, CHUNK + 8)
        ys[CHUNK + 3] = bad  # in the second chunk
    messages = []
    for stage in (batches, connection_batches, metric_batches, geometry):
        with pytest.raises(error) as exc:
            list(stage(bm, EXP, np.zeros(len(ys)), ys))
        messages.append(str(exc.value))
    assert messages[1:] == messages[:-1]
    assert (str(bad) if bad.ndim == 1 else "empty batch") in messages[0]


def _deeper_stage_built(*args):
    raise RuntimeError("a deeper stage was built")


def test_a_metric_batch_checks_singular_before_degenerate(rng, monkeypatch):
    """Each guard of the metric stage checks a whole metric batch before the
    next guard runs: a singular point raises before a degenerate one in an
    earlier chunk of the same metric batch, and a degenerate point before a
    singular one in a later metric batch.  The error names the bad point."""
    bm = QuarticTensor.berwald_moor()
    degenerate = np.array([1.5, 2.5, 3.5, 4.5])
    _degenerate_at(degenerate, monkeypatch)
    for singular_at, error, bad in (
        (CHUNK + 3, SingularTensorError, _SKEWED),
        (METRIC_CHUNK + 3, DegenerateDenominatorError, degenerate),
    ):
        ys = cone_points(rng, singular_at + 5)
        ys[5] = degenerate
        ys[singular_at] = _SKEWED
        for stage in (batches, connection_batches, metric_batches, geometry):
            with pytest.raises(error) as exc:
                list(stage(bm, EXP, np.zeros(len(ys)), ys))
            assert str(bad) in str(exc.value)


def test_metric_readers_never_build_the_derivative_tables(monkeypatch):
    """Readers build no stage deeper than they read, and give what the full
    bundle gives.  With the connection stage broken, metric_pair,
    grav_potential, einstein_blocks and the gscalars, metric_taylor and
    einstein verify groups still run on Berwald-Moor; with the full stage
    broken, cartan_connection, em_form, conservation_residuals and the
    connection, cartan, field_misc, conservation and decay verify groups
    still run; with the second-order jet broken, the full stage, eval and
    every verify group still run, and only a custom tensor's conservation
    residuals fail."""
    bm, k = QuarticTensor.berwald_moor(), 1.5
    p = JetPoint.from_y([1.0, 2.0, 3.0, 4.0], t=0.3)
    full = point_geometry(bm, EXP, p)
    potential = take(grav_potential_of(full), 0)
    cfg = RunConfig(time_metric=EXP, seed=5, samples=2 * CHUNK + 6)

    def entries(result):
        return [getattr(result, f.name) for f in fields(result) if f.name != "zero_blocks"]

    def metric_readers():
        mp, pot = metric_pair(bm, EXP, p), grav_potential(bm, EXP, p)
        return [mp.g_lo, mp.g_up, pot.tt_block, pot.xx_block, pot.yy_block, *entries(einstein_blocks(bm, EXP, p, k))]

    def connection_readers():
        cc = cartan_connection(bm, EXP, p)
        res = conservation_residuals(bm, EXP, p, k)
        return [cc.kappa, cc.gk, cc.l, cc.c, em_form(bm, EXP, p).f, *entries(res)]

    def full_readers():
        geo = point_geometry(bm, EXP, p)
        tables = (geo.r_curv, geo.p_curv, geo.s_curv, geo.r_ij, geo.p_ricci, geo.s_ricci, geo.s_raised, geo.sc)
        return [*tables, jsondoc.dumps(cli._eval_point(cfg, p))]

    real_jet = kernel._metric_jet

    def first_order_jet(s, gijk1, order):
        return real_jet(s, gijk1, order) if order < 2 else _deeper_stage_built()

    # (kernel function broken, its broken form, verify groups, the stage
    # reader those groups use, per-point readers, and the full bundle's
    # values for them)
    cases = [
        (
            "_connection",
            _deeper_stage_built,
            ("gscalars", "metric_taylor", "einstein"),
            "metric_batches",
            metric_readers,
            [
                *(full.g_lo[0], full.g_up[0], potential.tt_block, potential.xx_block, potential.yy_block),
                *entries(take(einstein_blocks_of(full, k), 0)),
            ],
        ),
        (
            "_geometry",
            _deeper_stage_built,
            ("connection", "cartan", "field_misc", "conservation", "decay"),
            "connection_batches",
            connection_readers,
            [
                *(full.kappa[0], full.gk[0], full.l[0], full.c[0], take(em_form_of(full), 0).f),
                *entries(take(conservation_residuals_of(full, k), 0)),
            ],
        ),
        (
            "_metric_jet",
            first_order_jet,
            tuple(g.name for g in checks._CATALOG),
            "batches",
            full_readers,
            full_readers(),
        ),
    ]
    by_name = {g.name: g for g in checks._CATALOG}
    for broken, breakage, names, stage, readers, values in cases:
        with monkeypatch.context() as patch:
            patch.setattr(checks, "_CATALOG", tuple(by_name[name] for name in names))
            with monkeypatch.context() as full_path:
                # the same groups over full bundles, as they ran before the split
                for module in (checks, fieldtheory):
                    full_path.setattr(module, stage, batches)
                expected = [r.to_dict() for r in checks.run_verify(cfg).reports]
            patch.setattr(kernel, broken, breakage)
            with pytest.raises(RuntimeError):  # a custom tensor's conservation residuals read every stage
                conservation_residuals(CUSTOM_OTHER, EXP, p, k)
            for got, want in zip(readers(), values, strict=True):
                np.testing.assert_array_equal(got, want, err_msg=broken)
            assert [r.to_dict() for r in checks.run_verify(cfg).reports] == expected


def test_custom_einstein_reads_the_full_stage(monkeypatch):
    """A custom tensor's Einstein blocks read the honest contraction
    S^m_i(j)(m), so its einstein group builds the full stage and reports
    what it reports over full bundles alone."""
    cfg = RunConfig(tensor=CUSTOM_OTHER, time_metric=EXP, seed=5, samples=2 * CHUNK + 6)
    monkeypatch.setattr(checks, "_CATALOG", tuple(g for g in checks._CATALOG if g.name == "einstein"))
    with monkeypatch.context() as full_path:
        full_path.setattr(fieldtheory, "metric_batches", batches)
        expected = [r.to_dict() for r in checks.run_verify(cfg).reports]
    assert [r.to_dict() for r in checks.run_verify(cfg).reports] == expected
    monkeypatch.setattr(kernel, "_geometry", _deeper_stage_built)
    with pytest.raises(RuntimeError):
        checks.run_verify(cfg)


def test_take_and_concat_keep_the_constant_fourth_level(rng):
    """G_ijkl is one zero-stride view of 24 G_ijkl over a chunk; a point
    sliced from a chunk or from joined chunks holds 24 G_ijkl."""
    ys = cone_points(rng, CHUNK + 5)
    parts = list(metric_batches(CUSTOM_OTHER, EXP, np.zeros(len(ys)), ys))
    assert parts[0].scalars.gijkl.strides[0] == 0
    joined = kernel._concat(parts)
    assert joined.scalars.gijkl.shape == (len(ys),) + (4,) * 4
    for bundle in (*parts, joined, geometry(CUSTOM_OTHER, EXP, np.zeros(len(ys)), ys)):
        for n in (0, len(bundle) - 1):
            np.testing.assert_array_equal(take(bundle, n).scalars.gijkl, 24.0 * CUSTOM_OTHER.dense)


@pytest.mark.parametrize(
    "tm",
    [TimeMetric.constant(1.7), TimeMetric.exponential(0.8, 1.3), TimeMetric.power(-1.3)],
    ids=lambda tm: tm.family,
)
def test_time_axis_is_the_per_point_time_metric(tm, rng):
    ts = np.concatenate([rng.uniform(-3, 3, CHUNK + 1), [0.0, 0.0, -1.5e-05]])
    ax = tm.eval(ts)
    assert len(ax) == len(ts)
    for n, t in enumerate(ts.tolist()):
        v, ct = tm.eval(t), christoffel_time(tm, t)
        per_point = (t, v.h11, v.h11_inv, v.dh11, v.d2h11, ct.kappa, ct.dkappa)
        assert tuple(getattr(ax, f.name)[n] for f in fields(TimeAxis)) == per_point
    # a bundle's time-axis fields are the evaluator's, whatever the chunking
    ys = cone_points(rng, len(ts), lo=0.7, hi=1.4)
    for m in metric_batches(QuarticTensor.berwald_moor(), tm, ts, ys):
        ref = tm.eval(m.t)
        for f in fields(TimeAxis):
            np.testing.assert_array_equal(getattr(m, f.name), getattr(ref, f.name), err_msg=f.name)


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


def test_swap_entries_are_computed_not_copied(rng):
    """The packed jet of either order computes each swap entry on its own
    index order, so over a chunk most swap entries differ from their
    representative in the last bits, and each half of the mixed-partial
    guard compares two computations."""
    ys = cone_points(rng, CHUNK)
    s, gijk1 = g_hierarchy(CUSTOM_OTHER, ys), third_derivative(CUSTOM_OTHER, ys)
    for order in (1, 2):
        jet = kernel._metric_jet(s, gijk1, order)
        assert len(jet) == order
        for packed, rep, swap in zip(jet, (kernel._REP3, kernel._REP4), (kernel._SWAP3, kernel._SWAP4)):
            own = swap != rep
            assert (packed[swap[own]] != packed[rep[own]]).mean() > 0.5


def test_guard_survives_optimize_flag():
    """The mixed-partial guard rejects a packed jet with a skewed swap entry:
    in t3 directly, in t3 through the connection chain's first-order jet,
    and in t4 through the second-order jet of the exact divergence of the
    raised Ricci table; and the metric stage's inverse guard a corrupted
    G^jk11; each with a typed error even under python -O, which strips
    assert statements."""
    # (0, 2, 1, 3) is the swap entry of the sorted triple (0, 1, 2) and of the
    # sorted quadruple (0, 1, 2, 3), and no representative
    swap = kernel._ENTRIES.index((0, 2, 1, 3))
    assert swap == kernel._SWAP3[kernel._TRIPLES.index((0, 1, 2))]
    assert swap == kernel._SWAP4[kernel._QUADS.index((0, 1, 2, 3))]
    assert swap not in kernel._REP3 and swap not in kernel._REP4
    code = f"""
import traceback
from dataclasses import replace

import numpy as np
import jetbm.geometry as kernel
from jetbm import InvariantError, QuarticTensor, TimeMetric
from jetbm.geometry import _guard_mixed_partials, connection_batches, geometry, metric_batches

if __debug__:
    raise SystemExit("not running under -O")
G, tm = QuarticTensor.berwald_moor(), TimeMetric.constant(1.0)
geo = geometry(G, tm, [0.0], [[1.0, 2.0, 3.0, 4.0]])
jet = kernel._metric_jet(geo.scalars, kernel.third_derivative(G, geo.y), 2)
jet[0][{swap}] += 1e-3
try:
    _guard_mixed_partials(jet, geo.y)
except InvariantError as exc:
    print("InvariantError:", exc)
real_jet = kernel._metric_jet

def skewed_jet(s, gijk1, order):
    jet = real_jet(s, gijk1, order)
    print("order", order)
    jet[-1][{swap}] += 1e-3
    return jet

kernel._metric_jet = skewed_jet
for run in (lambda: list(connection_batches(G, tm, geo.t, geo.y)), lambda: kernel.raised_ricci_divergence(geo)):
    try:
        run()
    except InvariantError as exc:
        # the last frame is the refusal helper, the one below it the guard
        print("InvariantError:", traceback.extract_tb(exc.__traceback__)[-2].name, exc)
kernel._metric_jet = real_jet
real = kernel.g_hierarchy
kernel.g_hierarchy = lambda G, y: replace(real(G, y), gij11_inv=1.01 * real(G, y).gij11_inv)
try:
    list(metric_batches(G, tm, [0.0], [[1.0, 2.0, 3.0, 4.0]]))
except InvariantError as exc:
    print("InvariantError:", exc)
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("InvariantError: mixed-partial consistency")
    # the connection chain skews t3's half, the divergence t4's
    for n, order in ((1, 1), (3, 2)):
        assert lines[n] == f"order {order}"
        assert lines[n + 1].startswith("InvariantError: _guard_mixed_partials mixed-partial consistency")
    assert lines[5].startswith("InvariantError: inverse-metric formula disagrees with direct inversion")


def test_every_guard_counts_a_nan_as_a_failure():
    """A NaN fed into each consistency guard raises InvariantError naming its
    point, and a NaN scriptG the degenerate-denominator guard
    DegenerateDenominatorError, under python -O as without it: a NaN error
    is within no tolerance."""
    code = """
from dataclasses import replace

import numpy as np
import jetbm.geometry as kernel
from jetbm import DegenerateDenominatorError, InvariantError, QuarticTensor, TimeMetric

if __debug__:
    raise SystemExit("not running under -O")
G, tm = QuarticTensor.berwald_moor(), TimeMetric.exponential(1.0, 1.0)
t, y = np.array([0.1, 0.2]), np.array([[1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5]])
geo = kernel.geometry(G, tm, t, y)
jet = kernel._metric_jet(geo.scalars, kernel.third_derivative(G, y), 2)


def nan_at_1(a, axis=0):
    a = np.array(a)
    a[(slice(None),) * axis + (1,)] = np.nan
    return a


real = kernel.g_hierarchy
cases = {
    "mixed-partials-t3": lambda: kernel._guard_mixed_partials((nan_at_1(jet[0], 1), jet[1]), y),
    "mixed-partials-t4": lambda: kernel._guard_mixed_partials((jet[0], nan_at_1(jet[1], 1)), y),
    "inverse": lambda: kernel._guard_inverse(nan_at_1(geo.g_up), geo.g_up, y),
    "torsions-p": lambda: kernel._guard_torsions(nan_at_1(geo.p_mixed), geo.c, geo.r_time, geo.kappa, geo.dkappa, y),
    "torsions-r": lambda: kernel._guard_torsions(geo.p_mixed, geo.c, nan_at_1(geo.r_time), geo.kappa, geo.dkappa, y),
    "degenerate": lambda: list(kernel.metric_batches(G, tm, t, y)),
}
for name, call in cases.items():
    if name == "degenerate":
        kernel.g_hierarchy = lambda G, y: replace(real(G, y), g_script=nan_at_1(real(G, y).g_script))
    try:
        call()
        print(name, "passed")
    except (InvariantError, DegenerateDenominatorError) as exc:
        print(name, type(exc).__name__, f" at batch index 1, y={y[1]}" in str(exc))
"""
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        *(
            f"{name} InvariantError True"
            for name in (
                "mixed-partials-t3",
                "mixed-partials-t4",
                "inverse",
                "torsions-p",
                "torsions-r",
            )
        ),
        "degenerate DegenerateDenominatorError True",
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow before the guard raises
def test_the_kernel_refuses_values_that_overflow():
    """A point whose G-hierarchy overflows, or a t at which h_11 does, raises
    DomainError naming the first such y or t, through every chain and the
    field layer, instead of giving NaN or infinite tables."""
    bm = QuarticTensor.berwald_moor()
    ys = np.array([[1.0, 2.0, 3.0, 4.0], [1e100, 1e100, 1e100, 1e100], [1e90, 1.0, 1.0, 1.0]])
    for stage in (metric_batches, connection_batches, batches, geometry):
        with pytest.raises(DomainError, match=re.escape(f"the G-hierarchy is not finite at batch index 1, y={ys[1]}")):
            list(stage(bm, EXP, np.zeros(3), ys))
        with pytest.raises(DomainError, match=r"exponential time metric is not finite at batch index 1, t=1000\.0$"):
            list(stage(bm, EXP, [0.0, 1000.0, 2000.0], ys[[0, 0, 0]]))
    with pytest.raises(DomainError, match=r"exponential time metric is not finite, t=1000\.0$"):
        EXP.eval(1000.0)
    with pytest.raises(DomainError, match=r"at batch index 1, t=-1e\+200$"):
        TimeMetric.power(2.0).eval(np.array([0.0, -1e200]))
    with pytest.raises(DomainError, match=re.escape(f"the G-hierarchy is not finite, y={ys[1]}")):
        g_scalars(bm, ys[1])
    with pytest.raises(DomainError, match=r"at batch index 0, t=1000\.0$"):
        scalar_curvature_field(EXP, np.array([1000.0]), ys[:1])
