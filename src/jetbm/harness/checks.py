"""Verification-suite runner: the check catalog, seeded sampling, sweeps,
and report aggregation.

Each report verifies one identity (an oracle equivalence between the generic
pipeline and a closed form, or an internal identity).  Checks are organized
into groups; a group draws its points from a generator seeded by (seed, group
index) and emits its reports in a fixed order, so output is deterministic for
a fixed (config, seed) regardless of evaluation schedule.  The generic objects
of a group come from geometry bundles over its points, one CHUNK at a time,
checked with array operations; the Taylor2 oracles run batched over the same
chunks.  Each group builds the shallowest kernel stage that holds what it
reads:

* gscalars and metric_taylor read only g, g^-1 and the G-hierarchy, and
  build the metric stage (``metric_batches``);
* cartan and field_misc read only C, L, G^k_j1, g, y and the time axis, and
  build the connection stage (``connection_batches``);
* curvature, ricci, einstein, conservation and decay build the full stage
  (``batches``, ``geometry``);
* connection reads the time axis alone (``time_axis``) and builds the
  nonlinear connections and adapted frames over all its points at once;
  autodiff builds no bundle.

A group's point count is a fraction of the samples, except decay's, which is
its four fixed rays in one bundle.

Each verdict is declared once, with its tolerances and a ``bm_only`` flag:
a verdict that needs Berwald-Moor closed forms is reported as skipped for
custom tensors.  Three checks compare the honest Ricci contraction of the
vertical curvature against the closed table the field-theory layer is built
on; the diagonal of that table is exactly twice the contraction, so those
checks report the discrepancy and fail by design on a correct
implementation.

A sweep tabulates one field of the field layer over a grid; it evaluates the
library function of that field (``scalar_curvature_field``, ``xi_11``,
``closed_rhs_of`` or the G-hierarchy) one CHUNK of grid points at a time,
and has no formula of its own.
"""

import json
from dataclasses import dataclass
from math import factorial
from time import perf_counter
from typing import Callable

import numpy as np

from .. import connection, curvature, fieldtheory, metric
from ..errors import ConfigError
from ..geometry import CHUNK, batches, connection_batches, g_hierarchy, geometry, metric_batches, take, time_axis
from ..jetcore import DIM, Taylor2, VerificationReport, taylor2_seed
from .config import RunConfig

__all__ = ["SuiteResult", "run_verify", "sweep", "parse_grid", "SWEEP_FIELDS", "check_names"]


# --------------------------------------------------------------------------
# error accumulation


class _Err:
    """Track worst absolute and relative deviation over a stream of pairs."""

    __slots__ = ("abs", "rel")

    def __init__(self):
        self.abs = 0.0
        self.rel = 0.0

    def add(self, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        d = np.abs(a - b)
        self.abs = max(self.abs, float(d.max()))
        denom = np.maximum(np.abs(a), np.abs(b))
        nz = denom > 0.0
        if np.any(nz):
            self.rel = max(self.rel, float((d[nz] / denom[nz]).max()))

    def add_residual(self, r):
        """Residual against an exact-zero target (absolute only)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        self.abs = max(self.abs, float(np.abs(r).max()))


@dataclass(frozen=True)
class _Verdict:
    """One report-to-be: name, accumulated errors, tolerances, and whether it
    needs Berwald-Moor closed forms (then it is skipped for custom tensors)."""

    name: str
    err: _Err
    abs_tol: float | None = None
    rel_tol: float | None = None
    bm_only: bool = False


def _points(cfg: RunConfig, rng: np.random.Generator, n: int):
    """Seeded draws: y log-uniform on [y_min, y_max]^4, t uniform."""
    y = np.exp(rng.uniform(np.log(cfg.y_min), np.log(cfg.y_max), size=(n, DIM)))
    t = rng.uniform(cfg.t_min, cfg.t_max, size=n)
    return t, y


def _multiplicity(quad) -> int:
    counts = {}
    for i in quad:
        counts[i] = counts.get(i, 0) + 1
    m = factorial(4)
    for c in counts.values():
        m //= factorial(c)
    return m


def _g1111_taylor2(G, seeds) -> Taylor2:
    """G_1111(y) over Taylor2 seeds, from the stored independent components."""
    total = Taylor2(0.0)
    for quad, val in G.components.items():
        if val == 0.0:
            continue
        term = seeds[quad[0] - 1] * seeds[quad[1] - 1] * seeds[quad[2] - 1] * seeds[quad[3] - 1]
        total = total + term * (val * _multiplicity(quad))
    return total


# --------------------------------------------------------------------------
# check groups; each returns a list of _Verdict in fixed order


def _grp_gscalars(cfg, rng, n):
    oracle = _Err()
    inverse = _Err()
    euler = _Err()
    det = _Err()
    script = _Err()
    raised = _Err()
    inv_closed = _Err()
    t, ys = _points(cfg, rng, n)
    for m in metric_batches(cfg.tensor, cfg.time_metric, t, ys):
        s, y = m.scalars, m.y
        euler.add(np.einsum("xi,xi->x", s.gi111, y), 4.0 * s.g1111)
        euler.add(np.einsum("xij,xj->xi", s.gij11, y), 3.0 * s.gi111)
        euler.add(np.einsum("xi,xij,xj->x", y, s.gij11, y), 12.0 * s.g1111)
        inverse.add_residual(m.g_lo @ m.g_up - np.eye(DIM))
        if cfg.tensor.is_berwald_moor:
            cl = metric.bm_metric_closed(y)
            oracle.add(m.g_lo, cl.g_lo)
            oracle.add(m.g_up, cl.g_up)
            det.add(s.det_gij11, -3.0 * s.g1111**2)
            script.add(s.g_script, (2.0 / 3.0) * s.g1111)
            raised.add(s.gj_up, y / 3.0)
            inv_closed.add(s.gij11_inv, (1.0 - 3.0 * np.eye(DIM)) * y[:, :, None] * y[:, None, :] / (3.0 * s.g1111[:, None, None]))
    return [
        _Verdict("metric/closed-form-oracle", oracle, rel_tol=1e-10, bm_only=True),
        _Verdict("metric/inverse-pair", inverse, abs_tol=1e-10),
        _Verdict("gscalars/euler-identities", euler, rel_tol=1e-12),
        _Verdict("gscalars/determinant-closed", det, rel_tol=1e-12, bm_only=True),
        _Verdict("gscalars/script-scalar-closed", script, rel_tol=1e-12, bm_only=True),
        _Verdict("gscalars/raised-vector-closed", raised, rel_tol=1e-12, bm_only=True),
        _Verdict("gscalars/inverse-closed-form", inv_closed, abs_tol=1e-10, rel_tol=1e-12, bm_only=True),
    ]


def _grp_metric_taylor(cfg, rng, n):
    """g from the energy-function Hessian, and 0-homogeneity of g in y."""
    hess = _Err()
    homog = _Err()
    t, ys = _points(cfg, rng, n)
    G, tm = cfg.tensor, cfg.time_metric
    # the scaled rays are chunked like the base points, so chunk k of each
    # holds the same points
    scaled = [metric_batches(G, tm, t, lam * ys) for lam in (0.5, 2.0, 7.0)]
    for m, *rays in zip(metric_batches(G, tm, t, ys), *scaled):
        f2 = _g1111_taylor2(G, taylor2_seed(m.y)).sqrt() * m.h11_inv
        hess.add(0.5 * m.h11[:, None, None] * f2.hess, m.g_lo)
        for ray in rays:
            homog.add(ray.g_lo, m.g_lo)
    return [
        _Verdict("metric/hessian-of-energy", hess, rel_tol=1e-9),
        _Verdict("metric/zero-homogeneity", homog, rel_tol=1e-12),
    ]


def _grp_connection(cfg, rng, n):
    fd = _Err()
    duality = _Err()
    t, ys = _points(cfg, rng, n)
    h = cfg.fd_step
    tm = cfg.time_metric
    ax = time_axis(tm, t)
    fd.add(ax.dkappa, (time_axis(tm, t + h).kappa - time_axis(tm, t - h).kappa) / (2.0 * h))
    for nlc in (connection.canonical_nlc(ax.kappa, ys), connection.apriori_nlc(ax.kappa, ys)):
        F = connection.adapted_frame(nlc)
        C = connection.adapted_coframe(nlc)
        duality.add_residual(F @ C.swapaxes(1, 2) - np.eye(1 + 2 * DIM))
    return [
        _Verdict("christoffel/fd-cross-check", fd, abs_tol=1e-8, rel_tol=1e-6),
        _Verdict("connection/cobasis-duality", duality, abs_tol=1e-10),
    ]


def _grp_cartan(cfg, rng, n):
    vert = _Err()
    hor = _Err()
    time_zero = _Err()
    sym = _Err()
    transv = _Err()
    trace = _Err()
    t, ys = _points(cfg, rng, n)
    for geo in connection_batches(cfg.tensor, cfg.time_metric, t, ys):
        time_zero.add_residual(geo.gk)
        sym.add_residual(geo.c - geo.c.transpose(0, 1, 3, 2))
        transv.add_residual(np.einsum("xijm,xm->xij", geo.c, geo.y))
        if cfg.tensor.is_berwald_moor:
            closed = connection._bm_c_closed(geo.y)
            vert.add(geo.c, closed)
            hor.add(geo.l, (geo.kappa / 3.0)[:, None, None, None] * closed)
            trace.add_residual(np.einsum("xmjm->xj", geo.c))
    return [
        _Verdict("cartan/vertical-oracle", vert, rel_tol=1e-9, bm_only=True),
        _Verdict("cartan/horizontal-oracle", hor, abs_tol=1e-12, rel_tol=1e-9, bm_only=True),
        _Verdict("cartan/time-component-zero", time_zero, abs_tol=1e-10),
        _Verdict("cartan/vertical-symmetry", sym, abs_tol=1e-12),
        _Verdict("cartan/vertical-y-transversality", transv, abs_tol=1e-10),
        _Verdict("cartan/vertical-trace", trace, abs_tol=1e-10, bm_only=True),
    ]


def _grp_curvature(cfg, rng, n):
    s_oracle = _Err()
    antisym = _Err()
    prop = _Err()
    tor_closed = _Err()
    t, ys = _points(cfg, rng, n)
    for geo in batches(cfg.tensor, cfg.time_metric, t, ys):
        k3 = (geo.kappa / 3.0)[:, None, None, None]
        s = geo.s_curv
        antisym.add_residual(s + s.swapaxes(3, 4))
        prop.add(geo.r_curv, (geo.kappa**2 / 9.0)[:, None, None, None, None] * s)
        prop.add(geo.p_curv, k3[..., None] * s)
        tor_closed.add(geo.p_vert, geo.c)
        tor_closed.add(geo.p_mixed, -k3 * geo.c)
        tor_closed.add(geo.r_time, ((geo.dkappa - geo.kappa**2) / 3.0)[:, None, None] * np.eye(DIM))
        if cfg.tensor.is_berwald_moor:
            closed = curvature.bm_s_closed(geo.y)
            scale = np.maximum(np.abs(closed).max(axis=(1, 2, 3, 4)), 1e-300)
            worst = float((np.abs(s - closed).max(axis=(1, 2, 3, 4)) / scale).max())
            s_oracle.add_residual(worst)
            s_oracle.rel = max(s_oracle.rel, worst)
    return [
        _Verdict("curvature/vertical-oracle", s_oracle, rel_tol=1e-9, bm_only=True),
        _Verdict("curvature/antisymmetry", antisym, abs_tol=1e-12),
        _Verdict("curvature/proportionality", prop, abs_tol=1e-12, rel_tol=1e-9),
        _Verdict("torsion/closed-forms", tor_closed, abs_tol=1e-12, rel_tol=1e-9),
    ]


_CONTRACTED_COEF = (2.0 - 8.0 * np.eye(DIM)) / 4.0  # g-raising of the honest contraction


def _grp_ricci(cfg, rng, n):
    closed_form = _Err()
    offdiag = _Err()
    diag = _Err()
    raised_field = _Err()
    curl = _Err()
    div_field = _Err()
    div_contr = _Err()
    sc_closed = _Err()
    sc_field = _Err()
    t, ys = _points(cfg, rng, n)
    on = np.eye(DIM, dtype=bool)
    if not cfg.tensor.is_berwald_moor:
        t, ys = t[:0], ys[:0]  # every report in this group is skipped for custom tensors
    for geo in batches(cfg.tensor, cfg.time_metric, t, ys):
        y, kappa = geo.y, geo.kappa
        closed_form.add(geo.s_ricci, curvature.bm_s_ricci_contracted(y))
        closed_form.add(geo.r_ij, (kappa**2 / 9.0)[:, None, None] * geo.s_ricci)
        closed_form.add(geo.p_ricci, (kappa / 3.0)[:, None, None] * geo.s_ricci)
        tbl = curvature.bm_s_ricci_field(y)
        offdiag.add(geo.s_ricci[:, ~on], tbl[:, ~on])
        diag.add(geo.s_ricci[:, on], tbl[:, on])
        mp_up = metric.bm_metric_closed(y).g_up
        raised_field.add(np.einsum("xmr,xri->xmi", mp_up, tbl), curvature.bm_s_raised_field(y))
        # the generic C equals the closed one (cartan/vertical-oracle), so the
        # orthogonality identity can contract against the cheap closed form
        curl.add_residual(np.einsum("xmr,xrim->xi", geo.s_raised, connection._bm_c_closed(y)))
        sq = np.sqrt(np.prod(y, axis=1))
        sc_closed.add(geo.sc, -(6.0 * geo.h11 + (2.0 / 3.0) * kappa**2) / sq)
        table, _ = fieldtheory.t2_raised_table(y)
        target = 3.0 / (sq[:, None] * y)
        div_field.add(fieldtheory.t2_divergence(table, fieldtheory.FIELD_COEF), target)
        div_contr.add(fieldtheory.t2_divergence(table, _CONTRACTED_COEF), target)
        sc_field.add(geo.sc, curvature.scalar_curvature_field(cfg.time_metric, geo.t, y))
    return [
        _Verdict("ricci/contraction-closed-form", closed_form, rel_tol=1e-10, bm_only=True),
        _Verdict("ricci/contraction-vs-field-offdiag", offdiag, rel_tol=1e-9, bm_only=True),
        _Verdict("ricci/contraction-vs-field-diag", diag, rel_tol=1e-9, bm_only=True),
        _Verdict("ricci/raised-field-closed", raised_field, rel_tol=1e-9, bm_only=True),
        _Verdict("ricci/curl-orthogonality", curl, abs_tol=1e-10, bm_only=True),
        _Verdict("ricci/divergence-field", div_field, rel_tol=1e-9, bm_only=True),
        _Verdict("ricci/divergence-contraction", div_contr, rel_tol=1e-9, bm_only=True),
        _Verdict("ricci/scalar-closed-form", sc_closed, rel_tol=1e-10, bm_only=True),
        _Verdict("ricci/scalar-vs-field", sc_field, rel_tol=1e-9, bm_only=True),
    ]


def _grp_einstein(cfg, rng, n):
    zeros = _Err()
    sym = _Err()
    raised = _Err()
    t, ys = _points(cfg, rng, n)
    for geo in batches(cfg.tensor, cfg.time_metric, t, ys):
        b = fieldtheory.einstein_blocks_of(geo, cfg.einstein_k)
        g_up = geo.g_up
        h11 = geo.h11[:, None, None]
        zeros.add_residual(0.0 if all(b.zero_blocks.values()) else 1.0)
        sym.add_residual(b.t_ij - b.t_ij.swapaxes(1, 2))
        sym.add_residual(b.t_yy - b.t_yy.swapaxes(1, 2))
        sym.add_residual(b.t_i_yj - b.t_yi_j)
        raised.add(b.raised_t11, geo.h11_inv * b.t_11)
        raised.add(b.raised_h, np.einsum("xmr,xri->xmi", g_up, b.t_ij))
        raised.add(b.raised_mixed_t, h11 * np.einsum("xmr,xri->xmi", g_up, b.t_yi_j))
        raised.add(b.raised_mixed_v, np.einsum("xmr,xri->xmi", g_up, b.t_i_yj))
        raised.add(b.raised_vv, h11 * np.einsum("xmr,xri->xmi", g_up, b.t_yy))
    return [
        _Verdict("einstein/zero-blocks", zeros, abs_tol=1e-12),
        _Verdict("einstein/block-symmetry", sym, abs_tol=1e-10),
        _Verdict("einstein/raised-cross-check", raised, abs_tol=1e-12, rel_tol=1e-9),
    ]


def _residual_norm(res):
    """Norm of (T1, Ti, Tyi) for one point or, over the last axis, a batch."""
    return np.sqrt(res.t1**2 + np.sum(res.ti**2, axis=-1) + np.sum(res.tyi**2, axis=-1))


def _grp_conservation(cfg, rng, n):
    closed = _Err()
    nonzero = _Err()
    t, ys = _points(cfg, rng, n)
    if not cfg.tensor.is_berwald_moor:
        t, ys = t[:0], ys[:0]  # both reports in this group are skipped for custom tensors
    for geo in batches(cfg.tensor, cfg.time_metric, t, ys):
        res = fieldtheory.conservation_residuals_of(geo, cfg.einstein_k)
        closed.add(res.t1, res.closed_t1)
        closed.add(res.ti, res.closed_ti)
        closed.add(res.tyi, res.closed_tyi)
        nonzero.add_residual(np.where(_residual_norm(res) > 0.0, 0.0, 1.0))
    return [
        _Verdict("conservation/closed-rhs", closed, rel_tol=1e-8, bm_only=True),
        _Verdict("conservation/residual-nonzero", nonzero, abs_tol=0.5, bm_only=True),
    ]


_DECAY_SCALES = (10.0, 100.0, 1000.0)


def _grp_decay(cfg, rng, n):
    """Computed residual norms along y = s*(1,1,1,1) decay at the rate the
    closed right-hand sides predict (asymptotically s^-2 when the time
    residual is active, s^-3 otherwise).  The points are the scaled rays and
    the base ray s = 1, whatever the sample count."""
    err = _Err()
    verdicts = [_Verdict("conservation/decay-rate", err, abs_tol=0.02, bm_only=True)]
    if not cfg.tensor.is_berwald_moor:
        return verdicts
    t_ref = 0.5 * (cfg.t_min + cfg.t_max)
    scales = _DECAY_SCALES
    ys = np.array(scales + (1.0,))[:, None] * np.ones(DIM)
    geo = geometry(cfg.tensor, cfg.time_metric, np.full(len(ys), t_ref), ys)
    res = fieldtheory.conservation_residuals_of(geo, cfg.einstein_k)
    *rays, base = (take(res, i) for i in range(len(ys)))
    measured = [_residual_norm(ray) for ray in rays]
    slope = (np.log(measured[2]) - np.log(measured[1])) / (np.log(scales[2]) - np.log(scales[1]))
    predicted = [
        float(
            np.sqrt(
                (base.closed_t1 / s**2) ** 2
                + np.sum((base.closed_ti / s**3) ** 2)
                + np.sum((base.closed_tyi / s**3) ** 2)
            )
        )
        for s in scales
    ]
    pred_slope = (np.log(predicted[2]) - np.log(predicted[1])) / (np.log(scales[2]) - np.log(scales[1]))
    err.add_residual(float(slope - pred_slope))
    return verdicts


def _grp_field_misc(cfg, rng, n):
    des = _Err()
    em = _Err()
    ts = np.linspace(cfg.t_min, cfg.t_max, max(n, 2))
    out = fieldtheory.des_check(cfg.time_metric, ts)
    violation = 1.0 if out.solvable else 0.0
    violation = max(violation, float(np.maximum(0.0, -out.r2).max()))
    des.add_residual(violation)
    t, ys = _points(cfg, rng, n)
    for geo in connection_batches(cfg.tensor, cfg.time_metric, t, ys):
        f = fieldtheory.em_form_of(geo).f
        em.add_residual(f)
        em.add_residual(f + f.swapaxes(1, 2))
    return [
        _Verdict("des/unsolvable", des, abs_tol=1e-15),
        _Verdict("em/two-form-zero", em, abs_tol=1e-10),
    ]


def _autodiff_case(fn_index, s, sqrt):
    """Compositions over +, -, *, /, sqrt; s holds Taylor2 seeds or floats."""
    s1, s2, s3, s4 = s
    if fn_index == 0:
        return sqrt(s1 * s2 * s3 * s4)
    if fn_index == 1:
        return (s1 + 2.0 * s2) * s3 / s4 - sqrt(s1 / s2)
    return (s1 * s1 * s2 - s3) / (s4 + 1.0) + sqrt(s2) * s3


def _fd_value(fn_index, y):
    """The composition in plain float arithmetic over the rows of y (N, 4)."""
    return _autodiff_case(fn_index, tuple(y.T), np.sqrt)


def _along(h, a):
    """Steps h[:, a] along coordinate a, zero along the others."""
    e = np.zeros_like(h)
    e[:, a] = h[:, a]
    return e


def _grp_autodiff(cfg, rng, n):
    """Taylor2 gradients/Hessians versus central finite differences
    (steps scaled per coordinate; relative error with a unit floor).
    FD samples run the same compositions in plain float arithmetic; both
    sides run batched over chunks of points."""
    worst = 0.0
    _, ys = _points(cfg, rng, n)
    for lo in range(0, n, CHUNK):
        y = ys[lo : lo + CHUNK]
        seeds = taylor2_seed(y)
        hg = 1e-6 * np.maximum(y, 1.0)
        hh = 1e-4 * np.maximum(y, 1.0)
        for fi in range(3):
            out = _autodiff_case(fi, seeds, lambda v: v.sqrt())
            f_scale = np.maximum(1.0, np.abs(out.value))

            def rel(exact, fd):
                return float((np.abs(exact - fd) / np.maximum(np.maximum(np.abs(exact), np.abs(fd)), f_scale)).max())

            for a in range(DIM):
                e = _along(hg, a)
                fd = (_fd_value(fi, y + e) - _fd_value(fi, y - e)) / (2 * hg[:, a])
                worst = max(worst, rel(out.grad[:, a], fd))
            for a in range(DIM):
                for b in range(a, DIM):
                    ea = _along(hh, a)
                    eb = _along(hh, b)
                    fd = (
                        _fd_value(fi, y + ea + eb)
                        - _fd_value(fi, y + ea - eb)
                        - _fd_value(fi, y - ea + eb)
                        + _fd_value(fi, y - ea - eb)
                    ) / (4 * hh[:, a] * hh[:, b])
                    worst = max(worst, rel(out.hess[:, a, b], fd))
    err = _Err()
    err.add_residual(worst)
    err.rel = worst
    return [_Verdict("autodiff/fd-soundness", err, abs_tol=1e-7, rel_tol=1e-5)]


# --------------------------------------------------------------------------
# catalog of groups


@dataclass(frozen=True)
class _Group:
    """A check group and its point count: a fraction of the samples, or a
    fixed count for a group whose points do not depend on them."""

    fn: Callable
    fraction: float = 1.0
    points: int | None = None

    def size(self, samples: int) -> int:
        return self.points if self.points is not None else max(1, round(self.fraction * samples))


def _groups() -> list[_Group]:
    return [
        _Group(_grp_gscalars, fraction=1.0),
        _Group(_grp_metric_taylor, fraction=0.5),
        _Group(_grp_connection, fraction=0.5),
        _Group(_grp_cartan, fraction=1.0),
        _Group(_grp_curvature, fraction=0.5),
        _Group(_grp_ricci, fraction=0.5),
        _Group(_grp_einstein, fraction=0.5),
        _Group(_grp_conservation, fraction=0.2),
        _Group(_grp_decay, points=len(_DECAY_SCALES) + 1),
        _Group(_grp_field_misc, fraction=0.2),
        _Group(_grp_autodiff, fraction=0.1),
    ]


def check_names() -> list[str]:
    """Catalog order of all report names (skipped or not)."""
    cfg = RunConfig(samples=1)
    names = []
    for idx, grp in enumerate(_groups()):
        rng = np.random.default_rng([0, idx])
        n = grp.size(1)
        names.extend(v.name for v in grp.fn(cfg, rng, n))
    return names


# --------------------------------------------------------------------------
# runner


@dataclass(frozen=True)
class SuiteResult:
    """Ordered reports, overall verdict, and the configuration that produced them."""

    reports: list[VerificationReport]
    overall_pass: bool
    config_echo: RunConfig

    def to_dict(self) -> dict:
        return {
            "overall_pass": self.overall_pass,
            "config": self.config_echo.to_dict(),
            "reports": [r.to_dict() for r in self.reports],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["check_name,samples,max_abs_err,max_rel_err,pass,seed,skipped"]
        for r in self.reports:
            abs_e = "" if np.isnan(r.max_abs_err) else repr(r.max_abs_err)
            rel_e = "" if np.isnan(r.max_rel_err) else repr(r.max_rel_err)
            lines.append(
                f"{r.check_name},{r.samples},{abs_e},{rel_e},{str(r.passed).lower()},{r.seed},{str(r.skipped).lower()}"
            )
        return "\n".join(lines) + "\n"


def run_verify(cfg: RunConfig, on_group: Callable[[str, int, float], None] | None = None) -> SuiteResult:
    """Run the full check catalog over seeded samples.

    Deterministic for fixed (config, seed); failures are reported, not
    raised.  Closed-form checks are skipped for custom tensors.  After each
    group, on_group (if given) receives the group's name, its point count
    and its wall time in seconds.
    """
    is_bm = cfg.tensor.is_berwald_moor
    reports: list[VerificationReport] = []
    for idx, grp in enumerate(_groups()):
        rng = np.random.default_rng([cfg.seed, idx])
        n = grp.size(cfg.samples)
        start = perf_counter()
        verdicts = grp.fn(cfg, rng, n)
        if on_group is not None:
            on_group(grp.fn.__name__.removeprefix("_grp_"), n, perf_counter() - start)
        for verdict in verdicts:
            if verdict.bm_only and not is_bm:
                reports.append(VerificationReport.skip(verdict.name, cfg.seed))
                continue
            reports.append(
                VerificationReport.from_errors(
                    verdict.name,
                    n,
                    verdict.err.abs,
                    verdict.err.rel,
                    cfg.seed,
                    abs_tol=verdict.abs_tol,
                    rel_tol=verdict.rel_tol,
                )
            )
    overall = all(r.passed for r in reports)
    return SuiteResult(reports=reports, overall_pass=overall, config_echo=cfg)


# --------------------------------------------------------------------------
# sweeps

SWEEP_FIELDS = ("Sc", "xi11", "T1", "Ti", "Tyi", "G1111")
_AXES = ("t", "s", "y1", "y2", "y3", "y4")


def parse_grid(spec: str) -> list[tuple[str, np.ndarray]]:
    """Parse 'axis=start:stop:count,...'; t is linearly spaced, y-like axes
    geometrically. Axes: t, s (ray scale on (1,1,1,1)), y1..y4."""
    axes = []
    seen = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid: expected axis=start:stop:count, got {part!r}")
        name, _, rng_spec = part.partition("=")
        name = name.strip()
        if name not in _AXES:
            raise ConfigError(f"grid: unknown axis {name!r}, expected one of {_AXES}")
        if name in seen:
            raise ConfigError(f"grid: duplicate axis {name!r}")
        seen.add(name)
        pieces = rng_spec.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"grid: expected start:stop:count, got {rng_spec!r}")
        try:
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise ConfigError(f"grid: cannot parse {rng_spec!r}") from exc
        if count < 1:
            raise ConfigError(f"grid: count must be >= 1, got {count}")
        if name == "t":
            values = np.linspace(start, stop, count)
        else:
            if start <= 0 or stop <= 0:
                raise ConfigError(f"grid: axis {name} needs positive bounds, got [{start}, {stop}]")
            values = np.geomspace(start, stop, count) if count > 1 else np.array([start])
        axes.append((name, values))
    if not axes:
        raise ConfigError("grid: no axes given")
    return axes


def _sweep_values(cfg: RunConfig, field: str, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The field at every grid point, t of shape (R,) and y of shape (R, 4),
    evaluated one CHUNK of points at a time."""
    G, tm, k = cfg.tensor, cfg.time_metric, cfg.einstein_k
    if field in ("T1", "Ti", "Tyi"):
        parts = []
        for m in metric_batches(G, tm, t, y):
            t1, ti, tyi = fieldtheory.closed_rhs_of(m, k)
            parts.append({"T1": t1, "Ti": ti[:, 0], "Tyi": tyi[:, 0]}[field])
        return np.concatenate(parts)
    fn = {
        "G1111": lambda t, y: g_hierarchy(G, y).g1111,
        "xi11": lambda t, y: fieldtheory.xi_11(tm, t, k),
        "Sc": lambda t, y: curvature.scalar_curvature_field(tm, t, y),
    }[field]
    return np.concatenate([fn(t[lo : lo + CHUNK], y[lo : lo + CHUNK]) for lo in range(0, len(t), CHUNK)])


def sweep(cfg: RunConfig, field: str, grid) -> list[dict]:
    """One row per grid point, lexicographic in grid indices.

    Every field is a read of the field layer: Sc is
    ``curvature.scalar_curvature_field``, xi11 ``fieldtheory.xi_11``, T1, Ti
    and Tyi ``fieldtheory.closed_rhs_of`` (the vector fields Ti and Tyi
    report their first component), and G1111 the tensor's G-hierarchy.  Sc,
    xi11, T1, Ti and Tyi come from the closed Berwald-Moor field-theory layer
    and are refused for a custom tensor; G1111 comes from the configured
    tensor.
    """
    if field not in SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep field {field!r}, expected one of {SWEEP_FIELDS}")
    if field != "G1111" and not cfg.tensor.is_berwald_moor:
        raise ConfigError(
            f"sweep field {field!r} comes from the closed Berwald-Moor field layer and is not defined "
            "for a custom tensor; only G1111 is"
        )
    axes = parse_grid(grid) if isinstance(grid, str) else list(grid)
    names = [name for name, _ in axes]
    # grid points in itertools.product order (the last axis varies fastest)
    mesh = np.meshgrid(*[np.asarray(vals, dtype=float) for _, vals in axes], indexing="ij")
    points = np.stack(mesh, axis=-1).reshape(-1, len(axes))
    cols = dict(zip(names, points.T))
    t = cols.get("t", np.full(len(points), 0.5 * (cfg.t_min + cfg.t_max)))
    y = np.ones((len(points), DIM))
    if "s" in cols:
        y = cols["s"][:, None] * y
    for ax in ("y1", "y2", "y3", "y4"):
        if ax in cols:
            y[:, int(ax[1]) - 1] = cols[ax]
    values = _sweep_values(cfg, field, t, y)
    return [{**dict(zip(names, point)), field: v} for point, v in zip(points.tolist(), values.tolist())]


def sweep_csv(rows: list[dict], field: str, axes: list[str]) -> str:
    header = ",".join(axes + [field])
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(row[a]) for a in axes) + "," + repr(row[field]))
    return "\n".join(lines) + "\n"
