"""Verification-suite runner: the check catalog, seeded sampling, sweeps,
and report aggregation.

Each report verifies one identity (an oracle equivalence between the generic
pipeline and a closed form, or an internal identity).  ``_CATALOG`` declares
every check once: its groups in run order, and for each group its function,
its point count and its checks in report order as (name, abs_tol, rel_tol,
bm_only).  ``check_names`` reads the catalog and evaluates nothing.

``run_verify`` owns everything a group shares: it draws the group's points
(t, y) from a generator seeded by (seed, group index), hands the group one
error accumulator per declared check (None for a ``bm_only`` check on a
custom tensor), skips a group whose every check is ``bm_only`` on a custom
tensor, and applies the pass rule
(``VerificationReport.from_errors``).  Output is therefore deterministic for
a fixed (config, seed) regardless of evaluation schedule.  A group's point
count is a fraction of the samples, except decay's, which is its four fixed
rays in one chunk; decay reads its rays, not the drawn points.

The generic objects of a group come from geometry bundles over its points,
checked with array operations; the Taylor2 oracles run batched over the same
bundles.  A metric-stage bundle holds up to METRIC_CHUNK points (1 024) and
a connection- or full-stage bundle up to CHUNK (128; see ``geometry``), so
a group over 500 points checks four full-stage chunks, each with one call
of every closed form, oracle and error accumulator it reads.  A group that
reads the full stage drops each chunk's bundle before the next one is
built, so at most one chunk's 5-index tables are alive.  Each group builds
the shallowest kernel stage that holds what it reads:

* gscalars and metric_taylor read only g, g^-1 and the G-hierarchy, and
  build the metric stage (``metric_batches``);
* cartan and field_misc read only C, L, G^k_j1, g, y and the time axis, and
  build the connection stage (``connection_batches``);
* curvature and ricci build the full stage (``batches``);
* einstein, conservation and decay build the stage that the field layer's
  rule for their tensor names (``fieldtheory.einstein_batches`` and
  ``conservation_batches``, which the per-point functions use too): on
  Berwald-Moor the metric stage for einstein, whose blocks read the closed
  field table, and the connection stage for conservation and decay, whose
  contraction terms read C; on a custom tensor the full stage;
* connection reads the time axis alone (``TimeMetric.eval`` over all its
  t) and builds the nonlinear connections and adapted frames over all its
  points at once;
  autodiff builds no bundle.

A ``bm_only`` check needs Berwald-Moor closed forms and is reported as
skipped for custom tensors.  Every closed form a check compares against
comes from ``jetbm.closed`` (imported as ``bm``); this module writes none.
A NaN in any compared value fails its check.  Three checks compare the
honest Ricci contraction of the vertical curvature against the closed table
the field-theory layer is built on; the diagonal of that table is exactly
twice the contraction, so those checks report the discrepancy and fail by
design on a correct implementation.

A sweep tabulates one field of the field layer over a grid; it evaluates
that field's library function and has no formula of its own.  A closed
field (``closed.scalar_curvature_field_of``, ``closed.xi_11_of``,
``closed.closed_t1``, ``closed_ti`` or ``closed_tyi``) reads the time axis
and y alone, a few values per row, so it reaches no kernel code and is one
call over the whole grid; G1111 reads the G-hierarchy, a metric-stage
object, one METRIC_CHUNK of grid points at a time.  A sweep reads the
grid's structure instead of recovering it from its columns: the grid
checks test each axis value once (finite, and > 0 on s and y1..y4, which
keeps every row's y in the open positive cone), and a closed field
evaluates the time axis once per grid, over the t axis values, and gathers
the time-axis entries it reads by each row's t index.  A refusal names its
table row.  It returns its table as a
``jsondoc.GridColumns`` (the grid axes, then the field), which ``sweep_csv``
and ``jsondoc.dumps_records`` write through ``jsondoc.join_rows``,
formatting each axis value once and each distinct value of the field once.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from math import factorial, isnan
from time import perf_counter
from typing import Callable

import numpy as np

from .. import closed as bm, connection, fieldtheory
from ..errors import ConfigError, JetBMError
from ..geometry import (
    CHUNK,
    METRIC_CHUNK,
    batches,
    connection_batches,
    g_hierarchy,
    metric_batches,
    stage_times,
    take,
)
from ..jetcore import DIM, Taylor2, TimeAxis, taylor2_seed
from . import jsondoc
from .config import RunConfig

__all__ = ["SuiteResult", "VerificationReport", "run_verify", "sweep", "parse_grid", "SWEEP_FIELDS", "check_names"]


# --------------------------------------------------------------------------
# error accumulation and the pass rule


def _worse(old: float, new: float) -> float:
    """The larger of two worst values, a NaN winning over any number."""
    return new if new > old or isnan(new) else old


class _Err:
    """Track worst absolute and relative deviation over a stream of pairs.
    A NaN in any compared value makes both NaN, which fails every tolerance."""

    __slots__ = ("abs", "rel")

    def __init__(self):
        self.abs = 0.0
        self.rel = 0.0

    def add(self, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        d = np.subtract(a, b)
        np.abs(d, out=d)
        # max(|a|, |b|) is formed in one array of the broadcast shape, which
        # then takes the relative error in place: it stays 0 where both
        # values are 0 (and NaN where either is, whose absolute error makes
        # both errors NaN)
        denom = np.abs(np.broadcast_to(a, d.shape))
        np.maximum(denom, np.abs(b), out=denom)
        np.divide(d, denom, out=denom, where=denom > 0.0)
        self._fold(float(d.max()), float(denom.max()))

    def add_residual(self, r):
        """Residual against an exact-zero target (absolute only)."""
        self._fold(float(np.abs(np.asarray(r, dtype=float)).max()), 0.0)

    def record(self, worst: float):
        """A worst deviation the group measured itself, as both errors."""
        self._fold(worst, worst)

    def _fold(self, abs_err: float, rel_err: float):
        if isnan(abs_err):
            rel_err = abs_err
        self.abs = _worse(self.abs, abs_err)
        self.rel = _worse(self.rel, rel_err)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check over a batch of sampled points."""

    check_name: str
    samples: int
    max_abs_err: float
    max_rel_err: float
    passed: bool
    seed: int
    skipped: bool = False

    @classmethod
    def from_errors(
        cls,
        check_name: str,
        samples: int,
        max_abs_err: float,
        max_rel_err: float,
        seed: int,
        abs_tol: float | None = None,
        rel_tol: float | None = None,
    ) -> "VerificationReport":
        """Apply the pass rule: abs error within abs_tol OR rel error within
        rel_tol.  A NaN error is within no tolerance."""
        ok = False
        if abs_tol is not None and max_abs_err <= abs_tol:
            ok = True
        if rel_tol is not None and max_rel_err <= rel_tol:
            ok = True
        return cls(check_name, samples, float(max_abs_err), float(max_rel_err), ok, seed)

    @classmethod
    def skip(cls, check_name: str, seed: int) -> "VerificationReport":
        return cls(check_name, 0, float("nan"), float("nan"), True, seed, skipped=True)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "samples": self.samples,
            "max_abs_err": None if np.isnan(self.max_abs_err) else self.max_abs_err,
            "max_rel_err": None if np.isnan(self.max_rel_err) else self.max_rel_err,
            "pass": self.passed,
            "seed": self.seed,
            "skipped": self.skipped,
        }


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
# check groups; each takes the config, its drawn points (t, y) and one _Err
# per catalog check, in catalog order, or None for a check that needs the
# Berwald-Moor closed forms on a custom tensor; a group that mixes such checks
# with others computes the closed forms only where their accumulators exist


def _grp_gscalars(cfg, t, ys, oracle, inverse, euler, det, script, raised, inv_closed):
    for m in metric_batches(cfg.tensor, cfg.time_metric, t, ys):
        s, y = m.scalars, m.y
        euler.add(np.einsum("xi,xi->x", s.gi111, y), 4.0 * s.g1111)
        euler.add(np.einsum("xij,xj->xi", s.gij11, y), 3.0 * s.gi111)
        euler.add(np.einsum("xi,xij,xj->x", y, s.gij11, y), 12.0 * s.g1111)
        inverse.add_residual(m.g_lo @ m.g_up - np.eye(DIM))
        if oracle is not None:
            cl = bm.bm_metric_closed(y)
            oracle.add(m.g_lo, cl.g_lo)
            oracle.add(m.g_up, cl.g_up)
            got = (s.gij11_inv, s.det_gij11, s.g_script, s.gj_up)
            for err, a, b in zip((inv_closed, det, script, raised), got, bm.bm_hierarchy_closed(y)):
                err.add(a, b)


def _grp_metric_taylor(cfg, t, ys, hess, homog):
    """g from the energy-function Hessian, and 0-homogeneity of g in y."""
    G, tm = cfg.tensor, cfg.time_metric
    for m in metric_batches(G, tm, t, ys):
        f2 = _g1111_taylor2(G, taylor2_seed(m.y)).sqrt() * m.h11_inv
        hess.add(0.5 * m.h11[:, None, None] * f2.hess, m.g_lo)
        # each scaled ray over the base bundle's points, one alive at a time
        for lam in (0.5, 2.0, 7.0):
            (ray,) = metric_batches(G, tm, m.t, lam * m.y)
            homog.add(ray.g_lo, m.g_lo)


def _grp_connection(cfg, t, ys, fd, duality):
    h = cfg.fd_step
    tm = cfg.time_metric
    ax = tm.eval(t)
    fd.add(ax.dkappa, (tm.eval(t + h).kappa - tm.eval(t - h).kappa) / (2.0 * h))
    for nlc in (connection.canonical_nlc(ax.kappa, ys), connection.apriori_nlc(ax.kappa, ys)):
        F = connection.adapted_frame(nlc)
        C = connection.adapted_coframe(nlc)
        duality.add_residual(F @ C.swapaxes(1, 2) - np.eye(1 + 2 * DIM))


def _grp_cartan(cfg, t, ys, vert, hor, time_zero, sym, transv, trace):
    for geo in connection_batches(cfg.tensor, cfg.time_metric, t, ys):
        time_zero.add_residual(geo.gk)
        sym.add_residual(geo.c - geo.c.transpose(0, 1, 3, 2))
        transv.add_residual(np.einsum("xijm,xm->xij", geo.c, geo.y))
        if vert is not None:
            closed = bm.bm_c_closed(geo.y)
            vert.add(geo.c, closed)
            hor.add(geo.l, (geo.kappa / 3.0)[:, None, None, None] * closed)
            trace.add_residual(np.einsum("xmjm->xj", geo.c))


def _grp_curvature(cfg, t, ys, s_oracle, antisym, prop, tor_closed):
    for geo in batches(cfg.tensor, cfg.time_metric, t, ys):
        k3 = (geo.kappa / 3.0)[:, None, None, None]
        s = geo.s_curv
        antisym.add_residual(s + s.swapaxes(3, 4))
        prop.add(geo.r_curv, (geo.kappa**2 / 9.0)[:, None, None, None, None] * s)
        prop.add(geo.p_curv, k3[..., None] * s)
        tor_closed.add(geo.p_vert, geo.c)
        tor_closed.add(geo.p_mixed, -k3 * geo.c)
        tor_closed.add(geo.r_time, ((geo.dkappa - geo.kappa**2) / 3.0)[:, None, None] * np.eye(DIM))
        if s_oracle is not None:
            closed = bm.bm_s_closed(geo.y)
            scale = np.maximum(np.abs(closed).max(axis=(1, 2, 3, 4)), 1e-300)
            s_oracle.record(float((np.abs(s - closed).max(axis=(1, 2, 3, 4)) / scale).max()))
        del geo, s  # so that no chunk's tables are alive while the next one's are built


def _grp_ricci(cfg, t, ys, closed_form, offdiag, diag, raised_field, curl, div_field, div_contr, sc_closed, sc_field):
    on = np.eye(DIM, dtype=bool)
    for geo in batches(cfg.tensor, cfg.time_metric, t, ys):
        y, kappa = geo.y, geo.kappa
        closed_form.add(geo.s_ricci, bm.bm_s_ricci_contracted(y))
        closed_form.add(geo.r_ij, (kappa**2 / 9.0)[:, None, None] * geo.s_ricci)
        closed_form.add(geo.p_ricci, (kappa / 3.0)[:, None, None] * geo.s_ricci)
        tbl = bm.bm_s_ricci_field(y)
        offdiag.add(geo.s_ricci[:, ~on], tbl[:, ~on])
        diag.add(geo.s_ricci[:, on], tbl[:, on])
        mp_up = bm.bm_metric_closed(y).g_up
        raised_field.add(np.einsum("xmr,xri->xmi", mp_up, tbl), bm.bm_s_raised_field(y))
        # the generic C equals the closed one (cartan/vertical-oracle), so the
        # orthogonality identity can contract against the cheap closed form
        curl.add_residual(np.einsum("xmr,xrim->xi", geo.s_raised, bm.bm_c_closed(y)))
        sc_closed.add(geo.sc, bm.scalar_curvature_contracted(geo.h11, kappa, y))
        d_table = bm.raised_table_grad(y)
        target = bm.field_divergence(y)
        div_field.add(bm.raised_divergence(d_table, bm.FIELD_COEF), target)
        div_contr.add(bm.raised_divergence(d_table, bm.CONTRACTED_COEF), target)
        sc_field.add(geo.sc, bm.scalar_curvature_field(cfg.time_metric, geo.t, y))
        del geo, d_table  # so that no chunk's tables are alive while the next one's are built


def _grp_einstein(cfg, t, ys, zeros, sym, raised):
    for geo in fieldtheory.einstein_batches(cfg.tensor, cfg.time_metric, t, ys):
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
        del geo, g_up, b  # so that no chunk's tables are alive while the next one's are built


def _residual_norm(res):
    """Norm of (T1, Ti, Tyi) for one point or, over the last axis, a batch."""
    return np.sqrt(res.t1**2 + np.sum(res.ti**2, axis=-1) + np.sum(res.tyi**2, axis=-1))


def _grp_conservation(cfg, t, ys, closed, nonzero):
    for geo in fieldtheory.conservation_batches(cfg.tensor, cfg.time_metric, t, ys):
        res = fieldtheory.conservation_residuals_of(geo, cfg.einstein_k)
        closed.add(res.t1, res.closed_t1)
        closed.add(res.ti, res.closed_ti)
        closed.add(res.tyi, res.closed_tyi)
        nonzero.add_residual(np.where(_residual_norm(res) > 0.0, 0.0, 1.0))


_DECAY_SCALES = (10.0, 100.0, 1000.0)


def _grp_decay(cfg, _t, _ys, err):
    """Computed residual norms along y = s*(1,1,1,1) decay at the rate the
    closed right-hand sides predict (asymptotically s^-2 when the time
    residual is active, s^-3 otherwise).  The points are the scaled rays and
    the base ray s = 1, not the drawn ones."""
    t_ref = 0.5 * (cfg.t_min + cfg.t_max)
    scales = _DECAY_SCALES
    ys = np.array(scales + (1.0,))[:, None] * np.ones(DIM)
    (geo,) = fieldtheory.conservation_batches(cfg.tensor, cfg.time_metric, np.full(len(ys), t_ref), ys)
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


def _grp_field_misc(cfg, t, ys, des, em):
    out = fieldtheory.des_check(cfg.time_metric, np.linspace(cfg.t_min, cfg.t_max, max(len(t), 2)))
    des.add_residual(1.0 if out.solvable else 0.0)
    des.add_residual(np.maximum(0.0, -out.r2))
    for geo in connection_batches(cfg.tensor, cfg.time_metric, t, ys):
        f = fieldtheory.em_form_of(geo).f
        em.add_residual(f)
        em.add_residual(f + f.swapaxes(1, 2))


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


def _grp_autodiff(cfg, _t, ys, err):
    """Taylor2 gradients/Hessians versus central finite differences
    (steps scaled per coordinate; relative error with a unit floor).
    FD samples run the same compositions in plain float arithmetic; both
    sides run batched over chunks of points."""
    for lo in range(0, len(ys), CHUNK):
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
                err.record(rel(out.grad[:, a], fd))
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
                    err.record(rel(out.hess[:, a, b], fd))


# --------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class _Check:
    """One report of a group: its name, its tolerances (it passes when either
    error is within its tolerance) and whether it needs Berwald-Moor closed
    forms (then it is skipped for custom tensors)."""

    name: str
    abs_tol: float | None = None
    rel_tol: float | None = None
    bm_only: bool = False


@dataclass(frozen=True)
class _Group:
    """A check group: its function, its checks in report order, and its point
    count, a fraction of the samples or a fixed count for a group whose
    points do not depend on them.  The function is called as
    fn(cfg, t, y, *errs) with one _Err per check."""

    fn: Callable
    checks: tuple[_Check, ...]
    fraction: float = 1.0
    points: int | None = None

    @property
    def name(self) -> str:
        return self.fn.__name__.removeprefix("_grp_")

    def size(self, samples: int) -> int:
        return self.points if self.points is not None else max(1, round(self.fraction * samples))


_CATALOG = (
    _Group(_grp_gscalars, fraction=1.0, checks=(
        _Check("metric/closed-form-oracle", rel_tol=1e-10, bm_only=True),
        _Check("metric/inverse-pair", abs_tol=1e-10),
        _Check("gscalars/euler-identities", rel_tol=1e-12),
        _Check("gscalars/determinant-closed", rel_tol=1e-12, bm_only=True),
        _Check("gscalars/script-scalar-closed", rel_tol=1e-12, bm_only=True),
        _Check("gscalars/raised-vector-closed", rel_tol=1e-12, bm_only=True),
        _Check("gscalars/inverse-closed-form", abs_tol=1e-10, rel_tol=1e-12, bm_only=True),
    )),
    _Group(_grp_metric_taylor, fraction=0.5, checks=(
        _Check("metric/hessian-of-energy", rel_tol=1e-9),
        _Check("metric/zero-homogeneity", rel_tol=1e-12),
    )),
    _Group(_grp_connection, fraction=0.5, checks=(
        _Check("christoffel/fd-cross-check", abs_tol=1e-8, rel_tol=1e-6),
        _Check("connection/cobasis-duality", abs_tol=1e-10),
    )),
    _Group(_grp_cartan, fraction=1.0, checks=(
        _Check("cartan/vertical-oracle", rel_tol=1e-9, bm_only=True),
        _Check("cartan/horizontal-oracle", abs_tol=1e-12, rel_tol=1e-9, bm_only=True),
        _Check("cartan/time-component-zero", abs_tol=1e-10),
        _Check("cartan/vertical-symmetry", abs_tol=1e-12),
        _Check("cartan/vertical-y-transversality", abs_tol=1e-10),
        _Check("cartan/vertical-trace", abs_tol=1e-10, bm_only=True),
    )),
    _Group(_grp_curvature, fraction=0.5, checks=(
        _Check("curvature/vertical-oracle", rel_tol=1e-9, bm_only=True),
        _Check("curvature/antisymmetry", abs_tol=1e-12),
        _Check("curvature/proportionality", abs_tol=1e-12, rel_tol=1e-9),
        # vacuous in part: p_vert is c itself (P^k(1)_i(j) = C^k_i(j)), so
        # its first comparison holds an array against itself, and its p_mixed
        # and r_time comparisons restate the identities that
        # geometry._guard_torsions already enforces on every full-stage
        # chunk, at these looser tolerances
        _Check("torsion/closed-forms", abs_tol=1e-12, rel_tol=1e-9),
    )),
    _Group(_grp_ricci, fraction=0.5, checks=(
        _Check("ricci/contraction-closed-form", rel_tol=1e-10, bm_only=True),
        _Check("ricci/contraction-vs-field-offdiag", rel_tol=1e-9, bm_only=True),
        _Check("ricci/contraction-vs-field-diag", rel_tol=1e-9, bm_only=True),
        _Check("ricci/raised-field-closed", rel_tol=1e-9, bm_only=True),
        _Check("ricci/curl-orthogonality", abs_tol=1e-10, bm_only=True),
        _Check("ricci/divergence-field", rel_tol=1e-9, bm_only=True),
        _Check("ricci/divergence-contraction", rel_tol=1e-9, bm_only=True),
        _Check("ricci/scalar-closed-form", rel_tol=1e-10, bm_only=True),
        _Check("ricci/scalar-vs-field", rel_tol=1e-9, bm_only=True),
    )),
    _Group(_grp_einstein, fraction=0.5, checks=(
        _Check("einstein/zero-blocks", abs_tol=1e-12),
        _Check("einstein/block-symmetry", abs_tol=1e-10),
        _Check("einstein/raised-cross-check", abs_tol=1e-12, rel_tol=1e-9),
    )),
    _Group(_grp_conservation, fraction=0.2, checks=(
        _Check("conservation/closed-rhs", rel_tol=1e-8, bm_only=True),
        _Check("conservation/residual-nonzero", abs_tol=0.5, bm_only=True),
    )),
    _Group(_grp_decay, points=len(_DECAY_SCALES) + 1, checks=(
        _Check("conservation/decay-rate", abs_tol=0.02, bm_only=True),
    )),
    _Group(_grp_field_misc, fraction=0.2, checks=(
        _Check("des/unsolvable", abs_tol=1e-15),
        _Check("em/two-form-zero", abs_tol=1e-10),
    )),
    _Group(_grp_autodiff, fraction=0.1, checks=(
        _Check("autodiff/fd-soundness", abs_tol=1e-7, rel_tol=1e-5),
    )),
)


def check_names() -> list[str]:
    """Catalog order of all report names (skipped or not)."""
    return [check.name for grp in _CATALOG for check in grp.checks]


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
        return jsondoc.dumps(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        lines = ["check_name,samples,max_abs_err,max_rel_err,pass,seed,skipped"]
        for r in self.reports:
            abs_e = "" if np.isnan(r.max_abs_err) else repr(r.max_abs_err)
            rel_e = "" if np.isnan(r.max_rel_err) else repr(r.max_rel_err)
            lines.append(
                f"{r.check_name},{r.samples},{abs_e},{rel_e},{str(r.passed).lower()},{r.seed},{str(r.skipped).lower()}"
            )
        return "\n".join(lines) + "\n"


def run_verify(
    cfg: RunConfig, on_group: Callable[[str, int, float, dict[str, float]], None] | None = None
) -> SuiteResult:
    """Run the full check catalog over seeded samples.

    Deterministic for fixed (config, seed); failures are reported, not
    raised.  Closed-form checks are skipped for custom tensors, and a group
    of closed-form checks alone does not run for them.  After each group,
    on_group (if given) receives the group's name, its point count, its
    wall time in seconds, and the seconds of that wall time spent in each
    kernel stage, by stage name (``geometry.stage_times``).
    """
    is_bm = cfg.tensor.is_berwald_moor
    reports: list[VerificationReport] = []
    for idx, grp in enumerate(_CATALOG):
        n = grp.size(cfg.samples)
        errs = [_Err() if is_bm or not check.bm_only else None for check in grp.checks]
        start = perf_counter()
        with stage_times() as stages:
            if any(err is not None for err in errs):
                grp.fn(cfg, *_points(cfg, np.random.default_rng([cfg.seed, idx]), n), *errs)
        if on_group is not None:
            on_group(grp.name, n, perf_counter() - start, stages)
        for check, err in zip(grp.checks, errs):
            if err is None:
                reports.append(VerificationReport.skip(check.name, cfg.seed))
            else:
                reports.append(
                    VerificationReport.from_errors(
                        check.name, n, err.abs, err.rel, cfg.seed, abs_tol=check.abs_tol, rel_tol=check.rel_tol
                    )
                )
    overall = all(r.passed for r in reports)
    return SuiteResult(reports=reports, overall_pass=overall, config_echo=cfg)


# --------------------------------------------------------------------------
# sweeps

SWEEP_FIELDS = ("Sc", "xi11", "T1", "Ti", "Tyi", "G1111")
_AXES = ("t", "s", "y1", "y2", "y3", "y4")


def _check_grid(axes: list) -> list:
    """Return the grid's (axis, values) pairs, or refuse a grid with no
    axes, an axis name that is not a grid axis or repeats one before it, an
    axis with no values, a value that is not finite, or a value of s or
    y1..y4 that is not > 0."""
    if not axes:
        raise ConfigError("grid: no axes given")
    seen = set()
    for name, values in axes:
        if name not in _AXES:
            raise ConfigError(f"grid: unknown axis {name!r}, expected one of {_AXES}")
        if name in seen:
            raise ConfigError(f"grid: duplicate axis {name!r}")
        if len(values) == 0:
            raise ConfigError(f"grid: axis {name!r} has no values")
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ConfigError(f"grid: axis {name!r} needs finite values, got {values[~np.isfinite(values)][0]}")
        if name != "t" and not (values > 0.0).all():
            raise ConfigError(f"grid: axis {name!r} needs values > 0, got {values[~(values > 0.0)][0]}")
        seen.add(name)
    return axes


def parse_grid(spec: str) -> list[tuple[str, np.ndarray]]:
    """Parse 'axis=start:stop:count,...'; t is linearly spaced, y-like axes
    geometrically. Axes: t, s (ray scale on (1,1,1,1)), y1..y4."""
    axes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"grid: expected axis=start:stop:count, got {part!r}")
        name, _, rng_spec = part.partition("=")
        name = name.strip()
        pieces = rng_spec.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"grid: expected start:stop:count, got {rng_spec!r}")
        try:
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise ConfigError(f"grid: cannot parse {rng_spec!r}") from exc
        if count < 1:
            raise ConfigError(f"grid: count must be >= 1, got {count}")
        if not np.isfinite([start, stop]).all():
            raise ConfigError(f"grid: axis {name} needs finite bounds, got [{start}, {stop}]")
        if name == "t":
            values = np.linspace(start, stop, count)
        else:
            if start <= 0 or stop <= 0:
                raise ConfigError(f"grid: axis {name} needs positive bounds, got [{start}, {stop}]")
            values = np.geomspace(start, stop, count) if count > 1 else np.array([start])
        axes.append((name, values))
    return _check_grid(axes)


class _AxisRows:
    """The time axis at the table's rows: each field of ``ax`` is gathered
    by the rows' t index when first read, so a field formula reads
    only the time-axis entries it needs."""

    def __init__(self, ax: TimeAxis, index: np.ndarray):
        self._ax, self._index = ax, index

    def __getattr__(self, name: str) -> np.ndarray:
        value = getattr(self._ax, name)[self._index]
        setattr(self, name, value)
        return value


@contextmanager
def _by_table_row(first: int = 0, step: int = 1):
    """Raise a batch refusal from inside again, naming its point by table
    row ``first + step * batch index``."""
    try:
        yield
    except JetBMError as exc:
        if exc.index is None:
            raise
        raise exc.at(first + step * exc.index, "table row") from None


def _sweep_values(cfg: RunConfig, field: str, table: jsondoc.GridColumns, y: np.ndarray) -> np.ndarray:
    """The field at every grid point, y of shape (R, 4), which the grid
    checks keep in the open positive cone.  A closed field reads only the
    time axis and y, a few values per row, so it is one call of its field
    function over the whole grid: it evaluates the time axis once, over the
    t axis values (or the one midpoint t when the grid has no t axis), and
    reads it by each row's t index.  G1111 builds the G-hierarchy, a
    metric-stage object, one METRIC_CHUNK of rows at a time.  A refusal
    names its table row."""
    G, tm, k = cfg.tensor, cfg.time_metric, cfg.einstein_k
    if field == "G1111":
        out = []
        for lo in range(0, len(y), METRIC_CHUNK):
            with _by_table_row(lo):
                out.append(g_hierarchy(G, y[lo : lo + METRIC_CHUNK]).g1111)
        return np.concatenate(out)
    fn = {
        "xi11": lambda ax, y: bm.xi_11_of(ax, k),
        "Sc": bm.scalar_curvature_field_of,
        "T1": lambda ax, y: bm.closed_t1(ax, y, k),
        "Ti": lambda ax, y: bm.closed_ti(ax, y, k)[:, 0],
        "Tyi": lambda ax, y: bm.closed_tyi(ax, y, k)[:, 0],
    }[field]
    if "t" in table.axes:
        t, t_index, rows_per_t = table.axes["t"].values, table.index("t"), table.axes["t"].repeat
    else:  # every row reads the one midpoint t
        t, t_index, rows_per_t = np.array([0.5 * (cfg.t_min + cfg.t_max)]), np.zeros(len(y), dtype=np.intp), 0
    with _by_table_row(step=rows_per_t):  # t value k first appears in row k * rows_per_t
        ax = tm.eval(t)
    return fn(_AxisRows(ax, t_index), y)


def sweep(cfg: RunConfig, field: str, grid) -> jsondoc.GridColumns:
    """The sweep table as columns: one 1-D array per grid axis, in grid
    order, then the field's, with one entry per grid point, lexicographic in
    grid indices (the last axis varies fastest).  The table is a
    ``jsondoc.GridColumns``, so both sweep writers format each axis value
    once.  A grid is a ``parse_grid`` spec or its (axis, values) pairs,
    which meet the same grid checks (``_check_grid``).

    Every field is a read of the field layer: Sc is
    ``closed.scalar_curvature_field``, xi11 ``closed.xi_11``, T1, Ti and Tyi
    ``closed.closed_t1``, ``closed_ti`` and ``closed_tyi`` (the vector
    fields Ti and Tyi report their first component), and G1111 the tensor's
    G-hierarchy.  Sc, xi11, T1, Ti and Tyi come from the closed Berwald-Moor
    field-theory layer and are refused for a custom tensor; G1111 comes from
    the configured tensor.  The grid checks keep every y in the open
    positive cone.
    """
    if field not in SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep field {field!r}, expected one of {SWEEP_FIELDS}")
    if field != "G1111" and not cfg.tensor.is_berwald_moor:
        raise ConfigError(
            f"sweep field {field!r} comes from the closed Berwald-Moor field layer and is not defined "
            "for a custom tensor; only G1111 is"
        )
    axes = parse_grid(grid) if isinstance(grid, str) else _check_grid(list(grid))
    table = jsondoc.GridColumns(axes)
    y = np.ones((table.rows, DIM))
    if "s" in table:
        y = table["s"][:, None] * y
    for ax in ("y1", "y2", "y3", "y4"):
        if ax in table:
            y[:, int(ax[1]) - 1] = table[ax]
    table[field] = _sweep_values(cfg, field, table, y)
    return table


def _reprs(values: np.ndarray) -> list[str]:
    """Python's repr of each float (``nan``, ``inf``, ``-inf`` for the
    non-finite ones)."""
    return list(map(repr, values.tolist()))


def sweep_csv(columns: dict[str, np.ndarray]) -> str:
    """The columns of ``sweep`` as CSV, written by ``jsondoc.join_rows``:
    each axis value is formatted once, and each distinct value of another
    column (``jsondoc.column_tokens``)."""
    seps = [","] * (len(columns) - 1) + ["\n"]
    return jsondoc.join_rows(",".join(columns) + "\n", jsondoc.column_tokens(columns, _reprs, seps), "\n", "\n")
