"""Gravitational potential, local Einstein-equation blocks, stress-energy
identities, conservation-law residuals, the unsolvable h_11 ODE system, and
the electromagnetic 2-form.

The Einstein blocks and conservation laws form the closed field-theory layer
built on the Ricci table with diagonal 3/(4 y_i^2) (``bm_s_ricci_field``) and
on xi_11 = (9 h_11 + kappa^2) / (2 K).  That layer is internally consistent:
the raised identities follow from g-/h-raising the blocks and the computed
divergences reproduce the closed right-hand sides at machine precision.  For
non-Berwald-Moor tensors the honest Ricci contraction feeds the same block
formulas.

The conservation laws are one assembly on every tensor
(``conservation_residuals_of``): every raised block is a t-scalar times the
raised Ricci table S^m_i plus a t-scalar times (xi / sqrt(G_1111)) delta,
so T1, Ti and Tyi follow from div S = dS^m_i/dy^m, 1/sqrt(G_1111) and its
gradient, plus the C- and L-contraction terms of the unreduced covariant
divergences, which are added on every tensor (on Berwald-Moor they vanish
to rounding).  1/sqrt(G_1111) and its gradient -G_i111 / (2 G_1111^(3/2))
come from the metric stage, as in the Einstein blocks.  Of its inputs only
div S depends on the tensor: on Berwald-Moor it is the exact divergence of
the closed field table from its first-order partials
(``raised_table_grad``, Taylor2's gradient rules in one broadcast pass); on
a custom tensor the exact divergence of the full stage's raised
contraction, from the second-order jet
(``geometry.raised_ricci_divergence``).

This module writes no closed formula: the field tables, xi_11 and its
t-derivative (``_xi``, ``xi_rate``), the closed conservation right-hand
sides (``closed_rhs_of``), the h_11 system (``des_residuals``) and the
partials of the raised table are written once, in ``closed``, and imported
from there.  ``closed_rhs_of`` reads a bundle's time axis and y and forms
G_1111 from y itself, so the closed side of a conservation residual shares
no value with the kernel's G-hierarchy.  ``des_check`` reads the time axis from one ``TimeMetric.eval``
over its t, as the kernel does per metric batch.

Each ``*_of`` function computes its objects over the whole batch of a
bundle of the shallowest kernel stage that holds what it reads (metric,
connection or full); the per-point functions read one point of an N = 1
bundle of that stage.  Where that stage depends on the tensor (the Einstein
blocks and the conservation residuals), ``einstein_batches`` and
``conservation_batches`` choose it, for the per-point functions and the
verify groups alike.
"""

from dataclasses import dataclass

import numpy as np

from .closed import (
    FIELD_COEF,
    _xi,
    bm_s_raised_field,
    bm_s_ricci_field,
    closed_rhs_of,
    des_residuals,
    raised_divergence,
    raised_table_grad,
    xi_rate,
)
from .connection import apriori_nlc
from .errors import ConfigError
from .geometry import (
    Connection,
    Metric,
    batches,
    connection_batches,
    metric_batches,
    point_connection,
    point_metric,
    raised_ricci_divergence,
    take,
)
from .jetcore import DIM, JetPoint, QuarticTensor, TimeMetric

__all__ = [
    "GravPotential",
    "EinsteinBlocks",
    "ConservationResiduals",
    "DesCheck",
    "EMForm",
    "grav_potential",
    "einstein_blocks",
    "conservation_residuals",
    "des_check",
    "em_form",
    "grav_potential_of",
    "einstein_blocks_of",
    "conservation_residuals_of",
    "einstein_batches",
    "conservation_batches",
    "em_form_of",
]


@dataclass(frozen=True)
class GravPotential:
    """Blocks of the gravitational potential h_11 dt^2 + g_ij dx^i dx^j + h^11 g_ij dy^i dy^j."""

    tt_block: float
    xx_block: np.ndarray
    yy_block: np.ndarray


@dataclass(frozen=True)
class EinsteinBlocks:
    """Stress-energy blocks determined by the local Einstein equations.

    Lowered blocks: t_11, t_ij, t_yy = T^(1)(1)_(i)(j), and the two mixed
    blocks t_i_yj = T^ (1)_i(j), t_yi_j = T^(1)_(i)j.  Raised components:
    raised_t11 = T^1_1, raised_h = T^m_i, raised_mixed_t = T^(m)_(1)i,
    raised_mixed_v = T^m(1)_(i), raised_vv = T^(m)(1)_(1)(i).
    The four remaining mixed blocks vanish identically.
    """

    k: float
    xi11: float
    t_11: float
    t_ij: np.ndarray
    t_yy: np.ndarray
    t_i_yj: np.ndarray
    t_yi_j: np.ndarray
    zero_blocks: dict[str, bool]
    raised_t11: float
    raised_h: np.ndarray
    raised_mixed_t: np.ndarray
    raised_mixed_v: np.ndarray
    raised_vv: np.ndarray


@dataclass(frozen=True)
class ConservationResiduals:
    """Computed divergence combinations and their closed right-hand sides,
    which are None on a custom tensor: they hold for Berwald-Moor alone."""

    t1: float
    ti: np.ndarray
    tyi: np.ndarray
    closed_t1: float | None
    closed_ti: np.ndarray | None
    closed_tyi: np.ndarray | None


@dataclass(frozen=True)
class DesCheck:
    """Residuals of the two h_11 differential equations over a t-grid."""

    r1: np.ndarray
    r2: np.ndarray
    solvable: bool


@dataclass(frozen=True)
class EMForm:
    """Electromagnetic 2-form coefficients F^(1)_(i)j (antisymmetric)."""

    f: np.ndarray


def grav_potential_of(m: Metric) -> GravPotential:
    """Potential blocks over the batch; they read only the metric stage."""
    return GravPotential(tt_block=m.h11, xx_block=m.g_lo, yy_block=m.h11_inv[:, None, None] * m.g_lo)


def grav_potential(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> GravPotential:
    return take(grav_potential_of(point_metric(G, tm, p)), 0)


def _s_source(geo: Metric):
    """Ricci table and its g-raising feeding the block formulas.

    Berwald-Moor tensors use the closed field-theory table, read from y
    alone; custom tensors fall back to the honest contraction of the generic
    pipeline, which only a full-stage ``Geometry`` holds.
    """
    if geo.tensor.is_berwald_moor:
        return bm_s_ricci_field(geo.y), bm_s_raised_field(geo.y)
    return geo.s_ricci, geo.s_raised


def einstein_blocks_of(geo: Metric, k: float) -> EinsteinBlocks:
    """Stress-energy blocks of the local Einstein equations over the batch.
    On Berwald-Moor they read only the metric stage; a custom tensor's read
    the Ricci contraction of the full stage (``Geometry``).

    T_11 = xi h_11 / sqrt(G_1111)
    T_ij = (kappa^2 / 9K) S_(i)(j) + (xi / sqrt(G_1111)) g_ij
    T^(1)(1)_(i)(j) = (1/K) S_(i)(j) + (xi / sqrt(G_1111)) h^11 g_ij
    mixed blocks    = (kappa / 3K) S_(i)(j)
    plus the raised components, cross-checkable against g-/h-raising.
    """
    xi = _xi(geo.h11, geo.kappa, k)
    h11, kappa = geo.h11[:, None, None], geo.kappa[:, None, None]
    sq = np.sqrt(geo.scalars.g1111)
    xi_sq = (xi / sq)[:, None, None]
    s_ric, s_raised = _s_source(geo)
    eye = np.eye(DIM)
    mixed = (kappa / (3.0 * k)) * s_ric
    return EinsteinBlocks(
        k=k,
        xi11=xi,
        t_11=xi * geo.h11 / sq,
        t_ij=(kappa**2 / (9.0 * k)) * s_ric + xi_sq * geo.g_lo,
        t_yy=(1.0 / k) * s_ric + xi_sq * geo.h11_inv[:, None, None] * geo.g_lo,
        t_i_yj=mixed,
        t_yi_j=mixed.copy(),
        zero_blocks={"t_1i": True, "t_i1": True, "t_yi_1": True, "t_1_yi": True},
        raised_t11=xi / sq,
        raised_h=(kappa**2 / (9.0 * k)) * s_raised + xi_sq * eye,
        raised_mixed_t=(h11 * kappa / (3.0 * k)) * s_raised,
        raised_mixed_v=(kappa / (3.0 * k)) * s_raised,
        raised_vv=(h11 / k) * s_raised + xi_sq * eye,
    )


def einstein_batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Bundles of the shallowest stage the Einstein blocks of G read: the
    metric stage on Berwald-Moor, one bundle per metric batch, whose blocks
    read the closed field table, and the full stage on a custom tensor, one
    bundle per chunk of ``batches``, whose blocks read the honest
    contraction S^m_i(j)(m)."""
    return (metric_batches if G.is_berwald_moor else batches)(G, tm, t, y)


def einstein_blocks(G: QuarticTensor, tm: TimeMetric, p: JetPoint, k: float) -> EinsteinBlocks:
    """Stress-energy blocks at one point (see ``einstein_blocks_of``)."""
    (geo,) = einstein_batches(G, tm, [p.t], p.y)
    return take(einstein_blocks_of(geo, k), 0)


def conservation_residuals_of(geo: Connection, k: float) -> ConservationResiduals:
    """Divergence combinations of the stress-energy components versus their
    closed right-hand sides, over the batch.

    Every raised block is a t-scalar times the raised Ricci table S^m_i plus
    a t-scalar times (xi / sqrt(G_1111)) delta, so T1, Ti and Tyi are one
    assembly, on every tensor, of div S = dS^m_i/dy^m, 1/sqrt(G_1111) and
    its gradient -G_i111 / (2 G_1111^(3/2)), plus the C- and L-contraction
    terms of the unreduced covariant divergences (``_contraction_terms``).
    1/sqrt(G_1111) and its gradient come from the metric stage, as in
    ``einstein_blocks_of``.  Only div S and the closed right-hand sides
    depend on the tensor.  On Berwald-Moor div S is the exact divergence of
    the closed field table (``raised_table_grad``), the contraction terms
    vanish to rounding (the trace-free property of C and the
    raised-orthogonality identity), and everything reads the connection
    stage.  On a custom tensor div S is the exact divergence of the honest
    contraction, which only the full stage (``Geometry``) holds
    (``raised_ricci_divergence``, which runs the second-order jet), and the
    closed right-hand sides, which hold for Berwald-Moor alone, are None.
    """
    xi = _xi(geo.h11, geo.kappa, k)
    dxi = xi_rate(geo, k)
    g = geo.scalars.g1111
    inv_sq = 1.0 / np.sqrt(g)
    d_inv_sq = (-0.5 * inv_sq / g)[:, None] * geo.scalars.gi111
    bm = geo.tensor.is_berwald_moor
    div_s = raised_divergence(raised_table_grad(geo.y), FIELD_COEF) if bm else raised_ricci_divergence(geo)
    kappa, h11, xi_c = geo.kappa[:, None], geo.h11[:, None], xi[:, None]
    kappa_sq = (geo.kappa * geo.kappa)[:, None]
    # T1 = delta(xi / sqrt(G)) / delta t with delta/delta t = d/dt + kappa y^p d/dy^p
    t1 = dxi * inv_sq + geo.kappa * xi * np.einsum("xp,xp->x", geo.y, d_inv_sq)
    # horizontal parts with delta/delta x^m = (kappa/3) d/dy^m, vertical parts with d/dy^m
    ti = (kappa / 3.0) * ((kappa_sq / (9.0 * k)) * div_s + xi_c * d_inv_sq) + (h11 * kappa / (3.0 * k)) * div_s
    tyi = (kappa / 3.0) * (kappa / (3.0 * k)) * div_s + (h11 / k) * div_s + xi_c * d_inv_sq
    h, mixed_t, mixed_v, vv = _contraction_terms(geo, einstein_blocks_of(geo, k))
    ti = ti + ((kappa / 3.0) * h + mixed_t)
    tyi = tyi + ((kappa / 3.0) * mixed_v + vv)
    closed = closed_rhs_of(geo, geo.y, k) if bm else (None, None, None)
    return ConservationResiduals(t1, ti, tyi, *closed)


def _contraction_terms(geo: Connection, blocks: EinsteinBlocks):
    """The C-terms of the unreduced divergences, F^r_i C^m_rm - F^m_r C^r_im
    of shape (N, 4), for each of the four raised blocks F: T^m_i, then the
    mixed T and V blocks, then the vv block.  A horizontal divergence reads
    L where a vertical one reads C, and the connection stage builds L as
    (kappa/3) C, so its L-terms are kappa/3 times these.

    F^m_r C^r_im is a stacked matmul over r, then a trace over m: a point
    gets the same bits alone as in a batch, which a two-index einsum does
    not give."""
    c = geo.c
    trace = np.einsum("xmjm->xj", c)
    c_flat = c.reshape(len(c), DIM, DIM * DIM)
    fields = (blocks.raised_h, blocks.raised_mixed_t, blocks.raised_mixed_v, blocks.raised_vv)
    return [np.einsum("xri,xr->xi", f, trace) - np.einsum("xmim->xi", (f @ c_flat).reshape(c.shape)) for f in fields]


def conservation_batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Bundles of the shallowest stage the conservation residuals of G read:
    the connection stage on Berwald-Moor, one bundle per metric batch of at
    most METRIC_CHUNK points, whose contraction terms read C and whose div S
    reads y alone, and the full stage on a custom tensor, one bundle per
    chunk of at most CHUNK points of ``batches``, whose div S reads the
    honest Ricci contraction."""
    return (connection_batches if G.is_berwald_moor else batches)(G, tm, t, y)


def conservation_residuals(G: QuarticTensor, tm: TimeMetric, p: JetPoint, k: float) -> ConservationResiduals:
    """Conservation residuals at one point (see ``conservation_residuals_of``)."""
    (geo,) = conservation_batches(G, tm, [p.t], p.y)
    return take(conservation_residuals_of(geo, k), 0)


def des_check(tm: TimeMetric, t_samples) -> DesCheck:
    """Residuals of the system
    dh [2 h'' - 3 (h')^2 / h] = 0   and   9 h + kappa^2 = 0
    (``closed.des_residuals``) over the samples; the second residual is
    bounded below by 9 h > 0, so the system is never solvable."""
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if ts.size == 0:
        raise ConfigError("des_check needs a nonempty sample list")
    r1, r2 = des_residuals(tm.eval(ts))
    solvable = bool(np.any((np.abs(r1) <= 1e-12) & (np.abs(r2) <= 1e-12)))
    return DesCheck(r1=r1, r2=r2, solvable=solvable)


def em_form_of(geo: Connection) -> EMForm:
    """F^(1)_(i)j = (h^11/2)[g_jm N^m_i - g_im N^m_j + (g_ir L^r_jm - g_jr L^r_im) y^m]
    over the batch, with the a-priori N^m_i = -(kappa/3) delta^m_i
    (``connection.apriori_nlc``).

    Antisymmetric by construction; zero for any tensor whose C satisfies the
    y-transversality identity, in particular Berwald-Moor.  It reads only the
    connection stage."""
    U = np.einsum("xjm,xmi->xij", geo.g_lo, apriori_nlc(geo.kappa, geo.y).n)
    V = np.einsum("xir,xrjm,xm->xij", geo.g_lo, geo.l, geo.y)
    F = (0.5 * geo.h11_inv)[:, None, None] * ((U - U.swapaxes(1, 2)) + (V - V.swapaxes(1, 2)))
    return EMForm(f=F)


def em_form(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> EMForm:
    """The electromagnetic 2-form at one point (see ``em_form_of``)."""
    return take(em_form_of(point_connection(G, tm, p)), 0)
