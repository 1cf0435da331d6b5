"""Gravitational potential, local Einstein-equation blocks, stress-energy
identities, conservation-law residuals, the unsolvable h_11 ODE system, and
the electromagnetic 2-form.

The Einstein blocks and conservation laws form the closed field-theory layer
built on the Ricci table with diagonal 3/(4 y_i^2) (``bm_s_ricci_field``) and
on xi_11 = (9 h_11 + kappa^2) / (2 K).  That layer is internally consistent:
the raised identities follow from g-/h-raising the blocks and the computed
divergences reproduce the closed right-hand sides at machine precision.  On
Berwald-Moor the divergences differentiate the raised table
y^m / (y^i sqrt(G_1111)) exactly to first order (``raised_table_grad``,
Taylor2's gradient rules in one broadcast pass, bit for bit the per-entry
Taylor2 quotient).  For non-Berwald-Moor tensors the honest Ricci
contraction feeds the same block formulas and divergences fall back to the
unreduced covariant definitions with finite differences.

Each closed formula is written once: 9 h_11 + kappa^2 is
``curvature.field_numerator`` and the closed conservation right-hand sides
are ``closed_rhs_of``.  ``xi_11`` and ``des_check`` read the time axis
from one ``TimeMetric.eval`` over their t, as the kernel does per chunk.

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

from .connection import apriori_nlc
from .curvature import FIELD_COEF, bm_s_raised_field, bm_s_ricci_field, field_numerator
from .errors import ConfigError, DomainError, InvariantError
from .geometry import (
    Connection,
    Geometry,
    Metric,
    _first_bad,
    batches,
    connection_batches,
    metric_batches,
    point_connection,
    point_metric,
    take,
)
from .jetcore import DIM, JetPoint, QuarticTensor, TimeAxis, TimeMetric, _refuse

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
    "xi_11",
    "grav_potential_of",
    "einstein_blocks_of",
    "conservation_residuals_of",
    "einstein_batches",
    "conservation_batches",
    "closed_rhs_of",
    "em_form_of",
    "raised_table_grad",
    "raised_divergence",
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
    """Computed divergence combinations and their closed right-hand sides."""

    t1: float
    ti: np.ndarray
    tyi: np.ndarray
    closed_t1: float
    closed_ti: np.ndarray
    closed_tyi: np.ndarray


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


def _xi(h11, kappa, k: float):
    if k == 0.0:
        raise ConfigError("einstein constant K must be nonzero")
    return field_numerator(h11, kappa) / (2.0 * k)


def xi_11(tm: TimeMetric, t, k: float):
    """xi_11 = (9 h_11 + kappa^2) / (2 K), the scalar in every diagonal block,
    at one t (a float) or over t of shape (N,)."""
    ax = tm.eval(t)
    return _xi(ax.h11, ax.kappa, k)


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
    """Bundles of the shallowest stage the Einstein blocks of G read, over the
    chunks of ``batches``: the metric stage on Berwald-Moor, whose blocks read
    the closed field table, and the full stage on a custom tensor, whose
    blocks read the honest contraction S^m_i(j)(m)."""
    return (metric_batches if G.is_berwald_moor else batches)(G, tm, t, y)


def einstein_blocks(G: QuarticTensor, tm: TimeMetric, p: JetPoint, k: float) -> EinsteinBlocks:
    """Stress-energy blocks at one point (see ``einstein_blocks_of``)."""
    (geo,) = einstein_batches(G, tm, [p.t], p.y)
    return take(einstein_blocks_of(geo, k), 0)


def raised_table_grad(y):
    """First-order partials of the Berwald-Moor raised table
    y^m / (y^i sqrt(G_1111)) over y of shape (N, 4): the partials
    d/dy^m of entry [m][i] as an (N, 4, 4) array indexed [point, m, i], then
    1/sqrt(G_1111) of shape (N,) and its gradient of shape (N, 4).

    The gradient rules of ``Taylor2.__mul__``, ``reciprocal`` and ``sqrt``
    are applied in the operand order of the per-entry Taylor2 quotient
    s[m] / s[i] / sqrt(s[0] s[1] s[2] s[3]), so every number equals that
    quotient's gradient bit for bit; no Hessian is formed.  The Taylor2
    chain's guards raise the same errors: y outside the positive cone, a
    product that is not positive (it can underflow to 0) before the square
    root, and a reciprocal of zero."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[-1] != DIM:
        raise DomainError(f"expected an (N, 4) batch, got shape {y.shape}")
    _refuse(~np.all(y > 0.0, axis=-1), y, DomainError, "seeds must lie in the positive cone, got")
    for i in range(DIM):
        _refuse(y[:, i] == 0.0, y[:, i], ZeroDivisionError, "reciprocal of a zero Taylor2 value")
    r = 1.0 / y  # 1/y^i, whose gradient is -(1/y^i)^2 e_i
    eye = np.eye(DIM)
    g, dg = y[:, 0], eye[0]  # y^1 y^2 y^3 y^4 and its gradient, product by product
    for i in range(1, DIM):
        g, dg = g * y[:, i], g[:, None] * eye[i] + y[:, i, None] * dg
    _refuse(g <= 0.0, g, DomainError, "sqrt of non-positive Taylor2 value")
    sq = np.sqrt(g)
    d_sq = (0.5 / sq)[:, None] * dg
    _refuse(sq == 0.0, sq, ZeroDivisionError, "reciprocal of a zero Taylor2 value")
    inv_sq = 1.0 / sq
    d_inv_sq = (-inv_sq * inv_sq)[:, None] * d_sq
    # entry [m][i] is (s[m] * inv[i]) * inv_sq; only its partial d/dy^m is read,
    # and s[m] has the unit gradient e_m, so d(s[m] inv[i])/dy^m is
    # y^m (-(1/y^i)^2 delta_mi) + (1/y^i) 1
    d_quot = y[:, :, None] * ((-r * r)[:, None, :] * eye) + r[:, None, :]
    quot = y[:, :, None] * r[:, None, :]
    return quot * d_inv_sq[:, :, None] + inv_sq[:, None, None] * d_quot, inv_sq, d_inv_sq


def raised_divergence(d_table, coef: np.ndarray) -> np.ndarray:
    """Sum over m of coef[m, i] d/dy^m table[m][i], an (N, 4) array, from the
    partials of ``raised_table_grad``: each partial is scaled by its
    coefficient, the same single multiplication as scaling the entry itself,
    and the sum runs in m-order."""
    scaled = d_table * coef
    return sum(scaled[:, m] for m in range(DIM))


def conservation_residuals_of(geo: Connection, k: float) -> ConservationResiduals:
    """Divergence combinations of the stress-energy components versus their
    closed right-hand sides, over the batch.

    For Berwald-Moor tensors the reduced covariant forms are differentiated
    exactly to first order (``raised_table_grad``), and the C- and L-terms
    the reduction drops are checked to vanish; they read only the connection
    stage.  Custom tensors use the unreduced definitions with central finite
    differences, whose blocks read the Ricci contraction of the full stage
    (``Geometry``).
    """
    xi = _xi(geo.h11, geo.kappa, k)
    dxi = (9.0 * geo.dh11 + 2.0 * geo.kappa * geo.dkappa) / (2.0 * k)
    closed_t1, closed_ti, closed_tyi = closed_rhs_of(geo, geo.scalars.g1111, geo.y, k)
    if geo.tensor.is_berwald_moor:
        t1, ti, tyi = _divergences_reduced(geo, k, xi, dxi)
        _guard_reduction_terms(geo, einstein_blocks_of(geo, k))
    else:
        t1, ti, tyi = _divergences_unreduced(geo, k, xi, dxi)
    return ConservationResiduals(
        t1=t1, ti=ti, tyi=tyi, closed_t1=closed_t1, closed_ti=closed_ti, closed_tyi=closed_tyi
    )


def closed_rhs_of(ax: TimeAxis, g1111, y, k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed right-hand sides (T1, Ti, Tyi) of the conservation laws over a
    batch, shapes (N,), (N, 4) and (N, 4), from the time axis, G_1111 of
    shape (N,) and y of shape (N, 4).

    T1  = (h^11)^2 h_11' (2 h_11'' - 3 h_11'^2 / h_11) / (8 K sqrt(G_1111))
    Ti  = kappa xi_11 / (18 sqrt(G_1111) y^i)
    Tyi = xi_11 / (6 sqrt(G_1111) y^i)
    """
    xi = _xi(ax.h11, ax.kappa, k)
    sq = np.sqrt(g1111)
    v_inv, dh = ax.h11_inv, ax.dh11
    t1 = (v_inv**2 / (8.0 * k)) * dh * (2.0 * ax.d2h11 - 3.0 * dh**2 / ax.h11) / sq
    ti = (ax.kappa * xi)[:, None] / (18.0 * sq[:, None] * y)
    tyi = xi[:, None] / (6.0 * sq[:, None] * y)
    return t1, ti, tyi


def conservation_batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Bundles of the shallowest stage the conservation residuals of G read,
    over the chunks of ``batches``: the connection stage on Berwald-Moor,
    whose reduced divergences read C, and the full stage on a custom tensor,
    whose unreduced divergences read the blocks' Ricci contraction."""
    return (connection_batches if G.is_berwald_moor else batches)(G, tm, t, y)


def conservation_residuals(G: QuarticTensor, tm: TimeMetric, p: JetPoint, k: float) -> ConservationResiduals:
    """Conservation residuals at one point (see ``conservation_residuals_of``)."""
    (geo,) = conservation_batches(G, tm, [p.t], p.y)
    return take(conservation_residuals_of(geo, k), 0)


def _divergences_reduced(geo: Metric, k: float, xi, dxi):
    """Reduced covariant divergences of the Berwald-Moor blocks over the batch,
    on the exact first-order partials of the raised table
    (``raised_table_grad``)."""
    d_table, inv_sq, div_delta = raised_table_grad(geo.y)
    div_s = raised_divergence(d_table, FIELD_COEF)
    kappa, h11, xi_c = geo.kappa[:, None], geo.h11[:, None], xi[:, None]
    kappa_sq = (geo.kappa * geo.kappa)[:, None]
    # T1 = delta(xi / sqrt(G)) / delta t with delta/delta t = d/dt + kappa y^p d/dy^p;
    # y^p d/dy^p is np.dot per point, because a stacked matmul or einsum sums
    # the four products in another order than the BLAS dot of one point
    y_grad = np.array([np.dot(y, g) for y, g in zip(geo.y, div_delta)])
    t1 = dxi * inv_sq + geo.kappa * xi * y_grad
    ti = (kappa / 3.0) * ((kappa_sq / (9.0 * k)) * div_s + xi_c * div_delta) + (h11 * kappa / (3.0 * k)) * div_s
    tyi = (kappa / 3.0) * (kappa / (3.0 * k)) * div_s + (h11 / k) * div_s + xi_c * div_delta
    return t1, ti, tyi


def _guard_reduction_terms(geo: Connection, blocks: EinsteinBlocks):
    """The reduced divergence forms drop C/L contraction terms; they vanish
    through the trace-free property of C and the raised-orthogonality
    identity, which is what this guard pins down."""
    c = geo.c
    trace = np.einsum("xmjm->xj", c)
    bad = ~(np.abs(trace).max(axis=1) <= 1e-9 * np.maximum(np.abs(c).max(axis=(1, 2, 3)), 1.0))
    for field in (blocks.raised_h, blocks.raised_mixed_t, blocks.raised_mixed_v, blocks.raised_vv):
        dropped = np.einsum("xmr,xrim->xi", field, c)
        bad |= ~(np.abs(dropped).max(axis=1) <= 1e-9 * np.maximum(np.abs(field).max(axis=(1, 2)), 1.0))
    if bad.any():
        y = _first_bad(geo.y, bad)
        raise InvariantError(f"the terms dropped by the reduced conservation divergences do not vanish at y={y}")


# the raised fields of the Einstein blocks that the unreduced divergences read
_RAISED = ("raised_h", "raised_mixed_t", "raised_mixed_v", "raised_vv")


def _divergences_unreduced(geo: Geometry, k: float, xi, dxi):
    """Unreduced covariant divergences with central finite differences in y.
    The eight shifted points of every point run through ``batches`` one
    chunk at a time, and only what the differences read is kept: G_1111 and
    the raised fields of the Einstein blocks."""
    n = len(geo)
    h = 1e-5 * geo.y  # step per direction
    shift = h[:, :, None] * np.eye(DIM)  # [point, direction, coordinate]
    ys = np.stack([geo.y[:, None, :] + shift, geo.y[:, None, :] - shift], axis=2)
    kept = []
    for shifted in batches(geo.tensor, geo.tm, np.repeat(geo.t, 2 * DIM), ys.reshape(-1, DIM)):
        b = einstein_blocks_of(shifted, k)
        kept.append([shifted.scalars.g1111] + [getattr(b, name) for name in _RAISED])
        del shifted, b  # so that no chunk's tables are alive while the next one's are built
    g1111, *raised = [np.concatenate(part) for part in zip(*kept)]
    del kept
    shifted_raised = dict(zip(_RAISED, raised))

    def deriv(field):
        """d field / dy^n at every point, arranged [point, n, ...]."""
        f = field.reshape((n, DIM, 2) + field.shape[1:])
        return (f[:, :, 0] - f[:, :, 1]) / (2.0 * h.reshape((n, DIM) + (1,) * (field.ndim - 1)))

    # T1: only delta T^1_1 / delta t survives (the other two fields vanish)
    d_invsq = deriv(1.0 / np.sqrt(g1111))
    t1 = dxi / np.sqrt(geo.scalars.g1111) + geo.kappa * xi * np.einsum("xn,xn->x", geo.y, d_invsq)

    b0 = einstein_blocks_of(geo, k)

    def divergence(name, conn, scale):
        """scale d T^m_i/dy^m + T^r_i conn^m_rm - T^m_r conn^r_im for the raised field `name`."""
        field = getattr(b0, name)
        trace = np.einsum("xmrm->xr", conn)
        d = np.einsum("xmmi->xi", deriv(shifted_raised[name]))
        return scale * d + np.einsum("xri,xr->xi", field, trace) - np.einsum("xmr,xrim->xi", field, conn)

    # horizontal parts with L and delta/delta x^m = (kappa/3) d/dy^m, vertical parts with C
    k3 = (geo.kappa / 3.0)[:, None]
    ti = divergence("raised_h", geo.l, k3) + divergence("raised_mixed_t", geo.c, 1.0)
    tyi = divergence("raised_mixed_v", geo.l, k3) + divergence("raised_vv", geo.c, 1.0)
    return t1, ti, tyi


def des_check(tm: TimeMetric, t_samples) -> DesCheck:
    """Residuals of the system
    dh [2 h'' - 3 (h')^2 / h] = 0   and   9 h + kappa^2 = 0
    over the samples; the second residual is bounded below by 9 h > 0, so the
    system is never solvable."""
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if ts.size == 0:
        raise ConfigError("des_check needs a nonempty sample list")
    ax = tm.eval(ts)
    r1 = ax.dh11 * (2.0 * ax.d2h11 - 3.0 * ax.dh11**2 / ax.h11)
    r2 = field_numerator(ax.h11, ax.kappa)
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
