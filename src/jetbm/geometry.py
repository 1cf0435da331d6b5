"""Batched closed-form geometry kernel.

One pass over a batch of points (t, y), with t of shape (N,) and y of shape
(N, 4), evaluates the y-derivative hierarchy once and feeds every layer from
it.  The kernel has three stages, each the one before it plus the next
objects of the chain:

* the metric stage (``Metric``, ``metric_batches``, ``point_metric``): the
  time-axis scalars (one ``TimeMetric.eval`` per chunk), the G-hierarchy, the
  fundamental metric and its inverse;
* the connection stage (``Connection``, ``connection_batches``,
  ``point_connection``): the metric stage, then the exact third and fourth
  y-derivative tables of g and the Cartan connection C^i_j(k), L^i_jk and
  G^k_j1;
* the full stage (``Geometry``, ``batches``, ``geometry``,
  ``point_geometry``): the connection stage, then the torsions, the
  curvature d-tensors (from dC, which the bundle does not keep) and the
  Ricci data.

Each reader builds the shallowest stage that holds what it reads: readers of
g, g^-1 and the G-hierarchy alone (the metric pair, the gravitational
potential, the gscalars and metric_taylor checks, and the einstein checks on
Berwald-Moor, whose blocks read the closed field table) build the metric
stage; readers of the connection alone (the Cartan connection, the
electromagnetic 2-form, the cartan, field_misc, conservation and decay
checks) the connection stage; every other reader the full one.  A
``Geometry`` is a ``Connection`` and a ``Connection`` is a ``Metric``, and a
field shared by two stages comes from the same lines in both.

The hierarchy is closed under differentiation,
    d G_1111 / dy^k = G_k111,   d G_i111 / dy^k = G_ik11,
    d G_ij11 / dy^k = G_ijk1,   d G_ijk1 / dy^l = 24 G_ijkl,
so the value, gradient and Hessian of
    g_ij = (G_ij11 - G_i111 G_j111 / (2 G_1111)) / (4 sqrt(G_1111))
follow by the product and chain rules applied to whole arrays: multivariate
second-order Taylor propagation in closed form (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  Taylor2 stays the
independent oracle for these tables and shares no code with this module.

Batches are processed in chunks of at most CHUNK points, and a point's
results do not depend on which batch it was computed in.  Every correctness
guard raises a typed error, so none of them vanishes under ``python -O``.
"""

from dataclasses import dataclass, fields
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegenerateDenominatorError, DomainError, InvariantError, SingularTensorError
from .jetcore import DIM, JetPoint, QuarticTensor, TimeAxis, TimeMetric

__all__ = [
    "CHUNK",
    "Connection",
    "GScalars",
    "Geometry",
    "Metric",
    "batches",
    "check_cone",
    "connection_batches",
    "g_hierarchy",
    "geometry",
    "metric_batches",
    "point_connection",
    "point_geometry",
    "point_metric",
    "quartic_form",
    "take",
]

# points per chunk: a chunk amortises numpy's per-call overhead, and each
# curvature-sized table holds 256 doubles (2 KiB) per point, so the chunk
# also bounds the kernel's working memory.  One 64-point full-stage chunk
# peaks at about 1.1 MiB of numpy allocations (tracemalloc, numpy 2.4); with
# G_ijkl copied per point, dC kept and no in-place sums, a 32-point chunk
# peaked at 0.85 MiB and a 64-point one at 1.7 MiB
CHUNK = 64

_SINGULAR_RTOL = 1e-12
_DEGENERATE_RTOL = 1e-12

# canonical-representative maps for the totally symmetric derivative tables:
# the flat index of each sorted triple (a, b, c) and of its swap (a, c, b),
# and flat (j, m, k) -> flat index of sorted(j, m, k); likewise for quadruples
_TRIPLES = np.array(list(combinations_with_replacement(range(DIM), 3))).T
_QUADS = np.array(list(combinations_with_replacement(range(DIM), 4))).T
_REP3 = np.ravel_multi_index(_TRIPLES, (DIM,) * 3)
_SWAP3 = np.ravel_multi_index(_TRIPLES[[0, 2, 1]], (DIM,) * 3)
_REP4 = np.ravel_multi_index(_QUADS, (DIM,) * 4)
_SWAP4 = np.ravel_multi_index(_QUADS[[0, 2, 1, 3]], (DIM,) * 4)
_CANON3 = np.ravel_multi_index(np.sort(np.indices((DIM,) * 3).reshape(3, -1), axis=0), (DIM,) * 3)
_CANON4 = np.ravel_multi_index(np.sort(np.indices((DIM,) * 4).reshape(4, -1), axis=0), (DIM,) * 4)
_EYE = np.eye(DIM)


def check_cone(y) -> np.ndarray:
    """y as a float 4-vector or an (N, 4) batch, every point in the open positive cone."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != DIM:
        raise DomainError(f"expected a 4-vector or an (N, 4) batch, got shape {y.shape}")
    if not (y > 0.0).all():
        bad = y if y.ndim == 1 else y[np.flatnonzero(~np.all(y > 0.0, axis=1))[0]]
        raise DomainError(f"y must lie in the open positive cone, got {bad}")
    return y


@dataclass(frozen=True)
class GScalars:
    """All y-contractions of G_pqrs used by the metric and its derivatives.

    Over a batch every field carries a leading batch axis.
    """

    g1111: float
    gi111: np.ndarray
    gij11: np.ndarray
    gijk1: np.ndarray
    gijkl: np.ndarray
    gij11_inv: np.ndarray
    det_gij11: float
    g_script: float
    gj_up: np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class Metric(TimeAxis):
    """The metric stage over a batch of N points: the time-axis scalars, the
    G-hierarchy, g_ij and g^jk.

    Array fields carry a leading axis of length N; ``take`` slices one point.
    """

    tensor: QuarticTensor
    tm: TimeMetric
    y: np.ndarray
    scalars: GScalars
    g_lo: np.ndarray
    g_up: np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class Connection(Metric):
    """The connection stage over a batch of N points: the metric stage, the
    derivative tables of g and the Cartan connection.

    Index conventions (after the batch axis):
        t3[j,m,k] = dg_jm/dy^k,  t4[j,m,k,n] = d2 g_jm/dy^k dy^n (totally symmetric)
        c[i,j,k] = C^i_j(k),  l[i,j,k] = L^i_jk,  gk[k,j] = G^k_j1
    """

    t3: np.ndarray
    t4: np.ndarray
    c: np.ndarray
    l: np.ndarray
    gk: np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class Geometry(Connection):
    """Every y-dependent object of the generic pipeline over a batch of N
    points: the connection stage plus the tables built on it.

    Index conventions (after the batch axis), besides the connection's:
        p_mixed[k,i,j] = P^(k)(1)_(1)i(j),  p_vert[k,i,j] = P^k(1)_i(j),  r_time[k,j] = R^(k)_(1)1j
        r_curv, p_curv, s_curv [l,i,j,k] = R^l_ijk, P^l_ij(k), S^l_i(j)(k)
        r_ij = R^m_ijm,  p_ricci = P^m_ij(m),  s_ricci = S^m_i(j)(m),  s_raised = g^mr s_ricci[r,i]
        sc = g^pq r_pq + h11 g^pq s_ricci_pq
    """

    p_mixed: np.ndarray
    p_vert: np.ndarray
    r_time: np.ndarray
    r_curv: np.ndarray
    p_curv: np.ndarray
    s_curv: np.ndarray
    r_ij: np.ndarray
    p_ricci: np.ndarray
    s_ricci: np.ndarray
    s_raised: np.ndarray
    sc: np.ndarray


def take(bundle, n: int):
    """Point n of a batched dataclass: array fields lose their batch axis (0-d
    results become floats), a nested GScalars is sliced alike, and any other
    field is kept."""
    out = {}
    for name in bundle.__dataclass_fields__:
        v = getattr(bundle, name)
        if isinstance(v, np.ndarray):
            v = v[n]
            if v.ndim == 0:
                v = float(v)
        elif isinstance(v, GScalars):
            v = take(v, n)
        out[name] = v
    return type(bundle)(**out)


def _concat(bundles: list):
    """Join batched dataclasses of one type along the batch axis."""
    first = bundles[0]
    out = {}
    for f in fields(first):
        v = getattr(first, f.name)
        parts = [getattr(b, f.name) for b in bundles]
        if isinstance(v, np.ndarray):
            v = np.concatenate(parts)
            v.flags.writeable = False
        elif isinstance(v, GScalars):
            v = _concat(parts)
        out[f.name] = v
    return type(first)(**out)


def _frozen(bundle):
    for f in fields(bundle):
        v = getattr(bundle, f.name)
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return bundle


def _first_bad(y: np.ndarray, bad: np.ndarray) -> np.ndarray:
    return y[np.flatnonzero(bad)[0]]


def quartic_form(G: QuarticTensor, y: np.ndarray) -> np.ndarray:
    """G_1111 = G_pqrs y^p y^q y^r y^s at y of shape (4,) or over y of shape
    (N, 4); ``g_hierarchy`` holds this value."""
    return np.einsum("pqrs,...p,...q,...r,...s->...", G.dense, y, y, y, y)


def g_hierarchy(G: QuarticTensor, y: np.ndarray) -> GScalars:
    """G-hierarchy at one point y of shape (4,), or batched over y of shape (N, 4).

    Each level is a direct polynomial contraction of G_pqrs with y:
    G_ijk1 = 24 G_ijkp y^p, G_ij11 = 12 G_ijpq y^p y^q,
    G_i111 = 4 G_ipqr y^p y^q y^r, G_1111 = G_pqrs y^p y^q y^r y^s,
    and G^j_1 and scriptG are matrix products.  These are the sums of the
    plain one-point formulas, so every value matches them bit for bit: checks
    such as einstein/raised-cross-check compare g^jk g_kl with delta at an
    absolute tolerance near rounding, and their verdicts follow the last bits.
    """
    D = G.dense
    gij11 = 12.0 * np.einsum("ijpq,...p,...q->...ij", D, y, y)
    gi111 = 4.0 * np.einsum("ipqr,...p,...q,...r->...i", D, y, y, y)

    det = np.linalg.det(gij11)
    scale = np.abs(gij11).max(axis=(-2, -1))
    singular = (scale == 0.0) | (np.abs(det) < _SINGULAR_RTOL * scale**4)
    if singular.any():
        k = np.flatnonzero(singular)[0]
        raise SingularTensorError(f"G_ij11 is singular at y={y.reshape(-1, DIM)[k]} (det={det.reshape(-1)[k]})")
    inv = np.linalg.inv(gij11)
    inv = 0.5 * (inv + inv.swapaxes(-1, -2))
    gj_up = (inv @ gi111[..., None])[..., 0]
    return GScalars(
        g1111=quartic_form(G, y),
        gi111=gi111,
        gij11=gij11,
        gijk1=24.0 * np.einsum("ijkp,...p->...ijk", D, y),
        # the constant 24 G_ijkl, one read-only zero-stride view over the batch
        gijkl=np.broadcast_to(24.0 * D, y.shape[:-1] + D.shape),
        gij11_inv=inv,
        det_gij11=det,
        g_script=0.5 * (gi111[..., None, :] @ inv @ gi111[..., :, None])[..., 0, 0],
        gj_up=gj_up,
    )


# -- closed-form Taylor propagation ------------------------------------------
# A jet is (value, gradient, Hessian) over the four fiber coordinates, with
# the derivative axes trailing the value's own axes.


def _jet_mul(a, b):
    av, ad, ah = a
    bv, bd, bh = b
    cross = ad[..., :, None] * bd[..., None, :]
    return (
        av * bv,
        av[..., None] * bd + bv[..., None] * ad,
        (av[..., None, None] * bh + bv[..., None, None] * ah) + (cross + cross.swapaxes(-1, -2)),
    )


def _jet_chain(a, f0, f1, f2):
    """Compose the jet a with a scalar map given its value and first two derivatives."""
    _, ad, ah = a
    hess = f1[..., None, None] * ah + f2[..., None, None] * (ad[..., :, None] * ad[..., None, :])
    return f0, f1[..., None] * ad, hess


def _metric_jet(s: GScalars):
    """Value, gradient and Hessian of g_ij from the G-hierarchy, as arrays
    [x,i,j], [x,i,j,k] and [x,i,j,k,n]."""
    # the jets of G_1111, G_i111 and G_j111, broadcast over the (i, j) axes
    g = s.g1111[:, None, None]
    g_jet = (g, s.gi111[:, None, None, :], s.gij11[:, None, None, :, :])
    pi_jet = (s.gi111[:, :, None], s.gij11[:, :, None, :], s.gijk1[:, :, None, :, :])
    pj_jet = (s.gi111[:, None, :], s.gij11[:, None, :, :], s.gijk1[:, None, :, :, :])
    # 1/(2G) and 1/(4 sqrt(G)) with their first two derivatives in G
    r = np.sqrt(g)
    inv_2g = _jet_chain(g_jet, 0.5 / g, -0.5 / (g * g), 1.0 / (g * g * g))
    inv_4sq = _jet_chain(g_jet, 0.25 / r, -0.125 / (r * g), 0.1875 / (r * g * g))
    qv, qd, qh = _jet_mul(_jet_mul(pi_jet, pj_jet), inv_2g)
    u = (s.gij11 - qv, s.gijk1 - qd, s.gijkl - qh)
    return _jet_mul(u, inv_4sq)


def _guard_mixed_partials(t3_full: np.ndarray, t4_full: np.ndarray, y: np.ndarray):
    """d g_ab/dy^c = d g_ac/dy^b and d2 g_ab/dy^c dy^d = d2 g_ac/dy^b dy^d on
    every sorted multi-index, before the canonical gather discards the copies."""
    n = len(t3_full)
    for full, rep, swap in ((t3_full, _REP3, _SWAP3), (t4_full, _REP4, _SWAP4)):
        flat = full.reshape(n, -1)
        val = flat[:, rep]
        bad = np.abs(flat[:, swap] - val) > 1e-9 * np.maximum(np.abs(val), 1.0)
        if bad.any():
            bad_y = _first_bad(y, bad.any(axis=1))
            raise InvariantError(f"mixed-partial consistency of the metric derivative tables fails at y={bad_y}")


def _guard_inverse(formula: np.ndarray, direct: np.ndarray, y: np.ndarray):
    """The inverse-metric formula agrees with direct inversion of g_lo."""
    scale = np.abs(direct).max(axis=(1, 2))
    bad = np.abs(formula - direct).max(axis=(1, 2)) > 1e-8 * np.maximum(scale, 1.0)
    if bad.any():
        raise InvariantError(f"inverse-metric formula disagrees with direct inversion at y={_first_bad(y, bad)}")


def _guard_torsions(p_mixed, c, r_time, kappa, dkappa, y):
    """P^(k)(1)_(1)i(j) = -(kappa/3) C^k_i(j) and R^(k)_(1)1j = ((kappa' - kappa^2)/3) delta."""
    k3 = (kappa / 3.0)[:, None, None, None]
    scale = np.maximum(np.abs(c).max(axis=(1, 2, 3)), 1.0)
    bad = np.abs(p_mixed + k3 * c).max(axis=(1, 2, 3)) > 1e-9 * scale * (1 + np.abs(kappa))
    closed_r = ((dkappa - kappa**2) / 3.0)[:, None, None] * _EYE
    bad |= np.abs(r_time - closed_r).max(axis=(1, 2)) > 1e-12 * (1 + np.abs(kappa) + np.abs(dkappa))
    if bad.any():
        raise InvariantError(f"torsion identities fail at y={_first_bad(y, bad)}")


def _metric(G: QuarticTensor, tm: TimeMetric, t: np.ndarray, y: np.ndarray) -> Metric:
    ax = tm.eval(t)
    s = g_hierarchy(G, y)
    if (s.g1111 <= 0.0).any():
        bad = s.g1111 <= 0.0
        raise DomainError(f"G_1111 must be positive, got {s.g1111[bad][0]} at y={_first_bad(y, bad)}")
    denom = s.g1111 - s.g_script
    degenerate = np.abs(denom) < _DEGENERATE_RTOL * np.abs(s.g1111)
    if degenerate.any():
        k = np.flatnonzero(degenerate)[0]
        raise DegenerateDenominatorError(
            f"G_1111 - scriptG = {denom[k]} is degenerate relative to G_1111 = {s.g1111[k]} at y={y[k]}"
        )

    # g_ij and g^jk are the closed formulas
    # g_ij = (G_ij11 - G_i111 G_j111 / (2 G_1111)) / (4 sqrt(G)) and
    # g^jk = 4 sqrt(G)[G^jk11 + G^j_1 G^k_1 / (2 (G_1111 - scriptG))], and
    # g^jk is guarded against direct inversion of g_lo
    sq = np.sqrt(s.g1111)[:, None, None]
    g_lo = (s.gij11 - s.gi111[:, :, None] * s.gi111[:, None, :] / (2.0 * s.g1111[:, None, None])) / (4.0 * sq)
    g_lo = 0.5 * (g_lo + g_lo.transpose(0, 2, 1))
    g_up = 4.0 * sq * (s.gij11_inv + s.gj_up[:, :, None] * s.gj_up[:, None, :] / (2.0 * denom[:, None, None]))
    g_up = 0.5 * (g_up + g_up.transpose(0, 2, 1))
    _guard_inverse(g_up, np.linalg.inv(g_lo), y)

    return _frozen(
        Metric(
            **{f.name: getattr(ax, f.name) for f in fields(TimeAxis)},
            tensor=G,
            tm=tm,
            y=y,
            scalars=_frozen(s),
            g_lo=g_lo,
            g_up=g_up,
        )
    )


def _connection(G: QuarticTensor, tm: TimeMetric, t: np.ndarray, y: np.ndarray) -> Connection:
    m = _metric(G, tm, t, y)
    n = len(t)
    kappa, g_up = m.kappa, m.g_up

    # the exact derivative tables of g; one representative per sorted
    # multi-index, stored into every permutation, keeps the downstream index
    # symmetries exact in floating point
    _, gd, gh = _metric_jet(m.scalars)
    _guard_mixed_partials(gd, gh, y)
    t3 = np.take(gd.reshape(n, -1), _CANON3, axis=1).reshape(n, DIM, DIM, DIM)
    t4 = np.take(gh.reshape(n, -1), _CANON4, axis=1).reshape(n, DIM, DIM, DIM, DIM)

    # Cartan connection: C^i_j(k) = (g^im/2) dg_jm/dy^k; for x-constant G the
    # three-term horizontal form with delta/delta x^k = (kappa/3) d/dy^k is
    # T3 + T3 - T3 = T3 exactly (T3 is totally symmetric), so L = (kappa/3) C
    c = 0.5 * np.einsum("xim,xjmk->xijk", g_up, t3)
    l = (kappa / 3.0)[:, None, None, None] * c
    # G^k_j1 = (g^km/2) delta g_mj/delta t with delta/delta t = d/dt + kappa y^p d/dy^p
    dg_dt = kappa[:, None, None] * np.einsum("xmjp,xp->xmj", t3, y)
    gk = 0.5 * np.einsum("xkm,xmj->xkj", g_up, dg_dt)

    return _frozen(
        Connection(**{f.name: getattr(m, f.name) for f in fields(Metric)}, t3=t3, t4=t4, c=c, l=l, gk=gk)
    )


def _geometry(G: QuarticTensor, tm: TimeMetric, t: np.ndarray, y: np.ndarray) -> Geometry:
    cn = _connection(G, tm, t, y)
    kappa, dkappa, h11, g_up = cn.kappa, cn.dkappa, cn.h11, cn.g_up
    t3, t4, c, l = cn.t3, cn.t4, cn.c, cn.l

    # dC^i_j(k)/dy^n from dg^im/dy^n = -g^ia (dg_ab/dy^n) g^bm; dL = (kappa/3) dC.
    # The 5-index sums run in place and left to right as written (a sum of
    # two terms may start from either, since IEEE addition commutes), and a
    # temporary is dropped once its last reader ran
    k3 = (kappa / 3.0)[:, None, None, None]
    k3_5 = k3[..., None]
    dgu = -np.einsum("xia,xabn,xbm->ximn", g_up, t3, g_up)
    dc = np.einsum("ximn,xjmk->xijkn", dgu, t3)
    dc += np.einsum("xim,xjmkn->xijkn", g_up, t4)
    dc *= 0.5
    dl = k3_5 * dc

    # torsions
    p_mixed = -l.transpose(0, 1, 3, 2)  # -L^k_{ji} arranged as [k,i,j]
    # delta M^k/delta x^j = (kappa/3) d(-kappa y^k)/dy^j; delta N/delta t = d/dt
    r_time = (-(kappa**2) / 3.0 + dkappa / 3.0)[:, None, None] * _EYE
    _guard_torsions(p_mixed, c, r_time, kappa, dkappa, y)

    # curvatures; S and R are exactly antisymmetric in (j,k) (X minus its swap)
    x = np.einsum("xmij,xlmk->xlijk", c, c)
    x += dc
    s_curv = x - x.swapaxes(3, 4)
    x = k3_5 * dl
    x += np.einsum("xmij,xlmk->xlijk", l, l)
    r_curv = x - x.swapaxes(3, 4)
    del x
    c_mixed = -k3 * c  # torsion P^(m)(1)_(1)j(k) arranged [m,j,k]
    cov = k3_5 * dc.swapaxes(3, 4)  # delta C^l_i(k) / delta x^j
    del dc
    cov += np.einsum("xmik,xlmj->xlijk", c, l)
    cov -= np.einsum("xlmk,xmij->xlijk", c, l)
    cov -= np.einsum("xlim,xmkj->xlijk", c, l)
    p_curv = np.subtract(dl, cov, out=cov)
    del dl
    p_curv += np.einsum("xlim,xmjk->xlijk", c, c_mixed)

    # Ricci contractions, raised vertical Ricci and the scalar curvature
    r_ij = np.einsum("xmijm->xij", r_curv)
    p_ricci = np.einsum("xmijm->xij", p_curv)
    s_ricci = np.einsum("xmijm->xij", s_curv)
    s_raised = np.einsum("xmr,xri->xmi", g_up, s_ricci)
    sc = np.einsum("xpq,xpq->x", g_up, r_ij) + h11 * np.einsum("xpq,xpq->x", g_up, s_ricci)

    return _frozen(
        Geometry(
            **{f.name: getattr(cn, f.name) for f in fields(Connection)},
            p_mixed=p_mixed,
            p_vert=c,
            r_time=r_time,
            r_curv=r_curv,
            p_curv=p_curv,
            s_curv=s_curv,
            r_ij=r_ij,
            p_ricci=p_ricci,
            s_ricci=s_ricci,
            s_raised=s_raised,
            sc=sc,
        )
    )


def _batch(t, y) -> tuple[np.ndarray, np.ndarray]:
    y = check_cone(y)
    if y.ndim == 1:
        y = y[None]
    if len(y) == 0:
        raise DomainError("expected at least one point, got an empty batch")
    t = np.array(t, dtype=float).reshape(-1)
    if t.shape != (len(y),):
        raise DomainError(f"t has {t.size} entries for {len(y)} points")
    return t, y.copy()


def _chunks(stage, G: QuarticTensor, tm: TimeMetric, t, y):
    t, y = _batch(t, y)
    for lo in range(0, len(t), CHUNK):
        yield stage(G, tm, t[lo : lo + CHUNK], y[lo : lo + CHUNK])


def batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Full bundles over consecutive chunks of at most CHUNK points, in order,
    so a caller holds one chunk's tables at a time."""
    return _chunks(_geometry, G, tm, t, y)


def connection_batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Connection-stage bundles over the same chunks as ``batches``."""
    return _chunks(_connection, G, tm, t, y)


def metric_batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Metric-stage bundles over the same chunks as ``batches``."""
    return _chunks(_metric, G, tm, t, y)


def geometry(G: QuarticTensor, tm: TimeMetric, t, y) -> Geometry:
    """One bundle over the batch t of shape (N,) and y of shape (N, 4)."""
    parts = list(batches(G, tm, t, y))
    return parts[0] if len(parts) == 1 else _concat(parts)


def point_geometry(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> Geometry:
    """The N = 1 bundle at the jet point p."""
    return geometry(G, tm, [p.t], p.y)


def point_connection(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> Connection:
    """The N = 1 connection-stage bundle at the jet point p."""
    (cn,) = connection_batches(G, tm, [p.t], p.y)
    return cn


def point_metric(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> Metric:
    """The N = 1 metric-stage bundle at the jet point p."""
    (m,) = metric_batches(G, tm, [p.t], p.y)
    return m
