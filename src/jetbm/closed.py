"""The Berwald-Moor closed forms, each written here once: the oracle the
generic pipeline is checked against, and the paper's field-theory layer.

For G_1111 = y^1 y^2 y^3 y^4 every distinguished object has a closed form in
y and the time axis alone.  This module imports nothing from jetbm but
``errors`` and ``jetcore``, so no closed form shares code with the generic
pipeline (``geometry``) or with the field layer that reads it.  The tables
accept one point or an (N, 4) batch of points unless they say otherwise,
and each reads G_1111 from y itself (``_g1111``), never from its caller, so
no value the generic pipeline computed enters a closed form.

The paper builds its field theory on a vertical Ricci table whose diagonal
is twice the honest contraction S^m_i(j)(m) of the closed S.  Both sides
are here, side by side, and where only a coefficient differs they share
one body:

    quantity               honest contraction of S       paper's field layer
    Ricci table            bm_s_ricci_contracted         bm_s_ricci_field
      (d delta_ij - 1)     d = 4, diagonal 3/(8 y_i^2)   d = 7, diagonal 3/(4 y_i^2)
      / (8 y^i y^j)
    raised coefficients    CONTRACTED_COEF               FIELD_COEF
      c[m, i] of S_i^m11   (2 - 8 delta)/4               (5 - 14 delta)/4
    div dS^m_i/dy^m        raised_divergence with        field_divergence,
      of the raised table  CONTRACTED_COEF,              3 / (sqrt(G_1111) y^i)
                           (3/2) / (sqrt(G_1111) y^i)
    scalar curvature       scalar_curvature_contracted   scalar_curvature_field
      -numerator           6 h_11 + (2/3) kappa^2        9 h_11 + kappa^2
      / sqrt(G_1111)                                     (field_numerator)

where S_i^m11 = c[m, i] y^m / (y^i sqrt(G_1111)).  The off-diagonal Ricci
entries -1/(8 y^i y^j) agree.  xi_11 and its t-derivative, the conservation
right-hand sides (``closed_rhs_of``) and the h_11 system under which they
vanish (``des_residuals``) are the paper's side alone.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError, DomainError, refuse
from .jetcore import DIM, TimeAxis, TimeMetric, check_cone

# --------------------------------------------------------------------------
# the metric and the G-hierarchy


def _g1111(y):
    """G_1111 = y^1 y^2 y^3 y^4, the product over y's last axis."""
    return np.prod(y, axis=-1)


def _sqrt_g1111(y):
    """sqrt(G_1111) from y, for every closed value that divides by it
    (``raised_table_grad`` forms its own, beside its gradient)."""
    return np.sqrt(_g1111(y))


@dataclass(frozen=True)
class MetricPair:
    """The fundamental metric g_ij and its inverse g^jk, both symmetric."""

    g_lo: np.ndarray
    g_up: np.ndarray


def bm_metric_closed(y) -> MetricPair:
    """Berwald-Moor closed forms:
    g_ij = (1 - 2 delta_ij) sqrt(G_1111) / (8 y^i y^j),
    g^jk = 2 (1 - 2 delta_jk) y^j y^k / sqrt(G_1111)   (no sums).
    y may be one point or an (N, 4) batch.
    """
    y = check_cone(y)
    sq = _sqrt_g1111(y)[..., None, None]
    sign = 1.0 - 2.0 * np.eye(DIM)
    yy = y[..., :, None] * y[..., None, :]
    g_lo = sign * sq / (8.0 * yy)
    g_up = 2.0 * sign * yy / sq
    return MetricPair(g_lo=g_lo, g_up=g_up)


def bm_hierarchy_closed(y):
    """The closed G-hierarchy scalars over y of shape (N, 4):
    G^jk11 = (1 - 3 delta_jk) y^j y^k / (3 G_1111), det G_ij11 = -3 G_1111^2,
    scriptG = (2/3) G_1111 and G^j_1 = y^j / 3, in the order of the
    ``GScalars`` fields."""
    g1111 = _g1111(y)
    inv = (1.0 - 3.0 * np.eye(DIM)) * y[:, :, None] * y[:, None, :] / (3.0 * g1111[:, None, None])
    return inv, -3.0 * g1111**2, (2.0 / 3.0) * g1111, y / 3.0


# --------------------------------------------------------------------------
# the Cartan connection and the vertical curvature


def a_table() -> np.ndarray:
    """Dense coefficient table A^i_{jk} = (2 d^i_j + 2 d^i_k + 2 d_jk - 8 d^i_j d_jk - 1)/8.

    Values: -1/8 on distinct triples, +1/8 when exactly two indices agree,
    -3/8 on the diagonal i = j = k.
    """
    d = np.eye(DIM)
    ij, ik, jk = d[:, :, None], d[:, None, :], d[None, :, :]
    A = (2 * ij + 2 * ik + 2 * jk - 8 * ij * jk - 1) / 8.0
    A.flags.writeable = False
    return A


_A = a_table()


def bm_c_closed(y) -> np.ndarray:
    """C^i_j(k) = A^i_jk y^i / (y^j y^k) at one point or over an (N, 4) batch;
    L^i_jk = (kappa/3) C^i_j(k) and G^k_j1 = 0."""
    y = check_cone(y)
    return _A * y[..., :, None, None] / (y[..., None, :, None] * y[..., None, None, :])


def classify_s_case(l: int, i: int, j: int, k: int) -> int:
    """Return which of the ten closed-form cases covers (l,i,j,k), 0-based
    indices; 0 means j == k (forced to zero by antisymmetry). Exactly one
    case matches any index combination with j != k."""
    if j == k:
        return 0
    # case n is hit when the n-th condition holds
    hits = (
        len({i, j, k, l}) == 4,
        i == j and len({i, k, l}) == 3,
        i == k and len({i, j, l}) == 3,
        l == i and len({i, j, k}) == 3,
        j == l and len({i, k, l}) == 3,
        k == l and len({i, j, l}) == 3,
        i == j and k == l and i != k,
        i == k and j == l and i != j,
        i == j == l and k != l,
        i == k == l and j != l,
    )
    matches = [case for case, hit in enumerate(hits, start=1) if hit]
    if len(matches) != 1:
        raise AssertionError(f"case table must cover (l={l},i={i},j={j},k={k}) exactly once, got {matches}")
    return matches[0]


# the nonzero cases of the ten-case closed form, as functions of
# (y^l, y^i, y^j, y^k), and their index sets tabulated once from classify_s_case
_S_ENTRIES = {
    2: lambda yl, yi, yj, yk: -yl / (16.0 * yi**2 * yk),
    3: lambda yl, yi, yj, yk: yl / (16.0 * yi**2 * yj),
    5: lambda yl, yi, yj, yk: 1.0 / (16.0 * yi * yk),
    6: lambda yl, yi, yj, yk: -1.0 / (16.0 * yi * yj),
    7: lambda yl, yi, yj, yk: 1.0 / (8.0 * yi**2),
    8: lambda yl, yi, yj, yk: -1.0 / (8.0 * yi**2),
}
_S_CASE = np.array([classify_s_case(*idx) for idx in product(range(DIM), repeat=4)]).reshape((DIM,) * 4)
_S_INDEX = {case: np.nonzero(_S_CASE == case) for case in _S_ENTRIES}


def bm_s_closed(y) -> np.ndarray:
    """All 256 entries of S^l_i(j)(k) from the ten-case closed form, at one
    point or over an (N, 4) batch; cases 0, 1, 4, 9 and 10 vanish."""
    y = check_cone(y)
    S = np.zeros(y.shape[:-1] + (DIM,) * 4)
    for case, entry in _S_ENTRIES.items():
        idx = _S_INDEX[case]
        S[(..., *idx)] = entry(*(y[..., a] for a in idx))
    return S


# --------------------------------------------------------------------------
# the Ricci level: the honest contraction and the paper's field table


def _ricci(d: float, y) -> np.ndarray:
    """(d delta_ij - 1) / (8 y^i y^j)."""
    y = check_cone(y)
    return (d * np.eye(DIM) - 1.0) / (8.0 * y[..., :, None] * y[..., None, :])


def bm_s_ricci_contracted(y) -> np.ndarray:
    """Closed form of the contraction S^m_i(j)(m): (4 delta_ij - 1) /
    (8 y^i y^j), i.e. diagonal 3/(8 y_i^2), off-diagonal -1/(8 y_i y_j)."""
    return _ricci(4.0, y)


def bm_s_ricci_field(y) -> np.ndarray:
    """Ricci table the field-theory layer is built on: (7 delta_ij - 1) /
    (8 y^i y^j).  Off-diagonal agrees with the honest contraction; the
    diagonal is exactly twice it."""
    return _ricci(7.0, y)


# coefficients [m, i] of the g-raised Ricci tables,
# S_i^m11 = coef[m, i] y^m / (y^i sqrt(G_1111)): the field table's and the
# honest contraction's
FIELD_COEF = (5.0 - 14.0 * np.eye(DIM)) / 4.0
CONTRACTED_COEF = (2.0 - 8.0 * np.eye(DIM)) / 4.0


def bm_s_raised_field(y) -> np.ndarray:
    """g-raising of the field-theory Ricci table:
    S_i^m11 = (5 - 14 delta^m_i) / (4 sqrt(G_1111)) * y^m / y^i."""
    y = check_cone(y)
    sq = _sqrt_g1111(y)[..., None, None]
    return (FIELD_COEF / sq) * (y[..., :, None] * (1.0 / y)[..., None, :])


def raised_table_grad(y):
    """First-order partials of the Berwald-Moor raised table
    y^m / (y^i sqrt(G_1111)) over y of shape (N, 4): the partials
    d/dy^m of entry [m][i] as an (N, 4, 4) array indexed [point, m, i].

    The gradient rules of ``Taylor2.__mul__``, ``reciprocal`` and ``sqrt``
    are applied in the operand order of the per-entry Taylor2 quotient
    s[m] / s[i] / sqrt(s[0] s[1] s[2] s[3]), so every number equals that
    quotient's gradient bit for bit; no Hessian is formed.  Its refusals are
    that quotient's: a y outside the cone (``check_cone``) and a product
    y^1 y^2 y^3 y^4 that underflows to 0 (``Taylor2.sqrt``'s DomainError);
    past them no y^i and no square root is zero."""
    y = check_cone(y)
    if y.ndim != 2:
        raise DomainError(f"expected an (N, 4) batch, got shape {y.shape}")
    r = 1.0 / y  # 1/y^i, whose gradient is -(1/y^i)^2 e_i
    eye = np.eye(DIM)
    g, dg = y[:, 0], eye[0]  # y^1 y^2 y^3 y^4 and its gradient, product by product
    for i in range(1, DIM):
        g, dg = g * y[:, i], g[:, None] * eye[i] + y[:, i, None] * dg
    refuse(~(g > 0.0), DomainError, "sqrt of non-positive Taylor2 value", value=g)
    sq = np.sqrt(g)
    d_sq = (0.5 / sq)[:, None] * dg
    inv_sq = 1.0 / sq
    d_inv_sq = (-inv_sq * inv_sq)[:, None] * d_sq
    # entry [m][i] is (s[m] * inv[i]) * inv_sq; only its partial d/dy^m is read,
    # and s[m] has the unit gradient e_m, so d(s[m] inv[i])/dy^m is
    # y^m (-(1/y^i)^2 delta_mi) + (1/y^i) 1
    d_quot = y[:, :, None] * ((-r * r)[:, None, :] * eye) + r[:, None, :]
    quot = y[:, :, None] * r[:, None, :]
    return quot * d_inv_sq[:, :, None] + inv_sq[:, None, None] * d_quot


def raised_divergence(d_table, coef: np.ndarray) -> np.ndarray:
    """Sum over m of coef[m, i] d/dy^m table[m][i], an (N, 4) array, from the
    partials of ``raised_table_grad``: each partial is scaled by its
    coefficient, the same single multiplication as scaling the entry itself,
    and the sum runs in m-order.  With ``FIELD_COEF`` it is
    ``field_divergence`` to rounding; with ``CONTRACTED_COEF`` half of it."""
    scaled = d_table * coef
    return sum(scaled[:, m] for m in range(DIM))


def field_divergence(y) -> np.ndarray:
    """3 / (sqrt(G_1111) y^i), the paper's closed divergence dS^m_i/dy^m of
    the raised field table, over y of shape (N, 4)."""
    return 3.0 / (_sqrt_g1111(y)[:, None] * y)


# --------------------------------------------------------------------------
# the scalar curvatures -numerator / sqrt(G_1111) and the field layer's scalars


def _scalar_curvature(numerator, y):
    return -numerator / _sqrt_g1111(y)


def field_numerator(h11, kappa):
    """9 h_11 + kappa^2, the numerator of the field-theory scalar curvature and
    of xi_11; kappa^2 is rounded as kappa * kappa wherever it enters."""
    return 9.0 * h11 + kappa * kappa


def scalar_curvature_field(tm: TimeMetric, t, y):
    """Field-theory scalar curvature -(9 h_11 + kappa^2) / sqrt(G_1111), at
    one point (a float) or over a batch, t of shape (N,) and y of shape
    (N, 4).  The time-axis scalars come from one ``tm.eval``, so a batch
    reproduces its points bit for bit."""
    y = check_cone(y)
    out = scalar_curvature_field_of(tm.eval(t), y)
    return float(out) if np.ndim(out) == 0 else out


def scalar_curvature_field_of(ax: TimeAxis, y):
    """``scalar_curvature_field`` from the time axis at y's points (any
    bundle that holds h11 and kappa) and y, which it takes to be in the
    cone already."""
    return _scalar_curvature(field_numerator(ax.h11, ax.kappa), y)


def scalar_curvature_contracted(h11, kappa, y):
    """Scalar curvature g^pq R_pq + h_11 g^pq S_pq of the honest contraction,
    -(6 h_11 + (2/3) kappa^2) / sqrt(G_1111), over h11 and kappa of shape
    (N,) and y of shape (N, 4)."""
    return _scalar_curvature(6.0 * h11 + (2.0 / 3.0) * kappa**2, y)


def _xi(h11, kappa, k: float):
    if k == 0.0:
        raise ConfigError("einstein constant K must be nonzero")
    return field_numerator(h11, kappa) / (2.0 * k)


def xi_11(tm: TimeMetric, t, k: float):
    """xi_11 = (9 h_11 + kappa^2) / (2 K), the scalar in every diagonal block,
    at one t (a float) or over t of shape (N,)."""
    return xi_11_of(tm.eval(t), k)


def xi_11_of(ax: TimeAxis, k: float):
    """``xi_11`` from the time axis (any bundle that holds h11 and kappa)."""
    return _xi(ax.h11, ax.kappa, k)


def xi_rate(ax: TimeAxis, k: float):
    """d xi_11 / dt = (9 h_11' + 2 kappa kappa') / (2 K), from the time axis."""
    return (9.0 * ax.dh11 + 2.0 * ax.kappa * ax.dkappa) / (2.0 * k)


def _h11_bracket(ax: TimeAxis):
    """2 h_11'' - 3 h_11'^2 / h_11, the factor of h_11' in T1 and in the
    first h_11 equation."""
    return 2.0 * ax.d2h11 - 3.0 * ax.dh11**2 / ax.h11


def closed_rhs_of(ax: TimeAxis, y, k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed right-hand sides (T1, Ti, Tyi) of the conservation laws over a
    batch, shapes (N,), (N, 4) and (N, 4), from the time axis and y of shape
    (N, 4).

    T1  = (h^11)^2 h_11' (2 h_11'' - 3 h_11'^2 / h_11) / (8 K sqrt(G_1111))
    Ti  = kappa xi_11 / (18 sqrt(G_1111) y^i)
    Tyi = xi_11 / (6 sqrt(G_1111) y^i)
    """
    xi = _xi(ax.h11, ax.kappa, k)
    sq = _sqrt_g1111(y)
    t1 = (ax.h11_inv**2 / (8.0 * k)) * ax.dh11 * _h11_bracket(ax) / sq
    ti = (ax.kappa * xi)[:, None] / (18.0 * sq[:, None] * y)
    tyi = xi[:, None] / (6.0 * sq[:, None] * y)
    return t1, ti, tyi


def des_residuals(ax: TimeAxis):
    """Residuals of the system under which the closed right-hand sides
    vanish: h_11' (2 h_11'' - 3 h_11'^2 / h_11) = 0 for T1 and
    9 h_11 + kappa^2 = 0 for Ti and Tyi, from the time axis."""
    return ax.dh11 * _h11_bracket(ax), field_numerator(ax.h11, ax.kappa)
