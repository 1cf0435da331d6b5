"""Torsion and curvature d-tensors of the Cartan connection, the ten-case
closed form of the vertical curvature S, Ricci contractions, raised Ricci,
and scalar curvature.

Index conventions for arrays:
    C[i,j,k]      = C^i_j(k)
    S[l,i,j,k]    = S^l_i(j)(k)        (antisymmetric in j,k)
    P[l,i,j,k]    = P^l_ij(k)
    R[l,i,j,k]    = R^l_ijk
    s_raised[m,i] = S_i^m11 = g^mr S_ricci[r,i]

The generic objects are reads of the geometry kernel's bundle
(``geometry.py``); the Berwald-Moor closed tables ``bm_s_*`` accept one
point or an (N, 4) batch of points.

Two Ricci-level closed forms are provided for the Berwald-Moor case.
``bm_s_ricci_contracted`` is the exact contraction S^m_i(j)(m) of the closed
S tensor, with diagonal 3/(8 y_i^2).  ``bm_s_ricci_field`` is the table the
gravitational field-theory layer is built on, with diagonal 3/(4 y_i^2); that
layer (raised form, divergence identity, scalar curvature, Einstein blocks,
conservation laws) is internally consistent, but its diagonal is twice the
honest contraction.  The verification suite surfaces the discrepancy instead
of hiding it.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import point_geometry
from .jetcore import DIM, JetPoint, QuarticTensor, TimeMetric, check_cone

__all__ = [
    "TorsionSet",
    "CurvatureSet",
    "RicciSet",
    "torsions",
    "curvatures",
    "bm_s_closed",
    "classify_s_case",
    "ricci_scalar",
    "bm_s_ricci_contracted",
    "bm_s_ricci_field",
    "bm_s_raised_field",
    "scalar_curvature_field",
    "field_numerator",
    "FIELD_COEF",
]


@dataclass(frozen=True)
class TorsionSet:
    """The three non-vanishing torsion d-tensors.

    p_mixed[k,i,j] = P^(k)(1)_(1)i(j),  p_vert[k,i,j] = P^k(1)_i(j),
    r_time[k,j]    = R^(k)_(1)1j.
    """

    p_mixed: np.ndarray
    p_vert: np.ndarray
    r_time: np.ndarray


@dataclass(frozen=True)
class CurvatureSet:
    """The three non-vanishing curvature d-tensors R, P, S."""

    r: np.ndarray
    p: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class RicciSet:
    """Ricci contractions of the curvature d-tensors and the scalar curvature.

    All fields are the honest contractions of the generic pipeline:
    r_ij = R^m_ijm, p_ricci = P^m_ij(m), s_ricci = S^m_i(j)(m),
    s_raised = g-raising of s_ricci, and
    sc = g^pq r_pq + h11 g^pq s_ricci_pq.
    """

    r_ij: np.ndarray
    p_ricci: np.ndarray
    s_ricci: np.ndarray
    s_raised: np.ndarray
    sc: float


def torsions(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> TorsionSet:
    """Torsions from their defining formulas, checked against the closed forms.

    P^(k)(1)_(1)i(j) = dN^(k)_(1)i/dy^j - L^k_ji   (N is y-independent)
    R^(k)_(1)1j      = delta M^(k)_(1)1/delta x^j - delta N^(k)_(1)j/delta t
    P^k(1)_i(j)      = C^k_i(j)
    """
    geo = point_geometry(G, tm, p)
    return TorsionSet(p_mixed=geo.p_mixed[0], p_vert=geo.p_vert[0], r_time=geo.r_time[0])


def curvatures(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> CurvatureSet:
    """Curvature d-tensors from their defining formulas.

    S^l_i(j)(k) = dC^l_i(j)/dy^k - dC^l_i(k)/dy^j + C^m_i(j) C^l_m(k) - C^m_i(k) C^l_m(j)
    R^l_ijk     = delta L^l_ij/delta x^k - (j<->k) + L^m_ij L^l_mk - L^m_ik L^l_mj
    P^l_ij(k)   = dL^l_ij/dy^k - C^l_i(k)|j + C^l_i(m) P^(m)(1)_(1)j(k)
    with C^l_i(k)|j = delta C^l_i(k)/delta x^j + C^m_i(k) L^l_mj - C^l_m(k) L^m_ij - C^l_i(m) L^m_kj.

    C is totally symmetric, so dC^l_i(j)/dy^k is -2 C^l_m(k) C^m_i(j) plus a
    part totally symmetric in (i, j, k), which cancels wherever dC or
    dL = (kappa/3) dC enters these formulas antisymmetrized.  So all three
    read C and L alone, and
        S^l_i(j)(k) = C^m_i(k) C^l_m(j) - C^m_i(j) C^l_m(k)
    (Bao, Chern & Shen, An Introduction to Riemann-Finsler Geometry, GTM
    200, 2000).  S and R are exactly antisymmetric in (j,k) by construction
    (X minus its swap).
    """
    geo = point_geometry(G, tm, p)
    return CurvatureSet(r=geo.r_curv[0], p=geo.p_curv[0], s=geo.s_curv[0])


def classify_s_case(l: int, i: int, j: int, k: int) -> int:
    """Return which of the ten closed-form cases covers (l,i,j,k), 0-based
    indices; 0 means j == k (forced to zero by antisymmetry). Exactly one
    case matches any index combination with j != k."""
    if j == k:
        return 0
    matches = []
    if len({i, j, k, l}) == 4:
        matches.append(1)
    if i == j and len({i, k, l}) == 3:
        matches.append(2)
    if i == k and len({i, j, l}) == 3:
        matches.append(3)
    if l == i and len({i, j, k}) == 3:
        matches.append(4)
    if j == l and len({i, k, l}) == 3:
        matches.append(5)
    if k == l and len({i, j, l}) == 3:
        matches.append(6)
    if i == j and k == l and i != k:
        matches.append(7)
    if i == k and j == l and i != j:
        matches.append(8)
    if i == j == l and k != l:
        matches.append(9)
    if i == k == l and j != l:
        matches.append(10)
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


def ricci_scalar(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> RicciSet:
    """Honest Ricci contractions and scalar curvature of the generic pipeline."""
    geo = point_geometry(G, tm, p)
    return RicciSet(
        r_ij=geo.r_ij[0], p_ricci=geo.p_ricci[0], s_ricci=geo.s_ricci[0], s_raised=geo.s_raised[0], sc=float(geo.sc[0])
    )


def bm_s_ricci_contracted(y) -> np.ndarray:
    """Closed form of the contraction S^m_i(j)(m) for the Berwald-Moor case:
    (4 delta_ij - 1) / (8 y^i y^j), i.e. diagonal 3/(8 y_i^2), off-diagonal
    -1/(8 y_i y_j)."""
    y = check_cone(y)
    return (4.0 * np.eye(DIM) - 1.0) / (8.0 * y[..., :, None] * y[..., None, :])


def bm_s_ricci_field(y) -> np.ndarray:
    """Ricci table the field-theory layer is built on:
    (7 delta_ij - 1) / (8 y^i y^j).  Off-diagonal agrees with the honest
    contraction; the diagonal is exactly twice it."""
    y = check_cone(y)
    return (7.0 * np.eye(DIM) - 1.0) / (8.0 * y[..., :, None] * y[..., None, :])


# coefficients [m, i] of the raised field-theory Ricci table:
# S_i^m11 = FIELD_COEF[m, i] y^m / (y^i sqrt(G_1111))
FIELD_COEF = (5.0 - 14.0 * np.eye(DIM)) / 4.0


def bm_s_raised_field(y) -> np.ndarray:
    """g-raising of the field-theory Ricci table:
    S_i^m11 = (5 - 14 delta^m_i) / (4 sqrt(G_1111)) * y^m / y^i."""
    y = check_cone(y)
    sq = np.sqrt(np.prod(y, axis=-1))[..., None, None]
    return (FIELD_COEF / sq) * (y[..., :, None] * (1.0 / y)[..., None, :])


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
    ax = tm.eval(t)
    out = -field_numerator(ax.h11, ax.kappa) / np.sqrt(np.prod(y, axis=-1))
    return float(out) if np.ndim(out) == 0 else out
