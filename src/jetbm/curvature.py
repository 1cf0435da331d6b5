"""Torsion and curvature d-tensors of the Cartan connection and their
Ricci contractions, raised Ricci and scalar curvature.

Index conventions for arrays:
    C[i,j,k]      = C^i_j(k)
    S[l,i,j,k]    = S^l_i(j)(k)        (antisymmetric in j,k)
    P[l,i,j,k]    = P^l_ij(k)
    R[l,i,j,k]    = R^l_ijk
    s_raised[m,i] = S_i^m11 = g^mr S_ricci[r,i]

Each object is a per-point read of the geometry kernel's bundle
(``geometry.py``).  The Berwald-Moor closed forms, the ten-case S and both
Ricci-level tables (the honest contraction and the paper's field table,
whose diagonal is twice it) among them, are in ``closed``.
"""

from dataclasses import dataclass

import numpy as np

# bm_s_closed, classify_s_case and scalar_curvature_field stay names of this
# module: benchmarks/workloads.py and the benchmark tracer read them here
from .closed import bm_s_closed, classify_s_case, scalar_curvature_field
from .geometry import point_geometry
from .jetcore import JetPoint, QuarticTensor, TimeMetric

__all__ = [
    "TorsionSet",
    "CurvatureSet",
    "RicciSet",
    "torsions",
    "curvatures",
    "ricci_scalar",
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


def ricci_scalar(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> RicciSet:
    """Honest Ricci contractions and scalar curvature of the generic pipeline."""
    geo = point_geometry(G, tm, p)
    return RicciSet(
        r_ij=geo.r_ij[0], p_ricci=geo.p_ricci[0], s_ricci=geo.s_ricci[0], s_raised=geo.s_raised[0], sc=float(geo.sc[0])
    )
