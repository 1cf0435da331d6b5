"""Christoffel symbol of h_11, the two nonlinear connections, adapted
frame/coframe coefficients, and the Cartan canonical connection.

The adapted operators induced by a nonlinear connection (M, N) are
    delta/delta t   = d/dt   - M^p d/dy^p
    delta/delta x^j = d/dx^j - N^p_j d/dy^p
    delta y^i       = dy^i + M^i dt + N^i_j dx^j
For the a-priori connection M^i = -kappa y^i and N^i_j = -(kappa/3) delta^i_j,
so delta y^i = dy^i - kappa y^i dt - (kappa/3) dx^i.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import point_connection
from .jetcore import DIM, JetPoint, QuarticTensor, TimeAxis, TimeMetric, check_cone

__all__ = [
    "NonlinearConnection",
    "CartanConnection",
    "christoffel_time",
    "canonical_nlc",
    "apriori_nlc",
    "adapted_frame",
    "adapted_coframe",
    "cartan_connection",
    "bm_cartan_closed",
    "a_table",
]


def christoffel_time(tm: TimeMetric, t) -> TimeAxis:
    """kappa = (h^11 / 2) dh_11/dt and dkappa/dt, with the rest of the time
    axis, at a float t or over t of shape (N,): ``tm.eval(t)``."""
    return tm.eval(t)


@dataclass(frozen=True)
class NonlinearConnection:
    """Coefficients (M^i, N^i_j) defining the horizontal distribution, over a
    batch: m of shape (N, 4) and n of shape (N, 4, 4)."""

    m: np.ndarray
    n: np.ndarray


def canonical_nlc(kappa: np.ndarray, y: np.ndarray) -> NonlinearConnection:
    """Canonical connection: M = -kappa y, N = 0 (spatially trivial), from
    kappa of shape (N,) and y of shape (N, 4)."""
    return NonlinearConnection(m=-kappa[:, None] * y, n=np.zeros((len(y), DIM, DIM)))


def apriori_nlc(kappa: np.ndarray, y: np.ndarray) -> NonlinearConnection:
    """A-priori connection: M = -kappa y, N = -(kappa/3) identity, from kappa
    of shape (N,) and y of shape (N, 4)."""
    return NonlinearConnection(m=-kappa[:, None] * y, n=-(kappa / 3.0)[:, None, None] * np.eye(DIM))


def adapted_frame(nlc: NonlinearConnection) -> np.ndarray:
    """Rows are (delta/delta t, delta/delta x^i, d/dy^i) in (d/dt, d/dx, d/dy)
    components, one (9, 9) frame per point of the batch."""
    F = np.tile(np.eye(1 + 2 * DIM), (len(nlc.m), 1, 1))
    F[:, 0, 1 + DIM :] = -nlc.m
    F[:, 1 : 1 + DIM, 1 + DIM :] = -nlc.n.swapaxes(1, 2)
    return F


def adapted_coframe(nlc: NonlinearConnection) -> np.ndarray:
    """Rows are (dt, dx^i, delta y^i) in (dt, dx, dy) components, one (9, 9)
    coframe per point of the batch."""
    C = np.tile(np.eye(1 + 2 * DIM), (len(nlc.m), 1, 1))
    C[:, 1 + DIM :, 0] = nlc.m
    C[:, 1 + DIM :, 1 : 1 + DIM] = nlc.n
    return C


def a_table() -> np.ndarray:
    """Dense coefficient table A^i_{jk} = (2 d^i_j + 2 d^i_k + 2 d_jk - 8 d^i_j d_jk - 1)/8.

    Values: -1/8 on distinct triples, +1/8 when exactly two indices agree,
    -3/8 on the diagonal i = j = k.
    """
    d = np.eye(DIM)
    A = np.empty((DIM, DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                A[i, j, k] = (2 * d[i, j] + 2 * d[i, k] + 2 * d[j, k] - 8 * d[i, j] * d[j, k] - 1) / 8.0
    A.flags.writeable = False
    return A


_A = a_table()


@dataclass(frozen=True)
class CartanConnection:
    """Adapted components (kappa, G^k_j1, L^i_jk, C^i_j(k)) of the Cartan connection."""

    kappa: float
    gk: np.ndarray
    l: np.ndarray
    c: np.ndarray


def cartan_connection(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> CartanConnection:
    """Cartan canonical connection from the generic adapted-component formulas.

    C^i_j(k) = (g^im / 2) dg_jm/dy^k   (one-term reduction)
    G^k_j1   = (g^km / 2) delta g_mj / delta t,  delta/delta t = d/dt + kappa y^p d/dy^p
    L^i_jk   = (g^im / 2)(dg_jm/dx^k + ... ) with delta/delta x^k = (kappa/3) d/dy^k
    for x-constant G. G^k_j1 is computed honestly (g is 0-homogeneous in y, so
    it comes out zero) rather than assumed.
    """
    cn = point_connection(G, tm, p)
    return CartanConnection(kappa=float(cn.kappa[0]), gk=cn.gk[0], l=cn.l[0], c=cn.c[0])


def _bm_c_closed(y) -> np.ndarray:
    """C^i_j(k) = A^i_jk y^i / (y^j y^k) at one point or over an (N, 4) batch."""
    y = check_cone(y)
    return _A * y[..., :, None, None] / (y[..., None, :, None] * y[..., None, None, :])


def bm_cartan_closed(tm: TimeMetric, p: JetPoint) -> CartanConnection:
    """Closed Berwald-Moor components: C^i_j(k) = A^i_jk y^i / (y^j y^k),
    L = (kappa/3) C, G^k_j1 = 0."""
    kappa = christoffel_time(tm, p.t).kappa
    C = _bm_c_closed(p.y)
    return CartanConnection(kappa=kappa, gk=np.zeros((DIM, DIM)), l=(kappa / 3.0) * C, c=C)
