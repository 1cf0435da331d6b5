"""G-scalar hierarchy, the fundamental metric g_ij and its inverse, and g
as Taylor2 values.

Conventions (all indices 0-based in arrays, summation written out):
    G_1111 = G_pqrs y^p y^q y^r y^s
    G_i111 = d G_1111 / dy^i      = 4  G_ipqr y^p y^q y^r
    G_ij11 = d2 G_1111 / dy^i dy^j = 12 G_ijpq y^p y^q
    g_ij   = (1 / (4 sqrt(G_1111))) [ G_ij11 - G_i111 G_j111 / (2 G_1111) ]
    g^jk   = 4 sqrt(G_1111) [ G^jk11 + G^j_1 G^k_1 / (2 (G_1111 - scriptG)) ]
with G^j_1 = G^jp11 G_p111 and 2 scriptG = G^pq11 G_p111 G_q111.

The Berwald-Moor closed forms, ``bm_metric_closed`` among them, are in
``closed``.
"""

# bm_metric_closed stays a name of this module: benchmarks/workloads.py and
# the benchmark tracer read it here
from .closed import MetricPair, bm_metric_closed
from .errors import DomainError, refuse
from .geometry import GScalars, g_hierarchy, point_metric, third_derivative
from .jetcore import DIM, JetPoint, QuarticTensor, Taylor2, TimeMetric, check_cone

__all__ = [
    "GScalars",
    "g_scalars",
    "metric_pair",
    "metric_taylor2",
]


def g_scalars(G: QuarticTensor, y) -> GScalars:
    """Contract G_pqrs with y to all orders: one point of the kernel's G-hierarchy."""
    y = check_cone(y)
    if y.shape != (DIM,):
        raise DomainError(f"expected a 4-vector, got shape {y.shape}")
    return g_hierarchy(G, y)


def metric_pair(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> MetricPair:
    """Fundamental metric and inverse from the generic closed formulas.

    The inverse is also cross-checked against direct 4x4 inversion of g_lo,
    which guards against index-convention mistakes in scriptG and G^j_1.
    """
    m = point_metric(G, tm, p)
    return MetricPair(g_lo=m.g_lo[0], g_up=m.g_up[0])


def metric_taylor2(G: QuarticTensor, y) -> list[list[Taylor2]]:
    """g_ij(y) as Taylor2 values: exact entries, gradients and Hessians.

    The ingredients are seeded with their exact polynomial-contraction Taylor
    data (G_1111 has gradient G_i111 and Hessian G_ij11, and so on down the
    hierarchy), so no expression tree over raw seeds is needed.
    """
    y = check_cone(y)
    s = g_scalars(G, y)
    refuse(~(s.g1111 > 0.0), DomainError, "G_1111 must be positive", y=y, G_1111=s.g1111)
    gijk1 = third_derivative(G, y)
    G_t = Taylor2(s.g1111, s.gi111, s.gij11)
    Gi_t = [Taylor2(s.gi111[i], s.gij11[i], gijk1[i]) for i in range(DIM)]
    inv_2g = (G_t * 2.0).reciprocal()
    inv_4sq = (G_t.sqrt() * 4.0).reciprocal()
    g: list[list[Taylor2]] = [[None] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            Gij_t = Taylor2(s.gij11[i, j], gijk1[i, j], s.gijkl[i, j])
            gij = (Gij_t - Gi_t[i] * Gi_t[j] * inv_2g) * inv_4sq
            g[i][j] = gij
            g[j][i] = gij
    return g
