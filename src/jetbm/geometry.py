"""Batched closed-form geometry kernel.

One pass over a batch of points (t, y), with t of shape (N,) and y of shape
(N, 4), evaluates the y-derivative hierarchy once and feeds every layer from
it.  The kernel has one chain, ``_chunks(depth, ...)``, of three stages;
each stage's bundle is the one before it plus the next objects of the chain:

* depth 0, the metric stage (``Metric``, ``metric_batches``,
  ``point_metric``): the time-axis scalars (one ``TimeMetric.eval`` per
  metric batch), the G-hierarchy up to G_ij11 with 24 G_ijkl, the
  fundamental metric and its inverse;
* depth 1, the connection stage (``Connection``, ``connection_batches``,
  ``point_connection``): the metric stage, then G_ijk1
  (``third_derivative``), the first-order packed jet of g, its first
  y-derivative table t3 and the Cartan connection C^i_j(k), L^i_jk and
  G^k_j1;
* depth 2, the full stage (``Geometry``, ``batches``, ``geometry``,
  ``point_geometry``): the connection stage, then the torsions, the
  curvature d-tensors and the Ricci data, from C and L alone.

C^i_j(k) = (g^im/2) dg_jm/dy^k is totally symmetric, so the curvatures read
dC only antisymmetrized, where its second derivative of g cancels: the
vertical curvature is S^l_i(j)(k) = C^m_i(k) C^l_m(j) - C^m_i(j) C^l_m(k),
and R and P follow alike, as dL = (kappa/3) dC (Bao, Chern & Shen, *An
Introduction to Riemann-Finsler Geometry*, GTM 200, 2000).  So every stage
runs from the first-order jet.  The one reader of the second derivative of
g is ``raised_ricci_divergence``, the exact dS^m_i/dy^m of the raised Ricci
table over a full bundle, which the conservation laws of a custom tensor
read: it runs the second-order packed jet over the bundle's own
G-hierarchy and gathers the second y-derivative table t4 for dC.

Each reader builds the shallowest stage that holds what it reads: readers
of g, g^-1 and the G-hierarchy alone (the metric pair, the gravitational
potential, the gscalars and metric_taylor checks, and the einstein checks on
Berwald-Moor, whose blocks read the closed field table) the metric stage;
readers of the connection alone (the Cartan connection, the electromagnetic
2-form, the cartan, field_misc, conservation and decay checks) the
connection stage; every other reader the full stage.  A ``Geometry`` is a
``Connection`` and a ``Connection`` is a ``Metric``, and a field shared by
two stages comes from the same lines in both.

The connection stage (``_connection``) runs the first-order packed jet and
checks its half of the mixed-partial guard; ``raised_ricci_divergence``
runs the second-order jet and checks both halves.  Both orders give d/dy^k
the same bits, because the first-order rules are the second-order rules'
d/dy^k parts, the same products in the same operand order.

G_1111, G_i111 and G_ij11 are sums over the tensor's nonzero terms only
(``QuarticTensor.terms``, built once per tensor): each product is formed
left to right, ((G y^p) y^q) ..., and the terms are added one after another
in lexicographic order of the summed indices, starting from +0.0.  That is
np.einsum's own arithmetic.  A left-out term multiplies a zero entry of G,
so for finite y it is a signed zero, and adding a signed zero (or a +0.0
pad) to a sum that starts from +0.0 changes no bit.  So each value is the
plain einsum formula's bit for bit (for Berwald-Moor, 232 of the 256
products of einsum's G_1111 multiply a zero).  The products are built up by
order: the G_ij11 products (G y^r) y^s first, then each G_i111 product as
one of them times one more factor, and each G_1111 product as a G_i111
product times one more, which by the symmetry of G are the same
multiplications in the same order.  Each output's terms are then added one
in-place add per term, over the [outputs, N] rows of all outputs at once,
so every add runs along the point axis.  G_ijk1 stays the two-operand
einsum, which sums a dense G in another order.

The hierarchy is closed under differentiation,
    d G_1111 / dy^k = G_k111,   d G_i111 / dy^k = G_ik11,
    d G_ij11 / dy^k = G_ijk1,   d G_ijk1 / dy^l = 24 G_ijkl,
so the value, gradient and Hessian of
    g_ij = (G_ij11 - G_i111 G_j111 / (2 G_1111)) / (4 sqrt(G_1111))
follow by the product and chain rules applied to whole arrays: multivariate
second-order Taylor propagation in closed form (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  The propagation runs
only at the 50 (i, j, k, n) entries that the mixed-partial guard and the
canonical gather read, a packed jet, and the first-order jet, whose d/dy^k
depends on (i, j, k) alone, only at the 30 of them with distinct (i, j, k);
each swap entry comes out of the product rule on its own index order, so the
guard compares two computations.
Taylor2 stays the independent oracle for these tables and shares no code
with this module.

The kernel's contractions over one index (the C.C, C.L, L.L and C.P
products of the curvatures, and dC in ``raised_ricci_divergence``) are
stacked matmuls, one 16 x 4 by 4 x 16 product per point, read through the
total symmetry of t3 and t4 and the (j, k) symmetry of C; their 5-index
results stay in the layout the matmul gives and are read in index order
once, where S, R and P are formed.

The stages run over two batch sizes.  The metric and connection stages
run once per metric batch of at most METRIC_CHUNK points; the full stage
runs over consecutive slices of at most CHUNK points of it, each slice taken
with ``take`` as views of the connection bundle's C-contiguous arrays.  The
metric stage peaks at about 1.2 KiB per point and keeps about 0.6 KiB, the
connection stage peaks at about 2.2 KiB per point (the first-order packed
jet) and keeps about 1.6 KiB more (t3, C, L and G^k_j1), so their larger
batch spreads numpy's and LAPACK's fixed per-call cost over more points for
about 2 MiB a batch.  The full stage peaks at about 12 KiB per point (the
5-index tables) and ``raised_ricci_divergence`` at about 7 KiB (the
second-order packed jet), so the chunk bounds their working memory.  The
stages do not nest: each takes the bundle of the stage before it, and
``_chunks`` is the one chain that calls them, and times them
(``stage_times``).

A point's results do not depend on which batch or slice it was computed in:
the G-hierarchy sums are elementwise plus in-order accumulation, and LAPACK
and the stacked matmuls work one matrix at a time.  Every correctness guard
flags the points that fail it and raises a typed error through
``errors.refuse``, naming the first flagged point by its index in the batch
the stage ran over (the metric batch, or the full stage's chunk); none of
them vanishes under ``python -O``, and each flags a point as
``~(condition)``, so no non-finite value passes one.  A guard that takes a
per-point maximum or all over a table's entries reduces along the point
axis, over the entries laid out as [entries, N] (``_abs_max``), which is
exact and propagates a NaN.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from itertools import accumulate, combinations_with_replacement
from time import perf_counter

import numpy as np

from .errors import DegenerateDenominatorError, DomainError, InvariantError, SingularTensorError, refuse
from .jetcore import DIM, JetPoint, QuarticTensor, TermTable, TimeAxis, TimeMetric, check_cone

__all__ = [
    "CHUNK",
    "METRIC_CHUNK",
    "Connection",
    "GScalars",
    "Geometry",
    "Metric",
    "batches",
    "connection_batches",
    "g_hierarchy",
    "geometry",
    "metric_batches",
    "point_connection",
    "point_geometry",
    "point_metric",
    "raised_ricci_divergence",
    "stage_times",
    "take",
    "third_derivative",
]

# points per chunk of the full stage: a chunk amortises numpy's per-call
# overhead, and each curvature-sized table holds 256 doubles (2 KiB) per
# point, so the chunk also bounds the kernel's working memory.  A 128-point
# chunk peaks at about 1.46 MiB of numpy allocations in the full stage (at
# most five 5-index tables alive) and 0.85 MiB in
# ``raised_ricci_divergence`` (the second-order packed jet, at most about
# sixteen [50, N] arrays alive, then dC), which only a custom tensor's
# conservation laws run (tracemalloc, numpy 2.4).  A chunk half this size
# would save about 1 MiB of resident memory in the runs that build the full
# stage and double the calls of every per-chunk stage and check
CHUNK = 128
# points per metric batch of the metric and connection stages: at 1 024
# points the metric stage peaks at about 1.2 MiB of numpy allocations and
# keeps 0.6 MiB, the connection stage peaks at about 2.2 MiB (the
# first-order packed jet) and keeps 1.6 MiB more (tracemalloc), so one batch
# pays each stage's fixed numpy and LAPACK call cost once and serves eight
# chunks of the full stage.  verify --samples 1000 runs about as fast with
# batches of 512 points and slower with 256 or 64 (in-process, interleaved
# runs)
METRIC_CHUNK = 1024

_SINGULAR_RTOL = 1e-12
_DEGENERATE_RTOL = 1e-12

# The packed metric jet computes only the entries that the mixed-partial
# guard and the canonical gather read: every sorted quadruple (a, b, c, d) and
# every swap (a, c, b, d), once each (50 of the 256 Hessian entries).  Entry e
# holds d g_ij/dy^k and, in a second-order jet, d2 g_ij/dy^k dy^n at
# (i, j, k, n) = _ENTRIES[e].  d g_ij/dy^k depends on (i, j, k) alone, and
# the first derivative of a sorted triple (a, b, c) and of its swap (a, c, b)
# is read at (a, b, c, 3) and (a, c, b, 3): these 30 entries come first, and
# the first-order jet runs at them alone.  _REP* and _SWAP* give the entry
# of each sorted multi-index and of its swap, and _T3 and _T4 the entry of
# the sorted multi-index of every flat (j, m, k) and (j, m, k, n)
_QUADS = list(combinations_with_replacement(range(DIM), 4))
_TRIPLES = list(combinations_with_replacement(range(DIM), 3))
_FIRST_ORDER = list(dict.fromkeys((*ix, DIM - 1) for a, b, c in _TRIPLES for ix in ((a, b, c), (a, c, b))))
_ENTRIES = list(dict.fromkeys(_FIRST_ORDER + _QUADS + [(a, c, b, d) for a, b, c, d in _QUADS]))
# the entries the jet of each order runs at: a prefix of _ENTRIES
_ENTRY_COUNT = {1: len(_FIRST_ORDER), 2: len(_ENTRIES)}
_POS = {e: p for p, e in enumerate(_ENTRIES)}
_REP3 = np.array([_POS[(a, b, c, DIM - 1)] for a, b, c in _TRIPLES])
_SWAP3 = np.array([_POS[(a, c, b, DIM - 1)] for a, b, c in _TRIPLES])
_REP4 = np.array([_POS[q] for q in _QUADS])
_SWAP4 = np.array([_POS[(a, c, b, d)] for a, b, c, d in _QUADS])
_T3 = np.array([_POS[(*sorted(ix), DIM - 1)] for ix in np.ndindex((DIM,) * 3)])
_T4 = np.array([_POS[tuple(sorted(ix))] for ix in np.ndindex((DIM,) * 4)])
# per entry, its indices i, j, k and n (into G_i111) and, below, the flat
# indices into G_ij11, G_ijk1 and G_ijkl of the operands _metric_jet reads
_I, _J, _K, _N = np.array(_ENTRIES).T


def _flat(*ix) -> np.ndarray:
    return np.ravel_multi_index(ix, (DIM,) * len(ix))


_KN, _IK, _IN, _JK, _JN, _IJ = _flat(_K, _N), _flat(_I, _K), _flat(_I, _N), _flat(_J, _K), _flat(_J, _N), _flat(_I, _J)
_IKN, _JKN, _IJK, _IJN = _flat(_I, _K, _N), _flat(_J, _K, _N), _flat(_I, _J, _K), _flat(_I, _J, _N)
_IJKN = _flat(_I, _J, _K, _N)
_EYE = np.eye(DIM)
# axis orders that read a table held as [x,l,k,i,j] as [x,l,i,j,k] and as
# [x,l,i,k,j]
_LIJK = (0, 1, 3, 4, 2)
_LIKJ = (0, 1, 3, 2, 4)


@dataclass(frozen=True)
class GScalars:
    """The y-contractions of G_pqrs that the metric stage reads, and the
    constant 24 G_ijkl; G_ijk1 is ``third_derivative``, which the connection
    stage computes.

    Over a batch every field carries a leading batch axis.
    """

    g1111: float
    gi111: np.ndarray
    gij11: np.ndarray
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
    first y-derivative table of g and the Cartan connection.

    Index conventions (after the batch axis):
        t3[j,m,k] = dg_jm/dy^k (totally symmetric)
        c[i,j,k] = C^i_j(k),  l[i,j,k] = L^i_jk,  gk[k,j] = G^k_j1
    """

    t3: np.ndarray
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


def take(bundle, n: int | slice):
    """Point n of a batched dataclass, or the batch of the points in the
    slice n: at a point array fields lose their batch axis (0-d results
    become floats), over a slice they keep it as views; a nested GScalars is
    taken alike, and any other field is kept.  A slice along the batch axis
    of a C-contiguous array is C-contiguous, so the stacked matmuls round on
    it as on the whole batch."""
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


def _add_terms(rows: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The [M, N] sums of the K terms per output of a [K M, N] block, added
    one term after another over contiguous [M, N] rows.  The first term gets
    +0.0, which turns a -0.0 product into +0.0 as einsum's start from +0.0
    does; no later term needs it, since a running sum that does not start at
    -0.0 never becomes -0.0.  np.sum and np.add.reduce may add pairwise, and
    np.add.accumulate over the term axis steps M N doubles at a time."""
    first, *rest = rows.reshape(shape + (-1,))
    total = first + 0.0
    for term in rest:
        total += term
    return total


def _term_sums(table: TermTable, y: np.ndarray) -> list[np.ndarray]:
    """G_pqrs y^p y^q y^r y^s, G_ipqr y^p y^q y^r and G_ijpq y^p y^q at y of
    shape (4,) or (N, 4), each as [M, N], by np.einsum's own arithmetic over
    the tensor's nonzero terms (see the module docstring).  Each order's
    products are the order below's times one factor y^s (``TermTable``), so
    every product is formed left to right, ((G y^p) y^q) ..., with one
    gather of the rows below and one of the factor rows per order; the
    orders below are dropped once read.  ``g_hierarchy`` is its one caller
    and reads all three.
    """
    y = y.reshape(-1, DIM)
    yt = np.empty((DIM + 1, len(y)))
    yt[:DIM] = y.T
    yt[DIM] = 1.0
    sums = []
    rows = table.coef * yt[table.first]
    for b, last in enumerate(table.last):
        if b:
            rows = rows[table.below[b - 1]]
        rows *= yt[last]
        # blocks run G_ij11, G_i111, G_1111; the sums run the other way
        sums.append(_add_terms(rows, table.shapes[b]))
    return sums[::-1]


def third_derivative(G: QuarticTensor, y: np.ndarray) -> np.ndarray:
    """G_ijk1 = d3 G_1111 / dy^i dy^j dy^k = 24 G_ijkp y^p at one point y of
    shape (4,), or batched over y of shape (N, 4), C-contiguous.  It is the
    two-operand np.einsum, whose order for a dense G differs from the term
    sums of ``g_hierarchy``; only the connection stage's jet and
    ``metric_taylor2`` read it."""
    gijk1 = np.einsum("ijkp,...p->...ijk", G.dense, y)
    gijk1 *= 24.0
    return gijk1


def g_hierarchy(G: QuarticTensor, y: np.ndarray) -> GScalars:
    """G-hierarchy at one point y of shape (4,), or batched over y of shape (N, 4).

    Each level is a direct polynomial contraction of G_pqrs with y:
    G_ij11 = 12 G_ijpq y^p y^q, G_i111 = 4 G_ipqr y^p y^q y^r,
    G_1111 = G_pqrs y^p y^q y^r y^s, and G^j_1 and scriptG are matrix
    products.  They are summed over the tensor's nonzero terms only
    (``_term_sums``), each product left to right and the terms one after
    another in lexicographic order of the summed indices from +0.0, as
    np.einsum sums them; a left-out term is a signed zero, which changes no
    bit of such a sum.  So every value matches the plain one-point einsum
    formulas bit for bit: checks such as einstein/raised-cross-check compare
    g^jk g_kl with delta at an absolute tolerance near rounding, and their
    verdicts follow the last bits.  Every level is C-contiguous, because a
    matmul of a strided operand may round differently.  G_ijk1 is not a level
    here: the metric stage does not read it (``third_derivative``).  No closed
    form reads these levels: ``closed`` forms G_1111 from y itself.  A level or
    determinant that is not finite (y so large that a contraction or det
    G_ij11 overflows) raises DomainError, before the singular test.
    """
    D = G.dense
    lead = y.shape[:-1]
    g, gi, gij = _term_sums(G.terms, y)
    # the scaled levels, as [M, N] with the point axis last, which the finite
    # and singular tests reduce along; scaled before the tests, since a x4 or
    # x12 can overflow where the sum is finite
    gi *= 4.0
    gij *= 12.0
    gij11 = np.ascontiguousarray(gij.T).reshape(lead + (DIM, DIM))
    gi111 = np.ascontiguousarray(gi.T).reshape(lead + (DIM,))
    det = np.linalg.det(gij11)
    finite = np.isfinite(g[0]) & np.isfinite(det.reshape(-1)) & np.isfinite(gi).all(axis=0)
    finite &= np.isfinite(gij).all(axis=0)
    refuse(~finite.reshape(lead), DomainError, "the G-hierarchy is not finite", y=y)

    scale = np.maximum.reduce(np.abs(gij), axis=0).reshape(lead)
    singular = (scale == 0.0) | ~(np.abs(det) >= _SINGULAR_RTOL * scale**4)
    refuse(singular, SingularTensorError, "G_ij11 is singular", y=y, det=det)
    inv = np.linalg.inv(gij11)
    inv = 0.5 * (inv + inv.swapaxes(-1, -2))
    gj_up = (inv @ gi111[..., None])[..., 0]
    return GScalars(
        g1111=g[0, 0] if y.ndim == 1 else g[0],
        gi111=gi111,
        gij11=gij11,
        # the constant 24 G_ijkl, one read-only zero-stride view over the batch
        gijkl=np.broadcast_to(24.0 * D, y.shape[:-1] + D.shape),
        gij11_inv=inv,
        det_gij11=det,
        g_script=0.5 * (gi111[..., None, :] @ inv @ gi111[..., :, None])[..., 0, 0],
        gj_up=gj_up,
    )


# -- closed-form Taylor propagation ------------------------------------------
# A jet is (value, d/dy^k) at first order and (value, d/dy^k, d/dy^n,
# d2/dy^k dy^n) at second, at the packed entries (i, j, k, n): arrays [e, x],
# or a value [x] broadcast over the entries.  The first-order rules are the
# second-order rules' value and d/dy^k parts, the same products in the same
# operand order, so both orders give the same d/dy^k bit for bit.


def _jet_mul(a, b, value: bool = True):
    """The jet of the product a b, to the order of a and b; with value=False
    without its value."""
    av, ak = a[:2]
    bv, bk = b[:2]
    dk = av * bk + bv * ak
    if len(a) == 2:
        return (av * bv, dk) if value else (dk,)
    _, _, an, ah = a
    _, _, bn, bh = b
    dkn = (av * bh + bv * ah) + (ak * bn + an * bk)
    if not value:
        return dk, dkn
    return av * bv, dk, av * bn + bv * an, dkn


def _jet_chain(a, f0, f1, f2):
    """Compose the jet a with a scalar map given its value, its first
    derivative and a callable that returns its second, which a first-order
    jet never calls."""
    if len(a) == 2:
        return f0, f1 * a[1]
    _, ak, an, ah = a
    return f0, f1 * ak, f1 * an, f1 * ah + f2() * (ak * an)


def _gather(parts: int, entries: int, *operands) -> tuple:
    """level[ix] at the first ``entries`` entries for the first ``parts``
    (level, ix) operands, in order."""
    return tuple(level[ix[:entries]] for level, ix in operands[:parts])


def _metric_jet(s: GScalars, gijk1: np.ndarray, order: int):
    """The packed jet of g_ij to the given order, as arrays [e, x] at the
    packed entries (i, j, k, n) = _ENTRIES[e]: (d,) at first order, at the 30
    first-order entries, and (d, h) at second, at all 50, with d g_ij/dy^k
    in d and d2 g_ij/dy^k dy^n in h.  Each entry runs the product and chain
    rules on its own index order, so a swap entry is computed, not copied,
    and an entry's d gets the same bits at either order.  Each operand is
    gathered just before the product that reads it, and each jet is dropped
    once read, so at most about sixteen [e, x] arrays are alive at once; the
    first-order jet gathers no operand of a d/dy^n part."""
    n = len(s.g1111)
    g = s.g1111
    g1 = s.gi111.T
    g2 = s.gij11.reshape(n, -1).T
    g3 = gijk1.reshape(n, -1).T
    parts = 2**order  # value, d/dy^k and, at second order, d/dy^n and d2/dy^k dy^n
    e = _ENTRY_COUNT[order]
    # the jet of G_i111 G_j111, from the jets of G_i111 and G_j111, and the
    # jet of G_1111
    p = _jet_mul(
        _gather(parts, e, (g1, _I), (g2, _IK), (g2, _IN), (g3, _IKN)),
        _gather(parts, e, (g1, _J), (g2, _JK), (g2, _JN), (g3, _JKN)),
    )
    g_jet = (g, *_gather(parts - 1, e, (g1, _K), (g1, _N), (g2, _KN)))
    # 1/(2G) and 1/(4 sqrt(G)) with their first two derivatives in G; the
    # second is formed only at second order, since at first order it is never
    # read and 1/G^3 can overflow where G itself is still positive
    r = np.sqrt(g)
    inv_2g = _jet_chain(g_jet, 0.5 / g, -0.5 / (g * g), lambda: 1.0 / (g * g * g))
    inv_4sq = _jet_chain(g_jet, 0.25 / r, -0.125 / (r * g), lambda: 0.1875 / (r * g * g))
    del g_jet
    q = _jet_mul(p, inv_2g)
    del p, inv_2g
    # g_ij = (G_ij11 - G_i111 G_j111 / (2 G)) / (4 sqrt(G)), in place of the
    # quotient's jet
    g4 = s.gijkl.reshape(n, -1).T
    for part, level, ix in zip(q, (g2, g3, g3, g4), (_IJ, _IJK, _IJN, _IJKN)):
        np.subtract(level[ix[:e]], part, out=part)
    return _jet_mul(q, inv_4sq, value=False)


def _guard_mixed_partials(jet, y: np.ndarray):
    """d g_ab/dy^c = d g_ac/dy^b and, for a second-order jet,
    d2 g_ab/dy^c dy^d = d2 g_ac/dy^b dy^d, on every sorted multi-index, over
    the packed jet's entries before the canonical gather keeps the
    representatives."""
    for packed, rep, swap in zip(jet, (_REP3, _REP4), (_SWAP3, _SWAP4)):
        val = packed[rep]
        bad = ~(np.abs(packed[swap] - val) <= 1e-9 * np.maximum(np.abs(val), 1.0))
        refuse(bad.any(axis=0), InvariantError, "mixed-partial consistency of the metric derivative tables fails", y=y)


def _abs_max(*tables: np.ndarray) -> np.ndarray:
    """The largest |entry| of each [N, ...] table at each point, as [tables,
    N], NaN where one of its entries is NaN.  The tables go into one
    [entries, N] array, one transposed copy, and each table's rows are
    reduced with np.maximum over axis 0, along the point axis, which costs a
    fraction of a reduction over each point's few trailing entries; max is
    exact, so the order changes no bit."""
    n = len(tables[0])
    flat = [table.reshape(n, -1).T for table in tables]
    rows = np.concatenate(flat)
    np.abs(rows, out=rows)
    return np.maximum.reduceat(rows, [0, *accumulate(len(f) for f in flat[:-1])], axis=0)


def _guard_inverse(formula: np.ndarray, direct: np.ndarray, y: np.ndarray):
    """The inverse-metric formula agrees with direct inversion of g_lo."""
    scale, err = _abs_max(direct, formula - direct)
    bad = ~(err <= 1e-8 * np.maximum(scale, 1.0))
    refuse(bad, InvariantError, "inverse-metric formula disagrees with direct inversion", y=y)


def _guard_torsions(p_mixed, c, r_time, kappa, dkappa, y):
    """P^(k)(1)_(1)i(j) = -(kappa/3) C^k_i(j) and R^(k)_(1)1j = ((kappa' - kappa^2)/3) delta,
    each within a bound that scales with the terms it compares."""
    k3 = (kappa / 3.0)[:, None, None, None]
    closed_r = ((dkappa - kappa**2) / 3.0)[:, None, None] * _EYE
    scale, err_p, err_r = _abs_max(c, p_mixed + k3 * c, r_time - closed_r)
    bad = ~(err_p <= 1e-9 * np.maximum(scale, 1.0) * (1 + np.abs(kappa)))
    bad |= ~(err_r <= 1e-12 * (1 + kappa**2 + np.abs(dkappa)))
    refuse(bad, InvariantError, "torsion identities fail", y=y)


# per-stage wall time of the kernel calls made in a context that holds a
# counter (``stage_times``); by default no counter, and nothing is recorded
_STAGE_TIMES: ContextVar[dict[str, float] | None] = ContextVar("stage_times", default=None)


@contextmanager
def stage_times():
    """A counter of the seconds that the kernel stages ("metric",
    "connection", "full") take in the calls made while the block runs, in
    this context; the time between them is the caller's own."""
    times = dict.fromkeys(("metric", "connection", "full"), 0.0)
    token = _STAGE_TIMES.set(times)
    try:
        yield times
    finally:
        _STAGE_TIMES.reset(token)


def _metric(G: QuarticTensor, tm: TimeMetric, t: np.ndarray, y: np.ndarray) -> Metric:
    """The metric stage over one metric batch.  Its guards each check the
    whole batch, in this order: the time axis finite (DomainError, in
    ``TimeMetric.eval``), the G-hierarchy finite (DomainError) and G_ij11
    singular (SingularTensorError), both in ``g_hierarchy``, G_1111 > 0
    (DomainError), G_1111 - scriptG degenerate (DegenerateDenominatorError),
    and the inverse-metric formula against direct inversion
    (InvariantError).  So a singular point anywhere in the batch raises
    before a degenerate one, and the error names the first point that fails
    its guard, by its batch index and its t or y."""
    ax = tm.eval(t)
    s = g_hierarchy(G, y)
    refuse(~(s.g1111 > 0.0), DomainError, "G_1111 must be positive", y=y, G_1111=s.g1111)
    denom = s.g1111 - s.g_script
    degenerate = ~(np.abs(denom) >= _DEGENERATE_RTOL * np.abs(s.g1111))
    refuse(
        degenerate,
        DegenerateDenominatorError,
        "G_1111 - scriptG is degenerate relative to G_1111",
        y=y,
        denominator=denom,
        G_1111=s.g1111,
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


def _connection(m: Metric) -> Connection:
    """The connection stage over the points of the metric bundle m, a whole
    metric batch, from the first-order packed jet of g: G_ijk1, the jet, its
    half of the mixed-partial guard, and the canonical gather of t3.  One
    representative per sorted multi-index, stored into every permutation,
    keeps the downstream index symmetries exact in floating point.  A
    refusal names its point by its index in the metric batch, as the metric
    stage's do."""
    n = len(m)
    kappa, g_up, y = m.kappa, m.g_up, m.y
    jet = _metric_jet(m.scalars, third_derivative(m.tensor, y), 1)
    _guard_mixed_partials(jet, y)
    t3 = np.take(jet[0].T, _T3, axis=1).reshape(n, DIM, DIM, DIM)
    del jet
    # Cartan connection: C^i_j(k) = (g^im/2) dg_jm/dy^k, one matmul of g^im with
    # t3[m,j,k] per point (t3 is totally symmetric); for x-constant G the
    # three-term horizontal form with delta/delta x^k = (kappa/3) d/dy^k is
    # T3 + T3 - T3 = T3 exactly (T3 is totally symmetric), so L = (kappa/3) C
    c = 0.5 * (g_up @ t3.reshape(n, DIM, DIM * DIM)).reshape(n, DIM, DIM, DIM)
    l = (kappa / 3.0)[:, None, None, None] * c
    # G^k_j1 = (g^km/2) delta g_mj/delta t with delta/delta t = d/dt + kappa y^p d/dy^p
    dg_dt = kappa[:, None, None] * np.einsum("xmjp,xp->xmj", t3, y)
    gk = 0.5 * np.einsum("xkm,xmj->xkj", g_up, dg_dt)
    return _frozen(Connection(**{f.name: getattr(m, f.name) for f in fields(Metric)}, t3=t3, c=c, l=l, gk=gk))


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_m a[x,p,q,m] b[x,m,r,s] as [x,p,q,r,s]: one 16 x 4 by 4 x 16 matmul per point."""
    n = len(a)
    return (a.reshape(n, DIM * DIM, DIM) @ b.reshape(n, DIM, DIM * DIM)).reshape(n, DIM, DIM, DIM, DIM)


def _geometry(cn: Connection) -> Geometry:
    """The full stage over the points of the connection bundle: the torsions,
    the curvature d-tensors, formed from C and L alone, and the Ricci data."""
    kappa, dkappa, h11, g_up, y = cn.kappa, cn.dkappa, cn.h11, cn.g_up, cn.y
    c, l = cn.c, cn.l

    k3 = (kappa / 3.0)[:, None, None, None]
    k3_5 = k3[..., None]

    # torsions
    p_mixed = -l.transpose(0, 1, 3, 2)  # -L^k_{ji} arranged as [k,i,j]
    # delta M^k/delta x^j = (kappa/3) d(-kappa y^k)/dy^j; delta N/delta t = d/dt
    r_time = (-(kappa**2) / 3.0 + dkappa / 3.0)[:, None, None] * _EYE
    _guard_torsions(p_mixed, c, r_time, kappa, dkappa, y)

    # dC^l_i(j)/dy^k = (1/2)[dg^lm/dy^k dg_im/dy^j + g^lm d2 g_im/dy^j dy^k] with
    # dg^lm/dy^k = -2 C^l_a(k) g^am, that is -2 C^l_m(k) C^m_i(j) plus a part
    # totally symmetric in (i, j, k); dL = (kappa/3) dC.  S, R and P read dC
    # and dL only antisymmetrized in their last two indices, where that part
    # cancels (see the module docstring), so they take dC as
    # -2 C^l_m(k) C^m_i(j), and S^l_i(j)(k) = C^m_i(k) C^l_m(j) - C^m_i(j) C^l_m(k).
    # Every 5-index table below is held as [x,l,k,i,j] for its entry [l,i,j,k]
    # (the last index second), the layout the stacked matmuls give, and is
    # read as [x,l,i,j,k] when S, R and P are formed.  The sums run left to
    # right as written (a sum of two terms may start from either, since IEEE
    # addition commutes), S comes first, P next and R last, in dL's buffer, so
    # at most five 5-index tables are alive at once
    cc = _contract(c, c)  # C^m_i(j) C^l_m(k)
    s_curv = np.subtract(cc.transpose(_LIKJ), cc.transpose(_LIJK))
    dl = cc
    dl *= -2.0 * k3_5
    del cc

    # P^l_ij(k) = dL^l_ij/dy^k - delta C^l_i(k)/delta x^j - C^m_i(k) L^l_mj
    #             + C^l_m(k) L^m_ij + C^l_i(m) L^m_kj + C^l_i(m) P^(m)(1)_(1)j(k),
    # with delta C^l_i(k)/delta x^j = (kappa/3) dC^l_i(k)/dy^j
    x = _contract(l, c)  # held [x,l,j,i,k]
    x += dl
    cl = _contract(c, l)
    cov = np.subtract(x.transpose(_LIKJ), cl.transpose(_LIJK))
    del x
    cov -= cl  # C^l_i(m) L^m_jk, as L^m_kj = L^m_jk
    del cl
    p_curv = np.subtract(dl.transpose(_LIJK), cov, out=cov)
    c_mixed = -k3 * c  # torsion P^(m)(1)_(1)j(k) arranged [m,j,k]
    p_curv += _contract(c, c_mixed)

    # R is exactly antisymmetric in (j,k) (X minus its swap), as S is
    x = dl
    x *= k3_5
    x += _contract(l, l)
    r_curv = np.subtract(x.transpose(_LIJK), x.transpose(_LIKJ))

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


def raised_ricci_divergence(geo: Geometry) -> np.ndarray:
    """dS^m_i/dy^m of the raised Ricci table S^m_i = g^mr S_ri over the
    points of the full bundle geo, of shape (N, 4), exact:
        dS^m_i/dy^m = (dg^mr/dy^m) S_ri + g^mr dS_ri/dy^m,
    with dg^mr/dy^n = -2 C^m_a(n) g^ar, S_ri the bundle's ``s_ricci`` and,
    as S_ri = C^m_r(l) C^l_m(i) - C^m_r(i) C^l_m(l), dS_ri/dy^n by the
    product rule over dC.  dC reads d2 g, which only this function computes:
    the second-order packed jet over the bundle's own G-hierarchy and G_ijk1,
    both halves of the mixed-partial guard, and the canonical gather of t4,
    as the connection stage gathers t3."""
    n = len(geo)
    c, g_up, y = geo.c, geo.g_up, geo.y
    jet = _metric_jet(geo.scalars, third_derivative(geo.tensor, y), 2)
    _guard_mixed_partials(jet, y)
    t4 = np.take(jet[1].T, _T4, axis=1).reshape(n, DIM, DIM, DIM, DIM)
    del jet
    # dC^i_j(k)/dy^n = (1/2)[dg^im/dy^n dg_jm/dy^k + g^im d2 g_jm/dy^k dy^n],
    # held [x,i,n,j,k]
    dgu = -2.0 * (c.reshape(n, DIM * DIM, DIM) @ g_up).reshape(n, DIM, DIM, DIM)  # [i,n,m]
    dc = _contract(dgu, geo.t3)
    dc += (g_up @ t4.reshape(n, DIM, DIM**3)).reshape(dc.shape)
    dc *= 0.5
    # dS_ri/dy^n as [x,n,r,i], with the trace C^l_m(l) and its partials
    trace = np.einsum("xlml->xm", c)
    d_trace = np.einsum("xlnml->xnm", dc)
    d_s = np.einsum("xmnrl,xlmi->xnri", dc, c) + np.einsum("xmrl,xlnmi->xnri", c, dc)
    d_s -= np.einsum("xmnri,xm->xnri", dc, trace) + np.einsum("xmri,xnm->xnri", c, d_trace)
    return np.einsum("xmmr,xri->xi", dgu, geo.s_ricci) + np.einsum("xnr,xnri->xi", g_up, d_s)


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


def _timed(name: str, stage, *args):
    start = perf_counter()
    out = stage(*args)
    times = _STAGE_TIMES.get()
    if times is not None:
        times[name] += perf_counter() - start
    return out


def _chunks(depth: int, G: QuarticTensor, tm: TimeMetric, t, y):
    """The one chain of the kernel stages, to the given depth: 0 the metric
    stage, 1 the connection stage, 2 the full stage.  The metric stage runs
    once per consecutive metric batch of at most METRIC_CHUNK points, and at
    depth 1 and 2 the connection stage once over the whole batch; at depth 0
    and 1 that batch's bundle is yielded as it is, at depth 2 it is cut into
    slices of at most CHUNK points (``take``; a bundle of at most CHUNK
    points is not cut), and each slice runs through the full stage.  So a
    metric batch passes every guard of ``_metric`` before the connection
    stage runs on it, and every guard of ``_connection`` before any of its
    slices runs.  Each stage call's wall time goes to the context's
    ``stage_times`` counter."""
    t, y = _batch(t, y)
    for lo in range(0, len(t), METRIC_CHUNK):
        bundle = _timed("metric", _metric, G, tm, t[lo : lo + METRIC_CHUNK], y[lo : lo + METRIC_CHUNK])
        if depth:
            bundle = _timed("connection", _connection, bundle)
        if depth < 2:
            yield bundle
            continue
        for a in range(0, len(bundle), CHUNK):
            part = take(bundle, slice(a, a + CHUNK)) if len(bundle) > CHUNK else bundle
            yield _timed("full", _geometry, part)


def batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Full bundles over consecutive chunks of at most CHUNK points, in order,
    so a caller holds one chunk's tables at a time."""
    return _chunks(2, G, tm, t, y)


def connection_batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Connection-stage bundles over the metric batches of
    ``metric_batches``, one bundle of at most METRIC_CHUNK points each, in
    order."""
    return _chunks(1, G, tm, t, y)


def metric_batches(G: QuarticTensor, tm: TimeMetric, t, y):
    """Metric-stage bundles over consecutive metric batches of at most
    METRIC_CHUNK points, in order."""
    return _chunks(0, G, tm, t, y)


def geometry(G: QuarticTensor, tm: TimeMetric, t, y) -> Geometry:
    """One bundle over the batch t of shape (N,) and y of shape (N, 4)."""
    parts = list(batches(G, tm, t, y))
    return parts[0] if len(parts) == 1 else _concat(parts)


def point_geometry(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> Geometry:
    """The N = 1 bundle at the jet point p."""
    (geo,) = batches(G, tm, [p.t], p.y)
    return geo


def point_connection(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> Connection:
    """The N = 1 connection-stage bundle at the jet point p."""
    (cn,) = connection_batches(G, tm, [p.t], p.y)
    return cn


def point_metric(G: QuarticTensor, tm: TimeMetric, p: JetPoint) -> Metric:
    """The N = 1 metric-stage bundle at the jet point p."""
    (m,) = metric_batches(G, tm, [p.t], p.y)
    return m
