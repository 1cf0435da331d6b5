"""Core domain types: jet points, time-metric families, the symmetric quartic
tensor, and second-order forward-mode Taylor arithmetic.

``TimeMetric.eval`` is the one evaluator of the time axis: h_11, h^11, the
t-derivatives of h_11, kappa and dkappa/dt at a float t or over a whole batch
of t, returned as a ``TimeAxis``.  Every reader of these scalars calls it
once per batch.

``check_cone`` is the one test of the open positive cone: ``JetPoint``,
``taylor2_seed``, the kernel and the field layer call it.

Every object is immutable after construction and every operation is a pure
function of its inputs, so evaluation at many points can run concurrently.
"""

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DomainError, refuse

__all__ = [
    "JetPoint",
    "TimeMetric",
    "TimeAxis",
    "QuarticTensor",
    "Taylor2",
    "check_cone",
    "taylor2_seed",
]

DIM = 4


def _frozen(a, shape) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True).reshape(shape)
    out.flags.writeable = False
    return out


def check_cone(y) -> np.ndarray:
    """y as a float 4-vector or an (N, 4) batch, every point in the open
    positive cone, where the fourth roots and sqrt(G_1111) downstream are
    real.  The one cone test: a point with a coordinate that is not > 0 or
    not < inf, NaN included, raises DomainError naming it."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != DIM:
        raise DomainError(f"expected a 4-vector or an (N, 4) batch, got shape {y.shape}")
    # each point's smallest and largest coordinate, pairwise (np.minimum and
    # np.maximum keep a NaN): min(axis=-1) over four entries per point costs
    # about ten times as much
    smallest = np.minimum(np.minimum(y[..., 0], y[..., 1]), np.minimum(y[..., 2], y[..., 3]))
    largest = np.maximum(np.maximum(y[..., 0], y[..., 1]), np.maximum(y[..., 2], y[..., 3]))
    refuse(~((smallest > 0.0) & (largest < np.inf)), DomainError, "y must lie in the open positive cone", y=y)
    return y


@dataclass(frozen=True)
class JetPoint:
    """A point (t, x, y) of the jet space, with y in the open positive cone.

    The fiber coordinates y must be strictly positive so that all fourth
    roots and sqrt(G_1111) appearing downstream are real.
    """

    t: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", _frozen(self.x, (DIM,)))
        object.__setattr__(self, "y", check_cone(_frozen(self.y, (DIM,))))

    @classmethod
    def from_y(cls, y, t: float = 0.0, x=None) -> "JetPoint":
        return cls(t=t, x=np.zeros(DIM) if x is None else x, y=y)


@dataclass(frozen=True, eq=False, repr=False)
class TimeAxis:
    """The time-axis scalars at t: h_11, h^11 = 1/h_11, dh_11/dt, d2h_11/dt2,
    kappa = (h^11 / 2) dh_11/dt and dkappa/dt.  Each field has t's shape: a
    float at a float t, an (N,) array over t of shape (N,)."""

    t: np.ndarray
    h11: np.ndarray
    h11_inv: np.ndarray
    dh11: np.ndarray
    d2h11: np.ndarray
    kappa: np.ndarray
    dkappa: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


# the parameters of each time-metric family, in document order; a family
# that reads c needs c > 0
_FAMILY_PARAMS = {"constant": ("c",), "exponential": ("c", "lam"), "power": ("a",)}


@dataclass(frozen=True)
class TimeMetric:
    """A closed-form family h_11(t) > 0 on the time axis.

    Families:
      constant:     h_11 = c
      exponential:  h_11 = c * exp(lam * t)
      power:        h_11 = (1 + t^2)^a

    Closed forms (rather than tabulated samples) are required because the
    downstream torsion tensors need exact first AND second t-derivatives.
    """

    family: str
    c: float = 1.0
    lam: float = 0.0
    a: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise ConstructionError(f"unknown time-metric family {self.family!r}")
        if "c" in _FAMILY_PARAMS[self.family] and not self.c > 0.0:
            raise ConstructionError(f"time metric requires c > 0, got c={self.c}")

    @classmethod
    def constant(cls, c: float) -> "TimeMetric":
        return cls(family="constant", c=c)

    @classmethod
    def exponential(cls, c: float, lam: float) -> "TimeMetric":
        return cls(family="exponential", c=c, lam=lam)

    @classmethod
    def power(cls, a: float) -> "TimeMetric":
        return cls(family="power", a=a)

    def eval(self, t) -> TimeAxis:
        """The time-axis scalars at a float t, or over t of shape (N,), by
        array operations.  Every power goes through ``pointwise_pow``, so
        each entry equals the one-point value bit for bit.  A t at which any
        of them is not finite (h_11 overflows, say) raises DomainError
        naming the first such t."""
        shape = np.shape(t)
        t = np.asarray(t, dtype=float).reshape(-1)
        if self.family == "constant":
            h, dh, d2h = np.full(t.shape, self.c), np.zeros(t.shape), np.zeros(t.shape)
        elif self.family == "exponential":
            h = self.c * np.exp(self.lam * t)
            dh = self.lam * h
            d2h = self.lam * self.lam * h
        else:
            u = 1.0 + t * t
            h = pointwise_pow(u, self.a)
            u1 = pointwise_pow(u, self.a - 1.0)
            dh = 2.0 * self.a * t * u1
            d2h = 2.0 * self.a * u1 + 4.0 * self.a * (self.a - 1.0) * t * t * pointwise_pow(u, self.a - 2.0)
        h_inv = 1.0 / h
        kappa = 0.5 * h_inv * dh
        dkappa = 0.5 * d2h / h - 0.5 * pointwise_pow(dh / h, 2.0)
        values = (t, h, h_inv, dh, d2h, kappa, dkappa)
        bad = ~np.isfinite(values).all(axis=0)
        refuse(bad.reshape(shape), DomainError, f"the {self.family} time metric is not finite", t=t.reshape(shape))
        if not shape:
            return TimeAxis(*(float(v[0]) for v in values))
        return TimeAxis(*(_frozen(v, shape) for v in values))


def _sorted_quad(idx) -> tuple[int, int, int, int]:
    q = tuple(sorted(int(i) for i in idx))
    if len(q) != 4 or any(i < 1 or i > DIM for i in q):
        raise ConstructionError(f"index quadruple must hold four indices in 1..4, got {idx}")
    return q


# the 35 sorted quadruples (1-based), in the order of QuarticTensor.components,
# per entry (p, q, r, s) of the dense table, in C order, the place in that
# order of its sorted quadruple, and per quadruple its entries in C order
_QUADS = tuple(combinations_with_replacement(range(1, DIM + 1), 4))
_QUAD_OF_ENTRY = np.array([_QUADS.index(tuple(sorted(i + 1 for i in ix))) for ix in np.ndindex((DIM,) * 4)])
_ENTRIES_OF_QUAD = [np.flatnonzero(_QUAD_OF_ENTRY == q).tolist() for q in range(len(_QUADS))]
_BERWALD_MOOR = {quad: (1.0 / 24.0 if quad == (1, 2, 3, 4) else 0.0) for quad in _QUADS}

# The term tables of the three contractions of G_pqrs with y that the
# G-hierarchy sums, by the number m of summed indices:
#     m = 2: G_ijrs y^r y^s         (sixteen outputs (i, j)),
#     m = 3: G_iqrs y^q y^r y^s     (four outputs i),
#     m = 4: G_pqrs y^p y^q y^r y^s (one output).
# In C order the output indices of an entry e = 64 p + 16 q + 4 r + s lead
# and its summed indices follow, so an output's entries are one run of
# consecutive entries, in lexicographic order of the summed indices.  Each
# order's product is a product of the order below times its last factor
# y^s, read at the entry that holds the same multiplications in the same
# order, by the symmetry of G:
#     P2[i,j,r,s] = (G_ijrs y^r) y^s,
#     P3[i;q,r,s] = P2[i,s,q,r] y^s,
#     P4[p,q,r,s] = P3[s;p,q,r] y^s,
# so P4[p,q,r,s] = (((G_pqrs y^p) y^q) y^r) y^s, left to right.  The term of
# block b (order _ORDERS[b]) at entry e has the code b * (_PAD + 1) + e, and
# a +0.0 pad the entry _PAD.  Per code: its last factor's index of y, where
# DIM stands for 1.0; for block 0 its first factor's index and the place of
# its value in QuarticTensor's value array, whose last value, 0.0, is the
# pads'; for blocks 1 and 2 the code below it, a pad's the pad code below.
_ORDERS = (2, 3, 4)
_PAD = DIM**4
_E = np.arange(_PAD + 1)
_LAST_OF_CODE = np.tile(np.where(_E < _PAD, _E & 3, DIM), len(_ORDERS))
_FIRST_OF_CODE = np.where(_E < _PAD, _E >> 2 & 3, DIM)
_QUAD_OF_CODE = np.append(_QUAD_OF_ENTRY, len(_QUADS))
_BELOW_OF_CODE = np.concatenate(
    [
        np.full(_PAD + 1, _PAD),  # block 0 reads no block below it
        np.where(_E < _PAD, (_E & 0xC0) | (_E & 3) << 4 | (_E >> 2 & 0xF), _PAD),
        (_PAD + 1) + np.where(_E < _PAD, (_E & 3) << 6 | _E >> 2, _PAD),
    ]
)
_ROWS = np.arange(len(_BELOW_OF_CODE))


class TermTable(NamedTuple):
    """The nonzero terms of the contractions sum_s G[o, s] y^s_1 ... y^s_m of
    orders m = 2, 3, 4, one block of product rows each, in that order.

    Block b has ``shapes[b] = (K, M)``: its rows, read as [K, M], hold each
    of its M outputs' K terms, in lexicographic order of the summed indices
    s, and an output with fewer than K terms ends in +0.0 pads.  Row l of
    block 0 is ``(coef[l] * y^first[l]) * y^last[0][l]`` (``coef`` is
    [rows, 1], so it broadcasts over the points); row l of block 1 or 2 is
    row ``below[b - 1][l]`` of the block before it times ``y^last[b][l]``.
    The index DIM of y stands for 1.0, which only the pads read: a pad of
    block 0 has the coefficient 0.0, and a later pad reads a pad below it.
    """

    coef: np.ndarray
    first: np.ndarray
    last: tuple[np.ndarray, np.ndarray, np.ndarray]
    below: tuple[np.ndarray, np.ndarray]
    shapes: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def _term_tables(values: np.ndarray) -> TermTable:
    """The read-only term tables of the tensor whose 35 components, then
    0.0, are ``values``.  Each block's codes are laid out by plain Python
    over the nonzero components' entries, and each table is one gather over
    the codes of all blocks: a dozen numpy calls per block on arrays of a
    few dozen entries cost more than the layout itself.  A pad code's row is
    one of its block's pads, and any will do, since every pad is +0.0; an
    order has a pad only if the order below has one, since its outputs' term
    counts are sums of the order below's."""
    nonzero = sorted(e for q, v in enumerate(values.tolist()) if v != 0.0 for e in _ENTRIES_OF_QUAD[q])
    codes, ends, shapes = [], [], []
    for b, m in enumerate(_ORDERS):
        base = b * (_PAD + 1)
        rows = [[] for _ in range(_PAD >> 2 * m)]
        for e in nonzero:
            rows[e >> 2 * m].append(base + e)
        k = max(max(map(len, rows)), 1)
        codes.extend(chain.from_iterable(zip(*(row + [base + _PAD] * (k - len(row)) for row in rows))))
        ends.append(len(codes))
        shapes.append((k, len(rows)))
    codes = np.array(codes)
    a, b, n = ends
    row_of = np.empty(len(_ROWS), dtype=np.intp)
    row_of[codes] = _ROWS[:n]
    below = row_of.take(_BELOW_OF_CODE.take(codes[a:]))
    below[b - a :] -= a
    coef = values.take(_QUAD_OF_CODE.take(codes[:a]))
    first = _FIRST_OF_CODE.take(codes[:a])
    last = _LAST_OF_CODE.take(codes)
    for table in (coef, first, last, below):
        table.flags.writeable = False
    return TermTable(coef[:, None], first, (last[:a], last[a:b], last[b:]), (below[: b - a], below[b - a :]), tuple(shapes))


class QuarticTensor:
    """Totally symmetric (0,4) tensor G_pqrs stored by sorted index quadruple.

    Keys use 1-based indices p <= q <= r <= s; the 35 independent components
    are all present (zeros included). Any permutation of a quadruple reads
    the same stored entry.  ``is_berwald_moor`` and the term tables of the
    G-hierarchy's contractions (``terms``) are computed once, here.
    """

    __slots__ = ("components", "_is_berwald_moor", "_dense", "_terms")

    def __init__(self, components: dict[tuple[int, int, int, int], float]):
        table = dict.fromkeys(_QUADS, 0.0)
        seen: dict[tuple[int, int, int, int], float] = {}
        for idx, val in components.items():
            quad = _sorted_quad(idx)
            val = float(val)
            if quad in seen and seen[quad] != val:
                raise ConstructionError(
                    f"conflicting values {seen[quad]} and {val} for the quadruple {quad}"
                )
            seen[quad] = val
            table[quad] = val
        self.components = table
        self._is_berwald_moor = table == _BERWALD_MOOR
        # adding +0.0 stores a -0.0 component as the +0.0 entries it stands for
        values = np.array([*table.values(), 0.0]) + 0.0
        dense = values[_QUAD_OF_ENTRY].reshape((DIM,) * 4)
        dense.flags.writeable = False
        self._dense = dense
        self._terms = _term_tables(values)

    @classmethod
    def berwald_moor(cls) -> "QuarticTensor":
        """1/4! on the distinct quadruple (1,2,3,4), zero elsewhere."""
        return cls({(1, 2, 3, 4): 1.0 / 24.0})

    @classmethod
    def from_components(cls, components) -> "QuarticTensor":
        return cls(dict(components))

    def __getitem__(self, idx) -> float:
        return self.components[_sorted_quad(idx)]

    @property
    def dense(self) -> np.ndarray:
        """Dense 4x4x4x4 view (0-based, fully symmetrized)."""
        return self._dense

    @property
    def is_berwald_moor(self) -> bool:
        return self._is_berwald_moor

    @property
    def terms(self) -> TermTable:
        """The term tables of G_pqrs y^p y^q y^r y^s, G_ipqr y^p y^q y^r and
        G_ijpq y^p y^q."""
        return self._terms

    def __repr__(self):
        nonzero = {q: v for q, v in self.components.items() if v != 0.0}
        return f"QuarticTensor({nonzero})"


def _col(v):
    """A batch of values (N,) against gradients (N, 4); a scalar as it is."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _mat(v):
    """A batch of values (N,) against Hessians (N, 4, 4); a scalar as it is."""
    return v[:, None, None] if isinstance(v, np.ndarray) else v


def pointwise_pow(x, p: float):
    """x ** p through the C library's pow, one value at a time: numpy's
    vectorised power rounds some results differently, and a batch must
    reproduce each of its points bit for bit."""
    if isinstance(x, np.ndarray):
        return np.array([v**p for v in x.tolist()])
    return x**p


class Taylor2:
    """Scalar with exact gradient and Hessian w.r.t. the four fiber coordinates,
    at one point or batched over N points.

    A scalar Taylor2 has a float value, a (4,) gradient and a (4, 4) Hessian;
    a batched one has value (N,), grad (N, 4) and hess (N, 4, 4), and every
    rule acts on the whole batch at once (vector-mode forward
    differentiation, Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
    SIAM 2008, ch. 13).  Each point of a batch gets bit for bit the result it
    gets on its own.  Constants may be scalars or (N,) arrays.

    Arithmetic propagates (value, grad, hess) by truncated second-order Taylor
    rules; for polynomial-and-root compositions the results are exact up to
    floating-point rounding. The Hessian stays exactly symmetric because every
    rule builds it from symmetric pieces (a x b + b x a outer products).
    """

    __slots__ = ("value", "grad", "hess")
    # numpy arrays and scalars on the left defer to the reflected operators
    # instead of mapping over a Taylor2 as an object
    __array_ufunc__ = None

    def __init__(self, value, grad=None, hess=None):
        v = np.array(value, dtype=float)
        if v.ndim > 1:
            raise ConstructionError(f"Taylor2 value must be a scalar or an (N,) batch, got shape {v.shape}")
        # C order keeps each point's gradient and Hessian contiguous
        g = np.zeros(v.shape + (DIM,)) if grad is None else np.array(grad, dtype=float, order="C")
        h = np.zeros(v.shape + (DIM, DIM)) if hess is None else np.array(hess, dtype=float, order="C")
        if g.shape != v.shape + (DIM,) or h.shape != v.shape + (DIM, DIM):
            raise ConstructionError("Taylor2 needs a 4-vector gradient and a 4x4 Hessian per point")
        self._set(v if v.ndim else float(v), g, h)

    def _set(self, value, grad, hess):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        else:
            value = float(value)
        grad.setflags(write=False)
        hess.setflags(write=False)
        self.value = value
        self.grad = grad
        self.hess = hess

    @classmethod
    def _wrap(cls, value, grad, hess) -> "Taylor2":
        out = object.__new__(cls)
        out._set(value, grad, hess)
        return out

    def _shifted(self, value) -> "Taylor2":
        """self plus a constant: value given, derivatives unchanged (spread
        over the batch when the constant brings one)."""
        batch = np.shape(value)
        return Taylor2._wrap(
            value,
            np.broadcast_to(self.grad, batch + (DIM,)).copy(),
            np.broadcast_to(self.hess, batch + (DIM, DIM)).copy(),
        )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor2):
            return Taylor2._wrap(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return self._shifted(self.value + other)

    __radd__ = __add__

    def __neg__(self):
        return Taylor2._wrap(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Taylor2):
            return Taylor2._wrap(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        return self._shifted(self.value - other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Taylor2):
            cross = self.grad[..., :, None] * other.grad[..., None, :]
            # (cross + cross.T) is summed on its own first so the Hessian
            # stays exactly symmetric (float addition commutes but does not
            # associate).
            return Taylor2._wrap(
                self.value * other.value,
                _col(self.value) * other.grad + _col(other.value) * self.grad,
                (_mat(self.value) * other.hess + _mat(other.value) * self.hess)
                + (cross + cross.swapaxes(-1, -2)),
            )
        return Taylor2._wrap(self.value * other, self.grad * _col(other), self.hess * _mat(other))

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2) -> "Taylor2":
        """Compose with a scalar map given its value and first two derivatives."""
        return Taylor2._wrap(
            f0,
            _col(f1) * self.grad,
            _mat(f1) * self.hess + _mat(f2) * (self.grad[..., :, None] * self.grad[..., None, :]),
        )

    def reciprocal(self) -> "Taylor2":
        refuse(self.value == 0.0, ZeroDivisionError, "reciprocal of a zero Taylor2 value", value=self.value)
        r = 1.0 / self.value
        return self._chain(r, -r * r, 2.0 * r * r * r)

    def __truediv__(self, other):
        if isinstance(other, Taylor2):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self) -> "Taylor2":
        # np.greater, not >: at a float value ~ must negate a numpy bool, not
        # a Python one (~True is -2)
        refuse(~np.greater(self.value, 0.0), DomainError, "sqrt of non-positive Taylor2 value", value=self.value)
        r = np.sqrt(self.value)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.value))

    def __pow__(self, p):
        p = float(p)
        if p != int(p):
            refuse(
                ~np.greater(self.value, 0.0), DomainError, "non-integer power of non-positive value", value=self.value
            )
        if p < 2.0:
            refuse(self.value == 0.0, ZeroDivisionError, f"power {p} of a zero Taylor2 value", value=self.value)
        f0 = pointwise_pow(self.value, p)
        f1 = p * pointwise_pow(self.value, p - 1.0)
        f2 = p * (p - 1.0) * pointwise_pow(self.value, p - 2.0)
        return self._chain(f0, f1, f2)

    def __repr__(self):
        return f"Taylor2(value={self.value!r}, grad={self.grad!r})"


def taylor2_seed(y) -> tuple[Taylor2, Taylor2, Taylor2, Taylor2]:
    """Seed the four fiber coordinates: the i-th output has value y_i,
    grad = e_i and hess = 0, at one point y of shape (4,) or over a batch of
    shape (N, 4)."""
    y = check_cone(y)
    eye = np.eye(DIM)
    return tuple(Taylor2(y[..., i], np.broadcast_to(eye[i], y.shape)) for i in range(DIM))
