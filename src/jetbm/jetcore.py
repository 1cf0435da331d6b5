"""Core domain types: jet points, time-metric families, the symmetric quartic
tensor, and second-order forward-mode Taylor arithmetic.

``TimeMetric.eval`` is the one evaluator of the time axis: h_11, h^11, the
t-derivatives of h_11, kappa and dkappa/dt at a float t or over a whole batch
of t, returned as a ``TimeAxis``.  Every reader of these scalars calls it
once per batch.

Every object is immutable after construction and every operation is a pure
function of its inputs, so evaluation at many points can run concurrently.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import ConstructionError, DomainError

__all__ = [
    "JetPoint",
    "TimeMetric",
    "TimeAxis",
    "QuarticTensor",
    "Taylor2",
    "taylor2_seed",
]

DIM = 4


def _frozen(a, shape) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True).reshape(shape)
    out.flags.writeable = False
    return out


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
        object.__setattr__(self, "y", _frozen(self.y, (DIM,)))
        if not np.all(self.y > 0.0):
            raise DomainError(f"fiber coordinates must be strictly positive, got y={self.y}")

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
        if self.family not in ("constant", "exponential", "power"):
            raise ConstructionError(f"unknown time-metric family {self.family!r}")
        if self.family in ("constant", "exponential") and not self.c > 0.0:
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
        array operations.  Every power goes through ``pointwise_pow``, so each
        entry equals the one-point value bit for bit."""
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
        if not shape:
            return TimeAxis(*(float(v[0]) for v in values))
        return TimeAxis(*(_frozen(v, shape) for v in values))


def _sorted_quad(idx) -> tuple[int, int, int, int]:
    q = tuple(sorted(int(i) for i in idx))
    if len(q) != 4 or any(i < 1 or i > DIM for i in q):
        raise ConstructionError(f"index quadruple must hold four indices in 1..4, got {idx}")
    return q


class QuarticTensor:
    """Totally symmetric (0,4) tensor G_pqrs stored by sorted index quadruple.

    Keys use 1-based indices p <= q <= r <= s; the 35 independent components
    are all present (zeros included). Any permutation of a quadruple reads
    the same stored entry.
    """

    __slots__ = ("components", "_dense")

    def __init__(self, components: dict[tuple[int, int, int, int], float]):
        table = {q: 0.0 for q in combinations_with_replacement(range(1, DIM + 1), 4)}
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
        dense = np.zeros((DIM, DIM, DIM, DIM))
        for quad, val in table.items():
            if val != 0.0:
                zero_based = tuple(i - 1 for i in quad)
                for perm in set(permutations(zero_based)):
                    dense[perm] = val
        dense.flags.writeable = False
        self._dense = dense

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
        bm = 1.0 / 24.0
        return all(
            val == (bm if quad == (1, 2, 3, 4) else 0.0) for quad, val in self.components.items()
        )

    def __repr__(self):
        nonzero = {q: v for q, v in self.components.items() if v != 0.0}
        return f"QuarticTensor({nonzero})"


def _col(v):
    """A batch of values (N,) against gradients (N, 4); a scalar as it is."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _mat(v):
    """A batch of values (N,) against Hessians (N, 4, 4); a scalar as it is."""
    return v[:, None, None] if isinstance(v, np.ndarray) else v


def _refuse(bad, value, error, what: str):
    """Raise error(what) naming the first flagged value, and over a batch the
    index of its point."""
    if isinstance(value, np.ndarray):
        if np.count_nonzero(bad):
            k = int(np.flatnonzero(bad)[0])
            raise error(f"{what} {value[k]} at batch index {k}")
    elif bad:
        raise error(f"{what} {value}")


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
        _refuse(self.value == 0.0, self.value, ZeroDivisionError, "reciprocal of a zero Taylor2 value")
        r = 1.0 / self.value
        return self._chain(r, -r * r, 2.0 * r * r * r)

    def __truediv__(self, other):
        if isinstance(other, Taylor2):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self) -> "Taylor2":
        _refuse(self.value <= 0.0, self.value, DomainError, "sqrt of non-positive Taylor2 value")
        r = np.sqrt(self.value)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.value))

    def __pow__(self, p):
        p = float(p)
        if p != int(p):
            _refuse(self.value <= 0.0, self.value, DomainError, "non-integer power of non-positive value")
        if p < 2.0:
            _refuse(self.value == 0.0, self.value, ZeroDivisionError, f"power {p} of a zero Taylor2 value")
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
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != DIM:
        raise DomainError(f"expected a 4-vector or an (N, 4) batch, got shape {y.shape}")
    outside = ~np.all(y > 0.0, axis=-1)
    if y.ndim == 1 and outside:
        raise DomainError(f"seeds must lie in the positive cone, got {y}")
    if y.ndim == 2:
        _refuse(outside, y, DomainError, "seeds must lie in the positive cone, got")
    eye = np.eye(DIM)
    return tuple(Taylor2(y[..., i], np.broadcast_to(eye[i], y.shape)) for i in range(DIM))
