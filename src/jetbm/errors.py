"""Exception types shared across the package, and ``refuse``, the one rule
by which every guard and domain check raises them."""

import numpy as np


class JetBMError(Exception):
    """Base class for all jetbm errors.  One that ``refuse`` raised over a
    batch holds the refused point's batch index in ``index``."""

    index: int | None = None

    def at(self, index: int, counts: str) -> "JetBMError":
        """This batch refusal again, naming its point as ``counts`` ``index``
        (a table row, say) instead of by its index in the batch that the
        refusing function saw."""
        what, values = self._refused
        return _refusal(type(self), what, f" at {counts} {index}", values, index)


class ConstructionError(JetBMError):
    """A domain object was built with invalid parameters."""


class DomainError(JetBMError):
    """A point lies outside the admissible domain (the open positive cone)."""


class SingularTensorError(JetBMError):
    """The contracted tensor G_ij11 is numerically singular at the given point."""


class DegenerateDenominatorError(JetBMError):
    """G_1111 - script-G vanishes, so the inverse-metric formula degenerates."""


class ConfigError(JetBMError):
    """A run configuration violates one of its invariants."""


class InvariantError(JetBMError):
    """An internal consistency guard failed: a computed object disagrees with
    an identity it must satisfy, which points at a defect in the program."""


def _refusal(error: type[Exception], what: str, where: str, values: dict, index: int | None) -> Exception:
    exc = error(", ".join([what + where, *(f"{name}={v}" for name, v in values.items())]))
    exc.index, exc._refused = index, (what, values)
    return exc


def refuse(bad, error: type[Exception], what: str, **values):
    """Raise ``error`` if any flag of ``bad`` is set, naming the first
    flagged point.  Over a batch, ``bad`` has shape (N,), each value is
    indexed along its first axis, and the message reads
    ``<what> at batch index k, y=..., ...``; a 0-d ``bad`` flags the one
    point that the values are, and names them as they are.  A caller flags
    a point as ``~(condition)``, so that a NaN fails the condition.  A plain
    raise, not an assert: no guard vanishes under ``python -O``."""
    if not np.count_nonzero(bad):
        return
    if not np.ndim(bad):
        raise _refusal(error, what, "", values, None)
    k = int(np.flatnonzero(bad)[0])
    raise _refusal(error, what, f" at batch index {k}", {name: v[k] for name, v in values.items()}, k)
