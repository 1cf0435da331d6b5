"""Exception types shared across the package, and ``refuse``, the one rule
by which every guard and domain check raises them."""

import numpy as np


class JetBMError(Exception):
    """Base class for all jetbm errors."""


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
    if np.ndim(bad):
        k = int(np.flatnonzero(bad)[0])
        what, values = f"{what} at batch index {k}", {name: v[k] for name, v in values.items()}
    raise error(", ".join([what, *(f"{name}={v}" for name, v in values.items())]))
