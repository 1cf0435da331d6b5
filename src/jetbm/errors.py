"""Exception types shared across the package."""


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
