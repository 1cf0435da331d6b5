"""Run configuration: plain-text key-value document with sections
time_metric, tensor, sampling, constants, tolerances.

Example::

    [time_metric]
    family = exponential
    c = 1.0
    lam = 1.0

    [tensor]
    kind = berwald_moor

    [sampling]
    seed = 42
    samples = 1000
    y_min = 0.1
    y_max = 10
    t_min = -1
    t_max = 1

    [constants]
    einstein_k = 1.0

    [tolerances]
    fd = 1e-5

Custom tensors list components one per line as ``p q r s = value`` under a
multiline ``components`` key.  Every violated invariant is reported with its
field path.  The value rules (``_RULES``) hold for every ``RunConfig``, however
it is built: by ``parse_config``, directly, or by ``dataclasses.replace``.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields

from ..errors import ConfigError, ConstructionError
from ..jetcore import _FAMILY_PARAMS, QuarticTensor, TimeMetric

__all__ = ["RunConfig", "parse_config", "default_config"]

# the document path of each value a run configuration holds, in the order of
# its echo (``RunConfig.to_dict``): every section and key a document may hold
_PATHS = {
    "family": "time_metric.family",
    "c": "time_metric.c",
    "lam": "time_metric.lam",
    "a": "time_metric.a",
    "kind": "tensor.kind",
    "components": "tensor.components",
    "seed": "sampling.seed",
    "samples": "sampling.samples",
    "y_min": "sampling.y_min",
    "y_max": "sampling.y_max",
    "t_min": "sampling.t_min",
    "t_max": "sampling.t_max",
    "einstein_k": "constants.einstein_k",
    "fd_step": "tolerances.fd",
}
# the keys a document may hold, by section
_KNOWN_KEYS: dict[str, set[str]] = {}
for _section, _key in (path.split(".") for path in _PATHS.values()):
    _KNOWN_KEYS.setdefault(_section, set()).add(_key)
# the numbers a TimeMetric holds: the parameters of every family
_TIME_METRIC_KEYS = {name for params in _FAMILY_PARAMS.values() for name in params}

# the value rules besides finiteness, as (the numbers a rule reads, the rule,
# what it asks); a broken rule is reported at the path of its last number
_RULES = (
    (("seed",), lambda seed: seed >= 0, "be >= 0"),
    (("samples",), lambda samples: samples >= 1, "be >= 1"),
    (("y_min",), lambda lo: lo > 0.0, "be > 0"),
    (("y_min", "y_max"), lambda lo, hi: lo < hi, "satisfy 0 < y_min < y_max"),
    (("t_min", "t_max"), lambda lo, hi: lo <= hi, "satisfy t_min <= t_max"),
    (("einstein_k",), lambda k: k != 0.0, "be nonzero"),
    (("fd_step",), lambda h: h > 0.0, "be > 0"),
)


def _violations(numbers: dict) -> list[str]:
    """One message per value rule the numbers (keyed as ``_PATHS``) break,
    each naming its field path; a rule over a non-finite number is not
    tried, that number being reported as not finite."""
    bad = {name for name, value in numbers.items() if not math.isfinite(value)}
    errors = [f"{_PATHS[name]}: must be finite, got {numbers[name]!r}" for name in _PATHS if name in bad]
    for names, holds, rule in _RULES:
        values = [numbers[name] for name in names]
        if bad.isdisjoint(names) and not holds(*values):
            errors.append(f"{_PATHS[names[-1]]}: must {rule}, got {values[0] if len(values) == 1 else values}")
    return errors


def _refuse(errors: list[str]):
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))


@dataclass(frozen=True)
class RunConfig:
    time_metric: TimeMetric = field(default_factory=lambda: TimeMetric.constant(1.0))
    tensor: QuarticTensor = field(default_factory=QuarticTensor.berwald_moor)
    seed: int = 42
    samples: int = 1000
    y_min: float = 0.1
    y_max: float = 10.0
    t_min: float = -1.0
    t_max: float = 1.0
    einstein_k: float = 1.0
    fd_step: float = 1e-5

    def __post_init__(self):
        tm = self.time_metric
        _refuse(_violations({name: getattr(tm if name in _TIME_METRIC_KEYS else self, name) for name in _DEFAULTS}))

    def to_dict(self) -> dict:
        """Sectioned echo of the configuration, suitable for report output:
        the time-metric family with its own parameters, the tensor's kind
        with a custom tensor's nonzero components, and every other number,
        each at its document path, in the order of ``_PATHS``."""
        tm, G = self.time_metric, self.tensor
        values = {name: getattr(self, name) for name in _DEFAULTS if name not in _TIME_METRIC_KEYS}
        values.update({name: getattr(tm, name) for name in _FAMILY_PARAMS[tm.family]})
        values.update(family=tm.family, kind="berwald_moor" if G.is_berwald_moor else "custom")
        if not G.is_berwald_moor:
            values["components"] = {" ".join(map(str, quad)): val for quad, val in G.components.items() if val != 0.0}
        doc: dict = {}
        for name, path in _PATHS.items():
            if name in values:
                section, key = path.split(".")
                doc.setdefault(section, {})[key] = values[name]
        return doc


def default_config() -> RunConfig:
    return RunConfig()


# the default of each number a run configuration holds, keyed as ``_PATHS``
_DEFAULTS = {f.name: f.default for cls in (TimeMetric, RunConfig) for f in fields(cls) if f.default is not MISSING}


def _raw(parser: configparser.ConfigParser, name: str, fallback: str | None = None) -> str | None:
    """The text at the document path of the value ``name``, or fallback."""
    return parser.get(*_PATHS[name].split("."), fallback=fallback)


def _parse_components(raw: str, errors: list[str]) -> dict:
    components = {}
    for line in raw.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"tensor.components: expected 'p q r s = value', got {line!r}")
            continue
        lhs, _, rhs = line.partition("=")
        try:
            idx = tuple(int(tok) for tok in lhs.split())
            val = float(rhs)
        except ValueError:
            errors.append(f"tensor.components: cannot parse {line!r}")
            continue
        if not math.isfinite(val):
            errors.append(f"tensor.components: values must be finite, got {line!r}")
            continue
        if len(idx) != 4 or any(i < 1 or i > 4 for i in idx):
            errors.append(f"tensor.components: indices must be four values in 1..4, got {idx}")
            continue
        components[idx] = val
    return components


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document.

    Raises ConfigError listing every violated invariant with its field path.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"document: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"{section}: unknown section")
            continue
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"{section}.{key}: unknown key")

    numbers = {}
    for name, default in _DEFAULTS.items():
        raw = _raw(parser, name)
        try:
            numbers[name] = default if raw is None else type(default)(raw)
        except ValueError:
            errors.append(f"{_PATHS[name]}: not {'an integer' if type(default) is int else 'a number'}: {raw!r}")
            numbers[name] = default
    errors.extend(_violations(numbers))

    family = _raw(parser, "family", "constant").strip()
    if family not in _FAMILY_PARAMS:
        *others, last = _FAMILY_PARAMS
        errors.append(f"{_PATHS['family']}: must be {', '.join(others)} or {last}, got {family!r}")
    elif "c" in _FAMILY_PARAMS[family] and numbers["c"] <= 0.0:
        errors.append(f"{_PATHS['c']}: must be > 0, got {numbers['c']}")

    kind = _raw(parser, "kind", "berwald_moor").strip()
    tensor = None
    if kind == "berwald_moor":
        tensor = QuarticTensor.berwald_moor()
    elif kind == "custom":
        raw = _raw(parser, "components", "")
        comps = _parse_components(raw, errors)
        if not comps:
            errors.append("tensor.components: custom tensor needs at least one component")
        else:
            try:
                tensor = QuarticTensor.from_components(comps)
            except ConstructionError as exc:
                errors.append(f"tensor.components: {exc}")
    else:
        errors.append(f"tensor.kind: must be berwald_moor or custom, got {kind!r}")

    _refuse(errors)
    tm = TimeMetric(family, **{name: numbers.pop(name) for name in _TIME_METRIC_KEYS})
    return RunConfig(time_metric=tm, tensor=tensor, **numbers)
