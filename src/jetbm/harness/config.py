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
field path.
"""

import configparser
import math
from dataclasses import dataclass, field

from ..errors import ConfigError, ConstructionError
from ..jetcore import QuarticTensor, TimeMetric

__all__ = ["RunConfig", "parse_config", "default_config"]

_KNOWN_KEYS = {
    "time_metric": {"family", "c", "lam", "a"},
    "tensor": {"kind", "components"},
    "sampling": {"seed", "samples", "y_min", "y_max", "t_min", "t_max"},
    "constants": {"einstein_k"},
    "tolerances": {"fd"},
}


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

    def to_dict(self) -> dict:
        """Sectioned echo of the configuration, suitable for report output."""
        tm = self.time_metric
        tm_doc = {"family": tm.family}
        if tm.family in ("constant", "exponential"):
            tm_doc["c"] = tm.c
        if tm.family == "exponential":
            tm_doc["lam"] = tm.lam
        if tm.family == "power":
            tm_doc["a"] = tm.a
        tensor_doc: dict = {"kind": "berwald_moor" if self.tensor.is_berwald_moor else "custom"}
        if not self.tensor.is_berwald_moor:
            tensor_doc["components"] = {
                " ".join(map(str, quad)): val for quad, val in self.tensor.components.items() if val != 0.0
            }
        return {
            "time_metric": tm_doc,
            "tensor": tensor_doc,
            "sampling": {
                "seed": self.seed,
                "samples": self.samples,
                "y_min": self.y_min,
                "y_max": self.y_max,
                "t_min": self.t_min,
                "t_max": self.t_max,
            },
            "constants": {"einstein_k": self.einstein_k},
            "tolerances": {"fd": self.fd_step},
        }


def default_config() -> RunConfig:
    return RunConfig()


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

    def get_float(section, key, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            value = float(raw)
        except ValueError:
            errors.append(f"{section}.{key}: not a number: {raw!r}")
            return default
        if not math.isfinite(value):
            errors.append(f"{section}.{key}: must be finite, got {raw!r}")
            return default
        return value

    def get_int(section, key, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            return int(raw)
        except ValueError:
            errors.append(f"{section}.{key}: not an integer: {raw!r}")
            return default

    family = parser.get("time_metric", "family", fallback="constant").strip()
    c = get_float("time_metric", "c", 1.0)
    lam = get_float("time_metric", "lam", 0.0)
    a = get_float("time_metric", "a", 1.0)
    tm = None
    if family not in ("constant", "exponential", "power"):
        errors.append(f"time_metric.family: must be constant, exponential or power, got {family!r}")
    elif family in ("constant", "exponential") and c <= 0.0:
        errors.append(f"time_metric.c: must be > 0, got {c}")
    else:
        tm = TimeMetric(family=family, c=c, lam=lam, a=a)

    kind = parser.get("tensor", "kind", fallback="berwald_moor").strip()
    tensor = None
    if kind == "berwald_moor":
        tensor = QuarticTensor.berwald_moor()
    elif kind == "custom":
        raw = parser.get("tensor", "components", fallback="")
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

    seed = get_int("sampling", "seed", 42)
    samples = get_int("sampling", "samples", 1000)
    y_min = get_float("sampling", "y_min", 0.1)
    y_max = get_float("sampling", "y_max", 10.0)
    t_min = get_float("sampling", "t_min", -1.0)
    t_max = get_float("sampling", "t_max", 1.0)
    einstein_k = get_float("constants", "einstein_k", 1.0)
    fd_step = get_float("tolerances", "fd", 1e-5)

    if seed < 0:
        errors.append(f"sampling.seed: must be >= 0, got {seed}")
    if samples < 1:
        errors.append(f"sampling.samples: must be >= 1, got {samples}")
    if not y_min > 0.0:
        errors.append(f"sampling.y_min: must be > 0, got {y_min}")
    if not y_min < y_max:
        errors.append(f"sampling.y_max: must satisfy 0 < y_min < y_max, got [{y_min}, {y_max}]")
    if not t_min <= t_max:
        errors.append(f"sampling.t_max: must satisfy t_min <= t_max, got [{t_min}, {t_max}]")
    if einstein_k == 0.0:
        errors.append("constants.einstein_k: must be nonzero")
    if not fd_step > 0.0:
        errors.append(f"tolerances.fd: must be > 0, got {fd_step}")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(
        time_metric=tm,
        tensor=tensor,
        seed=seed,
        samples=samples,
        y_min=y_min,
        y_max=y_max,
        t_min=t_min,
        t_max=t_max,
        einstein_k=einstein_k,
        fd_step=fd_step,
    )
