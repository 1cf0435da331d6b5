"""Configuration, verification-suite runner, sweeps, and the CLI."""

from .checks import SWEEP_FIELDS, SuiteResult, VerificationReport, parse_grid, run_verify, sweep
from .config import RunConfig, default_config, parse_config

__all__ = [
    "RunConfig",
    "parse_config",
    "default_config",
    "SuiteResult",
    "VerificationReport",
    "run_verify",
    "sweep",
    "parse_grid",
    "SWEEP_FIELDS",
]
