"""The four workloads: seeded inputs, the CLI argv of each operation, and
the check of each operation's output.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned and been checked. Inputs depend only on
the workload seed. ``prepare`` builds the configuration and tensor from the
freshly imported program and is timed as part of set-up.
"""

import importlib
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

VERIFY_SAMPLES = 1000
N_CHECKS = 39

# ROADMAP: these three fail by design on a correct implementation and must
# stay visible
KNOWN_RICCI_FAILURES = frozenset(
    {
        "ricci/contraction-vs-field-diag",
        "ricci/divergence-contraction",
        "ricci/scalar-vs-field",
    }
)

# Known defect: on the default box y in [0.1, 10]^4 these checks fail for the
# custom tensor because their absolute tolerances do not scale with the
# magnitudes involved (see README). They are allowed to fail, and each run
# reports how many did.
CUSTOM_TOLERATED = frozenset(
    {
        "metric/zero-homogeneity",
        "curvature/proportionality",
        "einstein/block-symmetry",
        "einstein/raised-cross-check",
    }
)

CUSTOM_SKIPPED = frozenset(
    {
        "metric/closed-form-oracle",
        "gscalars/determinant-closed",
        "gscalars/script-scalar-closed",
        "gscalars/raised-vector-closed",
        "gscalars/inverse-closed-form",
        "cartan/vertical-oracle",
        "cartan/horizontal-oracle",
        "cartan/vertical-trace",
        "curvature/vertical-oracle",
        "ricci/contraction-closed-form",
        "ricci/contraction-vs-field-offdiag",
        "ricci/contraction-vs-field-diag",
        "ricci/raised-field-closed",
        "ricci/curl-orthogonality",
        "ricci/divergence-field",
        "ricci/divergence-contraction",
        "ricci/scalar-closed-form",
        "ricci/scalar-vs-field",
        "conservation/closed-rhs",
        "conservation/residual-nonzero",
        "conservation/decay-rate",
    }
)

# eval: relative tolerances against the closed forms, applied as
# max|computed - closed| <= rtol * max|closed| over each object
EVAL_RTOL = {"g_lo": 1e-10, "C": 1e-9, "S": 1e-9, "conservation": 1e-8}
SWEEP_RTOL = 1e-12

SWEEP_COUNTS = (30, 30, 30)  # t, y1, y2 -> 27 000 rows
EVAL_POINTS = 4096


def _harness(module: str):
    return importlib.import_module(f"jetbm.{module}")


def _rel_dev(computed, closed) -> float:
    a = np.asarray(computed, dtype=float)
    b = np.asarray(closed, dtype=float)
    scale = float(np.abs(b).max(initial=0.0))
    dev = float(np.abs(a - b).max(initial=0.0))
    if dev == 0.0:
        return 0.0
    return dev / scale if scale > 0.0 else math.inf


class Verify:
    """``jetbm verify --samples 1000`` at the workload seed, repeated.

    Every repetition uses the same seed, so each report after the first must
    match the first byte for byte.
    """

    points_name = "samples"
    points_per_op = VERIFY_SAMPLES
    elasticity = 0.7  # see hostspeed.py
    min_ops = 3
    min_trace_ops = 2

    def __init__(self, name: str, config: Path | None):
        self.name = name
        self.config = config
        self.reference: str | None = None
        self.tolerated: list[str] | None = None

    def inputs(self, seed: int):
        self.seed = seed

    def prepare(self):
        cfg_mod = _harness("harness.config")
        if self.config is None:
            self.cfg = cfg_mod.default_config()
        else:
            self.cfg = cfg_mod.parse_config(self.config.read_text())

    def _argv(self, samples: int) -> list[str]:
        argv = ["verify", "--seed", str(self.seed), "--samples", str(samples)]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        return argv

    def warmup_argv(self) -> list[str]:
        return self._argv(20)

    def argv(self, i: int) -> list[str]:
        return self._argv(VERIFY_SAMPLES)

    def check(self, i: int, rc: int, out: str) -> str | None:
        if self.reference is not None:
            if out != self.reference:
                return "report differs from the first report of this seed"
            return None if rc == self.reference_rc else f"exit code {rc}, first run gave {self.reference_rc}"
        doc = json.loads(out)
        reports = doc["reports"]
        if len(reports) != N_CHECKS:
            return f"{len(reports)} reports, expected {N_CHECKS}"
        failed = {r["check_name"] for r in reports if not r["pass"]}
        skipped = {r["check_name"] for r in reports if r["skipped"]}
        if rc != (0 if doc["overall_pass"] else 1):
            return f"exit code {rc} does not match overall_pass={doc['overall_pass']}"
        if self.cfg.tensor.is_berwald_moor:
            if skipped:
                return f"unexpected skips {sorted(skipped)}"
            if failed != KNOWN_RICCI_FAILURES:
                return f"failing checks {sorted(failed)}, expected exactly {sorted(KNOWN_RICCI_FAILURES)}"
        else:
            if skipped != CUSTOM_SKIPPED:
                return f"skipped set changed: {sorted(skipped ^ CUSTOM_SKIPPED)}"
            if not failed <= CUSTOM_TOLERATED:
                return f"failing checks outside the tolerated set: {sorted(failed - CUSTOM_TOLERATED)}"
            self.tolerated = sorted(failed)
        self.reference = out
        self.reference_rc = rc
        return None

    def notes(self) -> dict:
        if self.cfg.tensor.is_berwald_moor:
            return {"known_failures": sorted(KNOWN_RICCI_FAILURES)}
        return {"tolerated_failures": self.tolerated, "tolerated_set": sorted(CUSTOM_TOLERATED)}


class Eval:
    """``jetbm eval --t … --y …`` at seeded points: batch-1 latency.

    y is log-uniform on the default box [0.1, 10]^4 and t uniform on
    [-1, 1]; the i-th call uses point i mod EVAL_POINTS.
    """

    name = "eval"
    points_name = "calls"
    points_per_op = 1
    elasticity = 1.0
    min_ops = 200
    min_trace_ops = 50

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        self.y = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(EVAL_POINTS, 4)))
        self.t = rng.uniform(-1.0, 1.0, size=EVAL_POINTS)
        warm = np.random.default_rng([seed, 1])
        self.warm_y = np.exp(warm.uniform(np.log(0.1), np.log(10.0), size=4))

    def prepare(self):
        self.cfg = _harness("harness.config").default_config()
        self.jetpoint = _harness("jetcore").JetPoint
        self.bm_metric_closed = _harness("metric").bm_metric_closed
        self.bm_cartan_closed = _harness("connection").bm_cartan_closed
        self.bm_s_closed = _harness("curvature").bm_s_closed

    @staticmethod
    def _vec(v) -> str:
        return ",".join(repr(float(x)) for x in v)

    # "--t=VALUE": argparse takes "--t -1.5e-05" for two options, because a
    # negative number in exponent notation looks like a flag to it
    def warmup_argv(self) -> list[str]:
        return ["eval", "--t=0.0", f"--y={self._vec(self.warm_y)}"]

    def argv(self, i: int) -> list[str]:
        k = i % EVAL_POINTS
        return ["eval", f"--t={float(self.t[k])!r}", f"--y={self._vec(self.y[k])}"]

    def check(self, i: int, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        k = i % EVAL_POINTS
        doc = json.loads(out)
        y = np.array(doc["point"]["y"])
        if not np.array_equal(y, self.y[k]) or doc["point"]["t"] != float(self.t[k]):
            return "point echo differs from the input"
        p = self.jetpoint.from_y(y, t=doc["point"]["t"])
        cons = doc["conservation"]
        devs = {
            "g_lo": _rel_dev(doc["metric"]["g_lo"], self.bm_metric_closed(y).g_lo),
            "C": _rel_dev(doc["cartan"]["C"], self.bm_cartan_closed(self.cfg.time_metric, p).c),
            "S": _rel_dev(doc["curvatures"]["S"], self.bm_s_closed(y)),
            "conservation": max(
                _rel_dev([cons["T1"]], [cons["closed_T1"]]),
                _rel_dev(cons["Ti"], cons["closed_Ti"]),
                _rel_dev(cons["Tyi"], cons["closed_Tyi"]),
            ),
        }
        bad = {key: dev for key, dev in devs.items() if not dev <= EVAL_RTOL[key]}
        if bad:
            return f"point {k}: relative deviation from the closed form {bad}"
        return None

    def notes(self) -> dict:
        return {"eval_rtol": EVAL_RTOL}


class Sweep:
    """``jetbm sweep --field Sc`` over a seeded (t, y1, y2) grid.

    The grid bounds are drawn from the seed; every repetition sweeps the same
    grid, so the first output is checked row by row and later outputs must
    match it byte for byte.
    """

    name = "sweep"
    points_name = "rows"
    points_per_op = math.prod(SWEEP_COUNTS)
    elasticity = 0.7
    min_ops = 3
    min_trace_ops = 2

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        t0, t1 = sorted(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        axes = [f"t={t0!r}:{t1!r}:{SWEEP_COUNTS[0]}"]
        for name, n in zip(("y1", "y2"), SWEEP_COUNTS[1:]):
            lo = float(np.exp(rng.uniform(np.log(0.1), np.log(1.0))))
            hi = float(np.exp(rng.uniform(np.log(2.0), np.log(10.0))))
            axes.append(f"{name}={lo!r}:{hi!r}:{n}")
        self.grid = ",".join(axes)
        self.reference: str | None = None

    def prepare(self):
        self.cfg = _harness("harness.config").default_config()
        self.sc_field = _harness("curvature").scalar_curvature_field

    def warmup_argv(self) -> list[str]:
        return ["sweep", "--field", "Sc", "--grid", "t=-1:1:5,y1=0.1:10:5,y2=0.1:10:5"]

    def argv(self, i: int) -> list[str]:
        return ["sweep", "--field", "Sc", "--grid", self.grid]

    def check(self, i: int, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if self.reference is not None:
            return None if out == self.reference else "output differs from the first sweep of this grid"
        lines = out.splitlines()
        if lines[0] != "t,y1,y2,Sc":
            return f"header {lines[0]!r}"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if rows.shape != (self.points_per_op, 4):
            return f"table shape {rows.shape}, expected ({self.points_per_op}, 4)"
        if not np.all(np.isfinite(rows)):
            return "non-finite value"
        tm = self.cfg.time_metric
        for t, y1, y2, sc in rows:
            ref = self.sc_field(tm, t, np.array([y1, y2, 1.0, 1.0]))
            if not abs(sc - ref) <= SWEEP_RTOL * abs(ref):
                return f"Sc={sc!r} at (t={t!r}, y1={y1!r}, y2={y2!r}), field layer gives {ref!r}"
        self.reference = out
        return None

    def notes(self) -> dict:
        return {"grid": self.grid, "sweep_rtol": SWEEP_RTOL}


def make(name: str):
    if name == "verify-bm":
        return Verify(name, None)
    if name == "verify-custom":
        return Verify(name, HERE / "custom.ini")
    if name == "eval":
        return Eval()
    if name == "sweep":
        return Sweep()
    raise ValueError(name)


WORKLOADS = ("verify-bm", "verify-custom", "eval", "sweep")
