import ctypes
import functools
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from jetbm import (
    ConfigError,
    JetBMError,
    QuarticTensor,
    Taylor2,
    TimeMetric,
    g_scalars,
    scalar_curvature_field,
    xi_11,
)
from jetbm import closed, fieldtheory
from jetbm.closed import closed_rhs_of
import jetbm.geometry as kernel
from jetbm.geometry import CHUNK, METRIC_CHUNK
from jetbm.harness import checks as verify_checks
from jetbm.harness import cli, default_config, jsondoc, parse_config, parse_grid, run_verify, sweep
from jetbm.harness.checks import SWEEP_FIELDS, check_names, sweep_csv
from jetbm.harness.config import RunConfig

from conftest import traced_peak

MINIMAL = """
[time_metric]
family = constant
c = 1

[tensor]
kind = berwald_moor
"""

CUSTOM_BM = """
[time_metric]
family = constant
c = 1

[tensor]
kind = custom
components =
    1 2 3 4 = 0.041666666666666664
"""

CUSTOM_OTHER = """
[time_metric]
family = exponential
c = 1
lam = 1

[tensor]
kind = custom
components =
    1 2 3 4 = 0.041666666666666664
    1 1 2 2 = 0.01
"""

KNOWN_DISCREPANCIES = {
    "ricci/contraction-vs-field-diag",
    "ricci/divergence-contraction",
    "ricci/scalar-vs-field",
}


# -- config parsing ------------------------------------------------------------


def test_minimal_document_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 42
    assert cfg.samples == 1000
    assert (cfg.y_min, cfg.y_max) == (0.1, 10.0)
    assert (cfg.t_min, cfg.t_max) == (-1.0, 1.0)
    assert cfg.einstein_k == 1.0
    assert cfg.fd_step == 1e-5
    assert cfg.tensor.is_berwald_moor
    assert cfg.time_metric.family == "constant"


def test_negative_y_min_names_the_field():
    doc = MINIMAL + "\n[sampling]\ny_min = -1\n"
    with pytest.raises(ConfigError, match="sampling.y_min"):
        parse_config(doc)


@pytest.mark.parametrize(
    "section,line,path",
    [
        ("sampling", "samples = 0", "sampling.samples"),
        ("sampling", "seed = -3", "sampling.seed"),
        ("constants", "einstein_k = 0", "constants.einstein_k"),
        # rel and abs were never read by any check and are no longer keys:
        # a bad value and a formerly valid one are both refused by name
        ("tolerances", "rel = 0", "tolerances.rel"),
        ("tolerances", "abs = -1e-9", "tolerances.abs"),
        ("tolerances", "rel = 1e-9", "tolerances.rel: unknown key"),
        ("tolerances", "abs = 1e-10", "tolerances.abs: unknown key"),
        ("tolerances", "fd = 0", "tolerances.fd"),
    ],
)
def test_violations_are_reported_with_field_paths(section, line, path):
    doc = MINIMAL + f"\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        parse_config(doc)


FLOAT_KEYS = [
    ("time_metric", "c"),
    ("time_metric", "lam"),
    ("time_metric", "a"),
    ("sampling", "y_min"),
    ("sampling", "y_max"),
    ("sampling", "t_min"),
    ("sampling", "t_max"),
    ("constants", "einstein_k"),
    ("tolerances", "fd"),
]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS, ids=lambda v: v)
def test_non_finite_float_keys_are_refused_by_name(section, key, value):
    with pytest.raises(ConfigError, match=rf"{section}\.{key}: must be finite"):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_bad_family_and_kind_named():
    with pytest.raises(ConfigError, match=r"time_metric\.family"):
        parse_config(MINIMAL.replace("family = constant", "family = fourier"))
    with pytest.raises(ConfigError, match=r"tensor\.kind"):
        parse_config(MINIMAL.replace("kind = berwald_moor", "kind = dense"))


def test_all_violations_reported_at_once():
    doc = MINIMAL + "\n[sampling]\ny_min = -1\nsamples = 0\n[constants]\neinstein_k = 0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    msg = str(exc.value)
    assert "sampling.y_min" in msg and "sampling.samples" in msg and "constants.einstein_k" in msg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="sampling.smaples"):
        parse_config(MINIMAL + "\n[sampling]\nsmaples = 10\n")


def test_custom_single_quadruple_is_bm_equivalent():
    cfg = parse_config(CUSTOM_BM)
    assert cfg.tensor.is_berwald_moor


def test_custom_components_parse_errors():
    with pytest.raises(ConfigError, match="tensor.components"):
        parse_config(CUSTOM_BM.replace("1 2 3 4 = 0.041666666666666664", "1 2 3 = 0.5"))
    with pytest.raises(ConfigError, match="tensor.components"):
        parse_config(CUSTOM_BM.replace("1 2 3 4 = 0.041666666666666664", "junk"))
    conflicting = CUSTOM_BM.replace(
        "    1 2 3 4 = 0.041666666666666664",
        "    1 2 3 4 = 0.041666666666666664\n    4 3 2 1 = 0.05",
    )
    with pytest.raises(ConfigError, match="tensor.components"):
        parse_config(conflicting)
    with pytest.raises(ConfigError, match="tensor.components: values must be finite"):
        parse_config(CUSTOM_OTHER.replace("1 1 2 2 = 0.01", "1 1 2 2 = nan"))


# -- suite runner ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_bm_result():
    cfg = replace(parse_config(MINIMAL), samples=60)
    return run_verify(cfg)


def test_known_failures_are_exactly_the_bridge_checks(small_bm_result):
    fails = {r.check_name for r in small_bm_result.reports if not r.passed}
    assert fails == KNOWN_DISCREPANCIES
    assert small_bm_result.overall_pass is False


def _benchmark_module(name: str):
    """A module of the benchmark, loaded by path (the benchmark is no package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: a fixed absolute tolerance fails falsely at this seed; "
    "the error-bounded tolerances are to make this pass",
)
@pytest.mark.parametrize("config, seed", [("default", 45), ("custom", 32), ("custom", 53), ("custom", 75)])
def test_verify_seed_meets_the_benchmark_rule(config, seed):
    """The benchmark's output check for ``verify --samples 1000`` at a seed
    it draws: on the default tensor exactly the three ricci/* checks fail,
    and on the custom tensor nothing fails outside its tolerated set.  At
    these seeds a scale-blind check fails besides: einstein/raised-cross-check
    at default seed 45; cartan/time-component-zero and
    cartan/vertical-y-transversality at custom seeds 32 and 53;
    metric/inverse-pair at custom seed 75."""
    workloads = _benchmark_module("workloads")
    cfg = default_config() if config == "default" else parse_config(CUSTOM_OTHER)
    res = run_verify(replace(cfg, seed=seed, samples=workloads.VERIFY_SAMPLES))
    failed = {r.check_name for r in res.reports if not r.passed}
    if cfg.tensor.is_berwald_moor:
        assert failed == workloads.KNOWN_RICCI_FAILURES
    else:
        assert failed <= workloads.CUSTOM_TOLERATED


def test_report_order_matches_catalog(small_bm_result):
    assert [r.check_name for r in small_bm_result.reports] == check_names()


CATALOG_NAMES = [
    "metric/closed-form-oracle",
    "metric/inverse-pair",
    "gscalars/euler-identities",
    "gscalars/determinant-closed",
    "gscalars/script-scalar-closed",
    "gscalars/raised-vector-closed",
    "gscalars/inverse-closed-form",
    "metric/hessian-of-energy",
    "metric/zero-homogeneity",
    "christoffel/fd-cross-check",
    "connection/cobasis-duality",
    "cartan/vertical-oracle",
    "cartan/horizontal-oracle",
    "cartan/time-component-zero",
    "cartan/vertical-symmetry",
    "cartan/vertical-y-transversality",
    "cartan/vertical-trace",
    "curvature/vertical-oracle",
    "curvature/antisymmetry",
    "curvature/proportionality",
    "torsion/closed-forms",
    "ricci/contraction-closed-form",
    "ricci/contraction-vs-field-offdiag",
    "ricci/contraction-vs-field-diag",
    "ricci/raised-field-closed",
    "ricci/curl-orthogonality",
    "ricci/divergence-field",
    "ricci/divergence-contraction",
    "ricci/scalar-closed-form",
    "ricci/scalar-vs-field",
    "einstein/zero-blocks",
    "einstein/block-symmetry",
    "einstein/raised-cross-check",
    "conservation/closed-rhs",
    "conservation/residual-nonzero",
    "conservation/decay-rate",
    "des/unsolvable",
    "em/two-form-zero",
    "autodiff/fd-soundness",
]


def _raising(fn):
    """A stand-in for the group function fn, under its name, that fails if run."""

    @functools.wraps(fn)
    def run(*args):
        raise AssertionError(f"group {fn.__name__} ran")

    return run


def test_check_names_reads_the_catalog_and_runs_no_group(monkeypatch):
    """check_names evaluates nothing: with every group function raising it
    still lists the 39 checks in report order (run_verify does run them)."""
    patched = tuple(replace(g, fn=_raising(g.fn)) for g in verify_checks._CATALOG)
    monkeypatch.setattr(verify_checks, "_CATALOG", patched)
    assert check_names() == CATALOG_NAMES
    with pytest.raises(AssertionError, match="group _grp_gscalars ran"):
        run_verify(RunConfig(samples=1))


def test_custom_tensor_runs_no_group_of_closed_form_checks_alone(monkeypatch):
    """On a custom tensor the runner does not run a group whose every check
    is bm_only (ricci, conservation, decay), reports those checks as skipped,
    and still times every group in catalog order."""
    bm_groups = [g.name for g in verify_checks._CATALOG if all(c.bm_only for c in g.checks)]
    assert bm_groups == ["ricci", "conservation", "decay"]
    patched = tuple(replace(g, fn=_raising(g.fn)) if g.name in bm_groups else g for g in verify_checks._CATALOG)
    monkeypatch.setattr(verify_checks, "_CATALOG", patched)
    timed = []
    cfg = replace(parse_config(CUSTOM_OTHER), samples=10, y_min=0.7, y_max=1.4)
    res = run_verify(cfg, on_group=lambda name, n, seconds, stages: timed.append(name))
    assert timed == GROUPS
    skipped = [r.check_name for r in res.reports if r.skipped]
    assert [name for name in skipped if name.startswith(("ricci/", "conservation/"))] == CATALOG_NAMES[21:30] + CATALOG_NAMES[33:36]


@pytest.mark.parametrize(
    "feed",
    [
        lambda err: err.add([1.0, np.nan], [1.0, 2.0]),
        lambda err: err.add_residual([0.0, np.nan]),
        lambda err: err.record(np.nan),
    ],
    ids=["add", "add_residual", "record"],
)
def test_error_accumulator_keeps_a_nan(feed):
    """A NaN makes both worst errors NaN, whatever was folded before or after."""
    err = verify_checks._Err()
    err.add([3.0], [1.0])
    feed(err)
    err.add([50.0], [1.0])
    err.add_residual([7.0])
    assert np.isnan(err.abs) and np.isnan(err.rel)
    report = verify_checks.VerificationReport.from_errors("x", 1, err.abs, err.rel, seed=1, abs_tol=1e3, rel_tol=1e3)
    assert not report.passed


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
def test_error_accumulator_divides_where_the_scale_is_nonzero(rng):
    """add's relative error is the maximum of |a - b| / max(|a|, |b|) over the
    entries whose scale is nonzero (0 if there is none): the same floats as
    dividing the compacted nonzero entries."""
    a = rng.normal(size=(64, 4, 4)) * 10.0 ** rng.integers(-300, 300, size=(64, 4, 4))
    b = a * (1.0 + 1e-13 * rng.normal(size=a.shape))
    a[0], b[0] = 0.0, 0.0
    a[1, 0], b[1, 1] = np.inf, -np.inf
    for x, y in ((a, b), (np.zeros(3), np.zeros(3)), ([0.0, 1.0], [-0.0, 3.0])):
        x, y = np.asarray(x, float), np.asarray(y, float)
        d = np.abs(x - y)
        denom = np.maximum(np.abs(x), np.abs(y))
        nz = denom > 0.0
        err = verify_checks._Err()
        err.add(x, y)
        rel = (d[nz] / denom[nz]).max() if nz.any() else 0.0
        assert np.array_equal([err.abs, err.rel], [d.max(), rel], equal_nan=True)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_error_accumulator_in_place_equals_the_four_array_form(rng):
    """add forms max(|a|, |b|) and the relative error in place, yet gives the
    errors of |a - b| / max(|a|, |b|) over four separate arrays bit for bit,
    for operands of one shape and for operands that broadcast against each
    other either way round (NaN and inf entries included), and holds at most
    three arrays of the broadcast shape at once."""

    def four_arrays(x, y):
        d = np.abs(x - y)
        denom = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(d, denom, out=np.zeros_like(d), where=denom > 0.0)
        return float(d.max()), float(rel.max())

    a = rng.normal(size=(64, 4, 4)) * 10.0 ** rng.integers(-300, 300, size=(64, 4, 4))
    b = a * (1.0 + 1e-13 * rng.normal(size=a.shape))
    a[0], b[0] = 0.0, 0.0
    a[1, 0], b[1, 1] = np.inf, -np.inf
    col, row = rng.normal(size=(64, 1)), rng.normal(size=(1, 4))
    pairs = [(a, b), (a, b[0]), (b[3], a), (col, row), (row, col), (a[:, :, :1], b[:, :1, :]), (a[5, 2], 0.5)]
    pairs.append((np.where(a > 1.0, np.nan, a), b))
    for x, y in pairs:
        err = verify_checks._Err()
        err.add(x, y)
        assert np.array_equal([err.abs, err.rel], four_arrays(np.asarray(x), np.asarray(y)), equal_nan=True)
    big = rng.normal(size=(128, 4, 4, 4, 4))
    peak = traced_peak(verify_checks._Err().add, big, big * (1.0 + 1e-14))
    assert peak < 3.2 * big.nbytes
    with pytest.raises(ValueError):
        verify_checks._Err().add(np.ones(3), np.ones(4))


def test_nan_in_a_compared_value_fails_its_check(monkeypatch):
    """A NaN xi_11, patched into the field layer, makes the Einstein blocks
    and the conservation residuals NaN, and NaN closed right-hand sides the
    conservation references; their checks fail instead of passing with a
    zero error, are not skipped, and the whole document serialises as
    strict JSON."""
    cfg = RunConfig(samples=50, seed=1)
    by_group = {g.name: g for g in verify_checks._CATALOG}
    real_rhs = fieldtheory.closed_rhs_of
    cases = (
        (
            "_xi",
            lambda h11, kappa, k: np.full(np.shape(h11), np.nan),
            ("einstein", "conservation"),
            ("einstein/raised-cross-check", "conservation/closed-rhs"),
        ),
        (
            "closed_rhs_of",
            lambda *args: tuple(np.full_like(v, np.nan) for v in real_rhs(*args)),
            ("conservation", "decay"),
            ("conservation/closed-rhs", "conservation/decay-rate"),
        ),
    )
    for name, nan_source, groups, failing in cases:
        with monkeypatch.context() as patch:
            patch.setattr(fieldtheory, name, nan_source)
            patch.setattr(verify_checks, "_CATALOG", tuple(by_group[g] for g in groups))
            res = run_verify(cfg)
        by_name = {r.check_name: r.to_dict() for r in res.reports}
        for check in failing:
            doc = by_name[check]
            assert (doc["pass"], doc["skipped"], doc["max_abs_err"]) == (False, False, None), check
        json.dumps(res.to_dict(), allow_nan=False)
        assert res.overall_pass is False


@pytest.mark.parametrize(
    "build,paths",
    [
        (lambda: RunConfig(einstein_k=float("nan")), ["constants.einstein_k: must be finite"]),
        (lambda: RunConfig(samples=0, y_min=-1.0), ["sampling.samples: must be >= 1", "sampling.y_min: must be > 0"]),
        (lambda: RunConfig(t_min=1.0, t_max=-1.0), ["sampling.t_max: must satisfy t_min <= t_max"]),
        (lambda: RunConfig(time_metric=TimeMetric.exponential(1.0, float("inf"))), ["time_metric.lam: must be finite"]),
        (lambda: replace(RunConfig(), seed=-1, fd_step=0.0), ["sampling.seed: must be >= 0", "tolerances.fd: must be > 0"]),
    ],
)
def test_run_config_applies_the_value_rules_however_built(build, paths):
    """A RunConfig built directly or by replace obeys the rules parse_config
    applies, every broken rule named by its field path."""
    with pytest.raises(ConfigError) as exc:
        build()
    assert all(path in str(exc.value) for path in paths)


_DENSE_INI = Path(__file__).resolve().parents[1] / "scripts" / "dense.ini"


class _CountedErr(verify_checks._Err):
    """An error accumulator that counts the values it folds in: one per
    compared entry pair or residual entry, one per recorded worst value."""

    __slots__ = ("values",)

    def __init__(self):
        super().__init__()
        self.values = 0

    def add(self, a, b):
        self.values += np.broadcast(np.atleast_1d(a), np.atleast_1d(b)).size
        super().add(a, b)

    def add_residual(self, r):
        self.values += np.size(r)
        super().add_residual(r)

    def record(self, worst):
        self.values += 1
        super().record(worst)


@pytest.mark.parametrize(
    "tensor",
    [QuarticTensor.berwald_moor(), parse_config(CUSTOM_OTHER).tensor, parse_config(_DENSE_INI.read_text()).tensor],
    ids=["berwald-moor", "custom-other", "dense"],
)
def test_no_check_passes_vacuously(tensor, monkeypatch):
    """An accumulator starts from a zero error, so a check that folds in no
    value would pass any tolerance: every report that is not skipped has
    folded in at least one value, on Berwald-Moor, on a custom and on a
    dense tensor, with kappa != 0."""
    made = []

    def counted():
        made.append(_CountedErr())
        return made[-1]

    monkeypatch.setattr(verify_checks, "_Err", counted)
    cfg = RunConfig(time_metric=TimeMetric.exponential(1.0, 1.0), tensor=tensor, samples=20, seed=3)
    ran = [r for r in run_verify(cfg).reports if not r.skipped]
    assert len(ran) == len(made) and ran
    assert [r.check_name for r, err in zip(ran, made) if err.values == 0] == []


def test_custom_bm_equivalent_runs_full_suite():
    cfg = replace(parse_config(CUSTOM_BM), samples=40)
    res = run_verify(cfg)
    assert not any(r.skipped for r in res.reports)
    fails = {r.check_name for r in res.reports if not r.passed}
    assert fails == KNOWN_DISCREPANCIES


def test_custom_tensor_skips_closed_form_checks():
    cfg = replace(parse_config(CUSTOM_OTHER), samples=30, y_min=0.7, y_max=1.4)
    res = run_verify(cfg)
    skipped = {r.check_name for r in res.reports if r.skipped}
    assert "metric/closed-form-oracle" in skipped
    assert "curvature/vertical-oracle" in skipped
    assert "cartan/vertical-trace" in skipped
    ran = {r.check_name for r in res.reports if not r.skipped}
    assert "gscalars/euler-identities" in ran
    assert "metric/inverse-pair" in ran
    assert "em/two-form-zero" in ran
    # generic identities hold, so a custom run can pass overall
    assert all(r.passed for r in res.reports)
    assert res.overall_pass is True


def test_determinism_byte_identical():
    cfg = replace(parse_config(MINIMAL), samples=50)
    a = run_verify(cfg).to_json()
    b = run_verify(cfg).to_json()
    assert a == b
    assert run_verify(cfg).to_csv() == run_verify(cfg).to_csv()


def test_seed_changes_errors():
    cfg = replace(parse_config(MINIMAL), samples=50)
    a = run_verify(cfg)
    b = run_verify(replace(cfg, seed=7))
    assert a.to_json() != b.to_json()


# -- sweeps -----------------------------------------------------------------------


def _rows(columns):
    """The row form of a sweep table: one {name: value} dict per grid point."""
    return [dict(zip(columns, row)) for row in zip(*(col.tolist() for col in columns.values()))]


def _row_sweep(cfg, field, grid):
    """The rows as sweep returned them before it returned columns: the grid
    points stacked from the mesh, one dict per point."""
    axes = parse_grid(grid) if isinstance(grid, str) else list(grid)
    names = [name for name, _ in axes]
    mesh = np.meshgrid(*[np.asarray(vals, dtype=float) for _, vals in axes], indexing="ij")
    points = np.stack(mesh, axis=-1).reshape(-1, len(axes))
    values = sweep(cfg, field, axes)[field]
    return [{**dict(zip(names, point)), field: v} for point, v in zip(points.tolist(), values.tolist())]


def _row_sweep_csv(rows, field, axes, block=4096):
    """sweep_csv as it read rows: each axis's reprs once per distinct value
    of a block of rows, the field's once per row."""

    def repr_column(values):
        bits, where = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
        return np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)[where].tolist()

    text = [",".join(axes + [field])]
    for lo in range(0, len(rows), block):
        part = rows[lo : lo + block]
        cols = [repr_column([row[a] for row in part]) for a in axes]
        text.append("\n".join(map(",".join, zip(*cols, (repr(row[field]) for row in part)))))
    return "\n".join(text) + "\n"


def test_sweep_scalar_curvature_ray():
    cfg = parse_config(MINIMAL)
    cols = sweep(cfg, "Sc", "s=1:4:3")
    np.testing.assert_allclose(cols["s"], [1.0, 2.0, 4.0], rtol=1e-12)
    np.testing.assert_allclose(cols["Sc"], [-9.0, -2.25, -0.5625], rtol=1e-12)


def test_sweep_g1111_point():
    cfg = parse_config(MINIMAL)
    cols = sweep(cfg, "G1111", "y1=1:1:1,y2=2:2:1,y3=3:3:1,y4=4:4:1")
    assert len(cols["G1111"]) == 1
    assert cols["G1111"][0] == pytest.approx(24.0, rel=1e-14)


def test_sweep_xi_constant_across_grid():
    cfg = parse_config(MINIMAL)
    cols = sweep(cfg, "xi11", "t=-1:1:5,s=1:10:3")
    assert len(cols["xi11"]) == 15
    assert all(v == pytest.approx(4.5) for v in cols["xi11"])


def test_sweep_rows_lexicographic():
    cfg = parse_config(MINIMAL)
    cols = sweep(cfg, "G1111", "t=0:1:2,s=1:2:2")
    coords = list(zip(cols["t"].tolist(), cols["s"].tolist()))
    assert coords == sorted(coords)


def test_sweep_columns_are_the_axes_then_the_field():
    """One 1-D float64 column per grid axis, in grid order, then the field's,
    all one entry per grid point."""
    cols = sweep(parse_config(MINIMAL), "Ti", "y2=1:2:3,t=0:1:2")
    assert list(cols) == ["y2", "t", "Ti"]
    assert all(col.dtype == np.float64 and col.shape == (6,) for col in cols.values())


def test_sweep_rejects_unknown_field_and_axis():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError):
        sweep(cfg, "Scc", "s=1:2:2")
    with pytest.raises(ConfigError):
        parse_grid("z=1:2:2")
    with pytest.raises(ConfigError):
        parse_grid("s=1:2")
    with pytest.raises(ConfigError):
        parse_grid("s=-1:2:2")
    for spec in ("t=0:inf:3", "t=nan:1:3", "s=1:inf:3"):
        with pytest.raises(ConfigError, match="finite bounds"):
            parse_grid(spec)


@pytest.mark.parametrize(
    "grid, message, spec_message",
    [
        ([("y5", [1.0, 2.0])], "grid: unknown axis 'y5', expected one of", None),
        ([("y1", [1.0, 2.0]), ("y1", [3.0])], "grid: duplicate axis 'y1'", None),
        ([("s", [1.0]), ("t", [0.0]), ("s", [2.0])], "grid: duplicate axis 's'", None),
        ([], "grid: no axes given", None),
        ([("y1", [-1.0])], "grid: axis 'y1' needs values > 0, got -1.0", "grid: axis y1 needs positive bounds"),
        ([("t", [0.0]), ("s", [1.0, 0.0])], "grid: axis 's' needs values > 0, got 0.0", "grid: axis s needs positive"),
        ([("t", [0.0, np.nan])], "grid: axis 't' needs finite values, got nan", "grid: axis t needs finite bounds"),
        ([("y3", [np.inf, 1.0])], "grid: axis 'y3' needs finite values, got inf", "grid: axis y3 needs finite bounds"),
        ([("t", [-np.inf, 0.0])], "grid: axis 't' needs finite values, got -inf", "grid: axis t needs finite bounds"),
    ],
    ids=["unknown", "duplicate", "duplicate-apart", "no-axes", "y-negative", "s-zero", "t-nan", "y-inf", "t-minus-inf"],
)
@pytest.mark.parametrize("field", ["Sc", "G1111"])
def test_a_pre_parsed_grid_meets_the_axis_checks_of_parse_grid(field, grid, message, spec_message):
    """A grid given as (axis, values) pairs is refused for an unknown or a
    repeated axis name, or for having no axes, with parse_grid's own texts,
    instead of the name being ignored, its column overwritten or one row
    returned; the same texts as a spec.  It is refused, naming the axis, for
    a value that is not finite, or not > 0 on s or y1..y4, which parse_grid
    refuses as a bound: G1111 is not swept at y1 = -1, where it would be
    -1."""
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match=re.escape(message)):
        sweep(cfg, field, grid)
    spec = ",".join(f"{name}={values[0]}:{values[-1]}:{len(values)}" for name, values in grid)
    with pytest.raises(ConfigError, match=re.escape(spec_message or message)):
        sweep(cfg, field, spec)


@pytest.mark.parametrize("field", ["Sc", "G1111"])
@pytest.mark.parametrize("grid", [[("s", [])], [("t", [0.0, 1.0]), ("y2", np.array([]))]], ids=["alone", "second"])
def test_a_pre_parsed_axis_with_no_values_is_refused(field, grid):
    """An axis given with no values is refused with a ConfigError naming it,
    as parse_grid refuses a count below 1, instead of numpy's ValueError
    from an empty table."""
    name = grid[-1][0]
    with pytest.raises(ConfigError, match=re.escape(f"grid: axis {name!r} has no values")):
        sweep(parse_config(MINIMAL), field, grid)
    with pytest.raises(ConfigError, match="count must be >= 1, got 0"):
        parse_grid(f"{name}=1:2:0")


@pytest.mark.parametrize("field", ["Sc", "xi11", "T1", "Ti", "Tyi"])
def test_sweep_refuses_closed_field_layer_for_custom_tensor(field):
    cfg = parse_config(CUSTOM_OTHER)
    with pytest.raises(ConfigError, match=f"'{field}'"):
        sweep(cfg, field, "s=1:2:2")


def test_sweep_g1111_of_custom_tensor():
    cols = sweep(parse_config(CUSTOM_OTHER), "G1111", "t=0:1:4,s=1:2:3")
    assert len(cols["G1111"]) == 12
    # G_1111 on the ray y = s (1,1,1,1) is (24/24 + 6 * 0.01) s^4
    np.testing.assert_allclose(cols["G1111"][:3], [1.06 * s**4 for s in (1.0, 2**0.5, 2.0)], rtol=1e-12)


def test_sweep_checks_the_tensor_once_per_call(monkeypatch):
    """A sweep asks is_berwald_moor once per call, not per row."""
    checks = []
    real = QuarticTensor.is_berwald_moor.fget
    monkeypatch.setattr(QuarticTensor, "is_berwald_moor", property(lambda G: checks.append(1) or real(G)))
    cols = sweep(parse_config(MINIMAL), "Sc", "t=0:1:4,s=1:2:3")
    assert len(cols["Sc"]) == 12 and len(checks) == 1


SWEEP_TIME_METRICS = [TimeMetric.constant(1.7), TimeMetric.exponential(0.8, 1.3), TimeMetric.power(-1.3)]


def _field_at(cfg, field, t, y):
    """The field-layer function of a sweep field at one point."""
    G, tm, k = cfg.tensor, cfg.time_metric, cfg.einstein_k
    if field == "Sc":
        return scalar_curvature_field(tm, t, y)
    if field == "xi11":
        return xi_11(tm, t, k)
    if field == "G1111":
        return g_scalars(G, y).g1111
    t1, ti, tyi = closed_rhs_of(tm.eval(np.array([t])), np.array([y]), k)
    return float({"T1": t1[0], "Ti": ti[0, 0], "Tyi": tyi[0, 0]}[field])


@pytest.mark.parametrize("tm", SWEEP_TIME_METRICS, ids=lambda tm: tm.family)
@pytest.mark.parametrize("field", SWEEP_FIELDS)
def test_sweep_rows_equal_the_field_layer_bit_for_bit(field, tm):
    """A grid of 3 x 5 x 9 rows spans more than one kernel chunk; every row
    is the field-layer function at its point, to the last bit."""
    cfg = RunConfig(time_metric=tm, einstein_k=0.7)
    rows = _rows(sweep(cfg, field, "t=-0.9:0.8:3,s=0.5:3:5,y2=0.2:7:9"))
    assert len(rows) == 135 > CHUNK
    for row in rows:
        y = row["s"] * np.ones(4)
        y[1] = row["y2"]
        assert row[field] == _field_at(cfg, field, row["t"], y), row


@pytest.mark.parametrize("field", ["Sc", "xi11", "T1", "Ti", "Tyi"])
def test_a_closed_sweep_field_reaches_no_kernel_code(field, monkeypatch):
    """The closed fields read the time axis and y alone: with the
    G-hierarchy and its term sums made to raise, every closed field still
    sweeps, and the T rows are closed_rhs_of over the rows' own time axis
    and y, bit for bit."""

    def kernel_reached(*args, **kwargs):
        raise AssertionError("a closed sweep field reached the kernel's G-hierarchy")

    for module in (kernel, verify_checks):
        monkeypatch.setattr(module, "g_hierarchy", kernel_reached)
    monkeypatch.setattr(kernel, "_term_sums", kernel_reached)
    cfg = parse_config(Path(_BM_POWER).read_text())
    cols = sweep(cfg, field, "t=-0.9:0.8:3,s=0.5:3:5,y2=0.2:7:9")
    if field in ("T1", "Ti", "Tyi"):
        y = cols["s"][:, None] * np.ones(4)
        y[:, 1] = cols["y2"]
        t1, ti, tyi = closed_rhs_of(cfg.time_metric.eval(cols["t"]), y, cfg.einstein_k)
        want = {"T1": t1, "Ti": ti[:, 0], "Tyi": tyi[:, 0]}[field]
        assert cols[field].tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", ["s=0.5:3:5,t=-0.9:0.8:3,y2=0.2:7:9", "s=0.5:3:5,y2=0.2:7:9,t=-0.9:0.8:3"])
@pytest.mark.parametrize("field", ["Sc", "xi11", "T1", "Ti", "Tyi"])
def test_sweep_rows_read_their_own_t_in_any_axis_order(field, grid, monkeypatch):
    """With t in the middle or last, where its values do not run in one
    block per value, every row over several metric batches is the
    field-layer function at that row's t and y, to the last bit."""
    monkeypatch.setattr(verify_checks, "METRIC_CHUNK", 64)
    cfg = RunConfig(time_metric=TimeMetric.power(-1.3), einstein_k=0.7)
    rows = _rows(sweep(cfg, field, grid))
    ts = [row["t"] for row in rows]
    assert len(rows) == 135 > 2 * 64 and ts != sorted(ts)
    for row in rows:
        y = row["s"] * np.ones(4)
        y[1] = row["y2"]
        assert row[field] == _field_at(cfg, field, row["t"], y), row


def test_sweep_csv_roundtrip():
    cfg = parse_config(MINIMAL)
    cols = sweep(cfg, "Tyi", "s=1:4:3")
    text = sweep_csv(cols)
    lines = text.strip().splitlines()
    assert lines[0] == "s,Tyi"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.75)


def _per_row_csv(rows, field, axes):
    """The plain writer: every value of every row through repr."""
    lines = [",".join(axes + [field])]
    lines.extend(",".join(repr(row[a]) for a in axes) + "," + repr(row[field]) for row in rows)
    return "\n".join(lines) + "\n"


# repeats, -0.0 beside 0.0 in one block of 4 rows, NaN and +-inf
_SPECIAL_FIELD = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -0.0, 0.0, 1.5, np.nan, -np.inf, 0.0]


@pytest.mark.parametrize(
    "grid, field_values",
    [
        ("t=-0:0:2,s=1:2:3", None),
        ([("t", [-0.0, 0.0, -0.0]), ("s", [1.0, 2.0])], None),
        ("t=-0.9:0.8:3,s=0.5:3:5,y2=0.2:7:9", None),
        ([("t", [-0.0, 0.0, -0.0]), ("s", [1.0, 2.0])], _SPECIAL_FIELD),
        ("t=-0.9:0.8:3,s=0.5:3:5,y2=0.2:7:9", _SPECIAL_FIELD),
        ("s=0.5:3:3,t=-0.9:0.8:4,y2=0.2:7:5", None),
        ("s=0.5:3:3,y2=0.2:7:5,t=-0.9:0.8:4", None),
        ("y1=0.5:3:3,y3=2:2:1,t=0.25:0.25:1,y2=0.2:7:5", None),
        ("t=0:0:3,s=1:2:2", None),
        ([("s", [1.0, 2.0]), ("y4", [3.0, 3.0, 0.5])], None),
    ],
    ids=[
        "zero-span",
        "signed-zeros",
        "three-axes",
        "special-field",
        "special-field-three-axes",
        "t-middle",
        "t-last",
        "one-value-axes",
        "repeated-t",
        "repeated-y",
    ],
)
def test_sweep_csv_is_the_per_row_repr_writer(grid, field_values, monkeypatch):
    """The column writers format each axis value and each distinct value of
    the field once, yet write the bytes of the per-row writers, across the
    row blocks of their joins too, whatever the axes' order, sizes and
    repeats: -0.0 and 0.0 keep their own texts, in an axis and in the
    field, and NaN and +-inf are written as repr writes them in CSV and as
    json writes them in JSON."""
    monkeypatch.setattr(jsondoc, "_JOIN_ROWS", 4)
    cols = sweep(parse_config(MINIMAL), "Sc", grid)
    if field_values is not None:
        cols["Sc"] = np.resize(np.array(field_values), len(cols["Sc"]))
    axes = [name for name, _ in (parse_grid(grid) if isinstance(grid, str) else grid)]
    rows = _rows(cols)
    assert rows == _row_sweep(parse_config(MINIMAL), "Sc", grid) or field_values is not None
    assert len(rows) > jsondoc._JOIN_ROWS
    text = sweep_csv(cols)
    assert text == _per_row_csv(rows, "Sc", axes)
    assert jsondoc.dumps_records(cols) == json.dumps(rows, indent=2)
    if not isinstance(grid, str) and grid[0][0] == "t":
        assert [line.split(",")[0] for line in text.splitlines()[1::2]] == ["-0.0", "0.0", "-0.0"]


def test_an_axis_column_the_caller_replaced_is_written_as_it_holds():
    """The writers lay an axis out from its values only while its column is
    the one the grid made: the axis columns are read-only, and a column
    put in an axis's place is written value by value."""
    cols = sweep(parse_config(MINIMAL), "Sc", "t=0:1:2,s=1:2:3")
    with pytest.raises(ValueError, match="read-only"):
        cols["s"][0] = 5.0
    cols["t"] = cols["t"] + 0.5
    rows = _rows(cols)
    assert [row["t"] for row in rows] == [0.5] * 3 + [1.5] * 3
    assert sweep_csv(cols) == _per_row_csv(rows, "Sc", ["t", "s"])
    assert jsondoc.dumps_records(cols) == json.dumps(rows, indent=2)


_GRID_17 = "t=-0.9:0.8:17,s=0.5:3:17,y2=0.2:7:17"
_BM_POWER = str(Path(__file__).resolve().parents[1] / "scripts" / "bm_power.ini")


@pytest.mark.parametrize(
    "field, grid",
    [("Sc", _GRID_17), ("G1111", _GRID_17), ("T1", "s=0.5:3:17,y2=0.2:7:17,t=-0.9:0.8:17")],
    ids=["Sc", "G1111", "T1-t-last"],
)
def test_column_writers_write_the_row_documents(field, grid, capsys):
    """On a grid of 17^3 rows, which crosses both a sweep batch (METRIC_CHUNK)
    and a row block of the writers' joins, the CSV and JSON written from the
    columns are the texts of the row form: the row-reading sweep_csv and
    json.dumps(rows, indent=2), on the CLI too."""
    cfg = default_config() if field != "T1" else parse_config(Path(_BM_POWER).read_text())
    cols = sweep(cfg, field, grid)
    rows = _row_sweep(cfg, field, grid)
    assert len(rows) > jsondoc._JOIN_ROWS > METRIC_CHUNK
    assert _rows(cols) == rows
    csv_text, json_text = sweep_csv(cols), jsondoc.dumps_records(cols)
    assert csv_text == _row_sweep_csv(rows, field, [name for name, _ in parse_grid(grid)])
    assert json_text == json.dumps(rows, indent=2)
    config = [] if field != "T1" else ["--config", _BM_POWER]
    for fmt, text in (("csv", csv_text), ("json", json_text + "\n")):
        assert cli.main(["sweep", "--field", field, "--grid", grid, "--format", fmt, *config]) == 0
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("field", SWEEP_FIELDS)
def test_a_sweep_evaluates_the_time_axis_once(field, monkeypatch):
    """A closed field evaluates the time axis once per sweep, over the t
    axis values (or the one midpoint t), on a grid that spans many metric
    batches; G1111 does not read it."""
    calls = []
    real = TimeMetric.eval
    monkeypatch.setattr(TimeMetric, "eval", lambda tm, t: calls.append(np.shape(t)) or real(tm, t))
    cfg = parse_config(Path(_BM_POWER).read_text())
    assert len(sweep(cfg, field, _GRID_17)[field]) == 17**3 > 4 * METRIC_CHUNK
    assert calls == ([] if field == "G1111" else [(17,)])
    calls.clear()
    sweep(cfg, field, "s=0.5:3:17,y2=0.2:7:17,y1=1:2:17")
    assert calls == ([] if field == "G1111" else [(1,)])


CLOSED_SWEEP_FIELDS = ("Sc", "xi11", "T1", "Ti", "Tyi")


@pytest.mark.parametrize("grid", ["t=-0.9:0.8:5,s=0.5:3:15,y2=0.2:7:15", "s=0.5:3:40,y2=0.2:7:40"], ids=["t", "no-t"])
@pytest.mark.parametrize("field", CLOSED_SWEEP_FIELDS)
def test_a_closed_sweep_field_is_its_library_function_over_the_grid(field, grid):
    """Over more than METRIC_CHUNK rows, with a t axis and without one (every
    row at the midpoint t), a closed field's column is its library function
    over the rows' t and y, bit for bit: the row across the old batch
    boundary too."""
    cfg = parse_config(Path(_BM_POWER).read_text())
    cols = sweep(cfg, field, grid)
    rows = len(cols[field])
    assert rows > METRIC_CHUNK
    t = cols["t"] if "t" in cols else np.full(rows, 0.5 * (cfg.t_min + cfg.t_max))
    y = cols["s"][:, None] * np.ones(4)
    y[:, 1] = cols["y2"]
    tm, k = cfg.time_metric, cfg.einstein_k
    want = {
        "Sc": lambda: scalar_curvature_field(tm, t, y),
        "xi11": lambda: xi_11(tm, t, k),
        "T1": lambda: closed_rhs_of(tm.eval(t), y, k)[0],
        "Ti": lambda: closed_rhs_of(tm.eval(t), y, k)[1][:, 0],
        "Tyi": lambda: closed_rhs_of(tm.eval(t), y, k)[2][:, 0],
    }[field]()
    assert cols[field].tobytes() == want.tobytes()


CLOSED_FIELD_FUNCTIONS = ("scalar_curvature_field_of", "xi_11_of", "closed_t1", "closed_ti", "closed_tyi")


@pytest.mark.parametrize("field, function", zip(CLOSED_SWEEP_FIELDS, CLOSED_FIELD_FUNCTIONS))
def test_a_closed_sweep_field_makes_one_call_per_grid(field, function, monkeypatch):
    """A closed field is one call of its field function over every row of
    a grid of several METRIC_CHUNK rows, and T1, Ti and Tyi each form only
    their own right-hand side."""
    calls = []

    def counted(name):
        real = getattr(closed, name)
        return lambda ax, *rest: calls.append((name, np.shape(ax.h11))) or real(ax, *rest)

    for name in CLOSED_FIELD_FUNCTIONS:
        monkeypatch.setattr(closed, name, counted(name))
    cfg = parse_config(Path(_BM_POWER).read_text())
    assert len(sweep(cfg, field, _GRID_17)[field]) == 17**3 > 4 * METRIC_CHUNK
    assert calls == [(function, (17**3,))]


def test_g1111_sweeps_one_metric_batch_at_a_time(monkeypatch):
    """G1111 builds the G-hierarchy once per METRIC_CHUNK rows, in row order."""
    sizes = []
    real = verify_checks.g_hierarchy
    monkeypatch.setattr(verify_checks, "g_hierarchy", lambda G, y: sizes.append(len(y)) or real(G, y))
    assert len(sweep(default_config(), "G1111", _GRID_17)["G1111"]) == 17**3
    assert sizes == [METRIC_CHUNK] * 4 + [17**3 - 4 * METRIC_CHUNK]


_CUSTOM_INI = Path(__file__).resolve().parents[1] / "benchmarks" / "custom.ini"


@pytest.mark.parametrize("config", ["bm-exponential", "custom.ini"])
def test_chunk_size_moves_no_digit(config, monkeypatch):
    """The verify document and the sweep rows are byte-identical over chunks
    of 32 points in metric batches of 64, and over chunks of CHUNK in metric
    batches of METRIC_CHUNK: a point's results do not depend on its batch,
    and the error accumulators fold maxima.  A sweep runs in metric batches,
    so the 64-point run spans several.  The exponential time metric has
    kappa != 0, so L^i_jk and G^k_j1 show."""
    if config == "custom.ini":
        cfg = parse_config(_CUSTOM_INI.read_text())
    else:
        cfg = RunConfig(time_metric=TimeMetric.exponential(1.0, 1.0))
    cfg = replace(cfg, samples=2 * CHUNK + 6, seed=3)
    fields = SWEEP_FIELDS if cfg.tensor.is_berwald_moor else ("G1111",)
    runs = []
    for chunk, metric_chunk in ((32, 64), (CHUNK, METRIC_CHUNK)):
        monkeypatch.setattr(kernel, "CHUNK", chunk)
        monkeypatch.setattr(kernel, "METRIC_CHUNK", metric_chunk)
        monkeypatch.setattr(verify_checks, "CHUNK", chunk)
        monkeypatch.setattr(verify_checks, "METRIC_CHUNK", metric_chunk)
        rows = [_rows(sweep(cfg, field, "t=-0.9:0.8:3,s=0.5:3:5,y2=0.2:7:18")) for field in fields]
        assert len(rows[0]) > 2 * CHUNK > 2 * 64
        runs.append((run_verify(cfg).to_json(), repr(rows)))
    assert (CHUNK, METRIC_CHUNK) != (32, 64)
    assert runs[0] == runs[1]


# -- CLI --------------------------------------------------------------------------


def _cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "jetbm.harness.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cli_eval(tmp_path):
    out = _cli("eval", "--y", "1,2,3,4", "--t", "0", "--x", "0,0,1,2")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["point"]["x"] == [0.0, 0.0, 1.0, 2.0]
    assert doc["g_scalars"]["G1111"] == pytest.approx(24.0)
    assert doc["ricci"]["Sc_field"] == pytest.approx(-9 / np.sqrt(24))
    assert doc["einstein"]["xi11"] == pytest.approx(4.5)


def test_cli_eval_accepts_values_that_start_with_a_dash():
    out = _cli("eval", "--t", "-1.5e-05", "--y", "1,2,3,4", "--x", "-1,2,3,4")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["point"]["t"] == -1.5e-05
    assert doc["point"]["x"] == [-1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("scale", ["1e-20", "1e-30"])
def test_cli_eval_on_the_small_scale_cone(scale):
    """At y = s (1, 1, 1, 1) with G_1111 = s^4 far below 1, eval exits 0
    without a warning, and the conservation residual Tyi meets its closed
    right-hand side within 1e-13 relative: no absolute floor decides a
    point by its scale."""
    out = _cli("eval", f"--y={scale},{scale},{scale},{scale}")
    assert (out.returncode, out.stderr) == (0, "")
    cons = json.loads(out.stdout)["conservation"]
    tyi, closed = np.array(cons["Tyi"]), np.array(cons["closed_Tyi"])
    assert np.all(np.abs(tyi - closed) <= 1e-13 * np.abs(closed))


def _main_outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["--version"],
        ["bogus"],
        ["eval", "--help"],
        ["verify", "--help"],
        ["sweep", "--help"],
        ["report", "--help"],
        ["eval", "--y=1,1,1,1", "--bogus"],
        ["sweep", "--field", "Sc"],
    ],
    ids=" ".join,
)
def test_cli_texts_equal_those_of_the_parser_with_every_command(argv, monkeypatch, capsys):
    """build_parser adds arguments only to the command argv[0] names; every
    usage, help and error text stays that of the parser with all of them."""
    outcome = _main_outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert outcome == _main_outcome(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--t", "-1.5e-05", "--y", "1,2,3,4", "--x", "-1,2,3,4", "--output", "doc.json"],
        ["eval", "--y=1,1,1,1", "--config", "a.ini"],
        ["verify", "--config", "a.ini", "--seed", "7", "--samples", "10", "--format", "csv", "--output", "r.csv"],
        ["verify"],
        ["sweep", "--field", "Sc", "--grid", "t=0:1:3", "--format", "json", "--output", "s.json", "--config", "a.ini"],
        ["report", "--input", "r.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_parses_as_the_parser_with_every_command(argv):
    argv = cli._join_signed_values(argv)
    assert cli.build_parser(argv).parse_args(argv) == cli.build_parser().parse_args(argv)


def test_cli_internal_invariant_exits_three(monkeypatch, capsys):
    from jetbm import InvariantError
    from jetbm.harness import cli

    def broken(*args):
        raise InvariantError("mixed-partial consistency fails")

    monkeypatch.setattr(cli, "point_geometry", broken)
    assert cli.main(["eval", "--y", "1,2,3,4"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_eval_rejects_bad_point():
    out = _cli("eval", "--y", "1,2,-3,4")
    assert out.returncode == 2
    assert "error" in out.stderr


@pytest.mark.parametrize(
    "option,value",
    [("--t", "nan"), ("--t", "inf"), ("--t", "-inf"), ("--y", "1,nan,3,4"), ("--y", "1,2,inf,4"), ("--x", "0,-inf,0,0")],
)
def test_cli_eval_refuses_a_non_finite_point(option, value, capsys):
    argv = ["eval", "--y", "1,2,3,4", f"{option}={value}"]
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {option}:" in out.err and "finite" in out.err


_BM_EXPONENTIAL = str(Path(__file__).resolve().parents[1] / "scripts" / "bm_exponential.ini")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow before the guard raises
@pytest.mark.parametrize(
    "argv, named",
    [
        (["eval", "--y=1e100,1e100,1e100,1e100"], "y=[1.e+100 1.e+100 1.e+100 1.e+100]"),
        (["eval", "--t=1000", "--y=1,2,3,4", "--config", _BM_EXPONENTIAL], "t=1000.0"),
        (["sweep", "--field", "Sc", "--grid", "t=1000:1001:2,y1=1:2:2", "--config", _BM_EXPONENTIAL], "t=1000.0"),
    ],
    ids=["eval-huge-y", "eval-overflowing-h11", "sweep-overflowing-h11"],
)
def test_cli_refuses_a_point_whose_values_overflow(argv, named, capsys):
    """A finite point at which h_11 or the G-hierarchy overflows exits 2 with
    one error line naming the first such t or y, and writes no document."""
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ") and named in out.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow before the guard raises
@pytest.mark.parametrize(
    "field, grid, config, named",
    [
        ("G1111", "y1=1:1e7:1500", None, "G_ij11 is singular at table row 1336, y=[1.73310903e+06 1."),
        ("Sc", "t=0:1000:2,y1=1:2:1100", _BM_EXPONENTIAL, "time metric is not finite at table row 1100, t=1000.0"),
        ("T1", "y1=1:2:3,t=0:1000:2", _BM_EXPONENTIAL, "time metric is not finite at table row 1, t=1000.0"),
    ],
    ids=["singular-G1111", "overflowing-h11-t-first", "overflowing-h11-t-middle"],
)
def test_a_sweep_refusal_names_its_table_row(field, grid, config, named):
    """A refused point is named by its row of the sweep table, whether the
    metric batch that refused it (past the first METRIC_CHUNK rows) or the
    time axis (evaluated over the t axis values) found it."""
    cfg = default_config() if config is None else parse_config(Path(config).read_text())
    with pytest.raises(JetBMError) as exc:
        sweep(cfg, field, grid)
    assert named in str(exc.value) and "batch index" not in str(exc.value)


def test_cli_verify_non_finite_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL + "\n[sampling]\ny_max = inf\n")
    assert cli.main(["verify", "--config", str(cfg), "--samples", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "sampling.y_max: must be finite" in out.err


@pytest.mark.parametrize("option,value,path", [("--seed", "-1", "sampling.seed"), ("--samples", "0", "sampling.samples")])
def test_cli_verify_refuses_a_bad_override_by_field_path(option, value, path, capsys):
    assert cli.main(["verify", option, value]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"{path}: must be" in out.err


def test_cli_verify_bm_exits_one_and_is_deterministic(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL)
    a = _cli("verify", "--config", str(cfg), "--samples", "40", "--format", "json")
    b = _cli("verify", "--config", str(cfg), "--samples", "40", "--format", "json")
    assert a.returncode == 1  # the three known discrepancies fail the run
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    fails = {r["check_name"] for r in doc["reports"] if not r["pass"]}
    assert fails == KNOWN_DISCREPANCIES


def test_cli_verify_custom_passes(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CUSTOM_OTHER + "\n[sampling]\ny_min = 0.7\ny_max = 1.4\n")
    out = _cli("verify", "--config", str(cfg), "--samples", "30")
    assert out.returncode == 0


def test_cli_verify_bad_config_exits_two(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL + "\n[sampling]\ny_min = -1\n")
    out = _cli("verify", "--config", str(cfg))
    assert out.returncode == 2
    assert "sampling.y_min" in out.stderr


def test_cli_verify_refuses_dropped_tolerance_keys(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL + "\n[tolerances]\nrel = 1e-9\nabs = 1e-10\nfd = 1e-5\n")
    out = _cli("verify", "--config", str(cfg), "--samples", "1")
    assert out.returncode == 2
    assert "tolerances.rel: unknown key" in out.stderr
    assert "tolerances.abs: unknown key" in out.stderr
    assert out.stdout == ""


GROUPS = [
    "gscalars",
    "metric_taylor",
    "connection",
    "cartan",
    "curvature",
    "ricci",
    "einstein",
    "conservation",
    "decay",
    "field_misc",
    "autodiff",
]


def test_run_verify_splits_each_group_time_by_kernel_stage():
    """Each group's stage times count the stages it builds and no other,
    and they are part of its wall time."""
    timed = {}
    run_verify(RunConfig(samples=40), on_group=lambda name, n, seconds, stages: timed.update({name: (seconds, stages)}))
    assert list(timed) == GROUPS
    built = {
        "gscalars": {"metric"},
        "metric_taylor": {"metric"},
        "connection": set(),
        "cartan": {"metric", "connection"},
        "curvature": {"metric", "connection", "full"},
        "ricci": {"metric", "connection", "full"},
        "einstein": {"metric"},
        "conservation": {"metric", "connection"},
        "decay": {"metric", "connection"},
        "field_misc": {"metric", "connection"},
        "autodiff": set(),
    }
    for name, (seconds, stages) in timed.items():
        assert list(stages) == ["metric", "connection", "full"]
        assert {stage for stage, s in stages.items() if s > 0.0} == built[name], name
        assert sum(stages.values()) <= seconds


def test_cli_verify_prints_one_wall_time_per_group(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL)
    out = _cli("verify", "--config", str(cfg), "--samples", "30")
    lines = [line for line in out.stderr.splitlines() if line.startswith("[time] ")]
    assert [line.split()[1] for line in lines] == GROUPS
    for line in lines:
        assert re.fullmatch(
            r"\[time\] [a-z_]+  points=\d+ wall=\d+\.\d{3}s metric=\d+\.\d{3}s connection=\d+\.\d{3}s "
            r"full=\d+\.\d{3}s checks=\d+\.\d{3}s",
            line,
        ), line
        # the four parts split the wall time, each rounded to the millisecond
        wall, *parts = (float(v) for v in re.findall(r"=(\d+\.\d{3})s", line))
        assert abs(sum(parts) - wall) <= 0.0025, line
    # the timings leave the stdout document as run_verify writes it
    assert out.stdout == run_verify(replace(parse_config(MINIMAL), samples=30)).to_json()
    # decay evaluates the three scaled rays and the base ray, whatever the sample count
    assert lines[GROUPS.index("decay")].split()[2] == "points=4"
    decay = [r for r in json.loads(out.stdout)["reports"] if r["check_name"] == "conservation/decay-rate"]
    assert [r["samples"] for r in decay] == [4]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_second_verify_run_faults_in_almost_no_memory():
    """verify keeps the pages it frees: the second of two in-process
    ``verify --samples 200`` runs makes few minor page faults.  With glibc's
    dynamic thresholds each chunk's tables go back to the kernel when the
    chunk is dropped, and that run makes about 700."""
    code = """
import contextlib, io, resource
from jetbm.harness.cli import main

faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["verify", "--samples", "200"])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 100


def test_only_verify_sets_the_allocator(tmp_path, monkeypatch, capsys):
    """eval, sweep and report leave the C library's allocator as it is;
    verify sets it before its run."""
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_pages", lambda: calls.append(1))
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"reports": [], "overall_pass": True}))
    for argv in (*(v for k, v in _IO_ARGV.items() if k != "verify"), ["report", "--input", str(report)]):
        assert cli.main(argv) == 0
    assert calls == []
    assert cli.main(["verify", "--samples", "1"]) == 1
    assert calls == [1]


class _FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.mark.parametrize("lookup", ["no-library", "no-symbol", "glibc"])
def test_the_allocator_setting_needs_mallopt(lookup, monkeypatch):
    """Without a mallopt among the process's symbols the helper does
    nothing; with one it sets glibc's mmap threshold to 32 MiB and its trim
    threshold to 64 MiB."""
    mallopt = _FakeMallopt()

    def cdll(name):
        assert name is None
        if lookup == "no-library":
            raise OSError("no such library")
        return SimpleNamespace(mallopt=mallopt) if lookup == "glibc" else SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    cli._keep_freed_pages()
    assert mallopt.calls == ([(-3, 32 << 20), (-1, 64 << 20)] if lookup == "glibc" else [])


def test_cli_sweep_refuses_custom_field_with_exit_two(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CUSTOM_OTHER)
    out = _cli("sweep", "--config", str(cfg), "--field", "Sc", "--grid", "s=1:4:3")
    assert out.returncode == 2
    assert "'Sc'" in out.stderr
    assert _cli("sweep", "--config", str(cfg), "--field", "G1111", "--grid", "s=1:4:3").returncode == 0


def test_benchmark_tracer_names_resolve():
    """Every layer the benchmark tracer wraps is still defined where it looks
    for it (the tracer is loaded by path and not bound)."""
    tracing = _benchmark_module("tracing")
    for mod, qual in tracing.TRACED:
        owner = importlib.import_module(f"jetbm.{mod}")
        *cls_path, attr = qual.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{mod}.{qual}"
    for op in tracing.TAYLOR2_OPS:
        assert op in vars(Taylor2), op
    # the benchmark imports the CLI, then binds every traced name wherever it
    # is held; wrap_all raises on a traced function bound nowhere
    importlib.import_module("jetbm.harness.cli")
    tracer = tracing.Tracer()
    tracer.wrap_all()
    assert all(tracer.bindings[f"{mod}.{qual}"] >= 1 for mod, qual in tracing.TRACED)
    # the names benchmarks/workloads.py reads by module resolve, and every
    # closed form that a module of the library holds is jetbm.closed's own,
    # not a copy
    for mod, name in (
        ("metric", "bm_metric_closed"),
        ("connection", "bm_cartan_closed"),
        ("curvature", "bm_s_closed"),
        ("curvature", "scalar_curvature_field"),
    ):
        assert name in vars(importlib.import_module(f"jetbm.{mod}")), f"{mod}.{name}"
    for key, module in list(sys.modules.items()):
        if key == "jetbm" or key.startswith("jetbm."):
            for name, value in vars(module).items():
                if name in vars(closed) and not name.startswith("__"):
                    assert value is vars(closed)[name], f"{key}.{name}"


def test_cli_verify_csv_output(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL)
    target = tmp_path / "report.csv"
    out = _cli("verify", "--config", str(cfg), "--samples", "30", "--format", "csv", "--output", str(target))
    assert out.returncode == 1
    header = target.read_text().splitlines()[0]
    assert header == "check_name,samples,max_abs_err,max_rel_err,pass,seed,skipped"


def test_cli_sweep_and_report(tmp_path):
    out = _cli("sweep", "--field", "Sc", "--grid", "s=1:4:3")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "s,Sc"
    assert float(lines[1].split(",")[1]) == pytest.approx(-9.0)

    cfg = tmp_path / "cfg.ini"
    cfg.write_text(MINIMAL)
    report_path = tmp_path / "r.json"
    _cli("verify", "--config", str(cfg), "--samples", "30", "--output", str(report_path))
    shown = _cli("report", "--input", str(report_path))
    assert shown.returncode == 0
    assert "overall: FAIL" in shown.stdout
    assert "[FAIL] ricci/contraction-vs-field-diag" in shown.stdout


_IO_ARGV = {
    "eval": ["eval", "--y", "1,2,3,4"],
    "verify": ["verify", "--samples", "1"],
    "sweep": ["sweep", "--field", "Sc", "--grid", "s=1:2:2"],
}


@pytest.mark.parametrize("command", list(_IO_ARGV))
def test_cli_unreadable_config_exits_two(command, tmp_path, capsys):
    missing = tmp_path / "missing.ini"
    assert cli.main(_IO_ARGV[command] + ["--config", str(missing)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --config: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("command", list(_IO_ARGV))
def test_cli_unwritable_output_exits_two(command, tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.txt"
    assert cli.main(_IO_ARGV[command] + ["--output", str(target)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and not target.parent.exists()
    assert out.err.endswith(f"error: --output: cannot write {target}: No such file or directory\n")


def test_cli_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch):
    """An unwritable --output is refused before the suite runs, however many
    samples were asked for."""

    def entered(*args, **kwargs):
        raise AssertionError("run_verify was entered")

    monkeypatch.setattr(cli, "run_verify", entered)
    target = tmp_path / "no-such-dir" / "r.json"
    assert cli.main(["verify", "--samples", "1000", "--output", str(target)]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: --output: cannot write {target}: No such file or directory\n"


def test_cli_output_check_leaves_the_path_as_it_was(tmp_path, capsys):
    """A run that fails after the --output check (here on --samples 0)
    neither truncates an existing report nor leaves a new empty file."""
    old = tmp_path / "old.json"
    old.write_text("earlier report\n")
    new = tmp_path / "new.json"
    for target in (old, new):
        assert cli.main(["verify", "--samples", "0", "--output", str(target)]) == 2
    capsys.readouterr()
    assert old.read_text() == "earlier report\n" and not new.exists()


def test_cli_report_missing_file():
    out = _cli("report", "--input", "/nonexistent/report.json")
    assert out.returncode == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"overall_pass": True, "reports": [{"pass": True, "samples": 1, "max_abs_err": 0.0, "max_rel_err": 0.0}]},
        [{"check_name": "metric/inverse-pair"}],
        {"overall_pass": True, "reports": ["metric/inverse-pair"]},
    ],
    ids=["entry-without-check-name", "top-level-list", "entry-not-an-object"],
)
def test_cli_report_refuses_a_malformed_document(doc, tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("cannot read report: ")


def test_cli_report_refuses_a_too_deeply_nested_document(tmp_path, capsys):
    """JSON nested deeper than the parser's recursion limit is a document
    report cannot read (exit 2), not a crash and not a failed verification."""
    path = tmp_path / "r.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["report", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("cannot read report: ")


def test_cli_unexpected_exception_exits_three_with_its_traceback(monkeypatch, capsys):
    """An exception the CLI does not expect is an internal error (exit 3)
    with its traceback on stderr; exit 1 stays "verification failed"."""

    def broken(*args, **kwargs):
        raise RuntimeError("an unexpected fault")

    monkeypatch.setattr(cli, "run_verify", broken)
    assert cli.main(["verify", "--samples", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("Traceback (most recent call last):")
    assert out.err.endswith("RuntimeError: an unexpected fault\n")
