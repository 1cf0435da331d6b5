"""jetbm benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-bm --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Each workload runs in this single process through the public entry point
jetbm.harness.cli.main, with stdout and stderr captured in memory. BLAS is
pinned to one thread. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name every
metric with its unit. Times are reported at reference host speed (see
hostspeed.py) and, in the readable lines, also as wall time. A results file
with the environment block goes to .bench_results/ under the repository
root. See benchmarks/README.md.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from hostspeed import KERNEL_REF_S, HostSpeed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUPS = 5


def _fail(msg: str):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import jetbm.harness.cli from this checkout's src/, dropping any
    jetbm module imported before so that the import is paid again."""
    for key in [k for k in sys.modules if k == "jetbm" or k.startswith("jetbm.")]:
        del sys.modules[key]
    cli = importlib.import_module("jetbm.harness.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported jetbm from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI operation; stdout is returned, stderr discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def setup(wl, speed) -> tuple:
    """Import the program, build config and tensor, make one warm-up call;
    SETUPS times. Returns the CLI module and one (start, end, seconds) per
    set-up, kernel time excluded."""
    spans = []
    for _ in range(SETUPS):
        k0, t0 = speed.spent, perf_counter()
        cli = import_program()
        wl.prepare()
        rc, _ = call(cli, wl.warmup_argv())
        t1 = perf_counter()
        spans.append((t0, t1, t1 - t0 - (speed.spent - k0)))
        if rc not in (0, 1):
            _fail(f"warm-up call {wl.warmup_argv()} exited {rc}")
    return cli, spans


def timed_loop(cli, wl, seconds: float, min_ops: int, speed, tracer=None):
    """Closed loop: run operations until the next one would end after
    `seconds` (at least min_ops). Each output is checked outside the timed
    region. With a tracer, every second operation is traced. Returns one
    (start, end, seconds) per operation, kernel time excluded, and the
    failure reasons."""
    spans: list[tuple[float, float, float]] = []
    failures: list[str] = []
    loop_start = perf_counter()
    i = 0
    while True:
        argv = wl.argv(i)
        with tracer if tracer is not None and i % 2 else contextlib.nullcontext():
            k0, t0 = speed.spent, perf_counter()
            try:
                rc, out = call(cli, argv)
                reason = None
            except (Exception, SystemExit) as exc:
                reason = f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
        spans.append((t0, t1, t1 - t0 - (speed.spent - k0)))
        if reason is None:
            try:
                reason = wl.check(i, rc, out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"op {i}: {reason}")
        i += 1
        elapsed = perf_counter() - loop_start
        if i >= min_ops and elapsed * (i + 1) / i > seconds:
            return spans, failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, -(-len(s) * q // 100) - 1)
    return s[int(k)]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "jetbm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "optimize": sys.flags.optimize,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, speed, setups: list, ops: list) -> tuple[dict, list[str]]:
    """Contract metrics at reference host speed, and human-readable lines
    under the names the ROADMAP uses, at reference speed and as wall time."""
    setup_ref = statistics.median(sec * speed.factor(a, b) for a, b, sec in setups)
    ref = [sec * speed.factor(a, b) for a, b, sec in ops]
    wall = [sec for _, _, sec in ops]
    p50_ref = statistics.median(ref)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_ref, "s"),
        "op_p50_ms": metric(p50_ref * 1e3, "ms"),
        "points_per_s": metric(wl.points_per_op / p50_ref, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    n = len(ops)
    rows = [("setup_s", setup_ref, statistics.median(sec for _, _, sec in setups), "s", f"median of {SETUPS} set-ups")]
    if wl.name.startswith("verify"):
        note = f"median of {n} verifies, {wl.points_per_op} samples each"
        rows.append(("verify_s", p50_ref, statistics.median(wall), "s", note))
    elif wl.name == "eval":
        rows.append(("eval_p50_ms", p50_ref * 1e3, statistics.median(wall) * 1e3, "ms", f"n={n}"))
        rows.append(("eval_p95_ms", percentile(ref, 95) * 1e3, percentile(wall, 95) * 1e3, "ms", f"n={n}"))
    else:
        note = f"median of {n} sweeps, {wl.points_per_op} rows each"
        rows.append(("sweep_rows_per_s", wl.points_per_op / p50_ref, wl.points_per_op / statistics.median(wall), "1/s", note))
    lines = [f"{name} {r:.6g} {unit} at reference speed, {w:.6g} {unit} wall ({note})" for name, r, w, unit, note in rows]
    lines.append(f"peak_rss_mb {rss_mb:.6g} MB")
    lines.append(
        f"calibration kernel {speed.median_kernel_s() * 1e6:.1f} us median over {len(speed.samples)} samples "
        f"(reference {KERNEL_REF_S * 1e6:.1f} us)"
    )
    return metrics, lines


def per_layer(wl, tracer, traced: list, untraced: list) -> dict:
    points = wl.points_per_op * len(traced)
    metrics = {}
    for name, (calls, self_s) in tracer.totals().items():
        kind = "ops_per_point" if name == "jetcore.Taylor2" else "calls_per_point"
        metrics[f"{name}.{kind}"] = metric(calls / points, "calls/point")
        metrics[f"{name}.self_us_per_point"] = metric(self_s * 1e6 / points, "us/point")
    ratio = statistics.median(sec for _, _, sec in traced) / statistics.median(sec for _, _, sec in untraced)
    metrics["trace.overhead_ratio"] = metric(ratio, "ratio")
    return metrics


def run_workload(args) -> int:
    if sys.flags.optimize:
        _fail("refusing to run under python -O: it drops the library asserts and changes timings")
    if not (SRC / "jetbm" / "__init__.py").is_file():
        _fail(f"no program source at {SRC / 'jetbm'}")
    sys.path.insert(0, str(SRC))

    env = environment(args)
    wl = workloads.make(args.workload)
    wl.inputs(args.seed)
    speed = HostSpeed(wl.elasticity)

    result: dict = {"environment": env}
    if args.trace:
        # no calibration kernel here: it would land in the spans
        cli, _ = setup(wl, speed)
        tracer = Tracer()
        tracer.wrap_all()
        ops, failures = timed_loop(cli, wl, args.seconds, 2 * wl.min_trace_ops, speed, tracer=tracer)
        untraced, traced = ops[0::2], ops[1::2]
        metrics = per_layer(wl, tracer, traced, untraced)
        lines = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"traced {len(traced)} ops, untraced {len(untraced)} ops")
        result.update(taylor2_op_calls=tracer.op_calls(), bindings=tracer.bindings)
    else:
        with speed:
            cli, setups = setup(wl, speed)
            ops, failures = timed_loop(cli, wl, args.seconds, wl.min_ops, speed)
        metrics, lines = end_to_end(wl, speed, setups, ops)
        result.update(setups=setups, kernel_times=speed.times, kernel_seconds=speed.samples)

    attempted, failed = len(ops), len(failures)
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    notes = wl.notes()
    if notes.get("tolerated_failures") is not None:
        tol = notes["tolerated_failures"]
        lines.append(
            f"known defect: {len(tol)} of {len(notes['tolerated_set'])} scale-blind checks failed "
            f"on the custom tensor: {', '.join(tol) or 'none'}"
        )
    for reason in failures[:5]:
        lines.append(f"FAILED {reason}")

    result.update(
        ops=ops,
        points_per_op=wl.points_per_op,
        points_name=wl.points_name,
        failures=failures,
        notes=notes,
        metrics=metrics,
    )
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(RESULTS / f"{stem}.spans.npz")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}")
    for line in lines:
        print(line)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summaries = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            _fail(f"workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            if not (line.startswith("env ") and summaries):
                print(line)
        summaries[name] = json.loads(lines[-1])
        print()
    print(json.dumps(summaries))
    return 0 if all(s["correct"] for s in summaries.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
