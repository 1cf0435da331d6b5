"""Command-line interface.

Subcommands:
  eval    -- evaluate every geometric object at one point, dump as JSON
  verify  -- run the verification suite; report to stdout or --output
  sweep   -- tabulate one scalar field over a (t, y) grid
  report  -- human-readable summary of a previously written verify JSON

Exit codes: 0 pass, 1 verification failure, 2 invalid input (an unreadable
--config or an unwritable --output included), 3 internal error: a
consistency guard of the program failed, or an unexpected exception, whose
traceback goes to stderr.  No crash exits 1.
Every JSON document is the text of json.dumps(doc, indent=2) (written by
``jsondoc``).  The verify/sweep documents are byte-deterministic for a fixed
config and seed; human-readable progress goes to stderr.
"""

import argparse
import ctypes
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import __version__, closed, connection, fieldtheory
from ..errors import ConfigError, InvariantError, JetBMError
from ..geometry import point_geometry, take
from ..jetcore import JetPoint
from . import jsondoc
from .checks import SWEEP_FIELDS, parse_grid, run_verify, sweep, sweep_csv
from .config import RunConfig, default_config, parse_config


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return default_config()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc.strerror or exc}") from exc
    return parse_config(text)


def _eval_point(cfg: RunConfig, p: JetPoint) -> dict:
    tm = cfg.time_metric
    geo = point_geometry(cfg.tensor, tm, p)
    one = take(geo, 0)
    s = one.scalars
    can = take(connection.canonical_nlc(geo.kappa, geo.y), 0)
    apr = take(connection.apriori_nlc(geo.kappa, geo.y), 0)
    pot = take(fieldtheory.grav_potential_of(geo), 0)
    ein = take(fieldtheory.einstein_blocks_of(geo, cfg.einstein_k), 0)
    cons = take(fieldtheory.conservation_residuals_of(geo, cfg.einstein_k), 0)
    em = take(fieldtheory.em_form_of(geo), 0)
    doc = {
        "point": {"t": p.t, "x": p.x, "y": p.y},
        "time_metric": {
            "h11": one.h11,
            "h11_inv": one.h11_inv,
            "dh11": one.dh11,
            "d2h11": one.d2h11,
            "kappa": one.kappa,
            "dkappa": one.dkappa,
        },
        "g_scalars": {
            "G1111": s.g1111,
            "Gi111": s.gi111,
            "Gij11": s.gij11,
            "Gij11_inv": s.gij11_inv,
            "det_Gij11": s.det_gij11,
            "G_script": s.g_script,
            "Gj_up": s.gj_up,
        },
        "metric": {"g_lo": one.g_lo, "g_up": one.g_up},
        "nonlinear_connection": {
            "canonical": {"M": can.m, "N": can.n},
            "apriori": {"M": apr.m, "N": apr.n},
        },
        "cartan": {"kappa": one.kappa, "Gk": one.gk, "L": one.l, "C": one.c},
        "torsions": {
            "P_mixed": one.p_mixed,
            "P_vert": one.p_vert,
            "R_time": one.r_time,
        },
        "curvatures": {"R": one.r_curv, "P": one.p_curv, "S": one.s_curv},
        "ricci": {
            "R_ij": one.r_ij,
            "P_ricci": one.p_ricci,
            "S_ricci": one.s_ricci,
            "S_raised": one.s_raised,
            "Sc": one.sc,
            "S_ricci_field": closed.bm_s_ricci_field(p.y) if cfg.tensor.is_berwald_moor else None,
            "Sc_field": closed.scalar_curvature_field(tm, p.t, p.y) if cfg.tensor.is_berwald_moor else None,
        },
        "grav_potential": {
            "tt_block": pot.tt_block,
            "xx_block": pot.xx_block,
            "yy_block": pot.yy_block,
        },
        "einstein": {
            "K": ein.k,
            "xi11": ein.xi11,
            "T_11": ein.t_11,
            "T_ij": ein.t_ij,
            "T_yy": ein.t_yy,
            "T_i_yj": ein.t_i_yj,
            "T_yi_j": ein.t_yi_j,
            "zero_blocks": ein.zero_blocks,
            "raised": {
                "T1_1": ein.raised_t11,
                "Tm_i": ein.raised_h,
                "Tm_1i_mixed_t": ein.raised_mixed_t,
                "Tm_i_mixed_v": ein.raised_mixed_v,
                "Tm_i_vv": ein.raised_vv,
            },
        },
        "conservation": {
            "T1": cons.t1,
            "Ti": cons.ti,
            "Tyi": cons.tyi,
            "closed_T1": cons.closed_t1,
            "closed_Ti": cons.closed_ti,
            "closed_Tyi": cons.closed_tyi,
        },
        "em_form": {"F": em.f},
    }
    return doc


def _parse_vec(raw: str, name: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from exc
    if len(vals) != 4:
        raise ConfigError(f"{name}: expected four components, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{name}: components must be finite, got {raw!r}")
    return np.array(vals)


def _check_output(output: str | None):
    """Refuse an unwritable --output before any work is done.  Opening for
    append truncates no existing file, and a file this check makes is
    removed again, so a run that fails later leaves the path as it was."""
    if not output:
        return
    path = Path(output)
    existed = path.exists()
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"--output: cannot write {output}: {exc.strerror or exc}") from exc
    if not existed:
        path.unlink()


def _emit(text: str, output: str | None):
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise ConfigError(f"--output: cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    if not np.isfinite(args.t):
        raise ConfigError(f"--t: must be finite, got {args.t}")
    y = _parse_vec(args.y, "--y")
    x = _parse_vec(args.x, "--x") if args.x else None
    p = JetPoint.from_y(y, t=args.t, x=x)
    doc = _eval_point(cfg, p)
    _emit(jsondoc.dumps(doc) + "\n", args.output)
    return 0


def _print_group_time(name: str, points: int, seconds: float, stages: dict[str, float]):
    """The group's wall time, split into its kernel stages' time and the
    rest, which its checks take."""
    split = " ".join(f"{stage}={s:.3f}s" for stage, s in stages.items())
    print(
        f"[time] {name}  points={points} wall={seconds:.3f}s {split} checks={seconds - sum(stages.values()):.3f}s",
        file=sys.stderr,
    )


# glibc's mallopt parameters, and its own ceiling for the mmap threshold on
# a 64-bit host (DEFAULT_MMAP_THRESHOLD_MAX) with twice it as the trim
# threshold, the ratio of glibc's dynamic rule
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


def _keep_freed_pages():
    """Have glibc keep the memory that a verify run frees for its next
    chunk.  glibc's dynamic thresholds rise only to the largest block freed
    so far, so each chunk's tables of a few hundred KiB go back to the kernel
    when the chunk is dropped, and the next chunk faults them in again
    (thousands of minor page faults per run).  The thresholds are set to
    glibc's dynamic rule at its ceiling, once, and not restored: restoring
    them cannot give back the dynamic rule.  Only verify calls this: eval
    makes fewer than one fault per call, and sweep ran no faster with it
    and held about 2 MB more.  On a C library without ``mallopt`` this does
    nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _cmd_verify(args) -> int:
    _keep_freed_pages()
    cfg = _load_config(args.config)
    overrides = {"seed": args.seed, "samples": args.samples}
    # RunConfig refuses an override that breaks a value rule, by field path
    cfg = replace(cfg, **{name: value for name, value in overrides.items() if value is not None})
    result = run_verify(cfg, on_group=_print_group_time)
    for r in result.reports:
        status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
        if r.skipped:
            print(f"[{status}] {r.check_name}", file=sys.stderr)
        else:
            print(
                f"[{status}] {r.check_name}  samples={r.samples} abs={r.max_abs_err:.3e} rel={r.max_rel_err:.3e}",
                file=sys.stderr,
            )
    n_skip = sum(r.skipped for r in result.reports)
    n_fail = sum((not r.passed) for r in result.reports)
    n_pass = len(result.reports) - n_skip - n_fail
    print(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped", file=sys.stderr)
    text = result.to_json() if args.format == "json" else result.to_csv()
    _emit(text, args.output)
    return 0 if result.overall_pass else 1


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    columns = sweep(cfg, args.field, parse_grid(args.grid))
    text = jsondoc.dumps_records(columns) + "\n" if args.format == "json" else sweep_csv(columns)
    _emit(text, args.output)
    return 0


def _summary(doc) -> list[str]:
    """The lines ``report`` prints for a verify document; a malformed one
    raises KeyError, TypeError or ValueError."""
    if not isinstance(doc, dict) or not isinstance(doc["reports"], list):
        raise ValueError("expected a JSON object whose reports are a list")
    reports = doc["reports"]
    if not all(isinstance(r, dict) for r in reports):
        raise ValueError("every report entry must be a JSON object")
    width = max((len(r["check_name"]) for r in reports), default=10)
    lines = []
    for r in reports:
        status = "SKIP" if r.get("skipped") else ("PASS" if r["pass"] else "FAIL")
        abs_e = r["max_abs_err"]
        rel_e = r["max_rel_err"]
        errs = "" if abs_e is None else f"  abs={abs_e:.3e} rel={rel_e:.3e} samples={r['samples']}"
        lines.append(f"[{status}] {r['check_name']:<{width}}{errs}")
    lines.append(f"overall: {'PASS' if doc['overall_pass'] else 'FAIL'}")
    return lines


def _cmd_report(args) -> int:
    try:
        lines = _summary(json.loads(Path(args.input).read_text()))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"cannot read report: {what}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


# every sub-command: its name, help, handler and arguments, each argument
# its flag and add_argument's keywords
_COMMANDS = (
    (
        "eval",
        "evaluate all geometric objects at one point",
        _cmd_eval,
        (
            ("--config", {"help": "configuration file"}),
            ("--t", {"type": float, "default": 0.0, "help": "time coordinate"}),
            ("--x", {"help": "base coordinates, four comma-separated values"}),
            ("--y", {"required": True, "help": "fiber coordinates, four comma-separated positive values"}),
            ("--output", {"help": "write JSON here instead of stdout"}),
        ),
    ),
    (
        "verify",
        "run the verification suite",
        _cmd_verify,
        (
            ("--config", {"help": "configuration file"}),
            ("--seed", {"type": int, "help": "override sampling.seed"}),
            ("--samples", {"type": int, "help": "override sampling.samples"}),
            ("--format", {"choices": ("json", "csv"), "default": "json"}),
            ("--output", {"help": "write the report document here instead of stdout"}),
        ),
    ),
    (
        "sweep",
        "tabulate a scalar field over a grid",
        _cmd_sweep,
        (
            ("--config", {"help": "configuration file"}),
            ("--field", {"required": True, "choices": SWEEP_FIELDS}),
            ("--grid", {"required": True, "help": "axis=start:stop:count[,axis=...]; axes t, s, y1..y4"}),
            ("--format", {"choices": ("csv", "json"), "default": "csv"}),
            ("--output", {"help": "write the table here instead of stdout"}),
        ),
    ),
    (
        "report",
        "summarize a previously written verify JSON",
        _cmd_report,
        (("--input", {"required": True, "help": "path to a verify JSON document"}),),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every sub-command and its arguments.  ``main`` builds
    it only for a call whose argv[0] names no command, or whose command
    leaves arguments unparsed, so that these calls get its usage, help and
    error texts."""
    parser = argparse.ArgumentParser(prog="jetbm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"jetbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(fn=handler)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``build_parser().parse_args(argv)``.  When argv[0]
    names a command, that command's parser alone reads the rest: it is the
    sub-parser the full tree gives the command, prog "jetbm <name>"
    included, so its help and error texts are the tree's, at a third of
    the tree's building cost.  The full tree is built only when argv[0]
    names no command or the command leaves an argument unread, and then
    writes its own texts ("jetbm: error: unrecognized arguments", say)."""
    for name, _, handler, arguments in _COMMANDS:
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"jetbm {name}")
            for flag, options in arguments:
                parser.add_argument(flag, **options)
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                args.command, args.fn = name, handler
                return args
            break
    return build_parser().parse_args(argv)


# options whose value may start with "-": a negative time in exponent
# notation ("-1.5e-05") or a coordinate list ("-1,2,3,4"), which argparse
# would otherwise read as a flag
_SIGNED_VALUE_OPTIONS = ("--t", "--x", "--y")


def _join_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--t -1.5e-05" as "--t=-1.5e-05" for the options above."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _SIGNED_VALUE_OPTIONS and nxt is not None and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    """Run one command on ``argv`` (sys.argv[1:] when None) and return its
    exit code.  A valid call builds only its own command's parser (see
    ``_parse_args``); nothing is kept from one call to the next."""
    argv = _join_signed_values(sys.argv[1:] if argv is None else list(argv))
    args = _parse_args(argv)
    try:
        _check_output(getattr(args, "output", None))
        return args.fn(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except JetBMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
