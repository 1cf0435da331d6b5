"""Layer trace recorded from outside the program.

The tracer wraps the functions named in TRACED and rebinds every ``jetbm.*``
module or class attribute that holds the same function object. The modules
bind names with ``from .metric import g_scalars``; wrapping only the defining
module would miss those nested calls and corrupt self times.

Each wrapped call is a span. Per traced name the tracer keeps the call count
and the self time: the span's duration minus the time its child spans cover.
The wrappers are bound only inside ``with tracer:``, around one operation, so
the benchmark's own output checks, which call some of the same functions, are
not counted, and untraced operations run the program unmodified. The first
``span_cap`` spans are also kept in memory as columns (id, parent,
name, start, end) and written out by ``write_spans`` when the run ends.
"""

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module under jetbm, qualified name) in layer order
TRACED = (
    ("jetcore", "TimeMetric.eval"),
    ("metric", "g_scalars"),
    ("metric", "metric_pair"),
    ("metric", "metric_taylor2"),
    ("metric", "bm_metric_closed"),
    ("connection", "christoffel_time"),
    ("connection", "cartan_connection"),
    ("connection", "bm_cartan_closed"),
    ("curvature", "torsions"),
    ("curvature", "curvatures"),
    ("curvature", "ricci_scalar"),
    ("curvature", "bm_s_closed"),
    ("curvature", "classify_s_case"),
    ("fieldtheory", "grav_potential"),
    ("fieldtheory", "einstein_blocks"),
    ("fieldtheory", "conservation_residuals"),
    ("fieldtheory", "em_form"),
    ("fieldtheory", "des_check"),
    ("harness.checks", "run_verify"),
    ("harness.checks", "sweep"),
    ("harness.checks", "sweep_csv"),
    ("harness.cli", "main"),
)

# Taylor2 arithmetic; reported summed as jetcore.Taylor2.* (reflected
# operators such as __radd__ are the same function objects and are rebound
# with them)
TAYLOR2_OPS = (
    "__add__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "reciprocal",
    "__truediv__",
    "__rtruediv__",
    "sqrt",
    "__pow__",
)
TAYLOR2 = "jetcore.Taylor2"


def layer_names() -> list[str]:
    """Reported layer names: Taylor2 arithmetic first, then TRACED in order."""
    return [TAYLOR2] + [f"{mod}.{qual}" for mod, qual in TRACED]


class Tracer:
    """Per-name call counts and self times, and the recorded spans."""

    def __init__(self, span_cap: int = 200_000):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.bindings: dict[str, int] = {}
        self.span_cap = span_cap
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._swaps: list[tuple] = []  # (holder, attribute, original, wrapper)
        self._cols = {"id": array("q"), "parent": array("q"), "name": array("i"), "start": array("d"), "end": array("d")}

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        calls, self_s, stack, cols = self.calls, self.self_s, self._stack, self._cols
        ids, parents, names, starts, ends = (cols[k] for k in ("id", "parent", "name", "start", "end"))
        cap = self.span_cap
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(ids) < cap:
                    ids.append(sid)
                    parents.append(parent)
                    names.append(idx)
                    starts.append(t0)
                    ends.append(t1)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def wrap_all(self):
        """Wrap every traced function and find every alias of it; bound by
        ``with tracer:``."""
        modules = [m for key, m in list(sys.modules.items()) if key == "jetbm" or key.startswith("jetbm.")]
        targets = [(f"{TAYLOR2}.{op}", "jetcore", f"Taylor2.{op}") for op in TAYLOR2_OPS]
        targets += [(f"{mod}.{qual}", mod, qual) for mod, qual in TRACED]
        for name, mod, qual in targets:
            owner = importlib.import_module(f"jetbm.{mod}")
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = vars(owner)[attr]
            wrapper = self._wrap(name, fn)
            holders = list(modules) + [owner] if cls_path else modules
            swaps = [(h, key, fn, wrapper) for h in holders for key, val in vars(h).items() if val is fn]
            if not swaps:
                raise RuntimeError(f"traced function {name} is bound nowhere")
            self._swaps += swaps
            self.bindings[name] = len(swaps)

    def __enter__(self):
        for holder, key, _, wrapper in self._swaps:
            setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, fn, _ in self._swaps:
            setattr(holder, key, fn)

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per reported layer name; Taylor2 ops summed."""
        out = {name: (0, 0.0) for name in layer_names()}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            key = TAYLOR2 if name.startswith(TAYLOR2 + ".") else name
            c, s = out[key]
            out[key] = (c + calls, s + self_s)
        return out

    def op_calls(self) -> dict[str, int]:
        """Calls per Taylor2 operation, for the results file."""
        return {n: c for n, c in zip(self.names, self.calls) if n.startswith(TAYLOR2 + ".")}

    def write_spans(self, path):
        """Write the recorded spans as a compressed npz of columns."""
        cols = {k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.zeros(0) for k, v in self._cols.items()}
        np.savez_compressed(
            path,
            names=np.array(self.names),
            truncated=np.array(self._next_id > len(self._cols["id"])),
            **cols,
        )
