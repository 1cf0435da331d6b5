"""Compare the documents two source trees write through the jetbm CLI.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``jetbm`` package (a
checkout's ``src``).  Each tree runs the same fixed document set in one
process of its own:

* ``verify --samples 1000`` on the default configuration, seeds 1, 7 and 42,
  on ``benchmarks/custom.ini``, seeds 1 and 7, on
  ``scripts/bm_exponential.ini``, seeds 1 and 7, and on
  ``scripts/bm_power.ini``, seeds 1 and 7 (the default's constant h_11 gives
  kappa = 0, so L^i_jk and G^k_j1 vanish there and only a nonzero kappa
  shows a change to them; the exponential family's kappa is constant, so
  only the power family shows a change to the power branch of the time
  metric or to dkappa/dt);
* ``eval`` at the first 300 points of the benchmark's seed-1 eval inputs;
* ``sweep`` of every sweep field over the benchmark's seed-1 sweep grid.

For each document the script prints whether the two trees wrote it
identically.  For a document that differs it prints how many numbers changed
and the largest relative change, and the lines one tree has and the other
lacks.  Exit status is 0 when every document is identical, 1 otherwise.
"""

import difflib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402  (the benchmark's seeded inputs)

BM_EXPONENTIAL = ROOT / "scripts" / "bm_exponential.ini"
BM_POWER = ROOT / "scripts" / "bm_power.ini"
SWEEP_FIELDS = ("Sc", "xi11", "T1", "Ti", "Tyi", "G1111")
EVAL_DOCS = 300

# runs in each tree: reads a JSON list of argv lists on stdin, runs each
# through jetbm.harness.cli.main in-process and writes [exit code, stdout]
# pairs as JSON; stderr (progress and timings) is discarded
CHILD = """
import contextlib, io, json, sys
from jetbm.harness.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    out.append([rc, buf.getvalue()])
json.dump(out, sys.stdout)
"""

NUMBER = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def documents() -> list[tuple[str, list[str]]]:
    docs = []
    custom = str(workloads.HERE / "custom.ini")
    for seed in (1, 7, 42):
        docs.append((f"verify default seed {seed}", ["verify", "--samples", "1000", "--seed", str(seed)]))
    for name, config in (
        ("custom.ini", custom),
        ("bm_exponential.ini", str(BM_EXPONENTIAL)),
        ("bm_power.ini", str(BM_POWER)),
    ):
        for seed in (1, 7):
            argv = ["verify", "--config", config, "--samples", "1000", "--seed", str(seed)]
            docs.append((f"verify {name} seed {seed}", argv))
    ev = workloads.Eval()
    ev.inputs(1)
    docs.extend((f"eval point {i}", ev.argv(i)) for i in range(EVAL_DOCS))
    sw = workloads.Sweep()
    sw.inputs(1)
    docs.extend((f"sweep {field}", ["sweep", "--field", field, "--grid", sw.grid]) for field in SWEEP_FIELDS)
    return docs


def run_tree(src: str, argvs: list[list[str]]) -> list[tuple[int, str]]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(argvs), capture_output=True, text=True, env=env, check=False
    )
    if proc.returncode != 0:
        sys.exit(f"{src}: the document run failed:\n{proc.stderr}")
    return [tuple(pair) for pair in json.loads(proc.stdout)]


def _split(line: str) -> tuple[list[str], list[str]]:
    """A line's text between numbers, and its numbers."""
    parts = re.split(f"({NUMBER})", line)
    return parts[0::2], parts[1::2]


def compare(old: str, new: str) -> str | None:
    """None when identical, else a one-paragraph summary of the difference."""
    if old == new:
        return None
    a, b = old.splitlines(), new.splitlines()
    pairs, removed, added = [], [], []
    if len(a) == len(b):
        pairs = [(x, y) for x, y in zip(a, b) if x != y]
    else:
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
            if tag == "replace" and i2 - i1 == j2 - j1:
                pairs.extend(zip(a[i1:i2], b[j1:j2]))
            elif tag != "equal":
                removed.extend(a[i1:i2])
                added.extend(b[j1:j2])
    changed, worst = 0, 0.0
    for x, y in pairs:
        (tx, nx), (ty, ny) = _split(x), _split(y)
        if tx != ty or len(nx) != len(ny):
            removed.append(x)
            added.append(y)
            continue
        for u, v in zip(nx, ny):
            if u != v:
                changed += 1
                fu, fv = float(u), float(v)
                scale = max(abs(fu), abs(fv))
                worst = max(worst, abs(fu - fv) / scale if scale > 0.0 else 0.0)
    lines = [f"{changed} numbers changed, largest relative change {worst:.3g}"]
    for sign, block in (("-", removed), ("+", added)):
        lines.extend(f"    {sign} {line.strip()}" for line in block[:5])
        if len(block) > 5:
            lines.append(f"    {sign} ... {len(block) - 5} more lines")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    docs = documents()
    argvs = [args for _, args in docs]
    old_out, new_out = (run_tree(src, argvs) for src in argv)
    n_diff = 0
    for (name, _), (rc_old, doc_old), (rc_new, doc_new) in zip(docs, old_out, new_out):
        summary = compare(doc_old, doc_new)
        if rc_old != rc_new:
            summary = f"exit code {rc_old} -> {rc_new}" + ("" if summary is None else f"; {summary}")
        if summary is None:
            print(f"{name}: identical")
        else:
            n_diff += 1
            print(f"{name}: differs, {summary}")
    print(f"{len(docs) - n_diff} of {len(docs)} documents identical")
    return 0 if n_diff == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
