"""Compare the documents two source trees write through the jetbm CLI.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC
    python scripts/compare_outputs.py --verdicts OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``jetbm`` package (a
checkout's ``src``).  Each tree runs the same fixed document set in one
process of its own:

* ``verify --samples 1000`` on the default configuration, seeds 1, 7 and 42,
  on ``benchmarks/custom.ini``, seeds 1 and 7, on
  ``scripts/bm_exponential.ini``, seeds 1 and 7, on
  ``scripts/bm_power.ini``, seeds 1 and 7, and on ``scripts/dense.ini``,
  seeds 1 and 7 (the default's constant h_11 gives kappa = 0, so L^i_jk and
  G^k_j1 vanish there and only a nonzero kappa shows a change to them; the
  exponential family's kappa is constant, so only the power family shows a
  change to the power branch of the time metric or to dkappa/dt; only the
  dense tensor makes every G-hierarchy contraction sum all of its terms);
* ``verify --samples 1000 --format csv`` on the default configuration,
  seed 1;
* ``eval`` at the first 300 points of the benchmark's seed-1 eval inputs,
  and at the first 20 of them on ``benchmarks/custom.ini`` (whose
  ``S_ricci_field`` and ``Sc_field`` are null), on ``scripts/bm_power.ini``
  (kappa != 0) and on ``scripts/dense.ini``;
* ``sweep`` of every sweep field over the benchmark's seed-1 sweep grid, as
  CSV and as JSON, ``sweep --field G1111`` (the one field a custom tensor
  has) on ``benchmarks/custom.ini`` and on ``scripts/dense.ini``, and, as
  CSV, every field of the closed Berwald-Moor layer on
  ``scripts/bm_power.ini`` and ``scripts/bm_exponential.ini`` (the
  default's constant h_11 reaches neither the power branch of the time
  metric nor a nonzero kappa or dkappa/dt, and the exponential Sc repeats
  no value, so its column is formatted value by value);
* the parser's own texts: the usage, help and version texts and the usage
  errors of ``PARSER_ARGVS`` (for an argv that makes argparse exit, the
  document is its stdout followed by its stderr).

That is 405 documents, every kind of document the CLI writes.

For each document the script prints whether the two trees wrote it
identically.  For a document that differs it prints how many numbers changed
and the largest relative change, the key path of each array or value that
changed in a JSON document (such as ``conservation.Ti``), the verify checks
whose "pass" moved, and the lines one tree has and the other lacks.  A
changed number is measured against the largest magnitude in its own row:
the JSON array that holds it, with every array nested in it (one table of
an eval document), or its CSV line (a sweep row); a number outside any
array is measured against itself.  So a round-off-sized entry of a table
that flips sign counts as a change of its own size against the table, not
as a relative change of 2.  Exit status is 0 when every document is
identical, 1 otherwise.

With ``--verdicts`` each tree runs ``verify --samples 1000`` on the default
configuration at seeds 1-800 and on ``benchmarks/custom.ini`` at seeds
1-120, and the script prints only the checks whose "pass" moved, each with
both trees' errors.  Exit status is 0 when no verdict moved, 1 otherwise.
This is the gate for a change that moves last bits, whose documents cannot
stay byte-identical.
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
DENSE = ROOT / "scripts" / "dense.ini"
CLOSED_FIELDS = ("Sc", "xi11", "T1", "Ti", "Tyi")  # the sweep fields of the closed Berwald-Moor layer
SWEEP_FIELDS = CLOSED_FIELDS + ("G1111",)
EVAL_DOCS = 300
EVAL_CONFIG_DOCS = 20
# argv on which argparse prints a text of its own and exits: help, version
# and usage errors
PARSER_ARGVS = (
    ["--help"],
    ["--version"],
    ["bogus"],
    ["eval", "--help"],
    ["verify", "--help"],
    ["sweep", "--help"],
    ["report", "--help"],
    ["eval", "--y=1,1,1,1", "--bogus"],
    ["sweep", "--field", "Sc"],
)

# runs in each tree: reads a JSON list of argv lists on stdin, runs each
# through jetbm.harness.cli.main in-process and writes [exit code, stdout]
# pairs as JSON; stderr (progress and timings) is discarded, except where
# argparse exits (help, version and usage errors), whose stderr text is
# appended to stdout
CHILD = """
import contextlib, io, json, sys
from jetbm.harness.cli import main
out = []
for argv in json.load(sys.stdin):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
            buf.write(err.getvalue())
    out.append([rc, buf.getvalue()])
json.dump(out, sys.stdout)
"""

NUMBER = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
# a line that is one number element of a JSON array written with indent
ELEMENT = re.compile(rf"\s*({NUMBER}),?")


def documents() -> list[tuple[str, list[str]]]:
    docs = []
    custom = str(workloads.HERE / "custom.ini")
    for seed in (1, 7, 42):
        docs.append((f"verify default seed {seed}", ["verify", "--samples", "1000", "--seed", str(seed)]))
    for name, config in (
        ("custom.ini", custom),
        ("bm_exponential.ini", str(BM_EXPONENTIAL)),
        ("bm_power.ini", str(BM_POWER)),
        ("dense.ini", str(DENSE)),
    ):
        for seed in (1, 7):
            argv = ["verify", "--config", config, "--samples", "1000", "--seed", str(seed)]
            docs.append((f"verify {name} seed {seed}", argv))
    docs.append(("verify default seed 1 csv", ["verify", "--samples", "1000", "--seed", "1", "--format", "csv"]))
    ev = workloads.Eval()
    ev.inputs(1)
    docs.extend((f"eval point {i}", ev.argv(i)) for i in range(EVAL_DOCS))
    for name, config in (("custom.ini", custom), ("bm_power.ini", str(BM_POWER)), ("dense.ini", str(DENSE))):
        docs.extend(
            (f"eval {name} point {i}", ev.argv(i) + ["--config", config]) for i in range(EVAL_CONFIG_DOCS)
        )
    sw = workloads.Sweep()
    sw.inputs(1)
    for fmt in ("csv", "json"):
        docs.extend(
            (f"sweep {field} {fmt}", ["sweep", "--field", field, "--grid", sw.grid, "--format", fmt])
            for field in SWEEP_FIELDS
        )
    for name, config in (("custom.ini", custom), ("dense.ini", str(DENSE))):
        docs.append((f"sweep G1111 {name}", ["sweep", "--field", "G1111", "--grid", sw.grid, "--config", config]))
    for name, config in (("bm_power.ini", str(BM_POWER)), ("bm_exponential.ini", str(BM_EXPONENTIAL))):
        docs.extend(
            (f"sweep {field} {name}", ["sweep", "--field", field, "--grid", sw.grid, "--config", config])
            for field in CLOSED_FIELDS
        )
    docs.extend((f"parser {' '.join(argv)}", list(argv)) for argv in PARSER_ARGVS)
    return docs


def verdict_documents() -> list[tuple[str, list[str]]]:
    custom = str(workloads.HERE / "custom.ini")
    docs = [
        (f"verify default seed {seed}", ["verify", "--samples", "1000", "--seed", str(seed)])
        for seed in range(1, 801)
    ]
    docs.extend(
        (f"verify custom.ini seed {seed}", ["verify", "--config", custom, "--samples", "1000", "--seed", str(seed)])
        for seed in range(1, 121)
    )
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


def _row_scales(lines: list[str]) -> list[float]:
    """Per line, the largest magnitude among the numbers of its row: in a
    JSON document written with indent, the array (with every array nested in
    it) that a line holding a number element belongs to, such as one table
    of an eval document; in any other document (a CSV one) the line itself.
    0 for a JSON line that is no element of an array of numbers."""
    if not lines or not lines[0].startswith("{"):
        return [max((abs(float(v)) for v in _split(line)[1]), default=0.0) for line in lines]
    members: dict[int, list[int]] = {}  # per array, the lines of its number elements
    owner: list[int | None] = []  # per open container, its array (None for an object)
    for i, line in enumerate(lines):
        text = line.strip()
        if text.endswith("{"):
            owner.append(None)
        elif text.endswith("["):
            nested = text == "[" and owner and owner[-1] is not None
            owner.append(owner[-1] if nested else i)
            members.setdefault(owner[-1], [])
        elif text.startswith(("]", "}")):
            owner.pop()
        elif owner and owner[-1] is not None and ELEMENT.fullmatch(line):
            members[owner[-1]].append(i)
    scales = [0.0] * len(lines)
    for rows in members.values():
        scale = max((abs(float(ELEMENT.fullmatch(lines[k])[1])) for k in rows), default=0.0)
        for k in rows:
            scales[k] = scale
    return scales


def verdicts(doc: str) -> dict[str, dict]:
    """Check name -> report of a verify document; empty for any other."""
    try:
        parsed = json.loads(doc)
    except ValueError:
        return {}
    if not isinstance(parsed, dict) or "reports" not in parsed:
        return {}
    return {r["check_name"]: r for r in parsed["reports"]}


def _err(value) -> str:
    return "null" if value is None else f"{value:.3g}"


def moved_verdicts(old: str, new: str) -> list[str]:
    """One line per check whose "pass" differs between two verify documents,
    with both documents' errors."""
    before, after = verdicts(old), verdicts(new)
    lines = []
    for name, a in before.items():
        b = after.get(name)
        if b is not None and a["pass"] != b["pass"]:
            lines.append(
                f"{name}: pass {json.dumps(a['pass'])} -> {json.dumps(b['pass'])}"
                f" (max_abs_err {_err(a['max_abs_err'])} -> {_err(b['max_abs_err'])},"
                f" max_rel_err {_err(a['max_rel_err'])} -> {_err(b['max_rel_err'])})"
            )
    return lines


def _values(doc, path: str = "") -> dict[str, str]:
    """Key path -> JSON text of each value of a parsed JSON document: an
    object's members by their keys, joined with ".", a list that holds an
    object by index ("reports[3]"), and any other list (an array of numbers,
    however nested) or value as a whole."""
    if isinstance(doc, dict):
        items = [(f"{path}.{key}" if path else key, v) for key, v in doc.items()]
    elif isinstance(doc, list) and any(isinstance(v, dict) for v in doc):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(doc)]
    else:
        return {path: json.dumps(doc)}
    out = {}
    for sub, v in items:
        out.update(_values(v, sub))
    return out


def moved_paths(old: str, new: str) -> list[str]:
    """The key path of each array or value that differs between two JSON
    documents, in the old document's order and then the paths only the new
    one has; empty unless both are JSON objects."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
    va, vb = _values(a), _values(b)
    return [path for path in dict.fromkeys([*va, *vb]) if va.get(path) != vb.get(path)]


def compare(old: str, new: str) -> str | None:
    """None when identical, else a one-paragraph summary of the difference."""
    if old == new:
        return None
    a, b = old.splitlines(), new.splitlines()
    scale_a, scale_b = _row_scales(a), _row_scales(b)
    pairs, removed, added = [], [], []
    if len(a) == len(b):
        pairs = [(i, i) for i, (x, y) in enumerate(zip(a, b)) if x != y]
    else:
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
            if tag == "replace" and i2 - i1 == j2 - j1:
                pairs.extend(zip(range(i1, i2), range(j1, j2)))
            elif tag != "equal":
                removed.extend(a[i1:i2])
                added.extend(b[j1:j2])
    changed, worst = 0, 0.0
    for i, j in pairs:
        (tx, nx), (ty, ny) = _split(a[i]), _split(b[j])
        if tx != ty or len(nx) != len(ny):
            removed.append(a[i])
            added.append(b[j])
            continue
        row = max(scale_a[i], scale_b[j])
        for u, v in zip(nx, ny):
            if u != v:
                changed += 1
                fu, fv = float(u), float(v)
                scale = max(abs(fu), abs(fv), row)
                worst = max(worst, abs(fu - fv) / scale if scale > 0.0 else 0.0)
    lines = [f"{changed} numbers changed, largest relative change {worst:.3g}"]
    paths = moved_paths(old, new)
    if paths:
        shown = ", ".join(paths[:10]) + (f", ... {len(paths) - 10} more" if len(paths) > 10 else "")
        lines.append(f"    changed: {shown}")
    lines.extend(f"    verdict moved: {line}" for line in moved_verdicts(old, new))
    for sign, block in (("-", removed), ("+", added)):
        lines.extend(f"    {sign} {line.strip()}" for line in block[:5])
        if len(block) > 5:
            lines.append(f"    {sign} ... {len(block) - 5} more lines")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    only_verdicts = argv[:1] == ["--verdicts"]
    if only_verdicts:
        argv = argv[1:]
    if len(argv) != 2:
        print("usage: python scripts/compare_outputs.py [--verdicts] OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    docs = verdict_documents() if only_verdicts else documents()
    argvs = [args for _, args in docs]
    old_out, new_out = (run_tree(src, argvs) for src in argv)
    n_diff = 0
    for (name, _), (rc_old, doc_old), (rc_new, doc_new) in zip(docs, old_out, new_out):
        if only_verdicts:
            moved = [f"exit code {rc_old} -> {rc_new}"] if rc_old != rc_new else []
            moved.extend(moved_verdicts(doc_old, doc_new))
            n_diff += bool(moved)
            for line in moved:
                print(f"{name}: {line}")
            continue
        summary = compare(doc_old, doc_new)
        if rc_old != rc_new:
            summary = f"exit code {rc_old} -> {rc_new}" + ("" if summary is None else f"; {summary}")
        if summary is None:
            print(f"{name}: identical")
        else:
            n_diff += 1
            print(f"{name}: differs, {summary}")
    kind = "with no moved verdict" if only_verdicts else "identical"
    print(f"{len(docs) - n_diff} of {len(docs)} documents {kind}")
    return 0 if n_diff == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
