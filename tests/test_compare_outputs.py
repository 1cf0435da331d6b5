"""scripts/compare_outputs.py, the gate for the CLI documents: its line
splitter, its one-paragraph difference summary with each number measured
against its own row, the verify checks whose verdict moved, and the
verdict-only pass."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from jetbm.geometry import METRIC_CHUNK
from jetbm.harness import parse_grid

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

REPORT = '{\n  "check_name": "x",\n  "max_abs_err": 4.0,\n  "samples": 500\n}\n'


def test_split_separates_text_from_numbers():
    text, numbers = compare_outputs._split('"x": -1.5e-05, [3, 0.25]')
    assert text == ['"x": ', ", [", ", ", "]"]
    assert numbers == ["-1.5e-05", "3", "0.25"]


def test_identical_documents_give_none():
    assert compare_outputs.compare(REPORT, REPORT) is None


def test_one_changed_number_gives_its_count_and_largest_relative_change():
    summary = compare_outputs.compare(REPORT, REPORT.replace("4.0", "5.0"))
    assert summary.splitlines() == ["1 numbers changed, largest relative change 0.2", "    changed: max_abs_err"]


@pytest.mark.parametrize("sign", ["-", "+"])
def test_a_line_only_one_side_has_is_listed(sign):
    shorter = REPORT.replace('  "samples": 500\n', "")
    old, new = (REPORT, shorter) if sign == "-" else (shorter, REPORT)
    summary = compare_outputs.compare(old, new)
    assert summary.splitlines() == ["0 numbers changed, largest relative change 0", f'    {sign} "samples": 500']


def _verify_doc(passes: bool, err: float) -> str:
    report = {"check_name": "einstein/block-symmetry", "max_abs_err": err, "max_rel_err": None, "pass": passes}
    return json.dumps({"overall_pass": passes, "reports": [report]}, indent=2) + "\n"


def test_a_number_in_a_json_array_is_measured_against_its_whole_array():
    """A round-off entry of a table that flips sign is a change of its own
    size against the table's largest entry, however deeply nested; another
    array's entries count not."""
    doc = {"S": [[1e-17, 0.0], [[2.0], -1.0]], "x": [1e5], "scalar": 3.0}
    old = json.dumps(doc, indent=2)
    new = old.replace("1e-17", "-1e-17")
    assert compare_outputs.compare(old, new).splitlines() == [
        "1 numbers changed, largest relative change 1e-17",
        "    changed: S",
    ]


def test_a_number_in_a_csv_row_is_measured_against_its_row():
    old = "t,y1,Sc\n0.5,2.0,-1e-16\n"
    new = "t,y1,Sc\n0.5,2.0,1e-16\n"
    assert compare_outputs.compare(old, new) == "1 numbers changed, largest relative change 1e-16"


def test_a_changed_json_document_names_the_key_path_of_each_changed_value():
    """Each array (as a whole) or value that differs is named by its key
    path, in the old document's order and then the paths only the new one
    has; a list of objects is indexed, an unchanged NaN is not named, and a
    document that is not a JSON object names none."""
    old = {
        "point": {"t": 0.5, "y": [1.0, 2.0]},
        "conservation": {"T1": 1.0, "Ti": [[1.0, 2.0]], "closed_T1": 3.0, "spare": float("nan")},
        "reports": [{"check_name": name, "max_abs_err": err, "pass": True} for name, err in (("a", 1.0), ("b", 2.0))],
    }
    new = json.loads(json.dumps(old))
    new["conservation"].update(T1=1.5, closed_T1=None, closed_Ti=None)
    new["conservation"]["Ti"][0][1] = 2.5
    new["reports"][1]["max_abs_err"] = 4.0
    old_text, new_text = json.dumps(old, indent=2), json.dumps(new, indent=2)
    assert compare_outputs.moved_paths(old_text, new_text) == [
        "conservation.T1",
        "conservation.Ti",
        "conservation.closed_T1",
        "reports[1].max_abs_err",
        "conservation.closed_Ti",
    ]
    assert (
        "    changed: conservation.T1, conservation.Ti, conservation.closed_T1, reports[1].max_abs_err,"
        " conservation.closed_Ti" in compare_outputs.compare(old_text, new_text).splitlines()
    )
    assert compare_outputs.moved_paths("t,y1,Sc\n0.5,2.0,1.0\n", "t,y1,Sc\n0.5,2.0,2.0\n") == []
    many = {f"k{i}": i for i in range(12)}
    summary = compare_outputs.compare(json.dumps(many), json.dumps({k: v + 1 for k, v in many.items()}))
    assert "    changed: k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, ... 2 more" in summary.splitlines()


def test_a_moved_verdict_names_its_check_and_both_errors():
    summary = compare_outputs.compare(_verify_doc(True, 4.4e-11), _verify_doc(False, 1.02e-10))
    assert "    verdict moved: einstein/block-symmetry: pass true -> false (max_abs_err 4.4e-11 -> 1.02e-10," in summary
    assert compare_outputs.moved_verdicts(_verify_doc(True, 1.0), _verify_doc(True, 2.0)) == []


def test_the_verdict_pass_covers_its_seeds_and_prints_only_moved_verdicts(monkeypatch, capsys):
    docs = compare_outputs.verdict_documents()
    names = [name for name, _ in docs]
    assert names[0] == "verify default seed 1" and names[799] == "verify default seed 800"
    assert names[800] == "verify custom.ini seed 1" and names[-1] == "verify custom.ini seed 120"
    assert len(docs) == 920 and all(argv[:1] == ["verify"] and "1000" in argv for _, argv in docs)
    runs = {
        "old": [(0, _verify_doc(True, 1.0)), (0, _verify_doc(True, 1.0))],
        "new": [(0, _verify_doc(True, 2.0)), (1, _verify_doc(False, 3.0))],
    }
    monkeypatch.setattr(compare_outputs, "verdict_documents", lambda: docs[:2])
    monkeypatch.setattr(compare_outputs, "run_tree", lambda src, argvs: runs[src])
    assert compare_outputs.main(["--verdicts", "old", "new"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "verify default seed 2: exit code 0 -> 1",
        "verify default seed 2: einstein/block-symmetry: pass true -> false"
        " (max_abs_err 1 -> 3, max_rel_err null -> null)",
        "1 of 2 documents with no moved verdict",
    ]


def test_the_document_set_covers_every_kind_the_cli_writes():
    """Verify as JSON and CSV, on dense.ini too, eval on the default,
    custom.ini, bm_power.ini and dense.ini, every sweep field as CSV and
    JSON, G1111 swept on custom.ini and dense.ini, every closed-layer field
    swept on bm_power.ini and bm_exponential.ini, Sc and T1 swept as CSV
    and JSON on bm_power.ini over a grid with t last, Sc and Tyi swept as
    CSV and JSON on bm_power.ini over a grid of more than METRIC_CHUNK rows
    with no t axis, and the parser's usage, help, version and error texts:
    413 documents."""
    docs = compare_outputs.documents()
    assert len(docs) == 413
    argvs = [argv for name, argv in docs if not name.startswith("parser ")]
    assert sum(argv[0] == "verify" and argv[-1] == "csv" for argv in argvs) == 1
    dense = [argv for argv in argvs if argv[0] == "verify" and "--config" in argv and argv[2].endswith("dense.ini")]
    assert len(dense) == 2
    configs = [Path(argv[-1]).name for argv in argvs if argv[0] == "eval" and "--config" in argv]
    assert configs == ["custom.ini"] * 20 + ["bm_power.ini"] * 20 + ["dense.ini"] * 20
    sweeps = {(argv[argv.index("--field") + 1], Path(argv[-1]).name) for argv in argvs if argv[0] == "sweep"}
    assert sweeps == {(field, fmt) for field in compare_outputs.SWEEP_FIELDS for fmt in ("csv", "json")} | {
        ("G1111", "custom.ini"),
        ("G1111", "dense.ini"),
    } | {(field, ini) for field in compare_outputs.CLOSED_FIELDS for ini in ("bm_power.ini", "bm_exponential.ini")}
    t_last = [argv for argv in argvs if argv[0] == "sweep" and compare_outputs.T_LAST_GRID in argv]
    assert [(argv[2], argv[6], Path(argv[-1]).name) for argv in t_last] == [
        (field, fmt, "bm_power.ini") for field in ("Sc", "T1") for fmt in ("csv", "json")
    ]
    axes = [name for name, _ in parse_grid(compare_outputs.T_LAST_GRID)]
    assert axes[-1] == "t" and "s" in axes and {"y1", "y2", "y3", "y4"} & set(axes)
    no_t = [argv for argv in argvs if argv[0] == "sweep" and compare_outputs.NO_T_GRID in argv]
    assert [(argv[2], argv[6], Path(argv[-1]).name) for argv in no_t] == [
        (field, fmt, "bm_power.ini") for field in ("Sc", "Tyi") for fmt in ("csv", "json")
    ]
    no_t_axes = parse_grid(compare_outputs.NO_T_GRID)
    assert "t" not in dict(no_t_axes) and math.prod(len(values) for _, values in no_t_axes) > METRIC_CHUNK
    parser_docs = [argv for name, argv in docs if name.startswith("parser ")]
    assert parser_docs == list(compare_outputs.PARSER_ARGVS)
    assert {argv[0] for argv in parser_docs if argv[1:] == ["--help"]} == {"eval", "verify", "sweep", "report"}


def test_a_parser_exit_keeps_its_code_and_both_texts():
    """Where argparse exits, the document is its stdout and then its stderr;
    elsewhere stderr is dropped."""
    src = str(_PATH.parents[1] / "src")
    (rc_help, help_text), (rc_bogus, bogus), (rc_run, report) = compare_outputs.run_tree(
        src, [["--help"], ["bogus"], ["report", "--input", "/nonexistent/report.json"]]
    )
    assert rc_help == 0 and help_text.startswith("usage: jetbm [-h] [--version] {eval,verify,sweep,report} ...")
    assert rc_bogus == 2 and bogus.startswith("usage: jetbm") and "invalid choice: 'bogus'" in bogus
    assert (rc_run, report) == (2, "")
