"""scripts/compare_outputs.py, the byte-identity gate for the CLI documents:
its line splitter and its one-paragraph difference summary."""

import importlib.util
from pathlib import Path

import pytest

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
    assert summary == "1 numbers changed, largest relative change 0.2"


@pytest.mark.parametrize("sign", ["-", "+"])
def test_a_line_only_one_side_has_is_listed(sign):
    shorter = REPORT.replace('  "samples": 500\n', "")
    old, new = (REPORT, shorter) if sign == "-" else (shorter, REPORT)
    summary = compare_outputs.compare(old, new)
    assert summary.splitlines() == ["0 numbers changed, largest relative change 0", f'    {sign} "samples": 500']
