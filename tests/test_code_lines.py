"""scripts/code_lines.py, the code-line count that the change log quotes."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''def f(x):
    """A docstring
    over two lines."""
    # a comment alone

    return x  # a comment after code
'''


def test_only_code_lines_count():
    """A docstring, a comment-only line and a blank line do not count; the
    def and the return do."""
    assert code_lines.code_lines(SOURCE) == 2


def test_two_trees_print_each_module_and_the_total_delta(tmp_path, capsys):
    """Given OLD_SRC and NEW_SRC, each module's count in both trees and its
    difference, a module one tree lacks counting 0 there, then the totals."""
    old, new = tmp_path / "old", tmp_path / "new"
    for src in (old, new):
        (src / "jetbm").mkdir(parents=True)
    (old / "jetbm" / "a.py").write_text(SOURCE)
    (new / "jetbm" / "a.py").write_text(SOURCE + "y = 1\nz = 2\n")
    (old / "jetbm" / "gone.py").write_text("x = 1\n")
    (new / "jetbm" / "added.py").write_text("# only a comment\nw = 3\n")
    assert code_lines.main([str(old), str(new)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["2", "4", "+2", "jetbm/a.py"],
        ["0", "1", "+1", "jetbm/added.py"],
        ["1", "0", "-1", "jetbm/gone.py"],
        ["3", "5", "+2", "total"],
    ]


def test_one_tree_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "jetbm").mkdir()
    (tmp_path / "jetbm" / "a.py").write_text(SOURCE)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["2", "jetbm/a.py", "2", "total"]
