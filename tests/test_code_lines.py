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
