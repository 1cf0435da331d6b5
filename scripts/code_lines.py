"""Count the code lines of the jetbm package.

    python scripts/code_lines.py [SRC]
    python scripts/code_lines.py OLD_SRC NEW_SRC

SRC is a directory that holds the ``jetbm`` package (a checkout's ``src``,
the default).  The script prints the code-line count of each module under
SRC and their total.  Given two such directories, it prints each module's
count in OLD_SRC, in NEW_SRC and the difference (a module that one tree
lacks counts 0 there), then the totals: a change's net code lines in one
command.  A code line is a line that is not blank, not a comment alone, and
not inside a module, class or function docstring (the docstrings are found
through ``ast``).  This is the count that CHANGES.md and ROADMAP.md quote.
"""

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that a module, class or function docstring spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if text and not text.startswith("#") and number not in docstrings:
            count += 1
    return count


def module_counts(src: Path) -> dict[str, int]:
    """The code-line count of each module under ``src``, by its path
    relative to ``src``."""
    return {str(path.relative_to(src)): code_lines(path.read_text()) for path in sorted(src.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        old, new = (module_counts(Path(src)) for src in argv)
        rows = [(name, old.get(name, 0), new.get(name, 0)) for name in sorted(old.keys() | new.keys())]
        for name, a, b in rows + [("total", sum(old.values()), sum(new.values()))]:
            print(f"{a:6d} {b:6d} {b - a:+6d}  {name}")
        return 0
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src")
    counts = module_counts(src)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
