"""The closed-form module: it shares no code with the pipeline it checks, and
README's table of the paper's field layer against the honest contraction
reads its values."""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from jetbm import TimeMetric, closed

_ROOT = Path(__file__).resolve().parents[1]


def test_closed_imports_only_errors_and_jetcore():
    """jetbm.closed is the oracle of the generic pipeline, so of jetbm it
    imports only errors and jetcore, besides numpy and the standard library."""
    tree = ast.parse((_ROOT / "src" / "jetbm" / "closed.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module in ("errors", "jetcore"), ast.unparse(node)
            continue
        else:
            continue
        for root in roots:
            assert root == "numpy" or root in sys.stdlib_module_names, ast.unparse(node)


def _readme_rows() -> dict[str, tuple[str, str]]:
    """The rows of README's "Expected failure" table: quantity -> (the
    contraction's cell, the field layer's cell)."""
    text = (_ROOT / "README.md").read_text()
    section = text.split("### Expected failure", 1)[1].split("\n#", 1)[0]
    lines = [line.strip().strip("|") for line in section.splitlines() if line.startswith("|")]
    header, _rule, *body = ([cell.strip() for cell in line.split("|")] for line in lines)
    assert header[1:] == ["contraction of S", "field-theory layer"], header
    return {quantity: (contraction, field) for quantity, contraction, field in body}


def _cell(text: str, delta: float = 0.0) -> float:
    """A cell's value at y = (1, 1, 1, 1), h_11 = 1 and kappa = 0, where
    sqrt(G) = y_i = 1, with delta for the Kronecker delta."""
    text = re.sub(r"\s*\(agrees\)$", "", text)
    for symbol, value in (("−", "-"), ("yᵢ²", "1"), ("yᵢ", "1"), ("yⱼ", "1"), ("√G", "1"), ("h₁₁", "1")):
        text = text.replace(symbol, value)
    text = text.replace("δ", f"*{delta!r}")
    text = re.sub(r"(?<=[\d)])\s+(?=[\d(])", "*", text)  # juxtaposition is a product
    assert re.fullmatch(r"[\d.*/()+\- ]+", text), text
    return eval(text, {"__builtins__": {}})


def test_the_readme_table_reads_the_closed_module():
    """Each row of README's table, both cells, against jetbm.closed at
    y = (1, 1, 1, 1), h_11 = 1 and kappa = 0."""
    rows = _readme_rows()
    ones = np.ones((1, 4))
    tables = (closed.bm_s_ricci_contracted(ones)[0], closed.bm_s_ricci_field(ones)[0])
    g_up = closed.bm_metric_closed(ones).g_up[0]
    raised = [np.einsum("mr,ri->mi", g_up, t) for t in tables]
    np.testing.assert_array_equal(raised[0], closed.CONTRACTED_COEF)
    np.testing.assert_array_equal(raised[1], closed.bm_s_raised_field(ones)[0])
    d_table = closed.raised_table_grad(ones)
    div = [closed.raised_divergence(d_table, c)[0] for c in (closed.CONTRACTED_COEF, closed.FIELD_COEF)]
    np.testing.assert_array_equal(div[1], closed.field_divergence(ones)[0])
    sc = (
        closed.scalar_curvature_contracted(np.ones(1), np.zeros(1), ones)[0],
        closed.scalar_curvature_field(TimeMetric.constant(1.0), 0.0, ones[0]),
    )
    expected = {
        "Ricci diagonal": [(t[0, 0], 0.0) for t in tables],
        "Ricci off-diagonal": [(t[0, 1], 0.0) for t in tables],
        "raised coefficients": [(r[0, 0], 1.0) for r in raised] + [(r[0, 1], 0.0) for r in raised],
        "divergence identity": [(d[0], 0.0) for d in div],
        "scalar curvature (κ=0)": [(s, 0.0) for s in sc],
    }
    assert set(rows) == set(expected)
    for quantity, values in expected.items():
        cells = rows[quantity] * (len(values) // 2)
        for cell, (value, delta) in zip(cells, values):
            assert _cell(cell, delta) == pytest.approx(value, rel=1e-15, abs=1e-15), (quantity, cell)
