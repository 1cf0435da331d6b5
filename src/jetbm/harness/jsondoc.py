"""The JSON writer of the CLI documents: exactly the text of
``json.dumps(obj, indent=2)``, built straight from float64 arrays.

With an indent set, ``json.dumps`` runs its pure-Python encoder, which
visits every float of every table one call at a time.  ``dumps`` writes a
float64 ``ndarray`` as ``json.dumps`` writes its ``tolist()``: the reprs of
its entries, interleaved with the separators of its shape at its nesting
depth, which are made once per (shape, depth).  It walks the document once,
collecting its float64 arrays in the order it writes them, and formats all
their entries in one ``column_reprs`` call, so each distinct value of the
whole document is formatted once: an eval document's tables repeat most of
their entries through their index symmetries and the zeros that kappa = 0
gives (≈330 distinct of 1 448 at a seeded point of the default config,
≈810 under the exponential h_11).  Dicts (with str keys), lists and tuples
recurse, and a leaf is written by ``json``'s own rule for it: a float as
its repr (or ``NaN``, ``Infinity`` and ``-Infinity``), an int as its repr,
a str through ``json``'s ASCII string encoder, None, True and False as
``null``, ``true`` and ``false``, and an array of another dtype as its
``tolist()``.  Anything else goes to ``json.dumps``, which raises TypeError
for what JSON cannot hold.

``dumps_records`` writes a table held as columns as the list of one
{name: value} object per row.  ``column_reprs`` formats a column once per
distinct value, which ``dumps`` and both sweep writers use: a grid axis
repeats few values, and a field repeats its values wherever it does not
depend on an axis (Sc under a constant h_11 does not depend on t).
``join_rows`` writes the rows of a table held as columns, for
``dumps_records`` and the CSV sweep writer alike: it formats each column
once, each distinct value with its separator, and joins a block of rows
at a time in one pass over their texts.
"""

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable

import numpy as np

__all__ = ["column_reprs", "dumps", "dumps_records", "float_reprs", "join_rows"]

INDENT = 2
_JOIN_ROWS = 4096  # rows per block of join_rows


def _float(v: float) -> str:
    if v != v:
        return "NaN"
    if v == np.inf:
        return "Infinity"
    if v == -np.inf:
        return "-Infinity"
    return float.__repr__(v)


def float_reprs(values: np.ndarray) -> list[str]:
    """The JSON text of every entry of a float64 array, in C order."""
    flat = values.ravel().tolist()
    return list(map(float.__repr__ if np.isfinite(values).all() else _float, flat))


def column_reprs(values: np.ndarray, reprs: Callable[[np.ndarray], list[str]]) -> list[str]:
    """``reprs`` of a 1-D float64 array, called on its distinct entries only
    and spread back over the column.  Entries are told apart by their bits,
    since -0.0 == 0.0 but their texts differ."""
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(reprs(bits.view(np.float64)), dtype=object)[where].tolist()


# stands for one entry of a float64 array in the text ``_encode`` returns;
# no JSON text holds a raw NUL, since every encoder here escapes control
# characters
_HOLE = "\x00"


@lru_cache(maxsize=128)
def _template(shape: tuple[int, ...], depth: int) -> str:
    """The text of a zero array of this shape at this nesting depth, with a
    hole in place of each entry."""
    text = json.dumps(np.zeros(shape).tolist(), indent=INDENT)
    return text.replace("\n", "\n" + " " * (INDENT * depth)).replace("0.0", _HOLE)


def _array(arr: np.ndarray, depth: int, floats: list[np.ndarray]) -> str:
    if arr.dtype != np.float64:
        return _encode(arr.tolist(), depth, floats)
    floats.append(arr.ravel())
    return _template(arr.shape, depth)


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _container(open_: str, items: list[str], close: str, depth: int) -> str:
    if not items:
        return open_ + close
    inner = "\n" + " " * (INDENT * (depth + 1))
    return open_ + inner + ("," + inner).join(items) + "\n" + " " * (INDENT * depth) + close


def _encode(obj, depth: int, floats: list[np.ndarray]) -> str:
    """The text of ``obj`` with a hole for each entry of its float64 arrays,
    which are appended to ``floats`` in the order of their holes."""
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, np.ndarray):
        return _array(obj, depth, floats)
    if isinstance(obj, dict):
        items = [_key(key) + ": " + _encode(value, depth + 1, floats) for key, value in obj.items()]
        return _container("{", items, "}", depth)
    if isinstance(obj, (list, tuple)):
        return _container("[", [_encode(value, depth + 1, floats) for value in obj], "]", depth)
    return json.dumps(obj)


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, with each ndarray written
    as its ``tolist()``.  The entries of all its float64 arrays are formatted
    together, each distinct bit pattern once."""
    floats: list[np.ndarray] = []
    pieces = _encode(obj, 0, floats).split(_HOLE)
    if len(pieces) == 1:
        return pieces[0]
    parts = [""] * (2 * len(pieces) - 1)
    parts[0::2] = pieces
    parts[1::2] = column_reprs(np.concatenate(floats), float_reprs)
    return "".join(parts)


def join_rows(
    head: str, columns: Iterable[np.ndarray], reprs: Callable[[np.ndarray], list[str]], seps: list[str], end: str
) -> str:
    """``head``, then one row per index of equal-length 1-D float64
    columns: each entry's text from ``reprs`` followed by its column's
    separator in ``seps``, except the last entry of the last row, which is
    followed by ``end``.

    Each column goes through ``column_reprs`` once, with its separator
    appended to the text of each distinct value, so a row is one token per
    column.  Each block of ``_JOIN_ROWS`` rows is one ``"".join`` over the
    columns' tokens interleaved, so one block's token list is alive at a
    time."""
    texts = [column_reprs(col, lambda v, sep=sep: [r + sep for r in reprs(v)]) for col, sep in zip(columns, seps)]
    k, n = len(texts), len(texts[0])
    parts = [head]
    for lo in range(0, n, _JOIN_ROWS):
        tokens = [""] * (k * min(_JOIN_ROWS, n - lo))
        for j, text in enumerate(texts):
            tokens[j::k] = text[lo : lo + _JOIN_ROWS]
        if lo + _JOIN_ROWS >= n:
            tokens[-1] = tokens[-1].removesuffix(seps[-1]) + end
        parts.append("".join(tokens))
    return "".join(parts)


def dumps_records(columns: dict[str, np.ndarray]) -> str:
    """The text of ``json.dumps(rows, indent=2)`` for the rows of equal-length
    float64 columns, each row one object with the columns' names in order."""
    if not len(next(iter(columns.values()))):
        return "[]"
    keys = ["\n" + " " * (2 * INDENT) + _key(name) + ": " for name in columns]
    row = "\n" + " " * INDENT  # the line break before a row's braces
    seps = ["," + key for key in keys[1:]] + [row + "}," + row + "{" + keys[0]]
    return join_rows("[" + row + "{" + keys[0], columns.values(), float_reprs, seps, row + "}\n]")
