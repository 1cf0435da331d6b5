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
distinct value, which ``dumps`` and both sweep writers use: a field repeats
its values wherever it does not depend on an axis (Sc under a constant
h_11 does not depend on t).  A table over a grid is a ``GridColumns``,
which knows how each axis column lays its values out, so its axes are not
recovered from their columns: ``column_tokens`` formats each axis value
once and repeats and tiles its text as the mesh does.  ``join_rows``
writes the rows from the per-column token lists, for ``dumps_records``
and the CSV sweep writer alike, joining a block of rows at a time in one
pass over their texts.
"""

import json
import math
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

__all__ = ["GridColumns", "column_reprs", "column_tokens", "dumps", "dumps_records", "float_reprs", "join_rows"]

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
    if len(bits) == len(values):  # all distinct: nothing to spread
        return reprs(values)
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


class _Axis(NamedTuple):
    values: np.ndarray
    repeat: int  # consecutive rows that hold one value
    tile: int  # runs of all the values over the rows
    column: np.ndarray


class GridColumns(dict):
    """The columns of a table over a grid, name -> 1-D float64 array with
    one entry per grid point, in C order of the grid's indices (the last
    axis varies fastest).  It is made with one read-only column per axis,
    in grid order, to which a caller adds the value columns.  ``axes``
    keeps, per axis name, the axis values and how the column lays them out:
    each value ``repeat`` times in a row, the product of the later axes'
    sizes, and that run of values ``tile`` times, the product of the
    earlier ones'.  ``rows`` is the number of grid points."""

    def __init__(self, axes: Iterable[tuple[str, np.ndarray]]):
        super().__init__()
        axes = [(name, np.array(values, dtype=float).reshape(-1)) for name, values in axes]
        sizes = [len(values) for _, values in axes]
        self.rows = math.prod(sizes)
        self.axes = {}
        for j, (name, values) in enumerate(axes):
            repeat, tile = math.prod(sizes[j + 1 :]), math.prod(sizes[:j])
            column = np.tile(np.repeat(values, repeat), tile)
            values.flags.writeable = column.flags.writeable = False
            self[name] = column
            self.axes[name] = _Axis(values, repeat, tile, column)

    def index(self, name: str) -> np.ndarray:
        """Each row's index into the values of axis ``name``."""
        axis = self.axes[name]
        return np.tile(np.repeat(np.arange(len(axis.values)), axis.repeat), axis.tile)


def column_tokens(
    columns: Mapping[str, np.ndarray], reprs: Callable[[np.ndarray], list[str]], seps: list[str]
) -> list[list[str]]:
    """Per column, each entry's text from ``reprs`` followed by the column's
    separator in ``seps``.  A ``GridColumns`` axis column that is still the
    column the grid made is laid out from its axis values' texts, each value
    formatted once; every other column goes through ``column_reprs``, so a
    value column is formatted once per distinct value."""
    axes = getattr(columns, "axes", {})
    tokens = []
    for (name, column), sep in zip(columns.items(), seps):
        axis = axes.get(name)
        if axis is not None and axis.column is column:
            texts = [text + sep for text in reprs(axis.values)]
            tokens.append(list(chain.from_iterable([text] * axis.repeat for text in texts)) * axis.tile)
        else:
            tokens.append(column_reprs(column, lambda v, sep=sep: [text + sep for text in reprs(v)]))
    return tokens


def join_rows(head: str, tokens: list[list[str]], sep: str, end: str) -> str:
    """``head``, then one row per index of equal-length token lists (from
    ``column_tokens``): its token of each list in order, except that the
    last row's last token ends in ``end`` in place of its separator
    ``sep``.  Each block of ``_JOIN_ROWS`` rows is one ``"".join`` over the
    lists' tokens interleaved, so one block's token list is alive at a
    time."""
    k, n = len(tokens), len(tokens[0])
    parts = [head]
    for lo in range(0, n, _JOIN_ROWS):
        block = [""] * (k * min(_JOIN_ROWS, n - lo))
        for j, column in enumerate(tokens):
            block[j::k] = column[lo : lo + _JOIN_ROWS]
        if lo + _JOIN_ROWS >= n:
            block[-1] = block[-1].removesuffix(sep) + end
        parts.append("".join(block))
    return "".join(parts)


def dumps_records(columns: Mapping[str, np.ndarray]) -> str:
    """The text of ``json.dumps(rows, indent=2)`` for the rows of equal-length
    float64 columns, each row one object with the columns' names in order;
    a ``GridColumns`` table has its axes laid out (``column_tokens``)."""
    if not len(next(iter(columns.values()))):
        return "[]"
    keys = ["\n" + " " * (2 * INDENT) + _key(name) + ": " for name in columns]
    row = "\n" + " " * INDENT  # the line break before a row's braces
    seps = ["," + key for key in keys[1:]] + [row + "}," + row + "{" + keys[0]]
    tokens = column_tokens(columns, float_reprs, seps)
    return join_rows("[" + row + "{" + keys[0], tokens, seps[-1], row + "}\n]")
