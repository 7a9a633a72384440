"""Deterministic JSON rendering.

Floats are printed with 17 significant digits so emitted numbers
round-trip to the exact same doubles and repeated runs produce
byte-identical files. Dict keys keep insertion order; callers construct
objects in a fixed order. NaN and infinities are rejected outright.

`dumps` tests the exact types float, int, str, dict, list and tuple
first, then falls back to isinstance checks in the order None, bool,
Integral, Real, str, dict, list/tuple: a numpy scalar renders as its
int() or float() value, a subclass as its base type does. A list or tuple
of exact ints renders through str, and one whose items are lists of one
positive width holding only exact ints (a shell's points) through one %d
row template; the text is the same as item by item.

`Records(fields, columns)` is a list of objects stored by column: row i
renders as {fields[k]: columns[k][i]} in field order. A 1-D float column
gives one float per row and a 2-D integer column of positive width one
list of ints per row; any other column raises TypeError. Each call builds
one %-template for a row from the layout, so the text is byte-identical
to rendering the same rows as a list of dicts of Python ints and floats,
the ValueError for the first non-finite value included.

Both row tables, records and lists of int rows, render with one format
call: the row template is repeated once per row, brackets and separators
included, and filled by a single % from the values flattened row by row,
so no string or tuple is built per row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} in JSON output")
    return format(x, ".17g")


@dataclass(frozen=True)
class Records:
    """A JSON list of objects held as aligned numpy columns (see the module docstring)."""

    fields: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.columns or len(self.fields) != len(self.columns) \
                or len({len(col) for col in self.columns}) != 1:
            raise ValueError("Records needs one column per field, all of one length")

    def render(self, indent: str, step: str, colon: str) -> str:
        if not len(self.columns[0]):
            return "[]"
        inner = indent + step
        at_field = inner + step
        at_item = at_field + step
        parts, values, floats = [], [], []
        for name, col in zip(self.fields, self.columns):
            head = (_quote(name) + colon).replace("%", "%%")
            if col.ndim == 1 and col.dtype.kind == "f":
                parts.append(head + "%.17g")
                values.append(col.tolist())
                floats.append(col)
            elif col.ndim == 2 and col.dtype.kind in "iu" and col.shape[1]:
                items = ("," + at_item).join(["%d"] * col.shape[1])
                parts.append(head + "[" + at_item + items + at_field + "]")
                values += col.T.tolist()
            else:
                raise TypeError(f"cannot render a {col.dtype} column of shape {col.shape} as JSON")
        if floats:
            bad = np.column_stack([~np.isfinite(col) for col in floats])
            if bad.any():  # raise for the first non-finite value in row order
                row, k = np.argwhere(bad)[0]
                format_float(float(floats[k][row]))
        tpl = "{" + at_field + ("," + at_field).join(parts) + inner + "}"
        flat = chain.from_iterable(zip(*values))
        return _render_rows(tpl, len(self.columns[0]), flat, indent, step)


def _render_rows(tpl: str, n: int, flat, indent: str, step: str) -> str:
    """A JSON list of n rows of the %-template tpl, filled from `flat`, row after row."""
    inner = indent + step
    parts = [tpl] * n
    parts[0] = "[" + inner + tpl
    parts[-1] += indent + "]"
    return ("," + inner).join(parts) % tuple(flat)


def _int_row_template(rows: list, indent: str, step: str) -> str | None:
    """One %d template for lists of one positive width holding only exact ints, else None."""
    widths = set(map(len, rows))
    if len(widths) != 1 or not (width := widths.pop()):
        return None
    if set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    inner = indent + step
    return "[" + inner + ("," + inner).join(["%d"] * width) + indent + "]"


def dumps(obj, pretty: bool = True) -> str:
    step = "  " if pretty else ""
    colon = ": " if pretty else ":"

    def key(k) -> str:
        if not isinstance(k, str):
            raise TypeError(f"JSON object keys must be strings, got {k!r}")
        return _quote(k) + colon

    def render(x, indent: str) -> str:
        t = type(x)
        if t is float:  # x - x == 0.0 exactly when x is finite
            return format(x, ".17g") if x - x == 0.0 else format_float(x)
        if t is int:
            return str(x)
        if t is str:
            return _quote(x)
        if t is not dict and t is not list and t is not tuple:
            if x is None:
                return "null"
            if isinstance(x, bool):
                return "true" if x else "false"
            if isinstance(x, numbers.Integral):
                return str(int(x))
            if isinstance(x, numbers.Real):
                return format_float(float(x))
            if isinstance(x, str):
                return _quote(x)
            if t is Records:
                return x.render(indent, step, colon)
            if not isinstance(x, (dict, list, tuple)):
                raise TypeError(f"cannot render {type(x).__name__} as JSON")
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = indent + step
        if isinstance(x, dict):
            items = [key(k) + render(v, inner) for k, v in x.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        types = set(map(type, x))
        if types == {int}:
            items = map(str, x)
        elif types == {list} and (row := _int_row_template(x, inner, step)):
            return _render_rows(row, len(x), chain.from_iterable(x), indent, step)
        else:
            items = [render(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"

    return render(obj, "\n" if pretty else "")
