"""Deterministic JSON rendering.

Floats are printed with 17 significant digits so emitted numbers
round-trip to the exact same doubles and repeated runs produce
byte-identical files. Dict keys keep insertion order; callers construct
objects in a fixed order. NaN and infinities are rejected outright.

`dumps` tests the exact types float, int, str, dict, list and tuple
first, then falls back to isinstance checks in the order None, bool,
Integral, Real, str, dict, list/tuple: a numpy scalar renders as its
int() or float() value, a subclass as its base type does.
"""

from __future__ import annotations

import math
import numbers
from json.encoder import encode_basestring_ascii as _quote


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} in JSON output")
    return format(x, ".17g")


def dumps(obj, pretty: bool = True) -> str:
    step = "  " if pretty else ""
    colon = ": " if pretty else ":"
    keys: dict[str, str] = {}  # key -> its quoted form and colon

    def key(k) -> str:
        if not isinstance(k, str):
            raise TypeError(f"JSON object keys must be strings, got {k!r}")
        keys[k] = rendered = _quote(k) + colon
        return rendered

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
            if not isinstance(x, (dict, list, tuple)):
                raise TypeError(f"cannot render {type(x).__name__} as JSON")
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = indent + step
        if isinstance(x, dict):
            items = [(keys.get(k) or key(k)) + render(v, inner) for k, v in x.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        items = map(str, x) if set(map(type, x)) == {int} else [render(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"

    return render(obj, "\n" if pretty else "")
