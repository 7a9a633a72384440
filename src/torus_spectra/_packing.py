"""Radix packing of small integer vectors into int64 sort keys.

Row (c_0, ..., c_{d-1}) with every |c_i| <= bias maps to
sum_i (c_i + bias) * radix^(d-1-i), radix = 2*bias + 1. The map is
injective and order-preserving (numeric key order == lexicographic row
order), and every key lies in the box [0, radix^d), so a key is its own
address in a table of radix^d cells. It is also affine: for rows x, y
whose difference stays within the bias, key(x - y) = key(x) - key(y) +
key(0), with key(0) = (radix^d - 1)/2 the centre of the box.

`spectra` therefore packs a support once and forms the keys of all s^2
difference vectors with one outer subtraction, never the difference
rows. It deduplicates them by direct address when a bool mark and an
int64 rank per cell fit TABLE_BYTES: the marked cells, in address order,
are the sorted distinct keys, and each key reads its rank back from the
table. Larger boxes sort the keys instead. `lemma` tests shell membership
through one bool per cell under the same budget, and sizes its group
table by it. `pack_spec` is the one place that decides whether a key fits
in int64, and refuses a box that does not with ResourceLimitError.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError

# Byte budget of one table: lemma's membership table (1 byte per cell of the
# packing box; shell(5,14) takes 2.5 MB) and B_n table (B_5 on shell(5,5): 1.7 MB),
# and the pair index's mark and rank (9 bytes per cell; shell(6,6) takes 4.8 MB).
TABLE_BYTES = 1 << 24


def pack_spec(dim: int, max_abs: int) -> tuple[int, int]:
    radix = 2 * max_abs + 1
    if radix**dim >= 2**62:
        raise ResourceLimitError(f"radix-{radix} keys in dimension {dim} do not fit in int64")
    return max_abs, radix


def pack_rows(rows: np.ndarray, bias: int, radix: int) -> np.ndarray:
    """Keys for rows known to satisfy |c| <= bias componentwise.

    Built in place, with the bias of every coordinate folded into one final
    add, so the output is the only row-count-long allocation.
    """
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    offset = 0
    for d in range(rows.shape[1]):
        keys *= radix
        keys += rows[:, d]
        offset = offset * radix + bias
    keys += offset
    return keys


def unpack_keys(keys: np.ndarray, dim: int, bias: int, radix: int) -> np.ndarray:
    rows = np.empty((len(keys), dim), dtype=np.int64)
    k = keys.copy()
    for d in range(dim - 1, -1, -1):
        rows[:, d] = k % radix - bias
        k //= radix
    return rows
