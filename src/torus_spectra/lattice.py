"""Exact enumeration of integer points on spheres.

A shell is the set {xi in Z^n : |xi|^2 = lambda} for an exact integer
lambda, stored in lexicographic order together with a hash index for O(1)
membership queries. All arithmetic in this module is exact integer
arithmetic; there is no floating point anywhere. Shells are the frequency
supports of Laplacian eigenfunctions on the flat torus R^n/Z^n, and every
other module builds on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .errors import ContractError, PointLimitError, RangeError

Point = tuple[int, ...]

MIN_DIM = 2
MAX_DIM = 16
# Difference vectors xi - eta then satisfy |xi - eta|^2 <= 4*lambda <= 2^42,
# comfortably inside signed 64-bit range for downstream array code.
MAX_LAMBDA = 2**40
# Points one enumeration may hold: 2^20 tuples take about 200 MB. The largest
# shell in the tests and benchmarks has 9,328 points; shell(16,16) has 509 million.
MAX_POINTS = 2**20


def squared_norm(p: Point) -> int:
    return sum(c * c for c in p)


def negate(p: Point) -> Point:
    return tuple(-c for c in p)


def sign_canonical(p: Point) -> Point:
    """Representative of the pair {p, -p} whose first nonzero coordinate is positive."""
    for c in p:
        if c > 0:
            return p
        if c < 0:
            return negate(p)
    return p


@dataclass(frozen=True)
class SphereShell:
    """All lattice points with squared norm `lam` in dimension `dim`.

    `points` is lexicographically sorted and closed under negation;
    `index` answers membership exactly like a linear scan of `points`.
    """

    dim: int
    lam: int
    points: tuple[Point, ...]
    index: frozenset[Point] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self.index


def enumerate_shell(dim: int, lam: int) -> SphereShell:
    """Enumerate the full shell of squared radius `lam` in Z^dim.

    Recursive descent over coordinates with remaining-budget pruning:
    coordinate i ranges over the integers whose square does not exceed the
    budget left after coordinates 0..i-1, and the final coordinate is
    solved exactly. The traversal order yields points already sorted
    lexicographically. An empty shell is a legal result (many values of
    lam are not sums of dim squares).

    Raises RangeError unless 2 <= dim <= 16 and 0 <= lam <= 2**40, and
    PointLimitError as soon as more than MAX_POINTS points are found.
    """
    return _enumerate(dim, lam, MAX_POINTS)


def _enumerate(dim: int, lam: int, limit: int) -> SphereShell:
    """`enumerate_shell`, stopping with PointLimitError once more than `limit` points are found."""
    if not MIN_DIM <= dim <= MAX_DIM:
        raise RangeError(f"dim must be in [{MIN_DIM}, {MAX_DIM}], got {dim}")
    if not 0 <= lam <= MAX_LAMBDA:
        raise RangeError(f"lambda must be in [0, 2**40], got {lam}")

    points: list[Point] = []
    coords = [0] * dim

    def descend(i: int, remaining: int) -> None:
        if i == dim - 1:
            r = isqrt(remaining)
            if r * r == remaining:
                if r == 0:
                    coords[i] = 0
                    points.append(tuple(coords))
                else:
                    coords[i] = -r
                    points.append(tuple(coords))
                    coords[i] = r
                    points.append(tuple(coords))
                if len(points) > limit:
                    points.clear()  # descend's closure is a cycle: free the points now
                    raise PointLimitError(
                        f"shell({dim}, {lam}) has more than {limit} points, "
                        "above the enumeration guard"
                    )
            return
        r = isqrt(remaining)
        for v in range(-r, r + 1):
            coords[i] = v
            descend(i + 1, remaining - v * v)

    descend(0, lam)
    pts = tuple(points)
    return SphereShell(dim=dim, lam=lam, points=pts, index=frozenset(pts))


def require_whole(shell: SphereShell, advice: str) -> None:
    """Refuse `shell` with a ContractError, naming both counts, unless it is all of shell(dim, lam).

    The enumeration stops as soon as it finds more points than `shell`
    holds, so a hand-built subset is refused without enumerating the whole
    shell, and the message then counts "more than len(shell)". A given shell
    longer than MAX_POINTS meets the enumeration guard (PointLimitError).
    """
    try:
        whole = _enumerate(shell.dim, shell.lam, min(len(shell), MAX_POINTS))
    except PointLimitError:
        if len(shell) > MAX_POINTS:
            raise
        whole = None
    if whole is None or shell.points != whole.points:
        count = f"more than {len(shell)}" if whole is None else len(whole.points)
        raise ContractError(
            f"the {len(shell)} given points differ from the {count} points of "
            f"shell({shell.dim}, {shell.lam}); {advice}"
        )


def contains(shell: SphereShell, p: Point) -> bool:
    """Membership query; raises ContractError on dimension mismatch."""
    if len(p) != shell.dim:
        raise ContractError(
            f"point of dimension {len(p)} queried against shell of dimension {shell.dim}"
        )
    return p in shell.index


def shell_to_json(shell: SphereShell) -> dict:
    """JSON-ready dict: {"dim", "lambda", "count", "points"} in canonical order."""
    return {
        "dim": shell.dim,
        "lambda": shell.lam,
        "count": len(shell.points),
        "points": [list(p) for p in shell.points],
    }
