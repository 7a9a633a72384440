"""Translate-budget verification for lattice simplices on sphere shells.

Fix m >= n lattice points {v_i} on a shell in Z^n, pairwise distinct, no
two antipodal, affinely spanning a hyperplane (a codimension-one simplex
when m = n). A nonzero vector tau is an admissible translate when every
vertex moves onto the shell under tau with some per-vertex sign:

    for all i:  v_i - tau  or  v_i + tau  lies on the shell,

with tau and -tau identified (canonical representative: first nonzero
coordinate positive). The conjectured budget for the number of admissible
classes, not counting chords +-(v_i - v_j) of the simplex itself, is
2^(n-1), independent of the eigenvalue. This module verifies it by
exhaustive or sampled search over vertex subsets and preserves any
counterexample verbatim.

Candidate generation is anchored at one vertex: an admissible tau must
move the anchor onto the shell, so {+-(v_1 - eta) : eta in shell} already
contains every admissible class. All arithmetic is exact; affine rank is
decided by fraction-free integer elimination, never by a floating-point
tolerance.

Both sweeps share one table per shell: the points packed into sorted int64
keys, whose only use is a binary-search membership test. The anchor's
candidate classes need no deduplication, because distinct shell points q
give distinct classes +-(v_1 - q): q + q' = 2 v_1 forces q = q' = v_1 on a
sphere. A sweep over a shell whose keys do not fit in int64 is refused
with ResourceLimitError. Single simplices (`find_translates`) and the
re-derivation of every violation use the reference path instead: plain
set membership, independent of the keys.

Every subset is classified antipodal first, then degenerate (affine rank
below n - 1), then checked, so each tally depends on the subset alone.
The signed permutations B_n map the shell onto itself and preserve all of
these, so the exhaustive sweep is anchored at one representative r per
vertex orbit (the points sharing a multiset of |coordinates|): over the
m-subsets S of the shell,

    sum_S f(S) = (1/m) sum_r |orbit(r)| sum_{S containing r} f(S).

Violations found at r are mapped back to the whole orbit by one signed
permutation per orbit point (a coset representative of r's stabilizer)
and re-derived through the reference membership path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt

import numpy as np

from ._packing import pack_rows, pack_spec
from ._parallel import run_chunks
from .errors import (
    AntipodalError,
    ContractError,
    DegenerateSimplexError,
    MembershipError,
    ResourceLimitError,
)
from .lattice import Point, SphereShell, enumerate_shell, negate, sign_canonical

EXHAUSTIVE_GUARD = 10**7
SAMPLE_ATTEMPT_FACTOR = 50


@dataclass(frozen=True)
class Simplex:
    """Validated vertex tuple on a shell; construct via validate_simplex."""

    shell: SphereShell
    vertices: tuple[Point, ...]


@dataclass(frozen=True)
class TranslateReport:
    """Admissible translate classes of one simplex versus the 2^(n-1) budget.

    `translates` holds one sign-canonical representative per class in
    lexicographic order; `edge_translates` is the sub-list matching some
    +-(v_i - v_j). The violation predicate counts only non-edge classes.
    """

    simplex: Simplex
    translates: tuple[Point, ...]
    edge_translates: tuple[Point, ...]
    budget: int
    violated: bool

    @property
    def non_edge_count(self) -> int:
        return len(self.translates) - len(self.edge_translates)


@dataclass(frozen=True)
class LemmaSweepReport:
    dim: int
    lam: int
    mode: str
    extra_points: int
    budget: int
    simplices_checked: int
    skipped_degenerate: int
    skipped_antipodal: int
    max_nonedge_count: int
    histogram: dict[int, int]
    violations: tuple[TranslateReport, ...]
    sample_count: int | None = None
    seed: int | None = None
    attempts: int = 0


def _diff(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def _add(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def affine_rank(vertices: tuple[Point, ...]) -> int:
    """Rank of {v_i - v_0}, by exact integer elimination with cross-multiplied rows."""
    rows = [list(_diff(v, vertices[0])) for v in vertices[1:]]
    ncols = len(vertices[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                a, b = prow[col], rows[r][col]
                rows[r] = [a * x - b * y for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


def validate_simplex(shell: SphereShell, vertices: list[Point] | tuple[Point, ...]) -> Simplex:
    """Check the simplex hypotheses exactly; raises on any failure.

    Requires exactly dim vertices, all on the shell, pairwise distinct, no
    antipodal pair, and affine rank dim - 1.
    """
    verts = tuple(tuple(v) for v in vertices)
    if len(verts) != shell.dim:
        raise ContractError(f"expected {shell.dim} vertices, got {len(verts)}")
    for v in verts:
        if v not in shell.index:
            raise MembershipError(f"vertex {v} is not on shell({shell.dim}, {shell.lam})")
    for a, b in combinations(verts, 2):
        if a == b:
            raise DegenerateSimplexError(f"duplicate vertex {a}")
        if negate(a) == b:
            raise AntipodalError(f"vertices {a} and {b} are diametrically opposite")
    rank = affine_rank(verts)
    if rank < shell.dim - 1:
        raise DegenerateSimplexError(
            f"affine rank {rank} < {shell.dim - 1}: vertices lie in a smaller subspace"
        )
    return Simplex(shell=shell, vertices=verts)


def _translate_sets(
    shell: SphereShell, verts: tuple[Point, ...]
) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """Reference path: admissible translate classes of a vertex tuple.

    Scans the anchored candidate set with plain membership queries; used
    for single simplices and to re-derive sweep findings independently of
    the packed-key fast path.
    """
    anchor = verts[0]
    candidates = sorted({sign_canonical(_diff(anchor, q)) for q in shell.points if q != anchor})
    translates = []
    for t in candidates:
        if all(_diff(v, t) in shell.index or _add(v, t) in shell.index for v in verts):
            translates.append(t)
    edges = {sign_canonical(_diff(a, b)) for a, b in combinations(verts, 2)}
    edge_translates = tuple(t for t in translates if t in edges)
    return tuple(translates), edge_translates


def find_translates(simplex: Simplex) -> TranslateReport:
    """All admissible translate classes of a validated simplex.

    Deterministic: output is sorted lexicographically on the canonical
    representatives.
    """
    translates, edge_translates = _translate_sets(simplex.shell, simplex.vertices)
    budget = 2 ** (simplex.shell.dim - 1)
    return TranslateReport(
        simplex=simplex,
        translates=translates,
        edge_translates=edge_translates,
        budget=budget,
        violated=len(translates) - len(edge_translates) > budget,
    )


# ---------------------------------------------------------------------------
# Exhaustive sweeps, anchored at vertex-orbit representatives. A signed
# permutation g (a permutation of the coordinates with a sign on each)
# maps the shell onto itself and preserves antipodal pairs, affine rank,
# admissible translate classes and edge classes, so every tally f
# (checked, either skip, each histogram bin) satisfies f(gS) = f(S) and
#
#     sum_S f(S) = (1/m) sum_r |orbit(r)| sum_{S containing r} f(S),
#
# since each m-subset is counted once per vertex and every vertex of an
# orbit sees the same subsets up to g. Shell(4,12) has two vertex orbits,
# (3,1,1,1) with 64 points and (2,2,2,0) with 32, so 276,830 anchored
# subsets stand for C(96,4) = 3,321,960. For each representative r, the
# other points are enumerated as index chains in canonical order. Its N - 1
# candidate classes, one per other point q, each get a bitmask of the
# points they move onto the shell, from two packed-key lookups over all
# (q, p). The recursion carries the surviving candidate classes of the
# prefix (a tau admissible for the subset must be admissible for every
# prefix), the echelon basis of difference rows to r for exact rank
# pruning, and a bitmask of forbidden (antipodal) partners. A cut branch
# is tallied in closed form, antipodal first: a rank-deficient prefix
# splits its completions into those holding an antipodal pair and the
# degenerate rest.
#
# A violation is any subset gS with S a violation at r, and violations at
# r are closed under the stabilizer of r; so one g_v per orbit point v,
# with g_v(r) = v, maps the violations at r onto all violations touching
# the orbit. B_n itself (2^n n! elements) is never built.


class _Tables:
    """Packed int64 keys of one shell: the one membership test of both sweeps.

    With bias = 3*isqrt(lam), the key of a row x with |x_k| <= bias is
    K0 + L(x), L linear and positive exactly on the rows whose first nonzero
    coordinate is positive. For shell points v, r, q every query row
    v +- (r - q) stays within the bias, and its key is key(v) +- c with the
    chord key c = key(r) - key(q) = L(r - q); |c| identifies the class
    +-(r - q), so chords and edges compare as plain integers. Shells whose
    keys do not fit in int64 are refused.
    """

    def __init__(self, shell: SphereShell):
        spec = pack_spec(shell.dim, 3 * isqrt(shell.lam))
        if spec is None:
            raise ResourceLimitError(
                f"shell({shell.dim}, {shell.lam}) coordinates do not pack into int64 keys"
            )
        self.dim = shell.dim
        self.pts = shell.points
        self.n = len(self.pts)
        self.index = {p: i for i, p in enumerate(self.pts)}
        self.neg = [self.index[negate(p)] for p in self.pts]
        arr = np.array(self.pts, dtype=np.int64).reshape(self.n, shell.dim)
        self.keys = pack_rows(arr, *spec)  # ascending: points are in lexicographic order
        self.key_list = self.keys.tolist()

    def chords(self, r: int) -> np.ndarray:
        """Chord keys key(r) - key(q) over the other points q, in point order."""
        return np.delete(self.keys[r] - self.keys, r)

    def on_shell(self, keys: np.ndarray) -> np.ndarray:
        """Elementwise shell membership of keys packed from rows within the bias."""
        pos = np.searchsorted(self.keys, keys)
        pos[pos == self.n] = 0
        return self.keys[pos] == keys


@lru_cache(maxsize=4)
def _tables(dim: int, lam: int) -> _Tables:
    return _Tables(enumerate_shell(dim, lam))


@lru_cache(maxsize=1)
def _anchor_masks(dim: int, lam: int, anchor: int) -> dict[int, int]:
    """{|chord key|: bitmask of the points p it moves onto the shell} for one anchor.

    Two lookups p -+ (anchor - q) over all (q, p); the anchor's N - 1
    chords are distinct classes, since q + q' = 2 anchor forces q = q' =
    anchor on a sphere, so no deduplication is needed.
    """
    tb = _tables(dim, lam)
    c = tb.chords(anchor)[:, None]
    hit = tb.on_shell(tb.keys - c) | tb.on_shell(tb.keys + c)
    rows = np.packbits(hit, axis=1, bitorder="little")
    return {
        t: int.from_bytes(row.tobytes(), "little") for t, row in zip(np.abs(c[:, 0]).tolist(), rows)
    }


def _reduce_row(row: list[int], rows: list[tuple[int, list[int]]]):
    """Reduce against echelon rows; returns (pivot_col, row) or None if dependent."""
    for pivcol, prow in rows:
        if row[pivcol]:
            a, b = prow[pivcol], row[pivcol]
            row = [a * x - b * y for x, y in zip(row, prow)]
    for c, v in enumerate(row):
        if v:
            g = 0
            for x in row:
                g = math.gcd(g, x)
            if g > 1:
                row = [x // g for x in row]
            return (c, row)
    return None


def _antipodal_free(pool: list[int], neg: list[int], k: int) -> int:
    """Number of k-subsets of the point indices `pool` holding no antipodal pair."""
    members = set(pool)
    pairs = sum(1 for i in pool if neg[i] in members) // 2
    single = len(pool) - 2 * pairs
    return sum(comb(pairs, i) * 2**i * comb(single, k - i) for i in range(min(pairs, k) + 1))


def _exhaustive_chunk(dim: int, lam: int, m: int, anchor: int, lo: int, hi: int) -> dict:
    """Sweep the m-subsets holding `anchor` whose next vertex is others[lo:hi].

    `others` is the canonical point order without the anchor. Tallies are
    unweighted; violations are sorted index tuples containing the anchor.
    """
    tb = _tables(dim, lam)
    pts, neg, keys = tb.pts, tb.neg, tb.key_list
    adm = _anchor_masks(dim, lam, anchor)
    others = [j for j in range(tb.n) if j != anchor]
    need_rank = dim - 1
    checked = 0
    sk_anti = 0
    sk_degen = 0
    max_ne = 0
    hist: dict[int, int] = {}
    violations: list[tuple[int, ...]] = []
    edge_count: dict[int, int] = {}
    chosen: list[int] = [anchor]
    origin = pts[anchor]

    def recurse(k: int, start: int, stop: int, candids, rows, forb: int) -> None:
        nonlocal checked, sk_anti, sk_degen, max_ne
        remaining = m - k - 1
        for pos in range(start, stop):
            j = others[pos]
            later = len(others) - 1 - pos
            if (forb >> j) & 1:
                sk_anti += comb(later, remaining)
                continue
            red = _reduce_row([a - b for a, b in zip(pts[j], origin)], rows)
            nrank = len(rows) + (0 if red is None else 1)
            nforb = forb | (1 << neg[j])
            if nrank + remaining < need_rank:
                pool = [i for i in others[pos + 1:] if not (nforb >> i) & 1]
                free = _antipodal_free(pool, neg, remaining)
                sk_degen += free
                sk_anti += comb(later, remaining) - free
                continue
            nrows = rows if red is None else rows + [red]
            ncand = [t for t in candids if (adm[t] >> j) & 1]
            key_j = keys[j]
            added = []
            for c in chosen:
                tid = abs(key_j - keys[c])
                edge_count[tid] = edge_count.get(tid, 0) + 1
                added.append(tid)
            chosen.append(j)
            if k + 1 == m:
                checked += 1
                ne = sum(1 for t in ncand if t not in edge_count)
                hist[ne] = hist.get(ne, 0) + 1
                if ne > max_ne:
                    max_ne = ne
                if ne > 2 ** (dim - 1):
                    violations.append(tuple(sorted(chosen)))
            else:
                recurse(k + 1, pos + 1, len(others), ncand, nrows, nforb)
            chosen.pop()
            for tid in added:
                if edge_count[tid] == 1:
                    del edge_count[tid]
                else:
                    edge_count[tid] -= 1

    recurse(1, lo, hi, list(adm), [], 1 << neg[anchor])
    return {
        "checked": checked,
        "antipodal": sk_anti,
        "degenerate": sk_degen,
        "max_ne": max_ne,
        "hist": hist,
        "violations": violations,
    }


def _vertex_orbits(points: tuple[Point, ...]) -> list[tuple[Point, list[Point]]]:
    """Vertex orbits of B_n as (representative, members), by representative.

    The representative lists the shared |coordinates| in descending order.
    """
    orbits: dict[Point, list[Point]] = {}
    for p in points:
        orbits.setdefault(tuple(sorted(map(abs, p), reverse=True)), []).append(p)
    return sorted(orbits.items())


def _coset_map(v: Point):
    """A signed permutation g with g(r) = v, r the orbit representative of v."""
    order = sorted(range(len(v)), key=lambda i: -abs(v[i]))
    signs = [-1 if v[i] < 0 else 1 for i in order]

    def g(x: Point) -> Point:
        out = [0] * len(x)
        for k, (i, s) in enumerate(zip(order, signs)):
            out[i] = s * x[k]
        return tuple(out)

    return g


# ---------------------------------------------------------------------------
# Sampled sweeps. Each drawn subset is classified on its own: antipodal,
# then degenerate, then its admissible classes are the anchor's N - 1
# chord keys, one class each, filtered vertex by vertex through the same
# packed-key lookups as the exhaustive masks. There is no slow fallback: a
# shell whose keys do not fit in int64 is refused when its table is built.


def _evaluate_sample(tb: _Tables, idx: tuple[int, ...]) -> tuple[str, int]:
    """Outcome of one sampled subset: ('a'|'d', 0) skip or ('ok', nonedge count)."""
    if {tb.neg[i] for i in idx} & set(idx):
        return ("a", 0)
    if affine_rank(tuple(tb.pts[i] for i in idx)) < tb.dim - 1:
        return ("d", 0)
    chords = tb.chords(idx[0])
    for i in idx[1:]:
        k = tb.keys[i]
        chords = chords[tb.on_shell(k - chords) | tb.on_shell(k + chords)]
        if len(chords) == 0:
            return ("ok", 0)
    keys = tb.key_list
    edges = {abs(keys[a] - keys[b]) for a, b in combinations(idx, 2)}
    return ("ok", sum(1 for t in np.abs(chords).tolist() if t not in edges))


def _sampled_chunk(dim: int, lam: int, subsets: list[tuple[int, ...]]) -> list[tuple[str, int]]:
    tb = _tables(dim, lam)
    return [_evaluate_sample(tb, idx) for idx in subsets]


def _split_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    # Front-load the ranges: low first indices own the deepest subtrees.
    bounds = [round(n * (1 - (1 - f / parts) ** 0.5)) for f in range(parts + 1)]
    bounds[0], bounds[-1] = 0, n
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def verify_lemma(
    shell: SphereShell,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int = 0,
    extra_points: int = 0,
    threads: int = 1,
) -> LemmaSweepReport:
    """Sweep vertex subsets of the shell and tally translate counts.

    Exhaustive mode accounts for every subset of size m = dim +
    extra_points (guarded at 10^7 combinations) but visits only those
    holding a vertex-orbit representative r, weighting r's tallies by
    |orbit(r)| / m; sampled mode draws seeded random subsets until `count`
    valid simplices have been checked (or a 50x attempt cap is hit).
    Invalid subsets are skipped and tallied by reason, antipodal checked
    before degeneracy in both modes. Exhaustive violations found at r are
    expanded by one signed permutation per point of r's orbit, deduplicated
    and listed in index order. The result is deterministic for a fixed seed
    and identical for any thread count; violations, if any exist, are
    re-derived through the reference membership path and preserved
    verbatim. `shell` must be the whole enumerated shell: the sweep's
    tables come from enumerating (dim, lam), so a hand-built subset is
    refused.
    """
    if extra_points < 0:
        raise ContractError(f"extra_points must be >= 0, got {extra_points}")
    if mode not in ("exhaustive", "sampled"):
        raise ContractError(f"unknown mode {mode!r}; expected exhaustive or sampled")
    if mode == "sampled" and (count is None or count < 1):
        raise ContractError("sampled mode requires a positive count")
    m = shell.dim + extra_points
    budget = 2 ** (shell.dim - 1)
    base = dict(
        dim=shell.dim, lam=shell.lam, mode=mode, extra_points=extra_points, budget=budget
    )
    if mode == "sampled":
        base.update(sample_count=count, seed=seed)
    n = len(shell)
    if mode == "exhaustive" and n >= m and comb(n, m) > EXHAUSTIVE_GUARD:
        raise ResourceLimitError(
            f"{comb(n, m)} subsets of size {m} exceed the exhaustive guard of "
            f"{EXHAUSTIVE_GUARD}; use sampled mode"
        )
    tables = _tables(shell.dim, shell.lam)
    if shell.points != tables.pts:
        raise ContractError(
            f"the {n} given points differ from the {tables.n} points of "
            f"shell({shell.dim}, {shell.lam}); sweep the enumerated shell"
        )
    if n < m:
        return LemmaSweepReport(
            **base, simplices_checked=0, skipped_degenerate=0, skipped_antipodal=0,
            max_nonedge_count=0, histogram={}, violations=(),
        )

    if mode == "exhaustive":
        orbits = _vertex_orbits(shell.points)
        ranges = _split_ranges(n - 1, max(1, threads * 4)) if threads > 1 else [(0, n - 1)]
        tasks = [(rep, members, lo, hi) for rep, members in orbits for lo, hi in ranges]
        argses = [(shell.dim, shell.lam, m, tables.index[rep], lo, hi) for rep, _, lo, hi in tasks]
        parts = run_chunks(_exhaustive_chunk, argses, threads)
        weights = [len(members) for _, members, _, _ in tasks]

        def total(counts) -> int:
            # exact: every m-subset is counted once per vertex
            return sum(w * c for w, c in zip(weights, counts)) // m

        hist: dict[int, int] = {}
        for w, p in zip(weights, parts):
            for k, v in p["hist"].items():
                hist[k] = hist.get(k, 0) + w * v
        found: set[tuple[int, ...]] = set()
        for (_, members, _, _), p in zip(tasks, parts):
            for g in map(_coset_map, members):
                for idx in p["violations"]:
                    found.add(tuple(sorted(tables.index[g(tables.pts[i])] for i in idx)))
        violations = tuple(
            find_translates(Simplex(shell, tuple(tables.pts[i] for i in idx)))
            for idx in sorted(found)
        )
        return LemmaSweepReport(
            **base, simplices_checked=total(p["checked"] for p in parts),
            skipped_degenerate=total(p["degenerate"] for p in parts),
            skipped_antipodal=total(p["antipodal"] for p in parts),
            max_nonedge_count=max((p["max_ne"] for p in parts), default=0),
            histogram={k: v // m for k, v in sorted(hist.items())}, violations=violations,
        )

    rng = np.random.default_rng(seed)
    cap = SAMPLE_ATTEMPT_FACTOR * count
    checked = sk_a = sk_d = attempts = 0
    max_ne = 0
    hist = {}
    viol_subsets: list[tuple[Point, ...]] = []
    while checked < count and attempts < cap:
        want = min(cap - attempts, max(1024, count - checked + (count - checked) // 8))
        batch = [
            tuple(sorted(int(x) for x in rng.choice(n, size=m, replace=False)))
            for _ in range(want)
        ]
        if threads > 1:
            slices = np.array_split(np.arange(len(batch)), threads)
            argses = [(shell.dim, shell.lam, [batch[i] for i in sl]) for sl in slices if len(sl)]
            outcomes = [o for part in run_chunks(_sampled_chunk, argses, threads) for o in part]
        else:
            outcomes = _sampled_chunk(shell.dim, shell.lam, batch)
        for idx, (status, ne) in zip(batch, outcomes):
            attempts += 1
            if status == "a":
                sk_a += 1
                continue
            if status == "d":
                sk_d += 1
                continue
            checked += 1
            hist[ne] = hist.get(ne, 0) + 1
            if ne > max_ne:
                max_ne = ne
            if ne > budget:
                viol_subsets.append(tuple(shell.points[i] for i in idx))
            if checked >= count:
                break
    violations = tuple(find_translates(Simplex(shell, verts)) for verts in viol_subsets)
    return LemmaSweepReport(
        **base, simplices_checked=checked, skipped_degenerate=sk_d, skipped_antipodal=sk_a,
        max_nonedge_count=max_ne, histogram=dict(sorted(hist.items())),
        violations=violations, attempts=attempts,
    )


def translate_report_to_json(report: TranslateReport) -> dict:
    return {
        "vertices": [list(v) for v in report.simplex.vertices],
        "translates": [list(t) for t in report.translates],
        "edge_translates": [list(t) for t in report.edge_translates],
        "non_edge_count": report.non_edge_count,
        "budget": report.budget,
        "violated": report.violated,
    }


def sweep_to_json(report: LemmaSweepReport) -> dict:
    return {
        "dim": report.dim,
        "lambda": report.lam,
        "mode": report.mode,
        "checked": report.simplices_checked,
        "skipped": {
            "degenerate": report.skipped_degenerate,
            "antipodal": report.skipped_antipodal,
        },
        "budget": report.budget,
        "max_nonedge_count": report.max_nonedge_count,
        "histogram": {str(k): v for k, v in sorted(report.histogram.items())},
        "violations": [translate_report_to_json(v) for v in report.violations],
    }
