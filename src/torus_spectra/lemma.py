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
decided by integer elimination, never by a floating-point tolerance.

Both sweeps share one table per shell, the points packed into sorted int64
keys, and one kernel that classifies a batch of subsets with array
operations: antipodal by antipode indices, degenerate by fraction-free
elimination in int64 (guarded by Hadamard's bound), then the anchor's
chord keys filtered vertex by vertex through a membership test, a lookup
in a bool table addressed by key where it fits TABLE_BYTES and a
binary search of the keys elsewhere. The anchor's candidate classes need
no deduplication, because distinct shell points q give distinct classes
+-(v_1 - q): q + q' = 2 v_1 forces q = q' = v_1 on a sphere. A sweep over a
shell whose keys do not fit in int64 is refused by `pack_spec`.
Single simplices (`find_translates`) and the re-derivation of every
violation use the reference path instead: plain set membership,
independent of the keys.

Every subset is classified antipodal first, then degenerate (affine rank
below n - 1), then checked, so each tally depends on the subset alone.
The exhaustive sweep counts the C(N, m) - 2^m C(N/2, m) antipodal subsets
in closed form (the shell is closed under negation) and visits one
antipodal-free subset per B_n-orbit, B_n the signed permutations, which
map the shell onto itself and preserve every tally (orderly generation:
the lexicographically smallest sorted index tuple of each orbit), weighted
by the orbit's size. It uses the 2^n sign changes instead, with the same
tallies, when B_n has more elements than there are (m-1)-subsets or a table
above TABLE_BYTES. The canonical subsets are generated a level of prefixes
at a time, each level tested in chunks by array operations over (prefix,
group element) pairs, so the cost is a few numpy calls per chunk rather
than per prefix. Each violation found stands for its orbit, every member
re-derived through the reference path. Sweeps run in the calling process.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, isqrt
from operator import sub

import numpy as np

from ._packing import TABLE_BYTES, pack_rows, pack_spec
from .errors import (
    AntipodalError,
    ContractError,
    DegenerateSimplexError,
    MembershipError,
    ResourceLimitError,
)
from .lattice import Point, SphereShell, enumerate_shell, negate, require_whole

EXHAUSTIVE_GUARD = 10**7
SAMPLE_ATTEMPT_FACTOR = 50
# Elements handled at once: (subset, chord) pairs classified by the shared
# kernel (see _classify), and (prefix, group element) or (prefix, point)
# pairs, whichever are more, tested for canonical children (see
# _canonical_sets).
CHUNK_ELEMENTS = 1 << 12


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
    return tuple(map(sub, a, b))


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
    shell: SphereShell, verts: tuple[Point, ...], classes: dict | None = None
) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """Reference path: admissible translate classes of a vertex tuple.

    A class t is admissible at v exactly when t = +-(v - q) for some shell
    point q != v, so the admissible classes are the intersection over the
    vertices of their class sets {sign_canonical(v - q)}, each built from
    the rows v - q by one array canonicalization (rows whose first nonzero
    coordinate is negative are negated) and kept as a set of plain tuples;
    `classes` keeps each vertex's set across calls. The edge classes are the
    chords a - b of two vertices a > b, in lexicographic order, which makes
    a - b its own canonical representative. Used for single simplices and
    to re-derive sweep findings independently of the packed-key fast path.
    """
    classes = {} if classes is None else classes
    missing = [v for v in verts if v not in classes]
    if missing:
        pts = np.array(shell.points, dtype=np.int64).reshape(len(shell.points), shell.dim)
        for v in missing:
            rows = np.array(v, dtype=np.int64) - pts
            lead = rows[np.arange(len(rows)), (rows != 0).argmax(1)]  # 0 only for q = v
            rows[lead < 0] *= -1
            classes[v] = set(map(tuple, rows[lead != 0].tolist()))
    translates = tuple(sorted(set.intersection(*(classes[v] for v in verts))))
    edges = {_diff(a, b) for a, b in combinations(sorted(verts, reverse=True), 2)}
    edge_translates = tuple(t for t in translates if t in edges)
    return translates, edge_translates


def find_translates(simplex: Simplex) -> TranslateReport:
    """All admissible translate classes of a validated simplex.

    Deterministic: output is sorted lexicographically on the canonical
    representatives.
    """
    return _reference_reports(simplex.shell, [simplex.vertices])[0]


def _reference_reports(shell: SphereShell, subsets) -> tuple[TranslateReport, ...]:
    """Reference-path reports of vertex tuples, one class set per distinct vertex."""
    classes: dict[Point, set[Point]] = {}
    budget = 2 ** (shell.dim - 1)
    reports = []
    for verts in subsets:
        translates, edges = _translate_sets(shell, verts, classes)
        reports.append(TranslateReport(
            simplex=Simplex(shell, verts), translates=translates, edge_translates=edges,
            budget=budget, violated=len(translates) - len(edges) > budget,
        ))
    return tuple(reports)


# ---------------------------------------------------------------------------
# Packed keys, shared by both sweeps.


class _Tables:
    """Packed int64 keys of one shell: the one membership test of both sweeps.

    With bias = 3*isqrt(lam), the key of a row x with |x_k| <= bias is
    K0 + L(x), L linear and positive exactly on the rows whose first nonzero
    coordinate is positive. For shell points v, r, q every query row
    v +- (r - q) stays within the bias, and its key is key(v) +- c with the
    chord key c = key(r) - key(q) = L(r - q); |c| identifies the class
    +-(r - q), so chords and edges compare as plain integers. Every such
    key lies in [0, radix^dim), so it is its own address in `member`, one
    bool per key of the box, when that fits TABLE_BYTES; larger boxes
    binary-search the sorted keys. `pack_spec` refuses shells whose keys do
    not fit in int64.
    """

    def __init__(self, shell: SphereShell):
        spec = pack_spec(shell.dim, 3 * isqrt(shell.lam))
        self.dim = shell.dim
        self.points = shell.points
        self.n = len(self.points)
        # the points are sorted and closed under negation, which reverses the order
        self.neg = np.arange(self.n)[::-1]
        self.spec = spec
        self.arr = np.array(self.points, dtype=np.int64).reshape(self.n, shell.dim)
        self.keys = pack_rows(self.arr, *spec)  # ascending: points are in lexicographic order
        self.member = None
        if spec[1] ** shell.dim <= TABLE_BYTES:
            self.member = np.zeros(spec[1] ** shell.dim, dtype=bool)
            self.member[self.keys] = True

    def on_shell(self, keys: np.ndarray) -> np.ndarray:
        """Elementwise shell membership of keys packed from rows within the bias."""
        if self.member is not None:
            return self.member[keys]
        pos = np.searchsorted(self.keys, keys)
        pos[pos == self.n] = 0
        return self.keys[pos] == keys

    def admissible(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Anchor chords of each row S[i] admissible at the rest of it, as flat (i, chord key).

        The chords of S[i] are key(S[i, 0]) - key(q), q != S[i, 0], one per
        class; a row's kept chords come in the order of q.
        """
        chords = self.keys[S[:, :1]] - self.keys
        hit = chords != 0
        for col in range(1, S.shape[1]):
            k = self.keys[S[:, col, None]]
            hit &= self.on_shell(k - chords) | self.on_shell(k + chords)
        seg, q = np.nonzero(hit)
        return seg, chords[seg, q]


@lru_cache(maxsize=4)
def _tables(dim: int, lam: int) -> _Tables:
    return _Tables(enumerate_shell(dim, lam))


# ---------------------------------------------------------------------------
# One classification kernel, shared by both sweeps. It takes a batch of
# subsets as an (L, m) index array and their candidate classes as flat
# (subset, chord) arrays, and classifies every subset at once: antipodal by
# comparing `neg` indices, degenerate by exact rank, then the non-edge count
# of its candidates admissible at the vertices left to check. Callers keep
# the flat arrays below CHUNK_ELEMENTS, so each temporary (32 KiB at 2^12
# int64s) stays below glibc's 128 KiB mmap threshold and the heap is reused.


def _affine_rank_reaches(points: np.ndarray, need: int) -> np.ndarray:
    """Whether each stack points[i] of integer points has affine rank >= need >= 1, exactly.

    Fraction-free (Bareiss) elimination on the rows points[i, 1:] - points[i, 0],
    all stacks at once in int64, each step pivoting on the first nonzero
    entry left and clearing its row and column: after s steps every entry
    is an (s + 1)-minor of those rows, so rank >= need iff a nonzero entry is
    left after need - 1 steps. The last products taken are of two k-minors,
    k = need - 1, each at most (k e^2)^(k/2) by Hadamard's bound for entries
    |x| <= e; a batch whose bound 2 (k e^2)^k reaches 2^63 goes to
    `affine_rank` stack by stack.
    """
    A = points[:, 1:] - points[:, :1]
    L, R, C = A.shape
    e, k = int(np.abs(A).max(initial=0)), need - 1
    if 2 * (k * e * e) ** k >= 2**63:
        return np.array([affine_rank(tuple(map(tuple, p))) >= need for p in points.tolist()])
    rows = np.arange(L)
    prev = 1
    for _ in range(k):
        flat = A.reshape(L, R * C)
        at = (flat != 0).argmax(1)
        r, c = np.divmod(at, C)
        piv = flat[rows, at][:, None, None]
        A = (piv * A - A[rows, :, c][:, :, None] * A[rows, r][:, None, :]) // prev
        prev = np.where(piv == 0, 1, piv)  # a zero pivot leaves an all-zero matrix
    return (A != 0).reshape(L, R * C).any(1)


def _classify(
    tb: _Tables, S: np.ndarray, seg: np.ndarray, chords: np.ndarray, start: int
) -> np.ndarray:
    """Outcome of each subset S[i]: -1 antipodal, -2 degenerate, else its non-edge class count.

    The candidate classes of S[i] are the chord keys chords[seg == i], each
    of one class, already admissible at the vertices S[i, :start]; they are
    filtered through the vertices S[i, start:] one column at a time, and the
    survivors equal to no edge key |key(a) - key(b)| are counted.
    """
    L, m = S.shape
    anti = (tb.neg[S][:, :, None] == S[:, None, :]).any((1, 2))
    full = _affine_rank_reaches(tb.arr[S], tb.dim - 1)
    keep = (full & ~anti)[seg]
    seg, chords = seg[keep], chords[keep]
    keys = tb.keys[S]
    for col in range(start, m):
        k = keys[seg, col]
        hit = tb.on_shell(k - chords) | tb.on_shell(k + chords)
        seg, chords = seg[hit], chords[hit]
    edges = np.abs(keys[:, :, None] - keys[:, None, :]).reshape(L, m * m)  # with 0 for a = b
    nonedge = (np.abs(chords)[:, None] != edges[seg]).all(1)
    out = np.bincount(seg[nonedge], minlength=L)
    out[~full] = -2
    out[anti] = -1
    return out


def _tally(hist: Counter, out: np.ndarray, weight) -> None:
    """Add each kernel outcome in out to the tally with its weight (an array, or 1)."""
    vals, inv = np.unique(out, return_inverse=True)
    sums = np.zeros(len(vals), dtype=np.int64)
    np.add.at(sums, inv, weight)
    for v, c in zip(vals.tolist(), sums.tolist()):
        hist[v] += c


def _tally_fields(hist: Counter) -> dict:
    """Report fields of a tally of kernel outcomes: -1 antipodal, -2 degenerate, else checked."""
    counts = {k: v for k, v in sorted(hist.items()) if k >= 0}
    return dict(
        simplices_checked=sum(counts.values()),
        skipped_degenerate=hist[-2],
        skipped_antipodal=hist[-1],
        max_nonedge_count=max(counts, default=0),
        histogram=counts,
    )


def _classify_buffered(tb: _Tables, blocks, start: int):
    """Kernel outcomes of subsets arriving in blocks, classified CHUNK_ELEMENTS at a time.

    Each block (S, seg, chords, w) holds subsets S, their candidates as in
    `_classify` with seg local to the block, and their weights w. Blocks are
    buffered while the chunk costs at most CHUNK_ELEMENTS, one per subset
    and one per candidate; yields (S, w, outcomes) for each chunk.
    """

    def chunk():
        S = np.concatenate([b[0] for b in buf])
        first = np.cumsum([0] + [len(b[0]) for b in buf]).tolist()
        seg = np.concatenate([b[1] + i for b, i in zip(buf, first)])
        chords = np.concatenate([b[2] for b in buf])
        return S, np.concatenate([b[3] for b in buf]), _classify(tb, S, seg, chords, start)

    buf, size = [], 0
    for block in blocks:
        cost = len(block[0]) + len(block[2])
        if buf and size + cost > CHUNK_ELEMENTS:
            yield chunk()
            buf, size = [], 0
        buf.append(block)
        size += cost
    if buf:
        yield chunk()


# ---------------------------------------------------------------------------
# Exhaustive sweeps: one m-subset per orbit of a group H of signed
# permutations (a permutation of the coordinates with a sign on each). Every
# such h maps the shell onto itself and preserves antipodal pairs, affine
# rank, admissible translate classes and edge classes, so every tally f
# (checked, either skip, each histogram bin) is constant on H-orbits and
#
#     sum_S f(S) = sum over canonical S of |H| / |Stab_H(S)| * f(S),
#
# S canonical when its sorted index tuple is the lexicographically smallest
# of its H-images (Read-Faradzev orderly generation). Dropping the largest
# index of a canonical set leaves a canonical set, since an image below the
# rest stays below once any one index is added to both; so extending
# canonical prefixes by larger indices reaches every orbit exactly once.
# Being antipodal-free is H-invariant and survives the same deletion, so
# only antipodal-free children are generated, and the other C(N, m) -
# 2^m C(N/2, m) subsets (N/2 antipodal pairs) are tallied in closed form.
# The generation runs a level at a time: the canonical k-prefixes, in index
# order, are tested as array operations over every (prefix, row of H) pair
# of a chunk, and their canonical children, in the same order, are the
# (k+1)-prefixes. Shell(4,12) under B_4 has 2, 30 and 461 antipodal-free
# canonical 1-, 2- and 3-prefixes, and 9,547 canonical 4-subsets, 8,864 of
# them antipodal-free, for C(96,4) = 3,321,960. The sweep takes the
# generator's chunks as they come: each chunk of (m-1)-prefixes filters every
# prefix's first vertex's chord keys through its other vertices at once, and
# its leaves go to the shared kernel with their prefix's chords, whole leaves
# to a block, where only the last vertex is left to filter. A violating
# canonical set stands for its orbit {sorted(h(S)) : h in H}.


@lru_cache(maxsize=4)
def _group(dim: int, lam: int, kind: str) -> np.ndarray:
    """(|H|, N) int32 table of a group H on shell(dim, lam): row h holds h(p)'s index for each p.

    kind is "signed-permutations" (B_n, 2^n n! elements), "sign-changes"
    (its 2^n diagonal elements) or "trivial".
    """
    tb = _tables(dim, lam)
    perms = list(permutations(range(dim))) if kind == "signed-permutations" else [range(dim)]
    signs = np.array([(1,) * dim] if kind == "trivial" else list(product((1, -1), repeat=dim)))
    blocks = []
    for perm in perms:  # one block of 2^n images at a time
        keys = pack_rows((tb.arr[:, list(perm)] * signs[:, None, :]).reshape(-1, dim), *tb.spec)
        blocks.append(np.searchsorted(tb.keys, keys).reshape(len(signs), tb.n).astype(np.int32))
    return np.concatenate(blocks)


def _group_bytes(order: int, n: int) -> int:
    """Bytes of a group's tables on n points: H and its inverse (int32), and the bit words."""
    return 8 * order * (n + (n + 1) * -(-n // 64))


def _canonical_sets(H: np.ndarray, m: int, neg: np.ndarray | None = None):
    """Orderly generation of canonical m-subsets, m >= 2, one level of prefixes at a time.

    Yields (P, c, J, stab) for each chunk of the canonical (m-1)-subsets
    reached, P their (C, m-1) index rows in index order: P[c[e]] + (J[e],)
    are their canonical children, in index order, with stabilizer sizes
    stab[e]; given the antipode map `neg`, children whose antipode is in P
    are dropped. For h fixing P, h(S) < S iff h(j) < j. Otherwise u =
    sorted(h(P)) first exceeds P at some i, and h(S) < S iff h(j) < P[i],
    or h(j) = P[i] (one j per h) and (u_i, ..., u_{k-1}) is below
    (P[i+1], ..., P[k-1], j); equality there puts h in the stabilizer of S.

    Each level's prefixes are tested CHUNK_ELEMENTS / max(|H|, N) at a time,
    every (prefix, row of H) pair at once: u by a min/max insertion sort of
    the columns h(P[t]), and "some h(j) < P[i]" as an OR of the bit words
    low[h, P[i]], where low[h, t] holds {j : h(j) < t}, 64 indices a word.
    The rows fixing a prefix, few below the root, are tested one pair at a
    time. H, its inverse and the words take `_group_bytes`; the caller
    chooses a group whose tables fit.
    """
    G, N = H.shape
    points, rows = np.arange(N), np.arange(G)
    inv = np.empty_like(H)
    inv[rows[:, None], H] = points
    words = -(-N // 64)
    # low[:, h, t] for t = 0..N: each j is set from t = h(j) + 1 on
    low = np.zeros((words, G, N + 1), dtype=np.uint64)
    low[points // 64, rows[:, None], H + 1] = np.uint64(1) << (points % 64).astype(np.uint64)
    np.bitwise_or.accumulate(low, axis=2, out=low)
    low = low.reshape(words, G * (N + 1))

    def children(P):
        """(bad, stab), each (C, N): bad[c, j] unless P[c] + (j,) is a canonical child."""
        C, k = P.shape
        Pt = [P[:, t, None] for t in range(k)]
        U = [H[:, p].T for p in P.T]
        for t in range(1, k):
            for s in range(t, 0, -1):
                U[s - 1], U[s] = np.minimum(U[s - 1], U[s]), np.maximum(U[s - 1], U[s])
        i, thr = np.full((C, G), k), np.zeros((C, G), dtype=P.dtype)  # h(j) < 0 never holds
        for t in reversed(range(k)):
            d = U[t] != Pt[t]
            i, thr = np.where(d, t, i), np.where(d, Pt[t], thr)
        # with h(j) = P[i]: h(S) < S always (-1), never (N), or iff u_{k-1} < j (u_{k-1})
        tie = U[k - 1]
        for t in reversed(range(k - 1)):
            d = (t >= i) & (U[t] != Pt[t + 1])
            tie = np.where(d, np.where(U[t] < Pt[t + 1], -1, N), tie)
        tie = np.where(i == k, N, tie)  # rows fixing P
        w = np.bitwise_or.reduce(low.take(thr + rows * (N + 1), axis=1), axis=2)
        w = np.ascontiguousarray(w.T, dtype="<u8").view(np.uint8)
        bad = np.unpackbits(w, axis=1, count=N, bitorder="little").view(bool)
        js = inv.take(thr + rows * N)  # h(js) = P[i]; a js not above P is dropped below
        c, h = np.nonzero(tie < js)
        bad[c, js[c, h]] = True
        sc, h = np.nonzero(tie == js)
        sj = js[sc, h]
        c, h = np.nonzero(i == k)
        e, j = np.nonzero(H[h] < points)
        bad[c[e], j] = True
        e, j = np.nonzero(H[h] == points)
        stab = np.bincount(np.concatenate([sc, c[e]]) * N + np.concatenate([sj, j]),
                           minlength=C * N)
        if neg is not None:
            bad[np.arange(C)[:, None], neg[P]] = True
        bad |= points <= Pt[-1]
        return bad, stab.reshape(C, N)

    step = max(1, CHUNK_ELEMENTS // max(G, N))
    # the root: every row fixes it, and h({j}) < {j} iff h(j) < j
    level = points[~(H < points).any(0), None]
    for k in range(1, m):
        nxt = []
        for lo in range(0, len(level), step):
            P = level[lo : lo + step]
            bad, stab = children(P)
            c, j = np.nonzero(~bad)
            if k + 1 < m:
                nxt.append(np.concatenate([P[c], j[:, None]], axis=1))
            else:
                yield P, c, j, stab[c, j]
        level = np.concatenate(nxt) if nxt else np.zeros((0, k + 1), dtype=np.intp)


def _exhaustive(shell: SphereShell, m: int, kind: str) -> dict:
    """Report fields of the exhaustive sweep of m-subsets, generated under the group `kind`."""
    dim, lam, n = shell.dim, shell.lam, len(shell)
    tb = _tables(dim, lam)
    H = _group(dim, lam, kind)
    hist = Counter({-1: comb(n, m) - 2**m * comb(n // 2, m)})
    found = set()

    def blocks():
        for P, owner, J, stab in _canonical_sets(H, m, tb.neg):
            leaves = np.concatenate([P[owner], J[:, None]], axis=1)
            weight = len(H) // stab
            seg, chords = tb.admissible(P)
            count = np.bincount(seg, minlength=len(P))
            first, count = (np.cumsum(count) - count)[owner], count[owner]  # the prefix's chords
            end = np.cumsum(count + 1)  # a leaf costs one element and one per chord
            lo = done = 0
            while lo < len(leaves):  # whole leaves, CHUNK_ELEMENTS elements a block where they fit
                hi = max(lo + 1, int(np.searchsorted(end, done + CHUNK_ELEMENTS, "right")))
                c = count[lo:hi]
                at = np.repeat(first[lo:hi] - np.cumsum(c) + c, c) + np.arange(c.sum())
                yield leaves[lo:hi], np.repeat(np.arange(hi - lo), c), chords[at], weight[lo:hi]
                lo, done = hi, end[hi - 1]

    for S, weight, out in _classify_buffered(tb, blocks(), m - 1):
        _tally(hist, out, weight)
        for row in S[out > 2 ** (dim - 1)]:
            found.update(map(tuple, np.sort(H[:, row], axis=1).tolist()))
    violations = [tuple(shell.points[i] for i in S) for S in sorted(found)]
    return dict(**_tally_fields(hist), violations=_reference_reports(shell, violations))


# ---------------------------------------------------------------------------
# Sampled sweeps. Each batch of subsets is drawn at once by `_draw_subsets`,
# so a seed always draws the same ones; each drawn batch is classified by the
# shared kernel, in slices of CHUNK_ELEMENTS (subset, chord) elements whose
# candidates are the anchor's N - 1 chord keys, one class each, filtered
# through the second vertex by `_Tables.admissible`. There is no slow
# fallback: a shell whose keys do not fit in int64 is refused when its
# table is built.


def _draw_subsets(rng: np.random.Generator, n: int, m: int, size: int) -> np.ndarray:
    """(size, m) uniform m-subsets of range(n), one sorted row each, with no rejection.

    Floyd's algorithm (Bentley & Floyd, CACM 30(9), 1987) on every row at once:
    column c draws t in [0, n - m + c] and takes n - m + c when t is in its row.
    """
    S = rng.integers(0, np.arange(n - m + 1, n + 1), size=(size, m))
    for c in range(1, m):
        S[(S[:, :c] == S[:, c, None]).any(1), c] = n - m + c
    S.sort(axis=1)
    return S


def _classify_drawn(tb: _Tables, S: np.ndarray) -> np.ndarray:
    """Kernel outcomes of drawn subsets, each anchored at its first index.

    The anchor's N - 1 chord keys are filtered through the second vertex
    here, CHUNK_ELEMENTS at a time, and the survivors go to the kernel.
    """

    def blocks():
        step = max(1, CHUNK_ELEMENTS // tb.n)
        for lo in range(0, len(S), step):
            part = S[lo : lo + step]
            yield part, *tb.admissible(part[:, :2]), np.ones(len(part), dtype=np.int64)

    return np.concatenate([out for _, _, out in _classify_buffered(tb, blocks(), 2)])


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
    extra_points (guarded at 10^7 combinations) but visits one canonical
    antipodal-free subset per orbit of the signed permutations B_n, weighted
    by the orbit's size. It uses B_n's 2^n sign changes instead when B_n has
    more elements than there are (m-1)-subsets, or when B_n's tables (its
    index table, its inverse and the generator's bit words, about 8 + N/8
    bytes per element and point) would exceed TABLE_BYTES. The
    C(N, m) - 2^m C(N/2, m) subsets holding an antipodal pair are counted in
    closed form. Sampled mode draws uniform random subsets, seeded by `seed`
    >= 0, until `count` valid simplices have been checked (or a 50x attempt
    cap is hit). Invalid subsets are skipped and tallied by reason, antipodal
    checked before degeneracy in both modes. Each exhaustive violation is
    expanded over its orbit and the union listed in index order. Both modes
    run in the calling process; `threads` is accepted and changes nothing. The
    result is deterministic for a fixed seed; violations, if any exist, are
    re-derived through the reference membership path and preserved verbatim.
    `shell` must be the whole enumerated shell: the sweep's tables come from
    enumerating (dim, lam), so a hand-built subset is refused.
    """
    if extra_points < 0:
        raise ContractError(f"extra_points must be >= 0, got {extra_points}")
    if mode not in ("exhaustive", "sampled"):
        raise ContractError(f"unknown mode {mode!r}; expected exhaustive or sampled")
    if mode == "sampled" and (count is None or count < 1):
        raise ContractError("sampled mode requires a positive count")
    if mode == "sampled" and seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
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
    tables = require_whole(shell, _tables, "sweep the enumerated shell")
    if n < m or (mode == "exhaustive" and 2 * m > n):
        # every m-subset, if any, holds one of the n/2 antipodal pairs
        return LemmaSweepReport(**base, **_tally_fields(Counter({-1: comb(n, m)})), violations=())

    if mode == "exhaustive":
        # B_n when it has no more rows than there are (m-1)-subsets and its tables
        # fit, decided before they are built; its 2^n sign changes always fit,
        # since with 2m <= N the guard keeps their tables below 11 MB
        order = 2**shell.dim * factorial(shell.dim)
        full = order <= comb(n, m - 1) and _group_bytes(order, n) <= TABLE_BYTES
        group = "signed-permutations" if full else "sign-changes"
        return LemmaSweepReport(**base, **_exhaustive(shell, m, group))

    rng = np.random.default_rng(seed)
    cap = SAMPLE_ATTEMPT_FACTOR * count
    checked = attempts = 0
    hist: Counter = Counter()
    viol: list[list[int]] = []
    while checked < count and attempts < cap:
        want = min(cap - attempts, max(1024, count - checked + (count - checked) // 8))
        S = _draw_subsets(rng, n, m, want)
        out = _classify_drawn(tables, S)
        # stop at the subset that completes `count`, as a one-by-one loop would
        cum = np.cumsum(out >= 0)
        if cum[-1] >= count - checked:
            stop = int(np.searchsorted(cum, count - checked)) + 1
            S, out = S[:stop], out[:stop]
        attempts += len(out)
        checked += int((out >= 0).sum())
        _tally(hist, out, 1)
        viol += S[out > budget].tolist()
    viol_subsets = [tuple(shell.points[i] for i in row) for row in viol]
    return LemmaSweepReport(
        **base, **_tally_fields(hist), violations=_reference_reports(shell, viol_subsets),
        attempts=attempts,
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
