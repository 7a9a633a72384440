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
The exhaustive sweep counts the C(N, m) - 2^m C(N/2, m) antipodal subsets
in closed form (the shell is closed under negation) and visits one
antipodal-free subset per B_n-orbit, B_n the signed permutations, which
map the shell onto itself and preserve every tally (orderly generation:
the lexicographically smallest sorted index tuple of each orbit), weighted
by the orbit's size. Above a byte budget for B_n's index table it uses the
2^n sign changes instead, with the same tallies. Each violation found
stands for its whole orbit, and every member is re-derived through the
reference membership path. Only sampled sweeps use worker processes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, isqrt
from operator import mul, sub

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
# Byte budget of the exhaustive sweep's group table, checked before it is built.
# B_6 on shell(6,1) (2.2 MB, 46,080 rows for 924 subsets) costs more to scan at
# every prefix than its orbits save; B_5 on shell(5,2) takes 0.6 MB.
GROUP_TABLE_BYTES = 1 << 20


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
    vertices of their class sets {sign_canonical(v - q)}, built with plain
    tuple arithmetic; `classes` keeps each vertex's set across calls. Used
    for single simplices and to re-derive sweep findings independently of
    the packed-key fast path.
    """
    classes = {} if classes is None else classes
    for v in verts:
        if v not in classes:
            classes[v] = {sign_canonical(_diff(v, q)) for q in shell.points if q != v}
    translates = tuple(sorted(set.intersection(*(classes[v] for v in verts))))
    edges = {sign_canonical(_diff(a, b)) for a, b in combinations(verts, 2)}
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
        self.neg = np.array([self.index[negate(p)] for p in self.pts])
        self.spec = spec
        self.arr = np.array(self.pts, dtype=np.int64).reshape(self.n, shell.dim)
        self.keys = pack_rows(self.arr, *spec)  # ascending: points are in lexicographic order
        self.key_list = self.keys.tolist()

    def on_shell(self, keys: np.ndarray) -> np.ndarray:
        """Elementwise shell membership of keys packed from rows within the bias."""
        pos = np.searchsorted(self.keys, keys)
        pos[pos == self.n] = 0
        return self.keys[pos] == keys

    def admissible(self, idx) -> np.ndarray:
        """Chord keys key(r) - key(q), r = idx[0], q != r, admissible for every point of idx."""
        chords = np.delete(self.keys[idx[0]] - self.keys, idx[0])
        for i in idx[1:]:
            if len(chords) == 0:
                break
            k = self.keys[i]
            chords = chords[self.on_shell(k - chords) | self.on_shell(k + chords)]
        return chords


@lru_cache(maxsize=4)
def _tables(dim: int, lam: int) -> _Tables:
    return _Tables(enumerate_shell(dim, lam))


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
# Shell(4,12) under B_4 has 9,547 canonical 4-subsets, 8,864 of them
# antipodal-free, for C(96,4) = 3,321,960. The leaves of one prefix are
# classified together: degenerate (exact rank against an integer basis of
# the prefix's orthogonal complement), then by their non-edge classes, the
# first vertex's chord keys filtered vertex by vertex as in sampled mode. A
# violating canonical set stands for its orbit {sorted(h(S)) : h in H}.


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


def _canonical_sets(H: np.ndarray, m: int, neg: np.ndarray | None = None):
    """Orderly generation of canonical m-subsets, depth first in index order.

    Yields (P, J, stab) for each canonical (m-1)-subset P reached: P + (j,)
    for j in J are its canonical children, with stabilizer sizes stab;
    given the antipode map `neg`, children whose antipode is in P are
    dropped. For h fixing P, h(S) < S iff h(j) < j. Otherwise u =
    sorted(h(P)) first exceeds P at some i, and h(S) < S iff h(j) < P[i],
    or h(j) = P[i] (one j per h) and (u_i, ..., u_{k-1}) is below
    (P[i+1], ..., P[k-1], j); equality there puts h in the stabilizer of S.
    """
    stack = [()]
    while stack:
        P = stack.pop()
        lo, k = (P[-1] + 1 if P else 0), len(P)
        J = np.arange(lo, H.shape[1], dtype=H.dtype)
        X = H[:, lo:]
        bad = np.zeros(len(J), dtype=bool)
        stab = np.zeros(len(J), dtype=np.int64)
        if neg is not None:
            anti = neg[list(P)]
            bad[anti[anti >= lo] - lo] = True
        if k and len(J):
            U = np.sort(H[:, P], axis=1)
            p = np.array(P, dtype=H.dtype)
            fix = (U == p).all(1)
            i = (U != p).argmax(1)
            # first f >= i with u_f != P[f + 1], else k - 1: the tail then rests on u_{k-1} vs j
            nxt = np.append(p[1:], 0)
            dif = (U != nxt) & (np.arange(k) >= i[:, None])
            dif[:, -1] = True
            f = dif.argmax(1)
            uf = U[np.arange(len(H)), f]
            tie = np.where(f == k - 1, uf, np.where(uf < nxt[f], -1, H.shape[1]))
            thr = np.where(fix, -1, p[i]).astype(H.dtype)[:, None]  # rows fixing P come below
            bad |= (X < thr).any(0)
            eq = X == thr
            at = eq.argmax(1)
            tied = eq[np.arange(len(H)), at]
            bad[at[tied & (tie < at + lo)]] = True
            stab += np.bincount(at[tied & (tie == at + lo)], minlength=len(J))
            X = X[fix]
        bad |= (X < J).any(0)
        stab += (X == J).sum(0)
        if k + 1 == m:
            yield P, J[~bad], stab[~bad]
        else:
            stack.extend(P + (j,) for j in reversed(J[~bad].tolist()))


def _complement(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Primitive integer basis of the rational space orthogonal to `rows`."""
    basis = [[int(a == b) for b in range(dim)] for a in range(dim)]
    for d in rows:
        dots = [sum(map(mul, w, d)) for w in basis]
        piv = next((i for i, x in enumerate(dots) if x), None)
        if piv is not None:
            w0 = basis[piv]
            basis = [
                [dots[piv] * x - dots[i] * y for x, y in zip(w, w0)]
                for i, w in enumerate(basis) if i != piv
            ]
            basis = [[x // g for x in w] for w in basis for g in (gcd(*w),)]
    return basis


def _nonedge_counts(tb: _Tables, P: tuple[int, ...], J: np.ndarray) -> np.ndarray:
    """Non-edge admissible classes of each subset P + (j,), j in J."""
    chords = tb.admissible(P)
    keys = np.c_[np.broadcast_to(tb.keys[list(P)], (len(J), len(P))), tb.keys[J]]
    hit = tb.on_shell(keys[:, -1:] - chords) | tb.on_shell(keys[:, -1:] + chords)
    edges = np.abs(keys[:, :, None] - keys[:, None, :]).reshape(len(J), 1, -1)
    return (hit & ~(np.abs(chords)[:, None] == edges).any(2)).sum(1)


def _exhaustive(shell: SphereShell, m: int, kind: str) -> dict:
    """Report fields of the exhaustive sweep of m-subsets, generated under the group `kind`."""
    dim, lam, n = shell.dim, shell.lam, len(shell)
    tb = _tables(dim, lam)
    H = _group(dim, lam, kind)
    checked = degenerate = max_ne = 0
    hist: Counter = Counter()
    found = set()
    for P, J, stab in _canonical_sets(H, m, tb.neg):
        weight = len(H) // stab
        basis = _complement((tb.arr[list(P[1:])] - tb.arr[P[0]]).tolist(), dim)
        raises = np.array([
            any(sum(map(mul, w, d)) for w in basis) for d in (tb.arr[J] - tb.arr[P[0]]).tolist()
        ], dtype=bool)
        # P + (j,) has affine rank dim - len(basis) + raises[j], which must reach dim - 1
        full = raises >= len(basis) - 1
        degenerate += int(weight[~full].sum())
        if not full.any():
            continue
        J, weight = J[full], weight[full]
        ne = _nonedge_counts(tb, P, J)
        checked += int(weight.sum())
        for c, w in zip(ne.tolist(), weight.tolist()):
            hist[c] += w
        max_ne = max(max_ne, int(ne.max()))
        for j in J[ne > 2 ** (dim - 1)].tolist():
            found.update(map(tuple, np.sort(H[:, P + (j,)], axis=1).tolist()))
    return dict(
        simplices_checked=checked,
        skipped_degenerate=degenerate,
        skipped_antipodal=comb(n, m) - 2**m * comb(n // 2, m),
        max_nonedge_count=max_ne,
        histogram=dict(sorted(hist.items())),
        violations=_reference_reports(
            shell, [tuple(shell.points[i] for i in S) for S in sorted(found)]
        ),
    )


# ---------------------------------------------------------------------------
# Sampled sweeps. Each drawn subset is classified on its own: antipodal,
# then degenerate, then its admissible classes are the anchor's N - 1
# chord keys, one class each, filtered vertex by vertex through the same
# packed-key lookups as the exhaustive leaves. There is no slow fallback: a
# shell whose keys do not fit in int64 is refused when its table is built.


def _evaluate_sample(tb: _Tables, idx: tuple[int, ...]) -> tuple[str, int]:
    """Outcome of one sampled subset: ('a'|'d', 0) skip or ('ok', nonedge count)."""
    if {tb.neg[i] for i in idx} & set(idx):
        return ("a", 0)
    if affine_rank(tuple(tb.pts[i] for i in idx)) < tb.dim - 1:
        return ("d", 0)
    chords = tb.admissible(idx)
    keys = tb.key_list
    edges = {abs(keys[a] - keys[b]) for a, b in combinations(idx, 2)}
    return ("ok", sum(1 for t in np.abs(chords).tolist() if t not in edges))


def _sampled_chunk(dim: int, lam: int, subsets: list[tuple[int, ...]]) -> list[tuple[str, int]]:
    tb = _tables(dim, lam)
    return [_evaluate_sample(tb, idx) for idx in subsets]


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
    antipodal-free subset per orbit of the signed permutations B_n (of its
    sign changes when B_n's index table would exceed GROUP_TABLE_BYTES),
    weighted by the orbit's size; the C(N, m) - 2^m C(N/2, m) subsets
    holding an antipodal pair are counted in closed form. Sampled mode
    draws seeded random subsets until `count` valid simplices have been
    checked (or a 50x attempt cap is hit). Invalid subsets are skipped and
    tallied by reason, antipodal checked before degeneracy in both modes.
    Each exhaustive violation is expanded over its orbit and the union
    listed in index order. Only sampled mode uses `threads` worker
    processes; the exhaustive sweep runs in the calling process. The result
    is deterministic for a fixed seed and identical for any thread count;
    violations, if any exist, are re-derived through the reference
    membership path and preserved verbatim. `shell` must be the whole
    enumerated shell: the sweep's tables come from enumerating (dim, lam),
    so a hand-built subset is refused.
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
    if n < m or (mode == "exhaustive" and 2 * m > n):
        # every m-subset, if any, holds one of the n/2 antipodal pairs
        return LemmaSweepReport(
            **base, simplices_checked=0, skipped_degenerate=0, skipped_antipodal=comb(n, m),
            max_nonedge_count=0, histogram={}, violations=(),
        )

    if mode == "exhaustive":
        # B_n when its table fits, decided before it is built; its 2^n sign
        # changes always fit, since with 2m <= N the guard keeps 2^n N below 2^17
        fits = 4 * 2**shell.dim * factorial(shell.dim) * n <= GROUP_TABLE_BYTES
        group = "signed-permutations" if fits else "sign-changes"
        return LemmaSweepReport(**base, **_exhaustive(shell, m, group))

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
    violations = _reference_reports(shell, viol_subsets)
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
