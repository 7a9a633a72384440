import concurrent.futures
from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial

import numpy as np
import pytest
from conftest import (
    admissible_subset_count,
    full_scan_translates,
    peak_bytes_of,
    reference_canonical_sets,
    sign_flip_degenerate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_spectra import (
    AntipodalError,
    ContractError,
    DegenerateSimplexError,
    MembershipError,
    ResourceLimitError,
    enumerate_shell,
    find_translates,
    lattice,
    lemma,
    sweep_to_json,
    validate_simplex,
    verify_lemma,
)
from torus_spectra._packing import TABLE_BYTES, unpack_keys
from torus_spectra.lattice import SphereShell, negate
from torus_spectra.lemma import (
    _affine_rank_reaches,
    _canonical_sets,
    _classify_drawn,
    _draw_subsets,
    _exhaustive,
    _group,
    _tables,
    _Tables,
    _translate_sets,
    affine_rank,
)


# --------------------------------------------------------------------------
# simplex validation


def test_validate_simplex_accepts_worked_pair():
    shell = enumerate_shell(2, 25)
    simplex = validate_simplex(shell, [(5, 0), (4, 3)])
    assert simplex.vertices == ((5, 0), (4, 3))


def test_validate_simplex_rejects_antipodal():
    shell = enumerate_shell(2, 25)
    with pytest.raises(AntipodalError):
        validate_simplex(shell, [(5, 0), (-5, 0)])
    shell3 = enumerate_shell(3, 3)
    with pytest.raises(AntipodalError):
        validate_simplex(shell3, [(1, 1, 1), (-1, -1, -1), (1, -1, 1)])


def test_validate_simplex_rejects_off_shell_and_duplicates():
    shell = enumerate_shell(2, 25)
    with pytest.raises(MembershipError):
        validate_simplex(shell, [(5, 0), (4, 4)])
    with pytest.raises(DegenerateSimplexError):
        validate_simplex(shell, [(5, 0), (5, 0)])
    with pytest.raises(ContractError):
        validate_simplex(shell, [(5, 0)])


def test_validate_simplex_rejects_coplanar_quadruple():
    # four points in the 2-plane x1 = x2 = 1: affine rank 2 < 3
    shell = enumerate_shell(4, 4)
    quad = [(1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1), (1, 1, -1, -1)]
    with pytest.raises(DegenerateSimplexError):
        validate_simplex(shell, quad)


def test_affine_rank_exact():
    assert affine_rank(((0, 0), (1, 0))) == 1
    assert affine_rank(((1, 1, 1), (2, 2, 2), (3, 3, 3))) == 1
    assert affine_rank(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))) == 3
    # scaling-sensitive case that would defeat a float tolerance
    assert affine_rank(((0, 0, 0), (10**9, 1, 0), (2 * 10**9, 2, 0))) == 1


# --------------------------------------------------------------------------
# translate search


def test_worked_translate_example():
    shell = enumerate_shell(2, 25)
    report = find_translates(validate_simplex(shell, [(5, 0), (4, 3)]))
    assert report.translates == ((1, -3), (9, 3))
    assert report.edge_translates == ((1, -3),)
    assert report.non_edge_count == 1
    assert report.budget == 2
    assert not report.violated


def test_translates_are_sound():
    shell = enumerate_shell(3, 9)
    simplex = validate_simplex(shell, [(3, 0, 0), (2, 2, 1), (1, 2, 2)])
    report = find_translates(simplex)
    for tau in report.translates:
        assert any(tau)
        for v in simplex.vertices:
            minus = tuple(x - t for x, t in zip(v, tau))
            plus = tuple(x + t for x, t in zip(v, tau))
            assert minus in shell.index or plus in shell.index


def test_translates_sign_class_unique_and_sorted():
    shell = enumerate_shell(3, 41)
    simplex = validate_simplex(shell, [(6, 2, 1), (5, 4, 0), (4, 4, 3)])
    report = find_translates(simplex)
    assert list(report.translates) == sorted(report.translates)
    as_set = set(report.translates)
    for tau in report.translates:
        assert negate(tau) not in as_set


@pytest.mark.parametrize(
    "dim,lam,verts",
    [
        (2, 25, [(5, 0), (4, 3)]),
        (2, 25, [(3, 4), (0, -5)]),
        (3, 9, [(3, 0, 0), (2, 2, 1), (1, 2, 2)]),
        (3, 41, [(6, 2, 1), (5, 4, 0), (4, 4, 3)]),
        (4, 4, [(2, 0, 0, 0), (1, 1, 1, 1), (1, 1, -1, 1), (0, 2, 0, 0)]),
    ],
)
def test_translates_complete_against_full_scan(dim, lam, verts):
    shell = enumerate_shell(dim, lam)
    report = find_translates(validate_simplex(shell, verts))
    assert set(report.translates) == full_scan_translates(shell, verts)


# --------------------------------------------------------------------------
# sweeps


def test_exhaustive_pairs_2_25():
    shell = enumerate_shell(2, 25)
    report = verify_lemma(shell, mode="exhaustive")
    assert report.simplices_checked == 60  # 66 pairs minus the 6 antipodal ones
    assert report.skipped_antipodal == 6
    assert report.skipped_degenerate == 0
    assert report.max_nonedge_count <= 2
    assert not report.violations
    total = report.simplices_checked + report.skipped_antipodal + report.skipped_degenerate
    assert total == comb(len(shell), 2)


def test_exhaustive_triples_3_9():
    shell = enumerate_shell(3, 9)
    report = verify_lemma(shell, mode="exhaustive")
    assert report.budget == 4
    assert report.max_nonedge_count <= 4
    assert not report.violations
    assert sum(report.histogram.values()) == report.simplices_checked
    total = report.simplices_checked + report.skipped_antipodal + report.skipped_degenerate
    assert total == comb(len(shell), 3)


@pytest.mark.parametrize(
    "dim,lam,extra",
    [(2, 25, 0), (3, 9, 0), (3, 9, 1), (4, 4, 0), (5, 1, 0)],
    ids=["2-25", "3-9", "3-9-extra1", "4-4", "5-1"],
)
def test_exhaustive_agrees_with_reference_path(dim, lam, extra):
    """Every report field against a naive per-subset tally over all subsets.

    Each subset is classified antipodal first, then by affine rank, then
    counted through the reference translate path; the sweep must agree
    although it only visits subsets holding a vertex-orbit representative.
    """
    shell = enumerate_shell(dim, lam)
    report = verify_lemma(shell, mode="exhaustive", extra_points=extra)
    budget = 2 ** (dim - 1)
    checked = antipodal = degenerate = 0
    hist: dict[int, int] = {}
    violations = []
    for verts in combinations(shell.points, dim + extra):
        if any(negate(a) == b for a, b in combinations(verts, 2)):
            antipodal += 1
            continue
        if affine_rank(verts) < dim - 1:
            degenerate += 1
            continue
        checked += 1
        translates, edges = _translate_sets(shell, verts)
        ne = len(translates) - len(edges)
        hist[ne] = hist.get(ne, 0) + 1
        if ne > budget:
            violations.append((verts, translates, edges))
    assert report.simplices_checked == checked
    assert report.skipped_antipodal == antipodal
    assert report.skipped_degenerate == degenerate
    assert report.histogram == dict(sorted(hist.items()))
    assert report.max_nonedge_count == max(hist, default=0)
    assert [
        (v.simplex.vertices, v.translates, v.edge_translates) for v in report.violations
    ] == violations


def test_exhaustive_classifies_antipodal_before_degenerate():
    """A low-rank prefix must not hide an antipodal pair among its completions.

    On shell(5,2) four points can be coplanar, so the rank pruning fires
    before the fifth vertex is chosen; every 5-subset holding an antipodal
    pair still counts as antipodal, as in sampled mode.
    """
    shell = enumerate_shell(5, 2)
    report = verify_lemma(shell, mode="exhaustive")
    n = len(shell)
    assert n == 40
    assert report.skipped_antipodal == comb(n, 5) - comb(n // 2, 5) * 2**5 == 161880
    assert report.simplices_checked == admissible_subset_count(shell) == 460368
    assert report.skipped_degenerate == 35760
    total = report.simplices_checked + report.skipped_antipodal + report.skipped_degenerate
    assert total == comb(n, 5)


def _signed_permutations(shell: SphereShell) -> set[tuple[int, ...]]:
    """B_n acting on the shell's point indices, one index tuple per element."""
    index = {p: i for i, p in enumerate(shell.points)}
    return {
        tuple(index[tuple(s * p[k] for s, k in zip(signs, perm))] for p in shell.points)
        for perm in permutations(range(shell.dim))
        for signs in product((1, -1), repeat=shell.dim)
    }


def _burnside_orbits(group: set[tuple[int, ...]], m: int) -> int:
    """Orbits of m-subsets, (1/|H|) sum_h fix_h.

    h fixes an m-subset iff the subset is a union of h-cycles, so fix_h is
    the x^m coefficient of the product of (1 + x^len) over h's cycles.
    """
    total = 0
    for h in group:
        seen = [False] * len(h)
        poly = [1] + [0] * m
        for start in range(len(h)):
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = h[i]
                length += 1
            if length:
                poly = [poly[d] + (poly[d - length] if d >= length else 0) for d in range(m + 1)]
        total += poly[m]
    assert total % len(group) == 0
    return total // len(group)


@pytest.mark.parametrize(
    "dim,lam,orbits", [(4, 12, 9547), (3, 41, 3031), (5, 2, 362)], ids=["4-12", "3-41", "5-2"]
)
def test_orderly_generation_visits_each_orbit_once(dim, lam, orbits):
    """One canonical leaf per B_n-orbit of dim-subsets, weights summing to C(N, dim).

    The group is rebuilt here from plain tuples, and the orbit count comes
    from Burnside's lemma over its cycle structure on the shell.
    """
    shell = enumerate_shell(dim, lam)
    table = _group(dim, lam, "signed-permutations")
    group = _signed_permutations(shell)
    assert len(table) == len(group) == 2**dim * factorial(dim)
    assert set(map(tuple, table.tolist())) == group
    assert _burnside_orbits(group, dim) == orbits
    leaves = weight = 0
    for _, _, J, stab in _canonical_sets(table, dim):
        leaves += len(J)
        weight += int((len(table) // stab).sum())
    assert leaves == orbits
    assert weight == comb(len(shell), dim)


@pytest.mark.parametrize("dim,lam", [(3, 9), (4, 4), (5, 2)], ids=["3-9", "4-4", "5-2"])
def test_pruned_generation_counts_antipodal_free_subsets(dim, lam):
    """Antipode pruning keeps exactly the antipodal-free orbits; the rest match the closed form.

    Both counts come from a brute-force scan over all dim-subsets, with
    antipodes found by negating plain tuples.
    """
    shell = enumerate_shell(dim, lam)
    n = len(shell)
    pair = [min(i, shell.points.index(negate(p))) for i, p in enumerate(shell.points)]
    free = sum(len({pair[i] for i in S}) == dim for S in combinations(range(n), dim))
    table = _group(dim, lam, "signed-permutations")
    leaves = _canonical_sets(table, dim, _tables(dim, lam).neg)
    weight = sum(int((len(table) // stab).sum()) for *_, stab in leaves)
    assert weight == free
    antipodal = comb(n, dim) - free
    assert comb(n, dim) - 2**dim * comb(n // 2, dim) == antipodal
    assert _exhaustive(shell, dim, "signed-permutations")["skipped_antipodal"] == antipodal


GROUPS = {"B": "signed-permutations", "S": "sign-changes", "T": "trivial"}
# (dim, lam, m, groups): the per-prefix oracle takes about 0.2 ms a prefix, so the
# smaller groups, with many more prefixes, run on the smaller cases only (the
# sign changes would take 1 s on shell(4,12), the trivial group 27 s)
GENERATION_CASES = [
    (4, 12, 4, "B"), (3, 41, 3, "BS"), (3, 41, 4, "B"), (5, 2, 5, "BS"), (6, 1, 6, "BST"),
    (4, 17, 4, "B"), (2, 65, 2, "BST"), (2, 65, 3, "BST"), (3, 9, 3, "BST"), (2, 5, 2, "BST"),
    (2, 25, 2, "BST"), (4, 4, 4, "BST"),
]


def _prefix_sequence(chunks):
    """The per-prefix (P, J, stab) sequence, as lists, of the generator's chunks."""
    return [(tuple(p), J[c == i].tolist(), stab[c == i].tolist())
            for P, c, J, stab in chunks for i, p in enumerate(P.tolist())]


def _oracle_sequence(H, m, neg):
    return [(P, J.tolist(), stab.tolist()) for P, J, stab in reference_canonical_sets(H, m, neg)]


@pytest.mark.parametrize("dim,lam,m,kind,anti", [
    pytest.param(dim, lam, m, GROUPS[g], anti, id=f"{dim}-{lam}-m{m}-{g}{'-anti' if anti else ''}")
    for dim, lam, m, groups in GENERATION_CASES for g in groups for anti in (False, True)
])
def test_level_generation_matches_per_prefix_oracle(dim, lam, m, kind, anti):
    """The level-at-a-time generator's chunks hold the per-prefix oracle's (P, J, stab) sequence."""
    H = _group(dim, lam, kind)
    neg = _tables(dim, lam).neg if anti else None
    assert _prefix_sequence(_canonical_sets(H, m, neg)) == _oracle_sequence(H, m, neg)


@pytest.mark.parametrize(
    "dim,lam,extra,kinds",
    [
        (4, 4, 0, ("signed-permutations", "sign-changes", "trivial")),
        (3, 9, 1, ("signed-permutations", "sign-changes", "trivial")),
        # the trivial group visits all C(40,4) prefixes of shell(5,2): about 25 s
        (5, 2, 0, ("signed-permutations", "sign-changes")),
        # B_6 has 46,080 elements for C(12,5) = 792 prefixes of shell(6,1)
        (6, 1, 0, ("signed-permutations", "sign-changes", "trivial")),
    ],
    ids=["4-4", "3-9-extra1", "5-2", "6-1"],
)
def test_group_choice_does_not_change_reports(dim, lam, extra, kinds):
    """Any subgroup of B_n gives exact tallies: the orbit weights make up the difference."""
    shell = enumerate_shell(dim, lam)
    reports = [_exhaustive(shell, dim + extra, kind) for kind in kinds]
    assert all(report == reports[0] for report in reports[1:])


def test_group_choice_follows_prefix_count_and_table_budget(monkeypatch):
    """B_n when 2^n n! <= C(N, m - 1) and its tables fit TABLE_BYTES, else its sign changes.

    The tables are B_n's index table and its inverse (int32 each) and the
    generator's bit words (one uint64 per element, threshold 0..N and 64
    points). Shell(6,1)'s B_6 tables (9.2 MB) fit, but its 46,080 elements
    outnumber the C(12,5) = 792 prefixes; B_8 on shell(8,1) would also take
    2^8 * 8! * 16 int32 = 660 MB for its index table alone.
    """
    built = []

    def recording_group(dim, lam, kind):
        built.append((dim, lam, kind))
        return _group(dim, lam, kind)

    monkeypatch.setattr(lemma, "_group", recording_group)
    for dim, lam in [(4, 12), (5, 2), (6, 1)]:
        verify_lemma(enumerate_shell(dim, lam), mode="exhaustive")
    assert 4 * 2**6 * factorial(6) * (12 + 12) + 8 * 2**6 * factorial(6) * 13 <= TABLE_BYTES
    assert 2**6 * factorial(6) > comb(12, 5)
    shell = enumerate_shell(8, 1)
    report = verify_lemma(shell, mode="exhaustive")
    assert built == [(4, 12, "signed-permutations"), (5, 2, "signed-permutations"),
                     (6, 1, "sign-changes"), (8, 1, "sign-changes")]
    assert report.simplices_checked == 256  # one point of each of the 8 antipodal pairs
    assert report.skipped_antipodal == comb(16, 8) - 256 == 12614
    assert report.skipped_degenerate == 0
    # B_5's tables on shell(5,2): 4 * 3840 * 40 bytes each for H and its inverse,
    # 8 * 3840 * 41 for the words, 2.5 MB; the index table alone would fit 0.6 MB
    need = 4 * 3840 * 40 * 2 + 8 * 3840 * 41
    for budget, kind in [(need, "signed-permutations"), (need - 1, "sign-changes"),
                         (4 * 3840 * 40, "sign-changes")]:
        monkeypatch.setattr(lemma, "TABLE_BYTES", budget)
        built.clear()
        verify_lemma(enumerate_shell(5, 2), mode="exhaustive")
        assert built == [(5, 2, kind)]


def test_more_vertices_than_antipodal_pairs():
    # shell(2,5) has 4 antipodal pairs: 5 vertices always hold one, 4 vertices
    # avoid them only by taking one point of each pair
    shell = enumerate_shell(2, 5)
    over = verify_lemma(shell, mode="exhaustive", extra_points=3)
    assert (over.simplices_checked, over.skipped_antipodal, over.skipped_degenerate) == (0, 56, 0)
    at = verify_lemma(shell, mode="exhaustive", extra_points=2)
    assert (at.simplices_checked, at.skipped_antipodal, at.skipped_degenerate) == (16, 54, 0)


def test_empty_and_tiny_shells():
    report = verify_lemma(enumerate_shell(2, 3), mode="exhaustive")
    assert report.simplices_checked == 0
    assert not report.violations
    # lambda 0: single point, fewer points than vertices needed
    report = verify_lemma(enumerate_shell(3, 0), mode="exhaustive")
    assert report.simplices_checked == 0


def test_budget_depends_only_on_dimension():
    r1 = verify_lemma(enumerate_shell(3, 9), mode="exhaustive")
    r2 = verify_lemma(enumerate_shell(3, 41), mode="exhaustive")
    assert r1.budget == r2.budget == 4


def test_extra_points_same_budget():
    shell = enumerate_shell(3, 9)
    report = verify_lemma(shell, mode="exhaustive", extra_points=1)
    assert report.budget == 4
    assert report.max_nonedge_count <= 4
    assert not report.violations
    total = report.simplices_checked + report.skipped_antipodal + report.skipped_degenerate
    assert total == comb(len(shell), 4)


def test_exhaustive_guard_directs_to_sampled():
    shell = enumerate_shell(5, 5)
    with pytest.raises(ResourceLimitError, match="sampled"):
        verify_lemma(shell, mode="exhaustive")


def test_sampled_is_deterministic():
    shell = enumerate_shell(5, 5)
    r1 = verify_lemma(shell, mode="sampled", count=2000, seed=11)
    r2 = verify_lemma(shell, mode="sampled", count=2000, seed=11)
    assert r1 == r2
    assert r1.simplices_checked == 2000
    assert r1.max_nonedge_count <= r1.budget
    r3 = verify_lemma(shell, mode="sampled", count=2000, seed=12)
    assert r3.histogram != r1.histogram


def test_sampled_requires_count():
    with pytest.raises(ContractError):
        verify_lemma(enumerate_shell(5, 5), mode="sampled")
    with pytest.raises(ContractError):
        verify_lemma(enumerate_shell(5, 5), mode="bogus")
    with pytest.raises(ContractError, match="extra_points must be >= 0"):
        verify_lemma(enumerate_shell(5, 5), extra_points=-1)


@pytest.mark.parametrize(
    "dim,lam,m",
    [(5, 5, 5), (5, 5, 6), (4, 12, 4), (3, 41, 4)],
    ids=["5-5", "5-5-m6", "4-12", "3-41-m4"],
)
def test_sampled_fast_path_agrees_with_reference(dim, lam, m):
    """The batch kernel's outcome of each drawn subset against the reference classification.

    Antipodal (-1) first, then by affine rank (-2), then the non-edge count
    from the plain set-membership translate scan.
    """
    shell = enumerate_shell(dim, lam)
    rng = np.random.default_rng(dim * 1000 + lam * 10 + m)
    S = _draw_subsets(rng, len(shell), m, 500)
    expected = []
    for idx in S.tolist():
        verts = tuple(shell.points[i] for i in idx)
        if any(negate(a) == b for a, b in combinations(verts, 2)):
            expected.append(-1)
        elif affine_rank(verts) < dim - 1:
            expected.append(-2)
        else:
            translates, edges = _translate_sets(shell, verts)
            expected.append(len(translates) - len(edges))
    assert -1 in expected  # antipodal draws are exercised on every shell
    got = _classify_drawn(_tables(dim, lam), S).tolist()
    bad = [(S[i].tolist(), g, e) for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    assert not bad, bad[:5]


def test_draw_is_uniform_over_every_subset():
    """Every 3-subset of shell(2,5)'s 8 points is drawn, each about equally often.

    With D draws and C(8,3) = 56 subsets, each count is binomial(D, 1/56);
    every one must lie within 5 standard deviations of its mean D/56.
    """
    n, m, draws = len(enumerate_shell(2, 5)), 3, 56_000
    S = _draw_subsets(np.random.default_rng(0), n, m, draws)
    assert n == 8 and S.shape == (draws, m)
    assert (np.diff(S, axis=1) > 0).all()  # sorted rows of distinct indices
    counts = Counter(map(tuple, S.tolist()))
    assert set(counts) == set(combinations(range(n), m))
    mean = draws / comb(n, m)
    sd = (mean * (1 - 1 / comb(n, m))) ** 0.5
    assert all(abs(c - mean) <= 5 * sd for c in counts.values()), counts


@pytest.mark.parametrize("dim,lam", [(2, 65), (3, 41), (4, 12), (5, 5), (6, 1), (3, 0)])
def test_antipode_map_reverses_the_point_order(dim, lam):
    shell = enumerate_shell(dim, lam)
    assert _Tables(shell).neg.tolist() == [shell.points.index(negate(p)) for p in shell.points]


@pytest.mark.parametrize(
    "dim,lam", [(3, 41), (4, 12), (5, 5), (5, 14)], ids=["3-41", "4-12", "5-5", "5-14"]
)
def test_direct_membership_agrees_with_binary_search(dim, lam, monkeypatch):
    """The direct-address table and the sorted-key fallback answer alike, and both are right.

    Queries are uniform keys of the packing box and key(v) +- chord keys of
    the shell; every one must lie in [0, radix^dim), where the table has an
    entry (numpy would wrap a negative index silently). The oracle unpacks
    each key and compares its squared norm with lambda. The sweeps' own
    queries are recorded too and must lie in the box.
    """
    shell = enumerate_shell(dim, lam)
    direct = _Tables(shell)
    monkeypatch.setattr(lemma, "TABLE_BYTES", 0)
    fallback = _Tables(shell)
    bias, radix = direct.spec
    assert direct.member is not None and len(direct.member) == radix**dim <= TABLE_BYTES
    assert fallback.member is None
    rng = np.random.default_rng(lam)
    n = len(shell)
    v, r, q = (rng.integers(n, size=20000) for _ in range(3))
    chord = direct.keys[r] - direct.keys[q]
    queries = np.concatenate([
        rng.integers(radix**dim, size=20000), direct.keys[v] + chord, direct.keys[v] - chord
    ])
    assert queries.min() >= 0 and queries.max() < radix**dim
    hit = direct.on_shell(queries)
    assert (hit == fallback.on_shell(queries)).all()
    rows = unpack_keys(queries, dim, bias, radix)
    assert (hit == ((rows * rows).sum(1) == lam)).all()
    assert hit[20000:].any() and not hit[20000:].all()

    seen = []
    on_shell = _Tables.on_shell

    def recording(self, keys):
        seen.append((int(keys.min(initial=0)), int(keys.max(initial=0))))
        return on_shell(self, keys)

    def sweeps():
        lemma._tables.cache_clear()
        reports = [verify_lemma(shell, mode="sampled", count=300, seed=1)]
        if comb(n, dim) <= lemma.EXHAUSTIVE_GUARD:
            reports.append(verify_lemma(shell, mode="exhaustive"))
        return reports

    try:
        fallback_reports = sweeps()
        monkeypatch.setattr(lemma, "TABLE_BYTES", TABLE_BYTES)
        monkeypatch.setattr(_Tables, "on_shell", recording)
        assert sweeps() == fallback_reports
    finally:
        lemma._tables.cache_clear()
    assert seen and min(lo for lo, _ in seen) >= 0 and max(hi for _, hi in seen) < radix**dim


@st.composite
def _stacks_in_a_flat(draw, max_coord=3):
    """(dim, m, stacks): one stack of m points p0 + sum_j c_j b_j over `span` directions
    b_j, so with repeats, lines and planes, then up to 6 stacks of m points at random."""
    dim = draw(st.integers(2, 5))
    m = draw(st.integers(2, 6))
    span = draw(st.integers(0, dim))
    vec = st.lists(st.integers(-max_coord, max_coord), min_size=dim, max_size=dim)
    origin, basis = draw(vec), draw(st.lists(vec, min_size=span, max_size=span))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=span, max_size=span),
                           min_size=m, max_size=m))
    flat = [[o + sum(c * b[k] for c, b in zip(cs, basis)) for k, o in enumerate(origin)]
            for cs in coeffs]
    return dim, m, [flat] + draw(st.lists(st.lists(vec, min_size=m, max_size=m), max_size=6))


@settings(max_examples=300, deadline=None)
@given(_stacks_in_a_flat())
def test_batched_rank_agrees_with_affine_rank(case):
    """Exact batched rank against `affine_rank` on small tuples, in flats of any dimension."""
    dim, m, stacks = case
    points = np.array(stacks, dtype=np.int64).reshape(len(stacks), m, dim)
    tuples = [tuple(map(tuple, p)) for p in stacks]
    for need in range(1, dim + 1):
        expected = [affine_rank(t) >= need for t in tuples]
        assert _affine_rank_reaches(points, need).tolist() == expected, need


def test_batched_rank_past_the_hadamard_guard_stays_exact(monkeypatch):
    """Entries that could overflow int64 send the batch to `affine_rank`; near the guard int64 runs.

    The stacks lie on lines, planes and 3-flats by construction, so their
    ranks are known without either implementation.
    """
    calls = []
    reference = lemma.affine_rank

    def counting(vertices):
        calls.append(vertices)
        return reference(vertices)

    monkeypatch.setattr(lemma, "affine_rank", counting)
    rng = np.random.default_rng(5)

    def flats(scale):
        stacks, ranks = [], []
        for span in range(4):
            for _ in range(10):
                basis = rng.integers(-scale, scale + 1, size=(span, 4))
                coeffs = rng.integers(-1, 2, size=(4, span))
                stacks.append(coeffs @ basis if span else np.zeros((4, 4), dtype=np.int64))
                ranks.append(reference(tuple(map(tuple, stacks[-1].tolist()))))
        assert sorted(set(ranks)) == [0, 1, 2, 3]
        return np.array(stacks, dtype=np.int64), ranks

    # |entries| up to 10^9: 2 (2 e^2)^2 for need 3 is far past 2^63
    big, ranks = flats(10**9 // 6)
    assert _affine_rank_reaches(big, 3).tolist() == [r >= 3 for r in ranks]
    assert len(calls) == len(big)
    assert _affine_rank_reaches(big, 2).tolist() == [r >= 2 for r in ranks]  # int64: 2 e^2 fits
    # |entries| below 30,000: 2 (2 e^2)^2 < 2^63, so int64 elimination alone decides
    calls.clear()
    near, ranks = flats(5000)
    assert np.abs(near[:, 1:] - near[:, :1]).max() <= 30000
    assert _affine_rank_reaches(near, 3).tolist() == [r >= 3 for r in ranks]
    assert not calls


@pytest.mark.parametrize("chunk", [1, 2**30], ids=["1", "2^30"])
def test_chunk_budget_does_not_change_reports(chunk, monkeypatch):
    """Chunks of one subset and one chunk for everything give the default chunks' reports.

    The canonical-subset generator, which tests one prefix a chunk at the
    smallest budget and a whole level at once at the largest, yields the
    default chunks' sequence too.
    """
    sweeps = [
        (enumerate_shell(4, 12), dict(mode="exhaustive")),
        (enumerate_shell(3, 9), dict(mode="exhaustive", extra_points=1)),
        (enumerate_shell(5, 5), dict(mode="sampled", count=1000, extra_points=1)),
    ]
    H, neg = _group(4, 12, "signed-permutations"), _tables(4, 12).neg
    expected = [verify_lemma(shell, **kwargs) for shell, kwargs in sweeps]
    prefixes = _prefix_sequence(_canonical_sets(H, 4, neg))
    monkeypatch.setattr(lemma, "CHUNK_ELEMENTS", chunk)
    assert [verify_lemma(shell, **kwargs) for shell, kwargs in sweeps] == expected
    assert _prefix_sequence(_canonical_sets(H, 4, neg)) == prefixes


def test_exhaustive_sweep_peak_memory_stays_small():
    """A warm B_4 sweep of shell(4,12) peaks below 4 MiB under tracemalloc.

    Levels of prefixes and their leaves are handled in chunks; handling a
    level at once would peak at about 13 MiB.
    """
    shell = enumerate_shell(4, 12)
    _exhaustive(shell, 4, "signed-permutations")  # builds the tables and the group
    peak, raised = peak_bytes_of(lambda: _exhaustive(shell, 4, "signed-permutations"))
    assert raised is None
    assert peak < 4 * 2**20


def test_unpackable_shell_is_refused():
    # the 30 points +-3 e_i of shell(15, 9), without enumerating its 4,495,430 points:
    # keys over |c| <= 3*isqrt(9) = 9 need 19^15 > 2^62
    points = []
    for i in range(15):
        for s in (-3, 3):
            p = [0] * 15
            p[i] = s
            points.append(tuple(p))
    points.sort()
    with pytest.raises(ResourceLimitError, match="int64"):
        _Tables(SphereShell(dim=15, lam=9, points=tuple(points), index=frozenset(points)))


def test_partial_shell_is_refused(monkeypatch):
    # 6 pairs and none antipodal: swept as given they would not report 2 antipodal
    points = ((0, 5), (3, 4), (4, 3), (5, 0))
    partial = SphereShell(dim=2, lam=25, points=points, index=frozenset(points))
    for kwargs in (dict(mode="exhaustive"), dict(mode="sampled", count=10)):
        with pytest.raises(ContractError, match="differ from the 12 points of shell"):
            verify_lemma(partial, **kwargs)
    # when the enumeration of uncached tables stops at the cap, the subset is
    # still refused for what it is
    monkeypatch.setattr(lattice, "MAX_POINTS", 11)
    lemma._tables.cache_clear()
    for kwargs in (dict(mode="exhaustive"), dict(mode="sampled", count=10)):
        with pytest.raises(ContractError, match=r"the 4 given points differ from the more than "
                                                r"11 points of shell\(2, 25\)"):
            verify_lemma(partial, **kwargs)


def test_threads_do_not_change_results():
    # several vertex orbits, an extra point, rank pruning on shell(5,2), and pairs (m = 2)
    for dim, lam, extra in [(3, 41, 0), (4, 4, 0), (3, 9, 1), (5, 2, 0), (2, 65, 0)]:
        shell = enumerate_shell(dim, lam)
        assert verify_lemma(
            shell, mode="exhaustive", extra_points=extra, threads=2
        ) == verify_lemma(shell, mode="exhaustive", extra_points=extra, threads=1)
    shell5 = enumerate_shell(5, 5)
    assert verify_lemma(shell5, mode="sampled", count=1500, seed=3, threads=2) == verify_lemma(
        shell5, mode="sampled", count=1500, seed=3, threads=1
    )


@pytest.mark.parametrize("dim,lam,args,attempts,batches", [
    (4, 4, dict(mode="exhaustive"), 0, []),
    (5, 5, dict(mode="sampled", count=15000, seed=1, extra_points=1), 17251, [16875, 1024]),
], ids=["exhaustive", "sampled"])
def test_sweeps_run_in_process(monkeypatch, dim, lam, args, attempts, batches):
    """Neither mode opens a worker pool, whatever `threads` asks for.

    A sampled sweep draws and classifies its subsets in batches, here two
    for 15,000 checked simplices; the second stops at the attempt that
    completes the count.
    """
    shell = enumerate_shell(dim, lam)
    expected = verify_lemma(shell, **args, threads=1)
    drawn = []
    classify = lemma._classify_drawn

    def counted(tb, S):
        drawn.append(len(S))
        return classify(tb, S)

    def no_pool(*args, **kwargs):
        raise AssertionError("lemma sweep opened a worker pool")

    monkeypatch.setattr(lemma, "_classify_drawn", counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert verify_lemma(shell, **args, threads=4) == expected
    assert (expected.attempts, drawn) == (attempts, batches)


def test_known_budget_excess_on_4_12_is_reported_and_sound():
    """shell(4,12) genuinely exceeds the 2^(n-1) budget under per-vertex signs.

    Mixed-sign configurations whose sign-flipped vertex sets degenerate into
    a 2-plane admit 9 translate classes against a budget of 8. The sweep
    must surface these verbatim rather than hide them, every reported
    translate must survive an independent re-check, and every excess must
    be sign-flip degenerate by the exact oracle.
    """
    shell = enumerate_shell(4, 12)
    report = verify_lemma(shell, mode="sampled", count=4000, seed=0)
    assert report.max_nonedge_count == 9
    assert report.violations
    for violation in report.violations:
        assert violation.violated
        assert violation.non_edge_count > violation.budget
        verts = violation.simplex.vertices
        assert set(violation.translates) == full_scan_translates(shell, verts)
        assert sign_flip_degenerate(verts)


def test_sign_flip_degenerate_oracle():
    # flipping the first two signs puts all four vertices in {x1 = 3, x2 = 1}
    assert sign_flip_degenerate(((-3, -1, -1, -1), (-3, -1, 1, 1), (3, 1, -1, 1), (3, 1, 1, -1)))
    # coplanar already without a flip
    assert sign_flip_degenerate(((1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1), (1, 1, -1, -1)))
    # three distinct, non-antipodal points of a sphere are never collinear, under any signs
    assert not sign_flip_degenerate(((3, 0, 0), (2, 2, 1), (1, 2, 2)))


def test_sweep_json_schema():
    report = verify_lemma(enumerate_shell(2, 25), mode="exhaustive")
    obj = sweep_to_json(report)
    assert obj["dim"] == 2 and obj["lambda"] == 25 and obj["mode"] == "exhaustive"
    assert obj["checked"] == 60
    assert obj["skipped"] == {"degenerate": 0, "antipodal": 6}
    assert obj["budget"] == 2
    assert obj["violations"] == []
    assert sum(obj["histogram"].values()) == 60
