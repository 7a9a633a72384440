"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Two criteria pin what the closed forms and the exact sweep actually
give, each backed by an independent exact check in the test itself: the
dimensional constant rises from n = 5 to a peak at n = 8 before it falls
toward 2 (criterion 2), and shell(4, 12) has 960 verified excesses of the
2^(n-1) translate budget, all sign-flip degenerate (criterion 5). Their
docstrings give the analysis.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from conftest import (
    admissible_subset_count,
    brute_spectrum,
    full_scan_translates,
    random_raw_coeffs,
    run_cli,
    sign_flip_degenerate,
)

from torus_spectra import (
    ExtremizerConfig,
    SpectrumEngine,
    autocorrelation,
    bound_constant,
    enumerate_shell,
    find_translates,
    finite_difference_gradient,
    gradient,
    lp_norm,
    maximize,
    parseval_check,
    random_coeffs,
    validate_simplex,
    verify_lemma,
)
from torus_spectra.lattice import sign_canonical

C5_PRINTED = 2.384729


def record(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_c01_bound_constant_golden_value():
    value = bound_constant(5)
    ok = abs(value - 77.125**0.2) < 1e-12 and round(value, 6) == C5_PRINTED
    assert record("C1 golden constant C(5) = 77.125^(1/5) ~ 2.384729", ok, f"value={value:.9f}")


def closed_form_power(n: int) -> Fraction:
    """C(n)^n = 2^(2-n) + (5n/4 - 4) 2^n + 5, exactly, in the unrearranged form."""
    return Fraction(2) ** (2 - n) + (Fraction(5 * n, 4) - 4) * 2**n + 5


def test_c02_bound_constant_decreases_to_two():
    """C(n) is the documented closed form, peaks at n = 8 and decreases to 2.

    The closed form C(n) = (2^(2-n) + (5n/4 - 4) 2^n + 5)^(1/n) is not
    monotone at the low end: C(5) ~ 2.384729 < C(6) ~ 2.473578 <
    C(7) ~ 2.501565 < C(8) ~ 2.503087, and only from the peak at n = 8 does
    it decrease strictly toward its limit 2 (the n-th root of a polynomial
    times 2^n). A strict
    decrease from n = 6 therefore contradicts the formula itself. The check
    pins instead, on 5 <= n <= 400:
      - bound_constant agrees at 1e-12 relative with the n-th root of an
        exact rational evaluation of C(n)^n, so the rearranged float
        evaluation is the documented formula;
      - the rise from 5 to 8, exactly: C(n) < C(n+1) iff
        (C(n)^n)^(n+1) < (C(n+1)^(n+1))^n in rationals;
      - strict decrease on [8, 400]; the smallest step, about 6.6e-5 near
        n = 400, is far above float rounding;
      - C(n) > 2 throughout and |C(400) - 2| < 0.04 (the gap is ~0.0313).
    """
    values = {n: bound_constant(n) for n in range(5, 401)}
    exact = {n: closed_form_power(n) for n in range(5, 401)}
    worst = max(abs(values[n] / float(exact[n]) ** (1.0 / n) - 1.0) for n in values)
    matches = worst < 1e-12
    rises = all(exact[n] ** (n + 1) < exact[n + 1] ** n for n in range(5, 8))
    decreasing = all(values[n] > values[n + 1] for n in range(8, 400))
    above_two = all(v > 2.0 for v in values.values())
    near_two = abs(values[400] - 2.0) < 0.04
    ok = matches and rises and decreasing and above_two and near_two
    assert record(
        "C2 C(n) is the closed form, rises to its peak at n=8, then decreases toward 2",
        ok,
        f"worst rel err={worst:.1e}, C(5)={values[5]:.6f}, C(6)={values[6]:.6f}, "
        f"C(7)={values[7]:.6f}, C(8)={values[8]:.6f}, C(9)={values[9]:.6f}, "
        f"|C(400)-2|={abs(values[400] - 2):.4f}",
    ), (
        f"matches={matches}, rises={rises}, decreasing={decreasing}, "
        f"above_two={above_two}, near_two={near_two}"
    )


def test_c03_theorem_bound_dim5_random_trials():
    worst = 0.0
    violations = 0
    for lam in (4, 5, 6, 9, 10, 13):
        shell = enumerate_shell(5, lam)
        engine = SpectrumEngine(shell)  # gaussian vectors are supported on the whole shell
        for trial in range(200):
            coeffs = random_coeffs(shell, seed=lam * 1000 + trial, mode="gaussian")
            value = lp_norm(engine.spectrum(engine.vector(coeffs)), 5)
            worst = max(worst, value)
            if value > C5_PRINTED + 1e-9:
                violations += 1
    ok = violations == 0
    assert record(
        "C3 l^5 bound on 1200 gaussian vectors, dim 5",
        ok,
        f"worst={worst:.6f} vs {C5_PRINTED}",
    )


def test_c04_zygmund_l2_budget_dim2():
    worst = 0.0
    violations = 0
    rng = np.random.default_rng(4)
    for lam in (1, 2, 25, 65, 325, 1105):
        shell = enumerate_shell(2, lam)
        for _ in range(200):
            spectrum = autocorrelation(random_raw_coeffs(shell, rng))
            total = float(np.sum(np.abs(spectrum.values) ** 2))
            worst = max(worst, total)
            if total > 5 + 1e-9:
                violations += 1
    ok = violations == 0
    assert record("C4 planar l^2 budget sum|b|^2 <= 5", ok, f"worst={worst:.6f}")


# (violations, max non-edge count) where the exhaustive sweep exceeds the budget
C5_EXCESS = {(4, 12): (960, 9)}
C5_CHECKED_4_12 = 3_085_488
# README's worked counterexample: flipping the first two signs puts all four
# vertices in the 2-plane {x1 = 3, x2 = 1}
C5_WORKED_EXCESS = ((-3, -1, -1, -1), (-3, -1, 1, 1), (3, 1, -1, 1), (3, 1, 1, -1))


def signed_permutations(dim: int):
    """The hyperoctahedral group B_dim as maps of points, 2^dim * dim! of them."""
    for perm in permutations(range(dim)):
        for signs in product((1, -1), repeat=dim):
            yield lambda p, perm=perm, signs=signs: tuple(s * p[i] for i, s in zip(perm, signs))


def chord_classes(verts) -> set:
    """Sign-canonical classes of the simplex's own chords +-(v_i - v_j)."""
    return {sign_canonical(tuple(a - b for a, b in zip(u, v))) for u, v in combinations(verts, 2)}


def rescan_agrees(shell, violation) -> bool:
    """A reported violation against an independent full scan of its translates."""
    verts = violation.simplex.vertices
    scanned = full_scan_translates(shell, verts)
    chords = chord_classes(verts)
    return (
        set(violation.translates) == scanned
        and set(violation.edge_translates) == scanned & chords
        and len(scanned - chords) > violation.budget
        and violation.violated
    )


@pytest.mark.parametrize("dim,lam", [(2, 25), (2, 65), (3, 9), (3, 41), (4, 4), (4, 12)])
def test_c05_lemma_exhaustive(dim, lam):
    """The exhaustive sweep upholds 2^(n-1) wherever the budget argument applies.

    The budget argument gives one translate per sign pattern, by convexity
    uniqueness, only when every sign-flipped vertex set {eps_i v_i} still
    spans a hyperplane. On shell(4, 12) the sweep of all 4-subsets finds 960
    simplices with 9 non-edge translate classes against the budget 2^3 = 8
    (per-vertex signs, edges excluded, tau identified with -tau). All of
    them are sign-flip degenerate: some mixed-sign pattern lands the flipped
    vertices in a 2-plane, where uniqueness fails. The budget holds on the
    other five shells, attained exactly on shell(4, 4).

    The excess is checked, not copied from a run:
      - every subset is tallied exactly once, and the checked count equals
        a naive recount of the admissible subsets by exact minors
        (3,085,488 of C(96, 4) = 3,321,960 on shell(4, 12));
      - every violation's translates and edge classes equal a full scan of
        the difference ball, which leaves more than the budget;
      - every violation is sign-flip degenerate (an exact oracle apart from
        lemma.affine_rank); with the counts above, every simplex that is
        not sign-flip degenerate therefore obeys the budget;
      - the violation set is closed under the signed permutations B_n that
        map each shell to itself, so a dropped or spurious violation shows
        up as a broken orbit;
      - README's worked counterexample is among them, with 9 non-edge
        classes by full scan.
    """
    shell = enumerate_shell(dim, lam)
    report = verify_lemma(shell, mode="exhaustive")
    expected, expected_max = C5_EXCESS.get((dim, lam), (0, None))
    if expected_max is None:
        bounded = report.max_nonedge_count <= report.budget
    else:
        bounded = report.max_nonedge_count == expected_max
    count_ok = len(report.violations) == expected
    tallied = (
        report.simplices_checked + report.skipped_antipodal + report.skipped_degenerate
        == math.comb(len(shell), dim)
    )
    recounted = report.simplices_checked == admissible_subset_count(shell)
    sound = all(rescan_agrees(shell, v) for v in report.violations)
    explained = all(sign_flip_degenerate(v.simplex.vertices) for v in report.violations)
    found = {frozenset(v.simplex.vertices) for v in report.violations}
    symmetric = all(
        frozenset(map(g, verts)) in found for g in signed_permutations(dim) for verts in found
    )
    if (dim, lam) == (4, 12):
        recounted &= report.simplices_checked == C5_CHECKED_4_12
        worked = full_scan_translates(shell, C5_WORKED_EXCESS) - chord_classes(C5_WORKED_EXCESS)
        sound &= frozenset(C5_WORKED_EXCESS) in found and len(worked) == 9
    ok = bounded and count_ok and tallied and recounted and sound and explained and symmetric
    assert record(
        f"C5 exhaustive translate budget on shell({dim},{lam})",
        ok,
        f"checked={report.simplices_checked}, max={report.max_nonedge_count}, "
        f"budget={report.budget}, violations={len(report.violations)} (expected {expected}), "
        f"all sign-flip degenerate={explained}",
    ), (
        f"shell({dim},{lam}): bounded={bounded}, count_ok={count_ok}, tallied={tallied}, "
        f"recounted={recounted}, sound={sound}, explained={explained}, symmetric={symmetric}"
    )


@pytest.mark.parametrize("lam,extra", [(5, 0), (5, 1), (14, 0), (14, 1)])
def test_c06_lemma_sampled_dim5(lam, extra):
    shell = enumerate_shell(5, lam)
    report = verify_lemma(shell, mode="sampled", count=100_000, seed=0, extra_points=extra)
    ok = (
        report.simplices_checked == 100_000
        and not report.violations
        and report.max_nonedge_count <= report.budget
    )
    assert record(
        f"C6 sampled translate budget on shell(5,{lam}), extra_points={extra}",
        ok,
        f"max={report.max_nonedge_count}, budget={report.budget}",
    )


def test_c07_worked_translate_example():
    shell = enumerate_shell(2, 25)
    report = find_translates(validate_simplex(shell, [(5, 0), (4, 3)]))
    ok = (
        report.translates == ((1, -3), (9, 3))
        and report.edge_translates == ((1, -3),)
        and not report.violated
    )
    assert record(
        "C7 worked translate example {(5,0),(4,3)}",
        ok,
        f"translates={report.translates}, edges={report.edge_translates}",
    )


def test_c08_b0_identity_and_hermitian_symmetry():
    shells = {
        2: enumerate_shell(2, 65),
        3: enumerate_shell(3, 41),
        4: enumerate_shell(4, 12),
        5: enumerate_shell(5, 5),
        6: enumerate_shell(6, 6),
    }
    rng = np.random.default_rng(8)
    worst_b0 = worst_sym = 0.0
    for dim, shell in shells.items():
        zero = tuple([0] * dim)
        engine = SpectrumEngine(shell)
        for _ in range(200):
            entries = engine.spectrum(engine.vector(random_raw_coeffs(shell, rng))).entries
            worst_b0 = max(worst_b0, abs(entries[zero] - 1.0))
            worst_sym = max(
                worst_sym,
                max(
                    abs(entries[tuple(-c for c in t)] - b.conjugate())
                    for t, b in entries.items()
                ),
            )
    ok = worst_b0 < 1e-12 and worst_sym < 1e-12
    assert record(
        "C8 b_0 = 1 and Hermitian symmetry on 1000 random vectors",
        ok,
        f"worst |b0-1|={worst_b0:.2e}, worst asymmetry={worst_sym:.2e}",
    )


def test_c09_brute_force_spectrum_oracle():
    shells = [(2, 25), (2, 65), (3, 9), (4, 4), (5, 5)]
    rng = np.random.default_rng(9)
    worst = 0.0
    for dim, lam in shells:
        shell = enumerate_shell(dim, lam)
        assert len(shell) <= 200
        for _ in range(50):
            coeffs = random_raw_coeffs(shell, rng)
            entries = autocorrelation(coeffs).entries
            oracle = brute_spectrum(coeffs)
            assert set(entries) == set(oracle)
            worst = max(worst, max(abs(entries[t] - b) for t, b in oracle.items()))
    ok = worst < 1e-12
    assert record("C9 spectrum equals double-loop oracle (250 inputs)", ok, f"worst={worst:.2e}")


def test_c10_parseval_quadrature():
    rng = np.random.default_rng(10)
    worst = 0.0
    for dim, lam, m_grid in ((2, 25, 64), (3, 9, 32)):
        shell = enumerate_shell(dim, lam)
        for _ in range(20):
            res = parseval_check(random_raw_coeffs(shell, rng), m_grid)
            worst = max(worst, res.rel_err)
    ok = worst < 1e-9
    assert record("C10 Parseval grid quadrature", ok, f"worst rel_err={worst:.2e}")


def test_c11_gradient_finite_difference_check():
    worst = 0.0
    for dim, lam, p in ((2, 25, 2.0), (5, 5, 5.0)):
        shell = enumerate_shell(dim, lam)
        engine = SpectrumEngine(shell)
        for trial in range(100):
            coeffs = random_coeffs(shell, seed=trial, mode="gaussian")
            a = engine.vector(coeffs)
            g = np.array(list(gradient(coeffs, p).values()))
            fd = finite_difference_gradient(lambda v: engine.power_value(v, p), a)
            worst = max(worst, float(np.linalg.norm(g - fd) / np.linalg.norm(g)))
    ok = worst < 1e-5
    assert record("C11 analytic gradient vs central differences (200 points)", ok,
                  f"worst rel err={worst:.2e}")


def test_c12_extremizer_ceiling_and_ascent():
    shell = enumerate_shell(5, 5)
    report = maximize(
        shell, 5.0, ExtremizerConfig(restarts=20, max_iters=5000, seed=1), keep_history=True
    )
    monotone = all(
        all(b >= a - 1e-12 for a, b in zip(run.history, run.history[1:]))
        for run in report.runs
    )
    ceiling = report.best_value <= bound_constant(5) + 1e-9
    # two-point antipodal support: optimizer vs dense 1-d mass-split scan
    ts = np.linspace(0.0, 1.0, 200001)
    p = 5.0
    oracle = float((1 + 2 * (ts * (1 - ts)) ** (p / 2)).max() ** (1 / p))
    pair = maximize(
        enumerate_shell(2, 1), p,
        ExtremizerConfig(restarts=5, max_iters=2000, seed=2),
        support=((1, 0), (-1, 0)),
    )
    recovers = abs(pair.best_value - oracle) < 1e-6
    ok = monotone and ceiling and recovers
    assert record(
        "C12 extremizer: monotone ascent, ceiling, equal-mass recovery",
        ok,
        f"best={report.best_value:.6f} <= {bound_constant(5):.6f}, "
        f"pair={pair.best_value:.9f} vs oracle={oracle:.9f}",
    )


def test_c13_cli_determinism_across_threads(tmp_path):
    commands = [
        ["shell", "--dim", "3", "--lambda", "41"],
        ["spectrum", "--dim", "5", "--lambda", "5", "--random", "gaussian", "--seed", "7"],
        ["lemma", "--dim", "3", "--lambda", "9", "--mode", "exhaustive"],
        ["lemma", "--dim", "5", "--lambda", "5", "--mode", "sampled", "--count", "2000",
         "--seed", "5"],
        ["extremize", "--dim", "5", "--lambda", "5", "--restarts", "3", "--iters", "300",
         "--seed", "3"],
    ]
    ok = True
    for argv in commands:
        outputs = set()
        for threads in ("1", "4"):
            for _ in range(2):
                code, out, _ = run_cli(argv + ["--threads", threads])
                ok &= code == 0
                outputs.add(out)
        ok &= len(outputs) == 1
    blobs = set()
    for threads in ("1", "4"):
        for run in range(2):
            path = tmp_path / f"sweep-{threads}-{run}.csv"
            code, _, _ = run_cli(
                ["sweep", "--dim", "2", "--lambda-min", "1", "--lambda-max", "25",
                 "--random-trials", "2", "--seed", "9", "--threads", threads,
                 "--out", str(path)]
            )
            ok &= code == 0
            blobs.add(path.read_bytes())
    ok &= len(blobs) == 1
    assert record("C13 byte-identical CLI output for threads in {1,4}", ok)
