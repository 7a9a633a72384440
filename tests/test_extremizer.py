import concurrent.futures
import math
import weakref

import numpy as np
import pytest
from conftest import brute_spectrum, normalized_coeffs, run_cli

from torus_spectra import (
    AutocorrelationSpectrum,
    ContractError,
    EigenfunctionCoeffs,
    ExtremizerConfig,
    PointLimitError,
    SphereShell,
    SpectrumEngine,
    bound_constant,
    enumerate_shell,
    extremizer,
    finite_difference_gradient,
    gradient,
    lattice,
    lp_norm,
    maximize,
    objective,
    random_coeffs,
)
from torus_spectra import spectra
from torus_spectra.extremizer import GRAD_ZERO_TOL, _ascend
from torus_spectra.spectra import PairStructure, power_sum


def brute_power(shell, points, p):
    """Independent objective**p: double-loop spectrum from a raw vector."""

    def fn(a):
        raw = {pt: complex(x) for pt, x in zip(points, a)}
        coeffs = EigenfunctionCoeffs.__new__(EigenfunctionCoeffs)
        object.__setattr__(coeffs, "shell", shell)
        object.__setattr__(coeffs, "amplitudes", raw)
        spectrum = brute_spectrum(coeffs)
        return sum(abs(b) ** p for b in spectrum.values())

    return fn


def test_objective_examples():
    shell = enumerate_shell(5, 5)
    assert objective(random_coeffs(shell, 1, "sparse", k=1), 5.0) == pytest.approx(1.0)
    pair_shell = enumerate_shell(2, 1)
    pair = EigenfunctionCoeffs(
        pair_shell, {(1, 0): math.sqrt(0.5), (-1, 0): math.sqrt(0.5)}
    )
    assert objective(pair, 5.0) == pytest.approx((1 + 2.0**-4) ** 0.2)
    uniform = random_coeffs(enumerate_shell(2, 25), 0, "uniform")
    assert objective(uniform, 2.0) <= math.sqrt(5.0)


def test_gradient_requires_p_at_least_two():
    coeffs = random_coeffs(enumerate_shell(2, 25), 0, "gaussian")
    with pytest.raises(ContractError):
        gradient(coeffs, 1.5)


@pytest.mark.parametrize("dim,lam,p", [(2, 25, 2.0), (5, 5, 5.0)])
def test_gradient_matches_finite_differences(dim, lam, p):
    shell = enumerate_shell(dim, lam)
    engine = SpectrumEngine(shell)
    rng = np.random.default_rng(17)
    for _ in range(5):
        coeffs = random_coeffs(shell, int(rng.integers(0, 2**31)), "gaussian")
        a = engine.vector(coeffs)
        g = np.array(list(gradient(coeffs, p).values()))
        fd = finite_difference_gradient(lambda v: engine.power_value(v, p), a)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-5


def test_gradient_matches_brute_force_differences_small_shell():
    # fully independent check: differentiate the double-loop objective
    shell = enumerate_shell(2, 25)
    coeffs = random_coeffs(shell, 23, "gaussian")
    engine = SpectrumEngine(shell)
    a = engine.vector(coeffs)
    g = np.array(list(gradient(coeffs, 2.0).values()))
    fd = finite_difference_gradient(brute_power(shell, engine.points, 2.0), a)
    assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-5


def test_single_point_is_critical_on_sphere():
    shell = enumerate_shell(5, 5)
    coeffs = random_coeffs(shell, 3, "sparse", k=1)
    engine = SpectrumEngine(shell)
    a = engine.vector(coeffs)
    g = np.array([gradient(coeffs, 5.0)[p] for p in engine.points])
    tangential = g - (a.conj() @ g).real * a
    assert np.linalg.norm(tangential) < 1e-8


def test_engine_power_agrees_with_brute_force():
    shell = enumerate_shell(5, 5)
    engine = SpectrumEngine(shell)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(len(engine.points)) + 1j * rng.standard_normal(len(engine.points))
    brute = brute_power(shell, engine.points, 5.0)
    assert engine.power_value(a, 5.0) == pytest.approx(brute(a), rel=1e-12)


def test_maximize_antipodal_support_recovers_equal_mass():
    shell = enumerate_shell(2, 1)
    support = ((1, 0), (-1, 0))
    for p in (2.0, 5.0):
        # independent 1-d oracle over the mass split t
        ts = np.linspace(0.0, 1.0, 20001)
        oracle = (1 + 2 * (ts * (1 - ts)) ** (p / 2)).max() ** (1 / p)
        assert oracle == pytest.approx((1 + 2 * 2.0**-p) ** (1 / p), abs=1e-9)
        report = maximize(
            shell, p, ExtremizerConfig(restarts=3, max_iters=2000, seed=5), support=support
        )
        assert report.best_value == pytest.approx(oracle, abs=1e-6)
        assert set(report.best_coeffs.amplitudes) <= set(support)


def test_maximize_monotone_feasible_and_bounded():
    shell = enumerate_shell(5, 5)
    cfg = ExtremizerConfig(restarts=3, max_iters=800, seed=9)
    report = maximize(shell, 5.0, cfg, keep_history=True)
    assert report.bound_value == pytest.approx(bound_constant(5))
    assert 1.0 - 1e-12 <= report.best_value <= report.bound_value + 1e-9
    assert len(report.runs) == 3
    for run in report.runs:
        hist = run.history
        assert all(b > a for a, b in zip(hist, hist[1:]))
        assert report.best_value >= hist[0] - 1e-12
    # feasibility is enforced by construction of the coefficients
    total = math.fsum(abs(x) ** 2 for x in report.best_coeffs.amplitudes.values())
    assert abs(total - 1.0) < 1e-12


def test_maximize_deterministic_and_thread_invariant():
    shell = enumerate_shell(2, 25)
    cfg = ExtremizerConfig(restarts=4, max_iters=500, seed=21)
    r1 = maximize(shell, 2.0, cfg)
    r2 = maximize(shell, 2.0, cfg)
    assert r1.best_value == r2.best_value
    assert r1.best_coeffs.amplitudes == r2.best_coeffs.amplitudes
    r4 = maximize(shell, 2.0, cfg, threads=2)
    assert r4.best_value == r1.best_value
    assert r4.best_coeffs.amplitudes == r1.best_coeffs.amplitudes


def test_maximize_rejects_empty_shell_and_bad_p():
    with pytest.raises(ContractError):
        maximize(enumerate_shell(3, 7), 3.0)
    with pytest.raises(ContractError, match=r"shell\(3, 7\) is empty"):
        SpectrumEngine(enumerate_shell(3, 7))
    with pytest.raises(ContractError):
        maximize(enumerate_shell(2, 25), 1.5)


def test_config_validation():
    with pytest.raises(ContractError):
        ExtremizerConfig(restarts=0)
    with pytest.raises(ContractError):
        ExtremizerConfig(tol=0.0)
    with pytest.raises(ContractError, match="max_iters must be >= 1"):
        ExtremizerConfig(max_iters=0)


def test_maximize_refuses_partial_shell(monkeypatch):
    points = ((3, 4), (4, 3))
    partial = SphereShell(dim=2, lam=25, points=points, index=frozenset(points))
    with pytest.raises(ContractError, match="differ from the 12 points of shell"):
        maximize(partial, 4.0, ExtremizerConfig(restarts=1, max_iters=10))
    # when the enumeration stops at the cap, the subset is still refused for what it is
    monkeypatch.setattr(lattice, "MAX_POINTS", 11)
    with pytest.raises(ContractError, match=r"the 2 given points differ from the more than 11 "
                                            r"points of shell\(2, 25\)"):
        maximize(partial, 4.0, ExtremizerConfig(restarts=1, max_iters=10))
    # a given shell longer than the cap cannot be checked, and meets the cap itself
    monkeypatch.setattr(lattice, "MAX_POINTS", 1)
    with pytest.raises(PointLimitError, match="more than 1 points"):
        maximize(partial, 4.0, ExtremizerConfig(restarts=1, max_iters=10))


def test_stop_reasons():
    shell = enumerate_shell(5, 5)
    one = maximize(shell, 5.0, ExtremizerConfig(restarts=1), support=(shell.points[0],),
                   keep_history=True).runs[0]
    assert (one.stop, one.iterations, one.converged) == ("tol", 1, True)
    capped = maximize(shell, 5.0, ExtremizerConfig(restarts=1, max_iters=30),
                      keep_history=True).runs[0]
    assert (capped.stop, capped.iterations, capped.converged) == ("max_iters", 30, False)
    # the tolerance is relative to |g| ~ 2p f, so it also fires on a full shell;
    # restart 1 of seed 0 draws its start with seed 1
    runs = maximize(enumerate_shell(2, 65), 4.0, ExtremizerConfig(restarts=2, seed=0),
                    keep_history=True).runs
    assert [(run.stop, run.iterations) for run in runs] == [("stalled", 111), ("tol", 115)]
    stalled = maximize(enumerate_shell(2, 65), 4.0, ExtremizerConfig(restarts=1, seed=0))
    assert stalled.converged is False


def reference_ascend(engine, a0, p, cfg):
    """The two-trial ascent, evaluating every vector from scratch.

    Each iteration tries d/|d| with d = g - 2p a (skipped when |d| is 0 or
    not finite), then g/|g|, and keeps the first that strictly increases
    the value. Returns the number of trials made next to the run.
    """
    a = a0 / np.linalg.norm(a0)
    f, g = engine.power_value_and_gradient(a, p)
    history = [f ** (1.0 / p)]
    converged = False
    iterations = 0
    trials_made = 0
    while iterations < cfg.max_iters:
        iterations += 1
        radial = (a.conj() @ g).real
        if np.linalg.norm(g - radial * a) < cfg.tol * np.linalg.norm(g):
            converged = True
            break
        candidates = []
        d = g - 2.0 * p * a
        d_norm = np.linalg.norm(d)
        if d_norm > 0 and np.isfinite(d_norm):
            candidates.append(d / d_norm)
        candidates.append(g / np.linalg.norm(g))
        accepted = None
        for trial in candidates:
            trials_made += 1
            if engine.power_value(trial, p) ** (1.0 / p) > history[-1]:
                accepted = trial
                break
        if accepted is None:
            break
        a = accepted
        f, g = engine.power_value_and_gradient(a, p)
        history.append(f ** (1.0 / p))
    return a, f, iterations, converged, history, trials_made


def starts(engine, cfg):
    n = len(engine.points)
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("dim,lam,p,restarts,max_iters", [(5, 5, 5.0, 3, 300), (2, 65, 4.0, 4, 5000)])
def test_ascent_matches_from_scratch_reference(dim, lam, p, restarts, max_iters):
    cfg = ExtremizerConfig(restarts=restarts, max_iters=max_iters, seed=0)
    engine = SpectrumEngine(enumerate_shell(dim, lam))
    for a0 in starts(engine, cfg):
        a, f, iterations, stop, history = _ascend(engine, a0, p, cfg, True)
        ref_a, ref_f, ref_iterations, ref_converged, ref_history, _ = reference_ascend(
            engine, a0, p, cfg
        )
        assert np.array_equal(a, ref_a)
        assert (f, iterations, stop == "tol", history) == (
            ref_f, ref_iterations, ref_converged, ref_history
        )


def test_ascent_evaluation_counts(monkeypatch):
    # what a run trace counts as value and gradient evaluations keeps its meaning:
    # no bare values, one gradient per start and per trial (safeguard trials
    # included), and one spectrum per gradient plus the winner's objective
    shell = enumerate_shell(2, 65)
    cfg = ExtremizerConfig(restarts=4, seed=0)
    engine = SpectrumEngine(shell)
    trials = sum(reference_ascend(engine, a0, 4.0, cfg)[-1] for a0 in starts(engine, cfg))
    calls = dict.fromkeys(("power_value", "power_value_and_gradient", "accumulate"), 0)
    for cls, name in ((SpectrumEngine, "power_value"),
                      (SpectrumEngine, "power_value_and_gradient"),
                      (PairStructure, "accumulate")):
        def counted(*args, _fn=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    report = maximize(shell, 4.0, cfg, keep_history=True)
    gradients = trials + cfg.restarts
    assert trials > sum(run.iterations - run.converged for run in report.runs)
    assert calls == {
        "power_value": 0,
        "power_value_and_gradient": gradients,
        "accumulate": gradients + 1,
    }


@pytest.mark.parametrize("threads,expected", [(1, [16, 4]), (2, [16, 4])])
def test_maximize_builds_no_pair_structure_for_the_winner(monkeypatch, threads, expected):
    # from an empty pair cache, the calling process builds the restarts' engine
    # at any thread count, and the winner's objective over its support, and
    # nothing for the winner's coefficients; the restarts' build is freed first
    monkeypatch.setattr(spectra, "_last_pair", None)
    built = []
    init = PairStructure.__init__

    def counted(self, dim, lam, supp):
        assert all(ref() is None for _, ref in built), "an earlier build is still alive"
        init(self, dim, lam, supp)
        built.append((len(supp), weakref.ref(self)))

    monkeypatch.setattr(PairStructure, "__init__", counted)
    report = maximize(enumerate_shell(2, 65), 4.0, ExtremizerConfig(restarts=2, max_iters=50),
                      threads=threads)
    assert [size for size, _ in built] == expected
    # every shell point carries an amplitude, but all except four underflow to 0
    assert tuple(report.best_coeffs.amplitudes) == enumerate_shell(2, 65).points
    assert len(report.best_coeffs.support) == 4


def test_maximize_opens_no_pool(monkeypatch):
    """Restarts run in the calling process whatever `threads` asks for."""
    shell = enumerate_shell(5, 5)
    cfg = ExtremizerConfig(restarts=3, max_iters=40, seed=2)
    expected = maximize(shell, 5.0, cfg, keep_history=True)

    def no_pool(*args, **kwargs):
        raise AssertionError("maximize opened a worker pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = maximize(shell, 5.0, cfg, keep_history=True, threads=4)
    assert report == expected
    assert [run.index for run in report.runs] == [0, 1, 2]


@pytest.mark.parametrize("support,message", [
    (lambda pts: [pts[1], pts[0], pts[1]], r"support point \(-2, 0, -1, 0, 0\) is repeated"),
    (lambda pts: [], "the support is empty"),
    (lambda pts: [pts[0], (2, 1, 0, 0, 0), (9, 0, 0, 0, 0)],
     r"support point \(9, 0, 0, 0, 0\) is not on the shell"),
], ids=["repeated", "empty", "off-shell"])
def test_support_is_refused_before_any_work(monkeypatch, support, message):
    def no_build(*args, **kwargs):
        raise AssertionError("a pair structure was built")

    monkeypatch.setattr(PairStructure, "__init__", no_build)
    shell = enumerate_shell(5, 5)
    with pytest.raises(ContractError, match=message):
        SpectrumEngine(shell, support(shell.points))
    with pytest.raises(ContractError, match=message):
        maximize(shell, 4.0, ExtremizerConfig(restarts=1), support=support(shell.points))


def test_restarts_on_shell_2_65_reach_the_known_maximum():
    # every restart ends at (81/64)^(1/4) = 1.0606601718
    report = maximize(enumerate_shell(2, 65), 4.0, ExtremizerConfig(restarts=4, seed=0),
                      keep_history=True)
    assert len(report.runs) == 4
    for run in report.runs:
        assert run.value == pytest.approx((81 / 64) ** 0.25, abs=1e-10)
        assert all(b > a for a, b in zip(run.history, run.history[1:]))


def test_restarts_on_shell_5_5_leave_the_flat_start():
    # the step that drops the constant b_0 term climbs off f ~ 1 within a few
    # hundred steps; the unshifted step alone is still at 1.00002 after 300
    report = maximize(enumerate_shell(5, 5), 5.0,
                      ExtremizerConfig(restarts=3, max_iters=300, seed=0), keep_history=True)
    assert report.best_value >= 1.06
    for run in report.runs:
        assert run.iterations < 300 and run.stop != "max_iters"
        assert all(b > a for a, b in zip(run.history, run.history[1:]))


# The unmasked power sums: every |b_tau|^p and |b_tau|^(p-2) through pow, as
# numpy computes them with no mask. They are the oracle for `power_sum` and
# `SpectrumEngine._weights`, which skip the terms that would underflow.


def unmasked_power_sum(mags, p):
    return (mags**p).sum()


def unmasked_weights(self, b, mags, p):
    if p == 2:
        return p * b
    scale = np.where(mags < GRAD_ZERO_TOL, 0.0, mags ** (p - 2))
    return p * scale * b


def unmasked_value_and_gradient(engine, a, p):
    b = engine._pairs.accumulate(a)
    mags = np.abs(b)
    s = engine._pairs.size
    matrix = engine._pairs.gather(unmasked_weights(None, b, mags, p)).reshape(s, s)
    return float(unmasked_power_sum(mags, p)), 2.0 * (matrix @ a)


def unmasked_lp_norm(spectrum, p):
    return float(unmasked_power_sum(np.abs(spectrum.values), p) ** (1.0 / p))


def bitwise_equal(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def assert_matches_unmasked(engine, a, p, same=bitwise_equal):
    f, g = engine.power_value_and_gradient(a, p)
    want_f, want_g = unmasked_value_and_gradient(engine, a, p)
    assert same(f, want_f) and same(g, want_g)
    assert same(engine.power_value(a, p), want_f)
    spectrum = AutocorrelationSpectrum(dim=engine.shell.dim, lam=engine.shell.lam,
                                       taus=engine._pairs.taus,
                                       values=engine._pairs.accumulate(a))
    assert same(lp_norm(spectrum, p), unmasked_lp_norm(spectrum, p))


@pytest.mark.parametrize("dim,lam,p,restarts", [(5, 5, 5.0, 8), (2, 65, 4.0, 4)])
def test_power_sums_equal_the_unmasked_ones_on_every_iterate(monkeypatch, dim, lam, p, restarts):
    # the extremize workload's ascents, whose late iterates hold many b_tau
    # below 1e-100; every evaluated vector, so every accepted iterate
    shell = enumerate_shell(dim, lam)
    seen = []
    evaluate = SpectrumEngine.power_value_and_gradient

    def recording(self, a, p):
        seen.append(a.copy())
        return evaluate(self, a, p)

    monkeypatch.setattr(SpectrumEngine, "power_value_and_gradient", recording)
    maximize(shell, p, ExtremizerConfig(restarts=restarts, seed=0))
    monkeypatch.undo()
    engine = SpectrumEngine(shell)
    assert len(seen) > 100
    skipped = 0
    for a in seen:
        assert_matches_unmasked(engine, a, p)
        skipped += int((np.abs(engine._pairs.accumulate(a)) < 1e-100).any())
    assert skipped > 0  # the mask has terms to skip


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0, 5.0, 6.0])
def test_power_sums_equal_the_unmasked_ones_on_tiny_amplitudes(p):
    # four O(1) amplitudes, so b_0 ~ 1, and the rest 1e-80, 1e-160, 1e-320 and 0:
    # products from 1e-80 down to subnormal and 0
    engine = SpectrumEngine(enumerate_shell(5, 5))
    rng = np.random.default_rng(5)
    n = len(engine.points)
    for phase in (1.0, np.exp(0.7j)):
        a = np.resize(np.array([1e-80, 1e-160, 1e-320, 0.0], dtype=np.complex128), n) * phase
        head = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a[rng.choice(n, size=4, replace=False)] = head / np.linalg.norm(head)
        assert_matches_unmasked(engine, a, p)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("p", [2.5, 5.0])
def test_power_sums_propagate_inf_and_nan_as_the_unmasked_ones(bad, p):
    engine = SpectrumEngine(enumerate_shell(2, 65))
    a = np.resize(np.array([0.5, 1e-200, 0.0]), len(engine.points)).astype(np.complex128)
    a[3] = bad
    assert not math.isfinite(engine.power_value(a, p))
    assert_matches_unmasked(engine, a, p, same=lambda x, y: np.array_equal(x, y, equal_nan=True))


def test_power_sum_counts_terms_below_the_normal_range_as_zero():
    # what the mask gives up, only where the whole sum is below 2.2e-308:
    # pow returns subnormals here, which the helper leaves out
    tiny = np.finfo(np.float64).tiny
    for p in (2.0, 5.0):
        floor = tiny ** (1 / p)
        below, above = np.full(3, floor / 2), np.full(3, floor * 2)
        assert power_sum(below, p) == 0.0 < unmasked_power_sum(below, p) < tiny
        assert power_sum(above, p) == unmasked_power_sum(above, p) > tiny
    assert math.isnan(power_sum(np.array([1.0, math.nan, 1e-200]), 3.0))
    assert power_sum(np.array([1.0, math.inf, 1e-200]), 3.0) == math.inf


@pytest.mark.parametrize("command", [
    "extremize --dim 5 --lambda 5 --restarts 8",
    "extremize --dim 2 --lambda 65 --p 4 --restarts 4",
    "spectrum --dim 6 --lambda 6 --random gaussian",
])
def test_stdout_equals_the_unmasked_formulas(monkeypatch, command):
    # no pinned hash: zgemv and SIMD pow kernels differ between CPUs, so the
    # oracle is the same command on the same machine with every power unmasked
    code, out, err = run_cli(command.split())
    monkeypatch.setattr(spectra, "power_sum", unmasked_power_sum)
    monkeypatch.setattr(extremizer, "power_sum", unmasked_power_sum)
    monkeypatch.setattr(SpectrumEngine, "_weights", unmasked_weights)
    assert (code, err) == (0, "")
    assert run_cli(command.split()) == (code, out, err)
