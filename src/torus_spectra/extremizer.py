"""Maximize the l^p spectrum norm over the unit sphere of amplitudes.

The objective is the l^p norm of the autocorrelation spectrum as a
function of the coefficient vector on a fixed shell, constrained to
sum |a_xi|^2 = 1. Since b_0 = 1 the optimum is at least 1, and for p = n
the dimensional bound C(n) is a proven ceiling; the gap between the
empirical maximum and C(n) is the quantity of interest (sharpness of the
constant is open).

Internally the ascent works on f = sum_tau |b_tau|^p, the p-th power of
the objective: same maximizers, smooth gradient. Writing amplitudes as
real coordinate pairs and packaging the gradient as the complex vector
g_xi = dF/dx_xi + i dF/dy_xi, bilinearity of b gives

    g_xi = 2 p sum_{zeta in S} |b_{xi-zeta}|^(p-2) b_{xi-zeta} a_zeta,

a Hermitian matrix-vector product over the precomputed pair structure.
f is positively homogeneous of degree 2p, so Euler's identity gives
Re<a, g> = 2p f > 0 and the critical points of f on the sphere are
exactly the fixed points of a <- g / |g| (SS-HOPM with shift 0; Kolda &
Mayo, SIAM J. Matrix Anal. Appl. 32(4), 2011).

On the sphere b_0 = sum |a_xi|^2 = 1, so the term |b_0|^p = 1 of f is a
constant there, and its gradient 2p a is radial. Each step therefore
first tries the fixed-point iterate of the non-constant part,
d / |d| with d = g - 2p a (SS-HOPM with shift -2p): it has the same
fixed points on the sphere, and it is not slowed down by the radial term
that dominates g while f is near 1. A negative shift loses the
monotonicity guarantee of the unshifted step, so when that trial does
not strictly increase the objective the unshifted iterate g / |g| is
tried as a safeguard. An iterate is kept only if the objective strictly
increases, so each run's objective sequence is strictly increasing and
every accepted iterate's value and gradient come from one evaluation.
Each restart reports why it stopped: `tol` (tangential gradient below
`tol` times |g|), `stalled` (neither trial increases the objective; the
last iterate is kept) or `max_iters`.

The ascent drives most amplitudes b_tau geometrically towards 0: at late
iterates on shell(5,5) 41% of the 3,133 are below 1e-100. numpy's pow
takes 0.14-0.24 us for each result that underflows below the smallest
normal double (about 2.2e-308), against about 4 ns otherwise. So f is
summed by `spectra.power_sum`, which raises only the |b_tau| whose p-th
power is a normal double and counts the others, each below 2.2e-308
against f >= |b_0|^p = 1, as 0; and the gradient weights are computed
only above GRAD_ZERO_TOL. Values, gradients and iterates are bitwise those
of the unmasked formulas, which the tests keep as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .lattice import Point, SphereShell, enumerate_shell, require_whole
from .spectra import (
    EigenfunctionCoeffs,
    applicable_bound,
    autocorrelation,
    bound_verdict,
    lp_norm,
    pair_structure,
    power_sum,
    require_exponent,
)

# |b_tau| below this contributes no gradient term: |b|^p = (|b|^2)^(p/2) is
# non-smooth at 0 for odd p, and zeroing the term avoids NaN without biasing
# generic points. Its weight |b|^(p-2) is never computed: below the tolerance
# the power is often subnormal, numpy's slow path, and would be dropped.
GRAD_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class ExtremizerConfig:
    restarts: int = 10
    max_iters: int = 5000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ContractError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ContractError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ContractError("tol must be positive")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class AscentRun:
    """One restart: final objective value, iteration count, stop reason.

    `stop` is "tol", "stalled" (neither the shifted nor the unshifted
    fixed-point step would increase the objective, so the last iterate is
    kept) or "max_iters"; the run converged when it stopped on the
    tolerance. `history` (objective value per accepted iterate, starting
    point included, strictly increasing) is kept only when requested.
    """

    index: int
    value: float
    iterations: int
    stop: str
    history: tuple[float, ...] | None = None

    @property
    def converged(self) -> bool:
        return self.stop == "tol"


@dataclass(frozen=True)
class ExtremalReport:
    best_coeffs: EigenfunctionCoeffs
    best_value: float
    bound_value: float | None
    iterations_used: int
    converged: bool
    p: float
    restarts: int
    runs: tuple[AscentRun, ...] | None = None


class SpectrumEngine:
    """Vectorized objective/gradient evaluation on a fixed point support.

    Amplitude vectors are complex arrays aligned with `points` (by default
    the whole shell, optionally a non-empty sub-support of distinct shell
    points, kept sorted); evaluation works for any vector, normalized or
    not, which also makes the engine the natural target for
    finite-difference checks.
    """

    def __init__(self, shell: SphereShell, support: tuple[Point, ...] | None = None):
        if len(shell) == 0:
            raise ContractError(f"shell({shell.dim}, {shell.lam}) is empty")
        pts = shell.points if support is None else tuple(sorted(tuple(q) for q in support))
        if not pts:
            raise ContractError("the support is empty")
        for p in pts:
            if p not in shell.index:
                raise ContractError(f"support point {p} is not on the shell")
        for p, q in zip(pts, pts[1:]):
            if p == q:
                raise ContractError(f"support point {p} is repeated")
        self.shell = shell
        self.points = pts
        arr = np.array(pts, dtype=np.int64).reshape(len(pts), shell.dim)
        self._pairs = pair_structure(shell.dim, shell.lam, arr)

    def vector(self, coeffs: EigenfunctionCoeffs) -> np.ndarray:
        return np.array([coeffs.amplitudes.get(p, 0.0) for p in self.points], dtype=np.complex128)

    def _weights(self, b: np.ndarray, mags: np.ndarray, p: float) -> np.ndarray:
        if p == 2:
            return p * b
        scale = np.power(mags, p - 2, out=np.zeros_like(mags), where=~(mags < GRAD_ZERO_TOL))
        return p * scale * b

    def power_value(self, a: np.ndarray, p: float) -> float:
        """f = sum |b_tau|^p."""
        return float(power_sum(np.abs(self._pairs.accumulate(a)), p))

    def power_value_and_gradient(self, a: np.ndarray, p: float) -> tuple[float, np.ndarray]:
        """f and its gradient."""
        b = self._pairs.accumulate(a)
        mags = np.abs(b)
        f = float(power_sum(mags, p))
        s = self._pairs.size
        matrix = self._pairs.gather(self._weights(b, mags, p)).reshape(s, s)
        return f, 2.0 * (matrix @ a)


def objective(coeffs: EigenfunctionCoeffs, p: float) -> float:
    """l^p norm of the autocorrelation spectrum; pure, requires p >= 1."""
    return lp_norm(autocorrelation(coeffs), p)


def gradient(coeffs: EigenfunctionCoeffs, p: float) -> dict[Point, complex]:
    """Gradient of objective**p in real amplitude coordinates, over all shell points.

    Packaged per point as dF/dx + i*dF/dy. Requires finite p >= 2 (below
    that the power sum is not differentiable where entries vanish).
    """
    require_exponent(p, 2, "gradient")
    engine = SpectrumEngine(coeffs.shell)
    _, g = engine.power_value_and_gradient(engine.vector(coeffs), p)
    return {pt: complex(v) for pt, v in zip(engine.points, g)}


def finite_difference_gradient(fn, a: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a real-valued fn of a complex vector.

    Perturbs each real and imaginary coordinate by +-h and packages the
    result like `gradient` does: d/dx + i*d/dy per entry.
    """
    out = np.empty(len(a), dtype=np.complex128)
    for i in range(len(a)):
        for part, delta in ((0, h), (1, 1j * h)):
            plus = a.copy()
            minus = a.copy()
            plus[i] += delta
            minus[i] -= delta
            d = (fn(plus) - fn(minus)) / (2 * h)
            out[i] = d if part == 0 else out[i] + 1j * d
    return out


def _ascend(engine: SpectrumEngine, a0: np.ndarray, p: float, cfg: ExtremizerConfig,
            keep_history: bool) -> tuple[np.ndarray, float, int, str, list[float] | None]:
    """Safeguarded fixed-point ascent of f on the unit sphere from a0.

    The first trial drops the term |b_0|^p, constant on the sphere where
    b_0 = |a|^2 = 1: d/|d| with d = g - 2p a, SS-HOPM with shift -2p (the
    same fixed points, since 2p a is radial). A negative shift can lose
    monotonicity, so when that trial does not strictly increase the value,
    or |d| is 0 or not finite, the unshifted g/|g| is tried; the run stops
    as `stalled` when neither climbs. Each trial is one
    `power_value_and_gradient` call.
    """
    a = a0 / np.linalg.norm(a0)
    f, g = engine.power_value_and_gradient(a, p)
    value = f ** (1.0 / p)
    history = [value] if keep_history else None
    stop = "max_iters"
    iterations = 0
    while iterations < cfg.max_iters:
        iterations += 1
        radial = (a.conj() @ g).real
        g_norm = np.linalg.norm(g)
        if np.linalg.norm(g - radial * a) < cfg.tol * g_norm:
            stop = "tol"
            break
        d = g - 2.0 * p * a
        d_norm = np.linalg.norm(d)
        trials = (d / d_norm, g / g_norm) if 0 < d_norm < math.inf else (g / g_norm,)
        for trial in trials:
            f_trial, g_trial = engine.power_value_and_gradient(trial, p)
            # compare the objective itself: f can still grow in its last bit
            # while its p-th root, the recorded value, stays put
            value_trial = f_trial ** (1.0 / p)
            if value_trial > value:
                break
        else:
            stop = "stalled"  # numerically stationary: keep the last iterate
            break
        a, f, g, value = trial, f_trial, g_trial, value_trial
        if keep_history:
            history.append(value)
    return a, f, iterations, stop, history


def maximize(
    shell: SphereShell,
    p: float,
    config: ExtremizerConfig | None = None,
    support: tuple[Point, ...] | None = None,
    keep_history: bool = False,
    threads: int = 1,
) -> ExtremalReport:
    """Best-of-restarts safeguarded fixed-point ascent on the sphere (see `_ascend`).

    Restart r draws a gaussian start with seed config.seed + r (restricted
    to `support` when given; off-support gradients vanish, so the support
    is invariant under the ascent). Every restart runs in the calling
    process on one engine, and the winner is selected by (value, restart
    index), so the report is deterministic for a fixed seed. `threads` is
    accepted and changes nothing. `shell` must be the whole enumerated
    shell; a hand-built subset is refused (restrict the ascent with
    `support` instead).
    """
    if len(shell) == 0:
        raise ContractError(f"shell({shell.dim}, {shell.lam}) is empty")
    require_exponent(p, 2, "maximize")
    require_whole(shell, enumerate_shell, "pass the enumerated shell and restrict with support=")
    cfg = config or ExtremizerConfig()
    engine = SpectrumEngine(shell, support)
    points = engine.points
    best = None
    runs = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        a0 = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
        a, f, iterations, stop, history = _ascend(engine, a0, p, cfg, keep_history)
        if best is None or f > best[1]:
            best = (a, f, iterations, stop)
        if keep_history:
            runs.append(AscentRun(index=r, value=f ** (1.0 / p), iterations=iterations,
                                  stop=stop, history=tuple(history)))
    del engine  # the last-build cache frees this build before the winner's is made
    a, _, iterations, stop = best
    scale = 1.0 / math.sqrt(math.fsum((x.real * x.real + x.imag * x.imag) for x in a))
    best_coeffs = EigenfunctionCoeffs(shell, {q: complex(x * scale) for q, x in zip(points, a)})
    return ExtremalReport(
        best_coeffs=best_coeffs,
        best_value=objective(best_coeffs, p),
        bound_value=applicable_bound(shell.dim, p),
        iterations_used=iterations,
        converged=stop == "tol",
        p=p,
        restarts=cfg.restarts,
        runs=tuple(runs) if keep_history else None,
    )


def report_passes_bound(report: ExtremalReport) -> bool:
    return bound_verdict(report.best_coeffs.shell.dim, report.p, report.best_value)[1]
