"""Autocorrelation spectra of squared eigenfunctions on flat tori.

An eigenfunction with eigenvalue lambda on R^n/Z^n is a trigonometric
polynomial phi(x) = sum_xi a_xi e^{2 pi i <xi, x>} with xi running over the
lattice shell |xi|^2 = lambda. The Fourier coefficients of the density
|phi|^2 live on difference vectors tau = xi - eta:

    b_tau = sum_{xi - eta = tau} a_xi * conj(a_eta),

so with the normalization sum |a_xi|^2 = 1 the zero mode satisfies
b_0 = 1 and the spectrum is Hermitian, b_{-tau} = conj(b_tau). This module
builds coefficient vectors, computes the spectrum exactly over all pairs of
supported frequencies (no FFT; difference vectors are exact integers),
evaluates l^p norms and the closed-form dimensional bound

    C(n) = (2^{2-n} + (5n/4 - 4) 2^n + 5)^{1/n},   n >= 5,

and cross-checks the spectrum against direct grid quadrature of |phi|^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from ._packing import TABLE_BYTES, pack_rows, pack_spec, unpack_keys
from .errors import (
    AliasingError,
    CoefficientFileError,
    ContractError,
    MembershipError,
    RangeError,
    ResourceLimitError,
)
from .jsonfmt import Records
from .lattice import Point, SphereShell, enumerate_shell

# Normalization is enforced to NORM_TOL; all inequality checks against the
# dimensional bounds carry BOUND_SLACK of additive headroom for accumulated
# double-precision rounding.
NORM_TOL = 1e-12
BOUND_SLACK = 1e-9

# Classical uniform bound ||phi||_4 <= 5^(1/4) ||phi||_2 on the 2-torus;
# by Parseval it caps sum |b_tau|^2 at 5 for every normalized phi.
ZYGMUND_L2_BOUND = math.sqrt(5.0)


def _squared_mass(amplitudes) -> float:
    """Exactly rounded sum of |a|^2; inf where that sum overflows."""
    try:
        return math.fsum(a.real * a.real + a.imag * a.imag for a in amplitudes)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class EigenfunctionCoeffs:
    """Complex amplitudes a_xi on a shell with sum |a_xi|^2 = 1.

    Keys must lie on the shell, at least one amplitude must be nonzero, and
    the squared-mass sum must equal 1 within NORM_TOL. Treat as immutable.
    """

    shell: SphereShell
    amplitudes: dict[Point, complex]

    def __post_init__(self) -> None:
        if not self.amplitudes:
            raise ContractError("coefficient vector has no amplitudes")
        for p in self.amplitudes:
            if p not in self.shell.index:
                raise MembershipError(f"amplitude key {p} not on shell({self.shell.dim}, {self.shell.lam})")
        total = _squared_mass(self.amplitudes.values())
        if total == 0.0:
            raise ContractError("all amplitudes are zero")
        if not abs(total - 1.0) <= NORM_TOL:  # NaN fails this comparison too
            raise ContractError(f"squared-mass sum {total!r} deviates from 1 beyond {NORM_TOL}")

    @property
    def support(self) -> tuple[Point, ...]:
        """Points carrying a nonzero amplitude, in canonical (lex) order."""
        return tuple(sorted(p for p, a in self.amplitudes.items() if a != 0))


@dataclass(frozen=True)
class AutocorrelationSpectrum:
    """Map tau -> b_tau, the Fourier coefficients of |phi|^2.

    Stored as aligned arrays (`taus` lexicographically sorted, `values`
    complex); `entries` builds the dict view on each access. Every stored
    tau is a difference of supported shell points, so |tau|^2 <= 4*lambda.
    """

    dim: int
    lam: int
    taus: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> dict[Point, complex]:
        return dict(zip(map(tuple, self.taus.tolist()), self.values.tolist()))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BoundReport:
    p: float
    norm_value: float
    bound_value: float | None
    passed: bool


@dataclass(frozen=True)
class ParsevalResult:
    lhs: float
    rhs: float
    rel_err: float


def random_coeffs(
    shell: SphereShell, seed: int, mode: str = "gaussian", k: int | None = None
) -> EigenfunctionCoeffs:
    """Deterministic seeded coefficient vectors on a non-empty shell.

    mode "uniform": every point gets the same real amplitude 1/sqrt(N).
    mode "gaussian": independent complex standard normals, then normalized.
    mode "sparse": k points chosen without replacement (default k=1), with
    gaussian amplitudes on them, then normalized. The seed, unused by
    "uniform", must be >= 0.
    """
    if len(shell) == 0:
        raise ContractError(f"shell({shell.dim}, {shell.lam}) is empty")
    n = len(shell)
    if mode == "uniform":
        amp = 1.0 / math.sqrt(n)
        return EigenfunctionCoeffs(shell, {p: complex(amp) for p in shell.points})
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if mode == "gaussian":
        chosen = list(range(n))
    elif mode == "sparse":
        k = 1 if k is None else k
        if not 1 <= k <= n:
            raise ContractError(f"sparse support size {k} outside [1, {n}]")
        chosen = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    else:
        raise ContractError(f"unknown mode {mode!r}; expected uniform, gaussian or sparse")
    z = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
    z /= math.sqrt(_squared_mass(z))
    return EigenfunctionCoeffs(shell, {shell.points[i]: complex(a) for i, a in zip(chosen, z)})


# ---------------------------------------------------------------------------
# Spectrum engine: the one owner of a difference-vector index. For a fixed
# ordered support of s points it records, once, which of the s^2 ordered
# pairs lands on which difference vector, and then evaluates spectra, power
# sums and gradients for any number of amplitude vectors on that support.
# `autocorrelation` builds a one-shot engine on its support and drops it; a
# caller that evaluates many vectors on one support keeps one engine.

# Byte budget for one engine's pair index, checked against an estimate from
# the support size before anything is allocated.
PAIR_INDEX_BYTES = 2**30

# |b_tau| below this contributes no gradient term: |b|^p = (|b|^2)^(p/2) is
# non-smooth at 0 for odd p, and zeroing the term avoids NaN without biasing
# generic points. Its weight |b|^(p-2) is never computed: below the tolerance
# the power is often subnormal, numpy's slow path, and would be dropped.
GRAD_ZERO_TOL = 1e-14


class SpectrumEngine:
    """Pair index and vectorized spectrum, value and gradient on a fixed support.

    Amplitude vectors are complex arrays aligned with `points` (by default
    the whole shell, optionally a non-empty sub-support of distinct shell
    points, kept sorted); evaluation works for any vector, normalized or
    not, which also makes the engine the natural target for
    finite-difference checks.

    With k the position of xi_i - xi_j in `taus` (sorted lexicographically),
    pair i*s + j owns the interleaved float bins `bins[2(i*s + j)] = 2k` and
    `bins[2(i*s + j) + 1] = 2k + 1`: the real and imaginary parts of a
    complex array over `taus`. One bincount of the outer products
    a_i conj(a_j), read as floats, then sums both parts of every b_tau at
    once, each bin in pair order, so the result is the exact pair sum in a
    fixed deterministic order; `gather` reads the same bins back per pair.

    The difference keys are key(xi_i) - key(xi_j) + key(0), one outer
    subtraction of the packed points, and k is the rank of the pair's key
    among the distinct keys. When a bool mark and an int64 rank per cell of
    the packing box fit TABLE_BYTES, the marked cells in address order are
    the sorted distinct keys and k is read from the rank table; otherwise
    `np.unique` sorts the keys. `pack_spec` refuses supports whose keys
    do not fit in int64.
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
        s, dim = len(pts), shell.dim
        # Counts difference rows (dim per pair), keys, inv and bins (two), 8 bytes
        # each. The build never forms the rows: it holds keys, inv and bins
        # beside its box table (or np.unique's sort). The rows stay in the estimate
        # on purpose: shrinking it would change which supports, and so which
        # commands, the guard refuses with exit 2.
        need = 8 * s * s * (dim + 4)
        if need > PAIR_INDEX_BYTES:
            raise ResourceLimitError(
                f"support of {s} points too large for dense pair indexing: about {need} bytes, "
                f"above the {PAIR_INDEX_BYTES}-byte guard"
            )
        self.shell = shell
        self.points = pts
        bias, radix = pack_spec(dim, 2 * isqrt(shell.lam))
        packed = pack_rows(np.array(pts, dtype=np.int64).reshape(s, dim), bias, radix)
        box = radix**dim
        keys = np.subtract.outer(packed, packed).reshape(-1)
        keys += (box - 1) // 2  # key(0)
        if 9 * box <= TABLE_BYTES:
            mark = np.zeros(box, dtype=bool)
            mark[keys] = True
            uniq = np.flatnonzero(mark)
            del mark
            rank = np.empty(box, dtype=np.intp)
            rank[uniq] = np.arange(len(uniq))
            inv = rank[keys]
            del rank
        else:
            uniq, inv = np.unique(keys, return_inverse=True)
        del keys
        self.taus = unpack_keys(uniq, dim, bias, radix)
        self.bins = np.empty(2 * s * s, dtype=np.intp)
        np.multiply(inv.reshape(-1), 2, out=self.bins[0::2])
        np.add(self.bins[0::2], 1, out=self.bins[1::2])
        self.size = s
        self.n_taus = len(self.taus)

    def vector(self, coeffs: EigenfunctionCoeffs) -> np.ndarray:
        return np.array([coeffs.amplitudes.get(p, 0.0) for p in self.points], dtype=np.complex128)

    def accumulate(self, a: np.ndarray) -> np.ndarray:
        """b_tau array for amplitude vector `a` aligned with the support."""
        a = np.asarray(a, dtype=np.complex128)
        outer = (a[:, None] * a.conj()[None, :]).reshape(-1)
        sums = np.bincount(self.bins, weights=outer.view(np.float64), minlength=2 * self.n_taus)
        return sums.view(np.complex128)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """values[k] for each pair i*s + j, k the position of xi_i - xi_j; complex128 in."""
        return values.view(np.float64)[self.bins].view(np.complex128)

    def spectrum(self, a: np.ndarray) -> AutocorrelationSpectrum:
        """The spectrum of `a` over every difference of the support, zero values included."""
        return AutocorrelationSpectrum(dim=self.shell.dim, lam=self.shell.lam, taus=self.taus,
                                       values=self.accumulate(a))

    def _weights(self, b: np.ndarray, mags: np.ndarray, p: float) -> np.ndarray:
        if p == 2:
            return p * b
        scale = np.power(mags, p - 2, out=np.zeros_like(mags), where=~(mags < GRAD_ZERO_TOL))
        return p * scale * b

    def power_value(self, a: np.ndarray, p: float) -> float:
        """f = sum |b_tau|^p."""
        return float(power_sum(np.abs(self.accumulate(a)), p))

    def power_value_and_gradient(self, a: np.ndarray, p: float) -> tuple[float, np.ndarray]:
        """f and its gradient."""
        b = self.accumulate(a)
        mags = np.abs(b)
        f = float(power_sum(mags, p))
        matrix = self.gather(self._weights(b, mags, p)).reshape(self.size, self.size)
        return f, 2.0 * (matrix @ a)


def autocorrelation(coeffs: EigenfunctionCoeffs) -> AutocorrelationSpectrum:
    """Fourier coefficients of |phi|^2: b_tau = sum_{xi-eta=tau} a_xi conj(a_eta).

    The entries cover exactly the difference set of the support (values may
    still vanish by cancellation). For normalized input b_0 = 1 up to
    rounding, and Hermitian symmetry b_{-tau} = conj(b_tau) holds to
    rounding accuracy: the pair (i, j) and its transpose contribute
    conjugate terms in matching accumulation order.
    """
    engine = SpectrumEngine(coeffs.shell, coeffs.support)
    return engine.spectrum(engine.vector(coeffs))


def require_exponent(p: float, least: float, caller: str) -> None:
    """Refuse p unless least <= p < inf; NaN fails the comparison and is refused too."""
    if not least <= p < math.inf:
        raise ContractError(f"{caller} requires finite p >= {least:g}, got {p}")


# The smallest normal double. A p-th power below it is subnormal or 0.
_TINY = np.finfo(np.float64).tiny


def power_sum(mags: np.ndarray, p: float) -> np.float64:
    """sum mags**p, with pow called only where the p-th power is a normal double.

    numpy's pow takes 0.14-0.24 us for each element whose result underflows
    below the smallest normal double, against about 4 ns otherwise, and an
    ascent drives most |b_tau| there. Terms with mags < tiny^(1/p) are taken
    as 0: each is below 2.2e-308, against a sum of at least |b_0|^p = 1 on
    a normalized spectrum, and the sum equals the unmasked one bitwise on
    every vector the tests try. Only a sum that is itself below the normal
    range can differ: it reads 0 where pow gives a subnormal. The mask is
    "not below the floor", so NaN and inf still reach pow and propagate.
    At p = 2 numpy's pow squares by multiplying, so there is nothing to skip.
    """
    if p == 2:
        return (mags * mags).sum()
    keep = ~(mags < _TINY ** (1.0 / p))
    return np.power(mags, p, out=np.zeros_like(mags), where=keep).sum()


def lp_norm(spectrum: AutocorrelationSpectrum, p: float) -> float:
    """(sum_tau |b_tau|^p)^(1/p) over all stored entries, tau = 0 included; finite p >= 1."""
    require_exponent(p, 1, "lp_norm")
    return float(power_sum(np.abs(spectrum.values), p) ** (1.0 / p))


def bound_constant(n: int) -> float:
    """The closed-form dimensional constant C(n) for n >= 5.

    Evaluated as 2 * ((5n/4 - 4) + 5*2^-n + 4*4^-n)^(1/n), an exact
    rearrangement that cannot overflow for large n. Tends to 2 as n grows,
    but is not monotone at the low end: it rises from C(5) ~ 2.3847 to a
    peak C(8) ~ 2.5031 before decreasing.
    """
    if n < 5:
        raise RangeError(f"closed-form constant requires dimension >= 5, got {n}")
    return 2.0 * ((1.25 * n - 4.0) + 5.0 * 0.5**n + 4.0 * 0.25**n) ** (1.0 / n)


def applicable_bound(dim: int, p: float) -> float | None:
    """Proven ceiling for the l^p spectrum norm in dimension dim, if one exists.

    p = dim >= 5 gives C(dim); the classical planar case dim = 2, p = 2
    gives sqrt(5). Anything else has no explicit constant here.
    """
    if p == dim and dim >= 5:
        return bound_constant(dim)
    if dim == 2 and p == 2:
        return ZYGMUND_L2_BOUND
    return None


def bound_verdict(dim: int, p: float, value: float) -> tuple[float | None, bool]:
    """(applicable_bound(dim, p), whether value stays within it up to BOUND_SLACK).

    With no applicable bound the verdict trivially passes.
    """
    bound = applicable_bound(dim, p)
    return bound, bound is None or value <= bound + BOUND_SLACK


def check_theorem(coeffs: EigenfunctionCoeffs) -> BoundReport:
    """l^n norm of the spectrum against the dimensional bound.

    Dimension 2 is checked against sqrt(5) and dimensions >= 5 against
    C(n). For dim in {3, 4} the uniform bound has no explicit constant, so
    bound_value is absent and the report trivially passes.
    """
    dim = coeffs.shell.dim
    return _theorem_report(dim, lp_norm(autocorrelation(coeffs), dim))


def _theorem_report(dim: int, norm: float) -> BoundReport:
    """The l^dim norm `norm` of a spectrum, judged against the dimensional bound."""
    bound, passed = bound_verdict(dim, dim, norm)
    return BoundReport(p=float(dim), norm_value=norm, bound_value=bound, passed=passed)


def grid_density(coeffs: EigenfunctionCoeffs, m_grid: int) -> np.ndarray:
    """|phi|^2 sampled on the regular grid x = k/M, k in {0..M-1}^dim.

    Phases are taken from an exact table of M-th roots of unity (the
    exponents reduce mod M), so band-limited quadrature identities hold to
    rounding. Memory guard: M^dim <= 10^8.
    """
    if m_grid < 1:
        raise ContractError(f"grid size must be >= 1, got {m_grid}")
    dim = coeffs.shell.dim
    if m_grid**dim > 10**8:
        raise ResourceLimitError(f"grid of {m_grid}^{dim} samples exceeds the 1e8 guard")
    roots = np.exp(2j * np.pi * np.arange(m_grid) / m_grid)
    ks = np.arange(m_grid)
    phi = np.zeros((m_grid,) * dim, dtype=np.complex128)
    for p in coeffs.support:
        term = np.asarray(coeffs.amplitudes[p], dtype=np.complex128)
        for d, c in enumerate(p):
            shape = [1] * dim
            shape[d] = m_grid
            term = term * roots[(c * ks) % m_grid].reshape(shape)
        phi += term
    return phi.real**2 + phi.imag**2


def min_alias_free_grid(lam: int) -> int:
    """Smallest M satisfying the alias-free condition M > 2*ceil(2*sqrt(lam))."""
    c = isqrt(4 * lam)
    if c * c < 4 * lam:
        c += 1
    return 2 * c + 1


def parseval_check(coeffs: EigenfunctionCoeffs, m_grid: int) -> ParsevalResult:
    """Parseval cross-check: sum |b_tau|^2 against the grid mean of (|phi|^2)^2.

    The integrand |phi|^4 has frequencies bounded by 4*sqrt(lambda), so the
    grid mean equals the integral exactly once M > 2*ceil(2*sqrt(lambda));
    coarser grids alias and are refused.
    """
    if coeffs.shell.dim > 3:
        raise ContractError("parseval_check supports dim <= 3")
    if m_grid < min_alias_free_grid(coeffs.shell.lam):
        raise AliasingError(
            f"grid M={m_grid} aliases |phi|^4 on lambda={coeffs.shell.lam}; "
            f"need M >= {min_alias_free_grid(coeffs.shell.lam)}"
        )
    spectrum = autocorrelation(coeffs)
    lhs = float(np.vdot(spectrum.values, spectrum.values).real)
    density = grid_density(coeffs, m_grid)
    rhs = float(np.mean(density * density))
    return ParsevalResult(lhs=lhs, rhs=rhs, rel_err=abs(lhs - rhs) / max(lhs, 1.0))


# ---------------------------------------------------------------------------
# JSON interchange

# A coefficient file whose squared mass deviates from 1 by more than
# NORM_TOL but at most LOADER_FIX_LIMIT is silently renormalized; larger
# deviations are rejected unless force_normalize is set.
LOADER_FIX_LIMIT = 1e-3


def coeffs_to_json(coeffs: EigenfunctionCoeffs) -> dict:
    """JSON-ready dict in the coefficient-file schema."""
    items = sorted(coeffs.amplitudes.items())
    return {
        "dim": coeffs.shell.dim,
        "lambda": coeffs.shell.lam,
        "coeffs": [
            {"point": list(p), "re": a.real, "im": a.imag} for p, a in items
        ],
    }


def _whole(value, field: str) -> int:
    """A file field as an integer, refusing any value that int() would change."""
    n = int(value)
    if n != value:
        raise ValueError(f"{field} {value!r} is not an integer")
    return n


def _point(coords) -> Point:
    """A file point as integers, refusing any coordinate that int() would change."""
    point = tuple(int(c) for c in coords)
    if point != tuple(coords):
        raise ValueError(f"point {coords!r} has a non-integer coordinate")
    return point


def coeffs_from_json(obj: dict, force_normalize: bool = False) -> EigenfunctionCoeffs:
    """Load a coefficient file object; see LOADER_FIX_LIMIT for the contract.

    Unknown keys are ignored, so any report embedding "dim", "lambda" and a
    "coeffs" list round-trips through this loader.
    """
    try:
        dim = _whole(obj["dim"], '"dim"')
        lam = _whole(obj["lambda"], '"lambda"')
        raw = obj["coeffs"]
        entries = [(_point(e["point"]), complex(float(e["re"]), float(e["im"]))) for e in raw]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CoefficientFileError(f"malformed coefficient file: {exc}") from exc
    if not entries:
        raise CoefficientFileError("coefficient file has no entries")
    shell = enumerate_shell(dim, lam)
    amplitudes: dict[Point, complex] = {}
    for p, a in entries:
        if p in amplitudes:
            raise CoefficientFileError(f"duplicate point {p} in coefficient file")
        if p not in shell.index:
            raise CoefficientFileError(f"point {p} is not on shell({dim}, {lam})")
        amplitudes[p] = a
    total = _squared_mass(amplitudes.values())
    if total == 0.0:
        raise CoefficientFileError("coefficient file has zero total mass")
    if not math.isfinite(total):
        raise CoefficientFileError(f"coefficient file has non-finite squared mass {total!r}")
    dev = abs(total - 1.0)
    if dev > NORM_TOL:
        if dev >= LOADER_FIX_LIMIT and not force_normalize:
            raise CoefficientFileError(
                f"squared mass {total!r} deviates from 1 by {dev:.3e} (limit {LOADER_FIX_LIMIT}); "
                "pass force_normalize to accept"
            )
        scale = 1.0 / math.sqrt(total)
        amplitudes = {p: a * scale for p, a in amplitudes.items()}
    return EigenfunctionCoeffs(shell, amplitudes)


def spectrum_entries_json(spectrum: AutocorrelationSpectrum) -> Records:
    """Spectrum entries as JSON-ready {"tau", "re", "im"} records, taus in canonical order."""
    values = spectrum.values
    return Records(("tau", "re", "im"), (spectrum.taus, values.real, values.imag))
