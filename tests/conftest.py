"""Shared independent oracles for the test suite.

Everything here is deliberately naive: box scans, double loops over all
pairs, full scans over difference-vector balls, exact integer minors over
every vertex subset. The production code must agree with these, never the
other way around.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import combinations, product
from math import isqrt

import numpy as np

from torus_spectra import (
    EigenfunctionCoeffs,
    ResourceLimitError,
    SphereShell,
    autocorrelation,
    bound_verdict,
    enumerate_shell,
    lp_norm,
    random_coeffs,
    verify_lemma,
)
from torus_spectra.cli import main
from torus_spectra.jsonfmt import Records, format_float
from torus_spectra.lattice import Point, sign_canonical


def box_points(dim: int, lam: int) -> list[Point]:
    """All lattice points with |p|^2 = lam by scanning the full box."""
    r = isqrt(lam)
    return sorted(
        p for p in product(range(-r, r + 1), repeat=dim) if sum(c * c for c in p) == lam
    )


def brute_spectrum(coeffs: EigenfunctionCoeffs) -> dict[Point, complex]:
    """b_tau by the explicit double loop over all supported pairs."""
    supp = [(p, a) for p, a in sorted(coeffs.amplitudes.items()) if a != 0]
    out: dict[Point, complex] = {}
    for xi, a_xi in supp:
        for eta, a_eta in supp:
            tau = tuple(x - y for x, y in zip(xi, eta))
            out[tau] = out.get(tau, 0.0) + a_xi * a_eta.conjugate()
    return out


@lru_cache(maxsize=8)
def _difference_ball(dim: int, lam: int) -> np.ndarray:
    """Every nonzero integer tau with |tau|^2 <= 4*lam, one row each."""
    r = isqrt(4 * lam)
    axis = np.arange(-r, r + 1, dtype=np.int64)
    taus = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    norms = (taus * taus).sum(axis=1)
    return taus[(norms > 0) & (norms <= 4 * lam)]


def full_scan_translates(shell: SphereShell, verts) -> set[Point]:
    """Admissible translate classes by scanning every tau with |tau|^2 <= 4*lam.

    Vectorized over the ball; v -+ tau is on the shell iff |v -+ tau|^2 = lam,
    so membership needs neither the shell's index nor its enumeration.
    """
    taus = _difference_ball(shell.dim, shell.lam)
    ok = np.ones(len(taus), dtype=bool)
    for v in verts:
        v = np.asarray(v, dtype=np.int64)
        minus = ((v - taus) ** 2).sum(axis=1) == shell.lam
        plus = ((v + taus) ** 2).sum(axis=1) == shell.lam
        ok &= minus | plus
    return {sign_canonical(tuple(int(c) for c in tau)) for tau in taus[ok]}


def _det(rows):
    """Exact determinant by Laplace expansion along the first row.

    Entries are Python ints or integer numpy arrays (evaluated elementwise).
    """
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def _spans_hyperplane(diffs):
    """Whether dim - 1 difference rows of length dim have a nonzero maximal minor."""
    dim = len(diffs[0])
    spans = False
    for cols in combinations(range(dim), dim - 1):
        spans = spans | (_det([[row[c] for c in cols] for row in diffs]) != 0)
    return spans


def sign_flip_degenerate(verts) -> bool:
    """Whether some per-vertex sign choice leaves {eps_i v_i} short of a hyperplane.

    For dim vertices in Z^dim: true when, for some signs eps_i, every maximal
    minor of the rows eps_i v_i - eps_1 v_1 vanishes, i.e. the flipped vertices
    have affine rank below dim - 1. eps_1 = +1 is fixed, since flipping every
    sign preserves rank. Exact integer minors, independent of lemma.affine_rank.
    """
    first, rest = verts[0], verts[1:]
    for signs in product((1, -1), repeat=len(rest)):
        diffs = [[s * x - y for x, y in zip(v, first)] for s, v in zip(signs, rest)]
        if not _spans_hyperplane(diffs):
            return True
    return False


def admissible_subset_count(shell: SphereShell) -> int:
    """Number of dim-point subsets with no antipodal pair that span a hyperplane.

    Exact integer minors over every subset, vectorized over the subsets that
    share their lowest index.
    """
    dim = shell.dim
    pts = np.array(shell.points, dtype=np.int64).reshape(-1, dim)
    n = len(pts)
    antipodal = (pts[:, None, :] == -pts[None, :, :]).all(axis=2)
    total = 0
    for first in range(n):
        rest = np.array(list(combinations(range(first + 1, n), dim - 1)), dtype=np.intp)
        subsets = np.column_stack([np.full(len(rest), first), rest.reshape(-1, dim - 1)])
        ok = np.ones(len(subsets), dtype=bool)
        for a, b in combinations(range(dim), 2):
            ok &= ~antipodal[subsets[:, a], subsets[:, b]]
        d = pts[subsets[:, 1:]] - pts[subsets[:, :1]]
        ok &= _spans_hyperplane([[d[:, r, c] for c in range(dim)] for r in range(dim - 1)])
        total += int(ok.sum())
    return total


def reference_canonical_sets(H: np.ndarray, m: int, neg: np.ndarray | None = None):
    """Orderly generation of canonical m-subsets, depth first in index order.

    The per-prefix generator that `lemma._canonical_sets` replaced: the
    oracle for the (P, J, stab) sequence its chunks hold.

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


def normalized_coeffs(shell: SphereShell, raw: dict[Point, complex]) -> EigenfunctionCoeffs:
    """Construct coefficients from arbitrary nonzero raw amplitudes."""
    total = math.fsum(abs(a) ** 2 for a in raw.values())
    scale = 1.0 / math.sqrt(total)
    return EigenfunctionCoeffs(shell, {p: a * scale for p, a in raw.items()})


def random_raw_coeffs(shell: SphereShell, rng: np.random.Generator) -> EigenfunctionCoeffs:
    """Random complex coefficients over the full shell, test-side construction."""
    raw = {
        p: complex(rng.standard_normal(), rng.standard_normal()) for p in shell.points
    }
    return normalized_coeffs(shell, raw)


def peak_bytes_of(fn):
    """Peak bytes that fn allocates (numpy arrays included), and what it raised."""
    tracemalloc.start()
    try:
        fn()
        raised = None
    except ResourceLimitError as exc:
        raised = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, raised


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def reference_sweep(dim, lam_min, lam_max, random_trials=1, seed=0, lemma_sample=None):
    """The per-lambda loop the `sweep` command ran inline: the oracle for `sweep()`.

    Returns the CSV rows, (dim, lambda, shell_count, lp_value, bound, passed,
    max non-edge count or None, budget) each, and the command's exit code.
    """
    rows, code = [], 0
    for lam in range(lam_min, lam_max + 1):
        shell = enumerate_shell(dim, lam)
        if len(shell) == 0:
            continue
        p = float(dim)
        lp_value = 0.0
        for trial in range(random_trials):
            stream = np.random.SeedSequence([seed, lam, trial]).generate_state(1, np.uint64)
            coeffs = random_coeffs(shell, seed=int(stream[0]), mode="gaussian")
            lp_value = max(lp_value, lp_norm(autocorrelation(coeffs), p))
        bound, passed = bound_verdict(dim, p, lp_value)
        if lemma_sample is not None:
            report = verify_lemma(shell, mode="sampled", count=lemma_sample, seed=seed)
        else:
            try:
                report = verify_lemma(shell, mode="exhaustive")
            except ResourceLimitError:
                report = None
        if not passed or (report is not None and report.violations):
            code = 1
        max_ne = None if report is None else report.max_nonedge_count
        rows.append((dim, lam, len(shell), lp_value, bound, passed, max_ne, 2 ** (dim - 1)))
    return rows, code


def reference_sweep_csv(rows) -> str:
    """CSV text of `reference_sweep` rows, as the `sweep` command wrote it."""
    lines = ["dim,lambda,shell_count,lp_value,bound,passed,max_nonedge_translates,budget"]
    for dim, lam, count, lp_value, bound, passed, max_ne, budget in rows:
        lines.append(",".join([
            str(dim), str(lam), str(count), format_float(lp_value),
            "" if bound is None else format_float(bound), "true" if passed else "false",
            "" if max_ne is None else str(max_ne), str(budget),
        ]))
    return "\n".join(lines) + "\n"


def reference_entries(taus: np.ndarray, values: np.ndarray) -> list[dict]:
    """Spectrum entries as one dict per tau, built element by element: the entries oracle."""
    return [
        {"tau": t, "re": v.real, "im": v.imag}
        for t, v in zip(taus.tolist(), values.tolist())
    ]


def expand_records(obj):
    """`obj` with every `jsonfmt.Records` replaced by the list of dicts it stands for.

    A spectrum's ("tau", "re", "im") records expand through `reference_entries`;
    any other records row by row from their columns' Python values.
    """
    if isinstance(obj, Records):
        if obj.fields == ("tau", "re", "im"):
            taus, re, im = obj.columns
            values = np.empty(len(re), dtype=np.complex128)
            values.real, values.imag = re, im  # exact, signed zeros included
            return reference_entries(taus, values)
        return [dict(zip(obj.fields, row)) for row in zip(*(c.tolist() for c in obj.columns))]
    if isinstance(obj, dict):
        return {k: expand_records(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [expand_records(v) for v in obj]
    return obj


def reference_dumps(obj, pretty: bool = True) -> str:
    """The recursive JSON writer that `jsonfmt.dumps` replaced: the byte oracle."""
    pieces: list[str] = []
    _write(obj, pieces, 0, pretty)
    return "".join(pieces)


def _write(obj, out: list[str], depth: int, pretty: bool) -> None:
    nl = "\n" + "  " * (depth + 1) if pretty else ""
    close_nl = "\n" + "  " * depth if pretty else ""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append("," + nl if i else nl)
            out.append(json.dumps(k))
            out.append(": " if pretty else ":")
            _write(v, out, depth + 1, pretty)
        out.append(close_nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            out.append("," + nl if i else nl)
            _write(v, out, depth + 1, pretty)
        out.append(close_nl + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")
