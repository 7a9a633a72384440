"""Multi-lambda sweeps: the l^n bound check and the translate-budget sweep on
every non-empty shell of a range of eigenvalues, one row per shell."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceLimitError
from .lattice import enumerate_shell
from .lemma import LemmaSweepReport, verify_lemma
from .spectra import BoundReport, SpectrumEngine, _theorem_report, lp_norm, random_coeffs


@dataclass(frozen=True)
class SweepRow:
    """One shell: the check of its largest-norm trial, and its lemma sweep or None if refused."""

    dim: int
    lam: int
    shell_count: int
    theorem: BoundReport
    lemma: LemmaSweepReport | None
    budget: int


def sweep(dim: int, lam_min: int, lam_max: int, random_trials: int = 1, seed: int = 0,
          lemma_sample: int | None = None) -> list[SweepRow]:
    """Rows for the non-empty shells(dim, lambda), lam_min <= lambda <= lam_max.

    Trial t on lambda checks gaussian coefficients seeded from
    SeedSequence([seed, lambda, t]), seed >= 0, one collision-free stream per
    (lambda, t); all trials on lambda share one spectrum engine. The lemma
    sweep is sampled (`lemma_sample` valid simplices, `seed`) when a size is
    given, else exhaustive, and None when refused.
    """
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    if lam_min > lam_max:
        raise ContractError(f"lambda-min {lam_min} exceeds lambda-max {lam_max}")
    if random_trials < 1:
        raise ContractError(f"random-trials must be >= 1, got {random_trials}")
    rows = []
    for lam in range(lam_min, lam_max + 1):
        shell = enumerate_shell(dim, lam)
        if len(shell) == 0:
            continue
        seeds = (np.random.SeedSequence([seed, lam, t]).generate_state(1, np.uint64)[0]
                 for t in range(random_trials))
        engine = SpectrumEngine(shell)  # gaussian trials are supported on the whole shell
        theorem = _theorem_report(dim, max(
            lp_norm(engine.spectrum(engine.vector(random_coeffs(shell, seed=int(s)))), dim)
            for s in seeds))
        del engine  # frees the pair index before the lemma sweep builds its tables
        if lemma_sample is not None:
            lemma = verify_lemma(shell, mode="sampled", count=lemma_sample, seed=seed)
        else:
            try:
                lemma = verify_lemma(shell)
            except ResourceLimitError:
                lemma = None
        rows.append(SweepRow(dim, lam, len(shell), theorem, lemma, 2 ** (dim - 1)))
    return rows
