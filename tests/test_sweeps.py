import weakref

import pytest
from conftest import reference_sweep, reference_sweep_csv, run_cli

from torus_spectra import (
    ContractError,
    LemmaSweepReport,
    SpectrumEngine,
    SweepRow,
    enumerate_shell,
    lemma,
    sweep,
    sweeps,
)

# (dim, lambda-min, lambda-max, random trials, seed, lemma sample)
CASES = [
    (2, 1, 30, 2, 3, None),
    (3, 1, 20, 1, 0, 200),
    (5, 4, 6, 2, 2, None),  # exhaustive guard refuses all three: blank lemma column
]


def flat(row: SweepRow) -> tuple:
    lemma = None if row.lemma is None else row.lemma.max_nonedge_count
    t = row.theorem
    return (row.dim, row.lam, row.shell_count, t.norm_value, t.bound_value, t.passed, lemma,
            row.budget)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_sweep_rows_and_csv_match_the_inline_loop(case):
    dim, lo, hi, trials, seed, sample = case
    expected, code = reference_sweep(dim, lo, hi, trials, seed, sample)
    rows = sweep(dim, lo, hi, random_trials=trials, seed=seed, lemma_sample=sample)
    assert [flat(row) for row in rows] == expected
    assert all(type(row.theorem.norm_value) is float for row in rows)
    for row in rows:
        assert row.lemma is None or isinstance(row.lemma, LemmaSweepReport)
        assert row.lemma is None or row.lemma.mode == ("exhaustive" if sample is None else "sampled")
    argv = ["sweep", "--dim", str(dim), "--lambda-min", str(lo), "--lambda-max", str(hi),
            "--random-trials", str(trials), "--seed", str(seed), "--threads", "1"]
    if sample is not None:
        argv += ["--lemma-sample", str(sample)]
    assert run_cli(argv) == (code, reference_sweep_csv(expected), "")


def test_sweep_leaves_the_lemma_column_blank_past_the_exhaustive_guard():
    # shell(4,13) has 112 points, C(112,4) = 6.2e6 subsets, within the 10^7 guard;
    # shell(4,14) has 192 points, C(192,4) = 5.5e7, beyond it. Like shell(4,12),
    # shell(4,13) holds excesses of the budget 8, so the command exits 1.
    code, out, err = run_cli(["sweep", "--dim", "4", "--lambda-min", "13", "--lambda-max", "14",
                              "--threads", "1"])
    assert (code, err) == (1, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[1], r[2], r[6], r[7]) for r in rows] == [("13", "112", "13", "8"),
                                                        ("14", "192", "", "8")]
    assert out == reference_sweep_csv(reference_sweep(4, 13, 14)[0])


@pytest.mark.parametrize("lo,hi,trials,message", [
    (5, 4, 1, "lambda-min 5 exceeds lambda-max 4"),
    (1, 2, 0, "random-trials must be >= 1, got 0"),
])
def test_sweep_refuses_bad_ranges_and_trials(lo, hi, trials, message):
    with pytest.raises(ContractError, match=message):
        sweep(2, lo, hi, random_trials=trials)


def test_sweep_builds_one_engine_per_shell_and_frees_it_before_the_lemma(monkeypatch):
    # both gaussian trials on a shell share its engine, and the pair index is
    # gone before that shell's lemma sweep starts; `reference_sweep` above,
    # one autocorrelation per trial, stays the independent oracle of the values
    built, lemma_calls = [], []
    init, verify = SpectrumEngine.__init__, sweeps.verify_lemma

    def counted(self, shell, support=None):
        init(self, shell, support)
        built.append((shell.lam, self.size, weakref.ref(self)))

    def verify_after_release(shell, *args, **kwargs):
        lemma_calls.append((shell.lam, [ref() is None for _, _, ref in built]))
        return verify(shell, *args, **kwargs)

    monkeypatch.setattr(SpectrumEngine, "__init__", counted)
    monkeypatch.setattr(sweeps, "verify_lemma", verify_after_release)
    rows = sweep(2, 1, 30, random_trials=2)
    shells = [(lam, len(enumerate_shell(2, lam))) for lam in range(1, 31)]
    shells = [(lam, n) for lam, n in shells if n]
    assert [(row.lam, row.shell_count) for row in rows] == shells
    assert [(lam, size) for lam, size, _ in built] == shells
    assert lemma_calls == [(lam, [True] * (i + 1)) for i, (lam, _) in enumerate(shells)]


def test_lemma_sweeps_never_hold_two_tables_at_once(monkeypatch):
    # each shell's sweep frees its tables (about 14 MB on each of these
    # shells) before the next shell's sweep builds its own
    built, alive = [], []
    init = lemma._Tables.__init__

    def recorded(self, shell):
        alive.append(sum(ref() is not None for ref in built))
        init(self, shell)
        built.append(weakref.ref(self))

    monkeypatch.setattr(lemma._Tables, "__init__", recorded)
    rows = sweep(4, 101, 106, lemma_sample=200)
    assert all(row.lemma is not None for row in rows)
    assert alive == [0] * len(rows)
