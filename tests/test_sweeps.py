import pytest
from conftest import reference_sweep, reference_sweep_csv, run_cli

from torus_spectra import ContractError, LemmaSweepReport, SweepRow, sweep

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
