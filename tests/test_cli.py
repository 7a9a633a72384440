import hashlib
import json
import math
import os

import pytest
from conftest import run_cli

from torus_spectra import (
    check_theorem,
    cli,
    coeffs_to_json,
    enumerate_shell,
    lattice,
    random_coeffs,
)


def test_shell_count_only():
    code, out, _ = run_cli(["shell", "--dim", "2", "--lambda", "25", "--count-only"])
    assert code == 0
    assert out.strip() == "12"


def test_shell_empty_count():
    code, out, _ = run_cli(["shell", "--dim", "2", "--lambda", "3", "--count-only"])
    assert code == 0
    assert out.strip() == "0"


def test_shell_json_output():
    code, out, _ = run_cli(["shell", "--dim", "2", "--lambda", "25", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 12
    assert [5, 0] in obj["points"]


def test_shell_bad_dim_exits_2():
    code, _, err = run_cli(["shell", "--dim", "1", "--lambda", "5"])
    assert code == 2
    assert "dim" in err


def test_spectrum_gaussian_dim5():
    code, out, _ = run_cli(
        ["spectrum", "--dim", "5", "--lambda", "5", "--random", "gaussian", "--seed", "1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["lp"]["p"] == 5
    assert obj["lp"]["value"] <= obj["bound"] + 1e-9
    zero = [e for e in obj["entries"] if e["tau"] == [0, 0, 0, 0, 0]]
    assert len(zero) == 1 and abs(zero[0]["re"] - 1.0) < 1e-12


def test_spectrum_and_check_theorem_agree_on_dim2_bound():
    """Library and CLI share one bound policy: sqrt(5) for the l^2 norm in dim 2."""
    code, out, _ = run_cli(
        ["spectrum", "--dim", "2", "--lambda", "25", "--random", "gaussian", "--seed", "0",
         "--json"]
    )
    obj = json.loads(out)
    report = check_theorem(random_coeffs(enumerate_shell(2, 25), seed=0, mode="gaussian"))
    assert report.bound_value == obj["bound"] == pytest.approx(math.sqrt(5))
    assert report.norm_value == obj["lp"]["value"]
    assert report.passed is obj["passed"] is True
    assert code == 0


def test_spectrum_single_point_file(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(
        json.dumps(
            {"dim": 2, "lambda": 25, "coeffs": [{"point": [5, 0], "re": 1.0, "im": 0.0}]}
        )
    )
    code, out, _ = run_cli(["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["lp"]["value"] == pytest.approx(1.0)


def test_spectrum_rejects_denormalized_file(tmp_path):
    path = tmp_path / "half.json"
    amp = math.sqrt(0.5)
    path.write_text(
        json.dumps(
            {"dim": 2, "lambda": 25, "coeffs": [{"point": [5, 0], "re": amp, "im": 0.0}]}
        )
    )
    code, _, err = run_cli(["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", str(path)])
    assert code == 2 and "deviates" in err
    code, out, _ = run_cli(
        ["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", str(path), "--force-normalize"]
    )
    assert code == 0
    assert json.loads(out)["lp"]["value"] == pytest.approx(1.0)


def test_spectrum_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", str(path)])
    assert code == 2 and "cannot read" in err
    code, _, _ = run_cli(["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", "/nonexistent"])
    assert code == 2


def test_spectrum_sparse_mode_with_size():
    code, out, _ = run_cli(
        ["spectrum", "--dim", "2", "--lambda", "25", "--random", "sparse:3", "--seed", "2"]
    )
    assert code == 0
    code, _, err = run_cli(
        ["spectrum", "--dim", "2", "--lambda", "25", "--random", "bogus"]
    )
    assert code == 2 and "random mode" in err
    for mode, message in [("uniform:3", "only sparse takes a size suffix, got 'uniform:3'"),
                          ("sparse:x", "bad sparse size in 'sparse:x'")]:
        code, out, err = run_cli(["spectrum", "--dim", "2", "--lambda", "25", "--random", mode])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_spectrum_refuses_a_file_for_another_shell(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(coeffs_to_json(random_coeffs(enumerate_shell(2, 5), 0))))
    code, out, err = run_cli(["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: coefficient file is for shell(2, 5), not shell(2, 25)\n"


@pytest.mark.parametrize("p", ["nan", "inf", "-inf", "0.5"])
@pytest.mark.parametrize("command", [
    ["spectrum", "--dim", "2", "--lambda", "5", "--random", "gaussian"],
    ["extremize", "--dim", "2", "--lambda", "5", "--restarts", "2"],
])
def test_exponent_outside_its_range_exits_2_before_any_work(command, p, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "autocorrelation", no_work)
    monkeypatch.setattr("torus_spectra.extremizer.SpectrumEngine", no_work)
    code, out, err = run_cli(command + [f"--p={p}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite p >=" in err


def test_lemma_exhaustive_3_9():
    code, out, _ = run_cli(["lemma", "--dim", "3", "--lambda", "9", "--mode", "exhaustive"])
    assert code == 0
    obj = json.loads(out)
    assert obj["max_nonedge_count"] <= 4
    assert obj["violations"] == []


def test_lemma_sampled_5_5():
    code, out, _ = run_cli(
        ["lemma", "--dim", "5", "--lambda", "5", "--mode", "sampled", "--count", "2000",
         "--seed", "3"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["checked"] == 2000
    assert obj["budget"] == 16


def test_lemma_budget_excess_exits_1():
    code, out, _ = run_cli(
        ["lemma", "--dim", "4", "--lambda", "12", "--mode", "sampled", "--count", "4000",
         "--seed", "0"]
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["violations"]
    assert obj["max_nonedge_count"] == 9


def test_lemma_exhaustive_byte_identical_across_threads():
    argv = ["lemma", "--dim", "4", "--lambda", "4"]
    code1, out1, _ = run_cli(argv + ["--threads", "1"])
    code3, out3, _ = run_cli(argv + ["--threads", "3"])
    assert code1 == code3 == 0
    assert out1 == out3
    assert json.loads(out1)["mode"] == "exhaustive"
    # 960 violations, expanded over their orbits
    argv = ["lemma", "--dim", "4", "--lambda", "12"]
    code1, out1, _ = run_cli(argv + ["--threads", "1"])
    code2, out2, _ = run_cli(argv + ["--threads", "2"])
    assert code1 == code2 == 1
    assert out1 == out2
    assert len(json.loads(out1)["violations"]) == 960


# Exit code and sha256 of stdout, pinned from the output before the canonical-subset
# generator ran a level at a time. A deliberate output change updates the hash and
# says so in CHANGES.md.
GOLDEN = [
    ("lemma --dim 4 --lambda 12", 1,
     "0b832485d5b9a29cf94f15302ff4f42c80b4d6d3751979b3d426c7115695b45e"),
    ("lemma --dim 3 --lambda 41", 0,
     "5cc0fc04fc298847e397200904b2bf9ecb753b6481c5d08cd045369a5d21c8c9"),
    ("lemma --dim 3 --lambda 9 --extra-points 1", 0,
     "614fe62e6db0a4d8d29c351d3f0430dd108c8a21c2a09963f96dbd7d15620b8f"),
    ("sweep --dim 2 --lambda-min 1 --lambda-max 100 --random-trials 2", 0,
     "92410b7cf4af11390ebaf675a6fe521af87428b14d5111792196d1c2b0777942"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN,
                         ids=["lemma-4-12", "lemma-3-41", "lemma-3-9-extra1", "sweep-2-1-100"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_stdout(command, code, digest, threads):
    got, out, _ = run_cli(command.split() + ["--threads", threads])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lemma_guard_exits_2():
    code, _, err = run_cli(["lemma", "--dim", "5", "--lambda", "5", "--mode", "exhaustive"])
    assert code == 2
    assert "sampled" in err


def test_extremize_small_run():
    code, out, _ = run_cli(
        ["extremize", "--dim", "5", "--lambda", "5", "--restarts", "2", "--iters", "300",
         "--seed", "1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["best_value"] <= obj["bound"] + 1e-9
    assert obj["gap"] == pytest.approx(obj["bound"] - obj["best_value"])
    assert obj["restarts"] == 2


def test_extremize_empty_shell_exits_2():
    code, _, err = run_cli(["extremize", "--dim", "3", "--lambda", "7"])
    assert code == 2
    assert "empty" in err


def test_extremize_output_round_trips_into_spectrum(tmp_path):
    code, out, _ = run_cli(
        ["extremize", "--dim", "2", "--lambda", "25", "--p", "2", "--restarts", "2",
         "--iters", "300", "--seed", "4"]
    )
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out2, _ = run_cli(
        ["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", str(path), "--p", "2"]
    )
    assert code == 0
    obj = json.loads(out2)
    assert obj["lp"]["value"] == pytest.approx(json.loads(out)["best_value"], abs=1e-9)


def test_sweep_dim2_all_pass(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep", "--dim", "2", "--lambda-min", "1", "--lambda-max", "20",
         "--random-trials", "2", "--seed", "1", "--out", str(out_file)]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "dim,lambda,shell_count,lp_value,bound,passed,max_nonedge_translates,budget"
    rows = [line.split(",") for line in lines[1:]]
    # lambda = 3, 6, 7, ... have no two-square representation
    lams = [int(r[1]) for r in rows]
    assert 3 not in lams and 1 in lams
    for r in rows:
        assert r[5] == "true"
        assert float(r[3]) <= math.sqrt(5) + 1e-9
        assert float(r[4]) == pytest.approx(math.sqrt(5))
        assert r[7] == "2"
        assert r[6] != ""  # exhaustive pair sweeps are feasible here


def test_sweep_empty_range_header_only(capfd):
    code, out, _ = run_cli(["sweep", "--dim", "2", "--lambda-min", "3", "--lambda-max", "3"])
    assert code == 0
    assert out == "dim,lambda,shell_count,lp_value,bound,passed,max_nonedge_translates,budget\n"


def test_sweep_dim5_bound_column(tmp_path):
    out_file = tmp_path / "s5.csv"
    code, _, _ = run_cli(
        ["sweep", "--dim", "5", "--lambda-min", "4", "--lambda-max", "6",
         "--random-trials", "2", "--seed", "2", "--lemma-sample", "500",
         "--out", str(out_file)]
    )
    assert code == 0
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    assert len(rows) == 3
    for r in rows:
        assert float(r[3]) <= 2.384729012866 + 1e-9
        assert float(r[4]) == pytest.approx(2.3847290128661025)
        assert r[7] == "16"


def test_sweep_unwritable_path_exits_2():
    code, _, err = run_cli(
        ["sweep", "--dim", "2", "--lambda-min", "1", "--lambda-max", "2",
         "--out", "/nonexistent-dir/x.csv"]
    )
    assert code == 2
    assert "cannot write" in err


def test_sweep_rejects_inverted_range():
    code, _, _ = run_cli(["sweep", "--dim", "2", "--lambda-min", "5", "--lambda-max", "4"])
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_sweep_rejects_random_trials_below_one(trials):
    # no trial would leave lp_value at 0, below the b_0 = 1 floor, yet "passed"
    code, out, err = run_cli(["sweep", "--dim", "2", "--lambda-min", "1", "--lambda-max", "2",
                              "--random-trials", trials])
    assert (code, out) == (2, "")
    assert "random-trials" in err


@pytest.mark.parametrize("command", ["shell", "lemma", "extremize"])
def test_shell_above_the_point_cap_exits_2(command, monkeypatch):
    # shell(16,16) has 509,145,568 points; the cap stops its enumeration at 101
    monkeypatch.setattr(lattice, "MAX_POINTS", 100)
    code, out, err = run_cli([command, "--dim", "16", "--lambda", "16"])
    assert (code, out) == (2, "")
    assert err == "error: shell(16, 16) has more than 100 points, above the enumeration guard\n"


def test_unexpected_exception_exits_2_with_a_traceback(monkeypatch):
    def broken(args):
        raise RuntimeError("not a library error")

    monkeypatch.setattr(cli, "cmd_shell", broken)
    code, out, err = run_cli(["shell", "--dim", "2", "--lambda", "25"])
    assert (code, out) == (2, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: not a library error\n")


def test_threads_below_one_exits_2():
    code, out, err = run_cli(["shell", "--dim", "2", "--lambda", "25", "--count-only",
                              "--threads", "0"])
    assert (code, out, err) == (2, "", "error: thread count must be >= 1, got 0\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--dim", "2", "--lambda", "25", "--random", "gaussian"],
    ["lemma", "--dim", "2", "--lambda", "25", "--mode", "sampled", "--count", "10"],
    ["extremize", "--dim", "2", "--lambda", "25", "--restarts", "1"],
    ["sweep", "--dim", "2", "--lambda-min", "1", "--lambda-max", "5"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2_with_one_error_line(argv):
    code, out, err = run_cli(argv + ["--seed", "-1"])
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["shell", "--dim", "3", "--lambda", "41"],
        ["spectrum", "--dim", "5", "--lambda", "5", "--random", "gaussian", "--seed", "7"],
        ["lemma", "--dim", "3", "--lambda", "9", "--mode", "exhaustive"],
        ["lemma", "--dim", "5", "--lambda", "5", "--mode", "sampled", "--count", "1000",
         "--seed", "5"],
        ["extremize", "--dim", "5", "--lambda", "5", "--restarts", "2", "--iters", "200",
         "--seed", "3"],
    ],
)
def test_byte_identical_across_runs_and_threads(argv):
    outputs = set()
    for threads in ("1", "4"):
        for _ in range(2):
            code, out, _ = run_cli(argv + ["--threads", threads])
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


def test_sweep_byte_identical_across_threads(tmp_path):
    blobs = set()
    for threads in ("1", "4"):
        for run in range(2):
            path = tmp_path / f"sweep-{threads}-{run}.csv"
            code, _, _ = run_cli(
                ["sweep", "--dim", "2", "--lambda-min", "1", "--lambda-max", "15",
                 "--random-trials", "2", "--seed", "9", "--threads", threads,
                 "--out", str(path)]
            )
            assert code == 0
            blobs.add(path.read_bytes())
    assert len(blobs) == 1


def test_cli_entrypoint_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "torus_spectra", "shell", "--dim", "2", "--lambda", "25",
         "--count-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "12"


def test_extremize_stdout_does_not_depend_on_blas_threads():
    # the gradient's matvec runs in OpenBLAS; its thread count must not reach the report
    import subprocess
    import sys

    import torus_spectra

    src = os.path.dirname(os.path.dirname(torus_spectra.__file__))
    outputs = set()
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "torus_spectra", "extremize", "--dim", "5", "--lambda", "5",
             "--restarts", "8"],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
