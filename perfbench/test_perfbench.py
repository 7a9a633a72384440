"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import job
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"]
                                                                    for m in wanted}
    report = json.loads(report_line)
    assert report["error_rate"] == 0
    assert set(report["env"]) >= {"nproc", "cpu_model", "python", "numpy", "blas",
                                  "threads_env", "seed", "commit"}


def test_spec_names_what_the_benchmark_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(
        run.LAYER_METRICS, **{"trace.overhead_s": "s"})
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def _exhaustive(**changes):
    good = dict(simplices_checked=3085488, skipped_antipodal=208680, skipped_degenerate=27792,
                max_nonedge_count=9, violations=(SimpleNamespace(violated=True),) * 960)
    return SimpleNamespace(**dict(good, **changes))


def _sampled(**changes):
    good = dict(simplices_checked=10, attempts=12, histogram={3: 6, 4: 4}, max_nonedge_count=4)
    return [SimpleNamespace(**dict(good, **changes))]


BROKEN = {
    "lemma-exhaustive": (job.build_args("lemma-exhaustive", 0, "full"), _exhaustive(),
                         _exhaustive(violations=(SimpleNamespace(violated=False),) * 960)),
    "lemma-sampled": ({"runs": [(5, 5, 0, 10)]}, _sampled(), _sampled(histogram={3: 9})),
    "extremize": ({"runs": [(5, 5, 5.0, None)]}, [SimpleNamespace(best_value=1.0625)],
                  [SimpleNamespace(best_value=2.5)]),
    "cli": (None, [("shell", 0, '{"count": 1}', 0.1), ("sweep", 0, job.SWEEP_HEADER + "\n"
                                                       + ",".join("1" * 8) + "\n", 0.1)],
            [("shell", 0, '{"count": 1}', 0.1), ("sweep", 0, "dim,lambda\n1,2\n", 0.1)]),
}
BROKEN["cli-pools"] = BROKEN["cli"]


@pytest.mark.parametrize("workload", sorted(BROKEN))
def test_broken_invariant_raises_error_rate(workload):
    args, good, broken = BROKEN[workload]
    assert run.tally(job.check(workload, args, good))[1] == 0
    attempted, failed, names = run.tally(job.check(workload, args, broken))
    assert failed / attempted > 0 and names


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "extremize", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
