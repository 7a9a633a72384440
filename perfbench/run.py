"""Benchmark of torus-spectra: one workload per run, every job in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run repeats the workload's fixed job, each time in a fresh process (cold
library caches, as every CLI invocation has), while another job would end
within S seconds; a job longer than S gives one sample. With --trace 0 it reports
the end-to-end metrics; with --trace 1 it alternates untraced and traced
jobs and reports the per-layer metrics. The last stdout line is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
report (environment, sample counts, percentiles, error rate, failed checks),
also written to perfbench/out/. `--workload all` prints a table of the
end-to-end metrics of every workload. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
OUT = HERE / "out"

WORKLOADS = ("lemma-exhaustive", "lemma-sampled", "extremize", "cli-pools", "cli")
# Set-up is timed in this many fresh processes before each job and as many
# after the last one, besides each job's own process. Set-up time follows the
# load on the shared machine from second to second, so the samples are spread
# over the whole run rather than taken in one burst. The short cli jobs take
# one per gap, so that most of their run times jobs: their job_s needs about
# ten samples to be steady.
SETUP_PER_GAP = {"lemma-exhaustive": 6, "lemma-sampled": 6, "extremize": 6,
                 "cli-pools": 1, "cli": 1}
# A run must end within 180 s; no job is started that would end past this.
LIMIT_S = 170.0
END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "best_value": "1"}
LAYER_METRICS = {
    "lattice.enumerate_ms": "ms", "lattice.points": "count",
    "spectra.pair_build_ms": "ms", "spectra.accumulate_ms": "ms",
    "spectra.autocorrelation_ms": "ms", "spectra.taus": "count",
    "lemma.exhaustive.simplices_per_s": "1/s", "lemma.exhaustive.checked": "count",
    "lemma.exhaustive.skipped_antipodal": "count", "lemma.exhaustive.skipped_degenerate": "count",
    "lemma.exhaustive.violations": "count", "lemma.exhaustive.table_build_s": "s",
    "lemma.sampled.ms_per_attempt": "ms", "lemma.sampled.attempts": "count",
    "lemma.sampled.checked": "count", "lemma.sampled.useful_ratio": "ratio",
    "lemma.sampled.skipped_antipodal": "count", "lemma.sampled.skipped_degenerate": "count",
    "extremizer.value_evals": "count", "extremizer.grad_evals": "count",
    "extremizer.value_eval_ms": "ms", "extremizer.grad_eval_ms": "ms",
    "extremizer.iterations": "count", "extremizer.restarts": "count",
    "extremizer.converged_restarts": "count",
    "cli.sweep_s": "s", "cli.lemma_s": "s", "cli.extremize_s": "s", "cli.spectrum_s": "s",
    "cli.shell_s": "s", "cli.pool_overhead_s": "s", "cli.emit_ms": "ms",
    "cli.output_bytes": "bytes", "cli.cpu_s": "s",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TORUS_SPECTRA_THREADS")


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    """Where and on what the run happened. BLAS thread variables are reported, never set."""
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "commit": commit,
    }


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    n = len(values)
    q = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    return {
        "median": statistics.median(values),
        "n": n,
        "samples": values,
        "percentile": {"q": q, "value": statistics.quantiles(values, n=100)[q - 1]}
        if q > 50 else None,
    }


class Runner:
    def __init__(self, workload: str, seed: int, size: str, deadline: float):
        self.workload, self.seed, self.size, self.deadline = workload, seed, size, deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.count = 0

    def job(self, mode: str) -> dict:
        self.count += 1
        run_id = f"{self.workload}-seed{self.seed}-{mode}{self.count}"
        argv = [sys.executable, str(JOB), "--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size, "--mode", mode, "--run-id", run_id, "--out", str(OUT)]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("time limit reached before the job could start")
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{run_id} did not finish within the {LIMIT_S:.0f} s limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{run_id} exited with {proc.returncode}")
        return json.loads(lines[-1])

    def repeat(self, modes: tuple[str, ...], seconds: float) -> list[list[dict]]:
        """Run the modes in turn while another round, as long as the last, would
        end within `seconds`; at least one round."""
        rounds = []
        end = min(time.perf_counter() + seconds, self.deadline)
        while True:
            t = time.perf_counter()
            rounds.append([self.job(m) for m in modes])
            now = time.perf_counter()
            if now + (now - t) > end:
                return rounds


def tally(checks: list[tuple[str, bool]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, names of the failed checks); error_rate = failed / attempted."""
    failed = [name for name, ok in checks if not ok]
    return len(checks), len(failed), sorted(set(failed))


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (full report, result line)."""
    runner = Runner(workload, seed, size, time.perf_counter() + LIMIT_S)
    OUT.mkdir(exist_ok=True)
    env = environment(seed)
    timings = {}
    if trace:
        rounds = runner.repeat(("plain", "trace"), seconds)
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        probe = runner.job("probe")
        jobs = plain + traced + [probe]
        layers = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        layers.update(probe["layers"])
        layers["trace.overhead_s"] = (statistics.median(t["job_s"] for t in traced)
                                      - statistics.median(p["job_s"] for p in plain))
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        timings["plain.job_s"] = summary([p["job_s"] for p in plain])
        timings["traced.job_s"] = summary([t["job_s"] for t in traced])
        timings.update({"self_s." + k: summary([t["self_s"].get(k, 0.0) for t in traced])
                        for k in traced[0]["self_s"]})
    else:
        gap = SETUP_PER_GAP[workload]
        rounds = runner.repeat(("setup",) * gap + ("plain",), seconds)
        jobs = [r[-1] for r in rounds]
        setups = [s for r in rounds for s in r[:-1]]
        setups += [runner.job("setup") for _ in range(gap)]
        samples = {
            "job_s": [j["job_s"] for j in jobs],
            "setup_s": [s["setup_s"] for s in setups + jobs],
            "peak_rss_mib": [j["peak_rss_mib"] for j in jobs],
            # a job that raised has no best value; its failed check already marks the run
            "best_value": [j["best_value"] for j in jobs if "best_value" in j] or [0.0],
        }
        timings = {k: summary(v) for k, v in samples.items()}
        metrics = {k: {"value": timings[k]["median"], "unit": u} for k, u in END_TO_END.items()}
    attempted, n_failed, failed = tally(
        [(name, ok) for j in jobs for name, ok in j.get("checks", [])])
    result = {
        "correct": attempted > 0 and n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "jobs": len(jobs), "env": env, "timings": timings,
        "error_rate": n_failed / attempted if attempted else 1.0,
        "failed_checks": failed, "result": result,
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report, result


def table(seed: int, seconds: float, size: str) -> dict:
    rows = {}
    print(f"{'workload':18} {'job_s':>10} {'setup_s':>9} {'peak_rss_mib':>13} "
          f"{'error_rate':>11} {'best_value':>11}")
    for w in WORKLOADS:
        report, result = run(w, seed, seconds, False, size)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        row = {"job_s": m["job_s"], "setup_s": m["setup_s"], "peak_rss_mib": m["peak_rss_mib"],
               "error_rate": report["error_rate"]}
        if w == "extremize":
            row["best_value"] = m["best_value"]
        rows[w] = row
        print(f"{w:18} {row['job_s']:10.3f} {row['setup_s']:9.4f} {row['peak_rss_mib']:13.1f} "
              f"{row['error_rate']:11.3g} {row.get('best_value', ''):>11}", flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: small inputs, for the benchmark's own tests")
    opts = ap.parse_args(argv)
    if opts.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "torus_spectra" / "__init__.py").is_file():
        print(f"error: no torus_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if opts.workload == "all":
            print(json.dumps(table(opts.seed, opts.seconds, opts.size)))
            return 0
        report, result = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace), opts.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
