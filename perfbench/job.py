"""One job of a benchmark workload, in a fresh process started by run.py.

    python3 perfbench/job.py --workload NAME --seed N --size full|smoke \
        --mode setup|plain|trace|probe --run-id ID --out DIR

  setup  import the library, build the job's argument lists and stop;
  plain  then run the job once, untraced, and check its outputs;
  trace  run the job with spans around each layer call (spans go to DIR);
  probe  run the layer probes, cold and warm calls that isolate one layer.

Every process starts with cold library caches, as every CLI invocation
does. The last line on stdout is one JSON object with what was measured.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (its import is part of set-up)
import torus_spectra  # noqa: E402
from torus_spectra import cli, extremizer, jsonfmt, lattice, lemma, spectra  # noqa: E402

from run import LAYER_METRICS, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

SWEEP_HEADER = "dim,lambda,shell_count,lp_value,bound,passed,max_nonedge_translates,budget"
POOLED = ("sweep", "lemma", "extremize")

# Exact counts of the exhaustive sweep. shell(4,12) holds 960 genuine
# excesses of the 2^(n-1) budget: they are expected, not failures.
EXHAUSTIVE = {
    "full": dict(dim=4, lam=12, checked=3085488, antipodal=208680, degenerate=27792,
                 max_ne=9, violations=960),
    "smoke": dict(dim=4, lam=4, checked=7704, antipodal=2706, degenerate=216,
                  max_ne=8, violations=0),
}
# (dim, lambda, extra_points, count) per sampled sweep
SAMPLED = {
    "full": [(5, 14, 0, 15000), (5, 5, 1, 15000)],
    "smoke": [(5, 14, 0, 200), (5, 5, 1, 200)],
}
# (dim, lambda, p, restarts, max_iters) per maximize call. The starts are
# fixed, not drawn from the workload seed: one restart on shell(5,5) costs
# 0.26 s to 1.8 s depending on its start, so seeded starts would move job_s
# by more than any bound between seeds.
EXTREMIZE = {
    "full": [(5, 5, 5.0, 8, 5000), (2, 65, 4.0, 4, 5000)],
    "smoke": [(5, 5, 5.0, 1, 30), (2, 65, 4.0, 1, 30)],
}
EXTREMIZE_START_SEED = 0
CLI = {
    "full": [
        ("sweep", "sweep --dim 2 --lambda-min 1 --lambda-max 100 --random-trials 2 --seed {seed}"),
        ("lemma", "lemma --dim 3 --lambda 41"),
        ("extremize", "extremize --dim 5 --lambda 5 --restarts 2"),
        ("spectrum", "spectrum --dim 6 --lambda 6 --random gaussian --seed {seed}"),
        ("shell", "shell --dim 8 --lambda 8"),
    ],
    "smoke": [
        ("sweep", "sweep --dim 2 --lambda-min 1 --lambda-max 10 --seed {seed}"),
        ("lemma", "lemma --dim 3 --lambda 9"),
        ("extremize", "extremize --dim 5 --lambda 5 --restarts 2 --iters 20"),
        ("spectrum", "spectrum --dim 5 --lambda 5 --random gaussian --seed {seed}"),
        ("shell", "shell --dim 4 --lambda 4"),
    ],
}
CLI_THREADS = "2"
# cli-pools runs the cli commands except extremize, whose --threads 2 time is
# bimodal under OpenBLAS oversubscription (see README.md), so that pools,
# jsonfmt emission and lattice are measured on a workload with steady job_s.
CLI_POOLS = ("sweep", "lemma", "spectrum", "shell")
# Probe shells: the spectrum vector of the cli workload, and a shell whose
# exhaustive sweep is short next to its sweep-table build.
SPECTRA_PROBE = {"full": (6, 6), "smoke": (5, 5)}
TABLE_PROBE = {"full": (3, 41), "smoke": (3, 9)}
PROBES = {
    "lemma-exhaustive": ("table",),
    "lemma-sampled": (),
    "extremize": ("spectra",),
    "cli": ("spectra", "table"),
    "cli-pools": ("spectra", "table"),
}


def bound_c(n: int) -> float:
    """C(n) from its closed form, kept apart from the library's own copy."""
    return (2.0 ** (2 - n) + (1.25 * n - 4.0) * 2.0**n + 5.0) ** (1.0 / n)


# -- workloads: arguments, job, output checks ---------------------------------


def build_args(workload: str, seed: int, size: str) -> dict:
    if workload == "lemma-exhaustive":
        return dict(EXHAUSTIVE[size])
    if workload == "lemma-sampled":
        return {"seed": seed, "runs": SAMPLED[size]}
    if workload == "extremize":
        return {"runs": [
            (dim, lam, p, extremizer.ExtremizerConfig(
                restarts=restarts, max_iters=iters, seed=EXTREMIZE_START_SEED))
            for dim, lam, p, restarts, iters in EXTREMIZE[size]
        ]}
    return {"commands": [(name, cmd.format(seed=seed).split() + ["--threads", CLI_THREADS])
                         for name, cmd in CLI[size] if workload == "cli" or name in CLI_POOLS]}


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - t


def run_job(workload: str, a: dict):
    if workload == "lemma-exhaustive":
        shell = lattice.enumerate_shell(a["dim"], a["lam"])
        return lemma.verify_lemma(shell, mode="exhaustive", threads=1)
    if workload == "lemma-sampled":
        return [
            lemma.verify_lemma(lattice.enumerate_shell(dim, lam), mode="sampled", count=count,
                               seed=a["seed"], extra_points=extra, threads=1)
            for dim, lam, extra, count in a["runs"]
        ]
    if workload == "extremize":
        return [extremizer.maximize(lattice.enumerate_shell(dim, lam), p, cfg, threads=1)
                for dim, lam, p, cfg in a["runs"]]
    return [(name, *run_cli(argv)) for name, argv in a["commands"]]


def cli_output_ok(name: str, text: str) -> bool:
    if name == "sweep":
        lines = text.splitlines()
        return len(lines) > 1 and lines[0] == SWEEP_HEADER and all(
            len(line.split(",")) == 8 for line in lines[1:])
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


def check(workload: str, a: dict, out) -> list[tuple[str, bool]]:
    """Invariants of the job's outputs, as (name, passed) pairs."""
    if workload == "lemma-exhaustive":
        return [
            ("checked", out.simplices_checked == a["checked"]),
            ("skipped_antipodal", out.skipped_antipodal == a["antipodal"]),
            ("skipped_degenerate", out.skipped_degenerate == a["degenerate"]),
            ("max_nonedge_count", out.max_nonedge_count == a["max_ne"]),
            ("violations", len(out.violations) == a["violations"]),
            ("violations_flagged", all(v.violated for v in out.violations)),
        ]
    if workload == "lemma-sampled":
        res = []
        for (dim, lam, _, count), r in zip(a["runs"], out):
            tag = f"shell({dim},{lam})"
            res += [
                (f"{tag} checked", r.simplices_checked == count),
                (f"{tag} attempts", r.attempts <= lemma.SAMPLE_ATTEMPT_FACTOR * count),
                (f"{tag} histogram", sum(r.histogram.values()) == r.simplices_checked),
                (f"{tag} max_nonedge_count", r.max_nonedge_count <= 2 ** (dim - 1)),
            ]
        return res
    if workload == "extremize":
        res = []
        for (dim, lam, p, _), r in zip(a["runs"], out):
            ceiling = bound_c(dim) + 1e-9 if p == dim and dim >= 5 else float("inf")
            res.append((f"shell({dim},{lam}) best_value", 1 - 1e-12 <= r.best_value <= ceiling))
        return res
    return [(f"{name} exit 0 and parses", code == 0 and cli_output_ok(name, text))
            for name, code, text, _ in out]


def best_value(workload: str, out) -> float:
    """Best l^p value found; a fixed 1.0, not a measurement, where no extremizer runs.

    The result line must carry every end-to-end metric on every workload;
    1.0 is the b_0 = 1 floor that every normalized vector attains.
    """
    if workload == "extremize":
        return out[0].best_value
    if workload == "cli":
        for name, code, text, _ in out:
            if name == "extremize" and code == 0:
                return float(json.loads(text)["best_value"])
    return 1.0


# -- tracing --------------------------------------------------------------------


def install_spans(tr: Tracer) -> None:
    tr.patch(lattice, "enumerate_shell", "lattice.enumerate_shell",
             count=lambda s: {"points": len(s)})
    tr.patch(spectra, "autocorrelation", "spectra.autocorrelation")
    tr.patch(spectra, "spectrum_entries_json", "spectra.spectrum_entries_json")
    tr.patch(lemma, "verify_lemma", "lemma.verify_lemma", count=lambda r: {
        "mode": r.mode, "checked": r.simplices_checked, "attempts": r.attempts,
        "antipodal": r.skipped_antipodal, "degenerate": r.skipped_degenerate,
        "violations": len(r.violations)})
    maximize = extremizer.maximize

    def maximize_with_history(*args, **kwargs):
        # Per-restart iterations and stop flags are only reported with history.
        return maximize(*args, **kwargs, keep_history=True)

    tr.rebind(extremizer, "maximize", tr.wrap(
        maximize_with_history, "extremizer.maximize", count=lambda r: {
            "restarts": r.restarts, "iterations": sum(x.iterations for x in r.runs),
            "converged": sum(x.converged for x in r.runs)}))
    tr.patch_method(extremizer.SpectrumEngine, "power_value", "extremizer.power_value")
    tr.patch_method(extremizer.SpectrumEngine, "power_value_and_gradient",
                    "extremizer.power_value_and_gradient")
    tr.patch(jsonfmt, "dumps", "jsonfmt.dumps")
    tr.patch(cli, "main", "cli.main")


def _sum(spans, key):
    return sum(s[5][key] for s in spans)


def layer_metrics(tr: Tracer) -> dict:
    m = dict.fromkeys(LAYER_METRICS, 0)
    m["lattice.enumerate_ms"] = 1e3 * tr.busy_s("lattice.enumerate_shell")
    m["lattice.points"] = _sum(tr.named("lattice.enumerate_shell"), "points")
    m["spectra.autocorrelation_ms"] = 1e3 * tr.busy_s("spectra.autocorrelation")
    sweeps = tr.named("lemma.verify_lemma")
    ex = [s for s in sweeps if s[5]["mode"] == "exhaustive"]
    if ex:
        checked = _sum(ex, "checked")
        m["lemma.exhaustive.simplices_per_s"] = checked / sum(s[3] - s[2] for s in ex)
        m["lemma.exhaustive.checked"] = checked
        m["lemma.exhaustive.skipped_antipodal"] = _sum(ex, "antipodal")
        m["lemma.exhaustive.skipped_degenerate"] = _sum(ex, "degenerate")
        m["lemma.exhaustive.violations"] = _sum(ex, "violations")
    sa = [s for s in sweeps if s[5]["mode"] == "sampled"]
    if sa:
        attempts = _sum(sa, "attempts")
        m["lemma.sampled.ms_per_attempt"] = 1e3 * sum(s[3] - s[2] for s in sa) / attempts
        m["lemma.sampled.attempts"] = attempts
        m["lemma.sampled.checked"] = _sum(sa, "checked")
        m["lemma.sampled.useful_ratio"] = m["lemma.sampled.checked"] / attempts
        m["lemma.sampled.skipped_antipodal"] = _sum(sa, "antipodal")
        m["lemma.sampled.skipped_degenerate"] = _sum(sa, "degenerate")
    for kind in ("value", "grad"):
        name = "extremizer.power_value" + ("_and_gradient" if kind == "grad" else "")
        n = len(tr.named(name))
        m[f"extremizer.{kind}_evals"] = n
        m[f"extremizer.{kind}_eval_ms"] = 1e3 * tr.busy_s(name) / n if n else 0
    runs = tr.named("extremizer.maximize")
    m["extremizer.restarts"] = _sum(runs, "restarts")
    m["extremizer.iterations"] = _sum(runs, "iterations")
    m["extremizer.converged_restarts"] = _sum(runs, "converged")
    m["cli.emit_ms"] = 1e3 * (tr.busy_s("jsonfmt.dumps") + tr.busy_s("spectra.spectrum_entries_json"))
    return m


def cpu_s() -> float:
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def cli_layers(a: dict, out, cpu: float) -> tuple[dict, list[tuple[str, bool]]]:
    """cli.* metrics, with the pooled commands rerun at --threads 1 for comparison."""
    m = {f"cli.{name}_s": dt for name, _, _, dt in out}
    m["cli.output_bytes"] = sum(len(text.encode()) for _, _, text, _ in out)
    m["cli.cpu_s"] = cpu
    overhead = 0.0
    checks = []
    argvs = dict(a["commands"])
    for name, _, text, dt in out:
        if name in POOLED:
            argv = argvs[name][:-1] + ["1"]
            code, text1, dt1 = run_cli(argv)
            overhead += dt - dt1
            checks.append((f"{name} identical at --threads 1", code == 0 and text1 == text))
    m["cli.pool_overhead_s"] = overhead
    return m, checks


# -- probes -----------------------------------------------------------------------


def _timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def probe(workload: str, seed: int, size: str) -> tuple[dict, list[tuple[str, bool]]]:
    m, checks = {}, []
    if "spectra" in PROBES[workload]:
        coeffs = spectra.random_coeffs(lattice.enumerate_shell(*SPECTRA_PROBE[size]), seed=seed)
        cold, t_cold = _timed(lambda: spectra.autocorrelation(coeffs))
        warm = [_timed(lambda: spectra.autocorrelation(coeffs)) for _ in range(3)]
        t_warm = statistics.median(t for _, t in warm)
        m["spectra.pair_build_ms"] = 1e3 * (t_cold - t_warm)
        m["spectra.accumulate_ms"] = 1e3 * t_warm
        m["spectra.taus"] = len(cold)
        checks.append(("warm spectrum equals cold",
                       all(np.array_equal(s.values, cold.values) for s, _ in warm)))
    if "table" in PROBES[workload]:
        shell = lattice.enumerate_shell(*TABLE_PROBE[size])
        cold, t_cold = _timed(lambda: lemma.verify_lemma(shell, mode="exhaustive", threads=1))
        warm = [_timed(lambda: lemma.verify_lemma(shell, mode="exhaustive", threads=1))
                for _ in range(2)]
        m["lemma.exhaustive.table_build_s"] = t_cold - statistics.median(t for _, t in warm)
        checks.append(("warm sweep equals cold", all(r == cold for r, _ in warm)))
    return m, checks


# -- main -------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--mode", choices=("setup", "plain", "trace", "probe"), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--out", type=Path, required=True)
    opts = ap.parse_args()
    src = (ROOT / "src" / "torus_spectra").resolve()
    if Path(torus_spectra.__file__).resolve().parent != src:
        print(f"torus_spectra imported from {torus_spectra.__file__}, not {src}", file=sys.stderr)
        return 2

    a = build_args(opts.workload, opts.seed, opts.size)
    result = {"setup_s": time.perf_counter() - T0}
    if opts.mode == "setup":
        print(json.dumps(result))
        return 0
    checks: list[tuple[str, bool]] = []
    if opts.mode == "probe":
        try:
            layers, checks = probe(opts.workload, opts.seed, opts.size)
        except Exception:  # as in the job: a raising call is a failed check
            traceback.print_exc(file=sys.stderr)
            layers, checks = {}, [("probe raised", False)]
        result.update(layers=layers, checks=checks)
        print(json.dumps(result))
        return 0

    tr = Tracer(opts.run_id) if opts.mode == "trace" else None
    if tr is not None:
        install_spans(tr)
    cpu0 = cpu_s()
    t = time.perf_counter()
    try:
        out = run_job(opts.workload, a)
    except Exception:  # a call that raises is a failed check, not a crashed run
        traceback.print_exc(file=sys.stderr)
        out = None
    result["job_s"] = time.perf_counter() - t
    cpu = cpu_s() - cpu0
    if out is None:
        checks.append(("job raised", False))
    else:
        checks += check(opts.workload, a, out)
        result["best_value"] = best_value(opts.workload, out)
    if tr is not None:
        layers = layer_metrics(tr)
        if opts.workload in ("cli", "cli-pools") and out is not None:
            cli_m, cli_checks = cli_layers(a, out, cpu)
            layers.update(cli_m)
            checks += cli_checks
        result["layers"] = layers
        result["self_s"] = tr.self_times()
        tr.write(opts.out / f"{opts.run_id}.spans.jsonl.gz")
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mib"] = usage / 1024.0
    result["checks"] = checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
