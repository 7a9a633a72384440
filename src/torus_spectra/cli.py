"""Command-line interface.

Subcommands: shell (enumerate), spectrum (autocorrelation + bound check),
lemma (translate-budget sweeps), extremize (sphere-constrained ascent),
sweep (multi-lambda CSV). Exit codes: 0 = all checks passed, 1 = a
mathematical bound or budget violation was detected, 2 = usage or
resource error. Every command runs in one process (--threads changes nothing),
and all output is deterministic for fixed seeds; floats carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonfmt
from .errors import TorusSpectraError
from .extremizer import ExtremizerConfig, maximize
from .lattice import enumerate_shell, shell_to_json
from .lemma import sweep_to_json, verify_lemma
from .spectra import (
    autocorrelation,
    bound_verdict,
    coeffs_from_json,
    coeffs_to_json,
    lp_norm,
    random_coeffs,
    require_exponent,
    spectrum_entries_json,
)
from .sweeps import sweep

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _emit(obj, args) -> None:
    print(jsonfmt.dumps(obj, pretty=not args.json))


def _parse_random_mode(text: str) -> tuple[str, int | None]:
    mode, _, suffix = text.partition(":")
    if mode not in ("uniform", "gaussian", "sparse"):
        raise TorusSpectraError(f"unknown random mode {text!r}")
    if suffix:
        if mode != "sparse":
            raise TorusSpectraError(f"only sparse takes a size suffix, got {text!r}")
        try:
            return mode, int(suffix)
        except ValueError:
            raise TorusSpectraError(f"bad sparse size in {text!r}") from None
    return mode, None


def cmd_shell(args) -> int:
    shell = enumerate_shell(args.dim, args.lam)
    if args.count_only:
        print(len(shell))
    else:
        _emit(shell_to_json(shell), args)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    shell = enumerate_shell(args.dim, args.lam)
    p = args.p if args.p is not None else float(shell.dim)
    require_exponent(p, 1, "spectrum")
    if args.coeffs is not None:
        try:
            with open(args.coeffs, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TorusSpectraError(f"cannot read coefficient file: {exc}") from exc
        coeffs = coeffs_from_json(obj, force_normalize=args.force_normalize)
        if (coeffs.shell.dim, coeffs.shell.lam) != (shell.dim, shell.lam):
            raise TorusSpectraError(
                f"coefficient file is for shell({coeffs.shell.dim}, {coeffs.shell.lam}), "
                f"not shell({shell.dim}, {shell.lam})"
            )
    else:
        mode, k = _parse_random_mode(args.random)
        coeffs = random_coeffs(shell, seed=args.seed, mode=mode, k=k)
    spectrum = autocorrelation(coeffs)
    value = lp_norm(spectrum, p)
    bound, passed = bound_verdict(shell.dim, p, value)
    _emit(
        {
            "dim": shell.dim,
            "lambda": shell.lam,
            "entries": spectrum_entries_json(spectrum),
            "lp": {"p": p, "value": value},
            "bound": bound,
            "passed": passed,
        },
        args,
    )
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_lemma(args) -> int:
    shell = enumerate_shell(args.dim, args.lam)
    report = verify_lemma(shell, mode=args.mode, count=args.count, seed=args.seed,
                          extra_points=args.extra_points)
    _emit(sweep_to_json(report), args)
    return EXIT_OK if not report.violations else EXIT_VIOLATION


def cmd_extremize(args) -> int:
    shell = enumerate_shell(args.dim, args.lam)
    p = args.p if args.p is not None else float(shell.dim)
    cfg = ExtremizerConfig(
        restarts=args.restarts, max_iters=args.iters, seed=args.seed
    )
    report = maximize(shell, p, cfg)
    bound, passed = bound_verdict(shell.dim, p, report.best_value)
    coeffs_obj = coeffs_to_json(report.best_coeffs)
    _emit(
        {
            "dim": shell.dim,
            "lambda": shell.lam,
            "p": p,
            "best_value": report.best_value,
            "bound": bound,
            "gap": None if bound is None else bound - report.best_value,
            "converged": report.converged,
            "restarts": report.restarts,
            "coeffs": coeffs_obj["coeffs"],
        },
        args,
    )
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_sweep(args) -> int:
    rows = sweep(args.dim, args.lambda_min, args.lambda_max, random_trials=args.random_trials,
                 seed=args.seed, lemma_sample=args.lemma_sample)
    lines = ["dim,lambda,shell_count,lp_value,bound,passed,max_nonedge_translates,budget"]
    for row in rows:
        bound = row.theorem.bound_value
        lines.append(",".join([
            str(row.dim), str(row.lam), str(row.shell_count),
            jsonfmt.format_float(row.theorem.norm_value),
            "" if bound is None else jsonfmt.format_float(bound),
            "true" if row.theorem.passed else "false",
            "" if row.lemma is None else str(row.lemma.max_nonedge_count),
            str(row.budget),
        ]))
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise TorusSpectraError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    passed = all(r.theorem.passed and (r.lemma is None or not r.lemma.violations) for r in rows)
    return EXIT_OK if passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-spectra",
        description="Lattice shells, autocorrelation spectra of squared torus "
        "eigenfunctions, translate-budget sweeps, and sphere-constrained extremization.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=1,
                        help="accepted (must be >= 1) and changes nothing: "
                        "every command runs in one process")
    common.add_argument("--json", action="store_true",
                        help="compact single-line JSON instead of pretty-printed")
    with_dim = argparse.ArgumentParser(add_help=False, parents=[common])
    with_dim.add_argument("--dim", type=int, required=True)
    one_shell = argparse.ArgumentParser(add_help=False, parents=[with_dim])
    one_shell.add_argument("--lambda", dest="lam", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_shell = sub.add_parser("shell", parents=[one_shell], help="enumerate a lattice shell")
    p_shell.add_argument("--count-only", action="store_true", help="print only the point count")
    p_shell.set_defaults(fn=cmd_shell)

    p_spec = sub.add_parser("spectrum", parents=[one_shell],
                            help="autocorrelation spectrum and l^p bound check")
    src = p_spec.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs", metavar="FILE", help="coefficient file (JSON)")
    src.add_argument("--random", metavar="MODE",
                     help="uniform | gaussian | sparse[:k] seeded coefficients")
    p_spec.add_argument("--seed", type=int, default=0)
    p_spec.add_argument("--p", type=float, default=None, help="norm exponent (default: dim)")
    p_spec.add_argument("--force-normalize", action="store_true",
                        help="accept badly normalized coefficient files")
    p_spec.set_defaults(fn=cmd_spectrum)

    p_lem = sub.add_parser("lemma", parents=[one_shell], help="translate-budget sweep")
    p_lem.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_lem.add_argument("--count", type=int, default=10000,
                       help="valid simplices to check in sampled mode")
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument("--extra-points", type=int, default=0,
                       help="check dim + E points against the same budget")
    p_lem.set_defaults(fn=cmd_lemma)

    p_ext = sub.add_parser("extremize", parents=[one_shell],
                           help="maximize the l^p spectrum norm on the amplitude sphere")
    p_ext.add_argument("--p", type=float, default=None, help="norm exponent (default: dim)")
    p_ext.add_argument("--restarts", type=int, default=10)
    p_ext.add_argument("--iters", type=int, default=5000)
    p_ext.add_argument("--seed", type=int, default=0)
    p_ext.set_defaults(fn=cmd_extremize)

    p_sw = sub.add_parser("sweep", parents=[with_dim],
                          help="per-lambda CSV of norms, bounds and translate counts")
    p_sw.add_argument("--lambda-min", type=int, required=True)
    p_sw.add_argument("--lambda-max", type=int, required=True)
    p_sw.add_argument("--out", metavar="FILE.csv", default=None)
    p_sw.add_argument("--random-trials", type=int, default=1)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--lemma-sample", type=int, default=None,
                      help="sampled lemma checks per lambda (default: exhaustive when feasible)")
    p_sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise TorusSpectraError(f"thread count must be >= 1, got {args.threads}")
        return args.fn(args)
    except TorusSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader closed stdout early: stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # so the exit-time flush cannot raise again
        return EXIT_USAGE
    except Exception:  # exit 1 is reserved for real bound violations
        import traceback

        traceback.print_exc(file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
