"""Command-line front end: one subcommand per capability, CSV or JSON out.

Every row echoes the effective configuration and a schema_version, floats
are serialized with 17 significant digits, and on one machine and OpenBLAS
kernel a fixed (config, seed, threads=1) produces byte-identical output,
except that digits from the dense eigensolver can change with the number of
BLAS threads.  A matrix-free (Lanczos) norm runs its BLAS on one thread in
any run, so its digits never do.  With --threads > 1 each trial's BLAS runs
on one thread, so pooled output does not depend on the thread variables and
equals the serial run under OPENBLAS_NUM_THREADS=1.  The last digits of a
norm can differ under another kernel, such as AVX2 against AVX-512.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import boolfn
from .certify import certify_lower_bound, certify_random_sweep, check_eps, run_claim1_sweep
from .fourier_operator import (build_dense, build_matrix_free, build_operator, check_dense_budget,
                               check_solver_limits, spectral_norm)
from .interrogation import asymptotic_reference_t, choose_t, simulate_exact, simulate_sampled
from .moments import (
    PartitionSpec,
    check_k,
    claim2_bruteforce,
    evenness_check,
    expected_trace_moment_exhaustive,
    expected_trace_moment_mc,
    trace_moment,
)
from .transforms import binomial_sum, check_bits, check_truncation, format_bitstring, parse_bitstring

SCHEMA_VERSION = 1


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_rows(fieldnames: list[str], rows: list[dict], fmt: str, out: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in fieldnames])
        text = buf.getvalue()
    else:
        ordered = [{k: row.get(k) for k in fieldnames} for row in rows]
        text = json.dumps({"rows": ordered}, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_function(args, *checks) -> tuple[boolfn.BooleanFunction, str]:
    """--function-file's or --family's function, its 2^n table built only once every check(n) passes."""
    if args.function_file:
        if args.family or args.n is not None:
            raise ValueError("--function-file sets the function and its n; drop --family and --n")
        f = boolfn.read_truth_table(args.function_file, *checks)
        digest = hashlib.sha256(Path(args.function_file).read_bytes()).hexdigest()[:12]
        return f, f"file:{digest}"
    if args.family:
        if args.n is None:
            raise ValueError("--family requires --n")
        boolfn.check_family(args.family, args.n)
        for check in checks:
            check(args.n)
        return boolfn.make_family(args.family, args.n), args.family
    raise ValueError("provide --family or --function-file")


# ---------------------------------------------------------------- vandam

VANDAM_FIELDS = [
    "n", "t", "eps", "reference_t", "x", "b", "success_probability", "shots",
    "recovered_count", "recovered_frequency", "seed",
]


def cmd_vandam(args) -> tuple[list[str], list[dict], int]:
    n = args.n
    check_bits(n)  # 1..MAX_BITS, before choose_t, which cannot count strings for n < 0
    if args.t is None and args.eps is None:
        raise ValueError("provide --t or --eps")
    t = args.t if args.t is not None else choose_t(n, args.eps)
    ref = asymptotic_reference_t(n, args.eps) if args.eps is not None else None
    if args.x is not None and len(args.x) != n:
        raise ValueError(f"--x must have n={n} characters, got {len(args.x)}")
    x = parse_bitstring(args.x) if args.x is not None else 0
    row = {
        "n": n, "t": t, "eps": args.eps, "reference_t": ref,
        "x": format_bitstring(x, n), "b": binomial_sum(n, t),
    }
    if args.shots is None and args.seed is not None:
        raise ValueError("--seed seeds the sampled measurements; it needs --shots")
    if args.shots is not None:  # 0 reaches simulate_sampled, which rejects it
        if args.seed is None:
            raise ValueError("--shots requires --seed")
        hits = simulate_sampled(n, t, x, args.shots, args.seed).get(x, 0)
        row.update({
            "shots": args.shots,
            "recovered_count": hits,
            "recovered_frequency": hits / args.shots,
            "seed": args.seed,
        })
    row["success_probability"] = simulate_exact(n, t, x)
    return VANDAM_FIELDS, [row], 0


# ------------------------------------------------------------------ norm

NORM_FIELDS = [
    "n", "t", "b", "function", "mode", "method", "norm", "iterations", "residual",
    "converged", "tol", "max_iter", "seed",
]


def cmd_norm(args) -> tuple[list[str], list[dict], int]:
    # each builder with the check it runs on t first, then spectral_norm's own
    build, check_t = ((build_dense, check_dense_budget) if args.dense
                      else (build_matrix_free, check_truncation) if args.matrix_free
                      else (build_operator, binomial_sum))
    f, desc = _load_function(args, lambda n: check_t(n, args.t),
                             lambda n: check_solver_limits(args.tol, args.max_iter))
    op = build(f, args.t)
    est = spectral_norm(op, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    row = {
        "n": f.n, "t": args.t, "b": op.size, "function": desc,
        "mode": op.mode, "method": est.method,
        "norm": est.value, "iterations": est.iterations, "residual": est.residual,
        "converged": est.converged, "tol": args.tol, "max_iter": args.max_iter,
        "seed": args.seed,
    }
    code = 0
    if not est.converged:
        print(f"norm estimate did not converge in {args.max_iter} iterations", file=sys.stderr)
        code = 1
    return NORM_FIELDS, [row], code


# --------------------------------------------------------------- certify

CERTIFY_FIELDS = [
    "kind", "n", "eps", "trial", "function", "seed",
    "lower_bound_t", "status", "upper_bound_t", "b_stop", "entropy_exponent",
    "entropy_bound", "norms", "min_lower_bound_t", "median_lower_bound_t",
    "max_lower_bound_t", "fraction_at_least_quarter_n", "tol", "max_iter",
]


def _certificate_row(bound, trial, upper) -> dict:
    return {
        "kind": "certificate", "n": bound.n, "eps": bound.eps, "trial": trial,
        "function": bound.f_descriptor, "seed": bound.seed,
        "lower_bound_t": bound.lower_bound_t, "status": bound.status,
        "upper_bound_t": upper, "b_stop": bound.b_stop,
        "entropy_exponent": bound.entropy_exponent, "entropy_bound": bound.entropy_bound,
        "norms": json.dumps([e.value for e in bound.evidence]),
    }


def cmd_certify(args) -> tuple[list[str], list[dict], int]:
    if args.trials is not None:  # a count below 1 reaches certify_random_sweep, which rejects it
        if args.seed is None:
            raise ValueError("--trials requires --seed")
        if args.n is None:
            raise ValueError("--trials requires --n")
        if args.trials >= 1 and (args.family or args.function_file):
            raise ValueError("--trials certifies random functions; add a family with --include-family")
        bounds, summary = certify_random_sweep(
            args.n, args.eps, args.trials, args.seed, tol=args.tol,
            max_iter=args.max_iter, include_family=args.include_family,
            threads=args.threads,
        )
        upper = summary["upper_bound_t"]
        rows = [_certificate_row(bound, i, upper) for i, bound in enumerate(bounds)]
        rows.append({"kind": "summary"} | summary)
    else:
        if args.include_family:
            raise ValueError("--include-family adds a family to a random sweep; it needs --trials")
        if args.seed is not None:
            raise ValueError("--seed seeds a random sweep; it needs --trials")
        if args.threads != 1:
            raise ValueError("--threads runs random trials in parallel; it needs --trials")
        f, desc = _load_function(args, lambda n: check_eps(args.eps),
                                 lambda n: check_solver_limits(args.tol, args.max_iter))
        bound = replace(certify_lower_bound(f, args.eps, tol=args.tol, max_iter=args.max_iter),
                        f_descriptor=desc)
        rows = [_certificate_row(bound, 0, choose_t(f.n, args.eps))]
    return CERTIFY_FIELDS, [row | {"tol": args.tol, "max_iter": args.max_iter} for row in rows], 0


# --------------------------------------------------------------- moments

MOMENTS_FIELDS = [
    "n", "t", "k", "b", "method", "function", "value", "stderr", "bound_ratio",
    "trials", "seed",
]


def cmd_moments(args) -> tuple[list[str], list[dict], int]:
    desc = None
    if args.method != "mc" and (args.trials is not None or args.seed is not None or args.threads != 1):
        raise ValueError(f"--method {args.method} uses no randomness and no pool; "
                         "--trials, --seed and --threads need --method mc")
    if args.method == "exact":
        f, desc = _load_function(args, lambda n: check_k(args.k), lambda n: check_dense_budget(n, args.t))
        report = trace_moment(f, args.t, args.k)
    elif args.family or args.function_file:
        raise ValueError(f"--method {args.method} averages over random functions; "
                         "--family and --function-file need --method exact")
    elif args.method == "exhaustive":
        if args.n is None:
            raise ValueError("--method exhaustive requires --n")
        report = expected_trace_moment_exhaustive(args.n, args.t, args.k)
    else:
        if args.n is None or args.trials is None or args.seed is None:
            raise ValueError("--method mc requires --n, --trials and --seed")
        report = expected_trace_moment_mc(args.n, args.t, args.k, args.trials,
                                          args.seed, threads=args.threads)
    row = {
        "n": report.n, "t": args.t, "k": args.k, "b": binomial_sum(report.n, args.t),
        "method": report.method, "function": desc,
        "value": report.value, "stderr": report.stderr,
        "bound_ratio": report.bound_ratio,
        "trials": report.trials or None, "seed": args.seed,
    }
    return MOMENTS_FIELDS, [row], 0


# ---------------------------------------------------------- claim1-sweep

CLAIM1_FIELDS = [
    "kind", "n", "t", "t_rule", "b", "trials",
    "median_norm", "max_norm", "ref_scale", "ratio", "unconverged", "eps",
    "seed", "tol", "max_iter",
]


def cmd_claim1(args) -> tuple[list[str], list[dict], int]:
    try:
        ns = [int(v) for v in args.ns.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse --ns {args.ns!r}; expected e.g. '10,12,14'") from None
    rows = run_claim1_sweep(ns, args.t_rule, args.trials, args.seed, tol=args.tol,
                            max_iter=args.max_iter, threads=args.threads,
                            include_family=args.include_family)
    return CLAIM1_FIELDS, [row | {"eps": args.eps} for row in rows], 0


# --------------------------------------------------------- claim2-verify

CLAIM2_FIELDS = [
    "mode", "n", "t", "m", "r", "parts", "b", "total", "bound", "ratio", "budget",
    "trials", "seed", "tuple", "even", "mean", "ok",
]


def _parse_parts(text: str) -> PartitionSpec:
    try:
        parts = tuple(tuple(int(v) for v in group.split(",")) for group in text.split("|"))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}; expected e.g. '1,2|3,4'") from None
    m = max(i for p in parts for i in p)
    return PartitionSpec(m=m, parts=parts)


def cmd_claim2(args) -> tuple[list[str], list[dict], int]:
    base = {"n": args.n}
    if args.evenness:
        if args.m is None or args.trials is None or args.seed is None:
            raise ValueError("--evenness requires --m, --trials and --seed")
        if args.t is not None or args.parts:
            raise ValueError("--t and --parts set a partition sum, which runs without --evenness")
        entries = evenness_check(args.n, args.m, args.trials, args.seed)
        rows = [
            base | {
                "mode": "evenness", "m": args.m, "trials": args.trials, "seed": args.seed,
                "tuple": ",".join(str(v) for v in e.xs), "even": e.even,
                "mean": e.mean, "ok": e.ok,
            }
            for e in entries
        ]
        return CLAIM2_FIELDS, rows, 0 if all(e.ok for e in entries) else 1
    if args.trials is not None or args.seed is not None:
        raise ValueError("--trials and --seed sample tuples; they need --evenness")
    if args.t is None:
        raise ValueError("partition mode requires --t")
    if args.parts:
        spec = _parse_parts(args.parts)
        if args.m is not None and args.m != spec.m:
            raise ValueError(f"--m {args.m} disagrees with --parts covering 1..{spec.m}")
    elif args.m is not None:
        spec = PartitionSpec.single(args.m)
    else:
        raise ValueError("provide --parts or --m")
    res = claim2_bruteforce(args.n, args.t, spec)
    row = base | {
        "mode": "partition", "t": args.t, "m": res.m, "r": res.r,
        "parts": "|".join(",".join(str(i) for i in p) for p in spec.parts),
        "b": res.b, "total": res.total, "bound": res.bound,
        "ratio": res.total / res.bound, "budget": res.budget,
    }
    return CLAIM2_FIELDS, [row], 0


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querybound",
        description="Oracle interrogation, truncated-Fourier spectral norms, "
                    "query lower bounds and trace-moment experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each group of flags that several subcommands share, defined once
    function_flags = argparse.ArgumentParser(add_help=False)
    function_flags.add_argument("--family", choices=boolfn.FAMILIES, help="a named function, with --n")
    function_flags.add_argument("--function-file", help="truth table: 'n=<int>', then 2^n of '+' or '-'")
    function_flags.add_argument("--n", type=int, help="number of input bits")
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--tol", type=float, default=1e-8, help="residual bound of a Lanczos norm")
    solver_flags.add_argument("--max-iter", type=int, default=10000, help="Lanczos step limit")
    thread_flags = argparse.ArgumentParser(add_help=False)
    thread_flags.add_argument("--threads", type=int, default=1, help="parallel trials, one BLAS thread each")
    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--format", choices=("csv", "json"), default="csv")
    output_flags.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("vandam", parents=[output_flags],
                       help="simulate the oracle-interrogation routine")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--eps", type=float, help="pick T = choose_t(n, eps)")
    p.add_argument("--x", help="hidden input as a bitstring, default all zeros")
    p.add_argument("--shots", type=int, help="also sample this many measurements")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_vandam)

    p = sub.add_parser("norm", parents=[function_flags, solver_flags, output_flags],
                       help="spectral norm of the truncated Fourier operator")
    p.add_argument("--t", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--dense", action="store_true", help="force the dense eigensolver")
    mode.add_argument("--matrix-free", action="store_true", help="force matrix-free Lanczos")
    p.add_argument("--seed", type=int, default=0, help="Lanczos start vector seed")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("certify", parents=[function_flags, solver_flags, thread_flags, output_flags],
                       help="query lower bounds from norm thresholds")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, help="certify this many random functions")
    p.add_argument("--include-family", choices=boolfn.FAMILIES,
                   help="inject a named family as trial 0 of the sweep")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("moments", parents=[function_flags, thread_flags, output_flags],
                       help="trace moments of the truncated operator")
    p.add_argument("--method", choices=("exact", "exhaustive", "mc"), required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("claim1-sweep", parents=[solver_flags, thread_flags, output_flags],
                       help="norm scaling over random functions across n")
    p.add_argument("--ns", required=True, help="comma-separated n values, e.g. 10,12,14")
    p.add_argument("--t-rule", type=float, default=0.4, help="T = floor(t_rule * n)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, help="recorded in output only")
    p.add_argument("--include-family", choices=boolfn.FAMILIES)
    p.set_defaults(fn=cmd_claim1)

    p = sub.add_parser("claim2-verify", parents=[output_flags],
                       help="exact partition-sum enumeration / evenness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--parts", help="partition of 1..m, e.g. '1,2|3,4'")
    p.add_argument("--evenness", action="store_true",
                   help="check product expectations over sampled tuples instead")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_claim2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # every subcommand takes --seed
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        fieldnames, rows, code = args.fn(args)
        head = {"schema_version": SCHEMA_VERSION, "subcommand": args.command}
        write_rows([*head, *fieldnames], [head | row for row in rows], args.format, args.out)
    except (ValueError, OSError) as e:  # OSError: an unreadable input or unwritable output file
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
