"""Benchmark for querybound: runs one workload through querybound.cli.main and checks it.

    python3 perfbench/run.py --workload scaling-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The program is imported from src/ beside this directory.  A run repeats whole
rounds of CLI commands until --seconds of command time have passed, then
checks every output against reference.py.  The last line of standard output is
one JSON object with correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics (from a run with spans around
the program's public functions) with --trace 1.  The environment, every
command and the spans are written to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
ALL = ("scaling-sweep", "certify-sweep", "interrogation", "exact-enumeration")
SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "items_per_s": "item/s", "cpu_s_per_item": "s/item",
              "peak_rss_mib": "MiB"}


@dataclass
class Record:
    round: int
    rc: int | None
    out: str
    err: str
    wall_s: float
    cpu_s: float
    end: float


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_command(cli, argv, round_index: int) -> Record:
    """One CLI command through cli.main, looked up now so that traced wrappers apply."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # the run goes on; the command counts as failed
        rc = None
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    return Record(round_index, rc, out.getvalue(), err.getvalue(), t1 - t0, _cpu_s() - cpu0, t1)


def run_rounds(workload, seed: int, seconds: float, cli) -> list[tuple]:
    """Whole rounds of the workload's commands until `seconds` of command time have passed."""
    records = []
    spent, index = 0.0, 0
    while spent < seconds:
        for cmd in workload.round(seed, index):
            rec = run_command(cli, cmd.argv, index)
            records.append((cmd, rec))
            spent += rec.wall_s
        index += 1
    return records


def problems_of(cmd, rec: Record, parse_rows) -> list[str]:
    if rec.rc != 0:
        return [f"exit code {rec.rc}: {rec.err.strip()[-500:]}"]
    try:
        return cmd.check(cmd, parse_rows(rec.out))
    except Exception:  # a malformed output must not stop the other checks
        return [f"check raised: {traceback.format_exc(limit=3)}"]


def verify(records, parse_rows) -> list[list[str]]:
    """Problems per record; identical outputs of one command are checked once."""
    seen: dict[tuple, list[str]] = {}
    result = []
    for cmd, rec in records:
        key = (cmd.argv, rec.rc, rec.out)
        if key not in seen:
            seen[key] = problems_of(cmd, rec, parse_rows)
        result.append(seen[key])
    return result


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time from a fresh interpreter to `import querybound.cli` done."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import querybound.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def traced_run(workload, seed: int, seconds: float, cli):
    """Traced rounds, then round 0 replayed untraced.

    Returns the records, the per-layer values, whether the replay printed the
    same bytes, and the tracer holding the spans.
    """
    import numpy as np

    import reference
    from tracing import Tracer, layer_values

    tracer = Tracer()
    tracer.install()
    try:
        records = run_rounds(workload, seed, seconds, cli)
    finally:
        tracer.uninstall()
    first = [(cmd, rec) for cmd, rec in records if rec.round == 0]
    replay = [(cmd, run_command(cli, cmd.argv, 0)) for cmd, _ in first]
    identical = all(a.out == b.out and a.rc == b.rc for (_, a), (_, b) in zip(first, replay))
    overhead = sum(r.wall_s for _, r in first) / sum(r.wall_s for _, r in replay) - 1
    first_end = first[-1][1].end
    errors = [abs(s.attrs["value"] - reference.truncated_norm(np.asarray(s.attrs["f"].signs), s.attrs["t"]))
              for s in tracer.spans
              if s.name == "fourier_operator.spectral_norm" and s.end <= first_end and s.attrs]
    values = layer_values(tracer.spans, max(errors, default=0.0), overhead)
    return records + replay, values, identical, tracer


def run_one(args) -> int:
    if not (SRC / "querybound" / "cli.py").is_file():
        print(f"error: no querybound sources under {SRC}", file=sys.stderr)
        return 2
    thread_vars = environment.clear_thread_vars()  # before numpy loads its BLAS
    if args.blas_threads:
        os.environ["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))
    setup_s, setup_times = measure_setup() if not args.trace else (None, [])

    import workloads
    from querybound import cli

    workload = workloads.WORKLOADS[args.workload]
    env = environment.record(ROOT, thread_vars, workloads.working_set(args.workload))
    correct = True
    if args.trace:
        from tracing import LAYER_METRICS

        records, values, correct, tracer = traced_run(workload, args.seed, args.seconds, cli)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        records = run_rounds(workload, args.seed, args.seconds, cli)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        items = sum(cmd.items for cmd, _ in records)
        wall = sum(rec.wall_s for _, rec in records)
        cpu = sum(rec.cpu_s for _, rec in records)
        values = {"setup_s": setup_s, "items_per_s": items / wall, "cpu_s_per_item": cpu / items,
                  "peak_rss_mib": peak_mib}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    problems = verify(records, workloads.parse_rows)
    failed = sum(1 for p in problems if p)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    raw = {"workload": args.workload, "item": workload.item, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "blas_threads": args.blas_threads,
           "environment": env,
           "setup_times_s": setup_times, "metrics": metrics,
           "commands": [{"round": rec.round, "argv": list(cmd.argv), "rc": rec.rc,
                         "wall_s": rec.wall_s, "cpu_s": rec.cpu_s, "problems": p}
                        for (cmd, rec), p in zip(records, problems)]}
    stem.with_suffix(".json").write_text(json.dumps(raw, indent=1) + "\n")

    print(f"workload {args.workload} (item: {workload.item}), seed {args.seed}, "
          f"{len(records)} commands; raw results in {stem.with_suffix('.json').relative_to(ROOT)}")
    print("environment " + json.dumps(env))
    for (cmd, _), p in zip(records, problems):
        if p:
            print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(p)}")
    if args.trace and not correct:
        print("FAILED output bytes differ between the traced and the untraced run")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in ALL:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.blas_threads:
            argv += ["--blas-threads", str(args.blas_threads)]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*ALL, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int,
                        help="set OPENBLAS_NUM_THREADS for the program (default: the library's own)")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
