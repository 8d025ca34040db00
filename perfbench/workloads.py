"""The four benchmark workloads: the CLI commands of one round and their output checks.

A round is a list of commands.  Every run repeats whole rounds; round r of a
run with seed s draws its inputs from random.Random(f"{name}:{s}:{r}"), so the
same seed gives the same inputs.  Each check recomputes what it compares
against with reference.py and returns a list of problems (empty means pass).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as ref

# A Rayleigh quotient never exceeds the top eigenvalue, so a norm may pass its
# reference only by rounding.  Power iteration stops on a change of tol = 1e-8
# in the squared norm and may stop short of the top by more (see CHANGES.md);
# sqrt(tol) is the scale such a stopping test resolves in the norm itself.
NORM_ABOVE = 1e-10
NORM_BELOW = 1e-4
PROB_TOL = 1e-12
SLACK = 1e-12  # rounding allowance for "nondecreasing" and "at most 1"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    items: int
    check: Callable[["Command", list[dict]], list[str]]
    params: dict = field(default_factory=dict, compare=False)


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------ scaling-sweep

# The random functions are fixed: the cost of a power-iteration norm is
# heavy-tailed in the function drawn (README, "Input make-up"), so
# seed-drawn functions would spread items_per_s by 25-30% between runs.
# The seed only names the run.
SCALING_NS = (12, 13, 14, 15)
SCALING_SEED = 20260814


def _t_rule(n: int) -> int:
    return (2 * n) // 5  # floor(0.4 n), exactly


def scaling_round(rng: random.Random) -> list[Command]:
    ns = ",".join(str(n) for n in SCALING_NS)
    argv = ("claim1-sweep", "--ns", ns, "--trials", "1", "--seed", str(SCALING_SEED))
    return [Command(argv, len(SCALING_NS), check_claim1,
                    {"ns": SCALING_NS, "trials": 1, "seed": SCALING_SEED})]


def claim1_functions(ns, trials: int, seed: int) -> dict[int, list]:
    seeds = ref.child_seeds(seed, len(ns) * trials)
    return {n: [ref.uniform_signs(n, s) for s in seeds[i * trials:(i + 1) * trials]]
            for i, n in enumerate(ns)}


def check_claim1(cmd: Command, rows: list[dict]) -> list[str]:
    p = cmd.params
    problems = []
    if [int(r["n"]) for r in rows] != list(p["ns"]) or any(r["kind"] != "random" for r in rows):
        return [f"expected one random row per n in {p['ns']}"]
    funcs = claim1_functions(p["ns"], p["trials"], p["seed"])
    for r in rows:
        n, t, b = int(r["n"]), int(r["t"]), int(r["b"])
        where = f"n={n}"
        if t != _t_rule(n):
            problems.append(f"{where}: t={t}, expected {_t_rule(n)}")
        if b != ref.binomial_total(n, t):
            problems.append(f"{where}: b={b}, expected {ref.binomial_total(n, t)}")
        scale = math.sqrt(n * ref.binomial_total(n, t) / (1 << n))
        if not math.isclose(float(r["ref_scale"]), scale, rel_tol=1e-15):
            problems.append(f"{where}: ref_scale={r['ref_scale']}, expected {scale!r}")
        if int(r["unconverged"]) != 0:
            problems.append(f"{where}: unconverged={r['unconverged']}")
        median, top = float(r["median_norm"]), float(r["max_norm"])
        if not 0.05 <= float(r["ratio"]) <= 5:
            problems.append(f"{where}: ratio {r['ratio']} outside [0.05, 5]")
        if top > 1 + SLACK:
            problems.append(f"{where}: max_norm {top} > 1")
        refs = [ref.truncated_norm(s, t) for s in funcs[n]]
        for label, got, want in (("median_norm", median, statistics.median(refs)),
                                 ("max_norm", top, max(refs))):
            if not want - NORM_BELOW <= got <= want + NORM_ABOVE:
                problems.append(f"{where}: {label} {got!r} against reference {want!r}")
    return problems


# ------------------------------------------------------------ certify-sweep

CERTIFY_N = 16
# At eps = 0.1 the T = 4 norm of a random 16-bit function (0.406 to 0.434 over
# 30 draws) straddles 1/2 - eps; eps = 0.15 puts the threshold at 0.35, so
# every random function stops at T = 4 and the time stays in the dense path.
CERTIFY_EPS = 0.15
CERTIFY_TRIALS = 3  # plus parity: 4 jobs, 2 per pool thread


def certify_threads() -> int:
    return min(2, os.cpu_count() or 1)


def certify_round(rng: random.Random) -> list[Command]:
    seed = rng.randrange(2**32)
    argv = ("certify", "--n", str(CERTIFY_N), "--eps", str(CERTIFY_EPS), "--trials",
            str(CERTIFY_TRIALS), "--seed", str(seed), "--include-family", "parity",
            "--threads", str(certify_threads()))
    return [Command(argv, CERTIFY_TRIALS + 1, check_certify,
                    {"n": CERTIFY_N, "eps": CERTIFY_EPS, "trials": CERTIFY_TRIALS, "seed": seed})]


def check_certify(cmd: Command, rows: list[dict]) -> list[str]:
    p = cmd.params
    n, eps = p["n"], p["eps"]
    threshold = 0.5 - eps
    upper = ref.least_t(n, eps)
    certs = [r for r in rows if r["kind"] == "certificate"]
    summary = [r for r in rows if r["kind"] == "summary"]
    if len(certs) != p["trials"] + 1 or len(summary) != 1:
        return [f"expected {p['trials'] + 1} certificate rows and one summary row"]
    problems = []
    seeds = ref.child_seeds(p["seed"], p["trials"])
    lbs = []
    for i, r in enumerate(certs):
        lb = int(r["lower_bound_t"])
        lbs.append(lb)
        norms = json.loads(r["norms"])
        where = f"trial {i} ({r['function']})"
        if i == 0:
            signs = ref.parity_signs(n)
            if r["function"] != "parity" or lb != math.ceil(n / 2):
                problems.append(f"{where}: parity lower_bound_t={lb}, expected {math.ceil(n / 2)}")
        else:
            if int(r["seed"]) != seeds[i - 1]:
                problems.append(f"{where}: seed {r['seed']}, expected {seeds[i - 1]}")
            signs = ref.uniform_signs(n, seeds[i - 1])
        if int(r["upper_bound_t"]) != upper or lb > upper:
            problems.append(f"{where}: lower_bound_t={lb}, upper_bound_t={r['upper_bound_t']}; "
                            f"van Dam's bound is {upper}")
        if len(norms) != min(lb, n) + 1:
            problems.append(f"{where}: {len(norms)} norms for lower_bound_t={lb}")
        if any(b < a - SLACK for a, b in zip(norms, norms[1:])) or max(norms) > 1 + SLACK:
            problems.append(f"{where}: norms not nondecreasing and <= 1: {norms}")
        for t in range(min(lb, len(norms))):
            if not ref.norm_below(signs, t, threshold):
                problems.append(f"{where}: T={t} refuted but its norm is not below {threshold}")
    s = summary[0]
    expect = {"min_lower_bound_t": min(lbs), "median_lower_bound_t": statistics.median(lbs),
              "max_lower_bound_t": max(lbs), "upper_bound_t": upper}
    for key, want in expect.items():
        if float(s[key]) != want:
            problems.append(f"summary {key}={s[key]}, expected {want}")
    return problems


# ------------------------------------------------------------- interrogation

INTERROGATION_NS = (20, 21, 22, 23, 24)
INTERROGATION_EPS = 0.1
SHOTS = 1000


def interrogation_round(rng: random.Random) -> list[Command]:
    cmds = []
    for n in INTERROGATION_NS:
        x = format(rng.getrandbits(n), f"0{n}b")
        seed = rng.randrange(2**32)
        argv = ("vandam", "--n", str(n), "--eps", str(INTERROGATION_EPS), "--x", x,
                "--shots", str(SHOTS), "--seed", str(seed))
        cmds.append(Command(argv, 1, check_vandam, {"n": n, "x": x}))
    return cmds


def check_vandam(cmd: Command, rows: list[dict]) -> list[str]:
    n = cmd.params["n"]
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    r = rows[0]
    t = ref.least_t(n, INTERROGATION_EPS)
    p = ref.interrogation_success(n, t)
    problems = []
    if int(r["t"]) != t or int(r["b"]) != ref.binomial_total(n, t):
        problems.append(f"t={r['t']} b={r['b']}, expected t={t} b={ref.binomial_total(n, t)}")
    if r["x"] != cmd.params["x"] or int(r["shots"]) != SHOTS:
        problems.append(f"x={r['x']} shots={r['shots']} do not echo the command")
    if abs(Fraction(float(r["success_probability"])) - p) > PROB_TOL:
        problems.append(f"success_probability {r['success_probability']}, expected {float(p)!r}")
    mean = SHOTS * float(p)
    sigma = math.sqrt(SHOTS * float(p) * (1 - float(p)))
    if abs(int(r["recovered_count"]) - mean) > 5 * sigma:
        problems.append(f"recovered_count {r['recovered_count']} beyond 5 sigma of {mean:.1f}")
    return problems


# --------------------------------------------------------- exact-enumeration

EXACT_N = 4
# (t, k) pairs for moments --method exhaustive: k = 1 closed forms, Jensen
# bounds for k >= 2, and t = n.  Fixed, so every round costs the same.
MOMENT_CASES = ((0, 2), (1, 1), (1, 4), (2, 3), (3, 1), (4, 2))


def _random_parts(rng: random.Random, m: int, r: int) -> tuple[tuple[int, ...], ...]:
    order = list(range(1, m + 1))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, m), r - 1))
    return tuple(tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, m]))


def exact_round(rng: random.Random) -> list[Command]:
    cmds = [Command(("moments", "--method", "exhaustive", "--n", str(EXACT_N), "--t", str(t),
                     "--k", str(k)), 1, check_moments, {"n": EXACT_N, "t": t, "k": k})
            for t, k in MOMENT_CASES]
    m = rng.choice((3, 4))
    cmds.append(Command(("claim2-verify", "--n", str(EXACT_N), "--t", "2", "--m", str(m)), 1,
                        check_claim2, {"n": EXACT_N, "t": 2, "parts": (tuple(range(1, m + 1)),)}))
    for r in (2, 3):
        parts = _random_parts(rng, 4, r)
        text = "|".join(",".join(str(i) for i in p) for p in parts)
        cmds.append(Command(("claim2-verify", "--n", "3", "--t", "1", "--parts", text), 1,
                            check_claim2, {"n": 3, "t": 1, "parts": parts}))
    argv = ("claim2-verify", "--n", str(EXACT_N), "--evenness", "--m", str(rng.choice((4, 5, 6))),
            "--trials", "16", "--seed", str(rng.randrange(2**32)))
    cmds.append(Command(argv, 1, check_evenness))
    return cmds


def check_moments(cmd: Command, rows: list[dict]) -> list[str]:
    n, t, k = cmd.params["n"], cmd.params["t"], cmd.params["k"]
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    r = rows[0]
    b = ref.binomial_total(n, t)
    value = float(r["value"])
    problems = []
    if int(r["b"]) != b:
        problems.append(f"b={r['b']}, expected {b}")
    if k == 1 and value != float(Fraction(b * b, 1 << n)):
        problems.append(f"k=1 value {value!r}, expected B^2/2^n = {b * b}/{1 << n}")
    if t == n and value != float(1 << n):
        problems.append(f"t=n value {value!r}, expected 2^n = {1 << n}")
    if k >= 2 and not (float(r["bound_ratio"]) >= 1 and value <= b):
        problems.append(f"k={k}: bound_ratio {r['bound_ratio']} < 1 or value {value!r} > B={b}")
    return problems


def check_claim2(cmd: Command, rows: list[dict]) -> list[str]:
    n, t, parts = cmd.params["n"], cmd.params["t"], cmd.params["parts"]
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    total = int(rows[0]["total"])
    m = sum(len(p) for p in parts)
    if len(parts) == 1:
        want = ref.binomial_total(n, t) ** m * (1 << n)
    else:
        want = ref.partition_total(n, t, parts)
    return [] if total == want else [f"total {total}, expected {want}"]


def check_evenness(cmd: Command, rows: list[dict]) -> list[str]:
    problems = []
    for r in rows:
        xs = tuple(int(v) for v in r["tuple"].split(","))
        even = ref.all_even(xs)
        want = 1.0 if even else 0.0
        if (r["even"] == "true") != even or float(r["mean"]) != want or r["ok"] != "true":
            problems.append(f"tuple {xs}: even={r['even']} mean={r['mean']} ok={r['ok']}, "
                            f"expected even={even} mean={want}")
    if not rows:
        problems.append("no evenness rows")
    return problems


# -------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    make_round: Callable[[random.Random], list[Command]]

    def round(self, seed: int, index: int) -> list[Command]:
        return self.make_round(random.Random(f"{self.name}:{seed}:{index}"))


WORKLOADS = {w.name: w for w in (
    Workload("scaling-sweep", "random function normed", scaling_round),
    Workload("certify-sweep", "certificate row", certify_round),
    Workload("interrogation", "simulation", interrogation_round),
    Workload("exact-enumeration", "command", exact_round),
)}


def working_set(name: str) -> dict[str, int]:
    """Computed bytes of the largest arrays each workload touches (label -> bytes)."""
    if name == "scaling-sweep":
        return {f"n={n} state vector": 8 << n for n in SCALING_NS}
    if name == "certify-sweep":
        b = ref.binomial_total(CERTIFY_N, 4)
        return {f"T=4 dense matrix (B={b})": 8 * b * b, f"T=4 XOR table (B={b})": 8 * b * b,
                f"n={CERTIFY_N} state vector": 8 << CERTIFY_N}
    if name == "interrogation":
        return {f"n={n} state vector": 8 << n for n in INTERROGATION_NS}
    b = ref.binomial_total(EXACT_N, EXACT_N)
    return {"exhaustive chunk of A matrices": 8 * 4096 * b * b}
