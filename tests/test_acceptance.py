"""Acceptance suite: one test per release criterion, numbered c01..c10.

Each test prints a single line

    criterion NN [label] PASS|FAIL: detail

before asserting, so `pytest -v -s tests/test_acceptance.py` doubles as a
checklist.  Criteria with stated wall-clock budgets assert the elapsed time
as well.  Tolerances are part of each criterion and are not adjustable here.
"""

import itertools
import math
import time

import numpy as np

from querybound.boolfn import derive_seeds, make_family, sample_uniform
from querybound.certify import certify_lower_bound
from querybound.cli import main, run_claim1_sweep
from querybound.fourier_operator import build_dense, build_matrix_free, spectral_norm
from querybound.interrogation import (
    choose_t,
    simulate_exact,
    simulate_sampled,
)
from querybound.moments import (
    PartitionSpec,
    claim2_bruteforce,
    evenness_check,
    expected_sign_product,
    expected_trace_moment_exhaustive,
    expected_trace_moment_mc,
)
from querybound.transforms import binomial_sum, build_weight_index

ROOT_SEED = 20260814


def _report(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} [{label}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_c01_interrogation_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ROOT_SEED)
    worst_err = 0.0
    worst_spread = 0.0
    for n in range(1, 15):
        total = 1 << n
        xs = rng.integers(0, total, size=20)
        for t in range(n + 1):
            expected = binomial_sum(n, t) / total
            probs = [simulate_exact(n, t, int(x)) for x in xs]
            worst_err = max(worst_err, max(abs(p - expected) for p in probs))
            worst_spread = max(worst_spread, max(probs) - min(probs))
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-10 and worst_spread <= 1e-10 and elapsed < 60
    line = _report(1, "interrogation exactness", ok,
                   f"max |p - B/2^n| = {worst_err:.3e}, max spread over x = "
                   f"{worst_spread:.3e}, {elapsed:.1f}s (n 1..14, all T, 20 x each)")
    assert ok, line


def test_c02_interrogation_error_target():
    t0 = time.perf_counter()
    n, shots = 16, 10_000
    rng = np.random.default_rng(ROOT_SEED + 1)
    details = []
    ok = True
    for i, eps in enumerate((1 / 3, 0.1)):
        t = choose_t(n, eps)
        x = int(rng.integers(0, 1 << n))
        counts = simulate_sampled(n, t, x, shots=shots, seed=ROOT_SEED + 10 + i)
        freq = counts.get(x, 0) / shots
        p = simulate_exact(n, t, x)
        sigma = math.sqrt(p * (1 - p) / shots)
        floor = 1 - eps - 3 * sigma
        ok = ok and freq >= floor and p >= 1 - eps
        details.append(f"eps={eps:.3g}: T={t}, freq={freq:.4f} "
                       f">= {floor:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    line = _report(2, "interrogation error target", ok,
                   "; ".join(details) + f", {elapsed:.1f}s")
    assert ok, line


def _conjugated_sign_matrix(f) -> np.ndarray:
    # full HFH: entry (s, t) is fhat(s xor t)
    size = 1 << f.n
    xs = np.arange(size, dtype=np.uint64)
    walsh = 1.0 - 2.0 * (np.bitwise_count(xs[:, None] & xs[None, :]) & 1)
    return walsh @ np.diag(f.signs) @ walsh / size


def test_c03_operator_oracle_equivalence():
    t0 = time.perf_counter()
    # part A: dense build against the restricted full conjugation, n <= 8
    worst_dense = 0.0
    seeds_a = derive_seeds(ROOT_SEED + 2, 16)
    si = 0
    for n in range(1, 9):
        for _ in range(2):
            f = sample_uniform(n, int(seeds_a[si])); si += 1
            conj = _conjugated_sign_matrix(f)
            for t in range(n + 1):
                strings = build_weight_index(n, t)
                sub = conj[np.ix_(strings, strings)]
                diff = np.abs(build_dense(f, t).dense_matrix - sub).max()
                worst_dense = max(worst_dense, diff)
    # part B: matrix-free apply against dense matvec, 50 random f, all T
    worst_rel = 0.0
    seeds_b = derive_seeds(ROOT_SEED + 3, 50)
    rng = np.random.default_rng(ROOT_SEED + 4)
    si = 0
    for n in (6, 7, 8, 9, 10):
        for _ in range(10):
            f = sample_uniform(n, int(seeds_b[si])); si += 1
            for t in range(n + 1):
                dense = build_dense(f, t)
                mf = build_matrix_free(f, t)
                v = rng.standard_normal(dense.size)
                dv = dense.dense_matrix @ v
                num = np.linalg.norm(mf.apply(v) - dv)
                den = np.linalg.norm(dv)
                worst_rel = max(worst_rel, num / den if den > 0 else num)
    elapsed = time.perf_counter() - t0
    ok = worst_dense <= 1e-10 and worst_rel <= 1e-9 and elapsed < 300
    line = _report(3, "operator oracle equivalence", ok,
                   f"dense vs conjugation max entry diff = {worst_dense:.3e} "
                   f"(n 1..8), matrix-free vs dense matvec max rel err = "
                   f"{worst_rel:.3e} (50 f, all T), {elapsed:.1f}s")
    assert ok, line


def test_c04_spectral_facts():
    t0 = time.perf_counter()
    worst_full = 0.0      # | ||F_n|| - 1 |
    worst_invol = 0.0     # || F_n^2 - I ||_max
    worst_excess = 0.0    # max over T of ||F_T|| - 1
    worst_drop = 0.0      # max monotonicity violation
    count = 0
    for n, reps in ((6, 7), (8, 7), (10, 6)):
        seeds = derive_seeds(ROOT_SEED + 5 + n, reps)
        for s in seeds:
            f = sample_uniform(n, int(s))
            norms = [spectral_norm(build_dense(f, t)).value for t in range(n + 1)]
            worst_excess = max(worst_excess, max(norms) - 1.0)
            worst_drop = max(worst_drop,
                             max(a - b for a, b in zip(norms, norms[1:])))
            worst_full = max(worst_full, abs(norms[n] - 1.0))
            full = build_dense(f, n).dense_matrix
            eye = np.eye(full.shape[0])
            worst_invol = max(worst_invol, np.abs(full @ full - eye).max())
            count += 1
    elapsed = time.perf_counter() - t0
    ok = (count == 20 and worst_full <= 1e-8 and worst_invol <= 1e-8
          and worst_excess <= 1e-8 and worst_drop <= 1e-8)
    line = _report(4, "spectral facts", ok,
                   f"20 f at n in {{6,8,10}}: | ||F_n||-1 | = {worst_full:.2e}, "
                   f"||F_n^2-I||max = {worst_invol:.2e}, max norm excess = "
                   f"{worst_excess:.2e}, max T-monotonicity drop = "
                   f"{worst_drop:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_c05_parity_certificates():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 13):
        cert = certify_lower_bound(make_family("parity", n), eps=0.1)
        want = (n + 1) // 2
        if cert.lower_bound_t != want or cert.status != "certified":
            failures.append(f"n={n}: T*={cert.lower_bound_t} status={cert.status}")
            continue
        for t, ev in enumerate(cert.evidence):
            target = 1.0 if t == want else 0.0
            if abs(ev.value - target) > 1e-9:
                failures.append(f"n={n}, T={t}: norm={ev.value!r}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    line = _report(5, "parity certificate", ok,
                   ("all n in 2..12 give ceil(n/2), certified, norms 0/1 to 1e-9"
                    if ok else "; ".join(failures)) + f", {elapsed:.1f}s")
    assert ok, line


def test_c06_certificate_soundness():
    t0 = time.perf_counter()
    cells = [(n, eps) for n in range(6, 15) for eps in (1 / 3, 0.1)]
    violations = []
    count = 0
    for ci, (n, eps) in enumerate(cells):
        trials = 12 if ci < 2 else 11    # 2*12 + 16*11 = 200
        seeds = derive_seeds(ROOT_SEED + 100 + ci, trials)
        cap = choose_t(n, eps)
        for s in seeds:
            f = sample_uniform(n, int(s))
            cert = certify_lower_bound(f, eps=eps)
            count += 1
            if cert.lower_bound_t > cap:
                violations.append(f"n={n} eps={eps:.3g} seed={int(s)}: "
                                  f"{cert.lower_bound_t} > {cap}")
    elapsed = time.perf_counter() - t0
    ok = count == 200 and not violations
    line = _report(6, "certificate soundness", ok,
                   f"{count} certificates over n 6..14 x eps {{1/3, 0.1}}, "
                   f"{len(violations)} violations of T* <= choose_t, {elapsed:.1f}s"
                   + ("" if not violations else "; " + "; ".join(violations[:4])))
    assert ok, line


def test_c07_moment_closed_forms():
    t0 = time.perf_counter()
    failures = []
    for t in range(4):
        rep = expected_trace_moment_exhaustive(3, t, 1)
        want = binomial_sum(3, t) ** 2 / 8
        if rep.value != want:
            failures.append(f"exhaustive n=3 T={t}: {rep.value!r} != {want!r}")
    mc_details = []
    for i, n in enumerate((8, 10)):
        t = int(0.4 * n)
        rep = expected_trace_moment_mc(n, t, 1, trials=200, seed=ROOT_SEED + 20 + i)
        want = binomial_sum(n, t) ** 2 / (1 << n)
        dev = abs(rep.value - want) / rep.stderr
        mc_details.append(f"n={n}: |mc - B^2/2^n| = {dev:.2f} se")
        if dev > 4:
            failures.append(f"mc n={n} T={t}: {rep.value:.4f} vs {want:.4f}, "
                            f"{dev:.2f} standard errors")
    elapsed = time.perf_counter() - t0
    ok = not failures
    line = _report(7, "moment closed forms", ok,
                   ("exhaustive n=3 exact for T 0..3; " + ", ".join(mc_details)
                    if ok else "; ".join(failures)) + f", {elapsed:.1f}s")
    assert ok, line


def test_c08_partition_base_case_and_evenness():
    t0 = time.perf_counter()
    failures = []
    for m, n, t in ((2, 3, 1), (4, 2, 1), (2, 3, 3)):
        res = claim2_bruteforce(n, t, PartitionSpec.single(m))
        want = binomial_sum(n, t) ** m * (1 << n)
        if res.total != want:
            failures.append(f"r=1 (m={m}, n={n}, T={t}): {res.total} != {want}")
    # every tuple with m <= 4, n <= 3: expectation is exactly 1 for even
    # multiplicity patterns and exactly 0 otherwise
    checked = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for xs in itertools.product(range(1 << n), repeat=m):
                even = all(c % 2 == 0 for c in
                           np.unique(np.asarray(xs), return_counts=True)[1])
                got = expected_sign_product(n, xs)
                if got != (1.0 if even else 0.0):
                    failures.append(f"n={n} xs={xs}: {got!r}")
                checked += 1
    if not all(e.ok for e in evenness_check(3, 4, trials=30, seed=ROOT_SEED + 30)):
        failures.append("evenness_check(3, 4) reported a mismatch")
    elapsed = time.perf_counter() - t0
    ok = not failures
    line = _report(8, "partition base case and evenness", ok,
                   (f"three r=1 sums exact, {checked} tuples exact 1/0, "
                    f"evenness_check ok" if ok else "; ".join(failures[:5]))
                   + f", {elapsed:.1f}s")
    assert ok, line


def test_c09_norm_scaling_band():
    t0 = time.perf_counter()
    rows = run_claim1_sweep([10, 12, 14, 16], 0.4, trials=50, seed=ROOT_SEED)
    ratios = {r["n"]: r["ratio"] for r in rows if r["kind"] == "random"}
    unconverged = sum(r["unconverged"] for r in rows)
    lo, hi = min(ratios.values()), max(ratios.values())
    elapsed = time.perf_counter() - t0
    ok = (len(ratios) == 4 and unconverged == 0
          and 0.05 <= lo and hi <= 5 and hi / lo < 2 and elapsed < 900)
    pretty = ", ".join(f"n={n}: {v:.3f}" for n, v in sorted(ratios.items()))
    line = _report(9, "norm scaling band", ok,
                   f"median-norm ratios {pretty}; spread x{hi / lo:.2f} < 2, "
                   f"band [0.05, 5], unconverged={unconverged}, {elapsed:.0f}s")
    assert ok, line


def test_c10_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = {
        "vandam": ["vandam", "--n", "8", "--t", "4", "--x", "10110010",
                   "--shots", "500", "--seed", "7"],
        "norm": ["norm", "--family", "parity", "--n", "8", "--t", "4",
                 "--matrix-free", "--seed", "3"],
        "certify": ["certify", "--n", "6", "--eps", "0.333", "--trials", "3",
                    "--seed", "5", "--threads", "1"],
        "moments": ["moments", "--method", "mc", "--n", "6", "--t", "2",
                    "--k", "1", "--trials", "10", "--seed", "1", "--threads", "1"],
        "claim1-sweep": ["claim1-sweep", "--ns", "6,8", "--trials", "3",
                         "--seed", "2", "--threads", "1"],
        "claim2-verify": ["claim2-verify", "--n", "3", "--evenness", "--m", "4",
                          "--trials", "5", "--seed", "8"],
    }
    mismatches = []
    for name, argv in configs.items():
        for fmt in ("csv", "json"):
            blobs = []
            for run in ("a", "b"):
                out = tmp_path / f"{name}-{fmt}-{run}.{fmt}"
                rc = main(argv + ["--format", fmt, "--out", str(out)])
                assert rc == 0, f"{name} ({fmt}) exited {rc}"
                blobs.append(out.read_bytes())
            if blobs[0] != blobs[1]:
                mismatches.append(f"{name} ({fmt})")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    line = _report(10, "determinism", ok,
                   (f"{len(configs)} randomized subcommands x csv+json "
                    f"byte-identical on rerun" if ok
                    else "differs: " + ", ".join(mismatches)) + f", {elapsed:.1f}s")
    assert ok, line
