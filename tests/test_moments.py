import csv
import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybound import moments
from querybound.boolfn import BooleanFunction, make_family, sample_uniform
from querybound.cli import main
from querybound.fourier_operator import build_dense, spectral_norm
from querybound.moments import (
    PartitionSpec,
    _sign_table_orbits,
    claim2_bruteforce,
    evenness_check,
    expected_sign_product,
    expected_trace_moment_exhaustive,
    expected_trace_moment_mc,
    trace_moment,
)
from querybound.transforms import ball_transform, binomial_sum, build_weight_index, walsh_matrix


def test_trace_full_truncation_is_dimension():
    for n in (3, 5):
        for k in (1, 2, 3):
            f = sample_uniform(n, 10 * n + k)
            assert trace_moment(f, n, k).value == pytest.approx(1 << n, rel=1e-10)


def test_trace_zero_operator():
    assert trace_moment(make_family("parity", 4), 1, 1).value == 0.0
    assert trace_moment(make_family("parity", 4), 1, 3).value == 0.0


def test_trace_identity_operator():
    for t in (0, 1, 3):
        rep = trace_moment(make_family("constant_plus", 5), t, 2)
        assert rep.value == pytest.approx(binomial_sum(5, t), rel=1e-12)


def test_trace_moment_sandwich():
    # norm^2k <= trace <= B * norm^2k
    for seed in range(5):
        f = sample_uniform(8, 400 + seed)
        for t, k in ((2, 1), (3, 2)):
            norm = spectral_norm(build_dense(f, t)).value
            rep = trace_moment(f, t, k)
            b = binomial_sum(8, t)
            assert rep.value >= norm ** (2 * k) * (1 - 1e-6)
            assert rep.value <= b * norm ** (2 * k) * (1 + 1e-6)


def test_trace_rejects_bad_k():
    with pytest.raises(ValueError):
        trace_moment(make_family("parity", 4), 1, 0)


def test_exhaustive_closed_form_n3():
    # E[Tr(F_T^2)] = B^2 / 2^n, exact dyadic values
    for t, expect in ((0, 1 / 8), (1, 2.0), (2, 49 / 8), (3, 8.0)):
        rep = expected_trace_moment_exhaustive(3, t, 1)
        assert rep.value == expect
        assert rep.stderr == 0.0
        assert rep.method == "exhaustive_expectation"


def test_exhaustive_closed_form_n2_and_n4():
    for n in (2, 4):
        for t in range(n + 1):
            rep = expected_trace_moment_exhaustive(n, t, 1)
            assert rep.value == binomial_sum(n, t) ** 2 / (1 << n)


def test_exhaustive_k2_against_direct_average():
    # independent oracle: average eigvalsh-based traces over all 256 functions
    n, t, k = 3, 1, 2
    total = 0.0
    for code in range(1 << (1 << n)):
        signs = 1.0 - 2.0 * ((code >> np.arange(1 << n)) & 1)
        total += trace_moment(BooleanFunction(n, signs), t, k).value
    direct = total / (1 << (1 << n))
    rep = expected_trace_moment_exhaustive(n, t, k)
    assert rep.value == pytest.approx(direct, rel=1e-12)


def _trace4_expectation(n: int, t: int) -> Fraction:
    """E Tr(F_T^4) over uniform f, exactly, from Python ints.

    E f(x1) f(x2) f(x3) f(x4) is 1 when the points pair up and 0 otherwise.
    In units of 2^(-3n): the two pairings of neighbouring factors give
    2^n B^3 each, the crossing one gives sum_d C(n, d) K_d^4 (2^n times the
    4-tuples of the ball with XOR 0), and four equal points, counted by all
    three pairings, take 2 B^4 off.
    """
    b = binomial_sum(n, t)
    kernel = [int(v) for v in ball_transform(n, t)]
    crossing = sum(math.comb(n, d) * kernel[d] ** 4 for d in range(n + 1))
    return Fraction((1 << (n + 1)) * b**3 - 2 * b**4 + crossing, 1 << (3 * n))


def test_trace4_closed_form_equals_exhaustive():
    cases = [(n, t) for n in range(1, 5) for t in range(n + 1)]
    assert len(cases) == 14
    for n, t in cases:
        assert float(_trace4_expectation(n, t)) == expected_trace_moment_exhaustive(n, t, 2).value


@pytest.mark.parametrize("n, t, trials", [(8, 3, 200), (10, 4, 200), (12, 4, 100)])
def test_mc_k2_matches_closed_form_past_exhaustive(n, t, trials):
    rep = expected_trace_moment_mc(n, t, 2, trials=trials, seed=1)
    assert abs(rep.value - float(_trace4_expectation(n, t))) <= 4 * rep.stderr


def test_exhaustive_rejects_large_n():
    with pytest.raises(ValueError):
        expected_trace_moment_exhaustive(5, 2, 1)


def test_mc_matches_exhaustive_within_stderr():
    rep = expected_trace_moment_mc(3, 1, 1, trials=500, seed=12)
    assert abs(rep.value - 2.0) <= 4 * rep.stderr
    assert rep.trials == 500


def test_mc_deterministic():
    a = expected_trace_moment_mc(6, 2, 1, trials=30, seed=5)
    b = expected_trace_moment_mc(6, 2, 1, trials=30, seed=5)
    assert a.value == b.value and a.stderr == b.stderr


def test_mc_threads_match_serial():
    a = expected_trace_moment_mc(6, 2, 1, trials=16, seed=5, threads=1)
    b = expected_trace_moment_mc(6, 2, 1, trials=16, seed=5, threads=4)
    assert a.value == b.value


@pytest.mark.parametrize("n, t, k, message", [
    (24, 12, 1, r"^B=9740686 exceeds the dense budget 4096$"),
    (24, 2, 0, r"^k must be >= 1, got 0$"),
    (6, 7, 1, r"^need 0 <= t <= n, got n=6, t=7$"),
    (27, 2, 1, r"^n must lie in 1\.\.26, got 27$"),
], ids=["budget", "k", "t", "n"])
def test_mc_refuses_before_sampling(n, t, k, message, monkeypatch):
    monkeypatch.setattr(moments, "sample_uniform", lambda *args: pytest.fail("a sign table was drawn"))
    with pytest.raises(ValueError, match=message):
        expected_trace_moment_mc(n, t, k, trials=2, seed=1)


def test_mc_bound_ratio_positive():
    rep = expected_trace_moment_mc(8, 3, 2, trials=40, seed=3)
    assert rep.bound_ratio > 0.0
    assert math.isfinite(rep.bound_ratio)


def test_partition_spec_validation():
    spec = PartitionSpec(4, ((3, 4), (2, 1)))
    assert spec.parts == ((3, 4), (1, 2))
    assert spec.r == 2
    assert PartitionSpec.single(3).parts == ((1, 2, 3),)
    with pytest.raises(ValueError):
        PartitionSpec(4, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        PartitionSpec(4, ((1, 2),))
    with pytest.raises(ValueError):
        PartitionSpec(4, ((1, 2), (3, 4), ()))


def test_claim2_single_part_base_cases():
    for m, n, t in ((2, 3, 1), (4, 2, 1), (2, 3, 3), (2, 2, 2), (4, 3, 1)):
        res = claim2_bruteforce(n, t, PartitionSpec.single(m))
        b = binomial_sum(n, t)
        assert res.total == b**m * (1 << n)
        assert res.bound == res.total  # r = 1 makes the bound exact
    assert claim2_bruteforce(3, 1, PartitionSpec.single(2)).total == 128
    assert claim2_bruteforce(2, 1, PartitionSpec.single(4)).total == 324


def bruteforce_oracle(n, t, spec):
    """Literal nested-loop enumeration, no grouping, no vectorization."""
    from querybound.transforms import build_weight_index

    strings = build_weight_index(n, t).tolist()
    total = 0
    for svec in itertools.product(strings, repeat=spec.m):
        e = [svec[i] ^ svec[(i + 1) % spec.m] for i in range(spec.m)]
        ts = []
        for part in spec.parts:
            acc = 0
            for i in part:
                acc ^= e[i - 1]
            ts.append(acc)
        for xs in itertools.product(range(1 << n), repeat=spec.r):
            if len(set(xs)) < spec.r:
                continue
            par = 0
            for tj, xj in zip(ts, xs):
                par ^= bin(tj & xj).count("1") & 1
            total += 1 - 2 * par
    return total


@pytest.mark.parametrize(
    "n,t,parts",
    [
        (3, 1, ((1, 2), (3, 4))),
        (2, 2, ((1, 4), (2, 3))),
        (2, 1, ((1, 2), (3, 4), (5, 6))),
        (2, 1, ((1, 3), (2, 4, 5))),
        (3, 2, ((1,), (2, 3))),
        (3, 0, ((1, 2), (3,))),  # t = 0: K is 1 everywhere
        (2, 2, ((1,), (2, 3))),  # t = n: K is 2^n at 0, else 0
        (2, 1, ((1,), (2,), (3,))),  # all singletons
        (3, 2, ((1,),)),  # m = 1
        (2, 1, ((1, 3), (2, 4))),  # interleaved parts
    ],
)
def test_claim2_matches_literal_enumeration(n, t, parts):
    spec = PartitionSpec(max(i for p in parts for i in p), parts)
    res = claim2_bruteforce(n, t, spec)
    assert res.total == bruteforce_oracle(n, t, spec)
    assert res.bound == res.b ** (spec.m - spec.r + 1) * (1 << (n * spec.r))


def test_claim2_two_part_value_within_bound():
    res = claim2_bruteforce(3, 1, PartitionSpec(4, ((1, 2), (3, 4))))
    assert res.total == 2048
    assert abs(res.total) <= res.bound


def test_claim2_budget_guard():
    with pytest.raises(ValueError, match="budget|terms"):
        claim2_bruteforce(8, 8, PartitionSpec.single(4))


def test_claim2_reads_the_kernel_by_weight():
    # one point tuple at n = 26: no table over the 2^26 strings
    tracemalloc.start()
    try:
        res = claim2_bruteforce(26, 0, PartitionSpec.single(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total == 2**26
    assert peak < 1 << 20


def test_claim2_refusal_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="terms"):
            claim2_bruteforce(26, 26, PartitionSpec.single(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError):
        claim2_bruteforce(0, 0, PartitionSpec.single(2))
    with pytest.raises(ValueError):
        claim2_bruteforce(3, 4, PartitionSpec.single(2))


def test_expected_sign_product_cases():
    assert expected_sign_product(3, (5, 5)) == 1.0
    assert expected_sign_product(3, (1, 2, 1, 2)) == 1.0
    assert expected_sign_product(3, (1, 2, 2, 2)) == 0.0
    assert expected_sign_product(2, (0,)) == 0.0
    assert expected_sign_product(2, (3, 3, 3, 3)) == 1.0


def test_expected_sign_product_rejects_bad_points():
    with pytest.raises(ValueError):
        expected_sign_product(2, (4,))
    with pytest.raises(ValueError):
        expected_sign_product(2, ())


def test_evenness_check_report():
    entries = evenness_check(3, 4, trials=10, seed=2)
    assert all(e.ok for e in entries)
    assert len(entries) == 10
    assert any(e.even for e in entries)
    assert any(not e.even for e in entries)
    for e in entries:
        assert e.mean == (1.0 if e.even else 0.0)


def test_evenness_check_odd_m_never_even():
    entries = evenness_check(3, 3, trials=8, seed=1)
    assert all(e.ok for e in entries)
    assert all(not e.even and e.mean == 0.0 for e in entries)


def test_evenness_check_rejects_bad_args():
    with pytest.raises(ValueError):
        evenness_check(3, 7, trials=2, seed=0)
    with pytest.raises(ValueError):
        evenness_check(5, 2, trials=2, seed=0)


def test_exhaustive_high_k_against_batched_eigvalsh(tmp_path):
    # the k guard admits these (||A|| <= 2^n); the oracle averages float64
    # eigenvalue powers over all 65536 sign tables of n = 4
    n, t = 4, 3
    m = 1 << n
    grid = np.arange(m)
    walsh = 1.0 - 2.0 * (np.bitwise_count(grid[:, None] & grid[None, :]) & 1)
    strings = build_weight_index(n, t)
    xor_table = strings[:, None] ^ strings[None, :]
    sums = {4: 0.0, 5: 0.0}
    for start in range(0, 1 << m, 1 << 12):
        codes = np.arange(start, start + (1 << 12))
        signs = 1.0 - 2.0 * ((codes[:, None] >> grid[None, :]) & 1)
        eigs = np.linalg.eigvalsh((signs @ walsh / m)[:, xor_table])
        for k in sums:
            sums[k] += float(np.sum(eigs ** (2 * k)))
    for k, total in sums.items():
        out = tmp_path / f"k{k}.csv"
        argv = ["moments", "--method", "exhaustive", "--n", "4", "--t", "3", "--k", str(k)]
        assert main([*argv, "--out", str(out)]) == 0
        value = float(next(csv.DictReader(io.StringIO(out.read_text())))["value"])
        assert value == pytest.approx(total / (1 << m), rel=1e-12)


def test_exhaustive_rejects_int64_overflow():
    with pytest.raises(ValueError, match="overflows"):
        expected_trace_moment_exhaustive(4, 4, 6)


def _guard_max_k(n: int, t: int) -> int:
    # largest k with 2^12 * B * 2^(2nk) < 2^63, the guard's own inequality
    b, k = binomial_sum(n, t), 1
    while (1 << 12) * b * (1 << (2 * n * (k + 1))) < 2**63:
        k += 1
    return k


def _integer_matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(a * c for a, c in zip(row, col)) for col in cols] for row in x]


def _fraction_trace_moment(n: int, t: int, k: int) -> Fraction:
    """Average Tr(F_T^{2k}) over all sign tables with Python integers only."""
    m = 1 << n
    strings = [s for s in range(m) if s.bit_count() <= t]
    total = 0
    for code in range(1 << m):
        f = [1 - 2 * ((code >> x) & 1) for x in range(m)]
        wf = [sum(f[x] * (1 - 2 * ((s & x).bit_count() & 1)) for x in range(m)) for s in range(m)]
        a = [[wf[u ^ v] for v in strings] for u in strings]
        power, base, e = None, a, 2 * k
        while e:
            if e & 1:
                power = base if power is None else _integer_matmul(power, base)
            e >>= 1
            if e:
                base = _integer_matmul(base, base)
        total += sum(power[i][i] for i in range(len(strings)))
    return Fraction(total, (1 << m) * m ** (2 * k))


@st.composite
def _guarded_moment_case(draw):
    n = draw(st.integers(1, 3))
    t = draw(st.integers(0, n))
    return n, t, draw(st.integers(1, _guard_max_k(n, t)))


@settings(max_examples=40, deadline=None)
@given(_guarded_moment_case())
def test_exhaustive_equals_fraction_oracle(case):
    n, t, k = case
    exact = _fraction_trace_moment(n, t, k)
    rep = expected_trace_moment_exhaustive(n, t, k)
    assert rep.value == float(exact)
    with pytest.raises(ValueError, match="overflows"):
        expected_trace_moment_exhaustive(n, t, _guard_max_k(n, t) + 1)


@pytest.mark.parametrize(
    "t, k, value",
    [(0, 2, 0.01123046875), (1, 1, 1.5625), (1, 4, 0.5147263407707214),
     (2, 3, 6.6591033935546875), (3, 1, 14.0625), (4, 2, 16.0)],
)
def test_exhaustive_n4_benchmark_cases_pinned(t, k, value):
    assert expected_trace_moment_exhaustive(4, t, k).value == value


@pytest.mark.parametrize(
    "t, k, value",
    [(1, 6, 0.3648919949773699), (3, 5, 14.000582434237003), (4, 5, 16.0)],
)
def test_exhaustive_n4_guard_edge_pinned(t, k, value):
    assert k == _guard_max_k(4, t)
    assert expected_trace_moment_exhaustive(4, t, k).value == value


def _translate_table(code: int, m: int, a: int) -> int:
    """Index of the table f(x XOR a), for table code with f(x) = (-1)^(bit x of code)."""
    return sum(((code >> (x ^ a)) & 1) << x for x in range(m))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sign_table_orbits_partition_every_table(n):
    m = 1 << n
    reps, sizes = _sign_table_orbits(n)
    assert not reps.flags.writeable and not sizes.flags.writeable
    assert int(sizes.sum()) == 1 << m
    assert all((2 << n) % int(size) == 0 for size in sizes)
    seen = set()
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        translates = {_translate_table(rep, m, a) for a in range(m)}
        orbit = translates | {code ^ ((1 << m) - 1) for code in translates}
        assert min(orbit) == rep and len(orbit) == size
        assert not orbit & seen
        seen |= orbit
    assert len(seen) == 1 << m


def test_sign_table_orbit_count_n4():
    reps, sizes = _sign_table_orbits(4)
    assert reps.size == 2288
    # each orbit-size group is summed in int64 under the guard's 2^12 factor
    assert max(np.unique(sizes, return_counts=True)[1]) <= 1 << 12


def _full_table_trace_moment(n: int, t: int, k: int) -> Fraction:
    """The exhaustive moment as a loop over all 2^(2^n) tables in chunks of 4096."""
    m = 1 << n
    strings = build_weight_index(n, t)
    grid = np.arange(m, dtype=np.int64)
    xor_table = strings[:, None] ^ strings[None, :]
    total = 0
    for start in range(0, 1 << m, 1 << 12):
        fi = np.arange(start, min(start + (1 << 12), 1 << m), dtype=np.int64)
        signs = 1.0 - 2.0 * ((fi[:, None] >> grid[None, :]) & 1)
        a = np.take(signs @ walsh_matrix(n), xor_table, axis=1)
        p = a
        for _ in range(k - 1):
            p = p @ a
        total += int(np.einsum("ijk,ijk->i", p, p).astype(np.int64).sum())
    return Fraction(total, (1 << m) * m ** (2 * k))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exhaustive_orbit_sum_equals_full_table_loop(n):
    for t in range(n + 1):
        for k in range(1, _guard_max_k(n, t) + 1):
            rep = expected_trace_moment_exhaustive(n, t, k)
            assert rep.value == float(_full_table_trace_moment(n, t, k)), (t, k)


def _integer_trace_power(a: list[list[int]], power: int) -> int:
    p = a
    for _ in range(power - 1):
        p = _integer_matmul(p, a)
    return sum(p[i][i] for i in range(len(p)))


def _scaled_operator(f: BooleanFunction, t: int) -> list[list[int]]:
    return np.rint(build_dense(f, t).dense_matrix * (1 << f.n)).astype(np.int64).tolist()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_trace_moment_invariant_under_translation_and_negation(n, data):
    t = data.draw(st.integers(0, n))
    k = data.draw(st.integers(1, 3))
    a = data.draw(st.integers(0, (1 << n) - 1))
    f = sample_uniform(n, data.draw(st.integers(0, 2**32 - 1)))
    shifted = BooleanFunction(n, f.signs[np.arange(1 << n) ^ a])
    traces = {_integer_trace_power(_scaled_operator(g, t), 2 * k)
              for g in (f, shifted, f.negated())}
    assert len(traces) == 1


def test_exhaustive_peak_memory_n4():
    expected_trace_moment_exhaustive(4, 4, 2)  # warm the orbit and Walsh caches
    tracemalloc.start()
    try:
        expected_trace_moment_exhaustive(4, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20


def test_trace_moment_majority_is_exact():
    assert trace_moment(make_family("majority", 7), 3, 2).value == 30.19775390625


def test_trace_moment_equals_integer_oracle_on_every_n3_table():
    # B 2^(2nk) < 2^53 bounds every entry and partial sum, so no operation rounds
    n = 3
    for code in range(1 << (1 << n)):
        f = BooleanFunction(n, 1.0 - 2.0 * ((code >> np.arange(1 << n)) & 1))
        for t in range(n + 1):
            b, a = binomial_sum(n, t), _scaled_operator(f, t)
            power = a
            for k in itertools.count(1):
                if b << (2 * n * k) >= 2**53:
                    break
                power = _integer_matmul(power, a)  # A^(2k) after the second product
                trace = sum(power[i][i] for i in range(b))
                assert Fraction(trace_moment(f, t, k).value) == Fraction(trace, 1 << (2 * n * k))
                power = _integer_matmul(power, a)


def test_trace_moment_high_k_matches_eigenvalue_powers():
    f = sample_uniform(8, 64)
    eigs = np.linalg.eigvalsh(build_dense(f, 3).dense_matrix)
    assert trace_moment(f, 3, 64).value == pytest.approx(float(np.sum(eigs ** 128)), rel=1e-12)
