import math
import tracemalloc

import numpy as np
import pytest

from querybound import interrogation
from querybound.interrogation import (
    asymptotic_reference_t,
    choose_t,
    simulate_exact,
    simulate_sampled,
    _distance_rows,
    _within_row_cdf,
)
from querybound.transforms import binomial_sum, build_weight_index, fwht_in_place


def _final_state(n, t, x):
    """The whole normalized final state, 2^n doubles, from the half-cube table."""
    _, rows, dh = _distance_rows(n, t, x)
    # One division of exact integers gives the uniform amplitude and the unitary Hadamard.
    return rows[dh].ravel() / math.sqrt(binomial_sum(n, t) << n)


def test_pinned_probabilities():
    assert simulate_exact(4, 2, 0b0101) == pytest.approx(11 / 16, abs=1e-12)
    assert binomial_sum(4, 2) / (1 << 4) == 11 / 16
    assert simulate_exact(6, 3, 9) == pytest.approx(42 / 64, abs=1e-12)
    assert binomial_sum(6, 3) / (1 << 6) == 42 / 64


def test_full_support_recovers_exactly():
    for x in (0, 7, 11):
        assert simulate_exact(4, 4, x) == pytest.approx(1.0, abs=1e-12)


def test_zero_queries_is_uniform():
    for x in (0, 5, 15):
        assert simulate_exact(4, 0, x) == pytest.approx(1 / 16, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_matches_closed_form_and_ignores_target(n):
    rng = np.random.default_rng(n)
    for t in range(n + 1):
        expect = binomial_sum(n, t) / (1 << n)
        xs = rng.integers(0, 1 << n, size=8)
        probs = [simulate_exact(n, t, int(x)) for x in xs]
        assert max(abs(p - expect) for p in probs) < 1e-10
        assert max(probs) - min(probs) <= 1e-10


@pytest.mark.parametrize("n", range(1, 25))
def test_success_probability_within_two_ulp_of_closed_form(n):
    # not merely within 2 ulp: B / 2^n correctly rounded, for every T and x
    for t in range(n + 1):
        expect = binomial_sum(n, t) / (1 << n)
        for x in {0, (1 << n) - 1, 0x2AAAAA % (1 << n)}:
            assert simulate_exact(n, t, x) == expect, (t, x)


def test_final_state_stays_normalized():
    for n, t in ((6, 2), (10, 4), (12, 6)):
        state = _final_state(n, t, 37 % (1 << n))
        assert abs(float(state @ state) - 1.0) < 1e-12


def test_simulate_exact_builds_no_table(monkeypatch):
    # S[x_h, x_l] = K[0] = B, so the success probability needs no kernel and no rows
    def no_table(*args):
        raise AssertionError("simulate_exact built a table")

    monkeypatch.setattr(interrogation, "ball_transform", no_table)
    monkeypatch.setattr(interrogation, "_distance_rows", no_table)
    for n, t in ((4, 2), (24, 15), (24, 0)):
        b = binomial_sum(n, t)
        assert simulate_exact(n, t, (1 << n) - 1) == b / (1 << n)
    # the range checks stay, with the messages the table's builder gave
    for args, message in (((4, 5, 0), "need 0 <= t <= n"), ((4, 2, 16), "does not fit"),
                          ((27, 2, 0), "n must lie in 1..26, got 27"), ((4, -1, 0), "need 0 <= t <= n")):
        with pytest.raises(ValueError, match=message):
            simulate_exact(*args)


def test_simulation_rejects_bad_args():
    with pytest.raises(ValueError):
        simulate_exact(4, 5, 0)
    with pytest.raises(ValueError):
        simulate_exact(4, 2, 16)
    with pytest.raises(ValueError):
        simulate_exact(27, 2, 0)
    with pytest.raises(ValueError, match="n must lie in 1..26, got 27"):
        simulate_sampled(27, 2, 0, shots=10, seed=1)


def test_choose_t_pinned():
    assert choose_t(4, 1 - 11 / 16) == 2
    for n in (3, 8, 12):
        assert choose_t(n, 1 - 0.5 ** n) == 0
        # just below the T=0 failure probability, one query becomes necessary
        assert choose_t(n, 1 - 1.5 * 0.5 ** n) == 1


def test_choose_t_integer_scan_oracle():
    # minimal T with tail sum <= eps * 2^n, checked by explicit scan
    n, eps = 10, 0.01
    budget = eps * (1 << n)
    t = 0
    while sum(math.comb(n, i) for i in range(t + 1, n + 1)) > budget:
        t += 1
    assert choose_t(10, 0.01) == t == 9


def test_choose_t_monotone_in_eps():
    for n in (5, 9, 16):
        ts = [choose_t(n, eps) for eps in (0.01, 0.05, 0.1, 1 / 3, 0.5, 0.9)]
        assert ts == sorted(ts, reverse=True)


def test_choose_t_tracks_reference_value():
    # recorded relation: exact rule never exceeds the reference count plus one
    for n in range(1, 25):
        for eps in (0.5, 1 / 3, 0.1, 0.01):
            assert choose_t(n, eps) <= asymptotic_reference_t(n, eps) + 1


def test_choose_t_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            choose_t(8, eps)


def test_sampled_deterministic_and_complete():
    a = simulate_sampled(6, 3, 11, shots=500, seed=42)
    b = simulate_sampled(6, 3, 11, shots=500, seed=42)
    assert a == b
    assert sum(a.values()) == 500


def test_sampled_full_support_is_deterministic():
    out = simulate_sampled(5, 5, 19, shots=1, seed=3)
    assert out == {19: 1}


def test_sampled_frequency_near_exact():
    out = simulate_sampled(4, 2, 9, shots=100_000, seed=7)
    # binomial 3 sigma at p = 11/16 is about 0.0044
    assert abs(out.get(9, 0) / 100_000 - 11 / 16) < 0.005


def test_sampled_rejects_zero_shots():
    with pytest.raises(ValueError):
        simulate_sampled(4, 2, 0, shots=0, seed=1)


def _index_scatter_state(n, t, x):
    """The state built by scattering 1 over the sorted weight index, signing,
    transforming the whole cube and dividing once by sqrt(B 2^n)."""
    strings = build_weight_index(n, t)
    state = np.zeros(1 << n)
    state[strings] = 1.0
    state *= 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n, dtype=np.int64) & x) & 1)
    fwht_in_place(state)
    state /= math.sqrt(strings.size << n)
    return state


@pytest.mark.parametrize("n", [*range(1, 13), 16, 20])
def test_final_state_equals_index_scatter(n):
    # bytes, so the sign of every zero matches too
    for t in range(n + 1) if n <= 12 else (0, n // 2 + 1, n):
        for x in {0, 1, (1 << n) - 1, 0x5A5 % (1 << n)}:
            assert _final_state(n, t, x).tobytes() == _index_scatter_state(n, t, x).tobytes()


@pytest.mark.parametrize("n, t, x, shots, seed, recovered, distinct", [
    (6, 3, 0b110100, 400, 3, 270, 30),
    (12, 7, 0xABC, 5000, 11, 4066, 268),
    (20, 11, 0x5A5A5, 1000, 1, 752, 128),
    (24, 15, 0xC0FFEE, 2000, 9, 1872, 100),
    (26, 15, 0x2C0FFEE, 2000, 9, 1717, 168),
])
def test_sampled_counts_pinned(n, t, x, shots, seed, recovered, distinct):
    # the draws read only the integer masses, never the reported probability
    counts = simulate_sampled(n, t, x, shots, seed)
    assert (counts.get(x, 0), len(counts), sum(counts.values())) == (recovered, distinct, shots)


def test_sampled_all_mass_on_target_lands_on_target():
    for seed in range(5):
        out = simulate_sampled(8, 8, 0b10110001, shots=10_000, seed=seed)
        assert out == {0b10110001: 10_000}


class _ExtremeDraws:
    """Stands in for the generator: uniform draws alternating 0.0 and the largest double below 1."""

    def __init__(self, bit_generator):
        pass

    def random(self, size):
        return np.resize([0.0, np.nextafter(1.0, 0.0)], size)


@pytest.mark.parametrize("x, zero, first, last", [(1, {2, 4, 7}, 0, 6), (3, {0, 5, 6}, 1, 7)])
def test_sampled_skips_zero_amplitude_strings(x, zero, first, last, monkeypatch):
    # n = 3, t = 1: the amplitude of z is proportional to 4 - 2|z XOR x|, zero at distance 2
    state = _final_state(3, 1, x)
    assert set(np.flatnonzero(state == 0.0)) == zero
    for seed in range(3):
        counts = simulate_sampled(3, 1, x, shots=100_000, seed=seed)
        assert not zero & counts.keys() and sum(counts.values()) == 100_000
    # the extreme draws land on the first and last strings of nonzero probability
    monkeypatch.setattr(np.random, "Generator", _ExtremeDraws)
    assert simulate_sampled(3, 1, x, shots=4, seed=0) == {first: 2, last: 2}


def test_extreme_draws_stay_in_range_at_the_bit_cap(monkeypatch):
    # B 2^n < 2^53 at n = 26, so even r = 1 - 2^-53 gives U below B 2^n: the
    # draws land on the first and last strings, both of nonzero mass at x = 0
    monkeypatch.setattr(np.random, "Generator", _ExtremeDraws)
    assert simulate_sampled(26, 13, 0, shots=4, seed=0) == {0: 2, (1 << 26) - 1: 2}


def test_sampled_in_blocks_equals_one_inverse_cdf_pass():
    # past 2^20 shots the draws come in blocks from one stream: same counts as one pass
    n, t, x, shots, seed = 4, 2, 9, (1 << 20) + 3, 5
    cdf = np.cumsum(_final_state(n, t, x) ** 2)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = np.searchsorted(cdf, rng.random(shots) * cdf[-1], side="right")
    hit, counts = np.unique(draws, return_counts=True)
    out = simulate_sampled(n, t, x, shots=shots, seed=seed)
    assert list(out.items()) == list(zip(hit.tolist(), counts.tolist()))


def test_sampled_distance_classes_match_exact_distribution():
    # the final distribution depends only on the distance |z XOR x|; 6 degrees of freedom
    n, t, x, shots = 6, 3, 0b101101, 200_000
    distance = np.bitwise_count(np.arange(1 << n) ^ x)
    expected = shots * np.bincount(distance, weights=_final_state(n, t, x) ** 2)
    counts = simulate_sampled(n, t, x, shots=shots, seed=12)
    observed = np.bincount(distance[list(counts)], weights=list(counts.values()), minlength=n + 1)
    assert observed.sum() == shots and expected.min() > 100
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 22.46  # the 0.999 quantile of chi-square with 6 degrees of freedom


def test_sampled_peak_memory_is_the_state_alone():
    # rows of the state are gathered from one half-cube table: no 2^n transform buffer
    state_bytes = 8 << 20
    tracemalloc.start()
    try:
        simulate_sampled(20, 11, 0x5A5A5, shots=1000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state_bytes


def _integer_amplitudes(n, t, x):
    """The final state times sqrt(B 2^n), rounded to the exact integers it holds."""
    return np.rint(_final_state(n, t, x) * math.sqrt(binomial_sum(n, t) << n)).astype(np.int64)


def _flat_inverse_cdf_counts(n, t, x, shots, seed):
    """Literal sampler: one cumulative sum of the integer masses over all 2^n strings."""
    cdf = np.cumsum(np.square(_integer_amplitudes(n, t, x)))
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = np.concatenate([
        np.searchsorted(cdf, np.floor(rng.random(min(shots - done, 1 << 20)) * cdf[-1]), side="right")
        for done in range(0, shots, 1 << 20)])
    hit, counts = np.unique(draws, return_counts=True)
    return dict(zip(hit.tolist(), counts.tolist()))


@pytest.mark.parametrize("n", range(1, 15))
def test_sampled_equals_exact_integer_flat_inverse_cdf(n):
    # row masses, then a column within the row: the same string as one flat
    # search over the integer masses, draw for draw
    for t in sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1))):
        for x in {0, (1 << n) - 1, 0x2D6B % (1 << n)}:
            for shots in (1, 1000):
                seed = 31 * n + 7 * t + x % 5 + shots
                got = simulate_sampled(n, t, x, shots, seed)
                assert got == _flat_inverse_cdf_counts(n, t, x, shots, seed), (t, x, shots)
    t, x, shots, seed = n // 2, 0x1B3 % (1 << n), (1 << 20) + 3, n
    got = simulate_sampled(n, t, x, shots, seed)
    assert got == _flat_inverse_cdf_counts(n, t, x, shots, seed)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11, 14])
def test_row_masses_are_exact_row_sums_of_squares(n):
    for t in range(n + 1):
        x = 0x35A9 % (1 << n)
        lo, table, dh = _distance_rows(n, t, x)
        rows = np.square(_integer_amplitudes(n, t, x)).reshape(-1, 1 << lo).sum(axis=1)
        masses = _within_row_cdf(table)[dh, -1]
        assert masses.dtype == np.int64 and np.array_equal(masses, rows)
        assert int(masses.sum()) == binomial_sum(n, t) << n


@pytest.mark.parametrize("simulate", [
    lambda: simulate_sampled(24, 15, 0xA5C3E1, shots=1000, seed=4),
    lambda: simulate_exact(24, 15, 0xA5C3E1),
    lambda: simulate_sampled(26, 13, 0xA5C3E1, shots=1000, seed=4),
    lambda: simulate_exact(26, 13, 0xA5C3E1),
], ids=["sampled", "exact", "sampled-n26", "exact-n26"])
def test_n24_never_allocates_the_state(simulate):
    # the 2^24-double state alone would be 128 MiB, the 2^26-double one 512 MiB
    tracemalloc.start()
    try:
        simulate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


def test_sampled_n24_boundary_draw_follows_exact_masses():
    # the literal integer oracle above, run once at this size (256 MiB), hits
    # 85647 distinct strings; a float CDF of rounded probabilities sends one
    # boundary draw elsewhere and hits 85646.  One generator call of 2^20
    # draws and its row and column searches stay under 40 MiB traced.
    tracemalloc.start()
    try:
        out = simulate_sampled(24, 12, 12345, shots=1 << 20, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 85647 and out[12345] == 609169
    assert peak <= 40 << 20, peak / 2**20
