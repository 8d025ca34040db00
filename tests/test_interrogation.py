import math

import numpy as np
import pytest

from querybound.interrogation import (
    asymptotic_reference_t,
    choose_t,
    simulate_exact,
    simulate_sampled,
    success_probability_closed_form,
    _final_state,
)
from querybound.transforms import build_weight_index, fwht_in_place


def test_pinned_probabilities():
    assert simulate_exact(4, 2, 0b0101).success_probability == pytest.approx(11 / 16, abs=1e-12)
    assert success_probability_closed_form(4, 2) == 11 / 16
    assert simulate_exact(6, 3, 9).success_probability == pytest.approx(42 / 64, abs=1e-12)
    assert success_probability_closed_form(6, 3) == 42 / 64


def test_full_support_recovers_exactly():
    for x in (0, 7, 11):
        assert simulate_exact(4, 4, x).success_probability == pytest.approx(1.0, abs=1e-12)


def test_zero_queries_is_uniform():
    for x in (0, 5, 15):
        assert simulate_exact(4, 0, x).success_probability == pytest.approx(1 / 16, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_matches_closed_form_and_ignores_target(n):
    rng = np.random.default_rng(n)
    for t in range(n + 1):
        expect = success_probability_closed_form(n, t)
        xs = rng.integers(0, 1 << n, size=8)
        probs = [simulate_exact(n, t, int(x)).success_probability for x in xs]
        assert max(abs(p - expect) for p in probs) < 1e-10
        assert max(probs) - min(probs) <= 1e-10


def test_final_state_stays_normalized():
    for n, t in ((6, 2), (10, 4), (12, 6)):
        state = _final_state(n, t, 37 % (1 << n))
        assert abs(float(state @ state) - 1.0) < 1e-12


def test_simulation_rejects_bad_args():
    with pytest.raises(ValueError):
        simulate_exact(4, 5, 0)
    with pytest.raises(ValueError):
        simulate_exact(4, 2, 16)
    with pytest.raises(ValueError):
        simulate_exact(25, 2, 0)


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
    assert a.sampled_counts == b.sampled_counts
    assert sum(a.sampled_counts.values()) == 500
    assert a.recovered_frequency == a.sampled_counts[11] / 500


def test_sampled_full_support_is_deterministic():
    out = simulate_sampled(5, 5, 19, shots=1, seed=3)
    assert out.sampled_counts == {19: 1}


def test_sampled_frequency_near_exact():
    out = simulate_sampled(4, 2, 9, shots=100_000, seed=7)
    # binomial 3 sigma at p = 11/16 is about 0.0044
    assert abs(out.recovered_frequency - 11 / 16) < 0.005


def test_sampled_rejects_zero_shots():
    with pytest.raises(ValueError):
        simulate_sampled(4, 2, 0, shots=0, seed=1)


def _index_scatter_state(n, t, x):
    """The state built by scattering 1/sqrt(B) over the sorted weight index."""
    idx = build_weight_index(n, t)
    state = np.zeros(1 << n)
    state[idx.strings] = 1.0 / math.sqrt(idx.size)
    state *= 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n, dtype=np.int64) & x) & 1)
    fwht_in_place(state)
    state /= math.sqrt(1 << n)
    return state


@pytest.mark.parametrize("n", range(1, 13))
def test_final_state_equals_index_scatter(n):
    for t in range(n + 1):
        for x in {0, 1, (1 << n) - 1, 0x5A5 % (1 << n)}:
            assert np.array_equal(_final_state(n, t, x), _index_scatter_state(n, t, x))
