import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybound import transforms
from querybound.boolfn import fourier, sample_uniform
from querybound.transforms import (
    MAX_BITS,
    ball_transform,
    binary_entropy,
    binomial_sum,
    build_weight_index,
    format_bitstring,
    fwht_in_place,
    parse_bitstring,
    walsh_matrix,
)


def direct_walsh(v):
    """O(4^n) reference transform: out[s] = sum_x (-1)^popcount(s & x) v[x]."""
    m = v.shape[0]
    idx = np.arange(m, dtype=np.int64)
    par = (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.float64)
    return (1.0 - 2.0 * par) @ v


def test_fwht_single_column():
    assert np.array_equal(fwht_in_place(np.array([1.0, 0.0])), [1.0, 1.0])


def test_fwht_parity_n2():
    out = fwht_in_place(np.array([1.0, -1.0, -1.0, 1.0]))
    assert np.array_equal(out, [0.0, 0.0, 0.0, 4.0])


@pytest.mark.parametrize("n", range(1, 9))
def test_fwht_matches_direct_summation(n):
    rng = np.random.default_rng(100 + n)
    v = rng.standard_normal(1 << n)
    expect = direct_walsh(v)
    got = fwht_in_place(v.copy())
    assert np.max(np.abs(got - expect)) < 1e-10


def butterfly_walsh(v):
    """Textbook radix-2 butterflies, one stage per bit; exact for int64 input."""
    v = v.copy()
    h = 1
    while h < v.shape[0]:
        w = v.reshape(-1, 2, h)
        w[:] = np.stack((w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]), axis=1)
        h *= 2
    return v


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [9, 12, 13, 18, 19, 20])
def test_fwht_matches_butterfly_reference(n, dtype):
    # 3 to 5 Kronecker factors.  Each output is a +-1 sum of 2^n inputs, and
    # random-sign rounding in either order grows like n * eps * ||v||_2; the
    # factor 16 is headroom over that, far below the error of any wrong sign.
    rng = np.random.default_rng(200 + n)
    v = rng.standard_normal(1 << n)
    if dtype is np.complex128:
        v = v + 1j * rng.standard_normal(1 << n)
    got = fwht_in_place(v.copy())
    assert got.dtype == dtype
    tol = 16 * n * np.finfo(np.float64).eps * float(np.linalg.norm(v))
    assert np.max(np.abs(got - butterfly_walsh(v))) <= tol


@pytest.mark.parametrize("n", [13, 16, 19])
def test_fourier_of_sign_table_is_exact(n):
    # Parity certificates and the zero-operator shortcut need fhat * 2^n to be
    # the exact integer sum, with no rounding in any factor.
    f = sample_uniform(n, 31 + n)
    expect = butterfly_walsh(f.signs.astype(np.int64))
    assert np.array_equal(fourier(f) * float(1 << n), expect)


@pytest.mark.parametrize("n", [1, 3, 6, 10, 16, 20])
def test_fwht_involution_and_parseval(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(1 << n)
    w = fwht_in_place(v.copy())
    # Parseval for the unnormalized transform
    assert math.isclose(float(w @ w), (1 << n) * float(v @ v), rel_tol=1e-12)
    fwht_in_place(w)
    assert np.max(np.abs(w - (1 << n) * v)) < 1e-12 * (1 << n) * np.max(np.abs(v))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1))
def test_fwht_twice_is_exactly_2_to_the_n_on_sign_tables(n, seed):
    signs = sample_uniform(n, seed).signs
    twice = fwht_in_place(fwht_in_place(signs.copy()))
    assert np.array_equal(twice, (1 << n) * signs)


def test_fwht_in_place_returns_same_buffer():
    v = np.ones(8)
    assert fwht_in_place(v) is v


def per_pass_temporaries(v):
    """The transform as each pass used to run it: grid[:] = grid @ W, a temporary per pass."""
    n = v.shape[0].bit_length() - 1
    k = -(-n // transforms._FACTOR_BITS)
    low = 0
    for i in range(k):
        c = n // k + (i < n % k)
        if low == 0:
            grid = v.reshape(-1, 1 << c)
            grid[:] = grid @ walsh_matrix(c)
        else:
            grid = v.reshape(-1, 1 << c, 1 << low)
            grid[:] = walsh_matrix(c) @ grid
        low += c
    return v


@pytest.mark.parametrize("n", range(0, 17))
def test_fwht_scratch_is_bit_identical_to_per_pass_temporaries(n):
    # k = 0..4 passes: an odd k copies the result back from the scratch buffer
    v = np.random.default_rng(300 + n).standard_normal(1 << n)
    expect = per_pass_temporaries(v.copy())
    scratch = np.full_like(v, np.nan)
    got = v.copy()
    assert fwht_in_place(got, scratch) is got
    assert np.array_equal(got, expect)
    assert np.array_equal(fwht_in_place(v.copy()), expect)


def test_fwht_rejects_bad_scratch():
    v = np.ones(16)
    for scratch in (np.empty(8), np.empty(16, dtype=np.complex128), np.empty(32)[::2], v, v[:]):
        with pytest.raises(ValueError, match="scratch"):
            fwht_in_place(v, scratch)


def test_fwht_complex_input():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    got = fwht_in_place(v.copy())
    expect = direct_walsh(v.real) + 1j * direct_walsh(v.imag)
    assert np.max(np.abs(got - expect)) < 1e-10


def test_fwht_rejects_bad_input():
    with pytest.raises(ValueError):
        fwht_in_place(np.ones(3))
    with pytest.raises(ValueError):
        fwht_in_place(np.ones(0))
    with pytest.raises(ValueError):
        fwht_in_place(np.ones(8, dtype=np.int64))
    with pytest.raises(ValueError):
        fwht_in_place(np.ones((2, 4)))
    with pytest.raises(ValueError):
        fwht_in_place(np.ones(16)[::2])


def test_binomial_sum_values():
    assert binomial_sum(4, 2) == 11
    assert binomial_sum(4, 0) == 1
    for n in (1, 5, 12, 40, 64):
        assert binomial_sum(n, n) == 1 << n


def test_binomial_sum_rejects_bad_range():
    with pytest.raises(ValueError):
        binomial_sum(4, 5)
    with pytest.raises(ValueError):
        binomial_sum(4, -1)
    with pytest.raises(ValueError):
        binomial_sum(-2, 0)


def test_ball_transform_is_the_walsh_transform_of_the_ball():
    for n in range(1, 15):
        weights = np.bitwise_count(np.arange(1 << n))
        for t in range(n + 1):
            walsh = fwht_in_place((weights <= t).astype(np.float64))
            assert np.array_equal(ball_transform(n, t)[weights], walsh), (n, t)
    # every n of the check_bits range against the Krawtchouk sum in Python ints
    for n in range(1, MAX_BITS + 1):
        krawtchouk = [[sum((-1) ** j * math.comb(d, j) * math.comb(n - d, i - j) for j in range(i + 1))
                       for i in range(n + 1)] for d in range(n + 1)]
        for t in range(n + 1):
            got = ball_transform(n, t)
            assert got.dtype == np.int64 and got.tolist() == [sum(k[:t + 1]) for k in krawtchouk], (n, t)


def test_ball_transform_rejects_bad_args():
    for n, t in ((4, 5), (4, -1), (0, 0), (MAX_BITS + 1, 3)):
        with pytest.raises(ValueError):
            ball_transform(n, t)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    for q in (0.1, 0.25, 0.4):
        assert math.isclose(binary_entropy(q), binary_entropy(1.0 - q), rel_tol=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(1.5)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_entropy_bounds_binomial_sum():
    # B <= 2^(n H(T/n)) holds in the regime T <= n/2 (it provably fails past
    # the midpoint, e.g. B(3,2) = 7 > 2^(3 H(2/3)) ~ 6.75)
    assert binomial_sum(4, 2) == 11 <= 2 ** (4 * binary_entropy(0.5)) == 16
    for n in range(2, 31):
        for t in range(1, n // 2 + 1):
            assert binomial_sum(n, t) <= 2.0 ** (n * binary_entropy(t / n)) * (1 + 1e-12)


def test_weight_index_small():
    strings = build_weight_index(2, 1)
    assert strings.tolist() == [0, 1, 2]
    assert strings.size == 3
    strings = build_weight_index(3, 3)
    assert sorted(strings.tolist()) == list(range(8))


def test_weight_index_order_and_rank():
    s = build_weight_index(4, 2)
    assert s.size == 11 == binomial_sum(4, 2)
    weights = [bin(v).count("1") for v in s.tolist()]
    assert weights == sorted(weights)
    # value order within each weight class
    for w in set(weights):
        vals = [v for v, wv in zip(s.tolist(), weights) if wv == w]
        assert vals == sorted(vals)


@pytest.mark.parametrize("n", range(1, 17))
def test_weight_index_size_matches_binomial_sum(n):
    for t in range(n + 1):
        assert build_weight_index(n, t).size == binomial_sum(n, t)


def test_weight_index_rejects_bad_args():
    with pytest.raises(ValueError):
        build_weight_index(4, 5)
    with pytest.raises(ValueError):
        build_weight_index(0, 0)
    with pytest.raises(ValueError):
        build_weight_index(27, 3)


def test_bitstring_roundtrip():
    assert parse_bitstring("0101") == 0b1010
    assert format_bitstring(0b1010, 4) == "0101"
    for x in range(16):
        assert parse_bitstring(format_bitstring(x, 4)) == x
    with pytest.raises(ValueError):
        parse_bitstring("01x1")
    with pytest.raises(ValueError):
        parse_bitstring("")
    with pytest.raises(ValueError):
        format_bitstring(16, 4)
