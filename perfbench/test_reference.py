"""Known-answer tests for the benchmark's reference computations.

Run with:  python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import reference as ref


@pytest.mark.parametrize("n", range(1, 7))
def test_walsh_transform_matches_explicit_matrix(n):
    w = ref.walsh_matrix(n)
    assert np.array_equal(w @ w, (1 << n) * np.eye(1 << n))
    for x in range(1 << n):
        for s in range(1 << n):
            assert w[s, x] == (-1) ** ref.popcount(s & x)
    v = np.random.Generator(np.random.PCG64(n)).standard_normal(1 << n)
    assert np.allclose(ref.walsh_transform(v), w @ v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,t", [(3, 0), (5, 2), (8, 3), (11, 4)])
def test_constant_function_has_norm_one(n, t):
    signs = np.ones(1 << n)
    assert ref.truncated_norm(signs, t) == pytest.approx(1.0, abs=1e-12)
    assert ref.truncated_norm(signs, t, dense_max=0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 9, 12])
def test_parity_norm_is_zero_below_half_and_one_at_half(n):
    signs = ref.parity_signs(n)
    for t in range(0, (n + 1) // 2):
        if 2 * t < n:
            assert ref.frobenius_norm(signs, t) == 0.0
            assert ref.truncated_norm(signs, t) == 0.0
    assert ref.truncated_norm(signs, math.ceil(n / 2)) == pytest.approx(1.0, abs=1e-12)


def test_or_function_explicit_matrix():
    # n = 2, +1 only at x = 0: fhat = (-1/2, 1/2, 1/2, 1/2); weight-<= 1 strings 0, 1, 2.
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    expected = np.array([[-0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.5, 0.5, -0.5]])
    assert np.array_equal(ref.truncated_matrix(signs, 1), expected)
    assert np.allclose(np.linalg.eigvalsh(expected), [-1.0, -1.0, 0.5])
    assert ref.truncated_norm(signs, 1) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frobenius_and_lanczos_agree_with_dense(seed):
    signs = ref.uniform_signs(10, seed)
    mat = ref.truncated_matrix(signs, 4)
    assert ref.frobenius_norm(signs, 4) == pytest.approx(np.linalg.norm(mat), rel=1e-12)
    dense = ref.truncated_norm(signs, 4)
    assert ref.truncated_norm(signs, 4, dense_max=0) == pytest.approx(dense, abs=1e-12)


def test_closed_forms():
    assert ref.binomial_total(12, 4) == 794
    assert ref.least_t(12, 0.1) == 8  # tail 794/4096 at T = 7, 299/4096 at T = 8
    assert ref.interrogation_success(4, 2) == ref.Fraction(11, 16)


def test_partition_total_known_answers():
    # One string, two distinct points: two ordered pairs, each of sign +1.
    assert ref.partition_total(1, 0, ((1,), (2,))) == 2
    # t_1 = t_2 = e: e = 0 gives +2 twice, e = 1 gives -2 twice.
    assert ref.partition_total(1, 1, ((1,), (2,))) == 0
    for n, t, m in [(2, 1, 3), (3, 1, 4), (3, 2, 3)]:
        b = ref.binomial_total(n, t)
        assert ref.partition_total(n, t, (tuple(range(1, m + 1)),)) == b ** m * (1 << n)


def test_multiplicity_count():
    assert ref.all_even((3, 1, 3, 1))
    assert not ref.all_even((3, 1, 3, 2))
    assert ref.all_even(())
