import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybound.boolfn import make_family, sample_uniform
from querybound.fourier_operator import (
    _lapack_potrf,
    build_dense,
    build_matrix_free,
    prove_norm_below,
)
from querybound.transforms import binomial_sum

OPERATORS = {"dense": build_dense, "matrix_free": build_matrix_free}


@st.composite
def truncations(draw):
    n = draw(st.integers(1, 7))
    t = draw(st.integers(0, n))
    f = sample_uniform(n, draw(st.integers(0, 2**32 - 1)))
    return f, t


def eigvalsh_norm(f, t):
    return float(np.max(np.abs(np.linalg.eigvalsh(build_dense(f, t).dense_matrix))))


@settings(max_examples=200, deadline=None)
@given(truncations(), st.floats(0.0, 0.2), st.sampled_from(sorted(OPERATORS)))
def test_proof_never_succeeds_at_or_below_the_norm(case, below, mode):
    f, t = case
    norm = eigvalsh_norm(f, t)
    op = OPERATORS[mode](f, t)
    assert not prove_norm_below(op, norm - below)
    assert not prove_norm_below(op, float(np.nextafter(norm, 0.0)))


@settings(max_examples=100, deadline=None)
@given(truncations(), st.sampled_from(sorted(OPERATORS)))
def test_proof_succeeds_just_above_the_norm(case, mode):
    f, t = case
    assert prove_norm_below(OPERATORS[mode](f, t), eigvalsh_norm(f, t) + 1e-6)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("mode", sorted(OPERATORS))
def test_proof_is_tight_at_one_for_orthogonal_and_identity(n, mode):
    # F_n is a symmetric orthogonal matrix (eigenvalues +-1); constant_plus has F_T = I
    cases = [(sample_uniform(n, 70 + n), n)] + [(make_family("constant_plus", n), t) for t in range(n + 1)]
    for f, t in cases:
        op = OPERATORS[mode](f, t)
        assert not prove_norm_below(op, 1.0), (n, t)
        assert prove_norm_below(op, 1.0 + 1e-9), (n, t)


def test_zero_operator_is_proven_past_the_dense_cap():
    # parity at n = 14, T = 6: B = 6476, every fhat of weight <= 12 vanishes
    op = build_matrix_free(make_family("parity", 14), 6)
    assert op.size > 4096
    assert prove_norm_below(op, 1e-300)
    assert not prove_norm_below(op, 0.0)
    assert not prove_norm_below(build_matrix_free(sample_uniform(14, 0), 6), 0.49)


@pytest.mark.skipif(_lapack_potrf() is None, reason="numpy's LAPACK has no dpotrf symbol to call")
@pytest.mark.parametrize("mode", sorted(OPERATORS))
def test_proof_and_build_hold_one_matrix_at_a_time(mode):
    # n = 16, T = 4: B = 2517; a whole int64 XOR table would be as large as the matrix
    f, t = sample_uniform(16, 3), 4
    b = binomial_sum(16, t)
    op = OPERATORS[mode](f, t)
    matrix_bytes = 8 * b * b
    tracemalloc.start()
    try:
        build_dense(f, t).dense_matrix
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert prove_norm_below(op, 0.49)
        _, proof_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak < 1.25 * matrix_bytes
    assert proof_peak < 1.25 * matrix_bytes


def test_numpy_cholesky_fallback_gives_the_same_proofs(monkeypatch):
    import querybound.fourier_operator as fo

    cases = [(sample_uniform(8, s), t, tau) for s in range(3) for t in range(9) for tau in (0.3, 0.6, 1.0)]
    with_potrf = [prove_norm_below(build_dense(f, t), tau) for f, t, tau in cases]
    monkeypatch.setattr(fo, "_lapack_potrf", lambda: None)
    assert [prove_norm_below(build_dense(f, t), tau) for f, t, tau in cases] == with_potrf
    assert any(with_potrf) and not all(with_potrf)
