import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybound import boolfn, fourier_operator
from querybound.boolfn import (
    FAMILIES,
    BooleanFunction,
    derive_seeds,
    make_family,
    sample_uniform,
)
from querybound.certify import certify_lower_bound
from querybound.cli import main
from querybound.fourier_operator import (
    DENSE_LIMIT,
    NormEstimate,
    _lapack_stevx,
    build_dense,
    build_matrix_free,
    build_operator,
    exact_norm,
    prove_norm_below,
    spectral_norm,
)
from querybound.transforms import binomial_sum, build_weight_index, fwht_in_place


def conjugated_sign_matrix(f):
    """Reference: the full 2^n x 2^n matrix H diag(f) H with H = W / 2^(n/2)."""
    m = 1 << f.n
    idx = np.arange(m, dtype=np.int64)
    walsh = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)
    return walsh @ np.diag(f.signs) @ walsh / m


def test_dense_constant_is_identity():
    for t in (0, 2, 5):
        op = build_dense(make_family("constant_plus", 5), t)
        assert np.array_equal(op.dense_matrix, np.eye(op.size))


def test_dense_parity_low_truncation_is_zero():
    op = build_dense(make_family("parity", 4), 1)
    assert op.size == 5
    assert np.all(op.dense_matrix == 0.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_dense_matches_full_conjugation(n):
    f = sample_uniform(n, 31 + n)
    full = conjugated_sign_matrix(f)
    for t in range(n + 1):
        strings = build_weight_index(n, t)
        expect = full[np.ix_(strings, strings)]
        got = build_dense(f, t).dense_matrix
        assert np.max(np.abs(got - expect)) < 1e-10


def test_dense_budget_enforced():
    with pytest.raises(ValueError):
        build_dense(sample_uniform(13, 0), 13)  # B = 8192


def test_dense_matrix_is_symmetric_exactly():
    f = sample_uniform(7, 3)
    m = build_dense(f, 3).dense_matrix
    assert np.array_equal(m, m.T)


def test_apply_identity_and_zero_cases():
    v = np.linspace(-1, 1, 11)
    op = build_matrix_free(make_family("constant_plus", 4), 2)
    assert np.max(np.abs(op.apply(v) - v)) < 1e-12
    op = build_matrix_free(make_family("parity", 4), 1)
    assert np.max(np.abs(op.apply(np.ones(5)))) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_apply_matches_dense_matvec(n):
    rng = np.random.default_rng(n)
    for trial in range(4):
        f = sample_uniform(n, 500 + 10 * n + trial)
        for t in range(n + 1):
            dense = build_dense(f, t)
            free = build_matrix_free(f, t)
            v = rng.standard_normal(dense.size)
            dv = dense.dense_matrix @ v
            fv = free.apply(v)
            assert np.max(np.abs(dv - fv)) <= 1e-9 * max(1.0, np.max(np.abs(dv)))


@pytest.mark.parametrize("n", range(1, 17))
def test_apply_is_bit_identical_to_scaling_the_whole_cube(n):
    # the formula before the shared workspace and the scale after the gather:
    # scatter, transform, signs, transform, divide all 2^n entries, gather
    f = sample_uniform(n, 40 + n)
    rng = np.random.default_rng(n)
    for t in sorted({0, 1, n // 3, (2 * n) // 5, n // 2, n}):
        op = build_matrix_free(f, t)
        v = rng.standard_normal(op.size)
        buf = np.zeros(1 << n)
        buf[op.strings] = v
        fwht_in_place(buf)
        buf *= f.signs
        fwht_in_place(buf)
        buf /= float(1 << n)
        expect = buf[op.strings]
        work = op.workspace()
        assert np.array_equal(op.apply(v), expect), (n, t)
        assert np.array_equal(op.apply(v, work), expect), (n, t)
        assert np.array_equal(op.apply(v, work), expect), (n, t)  # reused, dirty buffers


def test_apply_rejects_wrong_length():
    op = build_matrix_free(sample_uniform(5, 1), 2)
    with pytest.raises(ValueError):
        op.apply(np.ones(op.size + 1))


def test_norm_full_truncation_is_one():
    for n in (4, 6, 8):
        f = sample_uniform(n, n)
        assert spectral_norm(build_dense(f, n)).value == pytest.approx(1.0, abs=1e-8)


def test_full_operator_is_involution():
    for n in (4, 6):
        m = build_dense(sample_uniform(n, 2 * n), n).dense_matrix
        assert np.max(np.abs(m @ m - np.eye(1 << n))) < 1e-8


def test_norm_pinned_values():
    est = spectral_norm(build_dense(make_family("parity", 4), 2))
    assert est.value == pytest.approx(1.0, abs=1e-9)
    est = spectral_norm(build_dense(make_family("or_fn", 4), 0))
    assert est.value == pytest.approx(0.875, abs=1e-12)
    assert est.method == "dense_eigen" and est.converged


def test_norm_contraction_and_monotonicity():
    for n in (6, 8):
        for trial in range(5):
            f = sample_uniform(n, 900 + 10 * n + trial)
            norms = [spectral_norm(build_dense(f, t)).value for t in range(n + 1)]
            assert all(v <= 1 + 1e-8 for v in norms)
            for lo, hi in zip(norms, norms[1:]):
                assert hi >= lo - 1e-8


def test_norm_negation_invariant():
    f = sample_uniform(7, 44)
    g = f.negated()
    for t in (1, 3, 5):
        a = spectral_norm(build_dense(f, t)).value
        b = spectral_norm(build_dense(g, t)).value
        assert abs(a - b) < 1e-9


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_power_iteration_agrees_with_dense(n):
    # the default 1e-8 Cauchy tol can stop ~1e-6 short on small spectral
    # gaps; 1e-10 brings the agreement an order of magnitude inside the band
    ts = sorted({1, n // 3, int(0.4 * n), n // 2, n - 1, n})
    for trial in range(5):
        f = sample_uniform(n, 7000 + 10 * n + trial)
        for t in ts:
            exact = spectral_norm(build_dense(f, t)).value
            est = spectral_norm(build_matrix_free(f, t), tol=1e-10, max_iter=30000, seed=trial)
            assert est.converged, (n, t, trial)
            assert abs(est.value - exact) < 1e-6, (n, t, trial)


def test_power_iteration_zero_operator():
    est = spectral_norm(build_matrix_free(make_family("parity", 6), 2))
    assert est.value == 0.0 and est.converged


def test_power_iteration_reports_nonconvergence():
    f = sample_uniform(9, 5)
    est = spectral_norm(build_matrix_free(f, 3), tol=1e-16, max_iter=3)
    assert not est.converged
    assert est.iterations == 3
    assert est.residual > 0.0


def test_power_iteration_deterministic_per_seed():
    f = sample_uniform(8, 21)
    a = spectral_norm(build_matrix_free(f, 3), seed=11)
    b = spectral_norm(build_matrix_free(f, 3), seed=11)
    assert a == b


def test_spectral_norm_default_replays_as_before():
    # pinned before spectral_norm took a threshold, re-pinned for 4-bit transform passes (dense
    # eigvalsh agrees to 5e-15); FWHT digits do not depend on BLAS threads
    est = spectral_norm(build_matrix_free(sample_uniform(12, 5), 4))
    assert (est.value, est.iterations, est.residual, est.converged) == (
        0.8578848603370929, 60, 3.1211602180907366e-09, True)


def test_one_pass_skips_only_the_replay():
    op = build_matrix_free(sample_uniform(12, 5), 4)
    full = spectral_norm(op)
    # replay=False stops after the first pass: the estimate |beta_k s_k| stands in for the residual
    short = spectral_norm(op, replay=False)
    assert (short.value, short.iterations, short.method) == (full.value, full.iterations, "lanczos")
    assert short.converged and short.residual <= 1e-8 / 2
    assert short.residual == pytest.approx(full.residual, rel=1e-4)
    # the dense and exactly-zero paths ignore it
    dense = build_dense(sample_uniform(8, 5), 3)
    assert spectral_norm(dense, replay=False) == spectral_norm(dense)
    zero = build_matrix_free(make_family("parity", 6), 2)
    assert spectral_norm(zero, replay=False) == spectral_norm(zero)
    # every path reports Python scalars, not numpy ones
    for est in (full, short, spectral_norm(dense), spectral_norm(zero)):
        assert type(est.value) is float and type(est.residual) is float, est
        assert type(est.converged) is bool, est


def test_spectral_norm_rejects_bad_tol():
    op = build_matrix_free(sample_uniform(5, 0), 2)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            spectral_norm(op, tol=tol)


_MATRIX_FREE_GOLDENS = {"certify-matrix-free"}  # pins certify's bytes past the dense rule


def _golden_truncations(names=None):
    """(n, T) of every norm and certify golden: norm at its --t, certify at every T.

    names=None takes every golden except the deliberately matrix-free ones.
    """
    cases = json.loads((Path(__file__).parent.parent / "docs" / "golden" / "cases.json").read_text())
    for name, case in cases.items():
        if name not in (names or set(cases) - _MATRIX_FREE_GOLDENS):
            continue
        argv = case["argv"]
        if argv[0] in ("norm", "certify"):
            n = int(argv[argv.index("--n") + 1])
            ts = [int(argv[argv.index("--t") + 1])] if "--t" in argv else range(n + 1)
            yield from ((n, t) for t in ts)


def test_build_operator_picks_dense_by_cost():
    f = sample_uniform(16, 0)
    assert build_operator(f, 3).mode == "dense"  # B = 697
    assert build_operator(f, 4).mode == "matrix_free"  # B = 2517
    goldens = list(_golden_truncations())
    assert {n for n, _ in goldens} == {6, 8}
    for n, t in goldens:
        assert build_operator(make_family("constant_plus", n), t).mode == "dense", (n, t)
    # the matrix-free certify golden stops its random trials at T = 4 (B = 1471)
    assert {n for n, _ in _golden_truncations(_MATRIX_FREE_GOLDENS)} == {14}
    assert build_operator(make_family("constant_plus", 14), 4).mode == "matrix_free"
    # B = 2^(n-1) is dense while it fits (n = 13, T = 6 is B = 4096), never past the cap
    assert build_operator(sample_uniform(13, 0), 6).mode == "dense"
    for n in range(12, 17):
        f = sample_uniform(n, 1)
        for t in range(n + 1):
            if binomial_sum(n, t) > DENSE_LIMIT:
                assert build_operator(f, t).mode == "matrix_free", (n, t)
    assert DENSE_LIMIT == 4096
    with pytest.raises(ValueError):
        build_dense(sample_uniform(13, 0), 7)  # B = 5812


@pytest.mark.parametrize("n", range(12, 19))
def test_lanczos_matches_eigvalsh_where_rule_flips(n):
    # for n = 12..18 the first matrix-free T is 4, with B <= DENSE_LIMIT
    f = sample_uniform(n, 600 + n)
    t = next(t for t in range(n + 1) if build_operator(f, t).mode == "matrix_free")
    assert t == 4 and binomial_sum(n, t) <= DENSE_LIMIT
    est = spectral_norm(build_operator(f, t))
    exact = float(np.max(np.abs(np.linalg.eigvalsh(build_dense(f, t).dense_matrix))))
    assert est.method == "lanczos" and est.converged
    assert abs(est.value - exact) <= 1e-12, (n, t, est.value, exact)


def test_lanczos_matches_dense_where_power_iteration_stopped_short():
    # power iteration reported converged at tol 1e-8 while 3.0e-6 below this norm
    seed = derive_seeds(99, 6)[3]
    f = sample_uniform(14, seed)
    est = spectral_norm(build_matrix_free(f, 5), seed=seed)
    exact = spectral_norm(build_dense(f, 5)).value
    assert est.method == "lanczos" and est.converged
    assert abs(est.value - exact) <= 1e-12


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_lanczos_converged_implies_residual_within_tol(n):
    for trial in range(4):
        f = sample_uniform(n, 8000 + 10 * n + trial)
        for t in range(1, n + 1):
            for tol in (1e-6, 1e-8, 1e-12):
                op = build_matrix_free(f, t)
                est = spectral_norm(op, tol=tol, seed=trial)
                assert est.residual <= tol if est.converged else est.residual > tol
                # Lanczos runs unless the norm is exact (B > min(N+, N-) here: 1.0)
                assert (est.iterations >= 1) == (exact_norm(op) is None)


def test_spectral_norm_rejects_bad_max_iter():
    with pytest.raises(ValueError):
        spectral_norm(build_matrix_free(sample_uniform(5, 0), 2), max_iter=0)


def test_dense_zero_operator_skips_eigensolver_with_same_estimate():
    # parity at n = 16, T = 4: B = 2517, every fhat(s) with |s| <= 8 is zero
    op = build_dense(make_family("parity", 16), 4)
    eigs = np.linalg.eigvalsh(op.dense_matrix)
    oracle = NormEstimate(value=float(np.max(np.abs(eigs))), method="dense_eigen",
                          residual=0.0, iterations=0, converged=True)
    assert spectral_norm(op) == oracle
    assert spectral_norm(build_dense(make_family("parity", 6), 2)) == oracle


def test_warm_zero_test_allocates_no_table():
    # parity at n = 20, T = 9: fhat vanishes below weight 20, so F_T is zero;
    # a 2^20 weight table per call would take 1-8 MiB
    op = build_matrix_free(make_family("parity", 20), 9)
    spectral_norm(op)  # warms the spectrum and its lowest weight
    tracemalloc.start()
    try:
        assert prove_norm_below(op, 0.4)
        assert spectral_norm(op).value == 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@st.composite
def small_functions(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("subset_parity", "random", *FAMILIES)))
    if kind == "subset_parity":
        mask = draw(st.integers(0, (1 << n) - 1))
        x = np.arange(1 << n, dtype=np.int64)
        return BooleanFunction(n, 1.0 - 2.0 * (np.bitwise_count(x & mask) & 1))
    if kind == "random":
        return sample_uniform(n, draw(st.integers(0, 2**32 - 1)))
    if kind == "majority" and n % 2 == 0:
        n -= 1
    return make_family(kind, n)


@st.composite
def random_or_family_functions(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("random", *FAMILIES)))
    if kind == "random":
        return sample_uniform(n, draw(st.integers(0, 2**32 - 1)))
    if kind == "majority" and n % 2 == 0:
        n -= 1
    return make_family(kind, n)


@settings(max_examples=100, deadline=None)
@given(random_or_family_functions())
def test_dense_norms_are_nondecreasing_in_t(f):
    # F_T is a compression of F_{T+1}, and F_n is a reflection
    norms = [spectral_norm(build_dense(f, t)).value for t in range(f.n + 1)]
    assert all(v <= 1 + 1e-12 for v in norms)
    for lo, hi in zip(norms, norms[1:]):
        assert hi >= lo - 1e-12


@settings(max_examples=300, deadline=None)
@given(small_functions(), st.data())
def test_lowest_weight_decides_exactly_which_truncations_are_zero(f, data):
    t = data.draw(st.integers(0, f.n))
    is_zero = not np.any(build_dense(f, t).dense_matrix)
    assert (2 * t < f.lowest_weight) == is_zero


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data(), st.integers(0, 2**32 - 1),
       st.sampled_from((1e-6, 1e-8, 1e-10)))
def test_lanczos_value_lies_within_its_residual_of_an_eigenvalue(n, data, seed, tol):
    # converged or not: for any unit y some eigenvalue lies within ||F_T y - theta y|| of theta;
    # 1e-12 covers rounding in the residual and in eigvalsh
    t = data.draw(st.integers(0, n))
    f = sample_uniform(n, seed)
    est = spectral_norm(build_matrix_free(f, t), tol=tol, seed=seed)
    assert est.method == "lanczos"
    eigs = np.linalg.eigvalsh(build_dense(f, t).dense_matrix)
    assert np.min(np.abs(np.abs(eigs) - est.value)) <= est.residual + 1e-12


def random_tridiagonal(rng, k, tiny=False):
    alphas = list(rng.standard_normal(k))
    betas = list(np.abs(rng.standard_normal(k)) * (1e-20 if tiny else 1.0))
    return alphas, betas


def test_stevx_matches_eigh_extreme_pairs():
    stevx = _lapack_stevx()
    if stevx is None:
        pytest.skip("numpy's LAPACK has no dstevx")
    rng = np.random.default_rng(11)
    for k in (*range(1, 41), 64, 100, 128, 200, 255, 300):
        for tiny in (False, True):  # beta ~ 0 splits T_k into 1 x 1 blocks
            alphas, betas = random_tridiagonal(rng, k, tiny)
            vals, vecs = np.linalg.eigh(_tridiagonal(alphas, betas))
            for i, j in ((1, 0), (k, k - 1)):
                theta, last = stevx(alphas, betas, i)
                assert abs(theta - vals[j]) <= 1e-13 * max(1.0, abs(vals[j])), (k, i)
                if not tiny and (k == 1 or min(np.diff(vals)[[0, -1]]) > 1e-6):
                    assert abs(abs(last) - abs(vecs[-1, j])) <= 1e-9, (k, i)


def _tridiagonal(alphas, betas):
    k = len(alphas)
    tri = np.diag(alphas)
    np.fill_diagonal(tri[1:], betas[:k - 1])
    np.fill_diagonal(tri[:, 1:], betas[:k - 1])
    return tri


@pytest.mark.parametrize("n, t", [(12, 4), (13, 5), (14, 5)])
def test_norm_without_dstevx_is_unchanged(n, t, monkeypatch):
    # the O(k) check only skips dense checks that could not stop; eigh decides every stop
    op = build_matrix_free(sample_uniform(n, 3), t)
    with_stevx = spectral_norm(op, seed=2)
    monkeypatch.setattr(fourier_operator, "numpy_symbols", lambda *names: None)
    fourier_operator._lapack_stevx.cache_clear()
    try:
        assert fourier_operator._lapack_stevx() is None
        assert spectral_norm(op, seed=2) == with_stevx
    finally:
        fourier_operator._lapack_stevx.cache_clear()


# (16, 6) and (17, 6) have B > 10000, where OpenBLAS would split a dot
# product over threads, and (17, 6) has a cube past 2^16; a norm runs all its
# BLAS on one thread at every size, so the caller's count changes no digit
@pytest.mark.parametrize("n, t", [(14, 5), (12, 4), (16, 6), (17, 6)])
def test_lanczos_estimates_do_not_depend_on_blas_threads(n, t):
    blas = boolfn._openblas_threads()
    if blas is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_threads = blas
    saved = get()
    op = build_matrix_free(sample_uniform(n, 77), t)
    try:
        estimates = []
        for threads in (1, 2):
            set_threads(threads)
            estimates.append([spectral_norm(op, seed=seed) for seed in (0, 1)])
    finally:
        set_threads(saved)
    assert estimates[0] == estimates[1]
    assert all(e.method == "lanczos" and e.iterations > 0 for e in estimates[0])


def _balanced(n, seed):
    signs = np.ones(1 << n)
    signs[np.random.default_rng(seed).permutation(1 << n)[: 1 << (n - 1)]] = -1.0
    return BooleanFunction(n, signs)


def test_exact_norm_is_one_past_min_n_plus_n_minus():
    # odd n, T = (n-1)/2: B = 2^(n-1), so any unbalanced f has B > min(N+, N-)
    for n in (5, 7, 9, 11):
        t = (n - 1) // 2
        for seed in range(4):
            f = sample_uniform(n, seed)
            n_plus = int(np.sum(f.signs > 0))
            assert n_plus != 1 << (n - 1)
            dense = build_dense(f, t)
            assert exact_norm(dense) == 1.0
            assert abs(np.max(np.abs(np.linalg.eigvalsh(dense.dense_matrix))) - 1.0) <= 1e-12
            for op in (dense, build_matrix_free(f, t)):
                method = "dense_eigen" if op.mode == "dense" else "lanczos"
                assert spectral_norm(op) == NormEstimate(value=1.0, method=method, residual=0.0,
                                                         iterations=0, converged=True)
        # a balanced f has N+ = N- = B: no fact, the solver runs
        assert exact_norm(build_dense(_balanced(n, n), t)) is None
        assert spectral_norm(build_matrix_free(_balanced(n, n), t)).iterations > 0


@settings(max_examples=200, deadline=None)
@given(small_functions(), st.data())
def test_exact_norm_agrees_with_eigvalsh(f, data):
    t = data.draw(st.integers(0, f.n))
    op = build_dense(f, t)
    exact = exact_norm(op)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(op.dense_matrix))))
    n_plus = int(np.sum(f.signs > 0))
    if 2 * t < f.lowest_weight:
        assert exact == 0.0 == norm
    elif op.size > min(n_plus, (1 << f.n) - n_plus):
        assert exact == 1.0 and abs(norm - 1.0) <= 1e-12
    else:
        assert exact is None


def test_proof_refuses_a_norm_of_one_without_factoring(monkeypatch):
    f = sample_uniform(9, 1)  # unbalanced, B = 256 at T = 4
    monkeypatch.setattr(fourier_operator, "_cholesky_completes",
                        lambda a: pytest.fail("factored a truncation of norm 1"))
    for op in (build_dense(f, 4), build_matrix_free(f, 4)):
        assert exact_norm(op) == 1.0
        assert not prove_norm_below(op, 0.4) and not prove_norm_below(op, 1.0)


def _no_gather(*args):
    raise AssertionError("gathered a dense matrix that nothing reads")


def test_exact_norm_gathers_no_matrix(monkeypatch, capsys):
    monkeypatch.setattr(fourier_operator, "_gather_xor", _no_gather)
    # parity at n = 13, T = 6: B = 4096, dense by (n, B), and 2T lies below weight 13
    assert main(["norm", "--family", "parity", "--n", "13", "--t", "6"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row == "1,norm,13,6,4096,parity,dense,dense_eigen,0,0,0,true,1e-08,10000,0"
    # an unbalanced f at B = 2^(n-1): exact_norm is 1, so neither the solve nor the proof gathers
    op = build_operator(sample_uniform(13, 0), 6)
    assert op.mode == "dense"
    assert spectral_norm(op).value == 1.0
    assert not prove_norm_below(op, 0.49)


def test_dense_matrix_is_gathered_on_every_use(monkeypatch):
    calls = []
    gather = fourier_operator._gather_xor

    def counted(coeffs, strings, out):
        calls.append(strings.size)
        gather(coeffs, strings, out)

    monkeypatch.setattr(fourier_operator, "_gather_xor", counted)
    op = build_dense(sample_uniform(8, 5), 3)  # B = 93, no exact fact
    assert exact_norm(op) is None and calls == []
    norm = spectral_norm(op).value
    assert calls == [op.size]
    assert prove_norm_below(op, norm + 0.01)  # one gather per factorization, of -F_T and of +F_T
    assert calls == [op.size] * 3
    first, second = op.dense_matrix, op.dense_matrix
    assert first is not second and np.array_equal(first, second)
    assert build_matrix_free(sample_uniform(8, 5), 3).dense_matrix is None


def test_certifying_parity_gathers_nothing(monkeypatch):
    monkeypatch.setattr(fourier_operator, "_gather_xor", _no_gather)
    bound = certify_lower_bound(make_family("parity", 16), 0.1)
    assert bound.lower_bound_t == 8 and bound.status == "certified"
    assert build_operator(make_family("parity", 16), 3).mode == "dense"  # B = 697


def test_mode_table_where_a_solver_runs():
    # the crossover's whole table for B <= DENSE_LIMIT and B <= 2^(n-1); past that, exact_norm answers
    for n in range(1, 27):
        for t in range(n + 1):
            b = binomial_sum(n, t)
            if b <= DENSE_LIMIT and 2 * b <= 1 << n:
                dense = n <= 11 or t <= 3 or 2 * b == 1 << n
                assert fourier_operator._dense_is_cheaper(n, b) == dense, (n, t, b)
    assert all(fourier_operator._dense_is_cheaper(n, binomial_sum(n, t)) for n in range(1, 9)
               for t in range(n + 1))


def test_no_solver_runs_past_half_the_cube(monkeypatch):
    # min(N+, N-) <= 2^(n-1) for every f, so B > 2^(n-1) has norm exactly 1 in either mode
    monkeypatch.setattr(fourier_operator, "_gather_xor", _no_gather)
    for n in range(2, 13):
        for f in [sample_uniform(n, seed) for seed in range(3)] + [_balanced(n, n)]:
            for t in range(n + 1):
                if 2 * binomial_sum(n, t) > 1 << n:
                    op = build_operator(f, t)
                    assert exact_norm(op) == 1.0, (n, t)
                    assert spectral_norm(op).iterations == 0, (n, t)
