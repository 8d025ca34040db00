import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from querybound import boolfn, fourier_operator
from querybound.boolfn import (
    BooleanFunction,
    canonical_sign,
    derive_seeds,
    fourier,
    make_family,
    map_trials,
    one_blas_thread,
    read_truth_table,
    sample_uniform,
    write_truth_table,
)
from querybound.fourier_operator import build_matrix_free, build_operator, spectral_norm
from querybound.transforms import fwht_in_place


def test_family_tables():
    assert make_family("parity", 2).signs.tolist() == [1, -1, -1, 1]
    assert make_family("constant_plus", 3).signs.tolist() == [1] * 8
    assert make_family("or_fn", 2).signs.tolist() == [1, -1, -1, -1]
    maj = make_family("majority", 3)
    # |x| < 3/2 -> +1
    assert maj.signs.tolist() == [1, 1, 1, -1, 1, -1, -1, -1]


def test_family_rejects():
    with pytest.raises(ValueError):
        make_family("majority", 4)
    with pytest.raises(ValueError):
        make_family("xor3", 4)
    with pytest.raises(ValueError):
        make_family("parity", 0)


def test_boolean_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, np.array([1.0, -1.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        BooleanFunction(2, np.ones(3))
    f = make_family("parity", 3)
    with pytest.raises(ValueError):
        f.signs[0] = -1.0


def test_sample_uniform_deterministic():
    a = sample_uniform(6, 12345)
    b = sample_uniform(6, 12345)
    assert np.array_equal(a.signs, b.signs)
    assert np.all(np.abs(a.signs) == 1.0)


def test_sample_uniform_seeds_differ():
    base = sample_uniform(6, 0)
    collisions = sum(
        np.array_equal(base.signs, sample_uniform(6, s).signs) for s in range(1, 101)
    )
    assert collisions == 0


def test_sample_uniform_is_unbiased_at_fixed_point():
    # mean of f(3) over 10^4 seeds, 4 sigma band
    vals = [sample_uniform(4, seed).signs[3] for seed in range(10_000)]
    assert abs(np.mean(vals)) < 4 / np.sqrt(10_000)


def test_derive_seeds_deterministic_and_distinct():
    a = derive_seeds(99, 50)
    assert a == derive_seeds(99, 50)
    assert len(set(a)) == 50
    # prefix stability: the first children do not depend on count
    assert derive_seeds(99, 10) == a[:10]


def test_fourier_pinned_spectra():
    coeffs = fourier(make_family("parity", 3))
    assert coeffs[7] == 1.0 and np.all(coeffs[:7] == 0.0)
    coeffs = fourier(make_family("constant_plus", 4))
    assert coeffs[0] == 1.0 and np.all(coeffs[1:] == 0.0)
    coeffs = fourier(make_family("or_fn", 2))
    assert coeffs.tolist() == [-0.5, 0.5, 0.5, 0.5]


@pytest.mark.parametrize("n", [4, 10, 16])
def test_fourier_parseval(n):
    for trial in range(8):
        f = sample_uniform(n, 1000 * n + trial)
        coeffs = fourier(f)
        assert abs(float(coeffs @ coeffs) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2, 6, 12])
def test_fourier_inverts(n):
    f = sample_uniform(n, n)
    back = fwht_in_place(fourier(f).copy())
    assert np.max(np.abs(back - f.signs)) < 1e-10


def test_spectrum_is_one_read_only_array_per_function():
    for f in (sample_uniform(6, 3), make_family("parity", 5), make_family("constant_plus", 4),
              make_family("or_fn", 3)):
        coeffs = fourier(f)
        assert fourier(f) is coeffs
        assert coeffs.dtype == np.float64 and not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 0.0
        weights = [bin(s).count("1") for s in range(1 << f.n) if coeffs[s] != 0.0]
        assert f.lowest_weight == min(weights, default=f.n + 1)


def test_fourier_empty_character():
    for n in (3, 7):
        f = sample_uniform(n, 7 * n)
        assert fourier(f)[0] == f.signs.sum() / (1 << n)


def test_canonical_sign():
    f = make_family("constant_plus", 3)
    assert canonical_sign(f) is f
    g = f.negated()
    assert np.all(canonical_sign(g).signs == 1.0)
    orf = make_family("or_fn", 3)
    assert orf.signs.sum() == -6.0
    fixed = canonical_sign(orf)
    assert fixed.signs.sum() == 6.0
    # idempotent
    assert canonical_sign(fixed) is fixed


def test_truth_table_roundtrip(tmp_path):
    f = sample_uniform(5, 77)
    path = tmp_path / "f.txt"
    write_truth_table(f, path)
    g = read_truth_table(path)
    assert g.n == 5
    assert np.array_equal(g.signs, f.signs)
    write_truth_table(make_family("or_fn", 2), path)
    assert path.read_bytes() == b"n=2\n+---\n"


def test_truth_table_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("m=3\n++++++++\n")
    with pytest.raises(ValueError):
        read_truth_table(p)
    p.write_text("n=3\n+++\n")
    with pytest.raises(ValueError):
        read_truth_table(p)
    p.write_text("n=3\n+++++++x\n")
    with pytest.raises(ValueError):
        read_truth_table(p)
    p.write_text("n=3\n+++x+-+-\n")
    with pytest.raises(ValueError, match=r"sign row may only contain '\+' and '-'$"):
        read_truth_table(p)
    p.write_text("n=zz\n++\n")
    with pytest.raises(ValueError):
        read_truth_table(p)


def test_truth_table_checks_the_bit_cap_before_the_row(tmp_path):
    p = tmp_path / "big.txt"
    p.write_text("n=27\n++\n")
    with pytest.raises(ValueError, match=r"^n must lie in 1\.\.26, got 27$"):
        read_truth_table(p)


@pytest.fixture
def blas_threads_at_two():
    """get_num_threads of numpy's OpenBLAS, with the count set to 2 for the test."""
    blas = boolfn._openblas_threads()
    if blas is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_threads = blas
    saved = get()
    set_threads(2)
    yield get
    set_threads(saved)


@pytest.mark.parametrize("threads, items", [(2, [0, 1, 2]), (4, [0])])
def test_map_trials_pool_runs_blas_on_one_thread_and_restores(blas_threads_at_two, threads, items):
    # a single item runs on one BLAS thread too, so its digits do not depend
    # on how many items share the pool
    get = blas_threads_at_two
    assert map_trials(lambda _: get(), items, threads) == [1] * len(items)
    assert get() == 2


def test_map_trials_restores_blas_threads_when_fn_raises(blas_threads_at_two):
    def fail(_):
        raise RuntimeError("trial failed")

    with pytest.raises(RuntimeError, match="trial failed"):
        map_trials(fail, [0, 1], 2)
    assert blas_threads_at_two() == 2


def test_numpy_symbols_takes_the_first_group_that_resolves():
    assert boolfn.numpy_symbols(("no_such_symbol_a",), ("no_such_symbol_b",)) is None
    found = boolfn.numpy_symbols(("no_such_symbol_a", "PyInit__multiarray_umath"),
                                 ("PyInit__multiarray_umath",))
    assert [fn.__name__ for fn in found] == ["PyInit__multiarray_umath"]


def test_map_trials_one_thread_never_touches_blas(monkeypatch):
    monkeypatch.setattr(boolfn, "_openblas_threads", lambda: pytest.fail("BLAS touched"))
    assert map_trials(lambda x: 2 * x, [3, 4, 5], 1) == [6, 8, 10]


def test_one_blas_thread_nests_and_restores_when_the_body_raises(blas_threads_at_two):
    get = blas_threads_at_two
    with pytest.raises(RuntimeError, match="body failed"):
        with one_blas_thread():
            with one_blas_thread():
                assert get() == 1
            assert get() == 1  # the inner holder leaves the outer one's count
            raise RuntimeError("body failed")
    assert get() == 2


def _all_at_once(jobs):
    """Run each job on its own thread and return their results in order."""
    with ThreadPoolExecutor(len(jobs)) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [future.result(timeout=120) for future in futures]


def test_two_pools_at_once_leave_the_saved_count(blas_threads_at_two):
    # all four trials of two pools wait for each other, so both pools hold the
    # guard at once; the pool that leaves first must not restore the count
    get = blas_threads_at_two
    meet = threading.Barrier(4, timeout=60)

    def trial(_):
        meet.wait()
        return get()

    pool = lambda: map_trials(trial, [0, 1], 2)  # noqa: E731
    assert _all_at_once([pool, pool]) == [[1, 1], [1, 1]]
    assert get() == 2


def test_two_norms_at_once_leave_the_saved_count(blas_threads_at_two, monkeypatch):
    get = blas_threads_at_two
    ops = [build_matrix_free(sample_uniform(12, seed), 4) for seed in (1, 2)]
    expected = [spectral_norm(op) for op in ops]
    meet = threading.Barrier(2, timeout=60)
    counts = []
    exact_norm = fourier_operator.exact_norm

    def exact_norm_after_meeting(op):
        meet.wait()  # both norms are inside the guard here
        counts.append(get())
        return exact_norm(op)

    monkeypatch.setattr(fourier_operator, "exact_norm", exact_norm_after_meeting)
    assert _all_at_once([lambda op=op: spectral_norm(op) for op in ops]) == expected
    assert counts == [1, 1]
    assert get() == 2


def test_blas_guard_survives_many_holders(blas_threads_at_two):
    # more threads than cores, switching often: a lost update of the holder
    # count would restore 2 while a holder runs, or leave the count at 1
    get = blas_threads_at_two
    held = []

    def hold():
        for _ in range(200):
            with one_blas_thread():
                held.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _all_at_once([hold] * 8)
    finally:
        sys.setswitchinterval(interval)
    assert len(held) == 8 * 200 and set(held) == {1}
    assert get() == 2


def _record_transform_counts(monkeypatch, get, fail_at=None):
    """Patch both transform call sites; return the BLAS counts they ran at, by site."""
    counts = {"spectrum": [], "apply": []}

    def recorder(site):
        def fwht(buf, scratch=None):
            counts[site].append(get())
            if sum(map(len, counts.values())) == fail_at:
                raise RuntimeError("transform failed")
            return fwht_in_place(buf, scratch)
        return fwht

    monkeypatch.setattr(boolfn, "fwht_in_place", recorder("spectrum"))
    monkeypatch.setattr(fourier_operator, "fwht_in_place", recorder("apply"))
    return counts


@pytest.mark.parametrize("n, fail_at", [
    pytest.param(12, None, id="returns"),
    pytest.param(12, 4, id="raises"),
    pytest.param(17, None, id="17-returns"),
    pytest.param(17, 4, id="17-raises"),
])
def test_small_cube_norm_runs_on_one_blas_thread(blas_threads_at_two, monkeypatch, n, fail_at):
    # n = 17 is past 2^16 doubles: its applies run on one thread as well, in
    # a pool or not, and so do the spectrum's transform and the Lanczos checks
    get = blas_threads_at_two
    counts = _record_transform_counts(monkeypatch, get, fail_at)
    checks = []
    may_have_converged = fourier_operator._may_have_converged
    monkeypatch.setattr(fourier_operator, "_may_have_converged",
                        lambda *args: checks.append(get()) or may_have_converged(*args))

    def norm(_):
        return spectral_norm(build_matrix_free(sample_uniform(n, 5), 4))

    if fail_at is not None:
        with pytest.raises(RuntimeError, match="transform failed"):
            norm(0)
        assert counts["spectrum"] == [1] and set(counts["apply"]) == {1}
        assert get() == 2
        return
    serial = norm(0)
    assert serial.iterations > 0
    assert counts["spectrum"] == [1] and counts["apply"] and set(counts["apply"]) == {1} and set(checks) == {1}
    for site in counts.values():
        site.clear()
    checks.clear()
    assert map_trials(norm, [0, 1], 2) == [serial, serial]
    assert counts["spectrum"] == [1, 1] and set(counts["apply"]) == {1} and set(checks) == {1}
    counts["apply"].clear()
    op = build_matrix_free(sample_uniform(n, 5), 4)  # a trial that holds no guard itself
    map_trials(lambda _: op.apply(np.ones(op.size)), [0], 2)
    assert counts["apply"] == [1, 1]
    assert get() == 2


def test_dense_norm_never_touches_blas_threads(monkeypatch):
    monkeypatch.setattr(boolfn, "_openblas_threads", lambda: pytest.fail("BLAS count touched"))
    # eigvalsh at B = 176, and an exact zero for parity
    for f, t in ((sample_uniform(10, 1), 3), (make_family("parity", 8), 2)):
        op = build_operator(f, t)
        assert op.mode == "dense" and spectral_norm(op).method == "dense_eigen"
