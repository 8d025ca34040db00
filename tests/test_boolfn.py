import numpy as np
import pytest

from querybound import boolfn
from querybound.boolfn import (
    BooleanFunction,
    canonical_sign,
    derive_seeds,
    fourier,
    make_family,
    map_trials,
    read_truth_table,
    sample_uniform,
    write_truth_table,
)
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
    coeffs = fourier(make_family("parity", 3)).coeffs
    assert coeffs[7] == 1.0 and np.all(coeffs[:7] == 0.0)
    coeffs = fourier(make_family("constant_plus", 4)).coeffs
    assert coeffs[0] == 1.0 and np.all(coeffs[1:] == 0.0)
    coeffs = fourier(make_family("or_fn", 2)).coeffs
    assert coeffs.tolist() == [-0.5, 0.5, 0.5, 0.5]


@pytest.mark.parametrize("n", [4, 10, 16])
def test_fourier_parseval(n):
    for trial in range(8):
        f = sample_uniform(n, 1000 * n + trial)
        coeffs = fourier(f).coeffs
        assert abs(float(coeffs @ coeffs) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [2, 6, 12])
def test_fourier_inverts(n):
    f = sample_uniform(n, n)
    back = fwht_in_place(fourier(f).coeffs.copy())
    assert np.max(np.abs(back - f.signs)) < 1e-10


def test_fourier_empty_character():
    for n in (3, 7):
        f = sample_uniform(n, 7 * n)
        assert fourier(f).coeffs[0] == f.signs.sum() / (1 << n)


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
