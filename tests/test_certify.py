import math

import pytest

from querybound import boolfn, certify, cli, fourier_operator
from querybound.boolfn import BooleanFunction, derive_seeds, make_family, sample_uniform
from querybound.certify import certify_lower_bound, certify_random_sweep, run_claim1_sweep
from querybound.interrogation import choose_t


def test_constant_plus_gives_trivial_bound():
    bound = certify_lower_bound(make_family("constant_plus", 5), 0.1)
    assert bound.lower_bound_t == 0
    assert bound.status == "certified"
    assert bound.evidence[0].value == pytest.approx(1.0, abs=1e-12)


def test_parity_certificate_n6():
    bound = certify_lower_bound(make_family("parity", 6), 0.1)
    assert bound.lower_bound_t == 3
    assert bound.status == "certified"
    norms = [e.value for e in bound.evidence]
    assert norms[:3] == [0.0, 0.0, 0.0]
    assert norms[3] == pytest.approx(1.0, abs=1e-9)
    assert all(e.method == "dense_eigen" and e.iterations == 0 for e in bound.evidence)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_parity_certificate_is_ceil_half_n(n):
    bound = certify_lower_bound(make_family("parity", n), 0.1)
    assert bound.lower_bound_t == math.ceil(n / 2)
    assert bound.status == "certified"


def test_or_certificate_is_weak_but_valid():
    bound = certify_lower_bound(make_family("or_fn", 4), 0.1)
    assert bound.lower_bound_t == 0
    # the canonicalized function has norm 0.875 at T = 0, above the 0.4 threshold
    assert bound.evidence[0].value == pytest.approx(0.875, abs=1e-12)


def test_negation_invariance():
    f = sample_uniform(7, 321)
    a = certify_lower_bound(f, 0.1)
    b = certify_lower_bound(f.negated(), 0.1)
    assert a.lower_bound_t == b.lower_bound_t


def test_raising_eps_never_raises_bound():
    for seed in (1, 2, 3):
        f = sample_uniform(8, seed)
        tight = certify_lower_bound(f, 0.1).lower_bound_t
        loose = certify_lower_bound(f, 1 / 3).lower_bound_t
        assert loose <= tight


def test_evidence_norms_monotone():
    bound = certify_lower_bound(sample_uniform(8, 77), 0.1)
    norms = [e.value for e in bound.evidence]
    for lo, hi in zip(norms, norms[1:]):
        assert hi >= lo - 1e-8


def test_soundness_against_upper_bound():
    for n in (6, 8, 10):
        for eps in (1 / 3, 0.1):
            upper = choose_t(n, eps)
            for seed in range(5):
                f = sample_uniform(n, 5000 + seed)
                assert certify_lower_bound(f, eps).lower_bound_t <= upper


def test_entropy_report_consistent():
    bound = certify_lower_bound(make_family("parity", 6), 0.1)
    assert bound.lower_bound_t == 3
    assert bound.b_stop == 42
    assert bound.entropy_exponent == pytest.approx(6.0, abs=1e-12)
    assert bound.b_stop <= bound.entropy_bound + 1e-9


def test_rejects_eps_out_of_range():
    f = make_family("parity", 4)
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            certify_lower_bound(f, eps)


def test_sweep_deterministic_and_sound():
    bounds, summary = certify_random_sweep(8, 1 / 3, trials=6, seed=9)
    again, _ = certify_random_sweep(8, 1 / 3, trials=6, seed=9)
    assert [b.lower_bound_t for b in bounds] == [b.lower_bound_t for b in again]
    assert summary["trials"] == 6
    upper = choose_t(8, 1 / 3)
    assert all(b.lower_bound_t <= upper for b in bounds)
    assert summary["max_lower_bound_t"] <= upper
    assert 0.0 <= summary["fraction_at_least_quarter_n"] <= 1.0


def test_sweep_injects_family_as_trial_zero():
    bounds, summary = certify_random_sweep(6, 0.1, trials=2, seed=4, include_family="parity")
    assert bounds[0].f_descriptor == "parity"
    assert bounds[0].lower_bound_t == math.ceil(6 / 2)
    assert summary["trials"] == 3


def test_sweep_bounds_carry_their_trial_seeds():
    bounds, _ = certify_random_sweep(6, 0.1, trials=3, seed=4, include_family="parity", threads=2)
    assert [b.seed for b in bounds] == [None, *derive_seeds(4, 3)]
    assert [b.f_descriptor for b in bounds[1:]] == [f"random:seed={s}" for s in derive_seeds(4, 3)]
    assert certify_lower_bound(sample_uniform(6, 1), 0.1).seed is None


def test_one_spectrum_per_certificate(monkeypatch):
    # build_dense, both zero tests and the proofs all read the same cached transform
    calls = []
    fwht = boolfn.fwht_in_place
    monkeypatch.setattr(boolfn, "fwht_in_place", lambda v: calls.append(v.shape) or fwht(v))
    bound = certify_lower_bound(sample_uniform(16, 0), 0.15)
    assert len(bound.evidence) == 5
    assert calls == [(1 << 16,)]


def test_claim1_sweep_lives_in_the_library():
    assert cli.run_claim1_sweep is run_claim1_sweep
    rows = run_claim1_sweep([6, 8], 0.4, trials=3, seed=1, include_family="parity")
    assert [r["kind"] for r in rows] == ["random", "parity", "random", "parity"]
    assert set(rows[0]) == set(rows[1]) == {
        "kind", "n", "t", "t_rule", "b", "trials", "median_norm", "max_norm", "ref_scale",
        "ratio", "unconverged", "seed", "tol", "max_iter"}
    assert [r["trials"] for r in rows] == [3, 1, 3, 1]


def test_sweep_rejects_zero_threads_before_sampling(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a sign table was built before threads was checked")

    monkeypatch.setattr(certify, "sample_uniform", no_tables)
    monkeypatch.setattr(certify, "make_family", no_tables)
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        certify_random_sweep(16, 0.1, trials=4, seed=1, include_family="parity", threads=0)


def test_sweep_threads_match_serial():
    serial, _ = certify_random_sweep(6, 0.1, trials=4, seed=8, threads=1)
    threaded, _ = certify_random_sweep(6, 0.1, trials=4, seed=8, threads=3)
    assert [b.lower_bound_t for b in serial] == [b.lower_bound_t for b in threaded]
    assert [b.f_descriptor for b in serial] == [b.f_descriptor for b in threaded]


def _count_norm_work(monkeypatch) -> list:
    """Record the operator's FWHT calls; each evidence estimate carries its Lanczos steps."""
    calls = []
    fwht = fourier_operator.fwht_in_place
    monkeypatch.setattr(fourier_operator, "fwht_in_place",
                        lambda v, *scratch: calls.append(v.shape) or fwht(v, *scratch))
    return calls


def test_stopping_truncation_runs_one_lanczos_pass(monkeypatch):
    # T = 0..3 are dense; T = 4 (B = 1471) is the matrix-free stopping point,
    # k first-pass steps of one apply (two FWHTs) each and no replay
    calls = _count_norm_work(monkeypatch)
    bound = certify_lower_bound(sample_uniform(14, 1), 0.1)
    last = bound.evidence[-1]
    assert bound.lower_bound_t == 4 == len(bound.evidence) - 1 and last.method == "lanczos"
    assert last.iterations > 0 and len(calls) == 2 * last.iterations  # the replay would add 2 (k + 1)
    assert last.converged and last.residual <= 1e-8


@pytest.mark.parametrize("n", [17, 18])
def test_lanczos_refutation_below_dense_cap_stays_certified(n, monkeypatch):
    # T = 4 (B = 3214, 4048) is matrix-free; its refutation is proven by Cholesky
    calls = _count_norm_work(monkeypatch)
    f = sample_uniform(n, 0)
    bound = certify_lower_bound(f, 0.1)
    assert bound.lower_bound_t == 5
    refuted, last = bound.evidence[4], bound.evidence[5]
    assert refuted.method == "lanczos" and 4 < bound.lower_bound_t
    assert bound.status == "certified"
    # neither the refuted T nor the stopping T replays: k applies (two FWHTs each) per norm
    assert refuted.converged and refuted.residual <= 1e-8
    assert last.method == "lanczos" and len(bound.evidence) - 1 == bound.lower_bound_t
    assert len(calls) == 2 * (refuted.iterations + last.iterations)
    # the first pass gives the refuted T the value and steps of the default two passes
    two = fourier_operator.spectral_norm(fourier_operator.build_matrix_free(f, 4))
    assert (refuted.value, refuted.iterations) == (two.value, two.iterations)
    assert two.converged and two.residual <= 1e-8


@pytest.mark.parametrize("family, n, eps", [
    ("constant_plus", 5, 0.1), ("or_fn", 4, 0.1), ("parity", 6, 0.1), ("parity", 9, 0.1),
    ("random", 8, 0.1), ("random", 10, 0.15), ("random", 14, 0.1),
])
def test_certificate_runs_one_proof_at_the_largest_refuted_t(family, n, eps, monkeypatch):
    # F_T' for T' < T is a principal submatrix of F_T, so one proof at T = lower_bound_t - 1
    # covers every refuted T; a certificate that refutes nothing proves nothing
    proofs = []
    prove = certify.prove_norm_below
    monkeypatch.setattr(certify, "prove_norm_below",
                        lambda op, tau: proofs.append((op.t, tau)) or prove(op, tau))
    f = sample_uniform(n, 3) if family == "random" else make_family(family, n)
    bound = certify_lower_bound(f, eps)
    expected = [] if bound.lower_bound_t == 0 else [(bound.lower_bound_t - 1, math.nextafter(0.5 - eps, 0.0))]
    assert proofs == expected
    assert bound.status == "certified"


def test_refutation_past_dense_cap_is_empirical():
    # parity on 15 bits with f(0) flipped: F_T = -2^(1-n) J for T <= 7, norm 2B/2^n.
    # T = 5 (B = 4944 > DENSE_LIMIT) is refuted at norm 0.30 but has no proof.
    signs = make_family("parity", 15).signs.copy()
    signs[0] = -signs[0]
    bound = certify_lower_bound(BooleanFunction(15, signs), 0.1)
    assert bound.lower_bound_t == 6
    assert 5 < bound.lower_bound_t and bound.evidence[5].method == "lanczos"
    assert bound.evidence[5].value == pytest.approx(2 * 4944 / 2**15, abs=1e-12)
    assert bound.status == "empirical"


def test_claim1_median_norm_sits_at_the_compression_edge():
    # F_T compresses the reflection H diag(f) H to B of 2^n dimensions, and the
    # spectrum of a typical compression ends at 2 sqrt(q (1 - q)), q = B / 2^n
    for row in run_claim1_sweep(list(range(10, 15)), 0.4, 9, 11):
        q = row["b"] / (1 << row["n"])
        assert 0.95 <= row["median_norm"] / (2 * math.sqrt(q * (1 - q))) <= 1.15, row


def _record_claim1_norms(monkeypatch) -> list:
    """Record each (operator, seed, estimate) that run_claim1_sweep's norms produce."""
    norms = []
    solve = certify.spectral_norm

    def recorded(op, **kwargs):
        est = solve(op, **kwargs)
        norms.append((op, kwargs["seed"], est))
        return est

    monkeypatch.setattr(certify, "spectral_norm", recorded)
    return norms


def test_claim1_sweep_runs_one_lanczos_pass(monkeypatch):
    # k first-pass steps of one apply (two FWHTs) each over both trials; the
    # replay would add 2 (k + 1) per trial
    calls = _count_norm_work(monkeypatch)
    norms = _record_claim1_norms(monkeypatch)
    rows = run_claim1_sweep([12], 0.4, 2, 1)
    k = sum(est.iterations for _, _, est in norms)
    assert len(norms) == 2 and all(est.method == "lanczos" for _, _, est in norms)
    assert k > 0 and len(calls) == 2 * k
    assert rows[0]["unconverged"] == 0


def test_claim1_one_pass_matches_two_passes(monkeypatch):
    # value, iterations and converged of the one-pass norms equal those of
    # spectral_norm's default two passes, which replay for the explicit residual
    norms = _record_claim1_norms(monkeypatch)
    run_claim1_sweep(list(range(6, 13)), 0.4, 5, 3)
    assert len(norms) == 7 * 5
    for op, seed, one in norms:
        two = fourier_operator.spectral_norm(op, seed=seed)
        assert (one.value, one.iterations, one.converged) == (two.value, two.iterations, two.converged)
        assert two.residual <= 1e-8
