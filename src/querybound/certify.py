"""Per-function quantum-query lower bounds from truncated-Fourier norms.

Any T-query algorithm computing f with error at most eps forces
norm(F_T) >= 1/2 - eps, where F_T is the truncated Fourier operator.
Contrapositive: whenever the measured norm sits strictly below the
threshold (minus a numerical guard band), no such algorithm exists and
T + 1 queries become a lower bound, certified by one proof at the largest
refuted T, since each smaller F_T is a principal submatrix of it.  A
certificate also holds the size B of its stopping truncation and the
entropy ceiling 2^(n H(T/n)) on it.  The seeded sweeps over random
functions live here too: certificates (certify_random_sweep) and norm
scaling (run_claim1_sweep).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .boolfn import (
    BooleanFunction,
    canonical_sign,
    check_family,
    derive_seeds,
    make_family,
    map_trials,
    sample_uniform,
)
from .fourier_operator import (
    NormEstimate,
    build_matrix_free,
    build_operator,
    check_solver_limits,
    prove_norm_below,
    spectral_norm,
)
from .interrogation import choose_t
from .transforms import binary_entropy, binomial_sum, check_bits


@dataclass(frozen=True, eq=False)
class CertifiedBound:
    """evidence[T] is the norm estimate of F_T; every T < lower_bound_t is refuted.

    b_stop and the entropy fields describe the stopping T = lower_bound_t.
    """

    f_descriptor: str  # a label, attached by the sweep and the CLI with replace
    n: int
    eps: float
    lower_bound_t: int
    evidence: tuple[NormEstimate, ...]
    status: str  # "certified" | "empirical"
    b_stop: int  # B = binomial_sum(n, T)
    entropy_exponent: float  # n * H(T/n)
    entropy_bound: float  # 2^entropy_exponent; bounds b_stop only for T <= n/2
    seed: int | None = None  # the sign table's seed, set by certify_random_sweep


def check_eps(eps: float) -> None:
    """Refuse an eps outside (0, 0.5), before any table is built."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")


def certify_lower_bound(
    f: BooleanFunction,
    eps: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> CertifiedBound:
    """Scan T = 0, 1, ... and refute every T whose norm clears the guard band.

    A truncation T is refuted when a converged norm estimate plus tol lies
    below 1/2 - eps; lower_bound_t is the first T that is not.  Norms are
    nondecreasing in T (nested principal submatrices), so the scan stops
    there.  build_operator picks dense or matrix-free per T, and a Lanczos
    norm runs spectral_norm's first pass alone (replay=False), so its
    residual and converged come from the estimate |beta_k s_k|; CLI rows
    print only the norms, which a replay would not change.
    No estimate bounds ||F_T|| from above, so status rests on one proof:
    prove_norm_below at the largest refuted T = lower_bound_t - 1 (an exactly
    zero operator, or for B <= DENSE_LIMIT two verified Cholesky
    factorizations).  Each smaller F_T' is a principal submatrix of F_T, so
    ||F_T'|| <= ||F_T|| < 1/2 - eps.  status is "certified" when that proof
    holds or nothing is refuted, else "empirical" (a nonzero F_T past
    DENSE_LIMIT has no proof).
    """
    check_eps(eps)
    g = canonical_sign(f)
    threshold = 0.5 - eps
    evidence: list[NormEstimate] = []
    refuted = None  # the operator of the largest refuted T
    for t in range(g.n + 1):  # T = n has norm 1, so the scan always breaks
        op = build_operator(g, t)
        est = spectral_norm(op, tol=tol, max_iter=max_iter, replay=False)
        evidence.append(est)
        if not (est.converged and est.value + tol < threshold):
            break
        refuted = op
    # one step down from the rounded difference is at most the exact 1/2 - eps
    proven = refuted is None or prove_norm_below(refuted, math.nextafter(threshold, 0.0))
    status = "certified" if proven else "empirical"
    exponent = g.n * binary_entropy(t / g.n)
    return CertifiedBound(
        f_descriptor="",
        n=g.n,
        eps=eps,
        lower_bound_t=t,
        evidence=tuple(evidence),
        status=status,
        b_stop=binomial_sum(g.n, t),
        entropy_exponent=exponent,
        entropy_bound=2.0 ** exponent,
    )


def certify_random_sweep(
    n: int,
    eps: float,
    trials: int,
    seed: int,
    tol: float = 1e-8,
    max_iter: int = 10000,
    include_family: str | None = None,
    threads: int = 1,
) -> tuple[list[CertifiedBound], dict]:
    """Certify `trials` uniformly random functions, plus an optional named family as trial 0.

    Random trial i samples its sign table from derive_seeds(seed, trials)[i]
    and returns it as the bound's `seed`; the family's bound has seed None.
    Bounds come back in trial order, whatever the number of threads.
    Every argument is checked before any sign table is built.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    check_bits(n)
    if include_family is not None:
        check_family(include_family, n)
    check_eps(eps)
    check_solver_limits(tol, max_iter)
    jobs = ([None] if include_family is not None else []) + derive_seeds(seed, trials)

    def one(s: int | None) -> CertifiedBound:  # None is the family; each thread builds its own tables
        f = make_family(include_family, n) if s is None else sample_uniform(n, s)
        bound = certify_lower_bound(f, eps, tol=tol, max_iter=max_iter)
        return replace(bound, f_descriptor=include_family if s is None else f"random:seed={s}", seed=s)

    bounds = map_trials(one, jobs, threads)

    lbs = [b.lower_bound_t for b in bounds]
    summary = {
        "n": n,
        "eps": eps,
        "trials": len(bounds),
        "min_lower_bound_t": min(lbs),
        "median_lower_bound_t": float(statistics.median(lbs)),
        "max_lower_bound_t": max(lbs),
        "fraction_at_least_quarter_n": sum(lb >= n // 4 for lb in lbs) / len(lbs),
        "upper_bound_t": choose_t(n, eps),
    }
    return bounds, summary


def run_claim1_sweep(
    ns: list[int],
    t_rule: float,
    trials: int,
    seed: int,
    tol: float = 1e-8,
    max_iter: int = 10000,
    threads: int = 1,
    include_family: str | None = None,
) -> list[dict]:
    """Median spectral norm of F_T over random functions, per n, against sqrt(n B / 2^n).

    T = floor(t_rule * n).  Norms run matrix-free at every size so the whole
    grid exercises one code path.  The j-th n's trial i uses seed
    derive_seeds(seed, len(ns) * trials)[j * trials + i] for its sign table
    and its Lanczos start.  Each n gives a "random" row, followed by a row
    for include_family when one is named, whose norm starts from the root
    seed.  All norms of all n share one pool of `threads`.  Rows hold the
    measurement and the configuration behind it (n, t, t_rule, seed, tol,
    max_iter), nothing else.
    Each norm runs spectral_norm's first pass alone (replay=False): no row
    prints a residual, and value and iterations are those of the default
    two passes.  `unconverged` counts the norms whose first-pass residual
    estimate |beta_k s_k| stayed above tol.
    Every argument is checked before any sign table is built.
    """
    if not 0.0 < t_rule <= 0.5:
        raise ValueError(f"t_rule must lie in (0, 0.5], got {t_rule}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for n in ns:  # every n and the family's parity
        check_bits(n)
        if include_family is not None:
            check_family(include_family, n)
    check_solver_limits(tol, max_iter)
    all_seeds = derive_seeds(seed, len(ns) * trials)
    jobs: list[tuple[int, str | None, int]] = []  # (n, family, seed); None is a random trial
    for i, n in enumerate(ns):
        jobs += [(n, None, s) for s in all_seeds[i * trials:(i + 1) * trials]]
        if include_family is not None:
            jobs.append((n, include_family, seed))

    def norm(job: tuple[int, str | None, int]) -> NormEstimate:
        n, family, s = job  # each table is built by the thread that norms it
        f = sample_uniform(n, s) if family is None else make_family(family, n)
        op = build_matrix_free(f, int(t_rule * n))
        return spectral_norm(op, tol=tol, max_iter=max_iter, seed=s, replay=False)

    ests = iter(map_trials(norm, jobs, threads))
    rows = []
    for n in ns:
        t = int(t_rule * n)
        b = binomial_sum(n, t)
        ref = math.sqrt(n * b / (1 << n))

        def row(kind: str, group: list[NormEstimate]) -> dict:
            norms = np.array([e.value for e in group])
            median = float(np.median(norms))
            return {"kind": kind, "n": n, "t": t, "t_rule": t_rule, "b": b, "trials": len(group),
                    "median_norm": median, "max_norm": float(norms.max()), "ref_scale": ref,
                    "ratio": median / ref, "unconverged": sum(not e.converged for e in group),
                    "seed": seed, "tol": tol, "max_iter": max_iter}

        rows.append(row("random", [next(ests) for _ in range(trials)]))
        if include_family is not None:
            rows.append(row(include_family, [next(ests)]))
    return rows
