"""Trace moments of the truncated Fourier operator and enumeration checks.

Tr(F_T^{2k}) = sum_i lambda_i^{2k} controls the spectral norm through 2k-th
roots, and its expectation over a uniformly random sign table is what makes
the norm concentrate.  Everything here that claims exactness sums integers
and divides once at the end; the exhaustive moments hold them in float64,
kept below 2^53 by a guard on k, so every operation is exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import BooleanFunction, derive_seeds, map_trials, sample_uniform
from .fourier_operator import build_dense
from .transforms import build_weight_index, binomial_sum

_EXHAUSTIVE_MAX_N = 4  # 2^(2^4) = 65536 sign tables is the largest exhaustible space
_CLAIM2_BUDGET = 10**8


@dataclass(frozen=True)
class MomentReport:
    n: int
    t: int
    k: int
    value: float
    stderr: float  # 0 for exact methods
    method: str  # "dense_exact" | "exhaustive_expectation" | "monte_carlo"
    bound_ratio: float  # value / (B (B/2^n)^k)
    trials: int = 0


def _bound_scale(n: int, t: int, k: int) -> float:
    b = binomial_sum(n, t)
    return b * (b / (1 << n)) ** k


def trace_moment(f: BooleanFunction, t: int, k: int) -> MomentReport:
    """Exact Tr(F_T^{2k}) for one function, via dense eigenvalues."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    op = build_dense(f, t)
    eigs = np.linalg.eigvalsh(op.dense_matrix)
    value = float(np.sum(eigs ** (2 * k)))
    return MomentReport(n=f.n, t=t, k=k, value=value, stderr=0.0, method="dense_exact",
                        bound_ratio=value / _bound_scale(f.n, t, k))


def expected_trace_moment_exhaustive(n: int, t: int, k: int) -> MomentReport:
    """Average Tr(F_T^{2k}) over every one of the 2^(2^n) sign tables, exactly.

    Works on the integer matrix A = 2^n * F_T, whose entries are Walsh sums
    A[u, v] = sum_x (-1)^((u XOR v).x) f(x).  A is symmetric, so
    Tr(A^{2k}) = ||A^k||_F^2: each chunk of tables forms P = A^k with k - 1
    batched float64 products and sums P * P per table.  The single division
    at the end is performed as a Fraction, so for k = 1 the result is a
    dyadic rational that converts to float without rounding.

    The values are integers held in float64, and the guard
    chunk * B * m^(2k) < 2^63 (m = 2^n) keeps every one below 2^53, so no
    operation rounds, in whatever order BLAS sums.  ||A|| <= m, so every
    entry of A^j (j <= k) and every partial sum of its product, which is an
    entry of A^(j-1) D A for a 0/1 diagonal D, is at most m^k < 2^26.  Every
    partial sum of ||P||_F^2 is at most Tr(A^{2k}) <= B * m^(2k) < 2^51.  The
    per-table sums are then converted to int64, and a chunk of them stays
    below 2^63.
    """
    if n > _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive expectation is limited to n <= {_EXHAUSTIVE_MAX_N}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = 1 << n
    idx = build_weight_index(n, t)
    b = idx.size
    chunk = 1 << 12
    if chunk * b * m ** (2 * k) >= 2**63:
        raise ValueError(f"k={k} overflows the exact integer path at n={n}, t={t}")
    grid = np.arange(m, dtype=np.int64)
    walsh = 1.0 - 2.0 * (np.bitwise_count(grid[:, None] & grid[None, :]) & 1)
    xor_table = idx.strings[:, None] ^ idx.strings[None, :]
    total = 0
    n_funcs = 1 << m
    for start in range(0, n_funcs, chunk):
        fi = np.arange(start, min(start + chunk, n_funcs), dtype=np.int64)
        signs = 1.0 - 2.0 * ((fi[:, None] >> grid[None, :]) & 1)
        wf = signs @ walsh  # wf[j, s] = sum_x (-1)^(s.x) f_j(x)
        a = np.take(wf, xor_table, axis=1)  # C-contiguous (tables, B, B)
        p = a
        for _ in range(k - 1):
            p = p @ a
        total += int(np.einsum("ijk,ijk->i", p, p).astype(np.int64).sum())
    exact = Fraction(total, n_funcs * m ** (2 * k))
    value = float(exact)
    return MomentReport(n=n, t=t, k=k, value=value, stderr=0.0,
                        method="exhaustive_expectation",
                        bound_ratio=value / _bound_scale(n, t, k))


def expected_trace_moment_mc(
    n: int, t: int, k: int, trials: int, seed: int, threads: int = 1
) -> MomentReport:
    """Monte Carlo mean of Tr(F_T^{2k}) over seeded random functions."""
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    seeds = derive_seeds(seed, trials)

    def one(s: int) -> float:
        return trace_moment(sample_uniform(n, s), t, k).value

    vals = np.array(map_trials(one, seeds, threads))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return MomentReport(n=n, t=t, k=k, value=mean, stderr=stderr, method="monte_carlo",
                        bound_ratio=mean / _bound_scale(n, t, k), trials=trials)


@dataclass(frozen=True)
class PartitionSpec:
    """A partition of {1..m} into r disjoint nonempty parts."""

    m: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        norm = tuple(tuple(sorted(p)) for p in self.parts)
        flat = [i for p in norm for i in p]
        if not norm or any(len(p) == 0 for p in norm):
            raise ValueError("every part must be nonempty")
        if sorted(flat) != list(range(1, self.m + 1)):
            raise ValueError(f"parts must partition 1..{self.m} exactly, got {self.parts}")
        object.__setattr__(self, "parts", norm)

    @property
    def r(self) -> int:
        return len(self.parts)

    @classmethod
    def single(cls, m: int) -> "PartitionSpec":
        return cls(m=m, parts=(tuple(range(1, m + 1)),))


@dataclass(frozen=True)
class Claim2Result:
    n: int
    t: int
    m: int
    r: int
    b: int
    total: int  # exact signed enumeration value
    bound: int  # B^(m-r+1) * 2^(nr)
    budget: int  # enumeration work, B^m * 2^(nr)


def _distinct_sign_sum(rows: list[np.ndarray]) -> int:
    """Sum over tuples of pairwise distinct cube points of the row-sign product.

    rows[j][x] is (-1)^(t_j . x), possibly zeroed where a value is already
    taken by an outer coordinate; zero entries drop exactly the excluded
    tuples, which keeps the filtering explicit.
    """
    if len(rows) == 1:
        return int(rows[0].sum())
    if len(rows) == 2:
        grid = np.outer(rows[0], rows[1])
        np.fill_diagonal(grid, 0)
        return int(grid.sum())
    total = 0
    for x in range(rows[0].shape[0]):
        s = int(rows[0][x])
        if s == 0:
            continue
        sub = []
        for row in rows[1:]:
            masked = row.copy()
            masked[x] = 0
            sub.append(masked)
        total += s * _distinct_sign_sum(sub)
    return total


def claim2_bruteforce(n: int, t: int, spec: PartitionSpec) -> Claim2Result:
    """Exact enumeration of the partition-indexed sign sum.

    For every tuple (s_1..s_m) of weight-<= t strings, form
    e_i = s_i XOR s_{i+1} (cyclically) and t_j = XOR of e_i over part j;
    then sum (-1)^(sum_j t_j . x_j) over all tuples of pairwise-distinct
    x_1..x_r.  With a single part the cyclic telescoping forces t_1 = 0 and
    the result is exactly B^m * 2^n; general partitions are what the moment
    bound's induction controls, so the exact value is reported next to
    B^(m-r+1) * 2^(nr).
    """
    idx = build_weight_index(n, t)
    b = idx.size
    m, r = spec.m, spec.r
    budget = b**m * (1 << (n * r))
    if budget > _CLAIM2_BUDGET:
        raise ValueError(f"enumeration needs {budget} > {_CLAIM2_BUDGET} elementary terms")
    strings = idx.strings
    cube = np.arange(1 << n, dtype=np.int64)

    # Group s-tuples by their t-vector; the inner x-sum depends only on it.
    t_counts: Counter[tuple[int, ...]] = Counter()
    n_tuples = b**m
    chunk = 1 << 16
    for start in range(0, n_tuples, chunk):
        ids = np.arange(start, min(start + chunk, n_tuples), dtype=np.int64)
        s_vals = [strings[(ids // b**j) % b] for j in range(m)]
        e_vals = [s_vals[i] ^ s_vals[(i + 1) % m] for i in range(m)]
        t_cols = []
        for part in spec.parts:
            acc = np.zeros_like(ids)
            for i in part:
                acc ^= e_vals[i - 1]
            t_cols.append(acc)
        stacked = np.stack(t_cols, axis=1)
        uniq, counts = np.unique(stacked, axis=0, return_counts=True)
        for row, c in zip(uniq, counts):
            t_counts[tuple(int(v) for v in row)] += int(c)

    row_cache: dict[int, np.ndarray] = {}

    def sign_row(tv: int) -> np.ndarray:
        got = row_cache.get(tv)
        if got is None:
            # bitwise_count yields uint8; promote before negating
            parity = (np.bitwise_count(cube & tv) & 1).astype(np.int64)
            got = 1 - 2 * parity
            row_cache[tv] = got
        return got

    total = 0
    for tvec, count in t_counts.items():
        total += count * _distinct_sign_sum([sign_row(tv) for tv in tvec])
    bound = b ** (m - r + 1) * (1 << (n * r))
    return Claim2Result(n=n, t=t, m=m, r=r, b=b, total=total, bound=bound, budget=budget)


def expected_sign_product(n: int, xs: tuple[int, ...]) -> float:
    """E[f(x_1) ... f(x_m)] over all 2^(2^n) sign tables, by full enumeration.

    The mean is an integer divided by a power of two, so the float is exact:
    1.0 when every distinct point appears an even number of times, else 0.0.
    """
    if n > _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive product is limited to n <= {_EXHAUSTIVE_MAX_N}")
    pts = np.asarray(xs, dtype=np.int64)
    if pts.ndim != 1 or pts.size == 0 or pts.min() < 0 or pts.max() >= (1 << n):
        raise ValueError(f"tuple entries must be {n}-bit points, got {xs}")
    n_funcs = 1 << (1 << n)
    fi = np.arange(n_funcs, dtype=np.int64)
    acc = np.zeros_like(fi)  # bit 0 of acc[j]: parity of table j's bits at x_1 .. x_m
    for x in pts:
        acc ^= fi >> x
    signs = 1 - 2 * (acc & 1)
    return int(signs.sum()) / n_funcs


@dataclass(frozen=True)
class EvennessEntry:
    xs: tuple[int, ...]
    even: bool
    mean: float
    ok: bool


@dataclass(frozen=True)
class EvennessReport:
    n: int
    m: int
    entries: tuple[EvennessEntry, ...]
    all_ok: bool


def evenness_check(n: int, m: int, trials: int, seed: int) -> EvennessReport:
    """Sampled x-tuples versus the exact all-functions product expectation.

    Alternates tuples that are even by construction (each value paired up)
    with fully random ones, and verifies the enumerated mean is exactly 1
    for even multiplicity patterns and exactly 0 otherwise.
    """
    if m < 1 or m > 6:
        raise ValueError(f"m must lie in 1..6, got {m}")
    if n > _EXHAUSTIVE_MAX_N:
        raise ValueError(f"evenness check is limited to n <= {_EXHAUSTIVE_MAX_N}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.Generator(np.random.PCG64(seed))
    entries = []
    for i in range(trials):
        if m % 2 == 0 and i % 2 == 0:
            half = rng.integers(0, 1 << n, size=m // 2)
            xs = tuple(int(v) for v in rng.permutation(np.repeat(half, 2)))
        else:
            xs = tuple(int(v) for v in rng.integers(0, 1 << n, size=m))
        even = all(c % 2 == 0 for c in Counter(xs).values())
        mean = expected_sign_product(n, xs)
        expected = 1.0 if even else 0.0
        entries.append(EvennessEntry(xs=xs, even=even, mean=mean, ok=mean == expected))
    return EvennessReport(n=n, m=m, entries=tuple(entries), all_ok=all(e.ok for e in entries))
