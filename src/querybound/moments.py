"""Trace moments of the truncated Fourier operator and enumeration checks.

Tr(F_T^{2k}) = sum_i lambda_i^{2k} controls the spectral norm through 2k-th
roots, and its expectation over a uniformly random sign table is what makes
the norm concentrate.  Every trace moment here is ||F_T^k||_F^2, formed by
one float64 kernel that is exact whenever B 2^(2nk) < 2^53; the exhaustive
average guards k so that it always is, and divides once at the end.  The
trace does not change when f(x) becomes f(x XOR a) or -f, so the exhaustive
average runs over one least table per orbit of those 2^(n+1) maps, weighted
by the orbit's size.  The partition sign sum behind the higher moments is
summed over point tuples only: the sum over each weight-<= t string
collapses to one value of the Hamming ball's Walsh transform, an exact
integer that depends only on the weight of its argument.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import BooleanFunction, derive_seeds, map_trials, sample_uniform
from .fourier_operator import _gather_xor, build_dense, check_dense_budget
from .transforms import ball_transform, binomial_sum, build_weight_index, check_bits, walsh_matrix

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


def _check_exhaustive_bits(n: int, what: str) -> None:
    if n > _EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive {what} is limited to n <= {_EXHAUSTIVE_MAX_N}")
    if n < 1:
        raise ValueError(f"exhaustive {what} needs n in 1..{_EXHAUSTIVE_MAX_N}, got {n}")


def check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _bound_scale(n: int, t: int, k: int) -> float:
    b = binomial_sum(n, t)
    return b * (b / (1 << n)) ** k


def _power_traces(a: np.ndarray, k: int) -> np.ndarray:
    """Tr(a^{2k}) = ||a^k||_F^2 of a symmetric matrix, or of each matrix of a stack.

    matrix_power multiplies only powers a^i a^j with i + j <= k (in sequence
    for k <= 3, by binary powering beyond).  For the integer A = 2^n F_T,
    ||A|| <= 2^n, and every entry and partial sum of such a product is an
    entry of A^i D A^j for a 0/1 diagonal D, so at most 2^(nk); every partial
    sum of ||A^k||_F^2 is at most Tr(A^{2k}) <= B 2^(2nk).  So no operation
    rounds when B 2^(2nk) < 2^53, in whatever order BLAS sums, and neither
    does the same computation on F_T = A / 2^n, scaled by powers of two.
    """
    p = np.linalg.matrix_power(a, k)
    return np.einsum("...ij,...ij->...", p, p)


def trace_moment(f: BooleanFunction, t: int, k: int) -> MomentReport:
    """Tr(F_T^{2k}) of one function's dense F_T, exact whenever B 2^(2nk) < 2^53.

    Past that bound it is a float64 sum of squares of the entries of F_T^k.
    """
    check_k(k)
    value = float(_power_traces(build_dense(f, t).dense_matrix, k))
    return MomentReport(n=f.n, t=t, k=k, value=value, stderr=0.0, method="dense_exact",
                        bound_ratio=value / _bound_scale(f.n, t, k))


@functools.cache
def _sign_table_orbits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Least table index and size of each orbit of f(x) -> f(x XOR a) and f -> -f.

    Table j is f(x) = (-1)^(bit x of j).  Translating by a = 2^i moves bit x
    to bit x XOR 2^i, which swaps neighbouring 2^i-bit blocks of j, so a Gray
    code walk over a reaches every translate with one block swap each; the
    complement of all 2^n bits is -f.  The least of an index's 2^(n+1) images
    names its orbit, and one image is held at a time.  Both arrays are shared,
    so read-only; an orbit's size divides 2^(n+1).
    """
    m = 1 << n
    full = (1 << m) - 1
    index = np.arange(1 << m, dtype=np.int64)
    least = np.minimum(index, index ^ full)
    masks = [sum(1 << x for x in range(m) if not x >> i & 1) for i in range(n)]
    image = index
    for step in range(1, m):
        i = (step & -step).bit_length() - 1  # the bit of a that step flips
        image = ((image & masks[i]) << (1 << i)) | ((image >> (1 << i)) & masks[i])
        np.minimum(least, image, out=least)
        np.minimum(least, image ^ full, out=least)
    reps, sizes = np.unique(least, return_counts=True)
    reps.flags.writeable = False
    sizes.flags.writeable = False
    return reps, sizes


def expected_trace_moment_exhaustive(n: int, t: int, k: int) -> MomentReport:
    """Average Tr(F_T^{2k}) over every one of the 2^(2^n) sign tables, exactly.

    Works on the integer matrix A = 2^n * F_T, whose entries are Walsh sums
    A[u, v] = sum_x (-1)^((u XOR v).x) f(x).  Replacing f(x) by f(x XOR a)
    multiplies each Walsh sum at s by (-1)^(s.a), so A becomes D A D with
    D = diag((-1)^(u.a)), D^2 = I; replacing f by -f gives -A.  Neither
    changes Tr(A^{2k}), so the sum over all tables is the sum over one
    representative per orbit of these 2^(n+1) maps, each weighted by its
    orbit's size (2288 orbits for the 65536 tables at n = 4).  _power_traces
    forms the traces of the stack of representatives, and the guard
    2^12 * B * m^(2k) < 2^63 (m = 2^n) keeps it exact.  The traces are
    converted to int64 and summed per orbit size; a group holds at most
    2288 < 2^12 of them, so its sum stays below 2^63, and the weighted total
    is a Python int.  The single division at the end is performed as a
    Fraction, so for k = 1 the result is a dyadic rational that converts to
    float without rounding.
    """
    _check_exhaustive_bits(n, "expectation")
    check_k(k)
    m = 1 << n
    strings = build_weight_index(n, t)
    b = strings.size
    if (1 << 12) * b * m ** (2 * k) >= 2**63:
        raise ValueError(f"k={k} overflows the exact integer path at n={n}, t={t}")
    reps, sizes = _sign_table_orbits(n)
    signs = 1.0 - 2.0 * ((reps[:, None] >> np.arange(m)) & 1)
    a = np.empty((reps.size, b, b))  # a[j] = 2^n F_T of table reps[j], from its Walsh sums
    _gather_xor(signs @ walsh_matrix(n), strings, a)
    traces = _power_traces(a, k).astype(np.int64)
    total = sum(int(size) * int(traces[sizes == size].sum()) for size in np.unique(sizes))
    exact = Fraction(total, (1 << m) * m ** (2 * k))
    value = float(exact)
    return MomentReport(n=n, t=t, k=k, value=value, stderr=0.0,
                        method="exhaustive_expectation",
                        bound_ratio=value / _bound_scale(n, t, k))


def expected_trace_moment_mc(
    n: int, t: int, k: int, trials: int, seed: int, threads: int = 1
) -> MomentReport:
    """Monte Carlo mean of Tr(F_T^{2k}) over seeded random functions.

    n, t, k and the dense budget of B are checked before any sign table is drawn.
    """
    if trials < 2:
        raise ValueError(f"need trials >= 2 for a standard error, got {trials}")
    check_bits(n)
    check_k(k)
    check_dense_budget(n, t)
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
    total: int  # exact value of the signed sum
    bound: int  # B^(m-r+1) * 2^(nr)
    budget: int  # terms of the sum as defined, B^m * 2^(nr)


def claim2_bruteforce(n: int, t: int, spec: PartitionSpec) -> Claim2Result:
    """Exact value of the partition-indexed sign sum, over point tuples only.

    As defined, the sum runs over every tuple (s_1..s_m) of weight-<= t
    strings: with e_i = s_i XOR s_{i+1} (cyclically) and t_j the XOR of e_i
    over part j, it adds (-1)^(sum_j t_j . x_j) over all tuples of
    pairwise-distinct x_1..x_r.  Let p(i) be the part that holds i, with
    p(0) = p(m).  Then, mod 2,

        sum_j t_j . x_j = sum_i (s_i XOR s_{i+1}) . x_p(i)
                        = sum_i s_i . (x_p(i) XOR x_p(i-1)),

    so summing each s_i on its own gives

        total = sum over distinct (x_1..x_r) of prod_i K(x_p(i) XOR x_p(i-1)),

    with K(z) = sum_{|s| <= t} (-1)^(s.z), the Walsh transform of the
    weight-<= t Hamming ball: K(z) = ball_transform(n, t)[|z|], and |K| <= B,
    so every product is an int64 of at most B^m.  The product depends only on
    XORs of the x_j, so shifting every x_j by one point keeps it: the sum is
    2^n times its part with x_1 = 0.  With a single part every XOR is 0 and
    the total is exactly B^m * 2^n; general partitions are what the moment
    bound's induction controls, so the exact value is reported next to
    B^(m-r+1) * 2^(nr).
    """
    check_bits(n)
    b = binomial_sum(n, t)
    m, r = spec.m, spec.r
    budget = b**m * (1 << (n * r))
    if budget > _CLAIM2_BUDGET:
        raise ValueError(f"enumeration needs {budget} > {_CLAIM2_BUDGET} elementary terms")
    kernel = ball_transform(n, t)
    part_of = {i: j for j, part in enumerate(spec.parts) for i in part}
    edges = [(part_of[i], part_of[(i - 2) % m + 1]) for i in range(1, m + 1)]

    total = 0
    n_tuples = 1 << (n * (r - 1))
    chunk = 1 << 16
    for start in range(0, n_tuples, chunk):
        ids = np.arange(start, min(start + chunk, n_tuples), dtype=np.int64)
        xs = [np.zeros_like(ids)] + [(ids >> (n * j)) & ((1 << n) - 1) for j in range(r - 1)]
        terms = np.ones_like(ids)
        for j in range(r):
            for i in range(j):
                terms *= xs[j] != xs[i]
        for j, i in edges:
            terms *= kernel[np.bitwise_count(xs[j] ^ xs[i])]
        total += int(terms.sum())
    total <<= n
    bound = b ** (m - r + 1) * (1 << (n * r))
    return Claim2Result(n=n, t=t, m=m, r=r, b=b, total=total, bound=bound, budget=budget)


def expected_sign_product(n: int, xs: tuple[int, ...]) -> float:
    """E[f(x_1) ... f(x_m)] over all 2^(2^n) sign tables, by full enumeration.

    The mean is an integer divided by a power of two, so the float is exact:
    1.0 when every distinct point appears an even number of times, else 0.0.
    """
    _check_exhaustive_bits(n, "product")
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


def evenness_check(n: int, m: int, trials: int, seed: int) -> tuple[EvennessEntry, ...]:
    """Sampled x-tuples versus the exact all-functions product expectation, one EvennessEntry each.

    Alternates tuples that are even by construction (each value paired up)
    with fully random ones, and verifies the enumerated mean is exactly 1
    for even multiplicity patterns and exactly 0 otherwise.
    """
    _check_exhaustive_bits(n, "product")  # before sampling, which cannot draw 2^n points past n = 62
    if m < 1 or m > 6:
        raise ValueError(f"m must lie in 1..6, got {m}")
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
    return tuple(entries)
