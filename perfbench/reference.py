"""Reference computations behind the benchmark's output checks.

Nothing here imports querybound.  Closed forms come from math.comb and
Fraction, norms from a Walsh-Hadamard transform written out below and from
numpy's or scipy's eigensolvers, and partition sums from a pure-Python
enumeration, so a fault in the program cannot hide in its own check.

Two helpers replay the program's documented input recipe (SeedSequence.spawn
child seeds, PCG64 sign tables) so that a check can rebuild the function a
command was given; they produce inputs, never expected outputs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

# Largest B for which the dense reference eigensolver is used; above it the
# reference runs Lanczos (ARPACK) matrix-free.
DENSE_MAX = 1000
_ARPACK_NCV = 40  # Lanczos basis size; smaller operators always go dense


# ------------------------------------------------------------ closed forms

def binomial_total(n: int, t: int) -> int:
    """B = number of n-bit strings of weight at most t."""
    return sum(math.comb(n, i) for i in range(t + 1))


def least_t(n: int, eps: float) -> int:
    """Least T with 1 - B/2^n <= eps, compared exactly (eps taken as its binary value)."""
    total = 1 << n
    bound = Fraction(eps) * total
    for t in range(n + 1):
        if total - binomial_total(n, t) <= bound:
            return t
    return n


def interrogation_success(n: int, t: int) -> Fraction:
    """Exact success probability B/2^n of weight-t oracle interrogation."""
    return Fraction(binomial_total(n, t), 1 << n)


def popcount(x: int) -> int:
    return bin(x).count("1")


# ------------------------------------------------------------ input recipe

def child_seeds(seed: int, count: int) -> list[int]:
    """Per-trial seeds as the program derives them: SeedSequence(seed).spawn(count)."""
    return [int(c.generate_state(1, np.uint64)[0])
            for c in np.random.SeedSequence(seed).spawn(count)]


def uniform_signs(n: int, seed: int) -> np.ndarray:
    """The +-1 table of the uniformly random function the program draws for (n, seed)."""
    bits = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=1 << n)
    return 1.0 - 2.0 * bits


def parity_signs(n: int) -> np.ndarray:
    return np.array([1.0 - 2.0 * (popcount(x) & 1) for x in range(1 << n)])


# -------------------------------------------------- Walsh-Hadamard and norms

def walsh_matrix(n: int) -> np.ndarray:
    """Explicit 2^n x 2^n matrix W[s, x] = (-1)^popcount(s & x), built by Kronecker products."""
    w = np.ones((1, 1))
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(n):
        w = np.kron(h, w)
    return w


def walsh_transform(v: np.ndarray) -> np.ndarray:
    """W v by radix-2 butterflies on a fresh copy; W is unnormalized (W W = 2^n I)."""
    out = np.array(v, dtype=np.float64)
    h = 1
    while h < out.shape[0]:
        pairs = out.reshape(-1, 2, h)
        lo, hi = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = lo + hi
        pairs[:, 1] = lo - hi
        h *= 2
    return out


def fourier_coeffs(signs: np.ndarray) -> np.ndarray:
    return walsh_transform(signs) / signs.shape[0]


def _weights(n: int) -> np.ndarray:
    """Hamming weight of every n-bit string, by shifting out one bit at a time."""
    vals = np.arange(1 << n, dtype=np.int64)
    return sum(((vals >> i) & 1 for i in range(n)), np.zeros(1 << n, dtype=np.int64))


def weight_strings(n: int, t: int) -> np.ndarray:
    """All n-bit strings of weight <= t, in increasing value order."""
    return np.flatnonzero(_weights(n) <= t)


def truncated_matrix(signs: np.ndarray, t: int) -> np.ndarray:
    """Dense B x B matrix fhat(a XOR b) over weight-<= t strings a, b."""
    n = signs.shape[0].bit_length() - 1
    strings = weight_strings(n, t)
    return fourier_coeffs(signs)[strings[:, None] ^ strings[None, :]]


def _pair_counts(n: int, t: int) -> list[int]:
    """pairs[w] = #{(a, b): |a| <= t, |b| <= t, a XOR b = u} for any u of weight w."""
    pairs = []
    for w in range(n + 1):
        total = 0
        for i in range(w + 1):  # ones of a inside the support of u
            for j in range(n - w + 1):  # ones of a outside it
                if i + j <= t and (w - i) + j <= t:
                    total += math.comb(w, i) * math.comb(n - w, j)
        pairs.append(total)
    return pairs


def frobenius_norm(signs: np.ndarray, t: int) -> float:
    """||F_T||_F = sqrt(sum_u fhat(u)^2 * pairs(|u|)), an upper bound on the spectral norm."""
    n = signs.shape[0].bit_length() - 1
    coeffs = fourier_coeffs(signs)
    pairs = np.array(_pair_counts(n, t), dtype=np.float64)
    return math.sqrt(float(np.sum(coeffs * coeffs * pairs[_weights(n)])))


def truncated_norm(signs: np.ndarray, t: int, dense_max: int = DENSE_MAX) -> float:
    """Spectral norm of F_T: eigvalsh when B <= dense_max, else ARPACK Lanczos matrix-free."""
    n = signs.shape[0].bit_length() - 1
    if frobenius_norm(signs, t) == 0.0:
        return 0.0  # every entry of F_T is exactly zero
    strings = weight_strings(n, t)
    b = strings.shape[0]
    if b <= max(dense_max, _ARPACK_NCV):
        return float(np.max(np.abs(np.linalg.eigvalsh(truncated_matrix(signs, t)))))

    scale = float(1 << n)

    def matvec(v):
        buf = np.zeros(1 << n)
        buf[strings] = np.ravel(v)
        buf = walsh_transform(buf) * signs
        return walsh_transform(buf)[strings] / scale

    op = LinearOperator((b, b), matvec=matvec, dtype=np.float64)
    v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(b)
    vals = eigsh(op, k=1, which="LM", tol=0, ncv=_ARPACK_NCV, v0=v0, return_eigenvectors=False)
    return float(abs(vals[0]))


def norm_below(signs: np.ndarray, t: int, threshold: float) -> bool:
    """True when ||F_T|| < threshold, using the Frobenius bound before an eigensolver."""
    return frobenius_norm(signs, t) < threshold or truncated_norm(signs, t) < threshold


# ------------------------------------------------------- partition sums

def partition_total(n: int, t: int, parts: tuple[tuple[int, ...], ...]) -> int:
    """Exact partition-constrained sign sum, by enumeration in pure Python.

    For every tuple (s_1..s_m) of weight-<= t strings, e_i = s_i XOR s_{i+1}
    (cyclic) and t_j = XOR of e_i over part j; the total sums
    (-1)^(sum_j popcount(t_j AND x_j)) over pairwise-distinct x_1..x_r.
    """
    m = sum(len(p) for p in parts)
    strings = [s for s in range(1 << n) if popcount(s) <= t]
    tvecs: Counter[tuple[int, ...]] = Counter()
    for tup in itertools.product(strings, repeat=m):
        e = [tup[i] ^ tup[(i + 1) % m] for i in range(m)]
        tv = []
        for part in parts:
            acc = 0
            for i in part:
                acc ^= e[i - 1]
            tv.append(acc)
        tvecs[tuple(tv)] += 1
    total = 0
    for tv, count in tvecs.items():
        inner = 0
        for xs in itertools.permutations(range(1 << n), len(tv)):
            inner += -1 if sum(popcount(a & x) for a, x in zip(tv, xs)) & 1 else 1
        total += count * inner
    return total


def all_even(xs: tuple[int, ...]) -> bool:
    """Whether every value occurs an even number of times in xs."""
    return all(c % 2 == 0 for c in Counter(xs).values())
