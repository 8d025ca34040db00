"""Exact simulation of the low-weight oracle-interrogation routine.

The algorithm prepares a uniform superposition over the B strings y with
|y| <= T, applies the phase oracle |y> -> (-1)^(x.y) |y> with T queries,
applies a Hadamard to every qubit and measures.  The measured string equals
the hidden input x with probability exactly B / 2^n.

The final state is never formed.  Its unnormalized amplitude at z is the
integer K(|z XOR x|), where K = ball_transform(n, t) is the Walsh transform of
the weight-<= T Hamming ball.  With z split into two half cubes, every row of
amplitudes is one row of a table of ceil(n/2) + 1 rows, indexed by the high
half's distance to x.  Shots come from an exact-integer inverse CDF: over
row masses R_h = sum_l S[h, l]^2 for the row, then over the cumulative
masses within the row's table row, computed once per simulation.  Memory is
O(n 2^(n/2)) plus the draws of one generator call.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .transforms import ball_transform, binomial_sum, check_truncation

# Draws per generator call.
_BLOCK = 1 << 20


def _check_args(n: int, t: int, x: int) -> None:
    check_truncation(n, t)
    if x < 0 or x >= (1 << n):
        raise ValueError(f"target {x} does not fit in {n} bits")


def _distance_rows(n: int, t: int, x: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, rows, dh): S[h, l] = rows[dh[h], l] is the oracle output after W, as int64.

    S is the final state times sqrt(B 2^n).  The amplitude of z is
    K(|z XOR x|) with K = ball_transform(n, t), and z = (h << lo) | l splits
    the distance as |h XOR x_h| + |l XOR x_l|, so row h of S is row
    dh[h] = |h XOR x_h| of the table rows[e, l] = K[e + |l XOR x_l|].
    """
    _check_args(n, t, x)
    kernel = ball_transform(n, t)
    lo = n // 2
    dl = np.bitwise_count(np.arange(1 << lo) ^ (x & ((1 << lo) - 1)))
    dh = np.bitwise_count(np.arange(1 << (n - lo)) ^ (x >> lo))
    return lo, kernel[np.arange(n - lo + 1)[:, None] + dl], dh


def _within_row_cdf(rows: np.ndarray) -> np.ndarray:
    """C[e, l] = sum_{l' <= l} rows[e, l']^2, so row h of S has mass R_h = C[dh[h], -1].

    Computed in int64, so exact in any order: sum_h R_h = B 2^n <= 2^52.
    """
    return np.cumsum(np.square(rows), axis=1)


def simulate_exact(n: int, t: int, x: int) -> float:
    """The probability of measuring x, a float: B / 2^n, correctly rounded from exact integers.

    x's amplitude is K[0] / sqrt(B 2^n) = sqrt(B / 2^n) for every x.
    """
    _check_args(n, t, x)
    return binomial_sum(n, t) / (1 << n)


def simulate_sampled(n: int, t: int, x: int, shots: int, seed: int) -> dict[int, int]:
    """A finite-shot measurement record of the exact final distribution: {string: count}, in string order.

    Each shot draws r in [0, 1) and takes the first string whose cumulative
    mass S^2 exceeds U = floor(r X), X = B 2^n.  As r <= 1 - 2^-53, the
    exact r X lies at least X 2^-53 below X, more than half the gap to the
    double before X, so it rounds below X; X < 2^53 is an exact integer, so
    U <= X - 1 and no draw runs past the last row.
    That string is found in two steps: the first row h whose cumulative row
    mass exceeds U, then the first column l whose cumulative mass within the
    row, read from the table row dh[h] of within-row sums, exceeds what is
    left of U.  No string of zero mass is ever taken.  Every mass and
    cumulative sum stays an exact int64; U, an integer below 2^53 and so
    exact in a double, is converted to int64 once per block.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    lo, rows, dh = _distance_rows(n, t, x)
    within = _within_row_cdf(rows)
    masses = within[dh, -1]
    row_cdf = np.cumsum(masses)
    before = row_cdf - masses  # mass of all earlier rows
    rng = np.random.Generator(np.random.PCG64(seed))
    sampled: Counter[int] = Counter()
    for done in range(0, shots, _BLOCK):
        u = np.floor(rng.random(min(shots - done, _BLOCK)) * float(row_cdf[-1])).astype(np.int64)
        z = np.searchsorted(row_cdf, u, side="right")  # the row h, then h << lo | l
        u -= before[z]  # what is left within the row
        e = dh[z]
        z <<= lo
        for d in np.unique(e):
            at = e == d
            z[at] |= np.searchsorted(within[d], u[at], side="right")
        hit, counts = np.unique(z, return_counts=True)
        sampled.update(dict(zip(hit.tolist(), counts.tolist())))
    return dict(sorted(sampled.items()))


def choose_t(n: int, eps: float) -> int:
    """Minimal T whose failure probability 1 - B/2^n is at most eps (exact tail scan)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return next((t for t in range(n + 1) if (1 << n) - binomial_sum(n, t) <= eps * (1 << n)), n)


def asymptotic_reference_t(n: int, eps: float) -> int:
    """ceil(n/2 + sqrt(n ln(1/eps))), the textbook query count with constant 1.

    Reported alongside choose_t for comparison only; the exact tail rule is
    what the package actually uses.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.ceil(n / 2 + math.sqrt(n * math.log(1.0 / eps)))
