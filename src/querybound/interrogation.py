"""Exact simulation of the low-weight oracle-interrogation routine.

The algorithm prepares a uniform superposition over the B strings y with
|y| <= T, applies the phase oracle |y> -> (-1)^(x.y) |y> with T queries,
applies a Hadamard to every qubit and measures.  The measured string equals
the hidden input x with probability exactly B / 2^n.

The final state is never formed.  Its unnormalized amplitudes are the
integers S[h, l] = sum_w a_w[h] b_w[l] of at most n/2 + 1 Kronecker terms on
two half cubes, so one amplitude is one dot product, and shots come from an
exact-integer inverse CDF over row masses R_h = sum_l S[h, l]^2, evaluating
only the rows that draws land in.  Memory is O(n 2^(n/2)) plus one block of
2^20 doubles.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .transforms import binomial_sum, fwht_in_place

# Simulations hold only half-cube tables, so this cap bounds no memory; lifting
# it would change which inputs the CLI accepts.
_MAX_SIM_BITS = 24
# Draws per generator call, and doubles per block of touched rows.
_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class InterrogationOutcome:
    n: int
    t: int
    target: int  # the hidden input x, as an integer
    success_probability: float  # exact squared amplitude of |x> in the final state
    shots: int = 0
    sampled_counts: dict[int, int] | None = field(default=None)

    @property
    def recovered_frequency(self) -> float:
        if not self.shots:
            raise ValueError("no sampling was performed")
        assert self.sampled_counts is not None
        return self.sampled_counts.get(self.target, 0) / self.shots


def check_sim_bits(n: int) -> None:
    """Refuse n outside 1.._MAX_SIM_BITS before any table is built."""
    if not 1 <= n <= _MAX_SIM_BITS:
        raise ValueError(f"state-vector simulation supports n in 1..{_MAX_SIM_BITS}, got {n}")


def _half_cube_factors(n: int, t: int, x: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, a, b) with sum_w a[w] (x) b[w] = W (oracle output), as exact integers.

    W is the unnormalized Walsh-Hadamard transform, so the final state is this
    sum divided by sqrt(B 2^n).

    y = (h << lo) | l splits the cube into two halves: |y| = |h| + |l| and
    (-1)^(x.y) = (-1)^(x_h.h) (-1)^(x_l.l).  Grouped by w = |h|, the oracle's
    output is sum_w a_w (x) b_w with a_w = (-1)^(x_h.h) [|h| = w] and
    b_w = (-1)^(x_l.l) [|l| <= t - w], and H (a (x) b) = (H a) (x) (H b).
    The rows of a have 2^(n - lo) entries and those of b have 2^lo.
    """
    check_sim_bits(n)
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}")
    if x < 0 or x >= (1 << n):
        raise ValueError(f"target {x} does not fit in {n} bits")
    lo = n // 2
    low, high = np.arange(1 << lo), np.arange(1 << (n - lo))
    w = np.arange(min(n - lo, t) + 1)[:, None]
    a = (np.bitwise_count(high) == w) * (1.0 - 2.0 * (np.bitwise_count(high & (x >> lo)) & 1))
    b = (np.bitwise_count(low) <= t - w) * (1.0 - 2.0 * (np.bitwise_count(low & x) & 1))
    for row in (*a, *b):
        fwht_in_place(row)
    return lo, a, b


def _final_state(n: int, t: int, x: int) -> np.ndarray:
    """The whole normalized final state, 2^n doubles: a reference for tests."""
    _, a, b = _half_cube_factors(n, t, x)
    # Integers below 2^n < 2^53 throughout, so exact in any summation order;
    # one division gives the uniform amplitude and the unitary Hadamard.
    state = (a.T @ b).ravel()
    state /= math.sqrt(binomial_sum(n, t) << n)
    return state


def _success_probability(n: int, t: int, x: int, lo: int, a: np.ndarray, b: np.ndarray) -> float:
    """Squared amplitude of |x>: the one integer S[x_h, x_l], divided once by sqrt(B 2^n)."""
    amplitude = a[:, x >> lo] @ b[:, x & ((1 << lo) - 1)] / math.sqrt(binomial_sum(n, t) << n)
    return float(amplitude**2)


def _row_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """R_h = sum_l S[h, l]^2 for S = a.T @ b, as a_h^T G a_h with G = b b^T.

    Computed in int64, so exact in any order: by Cauchy-Schwarz and Parseval
    no entry, product or partial sum exceeds 2^n sqrt(B 2^n) <= 2^48 in
    magnitude, and sum_h R_h = B 2^n.
    """
    a, b = a.astype(np.int64), b.astype(np.int64)
    return np.einsum("wh,wh->h", a, (b @ b.T) @ a)


def simulate_exact(n: int, t: int, x: int) -> InterrogationOutcome:
    """Run the three steps exactly and report the probability of measuring x."""
    prob = _success_probability(n, t, x, *_half_cube_factors(n, t, x))
    return InterrogationOutcome(n=n, t=t, target=x, success_probability=prob)


def simulate_sampled(n: int, t: int, x: int, shots: int, seed: int) -> InterrogationOutcome:
    """Exact final distribution plus a finite-shot measurement record.

    Each shot draws r in [0, 1) and takes the first string whose cumulative
    mass S^2 exceeds U = floor(r B 2^n), an integer below B 2^n because r < 1.
    That string is found in two steps: the first row h whose cumulative row
    mass exceeds U, then the first column l whose mass within the row exceeds
    what is left.  No string of zero mass is ever taken.  Every mass and
    cumulative sum is an integer at most B 2^n <= 2^48, exact in a double.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    lo, a, b = _half_cube_factors(n, t, x)
    prob = _success_probability(n, t, x, lo, a, b)
    masses = _row_masses(a, b)
    row_cdf = np.cumsum(masses)
    before = (row_cdf - masses).astype(float)  # mass of all earlier rows
    row_cdf = row_cdf.astype(float)
    rows_per_block = _BLOCK >> lo
    rng = np.random.Generator(np.random.PCG64(seed))
    sampled: Counter[int] = Counter()
    for done in range(0, shots, _BLOCK):
        u = np.floor(rng.random(min(shots - done, _BLOCK)) * row_cdf[-1])
        u.sort()  # only the counts are kept, so the draws may be reordered
        touched, starts = np.unique(np.searchsorted(row_cdf, u, side="right"), return_index=True)
        starts = np.append(starts, u.size)
        hits = []
        for i in range(0, touched.size, rows_per_block):
            rows = touched[i:i + rows_per_block]
            # Exact integer amplitudes of the touched rows, their squares, and
            # running sums that start from the mass of every earlier row: the
            # block flattens to a slice of the flat CDF with the gaps removed.
            cdf = a[:, rows].T @ b
            np.square(cdf, out=cdf)
            cdf[:, 0] += before[rows]
            np.cumsum(cdf, axis=1, out=cdf)
            at = np.searchsorted(cdf.ravel(), u[starts[i]:starts[i + rows.size]], side="right")
            hits.append((rows[at >> lo] << lo) | (at & ((1 << lo) - 1)))
        hit, counts = np.unique(np.concatenate(hits), return_counts=True)
        sampled.update(dict(zip(hit.tolist(), counts.tolist())))
    return InterrogationOutcome(
        n=n,
        t=t,
        target=x,
        success_probability=prob,
        shots=shots,
        sampled_counts=dict(sorted(sampled.items())),
    )


def success_probability_closed_form(n: int, t: int) -> float:
    """B / 2^n, independent of the hidden input."""
    return binomial_sum(n, t) / (1 << n)


def choose_t(n: int, eps: float) -> int:
    """Minimal T whose failure probability 1 - B/2^n is at most eps (exact tail scan)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    total = 1 << n
    cum = 0
    for t in range(n + 1):
        cum += math.comb(n, t)
        if total - cum <= eps * total:
            return t
    return n


def asymptotic_reference_t(n: int, eps: float) -> int:
    """ceil(n/2 + sqrt(n ln(1/eps))), the textbook query count with constant 1.

    Reported alongside choose_t for comparison only; the exact tail rule is
    what the package actually uses.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.ceil(n / 2 + math.sqrt(n * math.log(1.0 / eps)))
