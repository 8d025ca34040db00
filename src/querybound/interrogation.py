"""State-vector simulation of the low-weight oracle-interrogation routine.

The algorithm prepares a uniform superposition over the B strings y with
|y| <= T, applies the phase oracle |y> -> (-1)^(x.y) |y> with T queries,
applies a Hadamard to every qubit and measures.  The measured string equals
the hidden input x with probability exactly B / 2^n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .transforms import binomial_sum, fwht_in_place

# 2^24 doubles: a 128 MiB state, built by one product of half-cube tables
# with no transform temporary.
_MAX_SIM_BITS = 24


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
    """Refuse n outside 1.._MAX_SIM_BITS before any state is built."""
    if not 1 <= n <= _MAX_SIM_BITS:
        raise ValueError(f"state-vector simulation supports n in 1..{_MAX_SIM_BITS}, got {n}")


def _final_state(n: int, t: int, x: int) -> np.ndarray:
    check_sim_bits(n)
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}")
    if x < 0 or x >= (1 << n):
        raise ValueError(f"target {x} does not fit in {n} bits")
    # y = (h << lo) | l splits the cube into two halves: |y| = |h| + |l| and
    # (-1)^(x.y) = (-1)^(x_h.h) (-1)^(x_l.l).  Grouped by w = |h|, the oracle's
    # output is sum_w a_w (x) b_w with a_w = (-1)^(x_h.h) [|h| = w] and
    # b_w = (-1)^(x_l.l) [|l| <= t - w], and H (a (x) b) = (H a) (x) (H b).
    lo = n // 2
    low, high = np.arange(1 << lo), np.arange(1 << (n - lo))
    w = np.arange(min(n - lo, t) + 1)[:, None]
    a = (np.bitwise_count(high) == w) * (1.0 - 2.0 * (np.bitwise_count(high & (x >> lo)) & 1))
    b = (np.bitwise_count(low) <= t - w) * (1.0 - 2.0 * (np.bitwise_count(low & x) & 1))
    for row in (*a, *b):
        fwht_in_place(row)
    # Integers below 2^n < 2^53 throughout, so exact in any summation order;
    # one division gives the uniform amplitude and the unitary Hadamard.
    state = (a.T @ b).ravel()
    state /= math.sqrt(binomial_sum(n, t) << n)
    return state


def simulate_exact(n: int, t: int, x: int) -> InterrogationOutcome:
    """Run the three steps exactly and report the probability of measuring x."""
    state = _final_state(n, t, x)
    prob = float(state[x] ** 2)
    return InterrogationOutcome(n=n, t=t, target=x, success_probability=prob)


def simulate_sampled(n: int, t: int, x: int, shots: int, seed: int) -> InterrogationOutcome:
    """Exact final distribution plus a finite-shot measurement record."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    state = _final_state(n, t, x)
    prob = float(state[x] ** 2)
    cdf = np.cumsum(np.square(state, out=state), out=state)
    # Inverse CDF: r < 1 gives r * cdf[-1] < cdf[-1], and side="right" skips every
    # flat step, so no draw passes 2^n - 1 or lands on a string of zero probability.
    rng = np.random.Generator(np.random.PCG64(seed))
    sampled: Counter[int] = Counter()
    for done in range(0, shots, 1 << 20):  # 2^20 draws at a time bound the memory
        r = rng.random(min(shots - done, 1 << 20))
        hit, counts = np.unique(np.searchsorted(cdf, r * cdf[-1], side="right"), return_counts=True)
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
