"""Bit conventions, the fast Walsh-Hadamard transform, and weight-limited index sets.

Conventions used throughout the package:

* An n-bit string is stored as a Python/numpy integer whose bit i holds
  variable x_{i+1}.
* The dot product s.x over GF(2) is popcount(s AND x) mod 2.
* The transform is the unnormalized Walsh matrix W with entries
  W[s, x] = (-1)^(s.x), so W @ W = 2^n * I.  The unitary Hadamard is
  2^(-n/2) * W; callers apply that scaling themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Low-order bits handled by one dense matmul against a cached Walsh block;
# the remaining stages run as vectorized butterflies.  8 keeps the block in
# L1/L2 and measures fastest on a single core for n in the 10..20 range.
_BLOCK_BITS = 8

_walsh_cache: dict[int, np.ndarray] = {}


def _walsh_block(b: int) -> np.ndarray:
    """Dense 2^b x 2^b Walsh matrix of +-1 entries (float64)."""
    got = _walsh_cache.get(b)
    if got is None:
        idx = np.arange(1 << b, dtype=np.uint32)
        par = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
        got = (1.0 - 2.0 * par).astype(np.float64)
        _walsh_cache[b] = got
    return got


def fwht_in_place(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n buffer, in place.

    Computes W v where W[s, x] = (-1)^(s.x).  Applying it twice multiplies
    the input by 2^n.  Cost is O(n 2^n); the buffer is overwritten and also
    returned for convenience.
    """
    if not isinstance(v, np.ndarray) or v.ndim != 1:
        raise ValueError("expected a one-dimensional numpy array")
    m = v.shape[0]
    if m == 0 or (m & (m - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {m}")
    if v.dtype.kind not in "fc":
        raise ValueError(f"need a float or complex buffer, got dtype {v.dtype}")
    if not v.flags.c_contiguous:
        raise ValueError("buffer must be C-contiguous")
    if m == 1:
        return v

    b = min(_BLOCK_BITS, m.bit_length() - 1)
    block = 1 << b
    # Stage 1: transform the low b bits of every index with one dense matmul.
    grid = v.reshape(-1, block)
    grid[:] = grid @ _walsh_block(b)
    # Stage 2: classic butterflies over the remaining high bits.
    h = block
    while h < m:
        w = v.reshape(-1, 2, h)
        a = w[:, 0] + w[:, 1]
        w[:, 1] = w[:, 0] - w[:, 1]
        w[:, 0] = a
        h *= 2
    return v


def binomial_sum(n: int, t: int) -> int:
    """Exact B = sum_{i=0}^{t} C(n, i), the number of n-bit strings of weight <= t."""
    if n < 0 or t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    return sum(math.comb(n, i) for i in range(t + 1))


def binary_entropy(q: float) -> float:
    """Binary entropy H(q) = -q log2 q - (1-q) log2 (1-q), with H(0) = H(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


@dataclass(frozen=True, eq=False)
class WeightIndex:
    """All n-bit strings of Hamming weight <= t, in (weight, value) order.

    strings[j] is the j-th string, and B = len(strings) = binomial_sum(n, t).
    """

    n: int
    t: int
    strings: np.ndarray

    @property
    def size(self) -> int:
        return int(self.strings.shape[0])


def build_weight_index(n: int, t: int) -> WeightIndex:
    if n < 1 or n > 26:
        raise ValueError(f"n must lie in 1..26, got {n}")
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}")
    vals = np.arange(1 << n, dtype=np.int64)
    weights = np.bitwise_count(vals)
    kept = vals[weights <= t]
    order = np.argsort(weights[kept], kind="stable")  # stable keeps value order within a weight
    strings = kept[order]
    strings.flags.writeable = False
    return WeightIndex(n=n, t=t, strings=strings)


def parse_bitstring(text: str) -> int:
    """Bitstring -> integer; character j (0-based) is variable x_{j+1} = bit j."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"bitstring must be nonempty over {{0,1}}, got {text!r}")
    return int(text[::-1], 2)


def format_bitstring(x: int, n: int) -> str:
    if x < 0 or x >= (1 << n):
        raise ValueError(f"value {x} does not fit in {n} bits")
    return format(x, f"0{n}b")[::-1]
