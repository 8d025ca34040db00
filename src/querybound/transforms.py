"""Bit conventions, Walsh-Hadamard transforms, and weight-limited index sets.

Conventions used throughout the package:

* An n-bit string is stored as a Python/numpy integer whose bit i holds
  variable x_{i+1}.
* The dot product s.x over GF(2) is popcount(s AND x) mod 2.
* The transform is the unnormalized Walsh matrix W with entries
  W[s, x] = (-1)^(s.x), so W @ W = 2^n * I.  The unitary Hadamard is
  2^(-n/2) * W; callers apply that scaling themselves.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Largest Kronecker factor of the transform, in bits.  Every matrix-free norm
# runs its transforms on one BLAS thread, and there 16 x 16 factors win from
# n = 12 to 18.  One transform at caps 4 and 6, median of 7 alternating runs
# (3 from n = 23), one OpenBLAS thread, numpy 2.4.6, 2-vCPU VM:
#   n          4     5     6     7     8     9    10    11    12    13    us
#   cap 4    2.8   4.4   4.5   4.6   4.8   7.9   9.1  11.6  15.4  24.6
#   cap 6    2.9   3.1   3.6   4.6   4.9   5.8   7.0  10.9  19.4  27.3
#   n         14    15    16    17    18    19    20    21    22          ms
#   cap 4  0.038 0.078 0.214 0.545  1.41  3.99  9.05  13.5  41.1
#   cap 6  0.048 0.130 0.310 0.768  1.96  3.89  8.74  16.0  49.0
#   n         23    24    25    26                                      ms
#   cap 4    113   226   510  1082
#   cap 6    141   245   469  1083
# Cap 4 loses where fewer passes win: by up to 2 us at n = 5, 6, 9, 10, 11,
# by 3% at n = 19, 20 and by 9% at n = 25.  Caps 3 and 5 were slower than
# 4 at n = 12..15 (cap 5 by 1.6x at n = 15) and within 10% of it at 16..18.
_FACTOR_BITS = 4

# Largest n of the package, for two reasons: a whole 2^n table of doubles is
# 512 MiB at n = 26, and vandam's integer CDF, B 2^n <= 2^52, stays below 2^53.
MAX_BITS = 26


def check_bits(n: int) -> None:
    """Refuse n outside 1..MAX_BITS before any 2^n table is allocated."""
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"n must lie in 1..{MAX_BITS}, got {n}")


def check_truncation(n: int, t: int) -> None:
    """check_bits(n), then refuse t outside 0..n."""
    check_bits(n)
    if t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got t={t}")


@functools.cache
def walsh_matrix(b: int) -> np.ndarray:
    """Dense 2^b x 2^b Walsh matrix of +-1 entries (float64), shared, so read-only."""
    idx = np.arange(1 << b, dtype=np.uint32)
    w = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)
    w.flags.writeable = False
    return w


def fwht_in_place(v: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n buffer, in place.

    Computes W v where W[s, x] = (-1)^(s.x).  Applying it twice multiplies
    the input by 2^n.  W_n = W_{c_1} (x) ... (x) W_{c_k} with k = ceil(n/4)
    near-equal factors of at most 16 x 16; each is one BLAS matmul along its
    axis, so the cost is k passes of O(2^c 2^n) flops.  Exact on integer
    input whose partial sums stay below 2^53, e.g. any +-1 table.  The buffer
    is overwritten and returned.

    Each pass writes its matmul into the other of v and a second buffer of the
    same shape and dtype, so no pass allocates a temporary or copies it back;
    an odd k copies the result into v once at the end.  A caller that
    transforms many buffers passes that second buffer as scratch (it is
    overwritten); without it one is allocated per call.
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
    if scratch is None:
        scratch = np.empty_like(v)
    elif (scratch.shape != v.shape or scratch.dtype != v.dtype or not scratch.flags.c_contiguous
          or np.may_share_memory(scratch, v)):
        raise ValueError("scratch must be a separate C-contiguous buffer of v's shape and dtype")
    n = m.bit_length() - 1
    k = -(-n // _FACTOR_BITS)
    src, dst = v, scratch
    low = 0
    for i in range(k):
        c = n // k + (i < n % k)
        if low == 0:
            np.matmul(src.reshape(-1, 1 << c), walsh_matrix(c), out=dst.reshape(-1, 1 << c))
        else:
            shape = (-1, 1 << c, 1 << low)
            np.matmul(walsh_matrix(c), src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
        low += c
    if src is not v:
        v[:] = src
    return v


def binomial_sum(n: int, t: int) -> int:
    """Exact B = sum_{i=0}^{t} C(n, i), the number of n-bit strings of weight <= t."""
    if n < 0 or t < 0 or t > n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    return sum(math.comb(n, i) for i in range(t + 1))


def ball_transform(n: int, t: int) -> np.ndarray:
    """K[d] = sum_{|y| <= t} (-1)^(y.z) for any z of weight d, as int64, so K[0] = B.

    K[d] sums the Krawtchouk values K_i(d) over i <= t, built by the exact
    recurrence (i+1) K_{i+1} = (n - 2d) K_i - (n - i + 1) K_{i-1}.
    """
    check_truncation(n, t)
    d = np.arange(n + 1, dtype=np.int64)
    k = [np.zeros_like(d), np.ones_like(d)]  # K_{-1} and K_0
    for i in range(t):
        k.append(((n - 2 * d) * k[-1] - (n - i + 1) * k[-2]) // (i + 1))
    return sum(k[1:])


def binary_entropy(q: float) -> float:
    """Binary entropy H(q) = -q log2 q - (1-q) log2 (1-q), with H(0) = H(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def build_weight_index(n: int, t: int) -> np.ndarray:
    """All n-bit strings of Hamming weight <= t, in (weight, value) order, read-only.

    Its size is B = binomial_sum(n, t).
    """
    check_truncation(n, t)
    vals = np.arange(1 << n, dtype=np.int64)
    weights = np.bitwise_count(vals)
    kept = vals[weights <= t]
    order = np.argsort(weights[kept], kind="stable")  # stable keeps value order within a weight
    strings = kept[order]
    strings.flags.writeable = False
    return strings


def parse_bitstring(text: str) -> int:
    """Bitstring -> integer; character j (0-based) is variable x_{j+1} = bit j."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"bitstring must be nonempty over {{0,1}}, got {text!r}")
    return int(text[::-1], 2)


def format_bitstring(x: int, n: int) -> str:
    if x < 0 or x >= (1 << n):
        raise ValueError(f"value {x} does not fit in {n} bits")
    return format(x, f"0{n}b")[::-1]
