"""The truncated Fourier operator and its spectral norm.

For a sign table f, conjugating the diagonal matrix F = diag(f) by the
Hadamard transform gives a symmetric orthogonal matrix with entries
fhat(s XOR t).  Restricting rows and columns to strings of weight <= T
yields the B x B principal submatrix handled here, either materialized
densely or applied matrix-free through two Walsh-Hadamard transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .boolfn import BooleanFunction, fourier
from .transforms import WeightIndex, binomial_sum, build_weight_index, fwht_in_place

# B x B doubles at 4096 is 128 MiB; larger truncations must go matrix-free.
DENSE_LIMIT = 4096

# Lanczos stops once the residual estimate of its Ritz pair is below
# _MARGIN * tol: the explicit residual matches the estimate to a relative
# 1e-8 or so, and the margin keeps converged runs inside tol.
_MARGIN = 0.5
# Steps between the first pass's checks on its small tridiagonal matrix:
# each check is an O(k^3) dense eigh, and a longer interval overshoots by up
# to this many steps in both passes.  10 measured fastest of 5, 10 and 15 on
# n = 12..15, where checks at every 5th step took 13% of the norm time.
_CHECK_EVERY = 10


@dataclass(frozen=True, eq=False)
class TruncatedFourierOperator:
    f: BooleanFunction
    t: int
    index: WeightIndex
    dense_matrix: np.ndarray | None = None

    @property
    def mode(self) -> str:
        return "matrix_free" if self.dense_matrix is None else "dense"

    @property
    def size(self) -> int:
        return self.index.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.size,):
            raise ValueError(f"vector must have length {self.size}, got shape {v.shape}")
        if self.dense_matrix is not None:
            return self.dense_matrix @ v
        # Scatter to the full cube, conjugate by the transform, gather back.
        # Fresh scratch per call keeps concurrent applies on one operator safe.
        n = self.f.n
        buf = np.zeros(1 << n)
        buf[self.index.strings] = v
        fwht_in_place(buf)
        buf *= self.f.signs
        fwht_in_place(buf)
        buf /= float(1 << n)
        return buf[self.index.strings]


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "dense_eigen" | "lanczos"
    residual: float
    iterations: int
    converged: bool


def build_dense(f: BooleanFunction, t: int) -> TruncatedFourierOperator:
    """Materialize the B x B matrix fhat(s XOR t) over weight-<= t strings."""
    b = binomial_sum(f.n, t)
    if b > DENSE_LIMIT:
        raise ValueError(f"B={b} exceeds the dense budget {DENSE_LIMIT}; use build_matrix_free")
    index = build_weight_index(f.n, t)
    coeffs = fourier(f).coeffs
    xor_table = index.strings[:, None] ^ index.strings[None, :]
    dense = coeffs[xor_table]
    dense.flags.writeable = False
    return TruncatedFourierOperator(f=f, t=t, index=index, dense_matrix=dense)


def build_matrix_free(f: BooleanFunction, t: int) -> TruncatedFourierOperator:
    index = build_weight_index(f.n, t)
    return TruncatedFourierOperator(f=f, t=t, index=index)


def build_operator(f: BooleanFunction, t: int) -> TruncatedFourierOperator:
    """Dense when B = binomial_sum(n, t) fits DENSE_LIMIT, matrix-free otherwise."""
    if binomial_sum(f.n, t) <= DENSE_LIMIT:
        return build_dense(f, t)
    return build_matrix_free(f, t)


def spectral_norm(
    op: TruncatedFourierOperator,
    tol: float = 1e-8,
    max_iter: int = 10000,
    seed: int = 0,
) -> NormEstimate:
    """Largest |eigenvalue| of the (symmetric) operator.

    An operator whose entries fhat(s XOR t) are all zero returns 0.0 at once
    in either mode, with the method name of that mode and 0 iterations.  The
    test is exact, because the Walsh transform of a +-1 table is.  Otherwise
    dense mode uses a full symmetric eigendecomposition, and matrix-free mode
    runs Lanczos on the operator itself in two passes that keep no Krylov
    basis, so memory stays O(B).  The first pass runs the three-term
    recurrence from a seeded start vector, keeps only the tridiagonal
    coefficients, and stops once the Ritz value theta of largest |theta| has
    residual estimate |beta_k s_k| <= tol / 2.  The second pass replays the
    recurrence to form the unit Ritz vector y and applies the operator once
    more: the reported residual is ||F_T y - theta y||, so some eigenvalue
    lies within it of theta, and converged means residual <= tol.  |theta|
    can only undershoot the norm.  `iterations` counts first-pass steps.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if _is_zero_operator(op):
        method = "lanczos" if op.dense_matrix is None else "dense_eigen"
        return NormEstimate(value=0.0, method=method, residual=0.0, iterations=0, converged=True)
    if op.dense_matrix is not None:
        eigs = np.linalg.eigvalsh(op.dense_matrix)
        value = float(np.max(np.abs(eigs)))
        return NormEstimate(value=value, method="dense_eigen", residual=0.0, iterations=0, converged=True)

    rng = np.random.Generator(np.random.PCG64(seed))
    start = rng.standard_normal(op.size)
    start /= math.sqrt(float(start @ start))
    alphas: list[float] = []
    betas: list[float] = []
    for k, (_, alpha, beta) in enumerate(_lanczos(op, start), 1):
        alphas.append(alpha)
        betas.append(beta)
        # beta bounds the estimate, so a (near-)invariant subspace always
        # stops here before the recurrence divides by beta.
        if k % _CHECK_EVERY == 0 or k == max_iter or beta <= _MARGIN * tol:
            theta, s = _extreme_ritz_pair(alphas, betas)
            if abs(beta * s[-1]) <= _MARGIN * tol or k == max_iter:
                break

    y = np.zeros(op.size)
    # s goes first so that zip stops before the replay computes step k + 1.
    for s_j, (q, _, _) in zip(s, _lanczos(op, start)):
        y += s_j * q
    y /= math.sqrt(float(y @ y))
    r = op.apply(y)
    r -= theta * y
    residual = math.sqrt(float(r @ r))
    return NormEstimate(value=abs(theta), method="lanczos", residual=residual,
                        iterations=k, converged=residual <= tol)


def _lanczos(op: TruncatedFourierOperator, start: np.ndarray):
    """Yield (q_j, alpha_j, beta_j) of the Lanczos recurrence, holding three vectors.

    Both passes of spectral_norm run this same code from the same start, so
    the replay reproduces the first pass's basis vectors.
    """
    q_prev = np.zeros_like(start)
    q = start
    beta = 0.0
    while True:
        w = op.apply(q)
        alpha = float(q @ w)
        w -= alpha * q
        w -= beta * q_prev
        beta = math.sqrt(float(w @ w))
        yield q, alpha, beta
        q_prev, q = q, w / beta


def _extreme_ritz_pair(alphas: list[float], betas: list[float]) -> tuple[float, np.ndarray]:
    """Eigenpair of largest |theta| of the k x k tridiagonal matrix T_k."""
    k = len(alphas)
    tri = np.diag(alphas)
    off = np.arange(k - 1)
    tri[off, off + 1] = tri[off + 1, off] = betas[:k - 1]
    vals, vecs = np.linalg.eigh(tri)
    i = int(np.argmax(np.abs(vals)))
    return float(vals[i]), vecs[:, i]


def _is_zero_operator(op: TruncatedFourierOperator) -> bool:
    """True when every entry fhat(s XOR t) is zero, i.e. fhat vanishes up to weight 2T.

    The Walsh transform of a +-1 table sums integers and divides by a power
    of two, so it is exact in float64 and so is this test.
    """
    coeffs = fourier(op.f).coeffs
    weights = np.bitwise_count(np.arange(coeffs.shape[0], dtype=np.int64))
    return not np.any(coeffs[weights <= 2 * op.t])
