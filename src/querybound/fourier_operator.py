"""The truncated Fourier operator and its spectral norm.

For a sign table f, conjugating the diagonal matrix F = diag(f) by the
Hadamard transform gives a symmetric orthogonal matrix with entries
fhat(s XOR t).  Restricting rows and columns to strings of weight <= T
yields the B x B principal submatrix handled here, either materialized
densely or applied matrix-free through two Walsh-Hadamard transforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import BooleanFunction, fourier, numpy_symbols, one_blas_thread
from .transforms import binomial_sum, build_weight_index, fwht_in_place

# Hard memory cap: B x B doubles at 4096 is 128 MiB, so larger truncations
# are never materialized, neither for eigvalsh nor for a Cholesky proof.
DENSE_LIMIT = 4096

# build_operator's crossover: dense iff B <= DENSE_LIMIT and either B^3 <=
# _CROSSOVER 2^n (eigvalsh's B^3 against the 2^n of one Lanczos step) or
# B = 2^(n-1).  That half point (odd n, T = (n-1)/2) is dense because Lanczos
# crawls there: for a balanced f it took 200-1690 steps, and n = 11, T = 5 took
# 5-7.5 s against 0.13 s dense.  Past it exact_norm answers.  Below it, up to
# n = 26, dense means n <= 11, or T <= 3, or the half point.  Build plus eigvalsh
# vs Lanczos in ms, sample_uniform(n, 42), median of 5 in each of 2 runs,
# 2-vCPU VM, eigvalsh at the default BLAS threads, Lanczos on one:
#   (12, 3) B =  299: 4.3-5.7 vs   5.1-8.1 dense | (12, 4) B =  794:   34-45 vs 19-20 matrix-free
#   (16, 3) B =  697:   27-30 vs    68-101 dense | (16, 4) B = 2517: 826-875 vs 87-93 matrix-free
#   (20, 3) B = 1351: 142-152 vs 2128-2362 dense | (11, 4) B =  562:   14-15 vs 7.9-8.5 dense
# (11, 4) stays dense though Lanczos wins there: over sample_uniform(11, 0..7)
# Lanczos took 8.1-14.2 ms, dense 14.4-15.6.  Moving it needs n in the rule.
_CROSSOVER = 10**5

# Lanczos stops once the residual estimate of its Ritz pair is below
# _MARGIN * tol: the explicit residual matches the estimate to a relative
# 1e-8 or so, and the margin keeps converged runs inside tol.
_MARGIN = 0.5
# Steps between the first pass's checks on its small tridiagonal matrix.  A
# run stops at most this many steps, one apply each, past the first step that
# meets tol (a replay repeats them).  Each check is O(k) (LAPACK dstevx for
# the two extreme eigenpairs), and only a check that looks converged runs the
# O(k^3) dense eigh that decides.  10 was measured fastest of 5, 10 and 15 on
# n = 12..15 while every check still ran eigh, and it is not re-measured: the
# step a run stops at fixes its theta, so another interval changes printed
# norms in their last digits.
_CHECK_EVERY = 10


@dataclass(frozen=True, eq=False)
class TruncatedFourierOperator:
    f: BooleanFunction
    t: int
    strings: np.ndarray  # build_weight_index(f.n, t)
    mode: str  # "dense" | "matrix_free", fixed by the builder

    @property
    def dense_matrix(self) -> np.ndarray | None:
        """The B x B matrix fhat(s XOR t), gathered afresh on every read; None in matrix-free mode."""
        if self.mode != "dense":
            return None
        dense = np.empty((self.size, self.size))
        _gather_xor(fourier(self.f), self.strings, dense)
        return dense

    @property
    def size(self) -> int:
        return self.strings.size

    def apply(self, v: np.ndarray, work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """F_T v, in either mode.  It may reuse work, two float64 buffers of 2^n (see workspace)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.size,):
            raise ValueError(f"vector must have length {self.size}, got shape {v.shape}")
        # Scatter to the full cube, conjugate by the transform, gather back.
        # Scratch of the caller's own, or fresh per call, keeps concurrent
        # applies on one operator safe.  The 1/2^n scale is a power of two,
        # so it is exact on the B gathered entries as on all 2^n.
        buf, scratch = self.workspace() if work is None else work
        buf.fill(0.0)
        buf[self.strings] = v
        fwht_in_place(buf, scratch)
        buf *= self.f.signs
        fwht_in_place(buf, scratch)
        out = buf[self.strings]
        out /= float(1 << self.f.n)
        return out

    def workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """Two fresh 2^n buffers for apply's work: one caller's applies may share them."""
        return np.empty(1 << self.f.n), np.empty(1 << self.f.n)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "dense_eigen" | "lanczos", the operator's mode even when exact_norm decides
    residual: float  # Lanczos: ||F_T y - theta y||, or |beta_k s_k| with replay=False; else 0
    iterations: int
    converged: bool


def build_dense(f: BooleanFunction, t: int) -> TruncatedFourierOperator:
    """A dense operator: its B x B matrix fhat(s XOR t) over weight-<= t strings is gathered on each read."""
    check_dense_budget(f.n, t)
    return TruncatedFourierOperator(f=f, t=t, strings=build_weight_index(f.n, t), mode="dense")


def check_dense_budget(n: int, t: int) -> None:
    """Refuse a truncation whose B x B matrix would pass DENSE_LIMIT, before any table is built."""
    b = binomial_sum(n, t)
    if b > DENSE_LIMIT:
        raise ValueError(f"B={b} exceeds the dense budget {DENSE_LIMIT}")


def _gather_xor(coeffs: np.ndarray, strings: np.ndarray, out: np.ndarray) -> None:
    """out[..., i, j] = coeffs[..., strings[i] ^ strings[j]], a block of rows at a time.

    A leading axis of coeffs gathers a stack of matrices.  A block of 256 rows
    keeps the int64 XOR indices at 8 MiB for B = 4096, where a whole table
    would take as much as one matrix of out itself.
    """
    for lo in range(0, strings.shape[0], 256):
        rows = strings[lo:lo + 256, None] ^ strings[None, :]
        np.take(coeffs, rows, axis=-1, out=out[..., lo:lo + 256, :], mode="clip")


def build_matrix_free(f: BooleanFunction, t: int) -> TruncatedFourierOperator:
    return TruncatedFourierOperator(f=f, t=t, strings=build_weight_index(f.n, t), mode="matrix_free")


def build_operator(f: BooleanFunction, t: int) -> TruncatedFourierOperator:
    """Dense or matrix-free by one crossover in (n, B); see _CROSSOVER.

    Dense when B = binomial_sum(n, t) fits DENSE_LIMIT and B^3 <= 10^5 2^n,
    or B = 2^(n-1).  Every T is dense for n <= 8; from n = 12 on, T <= 3 is
    dense (n = 16: B = 697) and T = 4 is not (B = 2517).  The mode depends on
    (n, B) alone, never on the caller or the machine.  A dense matrix is
    gathered only when read, so a truncation whose exact_norm is known never
    gathers it.
    """
    if _dense_is_cheaper(f.n, binomial_sum(f.n, t)):
        return build_dense(f, t)
    return build_matrix_free(f, t)


def _dense_is_cheaper(n: int, b: int) -> bool:
    return b <= DENSE_LIMIT and (2 * b == 1 << n or b**3 <= _CROSSOVER << n)


def exact_norm(op: TruncatedFourierOperator) -> float | None:
    """||F_T|| when a fact of the spectrum fixes it exactly, else None.

    0.0 when 2T lies below f.lowest_weight: every entry fhat(s XOR t) is
    then zero, exactly, because the Walsh transform of a +-1 table is.  1.0
    when B > min(N+, N-), where N+- = 2^(n-1) (1 +- fhat(0)) count the x
    with f(x) = +-1: F = H diag(f) H is a reflection with eigenvalue +1 on
    a space of dimension N+ and -1 on one of dimension N-, so the
    B-dimensional range of the truncation meets the +1 space when B > N-
    (and the -1 space when B > N+), and F_T, a compression of F, has norm
    at most 1.  fhat(0) = sum(f) / 2^n is exact, and so is N+.
    """
    if 2 * op.t < op.f.lowest_weight:
        return 0.0
    n_plus = int(fourier(op.f)[0] * (1 << op.f.n) + (1 << op.f.n)) // 2
    if op.size > min(n_plus, (1 << op.f.n) - n_plus):
        return 1.0
    return None


def spectral_norm(
    op: TruncatedFourierOperator,
    tol: float = 1e-8,
    max_iter: int = 10000,
    seed: int = 0,
    *,
    replay: bool = True,
) -> NormEstimate:
    """Largest |eigenvalue| of the (symmetric) operator.

    When exact_norm knows the norm (0.0 or 1.0), it is returned at once in
    either mode, with the method name of that mode, 0 iterations and
    residual 0.  Otherwise dense mode uses a full symmetric
    eigendecomposition, and matrix-free mode runs Lanczos on the operator
    itself in two passes that keep no Krylov basis, so memory stays O(B).
    The first pass runs the three-term recurrence from a seeded start
    vector, keeps only the tridiagonal coefficients, and stops once the Ritz
    value theta of largest |theta| has residual estimate |beta_k s_k| <=
    tol / 2.  Every 10th step it checks the two extreme Ritz pairs of the
    tridiagonal T_k in O(k) by LAPACK dstevx; only when they meet tol / 2
    (or at max_iter) does a dense eigh of T_k decide, and theta and s come
    from that eigh alone.  The second pass replays the recurrence to form
    the unit Ritz vector y and applies the operator once more: the reported
    residual is ||F_T y - theta y||, so some eigenvalue lies within it of
    theta, and converged means residual <= tol.  |theta| can only undershoot
    the norm.  `iterations` counts first-pass steps.

    replay=False stops after the first pass: residual is then the estimate
    |beta_k s_k| and converged means it is <= tol; value and iterations do
    not change.  A refutation gains nothing from the replay: |theta| bounds
    the norm only from below, and the explicit residual only places some
    eigenvalue near theta (prove_norm_below bounds the norm from above).  So
    certify_lower_bound and run_claim1_sweep pass replay=False; the norm
    command keeps the default.  Dense mode and exact_norm ignore replay.

    A matrix-free norm runs all its BLAS and LAPACK calls, exact_norm's
    transform and every apply's two transforms included, inside
    one_blas_thread, whatever the cube size, so its digits do not depend on
    the BLAS thread count at any B.  A serial norm thus uses one core; a
    pool of trials (map_trials) is the way to spread norms over more.  Dense
    mode keeps the caller's count: eigvalsh runs 1.8x faster on two threads
    at B = 4096, and its last digits may change with the count.
    """
    check_solver_limits(tol, max_iter)
    if op.mode == "dense":
        value = exact_norm(op)
        if value is None:
            value = float(np.max(np.abs(np.linalg.eigvalsh(op.dense_matrix))))
        return NormEstimate(value=value, method="dense_eigen", residual=0.0, iterations=0, converged=True)
    with one_blas_thread():
        return _lanczos_norm(op, tol, max_iter, seed, replay)


def check_solver_limits(tol: float, max_iter: int) -> None:
    """Refuse a tol or max_iter that spectral_norm cannot run with, before any table is built."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def _lanczos_norm(op: TruncatedFourierOperator, tol: float, max_iter: int, seed: int,
                  replay: bool) -> NormEstimate:
    """spectral_norm of a matrix-free operator, by exact_norm or the Lanczos passes."""
    exact = exact_norm(op)
    if exact is not None:
        return NormEstimate(value=exact, method="lanczos", residual=0.0, iterations=0, converged=True)
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
            if k < max_iter and not _may_have_converged(alphas, betas, _MARGIN * tol):
                continue
            theta, s = _extreme_ritz_pair(alphas, betas)
            estimate = float(abs(beta * s[-1]))
            if estimate <= _MARGIN * tol or k == max_iter:
                break

    if not replay:
        return NormEstimate(value=abs(theta), method="lanczos", residual=estimate,
                            iterations=k, converged=estimate <= tol)
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
    the replay reproduces the first pass's basis vectors.  A pass reuses one
    apply workspace for all its steps.
    """
    work = op.workspace()
    q_prev = np.zeros_like(start)
    q = start
    beta = 0.0
    while True:
        w = op.apply(q, work)
        alpha = float(q @ w)
        w -= alpha * q
        w -= beta * q_prev
        beta = math.sqrt(float(w @ w))
        yield q, alpha, beta
        q_prev, q = q, w / beta


def _may_have_converged(alphas: list[float], betas: list[float], bound: float) -> bool:
    """False only when LAPACK dstevx shows the Ritz pair of largest |theta| missing bound.

    That is its residual estimate |beta_k s_k| > bound, computed from the
    lowest and the highest eigenpair of T_k, O(k) each.  Without dstevx, or
    when it fails, the answer is True and the caller's dense eigh decides.
    """
    stevx = _lapack_stevx()
    if stevx is None:
        return True
    k = len(alphas)
    low, high = stevx(alphas, betas, 1), stevx(alphas, betas, k)
    if low is None or high is None:
        return True
    _, last = high if abs(high[0]) > abs(low[0]) else low
    return abs(betas[-1] * last) <= bound


def _extreme_ritz_pair(alphas: list[float], betas: list[float]) -> tuple[float, np.ndarray]:
    """Eigenpair of largest |theta| of the k x k tridiagonal matrix T_k, by dense eigh."""
    k = len(alphas)
    tri = np.diag(alphas)
    np.fill_diagonal(tri[1:], betas[:k - 1])
    np.fill_diagonal(tri[:, 1:], betas[:k - 1])
    vals, vecs = np.linalg.eigh(tri)
    i = int(np.argmax(np.abs(vals)))
    return float(vals[i]), vecs[:, i]


def prove_norm_below(op: TruncatedFourierOperator, tau: float) -> bool:
    """True only if ||F_T|| < tau holds in exact arithmetic; False means no proof.

    Two proofs are tried.  An operator whose exact_norm is 0 has norm 0;
    one whose exact_norm is 1 returns False at once for tau <= 1, and for
    tau > 1 goes on to the factorization.  Otherwise, for B <= DENSE_LIMIT, a
    floating-point Cholesky factorization of (tau I - F_T) - cI and one of
    (tau I + F_T) - cI that both run to completion prove tau I -+ F_T > 0, so
    every eigenvalue of F_T lies strictly inside (-tau, tau).  This is Rump,
    "Verification of positive definiteness", BIT 46 (2006) 433-452: when the
    factorization of a symmetric A completes with positive pivots, the
    computed factor R satisfies R^T R = A + E with
    |E| <= gamma |R^T| |R|, gamma = (B+1)u / (1 - (B+1)u) and u = 2^-53, for
    any order of the inner products, so for blocked LAPACK as well.  Then
    ||E|| <= gamma ||R||_F^2 <= gamma / (1 - gamma) trace(A), and the shift
    c = gamma / (1 - gamma) B (tau -+ fhat(0)) + 2^-1000 covers it a priori;
    the 2^-1000 is a margin for underflow, whose absolute errors of at most
    2^-1074 per operation sum to far less for B <= DENSE_LIMIT.
    The off-diagonal entries -+fhat(s XOR t) are exact in float64, and the
    diagonal, the same for every row, is rounded down, so the factored matrix
    is at most the exact (tau I -+ F_T) - cI.  tau itself is taken as exact.
    Either mode gathers -+F_T into one B x B buffer for each factorization,
    which numpy's LAPACK factors in place.
    """
    if tau <= 0.0:
        return False
    exact = exact_norm(op)
    if exact == 0.0:
        return True
    if exact == 1.0 and tau <= 1.0:
        return False
    b = op.size
    if b > DENSE_LIMIT:
        return False
    coeffs = fourier(op.f)
    gamma = Fraction(b + 1, (1 << 53) - (b + 1))
    buf = np.empty((b, b))
    for sign in (1, -1):
        exact_diag = Fraction(tau) - sign * Fraction(coeffs[0])
        if exact_diag <= 0:
            return False
        target = exact_diag * (1 - gamma / (1 - gamma) * b) - Fraction(1, 1 << 1000)
        diag = float(target)
        if Fraction(diag) > target:
            diag = math.nextafter(diag, -math.inf)
        _gather_xor(coeffs, op.strings, buf)
        if sign > 0:
            np.negative(buf, out=buf)
        np.fill_diagonal(buf, diag)
        if not _cholesky_completes(buf):
            return False
    return True


def _cholesky_completes(a: np.ndarray) -> bool:
    """Cholesky-factor the symmetric a, in place when numpy's LAPACK is reachable.

    True when the factorization ran to completion with positive pivots.
    """
    potrf = _lapack_potrf()
    if potrf is None:
        try:
            a = np.linalg.cholesky(a)  # allocates two more B x B arrays
        except np.linalg.LinAlgError:
            return False
    elif not potrf(a):
        return False
    return bool(np.all(a.diagonal() > 0.0))


@functools.cache
def _lapack_stevx():
    """One eigenpair of a symmetric tridiagonal matrix by dstevx, or None when numpy's LAPACK has none.

    The returned stevx(alphas, betas, i) takes the diagonal alphas, the
    off-diagonal betas[:k - 1] and a 1-based index i in ascending order, and
    gives (theta_i, last component of its unit eigenvector), or None when
    dstevx reports failure.  RANGE = 'I' with IL = IU = i finds the value by
    bisection and the vector by inverse iteration, O(k) each.
    """
    import ctypes  # only a Lanczos check needs it

    found = numpy_symbols(("scipy_dstevx_64_",), ("dstevx_64_",), ("scipy_dstevx_",), ("dstevx_",))
    if found is None:
        return None
    fn = found[0]
    wide = fn.__name__.endswith("64_")
    int_type, int_dtype = (ctypes.c_int64, np.int64) if wide else (ctypes.c_int, np.intc)
    # Every pointer as c_void_p, then the hidden lengths of the two character arguments.
    fn.argtypes = [ctypes.c_char_p, ctypes.c_char_p] + [ctypes.c_void_p] * 16 + [ctypes.c_size_t] * 2
    fn.restype = None

    def stevx(alphas: list[float], betas: list[float], i: int) -> tuple[float, float] | None:
        k = len(alphas)
        d = np.array(alphas, dtype=np.float64)  # dstevx may rescale d and e in place
        e = np.zeros(max(1, k - 1))
        e[:k - 1] = betas[:k - 1]
        w, z = np.empty(k), np.empty(k)
        work, iwork, ifail = np.empty(5 * k), np.empty(5 * k, dtype=int_dtype), np.empty(k, dtype=int_dtype)
        size, index, found_count, info = int_type(k), int_type(i), int_type(0), int_type(0)
        bound, abstol = ctypes.c_double(0.0), ctypes.c_double(0.0)
        ref = ctypes.byref
        fn(b"V", b"I", ref(size), d.ctypes.data, e.ctypes.data, ref(bound), ref(bound), ref(index),
           ref(index), ref(abstol), ref(found_count), w.ctypes.data, z.ctypes.data, ref(size),
           work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data, ref(info), 1, 1)
        if info.value != 0 or found_count.value != 1:
            return None
        return float(w[0]), float(z[-1])

    return stevx


@functools.cache
def _lapack_potrf():
    """In-place dpotrf on a C-ordered float64 matrix, or None when numpy's LAPACK has none.

    ILP64 builds carry the 64_ suffix.  ctypes drops the GIL for the call,
    so pooled trials factor in parallel.
    """
    import ctypes  # only a proof needs it

    found = numpy_symbols(("scipy_dpotrf_64_",), ("dpotrf_64_",), ("scipy_dpotrf_",), ("dpotrf_",))
    if found is None:
        return None
    fn = found[0]
    int_type = ctypes.c_int64 if fn.__name__.endswith("64_") else ctypes.c_int
    int_ptr = ctypes.POINTER(int_type)
    fn.argtypes = [ctypes.c_char_p, int_ptr, ctypes.c_void_p, int_ptr, int_ptr]
    fn.restype = None

    def potrf(a: np.ndarray) -> bool:
        if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.flags.c_contiguous:
            raise ValueError("dpotrf needs a square C-contiguous float64 matrix")
        # "L" of the column-major matrix is the upper triangle of this C array;
        # a is symmetric, so either triangle is the whole input.
        size, info = int_type(a.shape[0]), int_type(0)
        fn(b"L", ctypes.byref(size), a.ctypes.data, ctypes.byref(size), ctypes.byref(info))
        return info.value == 0

    return potrf
