"""Boolean functions f : {0,1}^n -> {+1, -1} and their Fourier spectra.

The sign table lists f(x) for x = 0 .. 2^n - 1 under the bit convention of
transforms.py.  Fourier coefficients follow fhat(s) = 2^(-n) sum_x (-1)^(s.x) f(x).
"""

from __future__ import annotations

import contextlib
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .transforms import check_bits, fwht_in_place

FAMILIES = ("constant_plus", "parity", "or_fn", "majority")


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """A sign table and, built on first use, its spectrum (see fourier)."""

    n: int
    signs: np.ndarray  # length 2^n, entries exactly +-1, read-only

    def __post_init__(self):
        arr = np.asarray(self.signs, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != (1 << self.n):
            raise ValueError(f"sign table must have length 2^{self.n}")
        if not np.all(np.abs(arr) == 1.0):
            raise ValueError("sign table entries must be exactly +1 or -1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "signs", arr)

    def negated(self) -> "BooleanFunction":
        return BooleanFunction(self.n, -self.signs)

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """fhat, read-only, computed on first use by fourier(); the sign table never changes."""
        buf = self.signs.copy()
        fwht_in_place(buf)
        buf /= float(1 << self.n)
        buf.flags.writeable = False
        return buf

    @functools.cached_property
    def lowest_weight(self) -> int:
        """Least |s| with fhat(s) != 0, or n + 1 when every coefficient is zero.

        Exact for the spectrum of a +-1 table, whose transform sums integers
        and divides by a power of two.  F_T is exactly zero iff 2T < this.
        """
        return int(np.bitwise_count(np.flatnonzero(fourier(self))).min(initial=self.n + 1))


def check_family(name: str, n: int) -> None:
    """Refuse a family that make_family cannot build at n, before any 2^n table."""
    check_bits(n)
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}, expected one of {FAMILIES}")
    if name == "majority" and n % 2 == 0:
        raise ValueError("majority needs odd n (no tie rule is defined)")


def make_family(name: str, n: int) -> BooleanFunction:
    """Named test families: constant_plus, parity, or_fn, majority (odd n only)."""
    check_family(name, n)
    x = np.arange(1 << n, dtype=np.int64)
    if name == "constant_plus":
        signs = np.ones(1 << n)
    elif name == "parity":
        signs = 1.0 - 2.0 * (np.bitwise_count(x) & 1)
    elif name == "or_fn":
        # +1 only on the all-zero input
        signs = np.where(x == 0, 1.0, -1.0)
    else:
        signs = np.sign(n - 2.0 * np.bitwise_count(x))
    return BooleanFunction(n, signs)


def sample_uniform(n: int, seed: int) -> BooleanFunction:
    """Uniformly random sign table, deterministic per seed (PCG64 stream)."""
    check_bits(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=1 << n)
    return BooleanFunction(n, signs)


def derive_seeds(seed: int, count: int) -> list[int]:
    """Independent child seeds for parallel trials.

    Splits the root seed with numpy's SeedSequence.spawn, so trial i gets the
    same child seed regardless of how many trials run or in what order.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def map_trials(fn, items, threads: int) -> list:
    """[fn(x) for x in items], spread over a pool of min(threads, len(items)) threads.

    Results keep the order of items.  With threads > 1 the pool runs inside
    one_blas_thread, whatever the number of items, so pool and BLAS threads
    do not oversubscribe the cores and every trial's BLAS digits are those
    of a serial run under OPENBLAS_NUM_THREADS=1, whatever the thread
    variables say; a trial's output thus does not change when more items
    join it.  threads == 1 never touches BLAS.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1 or not items:
        return [fn(x) for x in items]
    with one_blas_thread(), ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


class _BlasHolders:
    """How many hold one_blas_thread, and the count its last holder restores."""

    def __init__(self):
        self.lock = threading.Lock()  # guards the fields and every change of the count
        self.count = 0
        self.saved = 1


_HOLDERS = _BlasHolders()


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count.

    Holders share one count: the first saves the caller's count and sets 1,
    the last restores it, also when the body raises.  So pools and norms
    entered from several threads at once leave the count as they found it.
    The count stays 1 for the whole body, with no exception for any call
    in it, and the lock is held only while the count changes, never while
    BLAS runs.  The count is process-wide: a thread that holds no guard
    runs at 1 too.  A numpy built on another BLAS is left alone.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    with _HOLDERS.lock:
        if _HOLDERS.count == 0:
            _HOLDERS.saved = get_threads()
            set_threads(1)
        _HOLDERS.count += 1
    try:
        yield
    finally:
        with _HOLDERS.lock:
            _HOLDERS.count -= 1
            if _HOLDERS.count == 0:
                set_threads(_HOLDERS.saved)


def numpy_symbols(*candidates: tuple[str, ...]) -> list | None:
    """ctypes functions for the first group of names that all resolve, or None.

    dlsym on numpy's own extension module also searches the libraries it
    links, so this finds the BLAS and LAPACK builds numpy itself calls.
    """
    import ctypes  # only pools, matrix-free norms, Lanczos checks and proofs need it

    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for names in candidates:
        try:
            return [getattr(lib, name) for name in names]
        except AttributeError:
            continue
    return None


@functools.cache
def _openblas_threads():
    """[get, set] for the thread count of numpy's OpenBLAS, or None when it has none."""
    return numpy_symbols(*((f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                           for prefix, suffix in (("openblas", ""), ("openblas", "64_"),
                                                  ("scipy_openblas", "64_"), ("scipy_openblas", ""))))


def fourier(f: BooleanFunction) -> np.ndarray:
    """The read-only float64 array of fhat(s), s = 0 .. 2^n - 1.

    Transformed once per function: every call returns the same array.
    """
    return f._spectrum


def canonical_sign(f: BooleanFunction) -> BooleanFunction:
    """f itself if sum_x f(x) >= 0, otherwise its negation."""
    return f if float(f.signs.sum()) >= 0.0 else f.negated()


def write_truth_table(f: BooleanFunction, path: str | Path) -> None:
    """Two-line text format: "n=<int>" then 2^n characters from {+,-}."""
    row = np.where(f.signs > 0, ord("+"), ord("-")).astype(np.uint8).tobytes()
    Path(path).write_bytes(b"n=%d\n%s\n" % (f.n, row))


def read_truth_table(path: str | Path, *checks) -> BooleanFunction:
    """The format of write_truth_table.  check_bits(n), then each check(n), runs on
    the 'n=' line before the sign row is read, so a refused file costs no 2^n table."""
    with Path(path).open() as fh:
        head = fh.readline().removesuffix("\n")
        if not head.startswith("n="):
            raise ValueError(f"{path}: expected 'n=<int>' on line 1 and a sign row on line 2")
        try:
            n = int(head[2:])
        except ValueError:
            raise ValueError(f"{path}: malformed bit count {head!r}") from None
        check_bits(n)
        for check in checks:
            check(n)
        return BooleanFunction(n, _read_sign_row(fh, path, n))


def _read_sign_row(fh, path: str | Path, n: int) -> np.ndarray:
    """The +-1 table of the line after the 'n=' line, as float64."""
    line = fh.readline()
    if not line:
        raise ValueError(f"{path}: expected 'n=<int>' on line 1 and a sign row on line 2")
    row = line.strip()
    if len(row) != (1 << n):
        raise ValueError(f"{path}: sign row must hold exactly 2^{n} characters, got {len(row)}")
    data = row.encode()
    if data.translate(None, b"+-"):  # what is left after deleting every sign
        raise ValueError(f"{path}: sign row may only contain '+' and '-'")
    return np.where(np.frombuffer(data, dtype=np.uint8) == ord("+"), 1.0, -1.0)
