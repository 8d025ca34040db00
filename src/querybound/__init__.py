"""Quantum query lower bounds for Boolean functions, computed numerically.

The package simulates the oracle-interrogation algorithm that recovers an
n-bit oracle string from roughly n/2 quantum queries, and turns the matching
lower-bound machinery (spectral norms of truncated Fourier operators, their
trace moments over random functions) into per-function certificates and
desk-scale experiments.
"""

from .boolfn import (
    BooleanFunction,
    canonical_sign,
    derive_seeds,
    fourier,
    make_family,
    read_truth_table,
    sample_uniform,
    write_truth_table,
)
from .certify import CertifiedBound, certify_lower_bound, certify_random_sweep, run_claim1_sweep
from .fourier_operator import (
    DENSE_LIMIT,
    NormEstimate,
    TruncatedFourierOperator,
    build_dense,
    build_matrix_free,
    build_operator,
    prove_norm_below,
    spectral_norm,
)
from .interrogation import (
    asymptotic_reference_t,
    choose_t,
    simulate_exact,
    simulate_sampled,
)
from .moments import (
    Claim2Result,
    MomentReport,
    PartitionSpec,
    claim2_bruteforce,
    evenness_check,
    expected_sign_product,
    expected_trace_moment_exhaustive,
    expected_trace_moment_mc,
    trace_moment,
)
from .transforms import (
    binary_entropy,
    binomial_sum,
    build_weight_index,
    fwht_in_place,
    parse_bitstring,
)

__version__ = "0.1.0"
