"""Exact moment identities on small instances.

At n <= 4 the average of Tr(F_T^2) over every sign table can be computed
exactly, and it lands on B^2/2^n on the nose.  The same enumeration,
reorganized as a sum over index tuples split by a partition, gives the
combinatorial counts behind the higher-moment bound; the r = 1 partition
collapses to B^m 2^n exactly.
"""

from fractions import Fraction

from querybound.moments import (
    PartitionSpec,
    claim2_bruteforce,
    evenness_check,
    expected_trace_moment_exhaustive,
)
from querybound.transforms import binomial_sum


def main():
    n = 3
    print(f"average Tr(F_T^2) over all {2 ** (1 << n)} sign tables, n = {n}:")
    for t in range(n + 1):
        rep = expected_trace_moment_exhaustive(n, t, 1)
        b = binomial_sum(n, t)
        print(f"  T={t}: {Fraction(rep.value)} "
              f"(B^2/2^n = {Fraction(b * b, 1 << n)})")

    print("\npartition sums (total vs ceiling B^(m-r+1) 2^(nr)):")
    for parts, label in ((PartitionSpec.single(4), "one block {1,2,3,4}"),
                         (PartitionSpec(4, ((1, 2), (3, 4))), "blocks {1,2}|{3,4}")):
        res = claim2_bruteforce(3, 1, parts)
        print(f"  m=4, T=1, {label}: {res.total} <= {res.bound}")

    entries = evenness_check(3, 4, trials=8, seed=1)
    verdict = "all matched" if all(e.ok for e in entries) else "MISMATCH"
    print(f"\nevenness spot check, m=4 tuples over 3-bit points: {verdict}")
    for e in entries[:4]:
        kind = "even multiplicities" if e.even else "some odd multiplicity"
        print(f"  {e.xs}: E[product] = {e.mean:g}  ({kind})")


if __name__ == "__main__":
    main()
