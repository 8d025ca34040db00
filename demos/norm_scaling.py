"""Spectral norm of the weight-truncated operator for random functions.

For a typical sign table the norm of F_T sits at the edge 2 sqrt(q (1 - q))
of the spectrum of a compressed reflection, q = B / 2^n (Wachter, Ann.
Statist. 1980; Collins, PTRF 2005): F = H diag(f) H is a reflection and F_T
is its compression to the B strings of weight <= T.  The paper bounds the
norm at the scale sqrt(n B / 2^n), whose sqrt(n) is slack from the moment
method: edge / sqrt(n B / 2^n) = 2 sqrt(1 - q) / sqrt(n), so the ratio
column falls with n while median / edge stays near 1.  Structured families
sit far from typical: parity stays at exactly 0 until weight n/2.
"""

import math

from querybound.certify import run_claim1_sweep

NS = (8, 10, 12, 14)
TRIALS = 10
SEED = 7


def main():
    print(f"{'n':>3} {'T':>3} {'B':>6} {'median norm':>12} "
          f"{'sqrt(nB/2^n)':>13} {'ratio':>7} {'edge':>7} {'median/edge':>12} {'parity norm':>12}")
    rows = run_claim1_sweep(list(NS), 0.4, TRIALS, SEED, include_family="parity")
    for rand, parity in zip(rows[::2], rows[1::2]):
        q = rand["b"] / (1 << rand["n"])
        edge = 2.0 * math.sqrt(q * (1.0 - q))
        print(f"{rand['n']:>3} {rand['t']:>3} {rand['b']:>6} {rand['median_norm']:>12.4f} "
              f"{rand['ref_scale']:>13.4f} {rand['ratio']:>7.3f} {edge:>7.4f} "
              f"{rand['median_norm'] / edge:>12.3f} {parity['median_norm']:>12.4f}")
    print(f"\n({TRIALS} random sign tables per row, root seed {SEED}, q = B/2^n; "
          f"median/edge stays near 1, while ratio falls like 2 sqrt(1-q)/sqrt(n))")


if __name__ == "__main__":
    main()
