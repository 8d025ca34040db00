"""Spectral norm of the weight-truncated operator for random functions.

For a typical sign table the norm of F_T at T = 0.4 n tracks a constant
times sqrt(n B / 2^n), which is what drives the query lower bound for
almost all functions.  Structured families sit far from typical: parity
stays at exactly 0 until weight n/2.
"""

from querybound.certify import run_claim1_sweep

NS = (8, 10, 12, 14)
TRIALS = 10
SEED = 7


def main():
    print(f"{'n':>3} {'T':>3} {'B':>6} {'median norm':>12} "
          f"{'sqrt(nB/2^n)':>13} {'ratio':>7} {'parity norm':>12}")
    rows = run_claim1_sweep(list(NS), 0.4, TRIALS, SEED, include_family="parity")
    for rand, parity in zip(rows[::2], rows[1::2]):
        print(f"{rand['n']:>3} {rand['t']:>3} {rand['b']:>6} {rand['median_norm']:>12.4f} "
              f"{rand['ref_scale']:>13.4f} {rand['ratio']:>7.3f} {parity['median_norm']:>12.4f}")
    print(f"\n({TRIALS} random sign tables per row, root seed {SEED}; "
          f"the ratio column is what stays flat)")


if __name__ == "__main__":
    main()
