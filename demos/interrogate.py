"""Recover a hidden n-bit string with fewer than n phase queries.

Sweeps the query budget T, prints the exact recovery probability next to
the closed form B(n,T)/2^n, then samples measurement shots at the budget
that choose_t picks for the requested error target.
"""

import argparse

import numpy as np

from querybound.interrogation import (
    asymptotic_reference_t,
    choose_t,
    simulate_exact,
    simulate_sampled,
)
from querybound.transforms import binomial_sum, format_bitstring


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--shots", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    x = int(rng.integers(0, 1 << args.n))
    print(f"hidden input x = {format_bitstring(x, args.n)}  (n = {args.n})")
    print(f"{'T':>3} {'exact P[recover x]':>20} {'B/2^n':>12}")
    for t in range(args.n + 1):
        closed = binomial_sum(args.n, t) / (1 << args.n)
        print(f"{t:>3} {simulate_exact(args.n, t, x):>20.6f} {closed:>12.6f}")

    t_star = choose_t(args.n, args.eps)
    ref = asymptotic_reference_t(args.n, args.eps)
    print(f"\ntarget error {args.eps}: choose_t gives T = {t_star} "
          f"(n/2 + sqrt(n ln(1/eps)) reference: {ref})")
    counts = simulate_sampled(args.n, t_star, x, shots=args.shots, seed=args.seed)
    print(f"sampled {args.shots} shots: recovered x in "
          f"{counts.get(x, 0) / args.shots:.1%} of them")


if __name__ == "__main__":
    main()
