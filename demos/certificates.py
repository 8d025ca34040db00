"""Query lower-bound certificates for the built-in function families.

Walks the evidence ladder certify_lower_bound produces: each truncation
weight T is refuted while the operator norm stays below 1/2 - eps, and
the first weight that clears the threshold is the certified bound.
"""

from querybound.boolfn import make_family
from querybound.certify import certify_lower_bound

N = 9
EPS = 0.1


def main():
    for family in ("parity", "majority", "or_fn"):
        cert = certify_lower_bound(make_family(family, N), EPS)
        print(f"{family} (n = {N}, eps = {EPS}):")
        for t, ev in enumerate(cert.evidence):
            tag = "refuted" if t < cert.lower_bound_t else "stop"
            print(f"  T={t}: norm = {ev.value:.6f}  [{ev.method}, {tag}]")
        unit = "query" if cert.lower_bound_t == 1 else "queries"
        print(f"  => at least {cert.lower_bound_t} {unit} ({cert.status})")
        print(f"  dimension at stop: B = {cert.b_stop}, entropy ceiling "
              f"2^{cert.entropy_exponent:.2f} = {cert.entropy_bound:.1f}")
        print()


if __name__ == "__main__":
    main()
