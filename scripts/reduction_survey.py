#!/usr/bin/env python3
"""Survey the reduction of a curve at every place of Q(mu_m) above the primes
of `euler.plan`, those of its discriminant and a chosen p: Kodaira types,
Tamagawa numbers, counts, and Euler factors at s = 1.

Example: python scripts/reduction_survey.py --curve 1,0,0,-1,-1 --prime 7 --conductor 7
"""

import argparse
import sys

from eulerchar.cli import RequestError, _read_conductor, _read_curve, _read_prime
from eulerchar.curves import invariants
from eulerchar.cyclotomic import UnprintableFieldError
from eulerchar.euler import local_data_at, plan
from eulerchar.valuations import vp


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6")
    ap.add_argument("--prime", required=True)
    ap.add_argument("--conductor", default=1)
    args = ap.parse_args()

    # each flag is checked as the `eulerchar` subcommands check it, in order,
    # and the residue fields as `analyze` checks them
    try:
        model = _read_curve(args.curve)
        prime = _read_prime(args.prime)
        conductor = _read_conductor(args.conductor)
        places = plan(model, prime, conductor)
    except UnprintableFieldError as exc:
        print(f"error: /base_field: {exc}", file=sys.stderr)
        return 1
    except RequestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    inv = invariants(model)
    print(f"curve {args.curve}: disc = {inv.disc}, j = {inv.j}")
    print(f"{'ell':>5} {'(e,f,g)':>10} {'q_v':>8} {'type':>6} {'c_v':>4} "
          f"{'class':<18} {'N_v':>8}  L(E,1)      |L|_p exp")
    for sp in places:
        data = local_data_at(model, sp.ell, conductor)
        L = data.L_at_1
        exp = -vp(L, prime)
        print(
            f"{sp.ell:>5} {f'({sp.e},{sp.f},{sp.g})':>10} {data.q_v:>8} "
            f"{data.kodaira.symbol:>6} {data.c_v:>4} {data.reduction_class:<18} "
            f"{str(data.N_v):>8}  {str(L):<11} {exp:>3}   (x{sp.g} places)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
