#!/usr/bin/env python3
"""Survey the reduction of a curve at every place of Q(mu_m) above the primes
of `euler.plan`, those of its discriminant and a chosen p: Kodaira types,
Tamagawa numbers, counts, and Euler factors at s = 1, with the exponent of
each factor's p-adic absolute value.  It prints one `places` row per prime,
for its g conjugate places, in the text layout of the `eulerchar` commands.

Example: python scripts/reduction_survey.py --curve 1,0,0,-1,-1 --prime 7 --conductor 7
"""

import argparse
import sys

from eulerchar.cli import (
    RequestError,
    _read_conductor,
    _read_curve,
    _read_prime,
    _reduction_fields,
    _to_text,
)
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
    rows = []
    for sp in places:
        data = local_data_at(model, sp.ell, conductor)
        rows.append({"ell": sp.ell, "e": sp.e, "f": sp.f, "g": sp.g, **_reduction_fields(data),
                     "L_at_1": str(data.L_at_1), "abs_L_p_exponent": -vp(data.L_at_1, prime)})
    print(_to_text({"curve": args.curve, "disc": str(inv.disc), "j": str(inv.j), "p": prime,
                    "conductor": conductor, "places": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
