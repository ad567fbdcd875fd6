"""The prime field F_ell, the one residue field the library builds.

`curves.reduce_model` is the only caller of `fq_create`, and
`curves.count_points` reads back each residue from `coords` and the field's
characteristic and degree (`bench/tracing.py` reads its order too).  The
library counts such a curve only in `tate.pot_supersingular`, through
`curves.model_with_j_invariant`: Tate's algorithm and the torsion bound hand
residues to `curves.count_residues`, or c4 and c6 mod ell to
`curves.count_invariants`, as integers and build no field.  Counts
over F_{ell^f} follow from the count over F_ell by the Frobenius recurrence,
so no extension field and no field arithmetic lives here; `tests/oracles.py`
keeps both as a reference.
"""

from __future__ import annotations

from functools import lru_cache

from .valuations import is_prime


class FqElement:
    """A residue in {0, ..., ell-1}, stored as the one entry of `coords`."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "FqField", coords: tuple[int]):
        self.field = field
        self.coords = coords


class FqField:
    """The prime field F_ell: degree 1, order ell."""

    degree = 1

    def __init__(self, ell: int):
        self.characteristic = self.order = ell

    def from_int(self, n: int) -> FqElement:
        return FqElement(self, (n % self.characteristic,))


# fields kept: `pot_supersingular` builds one per prime p it is asked about
FQ_MEMO_SIZE = 64


@lru_cache(maxsize=FQ_MEMO_SIZE)
def fq_create(ell: int) -> FqField:
    """F_ell, one object per prime ell.  Raises ValueError for composite ell."""
    if not is_prime(ell):
        raise ValueError(f"characteristic must be prime, got {ell}")
    return FqField(ell)
