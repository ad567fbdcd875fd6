"""The prime field F_ell, the one residue field the library builds.

`curves.reduce_model` is the only caller of `fq_create`, and
`curves.count_points` reads back each residue from `coords` and the field's
characteristic, degree and order.  Counts over F_{ell^f} follow from the
count over F_ell by the Frobenius recurrence, so no extension field and no
field arithmetic lives here; `tests/oracles.py` keeps both as a reference.
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


@lru_cache(maxsize=None)
def fq_create(ell: int) -> FqField:
    """F_ell, one object per prime ell.  Raises ValueError for composite ell."""
    if not is_prime(ell):
        raise ValueError(f"characteristic must be prime, got {ell}")
    return FqField(ell)
