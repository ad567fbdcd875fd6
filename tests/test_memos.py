"""The library's memos: each has a size bound, each is keyed by what its
value depends on, and a call that raises stores nothing.  That no memo
changes a report is `test_golden.py`'s replay in three orders."""

import pytest

from eulerchar import curves
from eulerchar.curves import (
    CountCapError,
    SingularModelError,
    WeierstrassModel,
    count_residues,
    extension_count,
    invariants,
    rational_p_torsion_order,
)
from eulerchar.euler import local_data_at

E294 = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])


def test_every_library_cache_is_bounded(library_caches):
    """A long-lived process sees ever new curves, primes and conductors, so
    a cache keyed by request data must not grow without limit.  The parser
    is keyed by a subcommand name from a fixed table."""
    assert {"curves._count_prime_field", "curves._rational_torsion",
            "valuations.factorize", "cyclotomic.splitting",
            "finite_fields.fq_create"} <= set(library_caches)
    unbounded = [name for name, fn in library_caches.items() if fn.cache_info().maxsize is None]
    assert unbounded == ["cli.build_parser"]


def test_count_memo_is_keyed_by_residues_without_the_degree():
    n1 = count_residues([1, 0, 0, -1, -1], 11)
    assert count_residues([12, 11, 0, 10, 21], 11, 3) == extension_count(n1, 11, 3)
    assert curves._count_prime_field.cache_info()[:2] == (1, 1)


def test_torsion_memo_is_keyed_by_the_integral_model():
    """[-1, 2, 2, 0, 0] with a_i / 2^i has a point of order 7; read from
    rationals it is the integral model a_i * 4^i, and it and that model
    given in integers, two model objects, ask the memo one question."""
    scaled = WeierstrassModel.from_rationals(["-1/2", "1/2", "1/4", 0, 0])
    integral = WeierstrassModel.from_rationals([-2, 8, 16, 0, 0])
    assert scaled == integral and scaled is not integral
    assert rational_p_torsion_order(scaled, 7) == rational_p_torsion_order(integral, 7) == 7
    assert curves._rational_torsion.cache_info()[:2] == (1, 1)


def test_a_call_that_raises_stores_nothing():
    with pytest.raises(CountCapError):
        local_data_at(E294, 10**18 + 3, 1)
    with pytest.raises(SingularModelError):
        count_residues([0, 0, 0, 0, 0], 5)
    with pytest.raises(SingularModelError):
        rational_p_torsion_order(WeierstrassModel.from_rationals([0, 0, 0, 0, 0]), 7)
    for fn in (curves._count_prime_field, curves._rational_torsion):
        assert fn.cache_info().currsize == 0
    # a model's invariants are memoized in its instance dict once computed,
    # and a singular model raises again on every call
    singular = WeierstrassModel.from_rationals([0, 0, 0, 0, 0])
    for _ in range(2):
        with pytest.raises(SingularModelError):
            invariants(singular)
    assert "_invariants" not in singular.__dict__
