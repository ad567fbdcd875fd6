"""The library's memos: each has a size bound, each is keyed by what its
value depends on, and a call that raises stores nothing.  That no memo
changes a report is `test_golden.py`'s replay in three orders."""

import pytest

from eulerchar import curves
from eulerchar.curves import (
    CountCapError,
    SingularModelError,
    WeierstrassModel,
    count_invariants,
    count_residues,
    extension_count,
    invariants,
    rational_p_torsion_order,
    torsion_bound_over_F,
)
from eulerchar.euler import local_data_at

E294 = WeierstrassModel.from_rationals([1, 0, 0, -1, -1])


def test_every_library_cache_is_bounded(library_caches):
    """A long-lived process sees ever new curves, primes and conductors, so
    a cache keyed by request data must not grow without limit; no library
    cache is unbounded."""
    assert {"curves._count_prime_field", "curves.rational_p_torsion_order",
            "valuations.factorize", "cyclotomic._split",
            "finite_fields.fq_create"} <= set(library_caches)
    unbounded = [name for name, fn in library_caches.items() if fn.cache_info().maxsize is None]
    assert unbounded == []


def test_count_memo_is_keyed_by_residues_without_the_degree():
    n1 = count_residues([1, 0, 0, -1, -1], 11)
    assert count_residues([12, 11, 0, 10, 21], 11, 3) == extension_count(n1, 11, 3)
    assert curves._count_prime_field.cache_info()[:2] == (1, 1)


def test_isomorphic_models_share_one_count_at_a_good_place():
    """At a good ell >= 5 Tate's algorithm counts the short model of c4 and
    c6, not the residues of the model given: E and its translate by
    x -> x + 1, whose residues mod 11 differ, ask the count memo one
    question and get one N_v."""
    shifted = WeierstrassModel.from_rationals([1, 3, 1, 2, -1])
    inv, inv_shifted = invariants(E294), invariants(shifted)
    assert (inv.c4, inv.c6) == (inv_shifted.c4, inv_shifted.c6)
    assert [c % 11 for c in E294] != [c % 11 for c in shifted]
    assert local_data_at(E294, 11, 1).N_v == local_data_at(shifted, 11, 1).N_v
    assert curves._count_prime_field.cache_info()[:2] == (1, 1)


def test_the_sampler_and_tate_share_one_count():
    """The torsion sampler counts a model's residues and Tate's closed form
    the residues of c4 and c6; at a good ell >= 5 both ask the count memo
    the one question of the curve.  Delta(E) = -2 * 3 * 7^2 and p = 5, so
    ell = 11 is the first prime the bracket samples, and #E(F_11) has no
    5-part, so it is the last."""
    assert torsion_bound_over_F(E294, 5, 1).upper == 1
    assert curves._count_prime_field.cache_info()[:2] == (0, 1)
    local_data_at(E294, 11, 1)
    assert curves._count_prime_field.cache_info()[:2] == (1, 1)


def test_torsion_memo_is_keyed_by_the_integral_model():
    """[-1, 2, 2, 0, 0] with a_i / 2^i has a point of order 7; read from
    rationals it is the integral model a_i * 4^i, and it and that model
    given in integers, two model objects, ask the memo one question."""
    scaled = WeierstrassModel.from_rationals(["-1/2", "1/2", "1/4", 0, 0])
    integral = WeierstrassModel.from_rationals([-2, 8, 16, 0, 0])
    assert scaled == integral and scaled is not integral
    assert rational_p_torsion_order(scaled, 7) == rational_p_torsion_order(integral, 7) == 7
    assert curves.rational_p_torsion_order.cache_info()[:2] == (1, 1)


def test_a_call_that_raises_stores_nothing():
    with pytest.raises(CountCapError):
        local_data_at(E294, 10**18 + 3, 1)
    with pytest.raises(SingularModelError):
        count_residues([0, 0, 0, 0, 0], 5)
    # E has bad reduction at 3 and 7: counted by its residues or by its
    # invariants, singular there
    for ell in (3, 7):
        with pytest.raises(SingularModelError):
            count_residues(E294, ell)
    inv = invariants(E294)
    with pytest.raises(SingularModelError):
        count_invariants(inv.c4, inv.c6, 7)
    with pytest.raises(SingularModelError):
        rational_p_torsion_order(WeierstrassModel.from_rationals([0, 0, 0, 0, 0]), 7)
    for fn in (curves._count_prime_field, curves.rational_p_torsion_order):
        assert fn.cache_info().currsize == 0
    # a model's invariants are memoized in its instance dict once computed,
    # and a singular model raises again on every call
    singular = WeierstrassModel.from_rationals([0, 0, 0, 0, 0])
    for _ in range(2):
        with pytest.raises(SingularModelError):
            invariants(singular)
    assert "_invariants" not in singular.__dict__
