import itertools

import pytest

from eulerchar.finite_fields import fq_create
from eulerchar.valuations import is_prime
from oracles import finite_field


def _irreducible_by_enumeration(ell, f):
    """Oracle: first monic irreducible of degree f by increasing integer
    encoding, testing irreducibility by exhaustive root/factor search."""

    def poly_mod(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % ell
        return acc

    def divides(den, num):
        num = list(num)
        dd = len(den) - 1
        for k in range(len(num) - 1 - dd, -1, -1):
            c = num[k + dd] % ell
            if c:
                for j in range(dd + 1):
                    num[k + j] = (num[k + j] - c * den[j]) % ell
        return all(c % ell == 0 for c in num)

    for code in range(ell**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % ell)
            c //= ell
        cand = coeffs + [1]
        reducible = False
        for d in range(1, f // 2 + 1):
            for tail in itertools.product(range(ell), repeat=d):
                if divides(list(tail) + [1], cand):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(cand)
    raise AssertionError


def test_modulus_anchors():
    assert finite_field(7, 1).modulus == (0, 1)
    assert finite_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert finite_field(13, 2).modulus == _irreducible_by_enumeration(13, 2)
    assert finite_field(2, 3).modulus == _irreducible_by_enumeration(2, 3)
    assert finite_field(3, 4).modulus == _irreducible_by_enumeration(3, 4)


def test_create_rejects_bad_input():
    with pytest.raises(ValueError):
        finite_field(6, 1)
    with pytest.raises(ValueError):
        finite_field(5, 0)
    with pytest.raises(ValueError):
        fq_create(6)


def test_library_builds_only_the_prime_field():
    """The library's F_ell: one object per prime, of degree 1 and order
    ell, whose residues are read back from `coords`."""
    F = fq_create(7)
    assert F is fq_create(7)
    assert (F.characteristic, F.degree, F.order) == (7, 1, 7)
    assert F.from_int(-1).coords == (6,)
    assert F.from_int(15).field is F


def test_frobenius_identity_exhaustive():
    """a^q = a for every element of every field with q <= 2^10."""
    checked = 0
    for ell in range(2, 1025):
        if not is_prime(ell):
            continue
        f = 1
        while ell**f <= 1024:
            field = finite_field(ell, f)
            q = field.order
            for a in field.elements():
                assert a**q == a
            checked += q
            f += 1
    assert checked > 80_000


def test_char2_sqrt_and_trace():
    F8 = finite_field(2, 3)
    for a in F8.elements():
        assert F8.absolute_trace(a) in (0, 1)
    assert sum(F8.absolute_trace(a) for a in F8.elements()) == 4  # half the field


def test_inverse_and_division():
    F169 = finite_field(13, 2)
    for a in list(F169.elements())[1:30]:
        assert a * a.inverse() == F169.one()
        assert (a / a) == F169.one()
