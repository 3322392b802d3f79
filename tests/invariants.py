"""Invariants of Laurent polynomials that the tests check engine output
against, read from ``LaurentPoly.items()`` alone, and ``under_unit``, which
puts a polynomial's value under a unit of the test's choosing."""

from pretzelsurgery.laurent import LaurentPoly


def conj(p: LaurentPoly) -> LaurentPoly:
    """p with s -> s**-1 (t -> t**-1)."""
    return LaurentPoly({-e: v for e, v in p.items()})


def at_one(p: LaurentPoly) -> int:
    """The value at s = 1 (t = 1)."""
    return sum(v for _, v in p.items())


def at_minus_one(p: LaurentPoly) -> int:
    """The value at t = -1 of a polynomial in integer powers of t."""
    if any(e % 2 for e, _ in p.items()):
        raise ValueError("t = -1 evaluation needs integer powers of t")
    return sum(v * (-1) ** (e // 2) for e, v in p.items())


def lowest_exponent(p: LaurentPoly) -> int:
    """The lowest s-exponent of a nonzero polynomial."""
    return next(p.items())[0]


def under_unit(p: LaurentPoly, k: int, sign: int) -> LaurentPoly:
    """p's value, stored as a coefficient map under the unit sign * s**k.
    ``normalize`` is the only operation that makes a unit: it stores the
    monomial sign * s**-k, whose value is 1, under the unit sign * s**k, and
    a product with the unit-free p keeps that unit."""
    return LaurentPoly({-k: sign}).normalize() * p
