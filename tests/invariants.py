"""Invariants of Laurent polynomials that the tests check engine output
against, read from ``LaurentPoly.items()`` alone, and ``under_unit``, which
puts a polynomial's value under a unit of the test's choosing."""

from pretzelsurgery.laurent import LaurentPoly, _from_slots


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


def highest_exponent(p: LaurentPoly) -> int:
    """The highest s-exponent of a nonzero polynomial."""
    return max(e for e, _ in p.items())


def under_unit(p: LaurentPoly, k: int, sign: int) -> LaurentPoly:
    """p's value, stored as the slots of p / (sign * s**k) under the unit
    sign * s**k: the slots of that quotient from the public constructor,
    with k added to its lowest exponent and ``sign`` in the sign slot (the
    zero polynomial keeps lo = 0).  ``normalize`` picks the sign from the
    first slot, so a sign of the test's choosing is set by hand."""
    q = LaurentPoly({e - k: sign * v for e, v in p.items()})
    return _from_slots(q._lo + k if q else 0, q._slots, sign)
