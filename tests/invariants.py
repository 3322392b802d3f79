"""Invariants of Laurent polynomials that the tests check engine output
against, read from ``LaurentPoly.items()`` alone."""

from pretzelsurgery.laurent import LaurentPoly


def conj(p: LaurentPoly) -> LaurentPoly:
    """p with s -> s**-1 (t -> t**-1)."""
    return LaurentPoly({-e: v for e, v in p.items()})


def at_minus_one(p: LaurentPoly) -> int:
    """The value at t = -1 of a polynomial in integer powers of t."""
    if any(e % 2 for e, _ in p.items()):
        raise ValueError("t = -1 evaluation needs integer powers of t")
    return sum(v * (-1) ** (e // 2) for e, v in p.items())
