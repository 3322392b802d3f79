"""Surgery obstruction predicates.

Two obstructions to cyclic or finite Dehn surgeries:

* the alternating +-1 coefficient form that the Alexander polynomial of
  any knot with an L-space surgery must take (Ozsvath-Szabo), decided by
  one scan over the sorted terms that builds no polynomial;
* the weaker all-coefficients-+-1 test and the monic leading-coefficient
  test (a fibered knot has monic Alexander polynomial, and knots with
  L-space surgeries are fibered, by Ni).
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly


class ObstructionError(ValueError):
    """Invalid input to an obstruction predicate."""


# ----------------------------------------------------------------------
# the alternating +-1 coefficient form

@dataclass(frozen=True)
class OSFormDecomposition:
    """Data of an Alexander polynomial written in the symmetric form

        (-1)^k + sum_{j=1..k} (-1)^(k-j) (t^(n_j) + t^(-n_j))

    for a strictly increasing sequence 0 < n_1 < ... < n_k."""

    k: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0 or len(self.exponents) != self.k:
            raise ObstructionError("exponent count must equal k")
        if any(e <= 0 for e in self.exponents):
            raise ObstructionError("exponents must be positive")
        if any(a >= b for a, b in zip(self.exponents, self.exponents[1:])):
            raise ObstructionError("exponents must be strictly increasing")


def os_form_check(delta: LaurentPoly) -> OSFormDecomposition | None:
    """Match ``delta`` against the alternating +-1 form, up to units.

    Returns the decomposition when the symmetrized polynomial is exactly
    (-1)^k + sum (-1)^(k-j)(t^(n_j) + t^(-n_j)), and None otherwise.
    Input that no unit makes symmetric (not a knot polynomial) raises
    ObstructionError: the zero polynomial, extreme exponents of odd sum,
    or a term that differs from its mirror partner.

    One scan over the n sorted terms, with lo and hi the extreme
    s-exponents and mid = (lo + hi)/2, decides this without building a
    polynomial.  The symmetry scan pairs the i-th term with the (n-1-i)-th
    and runs to completion first, so asymmetric input raises even when its
    top coefficient already breaks the form.  The form scan then reads the
    upper half from the top down and returns None at the first break.

    Why this decides the form: a unit +-s^a with 2a != -(lo + hi) leaves
    the extreme exponents unbalanced, so the shift by -mid is the only
    candidate, and the shifted polynomial equals its conjugate iff every
    pair has exponent sum lo + hi and equal coefficients.  The form's
    support is {0, +-n_j}, and its coefficient is (-1)^(k-j) at +-n_j and
    (-1)^k at 0, so its sorted coefficients are the alternating sequence
    +1, -1, ... of odd length 2k + 1, read from the top.  Conversely every
    symmetric sequence of that kind is the form whose n_j are its positive
    powers of t.  So with sigma the sign of the top coefficient (the sign
    of the unit), the symmetric ``delta`` is a unit times the
    form iff n is odd (the constant term is present), every e - mid is
    even (every power of t is an integer) and its coefficients from the
    top are sigma, -sigma, sigma, ...; then k = n // 2 and the n_j are
    (e - mid)/2 over the terms above the middle.
    """
    if delta.is_zero:
        raise ObstructionError("zero polynomial cannot be symmetrized")
    terms = list(delta.items())
    n = len(terms)
    total = terms[0][0] + terms[-1][0]
    if total % 2 != 0:
        raise ObstructionError("polynomial has no symmetric centering")
    # the middle term of an odd count pairs with itself
    for (e, c), (f, d) in zip(terms[: (n + 1) // 2], reversed(terms)):
        if e + f != total or c != d:
            raise ObstructionError("polynomial is not symmetric up to units")
    if n % 2 == 0:
        return None  # no constant term
    mid = total // 2
    upper = terms[n // 2 :]
    want = 1 if upper[-1][1] > 0 else -1
    for e, c in reversed(upper):
        if c != want or (e - mid) % 2 != 0:
            return None  # off the alternation, or a half-integer power of t
        want = -want
    return OSFormDecomposition(n // 2, tuple((e - mid) // 2 for e, _ in upper[1:]))


def pm1_coefficients(delta: LaurentPoly) -> bool:
    """True iff every non-zero coefficient of ``delta`` is +1 or -1."""
    return all(c in (1, -1) for _, c in delta.items())


def monic_check(delta: LaurentPoly) -> bool:
    """True iff the leading coefficient of ``delta`` is +-1 (a fibered
    knot's is).  Rejects the zero polynomial."""
    if delta.is_zero:
        raise ObstructionError("zero polynomial has no leading coefficient")
    return abs(delta.s_coefficient(delta.maxdeg)) == 1


__all__ = [
    "ObstructionError",
    "OSFormDecomposition",
    "os_form_check",
    "pm1_coefficients",
    "monic_check",
]
