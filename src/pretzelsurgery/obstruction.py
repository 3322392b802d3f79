"""Surgery obstruction predicates.

Two obstructions to cyclic or finite Dehn surgeries:

* the alternating +-1 coefficient form that the Alexander polynomial of
  any knot with an L-space surgery must take (Ozsvath-Szabo), decided by
  list comparisons on the dense coefficients that build no polynomial and
  read the form's ``OSFormDecomposition``;
* the weaker all-coefficients-+-1 test and the monic leading-coefficient
  test (a fibered knot has monic Alexander polynomial, and knots with
  L-space surgeries are fibered, by Ni).

Each predicate reads Delta's slot list ``delta._slots`` as it is stored
(the skein engine and ``normalize`` build it with ``laurent._from_slots``):
one coefficient per s-exponent from the lowest, all times the sign +-1
held beside them.  None of the answers changes when Delta is multiplied
by -1, so the sign is never applied and nothing is copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .laurent import LaurentPoly


class ObstructionError(ValueError):
    """Invalid input to an obstruction predicate: the zero polynomial, or
    one that no unit makes symmetric."""


# ----------------------------------------------------------------------
# the alternating +-1 coefficient form

@dataclass(frozen=True)
class OSFormDecomposition:
    """Data of an Alexander polynomial written in the symmetric form

        (-1)^k + sum_{j=1..k} (-1)^(k-j) (t^(n_j) + t^(-n_j))

    for a strictly increasing sequence 0 < n_1 < ... < n_k.  ``os_form_check``
    is the only builder: its slot comparisons find k + 1 alternating values,
    so k exponents, each a positive distance above the middle, read in
    increasing order."""

    k: int
    exponents: tuple[int, ...]


def os_form_check(delta: LaurentPoly) -> OSFormDecomposition | None:
    """Match ``delta`` against the alternating +-1 form, up to units.

    Returns the decomposition when the symmetrized polynomial is exactly
    (-1)^k + sum (-1)^(k-j)(t^(n_j) + t^(-n_j)), and None otherwise.
    Input that no unit makes symmetric (not a knot polynomial) raises
    ObstructionError: the zero polynomial, extreme exponents of odd sum,
    or a term that differs from its mirror partner.

    List comparisons on the stored slots c (one per s-exponent from the
    lowest; c is delta or -delta, and -1 is a unit) decide this without
    building a polynomial; the middle slot m = (len(c) - 1)/2 is the
    exponent mid = (lo + hi)/2 of the extreme s-exponents lo and hi.  The
    symmetry test, c equal to its reverse, comes first, so asymmetric input
    raises even when its top coefficient already breaks the form.  The
    form is then read from the upper half, c[m:].

    Why this decides the form: a unit +-s^a with 2a != -(lo + hi) leaves
    the extreme exponents unbalanced, so the shift by -mid is the only
    candidate, and the shifted polynomial equals its conjugate iff c is a
    palindrome.  The form's support is {0, +-n_j}, and its coefficient is
    (-1)^(k-j) at +-n_j and (-1)^k at 0, so its sorted coefficients are
    the alternating sequence +1, -1, ... of odd length 2k + 1, read from
    the top.  Conversely every symmetric sequence of that kind is the form
    whose n_j are its positive powers of t.  So with sigma the sign of the
    top coefficient (the sign of the unit), the palindrome c is a unit
    times the form iff its count of nonzero terms is odd (c[m], the
    constant term, is nonzero), every nonzero slot lies an even distance
    from the middle (every power of t is an integer) and the nonzero
    values of c[m::2] from the top are sigma, -sigma, sigma, ...; then the
    n_j are the distances j/2 of the nonzero slots c[m + j] above the
    middle, and k is their count.
    """
    if delta.is_zero:
        raise ObstructionError("zero polynomial cannot be symmetrized")
    c = delta._slots
    if len(c) % 2 == 0:
        raise ObstructionError("polynomial has no symmetric centering")
    if c != c[::-1]:
        raise ObstructionError("polynomial is not symmetric up to units")
    m = len(c) // 2
    if not c[m]:
        return None  # an even count of terms: no constant term
    top = c[-1]
    if top not in (1, -1) or any(c[m + 1 :: 2]):
        return None  # off the alternation, or a half-integer power of t
    values = list(filter(None, c[m::2]))[::-1]  # from the top down to the middle
    k = len(values) - 1
    if values != ([top, -top] * (k // 2 + 1))[: k + 1]:
        return None
    return OSFormDecomposition(k, tuple(compress(range(1, m // 2 + 1), c[m + 2 :: 2])))


_UNITS_OR_ZERO = frozenset((-1, 0, 1))


def pm1_coefficients(delta: LaurentPoly) -> bool:
    """True iff every non-zero coefficient of ``delta`` is +1 or -1; the
    test stops at the first coefficient that is not."""
    return _UNITS_OR_ZERO.issuperset(delta._slots)


def monic_check(delta: LaurentPoly) -> bool:
    """True iff the leading coefficient of ``delta`` is +-1 (a fibered
    knot's is).  Rejects the zero polynomial."""
    if delta.is_zero:
        raise ObstructionError("zero polynomial has no leading coefficient")
    return abs(delta._slots[-1]) == 1


__all__ = [
    "ObstructionError",
    "OSFormDecomposition",
    "os_form_check",
    "pm1_coefficients",
    "monic_check",
]
