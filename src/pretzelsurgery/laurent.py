"""Exact Laurent polynomials over the integers, as read-only results.

Polynomials live in a half-power variable s with s**2 = t, so quantities
like t**(1/2) are first-class values.  Exponents are stored in s-units:
the s-exponent 2k represents t**k, an odd s-exponent an honest
half-integer power of t.  Coefficients are arbitrary-precision Python ints.

The program only reads a polynomial: its coefficients, its degree, its
unit-normal form, equality and its text form.  It never adds, multiplies
or parses one, so ``LaurentPoly`` has no operators; the tests and their
arbiters bring their own arithmetic (``tests/reference_laurent.py``).

A polynomial is stored densely: its lowest s-exponent ``lo``, a list with
one slot per s-exponent from ``lo`` whose first and last slots are
nonzero, and a sign +-1 that multiplies every slot.  The zero polynomial
is the empty list at ``lo`` = 0.  Memory is proportional to the span from
the lowest to the highest exponent, zero slots included.  Single
coefficients and the degree are index arithmetic, ``items()`` is one pass
over the slots, ``s_coefficients()`` a copy of them with the sign
applied, and ``normalize`` sets ``lo`` to 0 and picks the sign from the
first slot, in O(1), sharing the slot list it reads.

The results of ``normalize`` and of the skein engine are built by
``_from_slots``, which wraps a slot list already in this layout without
copying or checking it; ``LaurentPoly(mapping)`` is the public constructor,
keeps its checks and lays the map out once.  ``_units_or_zero`` tests the
slots in place for the obstructions.
"""

from __future__ import annotations

from itertools import compress
from operator import index, neg
from typing import Iterator, Mapping

__all__ = ["LaurentError", "LaurentPoly", "render"]


class LaurentError(ValueError):
    """Raised on operations that are undefined for the given polynomial."""


class LaurentPoly:
    """Immutable Laurent polynomial in s (s**2 = t), integer coefficients.

    The value is sign * sum(v * s**(lo + i)) over the slots ``_slots``,
    with ``_lo`` = lo and ``_sign`` = sign.  The first and last slots are
    nonzero; the zero polynomial is the empty list at lo = 0.  Entries of
    the public constructor's map are read with ``operator.index``, so
    anything but an integer raises TypeError.  ``normalize``, ``maxdeg``,
    ``coefficient`` and ``s_coefficient`` are O(1).
    """

    __slots__ = ("_lo", "_slots", "_sign")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                e, v = index(e), index(v)
                if v:
                    c[e] = v
        lo, slots = 0, []
        if c:
            lo = min(c)
            slots = [0] * (max(c) - lo + 1)
            for e, v in c.items():
                slots[e - lo] = v
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_sign", 1)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._slots

    @property
    def maxdeg(self) -> int:
        if not self._slots:
            raise LaurentError("zero polynomial has no maxdeg")
        return self._lo + len(self._slots) - 1

    def s_coefficient(self, s_exp: int) -> int:
        i = s_exp - self._lo
        return self._sign * self._slots[i] if 0 <= i < len(self._slots) else 0

    def coefficient(self, t_exp: int) -> int:
        """Coefficient of t**t_exp (zero if absent)."""
        return self.s_coefficient(2 * t_exp)

    def s_coefficients(self) -> list[int]:
        """The coefficients of every s-exponent from the lowest to the
        highest, zeros included, as a new list ([] for 0)."""
        slots = self._slots
        return slots.copy() if self._sign > 0 else list(map(neg, slots))

    def items(self) -> Iterator[tuple[int, int]]:
        """(s-exponent, coefficient) pairs in ascending exponent order."""
        slots = self._slots
        values = slots if self._sign > 0 else map(neg, slots)
        return compress(zip(range(self._lo, self._lo + len(slots)), values), slots)

    def __bool__(self) -> bool:
        return bool(self._slots)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._slots, other._slots
        if self._sign == other._sign:
            return self._lo == other._lo and a == b
        return self._lo == other._lo and len(a) == len(b) and a == list(map(neg, b))

    # ------------------------------------------------------------------
    # spec operations

    def normalize(self) -> "LaurentPoly":
        """Unit-normalize: multiply by +-s**k so the lowest exponent is 0
        and the constant coefficient is positive.  Rejects the zero
        polynomial.  The result shares this polynomial's slots, at lo = 0
        with the sign of the first slot.
        """
        slots = self._slots
        if not slots:
            raise LaurentError("cannot normalize the zero polynomial")
        return _from_slots(0, slots, 1 if slots[0] > 0 else -1)

    def equal_up_to_units(self, other: "LaurentPoly") -> bool:
        """True iff self = +-s**k * other for some integer k."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return self.normalize() == other.normalize()

    # ------------------------------------------------------------------
    # text form

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({render(self)!r})"


_new = object.__new__
_set_lo = LaurentPoly._lo.__set__
_set_slots = LaurentPoly._slots.__set__
_set_sign = LaurentPoly._sign.__set__


def _from_slots(lo: int, slots: list[int], sign: int = 1) -> LaurentPoly:
    """Wrap sign * sum(v * s**(lo + i)) over ``slots`` as a LaurentPoly
    without copying or checking it: every slot must be an int, the first
    and last nonzero (or the list empty, at lo = 0), and sign 1 or -1."""
    p = _new(LaurentPoly)
    _set_lo(p, lo)
    _set_slots(p, slots)
    _set_sign(p, sign)
    return p


_UNITS_OR_ZERO = frozenset((-1, 0, 1))


def _units_or_zero(p: LaurentPoly) -> bool:
    """Whether every coefficient of p is 0, 1 or -1, read from its slots as
    they are: the sign cannot change the answer, nothing is copied, and the
    scan stops at the first slot off the set."""
    return _UNITS_OR_ZERO.issuperset(p._slots)


# ----------------------------------------------------------------------
# rendering.  Terms appear in ascending exponent order; integer powers
# print as t^k, half powers as t^(k/2).

def _power_str(s_exp: int) -> str:
    if s_exp == 0:
        return ""
    if s_exp % 2 == 0:
        k = s_exp // 2
        return "t" if k == 1 else f"t^{k}"
    return f"t^({s_exp}/2)"


def render(p: LaurentPoly) -> str:
    parts = []
    for e, v in p.items():
        pw = _power_str(e)
        mag = abs(v)
        if pw and mag == 1:
            body = pw
        elif pw:
            body = f"{mag}{pw}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts) or "0"
