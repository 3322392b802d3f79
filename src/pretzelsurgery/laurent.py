"""Exact Laurent polynomials over the integers, as read-only results.

Polynomials live in a half-power variable s with s**2 = t, so quantities
like t**(1/2) are first-class values.  Exponents are stored in s-units:
the s-exponent 2k represents t**k, an odd s-exponent an honest
half-integer power of t.  Coefficients are arbitrary-precision Python ints.

The program only reads a polynomial: its coefficients, its degree, its
unit-normal form, equality and its text form.  It never adds, multiplies
or parses one, so ``LaurentPoly`` has no operators; the tests and their
arbiters bring their own arithmetic (``tests/reference_laurent.py``).

A polynomial is stored as a coefficient map times a unit sign * s**shift.
The unit lives in one slot, ``None`` for the unit 1 and ``(shift, sign)``
otherwise.  ``normalize`` is the only operation that makes a unit: after
one ``min`` over the exponents it relabels the map it reads, in O(1).
Single coefficients and the degree read the unit without rebuilding the
map.  ``items()`` applies the unit in the pass after the sort, and ``==``
under two different units compares the ``items()`` of both.

The results of ``normalize`` and of the skein engine are built by
``_trusted``, which wraps a dict already known to hold int keys and no
zero values, and its unit, without checking them again;
``LaurentPoly(mapping)`` is the public constructor and keeps its checks.
"""

from __future__ import annotations

from operator import index
from typing import Iterator, Mapping

__all__ = ["LaurentError", "LaurentPoly", "render"]


class LaurentError(ValueError):
    """Raised on operations that are undefined for the given polynomial."""


class LaurentPoly:
    """Immutable sparse Laurent polynomial in s (s**2 = t), integer coefficients.

    The value is sign * s**shift * sum(v * s**e) over the coefficient map
    ``_c``, with ``_unit`` = ``(shift, sign)``, or ``None`` for shift 0 and
    sign 1.  The zero polynomial is the empty map; zero coefficients are
    never stored.  Entries are read with ``operator.index``, so anything
    but an integer raises TypeError.  ``normalize``, ``maxdeg``,
    ``coefficient`` and ``s_coefficient`` are O(1) in the number of terms,
    apart from the ``min`` or ``max`` over the exponents.
    """

    __slots__ = ("_c", "_unit")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                e, v = index(e), index(v)
                if v:
                    c[e] = v
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_unit", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def maxdeg(self) -> int:
        if not self._c:
            raise LaurentError("zero polynomial has no maxdeg")
        u = self._unit
        return max(self._c) if u is None else max(self._c) + u[0]

    def s_coefficient(self, s_exp: int) -> int:
        u = self._unit
        return self._c.get(s_exp, 0) if u is None else u[1] * self._c.get(s_exp - u[0], 0)

    def coefficient(self, t_exp: int) -> int:
        """Coefficient of t**t_exp (zero if absent)."""
        return self.s_coefficient(2 * t_exp)

    def items(self) -> Iterator[tuple[int, int]]:
        """(s-exponent, coefficient) pairs in ascending exponent order."""
        u = self._unit
        if u is None:
            return iter(sorted(self._c.items()))
        shift, sign = u
        return iter([(e + shift, sign * v) for e, v in sorted(self._c.items())])

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._unit == other._unit:
            return self._c == other._c
        return len(self._c) == len(other._c) and list(self.items()) == list(other.items())

    # ------------------------------------------------------------------
    # spec operations

    def normalize(self) -> "LaurentPoly":
        """Unit-normalize: multiply by +-s**k so the lowest exponent is 0
        and the constant coefficient is positive.  Rejects the zero
        polynomial.  The result shares this polynomial's coefficient map
        under a new unit, and is the only way a unit comes about.
        """
        c = self._c
        if not c:
            raise LaurentError("cannot normalize the zero polynomial")
        m = min(c)
        return _trusted(c, _as_unit(-m, 1 if c[m] > 0 else -1))

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
_set_coeffs = LaurentPoly._c.__set__
_set_unit = LaurentPoly._unit.__set__


def _trusted(c: dict[int, int], unit: tuple[int, int] | None = None) -> LaurentPoly:
    """Wrap ``c`` times ``unit`` as a LaurentPoly without copying or checking
    it: every key must be an int, no value may be zero, and ``unit`` must
    come from ``_as_unit`` (or be None)."""
    p = _new(LaurentPoly)
    _set_coeffs(p, c)
    _set_unit(p, unit)
    return p


def _as_unit(shift: int, sign: int) -> tuple[int, int] | None:
    """The unit slot of sign * s**shift: None for 1."""
    return None if shift == 0 and sign == 1 else (shift, sign)


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
