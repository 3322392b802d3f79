"""Exact Laurent polynomial arithmetic over the integers.

Polynomials live in a half-power variable s with s**2 = t, so quantities
like t**(1/2) and the skein factor t**(-1/2) - t**(1/2) are first-class
values.  Exponents are stored in s-units: the s-exponent 2k represents
t**k, an odd s-exponent an honest half-integer power of t.  Coefficients
are arbitrary-precision Python ints.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping


class LaurentError(ValueError):
    """Raised on operations that are undefined for the given polynomial."""


class LaurentPoly:
    """Immutable sparse Laurent polynomial in s (s**2 = t), integer coefficients.

    The zero polynomial is the empty coefficient map; zero coefficients are
    never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    c[int(e)] = int(v)
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def s_term(cls, coeff: int, s_exp: int) -> "LaurentPoly":
        """coeff * s**s_exp."""
        return cls({s_exp: coeff})

    @classmethod
    def t_term(cls, coeff: int, t_exp: int) -> "LaurentPoly":
        """coeff * t**t_exp."""
        return cls({2 * t_exp: coeff})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def mindeg(self) -> int:
        """Minimal s-exponent.  Undefined (raises) for the zero polynomial."""
        if not self._c:
            raise LaurentError("zero polynomial has no mindeg")
        return min(self._c)

    @property
    def maxdeg(self) -> int:
        if not self._c:
            raise LaurentError("zero polynomial has no maxdeg")
        return max(self._c)

    def s_coefficient(self, s_exp: int) -> int:
        return self._c.get(s_exp, 0)

    def coefficient(self, t_exp: int) -> int:
        """Coefficient of t**t_exp (zero if absent)."""
        return self._c.get(2 * t_exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """(s-exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._c.items()))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def has_integer_exponents(self) -> bool:
        """True iff every stored power of t is an integer (all s-exponents even)."""
        return all(e % 2 == 0 for e in self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({e: other * v for e, v in self._c.items()})
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def shifted(self, s_exp: int) -> "LaurentPoly":
        """Multiply by s**s_exp."""
        return LaurentPoly({e + s_exp: v for e, v in self._c.items()})

    def conj(self) -> "LaurentPoly":
        """Substitute s -> s**-1 (i.e. t -> t**-1)."""
        return LaurentPoly({-e: v for e, v in self._c.items()})

    def eval_at_one(self) -> int:
        """Value at s = 1 (t = 1)."""
        return sum(self._c.values())

    def eval_at_minus_one(self) -> int:
        """Value at t = -1.  Requires integer t-exponents."""
        if not self.has_integer_exponents():
            raise LaurentError("t = -1 evaluation needs integer t-exponents")
        return sum(v * (-1) ** (e // 2) for e, v in self._c.items())

    # ------------------------------------------------------------------
    # spec operations

    def normalize(self) -> "LaurentPoly":
        """Unit-normalize: multiply by +-s**k so mindeg = 0 and the constant
        coefficient is positive.  Rejects the zero polynomial.
        """
        if not self._c:
            raise LaurentError("cannot normalize the zero polynomial")
        m = self.mindeg
        sign = 1 if self._c[m] > 0 else -1
        return LaurentPoly({e - m: sign * v for e, v in self._c.items()})

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


#: The skein multiplier t**(-1/2) - t**(1/2).
SKEIN_FACTOR = LaurentPoly({-1: 1, 1: -1})


# ----------------------------------------------------------------------
# rendering and parsing.  Terms appear in ascending exponent order; integer
# powers print as t^k, half powers as t^(k/2).  parse() accepts exactly the
# emitted grammar (round-trips exactly).

def _power_str(s_exp: int) -> str:
    if s_exp == 0:
        return ""
    if s_exp % 2 == 0:
        k = s_exp // 2
        return "t" if k == 1 else f"t^{k}"
    return f"t^({s_exp}/2)"


def render(p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
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
    return " ".join(parts)


_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?P<coeff>\d+)?\s*
        (?P<var>t(\^(?P<intexp>-?\d+)|\^\((?P<halfexp>-?\d+)/2\))?)?\s*""",
    re.VERBOSE,
)


def parse(text: str) -> LaurentPoly:
    """Parse the textual form produced by render()."""
    text = text.strip()
    if text == "0":
        return LaurentPoly.zero()
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise LaurentError(f"cannot parse polynomial at: {text[pos:]!r}")
        sign_s, coeff_s, var = m.group("sign"), m.group("coeff"), m.group("var")
        if coeff_s is None and var is None:
            raise LaurentError(f"cannot parse polynomial at: {text[pos:]!r}")
        if not first and sign_s is None:
            raise LaurentError(f"missing +/- between terms in: {text!r}")
        sign = -1 if sign_s == "-" else 1
        coeff = int(coeff_s) if coeff_s is not None else 1
        if var is None:
            s_exp = 0
        elif m.group("halfexp") is not None:
            s_exp = int(m.group("halfexp"))
        elif m.group("intexp") is not None:
            s_exp = 2 * int(m.group("intexp"))
        else:
            s_exp = 2
        coeffs[s_exp] = coeffs.get(s_exp, 0) + sign * coeff
        pos = m.end()
        first = False
    return LaurentPoly(coeffs)
