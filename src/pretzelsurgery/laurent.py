"""Exact Laurent polynomial arithmetic over the integers.

Polynomials live in a half-power variable s with s**2 = t, so quantities
like t**(1/2) and the skein factor t**(-1/2) - t**(1/2) are first-class
values.  Exponents are stored in s-units: the s-exponent 2k represents
t**k, an odd s-exponent an honest half-integer power of t.  Coefficients
are arbitrary-precision Python ints.

Products run the dictionary double loop, whose cost is the product of the
term counts; every product the skein state sum makes has an operand of at
most two terms (a test in ``tests/test_alexander.py`` guards this).

``kronecker_pack`` and ``kronecker_unpack`` encode a polynomial as one
integer, its value at s = 2**(8*nbytes), whose nbytes-wide two's-complement
slots hold the coefficients; the exact division and the Fox-calculus oracle
use them.  Widths of 1, 2, 4 and 8 bytes are packed and read back through
``array`` and ``memoryview`` at C speed; wider slots are read one at a time
with ``int.from_bytes``, so results stay exact at any size.

``divide_by_one_plus_t`` divides exactly by (1 + t)**k in the same
encoding: the dividend is packed once, divided by (1 + X**2)**k as one
big integer (by (1 + X)**k at X = t when every exponent has one parity),
and the quotient unpacked.  Its slots hold |p|_1 * C(J + k - 1, k - 1)
* (2**k + 1), where J is the quotient's t-span: the first two factors bound
every quotient coefficient, since C(J + k - 1, k - 1) is the largest
coefficient size of (1 + t)**-k up to t**J, and the last makes an indivisible
dividend leave a nonzero remainder, which raises ``LaurentError``.  The
proof is in its docstring.

Every result of the arithmetic is built by ``_trusted``, which wraps a
dict already known to hold int keys and no zero values without checking
it again; ``LaurentPoly(mapping)`` is the public constructor and keeps its
checks.
"""

from __future__ import annotations

import re
import sys
from array import array
from math import comb
from operator import itemgetter
from typing import Iterator, Mapping, Sequence


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
        # a constant equals its int (see __eq__), so it hashes like it
        c = self._c
        if c.keys() <= {0}:
            return hash(c.get(0, 0))
        return hash(frozenset(c.items()))

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, int):
                return NotImplemented
            other = _trusted({0: int(other)} if other else {})
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        c = a.copy()
        for e, v in b.items():
            v += c.get(e, 0)
            if v:
                c[e] = v
            else:
                del c[e]
        return _trusted(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _trusted({e: -v for e, v in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, (LaurentPoly, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return _trusted(_product(self._c, other._c))
        if not isinstance(other, int):
            return NotImplemented
        if not other:
            return _trusted({})
        return _trusted({e: other * v for e, v in self._c.items()})

    __rmul__ = __mul__

    def shifted(self, s_exp: int) -> "LaurentPoly":
        """Multiply by s**s_exp."""
        return _trusted({e + s_exp: v for e, v in self._c.items()})

    def conj(self) -> "LaurentPoly":
        """Substitute s -> s**-1 (i.e. t -> t**-1)."""
        return _trusted({-e: v for e, v in self._c.items()})

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
        return _trusted({e - m: sign * v for e, v in self._c.items()})

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


def _trusted(c: dict[int, int]) -> LaurentPoly:
    """Wrap ``c`` as a LaurentPoly without copying or checking it: every key
    must be an int and no value may be zero."""
    p = _new(LaurentPoly)
    _set_coeffs(p, c)
    return p


def _product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Coefficients of the product of the coefficient maps ``a`` and ``b``."""
    if len(a) > len(b):
        a, b = b, a
    c: dict[int, int] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            c[e] = c.get(e, 0) + v1 * v2
    return {e: v for e, v in c.items() if v}


# ----------------------------------------------------------------------
# Kronecker substitution

_BYTE_ORDER = "little"
# slot width in bytes -> signed array typecode; native little-endian only,
# so a big-endian host reads every slot through int.from_bytes
_FORMATS = (
    {array(f).itemsize: f for f in "bhiq"} if sys.byteorder == _BYTE_ORDER else {}
)


def slot_bytes(bits: int) -> int:
    """The narrowest slot width of at least ``bits`` bits: 1, 2, 4 or 8
    bytes, which pack at C speed, else the fewest whole bytes."""
    for nbytes in (1, 2, 4, 8):
        if bits <= 8 * nbytes:
            return nbytes
    return (bits + 7) // 8


def _sign_bits(nbytes: int, count: int) -> int:
    """The top bit of each of ``count`` slots of ``nbytes`` bytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, _BYTE_ORDER)


def kronecker_pack(coeffs: Mapping[int, int], count: int, nbytes: int) -> int:
    """sum(v * 2**(8*nbytes*e)) over ``coeffs``: the coefficient map
    evaluated at s = 2**(8*nbytes), in ``count`` slots.  Every exponent
    must lie in [0, count) and every value fit a signed slot of ``nbytes``
    bytes."""
    fmt = _FORMATS.get(nbytes)
    slots = array(fmt, bytes(nbytes * count)) if fmt else [0] * count
    for e, v in coeffs.items():
        slots[e] = v
    if fmt:
        raw = slots.tobytes()
    else:
        raw = b"".join([v.to_bytes(nbytes, _BYTE_ORDER, signed=True) for v in slots])
    u = int.from_bytes(raw, _BYTE_ORDER)
    # u read each negative slot v as v + 2**(8*nbytes); take those back
    return u - ((u & _sign_bits(nbytes, count)) << 1)


def kronecker_unpack(x: int, nbytes: int, count: int) -> Sequence[int]:
    """The ``count`` signed slots of ``x`` (inverse of ``kronecker_pack``).

    Raises OverflowError when ``x`` is not a sum of ``count`` signed slots.
    """
    bias = _sign_bits(nbytes, count)
    # adding the bias lifts every slot into [0, 2**(8*nbytes)) with no
    # carries; the xor then puts each slot back in two's complement
    raw = ((x + bias) ^ bias).to_bytes(nbytes * count, _BYTE_ORDER)
    fmt = _FORMATS.get(nbytes)
    if fmt:
        return memoryview(raw).cast(fmt)
    return [
        int.from_bytes(raw[i:i + nbytes], _BYTE_ORDER, signed=True)
        for i in range(0, len(raw), nbytes)
    ]


def divide_by_one_plus_t(p: LaurentPoly, k: int) -> LaurentPoly:
    """The exact quotient p / (1 + t)**k, for k >= 0.

    Raises LaurentError when (1 + t)**k does not divide p.

    The division is one big-integer division.  p is packed at
    s = X = 2**(8*nbytes) and divided by (1 + X**2)**k; when every exponent
    of p has the parity of its lowest one, p is packed in steps of two
    exponents (at t = X) and divided by (1 + X)**k, which halves the
    integers.  The quotient's slots are its coefficients.

    The slot width.  Let J be the quotient's t-span (its s-span halved,
    rounded down) and B = |p|_1 * C(J + k - 1, k - 1), where |p|_1 is the
    sum of the absolute coefficients.  Slots hold every |v| up to
    B * (2**k + 1).  Write (1 + t)**-k = sum_j c_j t**j with
    |c_j| = C(j + k - 1, k - 1), which grows with j.  Match p from its
    lowest slot up: the series quotient Q has the coefficient
    q_e = sum_j p_(e-2j) c_j at each s-exponent e, where p_(e-2j) vanishes
    below p's lowest exponent, and only j <= J reach the quotient's slots.
    So |q_e| <= |p|_1 * C(J + k - 1, k - 1) = B.

    * If (1 + t)**k divides p, Q is the quotient, and every slot of
      p(X) / (1 + X**2)**k holds a value of size at most B, below X / 2.
      So the slots read back the quotient exactly.
    * If not, R = p - Q (1 + t)**k is a nonzero polynomial on the 2k slots
      above Q's (k slots in steps of two), with coefficients of size at
      most |p|_1 + 2**k B <= B * (2**k + 1) < X / 2.  p(X) is
      Q(X) (1 + X**2)**k plus a power of X times R', the integer that R
      packs to from its own lowest slot.  R' is nonzero and smaller in
      size than X**(2k) < (1 + X**2)**k (X**k < (1 + X)**k in steps of
      two), and X is prime to the divisor, so the integer division leaves
      a nonzero remainder, which raises.
    """
    c = p._c
    if not k or not c:
        return p
    lo, hi = min(c), max(c)
    step = 2 if all((e - lo) % 2 == 0 for e in c) else 1
    degree = 2 * k // step  # of the divisor, in slots
    count = (hi - lo) // step + 1 - degree  # the quotient's slots
    if count <= 0:
        raise LaurentError(f"(1 + t)^{k} does not divide the polynomial")
    span = (count - 1) * step // 2
    bound = sum(map(abs, c.values())) * comb(span + k - 1, k - 1) * (2**k + 1)
    nbytes = slot_bytes(bound.bit_length() + 1)  # + 1 for the sign
    x = kronecker_pack({(e - lo) // step: v for e, v in c.items()}, count + degree, nbytes)
    quotient, remainder = divmod(x, (1 + (1 << (8 * nbytes * (2 // step)))) ** k)
    if remainder:
        raise LaurentError(f"(1 + t)^{k} does not divide the polynomial")
    slots = kronecker_unpack(quotient, nbytes, count)
    return _trusted(dict(filter(itemgetter(1), zip(range(lo, lo + step * count, step), slots))))


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
