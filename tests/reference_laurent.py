"""Laurent polynomial arithmetic for the tests and the arbiters, apart from
``pretzelsurgery.laurent``.

``LaurentPoly`` is a read-only result: the program never adds, multiplies
or parses a polynomial.  The tests and the arbiters that do (the Conway
skein of ``reference_conway``, the dense Fox minor of ``reference_fox``)
do it here, on ``LaurentPoly.items()``, the public constructor and a
dictionary double loop of this module's own.  So they share no arithmetic
with the skein state sum, which runs ``alexander._product`` and ``_sum``
and divides by ``alexander._divide_by_one_plus_t``, and ``multiply`` and
``add`` are the arbiters of those three.
"""

import re

from pretzelsurgery.laurent import LaurentPoly

#: The skein multiplier t**(-1/2) - t**(1/2).
SKEIN_FACTOR = LaurentPoly({-1: 1, 1: -1})


def add(*terms: LaurentPoly) -> LaurentPoly:
    """The sum of the terms, term by term."""
    c = {}
    for p in terms:
        for e, v in p.items():
            c[e] = c.get(e, 0) + v
    return LaurentPoly(c)


def multiply(p: LaurentPoly, *factors: LaurentPoly) -> LaurentPoly:
    """The product of p and the factors, left to right, each by the
    dictionary double loop (the schoolbook product)."""
    for q in factors:
        c = {}
        for e1, v1 in p.items():
            for e2, v2 in q.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        p = LaurentPoly(c)
    return p


def scale(p: LaurentPoly, n: int) -> LaurentPoly:
    """n * p for an integer n."""
    return LaurentPoly({e: n * v for e, v in p.items()})


# parse accepts exactly the grammar that ``laurent.render`` emits, so
# parse(render(p)) == p
_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?P<coeff>\d+)?\s*
        (?P<var>t(\^(?P<intexp>-?\d+)|\^\((?P<halfexp>-?\d+)/2\))?)?\s*""",
    re.VERBOSE,
)


def parse(text: str) -> LaurentPoly:
    """The polynomial of a text in the form ``render`` produces; ValueError
    on anything else."""
    text = text.strip()
    if text == "0":
        return LaurentPoly()
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        sign_s, coeff_s, var = m.group("sign"), m.group("coeff"), m.group("var")
        if coeff_s is None and var is None:
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        if not first and sign_s is None:
            raise ValueError(f"missing +/- between terms in: {text!r}")
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
