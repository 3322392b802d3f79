"""The parent definition of the Ozsvath-Szabo form check: the arbiter of
the one-pass scan in ``pretzelsurgery.obstruction.os_form_check``.

It centers the polynomial by a unit, compares it with its conjugate,
rebuilds the form from the positive powers of t and compares again.  It
imports only ``LaurentPoly`` from the package, so it shares no code with
the scan.
"""

from pretzelsurgery.laurent import LaurentPoly

from invariants import conj


class NotSymmetric(ValueError):
    """No unit makes the polynomial symmetric; the messages are those of
    ``os_form_check``."""


def symmetrize(delta: LaurentPoly) -> LaurentPoly:
    """The unit multiple of ``delta`` with Delta(t) = Delta(1/t) exactly and
    positive leading coefficient.  Raises if no unit achieves symmetry."""
    if delta.is_zero:
        raise NotSymmetric("zero polynomial cannot be symmetrized")
    terms = list(delta.items())
    (lo, _), (hi, top) = terms[0], terms[-1]
    if (lo + hi) % 2 != 0:
        raise NotSymmetric("polynomial has no symmetric centering")
    # times sign(top) * s**-((lo + hi) / 2)
    centered = LaurentPoly({e - (lo + hi) // 2: v if top > 0 else -v for e, v in terms})
    if centered != conj(centered):
        raise NotSymmetric("polynomial is not symmetric up to units")
    return centered


def os_form_polynomial(exponents: tuple[int, ...]) -> LaurentPoly:
    """(-1)^k + sum_{j=1..k} (-1)^(k-j) (t^(n_j) + t^(-n_j)) for the
    exponents n_1 < ... < n_k."""
    k = len(exponents)
    coeffs = {0: (-1) ** k}  # s-exponents: t^n is s^(2n)
    for j, n in enumerate(exponents, start=1):
        sign = (-1) ** (k - j)
        for e in (2 * n, -2 * n):
            coeffs[e] = coeffs.get(e, 0) + sign
    return LaurentPoly(coeffs)


def parent_os_form(delta: LaurentPoly) -> tuple[int, tuple[int, ...]] | None:
    """(k, exponents) of the form that ``delta`` is a unit multiple of, or
    None: symmetrize, rebuild the form from the positive powers of t, and
    compare."""
    centered = symmetrize(delta)
    if any(e % 2 for e, _ in centered.items()):
        return None
    exponents = tuple(e // 2 for e, _ in centered.items() if e > 0)
    return (len(exponents), exponents) if os_form_polynomial(exponents) == centered else None
