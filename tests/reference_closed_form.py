"""The closed form of Delta for the (-1, 2n, p, q) pretzel family, from
the twist-resolution identities: an arbiter of the skein engine on that
family at any q.  It builds its own (2, l)-torus values, imports only
``LaurentPoly`` from the package and does its arithmetic with
``reference_laurent``.
"""

from pretzelsurgery.laurent import LaurentPoly

from reference_laurent import SKEIN_FACTOR, add, multiply, scale


def torus(l: int) -> LaurentPoly:
    """Conway-consistent Delta of the (2, l)-torus link for l >= 0: the
    alternating +-1 coefficients sum_{j<l} (-1)^j s^(2j-l+1)."""
    return LaurentPoly({2 * j - l + 1: (-1) ** j for j in range(l)})


def claim_formula(n: int, p: int, q: int) -> LaurentPoly:
    """Delta of P(-1, 2n, p, q) up to units, for n != 0 and p, q >= 1."""
    if n == 0:
        raise ValueError("the family has n != 0")
    if n < 0:
        b = -2 * n
        return add(
            multiply(torus(b - 1), torus(p), torus(q)),
            scale(multiply(torus(b), add(multiply(torus(p - 1), torus(q)), multiply(torus(p), torus(q - 1)))), -1),
        )
    if n == 1:
        # P(-1,2,p,q) = P(-2,p,q): one antiparallel crossing change
        return add(multiply(torus(p), torus(q)), multiply(SKEIN_FACTOR, torus(p + q)))
    return add(
        multiply(torus(2 * n - 1), torus(p), torus(q)),
        multiply(torus(2 * n), torus(p - 1), torus(q)),
        multiply(torus(2 * n), torus(p), torus(q - 1)),
        multiply(SKEIN_FACTOR, torus(2 * n), torus(p), torus(q)),
    )
