"""The closed form of Delta for the (-1, 2n, p, q) pretzel family, from
the twist-resolution identities: an arbiter of the skein engine on that
family at any q.  It builds its own (2, l)-torus values and imports only
``LaurentPoly`` from the package.
"""

from pretzelsurgery.laurent import LaurentPoly

# w = t^(-1/2) - t^(1/2), in s-exponents (s^2 = t)
_W = LaurentPoly({-1: 1, 1: -1})


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
        return (
            torus(b - 1) * torus(p) * torus(q)
            + torus(b) * (torus(p - 1) * torus(q) + torus(p) * torus(q - 1)) * -1
        )
    if n == 1:
        # P(-1,2,p,q) = P(-2,p,q): one antiparallel crossing change
        return torus(p) * torus(q) + _W * torus(p + q)
    return (
        torus(2 * n - 1) * torus(p) * torus(q)
        + torus(2 * n) * torus(p - 1) * torus(q)
        + torus(2 * n) * torus(p) * torus(q - 1)
        + _W * torus(2 * n) * torus(p) * torus(q)
    )
