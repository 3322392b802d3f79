"""Reference for the tangle reading of Montesinos input: the pretzel that a
description whose tangles are all +-1 mod their denominators draws.

A tangle b/a with b = k*a + s and s = +-1 is the region s*a plus |k| unit
regions of the sign of k, which flypes move freely.  Of the splits, the one
with the least |k| is taken, so a tangle that is literally +-1/a stays the
single region +-a, and the integer tangle 0 becomes the cancelling pair
(1, -1).  The pretzel has sum(|k|) + n regions, so this is only for small
tangles; it shares no code with ``pretzel.tangles`` or ``pretzel.read``.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from pretzelsurgery.pretzel import MontesinosDescription, PretzelLink

# three-tangle descriptions b1/a1;b2/a2;b3/a3 with a in (2, 3, 4, 5, 7)
# and b in -5..5, b != 0, gcd(a, b) = 1
BOX_TANGLES = tuple(
    Fraction(b, a) for a in (2, 3, 4, 5, 7) for b in range(-5, 6) if b and gcd(a, b) == 1
)


def as_pretzel(desc: MontesinosDescription) -> PretzelLink | None:
    """The pretzel drawn by the description, or None when some tangle is
    genuinely rational or there is only one tangle: M(b/a) is the
    two-bridge knot b(b, a), while a one-region pretzel closes with side
    arcs."""
    if len(desc.tangles) == 1:
        return None
    params = []
    for t in desc.tangles:
        a, b = t.denominator, t.numerator
        splits = [((b - s) // a, s) for s in (1, -1) if (b - s) % a == 0]
        if not splits:
            return None
        k, s = min(splits, key=lambda split: abs(split[0]))
        params.append(s * a)
        params.extend([1 if k > 0 else -1] * abs(k))
    return PretzelLink(params)


def box_knots():
    """(text, reference pretzel) for every description of the box whose
    tangles are all +-1 mod their denominators and whose determinant
    b1 a2 a3 + a1 b2 a3 + a1 a2 b3 is odd."""
    for triple in product(BOX_TANGLES, repeat=3):
        (b1, a1), (b2, a2), (b3, a3) = ((t.numerator, t.denominator) for t in triple)
        if (b1 * a2 * a3 + b2 * a1 * a3 + b3 * a1 * a2) % 2 == 0:
            continue
        desc = MontesinosDescription(triple)
        link = as_pretzel(desc)
        if link is not None:
            yield str(desc), link
