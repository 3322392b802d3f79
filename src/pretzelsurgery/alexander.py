"""Alexander polynomials of pretzel knots by a region-by-region skein state sum.

The engine works with the Conway-consistent representatives that satisfy
the skein relation Delta(L+) - Delta(L-) = (t^(-1/2) - t^(1/2)) Delta(L0)
exactly; results are therefore "Delta up to units", with unit choices kept
coherent inside a single computation so that the state sum is an exact
identity.  Normalization is left to the caller.

The sum runs over oriented pretzel links: every sub-link keeps, on each of
its regions, the strand flows that region had in the root knot, since
crossing changes and oriented smoothings never change them, and
``pretzel.parallel_regions`` reads them from the parities.  Each region
is resolved once, in ascending |a| order, into a few (multiplier, outcome)
branches chosen by its flows:

* parallel strands: the torus-link recursion leaves the region at 0 or
  +-1, with torus-link polynomial multipliers;
* antiparallel strands: crossing changes walk the region to 0 or +-1, and
  the smoothing of each change caps the region off at top and bottom,
  which removes it from the necklace;
* a region with |a| <= 1 is kept as it is.

One branch per region is an expansion, and three kinds of leaf close the
expansions in closed form:

* a 0 region cuts the necklace into a connected sum of (2, a)-torus
  factors, one per region still unresolved; all such expansions share one
  accumulator, multiplied by the factor of each region resolved after it
  (a second 0 is the factor 0: a split link);
* a removal that leaves two regions gives P(a, b), the (2, a + b)-torus
  link, so no expansion shrinks to a single region;
* an expansion that keeps every region at +-1 is a necklace of single
  crossings, the (2, m)-torus link with m the sum of the regions.

Every kept +-1 region (odd, or a parallel even one) and every P(a, b) leaf
is parallel iff the knot has an even region, so until then an expansion is
known by the sum of its kept +-1 regions and their number (counted up to
3); expansions that agree on these are added, so the work is polynomial in
the number of regions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import cycle

from .laurent import SKEIN_FACTOR, LaurentPoly
from .pretzel import _MAX_TWIST, PretzelError, PretzelLink, parallel_regions


# ----------------------------------------------------------------------
# torus link polynomials

@functools.cache
def _torus(l: int) -> LaurentPoly:
    """Conway-consistent Delta of the (2, l)-torus link, any integer l.

    Delta_0 = 0, Delta_1 = 1 and Delta_{l+1} = Delta_{l-1} + w Delta_l with
    w = s^-1 - s (s^2 = t).  The recursion's characteristic roots are s^-1
    and -s, so Delta_l = sum_{j<l} (-1)^j s^(2j-l+1): alternating unit
    coefficients on every other s-exponent from 1-l to l-1, built in O(l).
    Negative indices extend the same recursion (the mirror image), giving
    Delta_{-l} = (-1)^(l+1) Delta_l.  The cache keeps only the values asked
    for: a pretzel knot needs a few per region.
    """
    m = abs(l)
    sign = -1 if l < 0 and m % 2 == 0 else 1
    return LaurentPoly(dict(zip(range(1 - m, m, 2), cycle((sign, -sign)))))


def torus_link_alexander(l: int) -> LaurentPoly:
    """Delta of the (2, l)-torus link, l >= 1."""
    if l < 1:
        raise ValueError("torus link parameter must be a positive integer")
    return _torus(l)


# ----------------------------------------------------------------------
# the per-region program

@dataclass(frozen=True)
class SkeinStep:
    """The resolution of one region: each branch is a (multiplier, outcome)
    pair, the outcome being the region's new parameter (0 or +-1), or None
    when the branch removes the region."""

    region_index: int
    param: int
    branches: tuple[tuple[LaurentPoly, int | None], ...]


@dataclass
class SkeinTrace:
    """The program of one computation: a step for each region with
    |a| >= 2, in the order the state sum resolves them.  Links with at most
    two regions are closed forms and have no steps."""

    root: PretzelLink
    steps: list[SkeinStep]


# ----------------------------------------------------------------------
# the engine

_ONE = LaurentPoly.one()


def _twist_value(m: int, parallel: bool, *, horizontal: bool = False) -> LaurentPoly:
    """Exact Conway value of the closed (2, m) twist with the two strands
    running parallel or antiparallel.

    A quarter turn of the picture exchanges the roles of the two smoothing
    conventions, so twists read along a horizontal braid axis take w -> -w
    against vertical twist regions.  A parallel twist is a torus value, and
    Delta_m(-s) = (-1)^(m+1) Delta_m = Delta_{-m} puts the vertical one at
    -m; an odd twist is a knot, and Delta_{-m} = Delta_m whatever the
    strands do.  An even antiparallel twist is (m/2) w.
    """
    if parallel or m % 2 != 0:
        return _torus(m if horizontal else -m)
    return (m // 2) * (-SKEIN_FACTOR if horizontal else SKEIN_FACTOR)


def _leaf_value(total: int, units: bool, has_even: bool) -> LaurentPoly:
    """Conway value of a necklace that closes into one (2, total) twist:
    a necklace of +-1 regions (units), or one or two regions, in a knot
    with an even region or not (see the module docstring).

    A necklace of single crossings is a closed (2, m) braid whose strands
    run horizontally; each crossing joins TL to BR, so they run parallel
    iff they run antiparallel down the regions.  With one or two regions
    the total is odd, and an odd twist's value does not depend on flows.
    """
    if units:
        return _twist_value(total, not has_even, horizontal=True)
    return _twist_value(total, has_even)


def _choices(a: int, parallel: bool) -> tuple[tuple[LaurentPoly, int | None], ...]:
    """The (multiplier, outcome) branches that resolve a region a whose
    strands run parallel or antiparallel."""
    if abs(a) <= 1:
        return ((_ONE, a),)
    sign = 1 if a > 0 else -1
    if parallel:
        # parallel strands drawn as positive twists carry negative crossings
        # (and vice versa): the recursion runs on the mirror index -a
        return ((_torus(sign - a), 0), (_torus(-a), sign))
    # antiparallel: crossing changes walk a to 0 (even) or sign(a) (odd),
    # and each change's smoothing caps the region off, leaving P(rest)
    r = 0 if a % 2 == 0 else sign
    return ((_ONE, r), (((a - r) // 2) * SKEIN_FACTOR, None))


def _resolution_order(params) -> list[int]:
    """Ascending |a|, ties by index: the accumulated weights meet the
    largest torus values last."""
    return sorted(range(len(params)), key=lambda i: (abs(params[i]), i))


def _state_sum(params, parallel, has_even: bool, order: list[int]) -> LaurentPoly:
    """Sum over one branch per region, resolving the regions in ``order``
    (see the module docstring)."""
    # (sum of the kept +-1 regions, min(kept, 3)) -> the weight of the
    # expansions without a 0 region
    states: dict = {(0, 0): _ONE}
    cut = LaurentPoly.zero()  # expansions with one 0 region, in Horner form
    closed = LaurentPoly.zero()  # expansions closed as P(a, b)
    for t, i in enumerate(order):
        if cut:
            cut = cut * _twist_value(params[i], parallel[i])
        if not states:
            continue
        rest = order[t + 1:]
        merged: dict = {}
        for mult, outcome in _choices(params[i], parallel[i]):
            for (total, kept), weight in states.items():
                w = weight if mult is _ONE else (mult if weight is _ONE else mult * weight)
                if outcome == 0:
                    cut = cut + w
                    continue
                if outcome is None:
                    if kept + len(rest) == 2:
                        pair = [params[j] for j in rest]
                        closed = closed + w * _leaf_value(
                            total + sum(pair), all(abs(a) == 1 for a in pair), has_even
                        )
                        continue
                    key = (total, kept)
                else:
                    key = (total + outcome, min(kept + 1, 3))
                merged[key] = merged[key] + w if key in merged else w
        states = merged
    for (total, _), weight in states.items():
        closed = closed + weight * _leaf_value(total, True, has_even)
    return cut + closed


def alexander_skein(link: PretzelLink) -> LaurentPoly:
    """Delta of a pretzel knot, up to units (Conway-consistent
    representative; apply LaurentPoly.normalize for the paper's form).
    Raises PretzelError when the link has more than one component or a
    region of more than ``_MAX_TWIST`` crossings."""
    params = link.params
    if max(map(abs, params)) > _MAX_TWIST:
        raise PretzelError(f"{link}: twist regions of more than {_MAX_TWIST} crossings are not supported")
    parallel = parallel_regions(link)
    has_even = any(a % 2 == 0 for a in params)
    if len(params) <= 2:
        return _leaf_value(sum(params), all(abs(a) == 1 for a in params), has_even)
    return _state_sum(params, parallel, has_even, _resolution_order(params))


def alexander_with_trace(link: PretzelLink) -> tuple[LaurentPoly, SkeinTrace]:
    value = alexander_skein(link)
    params = link.params
    parallel = parallel_regions(link)
    order = _resolution_order(params) if len(params) > 2 else []
    steps = [
        SkeinStep(i, params[i], _choices(params[i], parallel[i]))
        for i in order
        if abs(params[i]) >= 2
    ]
    return value, SkeinTrace(link, steps)


# ----------------------------------------------------------------------
# closed forms from the twist-resolution identities

def claim_formula(tag) -> LaurentPoly:
    """Direct evaluation of the closed-form Delta for the (-1, 2n, p, q)
    family (all three sign cases of n), as an internal consistency oracle
    for the skein engine.  Result is up to units.
    """
    from .pretzel import FamilyKind, FamilyTag  # local import avoids cycle

    if not isinstance(tag, FamilyTag) or tag.kind is not FamilyKind.MINUS1_2N:
        raise ValueError("closed forms exist only for the (-1,2n,p,q) family")
    n, p, q = tag.index, tag.p, tag.q
    if n == 0 or p is None or q is None:
        raise ValueError("invalid family parameters")
    w = SKEIN_FACTOR
    if n < 0:
        b = -2 * n
        return (
            _torus(b - 1) * _torus(p) * _torus(q)
            - _torus(b) * _torus(p - 1) * _torus(q)
            - _torus(b) * _torus(p) * _torus(q - 1)
        )
    if n == 1:
        # P(-1,2,p,q) = P(-2,p,q): one antiparallel crossing change
        return _torus(p) * _torus(q) + w * _torus(p + q)
    return (
        _torus(2 * n - 1) * _torus(p) * _torus(q)
        + _torus(2 * n) * _torus(p - 1) * _torus(q)
        + _torus(2 * n) * _torus(p) * _torus(q - 1)
        + w * _torus(2 * n) * _torus(p) * _torus(q)
    )


__all__ = [
    "SkeinStep",
    "SkeinTrace",
    "torus_link_alexander",
    "alexander_skein",
    "alexander_with_trace",
    "claim_formula",
]
