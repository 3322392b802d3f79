"""Alexander polynomials of pretzel knots by a region-by-region skein state sum.

The engine works with the Conway-consistent representatives that satisfy
the skein relation Delta(L+) - Delta(L-) = (t^(-1/2) - t^(1/2)) Delta(L0)
exactly; results are therefore "Delta up to units", with unit choices kept
coherent inside a single computation so that the state sum is an exact
identity.  Normalization is left to the caller.

The sum runs over oriented pretzel links: every sub-link keeps, on each of
its regions, the strand flows that region had in the root knot, since
crossing changes and oriented smoothings never change them.  Each region
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

Until then an expansion is known by the sum of its kept +-1 regions, their
number (counted up to 3) and the flows of the first; expansions that agree
on these are added, so the work is polynomial in the number of regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import SKEIN_FACTOR, LaurentPoly
from .pretzel import PretzelLink, RegionFlags, orientation_flags


# ----------------------------------------------------------------------
# torus link polynomials

# Process-wide cache: _TORUS[l] is the (2, l) value for l >= 0, filled
# bottom-up so that large l needs no deep recursion.
_TORUS: list[LaurentPoly] = [LaurentPoly.zero(), LaurentPoly.one()]


def _torus(l: int) -> LaurentPoly:
    """Conway-consistent Delta of the (2, l)-torus link, any integer l.

    Delta_0 = 0, Delta_1 = 1, Delta_{l+1} = Delta_{l-1} + w Delta_l with
    w = t^(-1/2) - t^(1/2); negative indices extend the same recursion
    (the mirror image), giving Delta_{-l} = (-1)^(l+1) Delta_l.
    """
    if l < 0:
        value = _torus(-l)
        return value if l % 2 != 0 else -value
    while len(_TORUS) <= l:
        _TORUS.append(_TORUS[-2] + SKEIN_FACTOR * _TORUS[-1])
    return _TORUS[l]


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


def _tbar(l: int) -> LaurentPoly:
    """The (2, l)-torus value with parallel strands and reversed crossing
    orientation signs: _torus(l) with w replaced by -w."""
    value = _torus(l)
    return value if l % 2 != 0 else -value


def _twist_value(m: int, parallel: bool, *, horizontal: bool = False) -> LaurentPoly:
    """Exact Conway value of the closed (2, m) twist with the two strands
    running parallel or antiparallel.

    A quarter turn of the picture exchanges the roles of the two smoothing
    conventions, so twists read along a horizontal braid axis take the
    opposite sign convention from vertical twist regions.
    """
    if m % 2 != 0:
        return _torus(abs(m))
    if m == 0:
        return LaurentPoly.zero()
    if parallel:
        return _torus(m) if horizontal else _tbar(m)
    half = (m // 2) * SKEIN_FACTOR
    return -half if horizontal else half


def _factor_value(a: int, flag: RegionFlags) -> LaurentPoly:
    """Conway value of one closed (2, a) twist connected-sum factor."""
    return _twist_value(a, flag.parallel)


def _leaf_value(total: int, units: bool, flag: RegionFlags) -> LaurentPoly:
    """Conway value of a necklace that closes into one (2, total) twist:
    a necklace of +-1 regions (units), or one or two regions.

    A necklace of single crossings is a closed (2, m) braid whose two
    strands run horizontally, so parallelism is read across the left-hand
    ports, not down each region.  Each strand keeps its horizontal
    direction all round the necklace, so any region tells.  A lone region
    closes with side arcs, and in a two-region necklace P(a, b) both
    regions carry the same strand flow.
    """
    if units:
        return _twist_value(total, flag.tl == flag.bl, horizontal=True)
    return _twist_value(total, flag.parallel)


def _choices(a: int, flag: RegionFlags) -> tuple[tuple[LaurentPoly, int | None], ...]:
    """The (multiplier, outcome) branches that resolve a region a with the
    strand flows ``flag``."""
    if abs(a) <= 1:
        return ((_ONE, a),)
    if flag.parallel:
        # parallel strands drawn as positive twists carry negative crossings
        # (and vice versa), fixing which twist recursion applies
        if a > 0:
            return ((_tbar(a - 1), 0), (_tbar(a), 1))
        return ((_torus(-a - 1), 0), (_torus(-a), -1))
    # antiparallel: crossing changes walk a to 0 (even) or sign(a) (odd),
    # and each change's smoothing caps the region off, leaving P(rest)
    r = 0 if a % 2 == 0 else (1 if a > 0 else -1)
    return ((_ONE, r), (((a - r) // 2) * SKEIN_FACTOR, None))


def _resolution_order(params) -> list[int]:
    """Ascending |a|, ties by index: the accumulated weights meet the
    largest torus values last."""
    return sorted(range(len(params)), key=lambda i: (abs(params[i]), i))


def _state_sum(params, flags, order: list[int]) -> LaurentPoly:
    """Sum over one branch per region, resolving the regions in ``order``
    (see the module docstring)."""
    # (sum of the kept +-1 regions, min(kept, 3), flags of the first kept
    # region) -> the weight of the expansions without a 0 region
    states: dict = {(0, 0, None): _ONE}
    cut = LaurentPoly.zero()  # expansions with one 0 region, in Horner form
    closed = LaurentPoly.zero()  # expansions closed as P(a, b)
    for t, i in enumerate(order):
        if cut:
            cut = cut * _factor_value(params[i], flags[i])
        if not states:
            continue
        rest = order[t + 1:]
        merged: dict = {}
        for mult, outcome in _choices(params[i], flags[i]):
            for (total, kept, first), weight in states.items():
                w = weight if mult is _ONE else (mult if weight is _ONE else mult * weight)
                if outcome == 0:
                    cut = cut + w
                    continue
                if outcome is None:
                    if kept + len(rest) == 2:
                        pair = [params[j] for j in rest]
                        closed = closed + w * _leaf_value(
                            total + sum(pair),
                            all(abs(a) == 1 for a in pair),
                            first or flags[rest[0]],
                        )
                        continue
                    key = (total, kept, first)
                else:
                    key = (total + outcome, min(kept + 1, 3), first or flags[i])
                merged[key] = merged[key] + w if key in merged else w
        states = merged
    for (total, _, first), weight in states.items():
        closed = closed + weight * _leaf_value(total, True, first)
    return cut + closed


def alexander_skein(link: PretzelLink) -> LaurentPoly:
    """Delta of a pretzel knot, up to units (Conway-consistent
    representative; apply LaurentPoly.normalize for the paper's form).
    Raises PretzelError when the link has more than one component."""
    flags = orientation_flags(link)
    params = link.params
    if len(params) <= 2:
        return _leaf_value(sum(params), all(abs(a) == 1 for a in params), flags[0])
    return _state_sum(params, flags, _resolution_order(params))


def alexander_with_trace(link: PretzelLink) -> tuple[LaurentPoly, SkeinTrace]:
    value = alexander_skein(link)
    params = link.params
    flags = orientation_flags(link)
    order = _resolution_order(params) if len(params) > 2 else []
    steps = [
        SkeinStep(i, params[i], _choices(params[i], flags[i]))
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
