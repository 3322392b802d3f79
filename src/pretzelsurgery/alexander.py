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
is resolved once, in index order, into a few (multiplier, outcome)
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

Torus values of three or more terms are carried as numerators:
Delta_l = N_l / (1 + t) with the two-term N_l = s^(1-l) - (-1)^l s^(1+l).
A parallel region with |a| >= 3 takes numerators for both of its branch
multipliers and for its twist value in the cut, so after k such regions
every state and the cut lie over (1 + t)^k.  A torus-valued leaf with
|total| >= 3 takes its numerator too, one power above its expansion.  The
leaves are summed per power, each sum is brought to the top power, and the
total is divided once (``laurent.divide_by_one_plus_t``).  The state sum
thus multiplies and adds polynomials whose size does not grow with the
twists; the only work linear in the largest twist is the division and the
unpacking of its quotient.  Antiparallel regions, regions with |a| <= 2 and
smaller leaves keep their values Delta, so a knot with none of these
numerators divides by nothing.  The program of ``alexander_with_trace``
lists the values Delta, never the numerators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import cycle

from .laurent import SKEIN_FACTOR, LaurentPoly, divide_by_one_plus_t
from .pretzel import _MAX_TWIST, PretzelError, PretzelLink, parallel_regions


# ----------------------------------------------------------------------
# torus link polynomials

def _torus(l: int) -> LaurentPoly:
    """Conway-consistent Delta of the (2, l)-torus link, any integer l.

    Delta_0 = 0, Delta_1 = 1 and Delta_{l+1} = Delta_{l-1} + w Delta_l with
    w = s^-1 - s (s^2 = t).  The recursion's characteristic roots are s^-1
    and -s, so Delta_l = sum_{j<l} (-1)^j s^(2j-l+1): alternating unit
    coefficients on every other s-exponent from 1-l to l-1, built in O(l).
    Negative indices extend the same recursion (the mirror image), giving
    Delta_{-l} = (-1)^(l+1) Delta_l.  Only the values of at most two terms
    are kept, so no process-wide table grows with l.
    """
    value = _SMALL_TORUS.get(l)
    if value is not None:
        return value
    m = abs(l)
    sign = -1 if l < 0 and m % 2 == 0 else 1
    return LaurentPoly(dict(zip(range(1 - m, m, 2), cycle((sign, -sign)))))


# the values of at most two terms, built once by _torus itself
_SMALL_TORUS: dict[int, LaurentPoly] = {}
_SMALL_TORUS.update((l, _torus(l)) for l in range(-2, 3))


@functools.lru_cache(maxsize=256)
def _numerator(l: int) -> LaurentPoly:
    """N_l = (1 + t) Delta_l = s^(1-l) - (-1)^l s^(1+l), two terms for any
    l != 0: the sum for Delta_l above is geometric with ratio -s^2 = -t.
    A bounded cache keeps the recent ones."""
    return LaurentPoly({1 - l: 1, 1 + l: -1 if l % 2 == 0 else 1})


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
    |a| >= 2, in index order, as the state sum resolves them.  Links with
    at most two regions are closed forms and have no steps."""

    root: PretzelLink
    steps: list[SkeinStep]


# ----------------------------------------------------------------------
# the engine

_ONE = LaurentPoly.one()
_ZERO = LaurentPoly.zero()
_ONE_PLUS_T = LaurentPoly({0: 1, 2: 1})


def _twist_value(m: int, parallel: bool, *, lift: bool = False) -> tuple[LaurentPoly, int]:
    """Exact Conway value of the closed vertical (2, m) twist with the two
    strands running parallel or antiparallel, over its power of 1 + t:
    with ``lift``, a torus value of three or more terms comes as its
    numerator over (1 + t)^1, else every value comes over (1 + t)^0.

    A parallel twist is a torus value, and Delta_m(-s) = (-1)^(m+1) Delta_m
    = Delta_{-m} puts the vertical one at -m; an odd twist is a knot, and
    Delta_{-m} = Delta_m whatever the strands do.  An even antiparallel
    twist is (m/2) w.  A quarter turn exchanges the two smoothings, so a
    horizontal twist m is the vertical twist -m.
    """
    if parallel or m % 2 != 0:
        if lift and abs(m) >= 3:
            return _numerator(-m), 1
        return _torus(-m), 0
    return (m // 2) * SKEIN_FACTOR, 0


def _leaf_value(total: int, units: bool, has_even: bool, *, lift: bool = False) -> tuple[LaurentPoly, int]:
    """Conway value of a necklace that closes into one (2, total) twist:
    a necklace of +-1 regions (units), or one or two regions, in a knot
    with an even region or not (see the module docstring); over its power
    of 1 + t as in ``_twist_value``.

    A necklace of single crossings is a closed (2, m) braid whose strands
    run horizontally; each crossing joins TL to BR, so they run parallel
    iff they run antiparallel down the regions.  With one or two regions
    the total is odd, and an odd twist's value does not depend on flows.
    """
    if units:
        return _twist_value(-total, not has_even, lift=lift)
    return _twist_value(total, has_even, lift=lift)


def _choices(a: int, parallel: bool, lift: bool = False) -> tuple[tuple[LaurentPoly, int | None], ...]:
    """The (multiplier, outcome) branches that resolve a region a whose
    strands run parallel or antiparallel; with ``lift`` (a parallel region,
    |a| >= 3) both multipliers are numerators, over (1 + t)^1."""
    if abs(a) <= 1:
        return ((_ONE, a),)
    sign = 1 if a > 0 else -1
    if parallel:
        # parallel strands drawn as positive twists carry negative crossings
        # (and vice versa): the recursion runs on the mirror index -a
        value = _numerator if lift else _torus
        return ((value(sign - a), 0), (value(-a), sign))
    # antiparallel: crossing changes walk a to 0 (even) or sign(a) (odd),
    # and each change's smoothing caps the region off, leaving P(rest)
    r = 0 if a % 2 == 0 else sign
    return ((_ONE, r), (((a - r) // 2) * SKEIN_FACTOR, None))


def _collect(over: dict[int, LaurentPoly], power: int, value: LaurentPoly) -> None:
    """Add ``value`` to the sum over (1 + t)^power."""
    over[power] = over[power] + value if power in over else value


def _divide_out(over: dict[int, LaurentPoly]) -> LaurentPoly:
    """The sum of over[k] / (1 + t)^k: every term is brought to the top
    power, in Horner form, and the sum divided once."""
    top = max(over, default=0)
    total = over[0] if 0 in over else _ZERO
    for k in range(1, top + 1):
        total = total * _ONE_PLUS_T
        if k in over:
            total = total + over[k]
    return divide_by_one_plus_t(total, top)


def _state_sum(params, parallel, has_even: bool) -> LaurentPoly:
    """Sum over one branch per region, resolving the regions in index
    order (see the module docstring)."""
    # (sum of the kept +-1 regions, min(kept, 3)) -> the weight of the
    # expansions without a 0 region
    states: dict = {(0, 0): _ONE}
    cut = _ZERO  # expansions with one 0 region, in Horner form
    power = 0  # of 1 + t under every state and the cut
    over: dict[int, LaurentPoly] = {}  # power -> the leaves over (1 + t)^power
    for t, (a, par) in enumerate(zip(params, parallel)):
        lift = par and abs(a) >= 3
        power += lift
        if cut:
            # a cut needs an even region, so every odd region runs parallel and
            # this factor has at most two terms (guarded in test_alexander.py)
            cut = cut * _twist_value(a, par, lift=lift)[0]
        if not states:
            continue
        rest = params[t + 1:]
        merged: dict = {}
        for mult, outcome in _choices(a, par, lift):
            for (total, kept), weight in states.items():
                w = weight if mult is _ONE else (mult if weight is _ONE else mult * weight)
                if outcome == 0:
                    cut = cut + w
                    continue
                if outcome is None:
                    if kept + len(rest) == 2:
                        value, up = _leaf_value(
                            total + sum(rest), all(abs(b) == 1 for b in rest), has_even, lift=True
                        )
                        _collect(over, power + up, w * value)
                        continue
                    key = (total, kept)
                else:
                    key = (total + outcome, min(kept + 1, 3))
                merged[key] = merged[key] + w if key in merged else w
        states = merged
    for (total, _), weight in states.items():
        value, up = _leaf_value(total, True, has_even, lift=True)
        _collect(over, power + up, weight * value)
    if cut:
        _collect(over, power, cut)
    return _divide_out(over)


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
        return _leaf_value(sum(params), all(abs(a) == 1 for a in params), has_even)[0]
    return _state_sum(params, parallel, has_even)


def alexander_with_trace(link: PretzelLink) -> tuple[LaurentPoly, SkeinTrace]:
    value = alexander_skein(link)
    params = link.params
    regions = enumerate(zip(params, parallel_regions(link))) if len(params) > 2 else ()
    steps = [SkeinStep(i, a, _choices(a, par)) for i, (a, par) in regions if abs(a) >= 2]
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
