"""Alexander polynomials of pretzel knots by twist-region skein resolution.

The engine works with the Conway-consistent representatives that satisfy
the skein relation Delta(L+) - Delta(L-) = (t^(-1/2) - t^(1/2)) Delta(L0)
exactly; results are therefore "Delta up to units", with unit choices kept
coherent inside a single computation so that resolving-tree recombination
is an exact identity.  Normalization is left to the caller.

The recursion runs on oriented pretzel links.  A state is the necklace of
the root's regions that remain, each with its current parameter and the
strand flows it had in the root knot: crossing changes and oriented
smoothings never change them.  One twist region at a time is resolved
down to parameter 0 or +-1, according to its flows:

* parallel strands: smoothing removes one crossing, so the region obeys
  the torus-link recursion and splits into two sub-links with torus-link
  polynomial multipliers;
* antiparallel strands: smoothing caps the region off at top and bottom,
  which leaves the pretzel link P(rest) on the other regions, so each
  crossing change peels off one copy of P(rest).

Terminal links are evaluated in closed form: a 0 region cuts the necklace
into a connected sum of (2, a)-torus factors, a necklace of +-1 regions is
a (2, m)-torus link, and a two-region link P(a, b) is the (2, a + b)-torus
link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# resolving trace

@dataclass(frozen=True)
class SkeinStep:
    """One resolution: link_before splits at region_index into branches,
    each a (multiplier, sub-link) pair."""

    link_before: PretzelLink
    region_index: int
    branches: tuple[tuple[LaurentPoly, PretzelLink], ...]


@dataclass
class SkeinTrace:
    """Resolving tree audit record.

    ``value`` is the exact recursion result; ``final`` maps each terminal
    leaf to its accumulated multiplier and ``leaf_values`` to its
    closed-form polynomial, so that
    sum(final[L] * leaf_values[L]) == value exactly.  A leaf is keyed by
    its link and the root indices of its regions: the regions keep their
    root orientations, so equal parameters alone need not mean equal
    oriented links.
    """

    root: PretzelLink
    value: LaurentPoly = field(default_factory=LaurentPoly.zero)
    steps: list[SkeinStep] = field(default_factory=list)
    final: dict[tuple[PretzelLink, tuple[int, ...]], LaurentPoly] = field(
        default_factory=dict
    )
    leaf_values: dict[tuple[PretzelLink, tuple[int, ...]], LaurentPoly] = field(
        default_factory=dict
    )

    def recombined(self) -> LaurentPoly:
        total = LaurentPoly.zero()
        for leaf, mult in self.final.items():
            total = total + mult * self.leaf_values[leaf]
        return total


# ----------------------------------------------------------------------
# the engine

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


def _leaf_value(params, flags) -> LaurentPoly | None:
    """Closed form for terminal links, or None when a region still needs
    resolving."""
    if len(params) == 1:
        # side-arc closure of a lone region: the (2, a)-torus link
        return _factor_value(params[0], flags[0])
    zeros = [i for i, a in enumerate(params) if a == 0]
    if len(zeros) >= 2:
        return LaurentPoly.zero()  # split link
    if len(zeros) == 1:
        # a 0 region cuts the necklace: connected sum of (2, a_j) factors
        value = LaurentPoly.one()
        for j, a in enumerate(params):
            if j != zeros[0]:
                value = value * _factor_value(a, flags[j])
        return value
    if all(abs(a) == 1 for a in params):
        # a necklace of single crossings is a closed (2, m) braid whose two
        # strands run horizontally, so parallelism is read across the
        # left-hand ports, not down each region.  Each strand keeps its
        # horizontal direction all round the necklace, so one region tells.
        return _twist_value(
            sum(params), flags[0].tl == flags[0].bl, horizontal=True
        )
    if len(params) == 2:
        # P(a, b) is the (2, a + b)-torus link; in a two-region necklace
        # both regions carry the same strand flow
        return _twist_value(params[0] + params[1], flags[0].parallel)
    return None


def _pick_region(params) -> int:
    """Region to resolve next: leftmost even with |a| >= 2, else leftmost
    with |a| >= 2 (mirrors the resolution order of the closed forms)."""
    for i, a in enumerate(params):
        if a % 2 == 0 and abs(a) >= 2:
            return i
    for i, a in enumerate(params):
        if abs(a) >= 2:
            return i
    raise AssertionError("no resolvable region in a non-leaf link")


def _branches(params, regions, flags, i):
    """The (multiplier, sub-state) pairs for resolving region i of the
    state (params, regions, flags)."""
    a = params[i]
    head, tail = params[:i], params[i + 1:]
    if flags[i].parallel:
        # parallel strands drawn as positive twists carry negative crossings
        # (and vice versa), fixing which twist recursion applies
        zero = (head + (0,) + tail, regions, flags)
        if a > 0:
            return (
                (_tbar(a - 1), zero),
                (_tbar(a), (head + (1,) + tail, regions, flags)),
            )
        b = -a
        return (
            (_torus(b - 1), zero),
            (_torus(b), (head + (-1,) + tail, regions, flags)),
        )
    # antiparallel: crossing changes walk a to 0 (even) or sign(a) (odd),
    # and each change's smoothing leaves P(rest) on the other regions
    r = 0 if a % 2 == 0 else (1 if a > 0 else -1)
    k = (abs(a) - abs(r)) // 2
    sgn = 1 if a > 0 else -1
    rest = (
        head + tail,
        regions[:i] + regions[i + 1:],
        flags[:i] + flags[i + 1:],
    )
    return (
        (LaurentPoly.one(), (head + (r,) + tail, regions, flags)),
        ((sgn * k) * SKEIN_FACTOR, rest),
    )


def alexander_skein(
    link: PretzelLink, *, memoize: bool = True
) -> LaurentPoly:
    """Delta of a pretzel knot, up to units (Conway-consistent
    representative; apply LaurentPoly.normalize for the paper's form).
    Raises PretzelError when the link has more than one component."""
    return _run(link, memoize=memoize, trace=None)


def alexander_with_trace(
    link: PretzelLink, *, memoize: bool = True
) -> tuple[LaurentPoly, SkeinTrace]:
    trace = SkeinTrace(root=link)
    trace.value = _run(link, memoize=memoize, trace=trace)
    return trace.value, trace


def _run(link, *, memoize, trace):
    root_flags = orientation_flags(link)
    memo: dict | None = {} if memoize else None
    # per state: the leaves it expands to, with accumulated multipliers
    leafmaps: dict = {}

    def rec(params, regions, flags) -> LaurentPoly:
        key = (params, regions)
        if memo is not None and key in memo:
            return memo[key]
        value = _leaf_value(params, flags)
        if value is not None:
            if trace is not None:
                leaf = (PretzelLink(params), regions)
                trace.leaf_values[leaf] = value
                leafmaps[key] = {leaf: LaurentPoly.one()}
        else:
            i = _pick_region(params)
            branches = _branches(params, regions, flags, i)
            value = LaurentPoly.zero()
            for mult, sub in branches:
                value = value + mult * rec(*sub)
            if trace is not None:
                if key not in leafmaps:
                    trace.steps.append(
                        SkeinStep(
                            PretzelLink(params),
                            i,
                            tuple((m, PretzelLink(sub[0])) for m, sub in branches),
                        )
                    )
                combined: dict = {}
                for mult, (sub, sub_regions, _) in branches:
                    for leaf, m in leafmaps[(sub, sub_regions)].items():
                        combined[leaf] = combined.get(
                            leaf, LaurentPoly.zero()
                        ) + mult * m
                leafmaps[key] = combined
        if memo is not None:
            memo[key] = value
        return value

    root = (link.params, tuple(range(link.n_regions)))
    value = rec(*root, root_flags)
    if trace is not None:
        trace.final = {k: v for k, v in leafmaps[root].items() if not v.is_zero}
    return value


# ----------------------------------------------------------------------
# closed forms from the twist-resolution identities

def claim_formula(tag) -> LaurentPoly:
    """Direct evaluation of the closed-form Delta for the (-1, 2n, p, q)
    family (all three sign cases of n), as an internal consistency oracle
    for the recursive engine.  Result is up to units.
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
