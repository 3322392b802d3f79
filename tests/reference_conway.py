"""Independent ground-truth invariant: the Conway polynomial computed by
descending-diagram skein recursion on signed oriented Gauss codes.

Exponential in crossing number; only usable on small diagrams, but shares
no code path with the twist-region engine beyond the crossing-sign
assignment of the Wirtinger builder: the last entry, x(over) * y(under),
of each ``build_diagram`` relation tuple.  Its sums and products are
``reference_laurent``'s, not the ``alexander._product`` and ``_sum`` that
the engine's state sum runs.
"""

from functools import lru_cache

from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery.oracle import build_diagram
from pretzelsurgery.pretzel import PretzelLink

from reference_laurent import SKEIN_FACTOR, add, multiply, scale
from reference_walk import walk

# a diagram is a tuple of components; each component is a tuple of
# passages (crossing_id, is_over, sign)


def gauss_from_pretzel(link: PretzelLink):
    relations = build_diagram(link)
    passages = walk(link)
    # crossing ids run region by region
    region_of = [i for i, a in enumerate(link.params) for _ in range(abs(a))]
    comp = []
    for cid, corner in passages:
        over_diag_tlbr = link.params[region_of[cid]] > 0
        is_over = (corner in (0, 3)) == over_diag_tlbr  # TL=0, BR=3
        comp.append((cid, is_over, relations[cid][3]))
    return (tuple(comp),)


def _relabel(diagram):
    mapping = {}
    for comp in diagram:
        for cid, _, _ in comp:
            if cid not in mapping:
                mapping[cid] = len(mapping)
    return tuple(
        tuple((mapping[c], o, s) for c, o, s in comp) for comp in diagram
    )


def conway(diagram) -> LaurentPoly:
    _conway.cache_clear()
    try:
        return _conway(_relabel(diagram))
    finally:
        _conway.cache_clear()


def conway_pretzel(params) -> LaurentPoly:
    return conway(gauss_from_pretzel(PretzelLink(tuple(params))))


@lru_cache(maxsize=None)
def _conway(diagram) -> LaurentPoly:
    comps = [c for c in diagram if c]
    if len(diagram) > len(comps):
        # a crossing-free component splits off unless it is the whole link
        return LaurentPoly({0: 1}) if len(diagram) == 1 else LaurentPoly()
    if not comps:
        return LaurentPoly({0: 1})
    # first passage violating the descending order
    target = None
    visited = set()
    for ci, comp in enumerate(comps):
        for pi, (cid, is_over, sign) in enumerate(comp):
            if cid in visited:
                continue
            visited.add(cid)
            if not is_over:
                target = (ci, pi, cid, sign)
                break
        if target:
            break
    if target is None:
        # descending diagrams are unlinks
        return LaurentPoly({0: 1}) if len(comps) == 1 else LaurentPoly()
    _, _, cid, sign = target
    switched = tuple(
        tuple(
            (c, (not o) if c == cid else o, -s if c == cid else s)
            for c, o, s in comp
        )
        for comp in comps
    )
    locs = [
        (a, b)
        for a, comp in enumerate(comps)
        for b, (c, _, _) in enumerate(comp)
        if c == cid
    ]
    (a1, b1), (a2, b2) = locs
    smoothed = []
    if a1 == a2:
        comp = comps[a1]
        lo, hi = sorted((b1, b2))
        smoothed.append(comp[lo + 1:hi])
        smoothed.append(comp[:lo] + comp[hi + 1:])
        smoothed.extend(c for a, c in enumerate(comps) if a != a1)
    else:
        xr = comps[a1][b1 + 1:] + comps[a1][:b1]
        yr = comps[a2][b2 + 1:] + comps[a2][:b2]
        smoothed.extend(c for a, c in enumerate(comps) if a not in (a1, a2))
        smoothed.append(xr + yr)
    res = _conway(_relabel(switched))
    smv = _conway(_relabel(tuple(smoothed)))
    return add(res, scale(multiply(SKEIN_FACTOR, smv), sign))
