"""Crossing-by-crossing reference for the Fox oracle's strand walk: the
arbiter of ``pretzelsurgery.oracle.build_diagram``.

``walk`` follows the standard pretzel diagram one crossing at a time by
table lookups: the exit corner of a passage is the diagonally opposite one,
the next crossing of a region is entered at the corner above or below, and
a closure arc from a region's corner is looked up with the step to the
next region and the corner it enters there.  It returns the passage list
[(crossing, corner in)], which the tests of the strand flows and the Conway
arbiter read.  ``build_diagram`` labels those passages in a second pass.
Both raise the oracle's ``OracleError`` with its texts, and share nothing
else with it: the oracle walks by integer corner arithmetic and labels as
it walks.
"""

from pretzelsurgery.oracle import OracleError
from pretzelsurgery.pretzel import _MAX_TWIST, PretzelLink

# crossing corners
TL, TR, BL, BR = 0, 1, 2, 3
_DIAG_EXIT = {TL: BR, TR: BL, BL: TR, BR: TL}
_VERTICAL = {TL: BL, BL: TL, TR: BR, BR: TR}
# a closure arc from a region's corner: the step to the next region and
# the corner it enters there
_ACROSS = {TR: (1, TL), BR: (1, BL), TL: (-1, TR), BL: (-1, BR)}
# the direction of travel through a crossing entered at each corner
DIRECTION = {TL: (1, -1), TR: (-1, -1), BL: (1, 1), BR: (-1, 1)}


def _regions(link: PretzelLink) -> tuple[int, ...]:
    """The twist regions of the diagram drawn: P(a) is drawn as P(a, 0),
    whose zero region's vertical strands are the side arcs."""
    return link.params if link.n_regions > 1 else link.params + (0,)


def walk(link: PretzelLink) -> list[tuple[int, int]]:
    """Traverse the knot from the top-left corner of crossing 0, returning
    the passage list [(crossing, corner in)].  Raises OracleError for a
    link: no crossing, a return to the start before 2c passages, or a
    closure arc missed (two adjacent zero regions bound a circle with no
    crossing)."""
    params = _regions(link)
    n = len(params)
    arcs = 0  # closure arcs walked
    region_crossings = []
    region_of = []  # the region of each crossing id
    for i, a in enumerate(params):
        region_crossings.append(range(len(region_of), len(region_of) + abs(a)))
        region_of.extend([i] * abs(a))

    def arc_partner(cid: int, corner: int):
        nonlocal arcs
        region = region_of[cid]
        ids = region_crossings[region]
        if corner in (BL, BR) and cid + 1 < ids.stop:
            return cid + 1, _VERTICAL[corner]
        if corner in (TL, TR) and cid > ids.start:
            return cid - 1, _VERTICAL[corner]
        # region boundary: follow closure arcs, passing through zero regions
        i, port = region, corner  # region-level port has the same corner role
        while True:
            arcs += 1
            step, port = _ACROSS[port]
            i = (i + step) % n
            if params[i] != 0:
                ids = region_crossings[i]
                return (ids[0] if port in (TL, TR) else ids[-1]), port
            # zero region: vertical pass-through
            port = _VERTICAL[port]

    c = link.crossing_count
    if c == 0:
        raise OracleError(f"{link} is not a knot: the diagram has no crossings")
    passages = []
    start = state = (0, TL)
    for _ in range(2 * c):
        passages.append(state)
        state = arc_partner(state[0], _DIAG_EXIT[state[1]])
        if state == start:
            break
    if len(passages) < 2 * c:
        raise OracleError(f"{link} is not a knot: the strand walk closes after {len(passages)} of {2 * c} passages")
    if state != start:
        raise OracleError(f"{link}: strand walk did not close up after {2 * c} passages")
    if arcs < 2 * n:
        raise OracleError(f"{link} is not a knot: the strand walk misses a circle with no crossing")
    return passages


def build_diagram(link: PretzelLink) -> list[tuple[int, int, int, int]]:
    """Wirtinger relations (over, under_in, under_out, sign) over the arcs
    0..c-1, labelled over the passages of ``walk``."""
    if max(map(abs, link.params)) > _MAX_TWIST:
        raise OracleError(f"{link}: twist regions of more than {_MAX_TWIST} crossings are not supported")
    passages = walk(link)
    c = link.crossing_count
    # the over-strand runs TL-BR at the crossings of a positive region
    positive = [a > 0 for a in link.params for _ in range(abs(a))]

    # arc labels: increment after each under-passage; label c wraps to 0.
    # The sign is that of ox*uy - oy*ux for the over and under directions,
    # which is 2*ox*uy in either kind of region.
    over = [0] * c
    under_in = [0] * c
    sign = [1] * c
    label = 0
    for cid, corner in passages:
        x, y = DIRECTION[corner]
        if (corner == TL or corner == BR) == positive[cid]:
            over[cid] = label % c
            sign[cid] *= x
        else:
            under_in[cid] = label
            sign[cid] *= y
            label += 1
    if label != c:
        raise OracleError("under-passage count does not match crossing count")
    return [(o, i, (i + 1) % c, s) for o, i, s in zip(over, under_in, sign)]
