"""Ground-truth Alexander polynomials via Fox calculus.

Builds the Wirtinger presentation of the standard pretzel diagram (same
template as the strand tracer), abelianizes every meridian to t, and takes
the minor of the Alexander matrix that drops the last relation and arc.
Its rows are sparse {arc: value} maps of integers packed at
t = X = 2**(8*nbytes), built straight from the relations.  Every Wirtinger
row holds an entry +-1 (the outgoing under-arc at a positive crossing, the
incoming one at a negative crossing), and a Schur complement on a unit
pivot changes the determinant only by a sign, so a work queue eliminates
unit pivots while any are left.  Fraction-free (Bareiss) elimination takes
the few rows that remain, and one ``kronecker_unpack`` reads the
coefficients back.  Nothing here shares a convention with the skein engine
beyond the diagram template itself, which is the point: it is the
independent check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .laurent import LaurentPoly, kronecker_unpack, slot_bytes
from .pretzel import _MAX_TWIST, PretzelLink, is_knot


class OracleError(ValueError):
    pass


# crossing corners
_TL, _TR, _BL, _BR = 0, 1, 2, 3
_DIAG_EXIT = {_TL: _BR, _TR: _BL, _BL: _TR, _BR: _TL}
_VERTICAL = {_TL: _BL, _BL: _TL, _TR: _BR, _BR: _TR}
# the direction of travel through a crossing entered at each corner
_DIRECTION = {_TL: (1, -1), _TR: (-1, -1), _BL: (1, 1), _BR: (-1, 1)}


@dataclass(frozen=True)
class CrossingRelation:
    """One Wirtinger relation: arcs are numbered 0..c-1."""

    over: int
    under_in: int
    under_out: int
    sign: int


@dataclass(frozen=True)
class WirtingerPresentation:
    generator_count: int
    relations: tuple[CrossingRelation, ...]


def _walk(link: PretzelLink):
    """Traverse the knot, returning the passage list [(crossing, corner in)]
    and each region's range of crossing ids."""
    n = link.n_regions
    params = link.params
    region_crossings = []
    region_of = []  # the region of each crossing id
    for i, a in enumerate(params):
        region_crossings.append(range(len(region_of), len(region_of) + abs(a)))
        region_of.extend([i] * abs(a))

    def arc_partner(cid: int, corner: int):
        region = region_of[cid]
        ids = region_crossings[region]
        if corner in (_BL, _BR) and cid + 1 < ids.stop:
            return cid + 1, _VERTICAL[corner]
        if corner in (_TL, _TR) and cid > ids.start:
            return cid - 1, _VERTICAL[corner]
        # region boundary: follow closure arcs, passing through zero regions
        i, port = region, corner  # region-level port has the same corner role
        while True:
            # arc edge
            if n == 1:
                # side-arc closure: the lone region is a (2, a)-torus link
                port = _VERTICAL[port]
                i = 0
            elif port == _TR:
                i, port = (i + 1) % n, _TL
            elif port == _BR:
                i, port = (i + 1) % n, _BL
            elif port == _TL:
                i, port = (i - 1) % n, _TR
            else:
                i, port = (i - 1) % n, _BR
            if params[i] != 0:
                ids = region_crossings[i]
                return (ids[0] if port in (_TL, _TR) else ids[-1]), port
            # zero region: vertical pass-through
            port = _VERTICAL[port]

    c = link.crossing_count
    passages = []
    state = (0, _TL)
    for _ in range(2 * c):
        passages.append(state)
        state = arc_partner(state[0], _DIAG_EXIT[state[1]])
    if state != (0, _TL):
        raise OracleError(f"{link}: strand walk did not close up (not a knot?)")
    return passages, region_crossings


def build_diagram(link: PretzelLink) -> WirtingerPresentation:
    """Wirtinger presentation of the standard pretzel diagram of a knot
    with no region of more than ``_MAX_TWIST`` crossings."""
    if max(map(abs, link.params)) > _MAX_TWIST:
        raise OracleError(f"{link}: twist regions of more than {_MAX_TWIST} crossings are not supported")
    if not is_knot(link):
        raise OracleError(f"{link} is not a knot")
    passages, _ = _walk(link)
    c = link.crossing_count
    # the over-strand runs TL-BR at the crossings of a positive region
    positive = [a > 0 for a in link.params for _ in range(abs(a))]

    # arc labels: increment after each under-passage; label c wraps to 0
    over_arc = [0] * c
    under_in = [0] * c
    vec_over = [(0, 0)] * c
    vec_under = [(0, 0)] * c
    label = 0
    for cid, corner in passages:
        if (corner == _TL or corner == _BR) == positive[cid]:
            over_arc[cid] = label % c
            vec_over[cid] = _DIRECTION[corner]
        else:
            under_in[cid] = label
            vec_under[cid] = _DIRECTION[corner]
            label += 1
    if label != c:
        raise OracleError("under-passage count does not match crossing count")

    relations = []
    for cid in range(c):
        (ox, oy), (ux, uy) = vec_over[cid], vec_under[cid]
        sign = 1 if ox * uy - oy * ux > 0 else -1
        relations.append(
            CrossingRelation(over_arc[cid], under_in[cid], (under_in[cid] + 1) % c, sign)
        )
    return WirtingerPresentation(c, tuple(relations))


# ----------------------------------------------------------------------
# Alexander minor by unit-pivot elimination on packed integers

def _minor_rows(pres: WirtingerPresentation) -> tuple[list[dict[int, int]], int]:
    """The rows of the minor that drops the last relation and the last arc,
    as {arc: Fox derivative packed at t = X = 2**(8*nbytes)}, and nbytes.

    The derivatives by (over, under_in, under_out) are 1 - t, t, -1 at a
    positive crossing and t - 1, 1, -t at a negative one, and an arc in
    several roles sums them.  The digit width in bits is 4 plus the bit
    lengths of the rows' l1 norms (at least 2 each).
    """
    last = pres.generator_count - 1
    relations = pres.relations[:last]
    bits = 4
    for rel in relations:
        o, i, u = rel.over, rel.under_in, rel.under_out
        # 2 for the over-arc's 1 - t and 1 for each under-arc, except that
        # an over-arc that is also an under-arc sums to a monomial
        l1 = (o != last) * (1 if o in (i, u) else 2) + (i not in (o, last)) + (u not in (o, last))
        bits += max(l1, 2).bit_length()
    nbytes = slot_bytes(bits)
    x = 1 << (8 * nbytes)
    entries = {1: (1 - x, x, -1), -1: (x - 1, 1, -x)}
    rows = []
    for rel in relations:
        row: dict[int, int] = {}
        for arc, v in zip((rel.over, rel.under_in, rel.under_out), entries[rel.sign]):
            if arc != last:
                row[arc] = row.get(arc, 0) + v
        rows.append(row)
    return rows, nbytes


def _unit_pivot_core(rows: list[dict[int, int]]) -> list[list[int]]:
    """Take Schur complements on entries +-1 while any are left, and return
    the dense core that remains; its determinant is +- that of the square
    matrix ``rows`` (sparse, over the columns 0..len(rows)-1).

    Every entry stays a minor of the input, bounded by the slot width, so
    a packed entry is +-1 exactly when its polynomial is.  Rows are taken
    from a work queue: every row at first, and a row again whenever an
    update writes +-1 into it.  ``holders`` may keep rows that no longer
    hold the arc; those are skipped.  ``rows`` is consumed.
    """
    holders: list[set[int]] = [set() for _ in rows]
    for r, row in enumerate(rows):
        for arc in row:
            holders[arc].add(r)
    eliminated = set()
    queue = deque(range(len(rows)))
    while queue:
        r = queue.popleft()
        row = rows[r]
        if row is None:
            continue
        for col, p in row.items():
            if p == 1 or p == -1:
                break
        else:
            continue
        del row[col]
        rows[r] = None
        eliminated.add(col)
        for i in holders[col]:
            other = rows[i]
            if other is None or col not in other:
                continue
            f = other.pop(col) * p  # other -= (other[col] / p) * row, 1/p == p
            for arc, v in row.items():
                w = other.get(arc, 0) - f * v
                if w:
                    other[arc] = w
                    holders[arc].add(i)
                    if w == 1 or w == -1:
                        queue.append(i)
                else:
                    del other[arc]
    cols = [arc for arc in range(len(rows)) if arc not in eliminated]
    return [[row.get(arc, 0) for arc in cols] for row in rows if row is not None]


def _bareiss(m: list[list[int]]) -> int:
    """Determinant, up to sign, of a square integer matrix by fraction-free
    elimination."""
    n = len(m)
    if n == 0:
        return 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for row_i in m[k + 1:]:
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
        prev = pivot
    return m[n - 1][n - 1]


def alexander_fox(link: PretzelLink) -> LaurentPoly:
    """Normalized Alexander polynomial from the Wirtinger presentation.

    The minor drops the last row and the last column of the Alexander
    matrix; any single column would give the same minor up to units.
    """
    pres = build_diagram(link)
    rows, nbytes = _minor_rows(pres)
    value = _bareiss(_unit_pivot_core(rows))
    try:
        digits = kronecker_unpack(value, nbytes, pres.generator_count + 1)
    except OverflowError:
        raise OracleError("determinant decoding overflow: digit bound violated") from None
    det = LaurentPoly({2 * t_exp: d for t_exp, d in enumerate(digits) if d})
    if det.is_zero:
        raise OracleError(f"vanishing Alexander minor for {link}: diagram bug")
    return det.normalize()
