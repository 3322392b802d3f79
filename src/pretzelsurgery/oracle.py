"""Ground-truth Alexander polynomials via Fox calculus.

One walk of the standard pretzel diagram, from crossing to crossing by
integer arithmetic on the corner numbers, labels the arcs as it goes and
gives the Wirtinger presentation: a tuple (over, under_in, under_out, sign)
of arc labels per crossing, signed x(over) * y(under) by the directions of
travel.  Every meridian is abelianized to t, and the minor of the
Alexander matrix that drops the last relation and arc has sparse
{arc: value} rows, each built from its tuple, of the integer values of its
entries at t = X = 2**(8*nbytes).  Every Wirtinger row holds an entry +-1
(the outgoing under-arc at a positive crossing, the incoming one at a
negative crossing), and a Schur complement on a unit pivot changes the
determinant only by a sign, so a work queue eliminates unit pivots while
any are left.  Fraction-free (Bareiss) elimination takes the few rows that
remain, and one ``kronecker_unpack`` reads the coefficients back from a
slot sized by the diagram's Kauffman state count; the digits of Delta's
span go to the public ``LaurentPoly`` constructor as one map.  The decoder
is the oracle's own: the skein engine's exact division runs on the
coefficient lists and never packs.  Nothing here shares a convention with
the skein engine beyond the diagram template itself, not even the knot
test (the strand walk rejects a link on its own), which is the point: it
is the independent check.  ``tests/reference_walk.py`` walks the diagram
by table lookups and labels in a second pass, as the arbiter of the walk.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .pretzel import _MAX_TWIST, PretzelLink


class OracleError(ValueError):
    pass


def _regions(link: PretzelLink) -> tuple[int, ...]:
    """The twist regions of the diagram drawn: P(a) is drawn as P(a, 0),
    whose zero region's vertical strands are the side arcs."""
    return link.params if link.n_regions > 1 else link.params + (0,)


def build_diagram(link: PretzelLink) -> list[tuple[int, int, int, int]]:
    """Wirtinger relations (over, under_in, under_out, sign) over the arcs
    0..c-1 of a knot with no region of more than ``_MAX_TWIST`` crossings.

    One walk traverses the knot from the top-left corner of crossing 0 and
    labels each passage as it goes.  Crossing ids run region by region.
    Raises OracleError for a link: no crossing, a return to the start
    before 2c passages, or a closure arc missed (two adjacent zero regions
    bound a circle with no crossing).
    """
    if max(map(abs, link.params)) > _MAX_TWIST:
        raise OracleError(f"{link}: twist regions of more than {_MAX_TWIST} crossings are not supported")
    c = link.crossing_count
    if c == 0:
        raise OracleError(f"{link} is not a knot: the diagram has no crossings")
    params = _regions(link)
    n = len(params)
    first, last = [], []  # each region's first and last crossing id
    stop = 0
    for a in params:
        first.append(stop)
        stop += abs(a)
        last.append(stop - 1)

    # Crossing corners TL, TR, BL, BR are 0, 1, 2, 3: bit 1 is the bottom
    # row and bit 0 the right column, so a strand entering at a corner
    # leaves at the opposite one, 3 - corner; the corner above or below one
    # is corner ^ 2; and a closure arc from a region's corner steps one
    # region right if it is a right corner (corner & 1), else left, and
    # enters the next region at the other corner of its row, corner ^ 1.
    # Arc labels: increment after each under-passage; label c wraps to 0.
    # The sign is that of ox*uy - oy*ux for the over and under directions
    # of travel (x, y), y pointing up, away from the corner entered: x = -1
    # from a right corner, else 1, and y = -1 from a top one, else 1.  In a
    # positive region the over-strand runs TL-BR, corners 0 and 3
    # (oy = -ox), and the under-strand TR-BL (ux = uy); in a negative one
    # the diagonals swap (oy = ox, ux = -uy).  Either way the product is
    # 2*ox*uy, and ox = -1 at a right corner, uy = -1 at a top one.
    over = [0] * c
    under_in = [0] * c
    under_out = [0] * c
    sign = [1] * c
    region = next(i for i, a in enumerate(params) if a)
    positive = params[region] > 0
    cid = corner = label = arcs = 0  # crossing 0 entered at TL
    for passages in range(1, 2 * c + 1):
        if (corner == 0 or corner == 3) == positive:
            over[cid] = label % c
            if corner & 1:
                sign[cid] = -sign[cid]
        else:
            under_in[cid] = label
            label += 1
            under_out[cid] = label % c
            if corner < 2:
                sign[cid] = -sign[cid]
        corner = 3 - corner
        # the next crossing of the region, entered at a corner that is never
        # the start's: down into a top corner from crossing cid >= 0, or up
        # into a bottom one
        if corner & 2:
            if cid < last[region]:
                cid += 1
                corner ^= 2
                continue
        elif cid > first[region]:
            cid -= 1
            corner ^= 2
            continue
        # region boundary: follow closure arcs, passing through zero regions
        while True:
            arcs += 1
            region = (region + 1 if corner & 1 else region - 1) % n
            corner ^= 1
            if params[region]:
                break
            corner ^= 2  # zero region: vertical pass-through
        positive = params[region] > 0
        cid = first[region] if corner < 2 else last[region]
        if cid == 0 and corner == 0:
            break
    else:
        raise OracleError(f"{link}: strand walk did not close up after {2 * c} passages")
    if passages < 2 * c:
        raise OracleError(f"{link} is not a knot: the strand walk closes after {passages} of {2 * c} passages")
    if arcs < 2 * n:
        raise OracleError(f"{link} is not a knot: the strand walk misses a circle with no crossing")
    if label != c:
        raise OracleError("under-passage count does not match crossing count")
    return list(zip(over, under_in, under_out, sign))


# ----------------------------------------------------------------------
# Alexander minor by unit-pivot elimination on packed integers

def _minor_rows(relations: list[tuple[int, int, int, int]], x: int) -> list[dict[int, int]]:
    """The rows of the minor that drops the last relation and the last arc,
    as {arc: Fox derivative at t = x}, each in the order over, under_in,
    under_out.

    The derivatives by (over, under_in, under_out) are 1 - t, t, -1 at a
    positive crossing and t - 1, 1, -t at a negative one, and an arc in
    several roles sums them; under_in and under_out are two arcs.
    """
    last = len(relations) - 1
    rows = []
    for o, i, u, sign in relations[:last]:
        vo, vi, vu = (1 - x, x, -1) if sign > 0 else (x - 1, 1, -x)
        if o == i:
            row = {o: vo + vi, u: vu}
        elif o == u:
            row = {o: vo + vu, i: vi}
        else:
            row = {o: vo, i: vi, u: vu}
        if last in row:
            del row[last]
        rows.append(row)
    return rows


def _unit_pivot_core(rows: list[dict[int, int]]) -> list[list[int]]:
    """Take Schur complements on entries +-1 while any are left, and return
    the dense core that remains; its determinant is +- that of the square
    matrix ``rows`` (sparse, over the columns 0..len(rows)-1).

    Each step is an integer row operation on an integer pivot +-1, exact
    whatever polynomials the entries encode.  Rows are taken from a work
    queue: every row at first, and a row again whenever an update writes
    +-1 into it.  ``holders`` may keep rows that no longer hold the arc,
    and list a row twice whose entry cancelled and came back; those are
    skipped.  ``rows`` is consumed.
    """
    holders: list[list[int]] = [[] for _ in rows]
    for r, row in enumerate(rows):
        for arc in row:
            holders[arc].append(r)
    eliminated = [False] * len(rows)
    queue = list(range(len(rows)))
    for r in queue:  # a for loop over a list also reads what is appended
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
        eliminated[col] = True
        for i in holders[col]:
            other = rows[i]
            if other is None or col not in other:
                continue
            f = other.pop(col) * p  # other -= (other[col] / p) * row, 1/p == p
            for arc, v in row.items():
                w = other.get(arc)
                if w is None:
                    w = -f * v
                    holders[arc].append(i)
                else:
                    w -= f * v
                    if not w:
                        del other[arc]
                        continue
                other[arc] = w
                if w == 1 or w == -1:
                    queue.append(i)
    cols = [arc for arc, gone in enumerate(eliminated) if not gone]
    return [[row.get(arc, 0) for arc in cols] for row in rows if row is not None]


def _bareiss(m: list[list[int]]) -> int:
    """Determinant, up to sign, of a square integer matrix by fraction-free
    elimination."""
    n = len(m)
    prev = 1
    for k in range(n):
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
    return prev


# ----------------------------------------------------------------------
# Kronecker decoding of the determinant's value at X = 2**(8*nbytes)

def slot_bytes(bits: int) -> int:
    """The fewest whole bytes that hold ``bits`` bits."""
    return (bits + 7) // 8


def kronecker_unpack(x: int, nbytes: int, count: int) -> list[int]:
    """The ``count`` signed slots v_e of ``x`` = sum(v_e * 2**(8*nbytes*e)),
    exact at any width.  Raises OverflowError when ``x`` is not a sum of
    ``count`` signed slots.
    """
    # adding the bias, the top bit of every slot, lifts every slot into
    # [0, 2**(8*nbytes)) with no carries; the xor then puts each slot back
    # in two's complement
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")
    raw = ((x + bias) ^ bias).to_bytes(nbytes * count, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little", signed=True) for i in range(0, len(raw), nbytes)]


def alexander_fox(link: PretzelLink) -> LaurentPoly:
    """Normalized Alexander polynomial from the Wirtinger presentation.

    The minor drops the last row and the last column of the Alexander
    matrix; any single column would give the same minor up to units.
    Unit pivots and Bareiss are integer row operations on M(X), the minor
    at t = X, exact at any X: they end at det M(X) = +-X^e * Delta(X), and
    only ``kronecker_unpack`` needs X above twice every |coefficient|.  The
    number S of Kauffman states bounds them: the clock theorem (Kauffman,
    Formal Knot Theory, 1983) sums one signed monomial per state, and the
    states are the spanning trees of a Tait graph, an n-cycle of |a_i|
    parallel edges at region i.  A tree drops every edge of one region and
    keeps one of each other region, so S = sum_i prod_{j != i} |a_j|.

    A coefficient too wide for its slot would carry into its neighbour and
    decode as another polynomial, so the digits are checked against two
    properties of every knot's Delta, at O(c) cost: Delta(1) = +-1, and
    the digits between the first and last nonzero one read the same
    backwards (Delta(t) = t^d Delta(1/t); an antisymmetric Delta would
    vanish at 1).  Either failing raises OracleError.
    """
    relations = build_diagram(link)
    states, product = 0, 1  # S and prod |a_j| over the regions read so far
    for a in map(abs, _regions(link)):
        states, product = states * a + product, product * a
    nbytes = slot_bytes(states.bit_length() + 1)  # the 1 is the sign
    value = _bareiss(_unit_pivot_core(_minor_rows(relations, 1 << (8 * nbytes))))
    try:
        digits = kronecker_unpack(value, nbytes, len(relations) + 1)
    except OverflowError:
        raise OracleError("determinant decoding overflow: digit bound violated") from None
    if not value:
        raise OracleError(f"vanishing Alexander minor for {link}: diagram bug")
    lo, hi = 0, len(digits)
    while not digits[lo]:
        lo += 1
    while not digits[hi - 1]:
        hi -= 1
    delta = digits[lo:hi]  # Delta up to a power of t
    if sum(delta) not in (1, -1) or delta != delta[::-1]:
        raise OracleError(f"{link}: the decoded determinant is not a knot polynomial: digit bound violated")
    return LaurentPoly(dict(zip(range(0, 2 * len(delta), 2), delta))).normalize()
