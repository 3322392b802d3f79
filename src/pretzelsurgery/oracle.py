"""Ground-truth Alexander polynomials via Fox calculus.

Builds the Wirtinger presentation of the standard pretzel diagram (same
template as the strand tracer), abelianizes every meridian to t, and takes
a maximal minor of the Alexander matrix by fraction-free elimination.
Nothing here shares a convention with the skein engine beyond the diagram
template itself, which is the point: it is the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPoly, kronecker_pack, kronecker_unpack, slot_bytes
from .pretzel import PretzelLink, is_knot


class OracleError(ValueError):
    pass


# crossing corners
_TL, _TR, _BL, _BR = 0, 1, 2, 3
_DIAG_EXIT = {_TL: _BR, _TR: _BL, _BL: _TR, _BR: _TL}


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


def _region_ports(link: PretzelLink):
    """Map (region, corner) -> (crossing id, corner) for nonzero regions,
    together with each region's crossing id list."""
    region_crossings = []
    cid = 0
    for a in link.params:
        ids = list(range(cid, cid + abs(a)))
        region_crossings.append(ids)
        cid += abs(a)
    return region_crossings


def _walk(link: PretzelLink):
    """Traverse the knot, returning the passage list [(crossing, corner in)]."""
    n = link.n_regions
    params = link.params
    region_crossings = _region_ports(link)

    def arc_partner(cid: int, corner: int):
        # locate the region and position of this crossing end
        for i, ids in enumerate(region_crossings):
            if cid in ids:
                region, pos = i, ids.index(cid)
                break
        ids = region_crossings[region]
        if corner == _BL and pos + 1 < len(ids):
            return ids[pos + 1], _TL
        if corner == _BR and pos + 1 < len(ids):
            return ids[pos + 1], _TR
        if corner == _TL and pos > 0:
            return ids[pos - 1], _BL
        if corner == _TR and pos > 0:
            return ids[pos - 1], _BR
        # region boundary: follow closure arcs, passing through zero regions
        port = corner  # region-level port has the same corner role
        i = region
        while True:
            # arc edge
            if n == 1:
                # side-arc closure: the lone region is a (2, a)-torus link
                port = {_TL: _BL, _BL: _TL, _TR: _BR, _BR: _TR}[port]
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
                ids2 = region_crossings[i]
                if port == _TL:
                    return ids2[0], _TL
                if port == _TR:
                    return ids2[0], _TR
                if port == _BL:
                    return ids2[-1], _BL
                return ids2[-1], _BR
            # zero region: vertical pass-through
            port = {_TL: _BL, _BL: _TL, _TR: _BR, _BR: _TR}[port]

    c = link.crossing_count
    passages = []
    state = (0, _TL)
    for _ in range(2 * c):
        passages.append(state)
        cid, corner = state
        exit_corner = _DIAG_EXIT[corner]
        state = arc_partner(cid, exit_corner)
    if state != (0, _TL):
        raise OracleError(f"{link}: strand walk did not close up (not a knot?)")
    return passages, region_crossings


def build_diagram(link: PretzelLink) -> WirtingerPresentation:
    """Wirtinger presentation of the standard pretzel diagram of a knot."""
    if not is_knot(link):
        raise OracleError(f"{link} is not a knot")
    passages, region_crossings = _walk(link)
    c = link.crossing_count

    region_of = {}
    for i, ids in enumerate(region_crossings):
        for cid in ids:
            region_of[cid] = i

    def diag(corner: int) -> str:
        return "TLBR" if corner in (_TL, _BR) else "TRBL"

    def is_over(cid: int, corner: int) -> bool:
        over_diag = "TLBR" if link.params[region_of[cid]] > 0 else "TRBL"
        return diag(corner) == over_diag

    # arc labels: increment after each under-passage; label c wraps to 0
    labels = []
    current = 0
    for cid, corner in passages:
        labels.append(current)
        if not is_over(cid, corner):
            current += 1
    if current != c:
        raise OracleError("under-passage count does not match crossing count")
    labels = [lab % c for lab in labels]

    def direction(corner: int, at_corner_diag: str, going_down: bool):
        if at_corner_diag == "TLBR":
            return (1, -1) if going_down else (-1, 1)
        return (-1, -1) if going_down else (1, 1)

    over_arc: dict[int, int] = {}
    under_in: dict[int, int] = {}
    under_out: dict[int, int] = {}
    vec_over: dict[int, tuple[int, int]] = {}
    vec_under: dict[int, tuple[int, int]] = {}
    for k, (cid, corner) in enumerate(passages):
        going_down = corner in (_TL, _TR)
        v = direction(corner, diag(corner), going_down)
        if is_over(cid, corner):
            over_arc[cid] = labels[k]
            vec_over[cid] = v
        else:
            under_in[cid] = labels[k]
            under_out[cid] = (labels[k] + 1) % c
            vec_under[cid] = v

    relations = []
    for cid in range(c):
        o, u = vec_over[cid], vec_under[cid]
        sign = 1 if o[0] * u[1] - o[1] * u[0] > 0 else -1
        relations.append(
            CrossingRelation(over_arc[cid], under_in[cid], under_out[cid], sign)
        )
    return WirtingerPresentation(c, tuple(relations))


# ----------------------------------------------------------------------
# Alexander matrix and fraction-free determinant

_T = LaurentPoly.t_term(1, 1)
_ONE = LaurentPoly.one()


def alexander_matrix(pres: WirtingerPresentation) -> list[list[LaurentPoly]]:
    """Abelianized Fox-derivative matrix, one row per relation."""
    c = pres.generator_count
    rows = []
    for rel in pres.relations:
        row = [LaurentPoly.zero()] * c
        if rel.sign > 0:
            contrib = ((rel.over, _ONE - _T), (rel.under_in, _T), (rel.under_out, -_ONE))
        else:
            contrib = ((rel.over, _T - _ONE), (rel.under_in, _ONE), (rel.under_out, -_T))
        # the same arc may play several roles at one crossing, so accumulate
        for arc, val in contrib:
            row[arc] = row[arc] + val
        rows.append(row)
    return rows


def _kronecker_determinant(matrix: list[list[LaurentPoly]], degree_bound: int) -> LaurentPoly:
    """Determinant of a matrix of polynomials in t (nonnegative powers only),
    computed exactly by Kronecker substitution: evaluate every entry at
    t = 2**(8*nbytes) with ``kronecker_pack``, take an integer fraction-free
    determinant, and read the coefficients back with ``kronecker_unpack``.
    Sound as long as every determinant coefficient is below 2**(8*nbytes-1)
    in absolute value; the digit width is the l1-norm bound prod(rows'
    coefficient sums) in bits, rounded up to whole bytes by ``slot_bytes``."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly.one()
    # entries as {t-exponent: coefficient}, and the digit width in bits
    t_rows = []
    bits = 4
    for row in matrix:
        t_row = []
        row_l1 = 0
        for entry in row:
            coeffs = {}
            for s_exp, coeff in entry.items():
                if s_exp % 2 or s_exp < 0:
                    raise OracleError("matrix entry is not a polynomial in t")
                coeffs[s_exp // 2] = coeff
                row_l1 += abs(coeff)
            t_row.append(coeffs)
        t_rows.append(t_row)
        bits += max(row_l1, 2).bit_length()
    nbytes = slot_bytes(bits)
    # most entries are zero, and a zero entry packs to 0
    m = [
        [kronecker_pack(c, 0, max(c) + 1, nbytes) if c else 0 for c in t_row]
        for t_row in t_rows
    ]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            if mik:
                row_i, row_k = m[i], m[k]
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
                row_i[k] = 0
            else:
                row_i = m[i]
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j]) // prev
        prev = pivot
    value = sign * m[n - 1][n - 1]
    try:
        digits = kronecker_unpack(value, nbytes, degree_bound + 1)
    except OverflowError:
        raise OracleError("determinant decoding overflow: digit bound violated") from None
    return LaurentPoly({2 * t_exp: d for t_exp, d in enumerate(digits) if d})


def alexander_fox(link: PretzelLink) -> LaurentPoly:
    """Normalized Alexander polynomial from the Wirtinger presentation.

    The minor drops the last row and the last column of the Alexander
    matrix; any single column would give the same minor up to units.
    """
    pres = build_diagram(link)
    c = pres.generator_count
    rows = alexander_matrix(pres)
    minor = [row[: c - 1] for row in rows[: c - 1]]
    det = _kronecker_determinant(minor, degree_bound=c)
    if det.is_zero:
        raise OracleError(f"vanishing Alexander minor for {link}: diagram bug")
    return det.normalize()
