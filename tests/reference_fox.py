"""Dense reference for the Fox-calculus oracle: the arbiter of its sparse
elimination.

Builds the full c x c Alexander matrix of ``LaurentPoly`` entries from a
Wirtinger presentation and takes the minor that drops the last row and
column by dense fraction-free (Bareiss) elimination on Kronecker-packed
integers.  It shares only the presentation, the (over, under_in,
under_out, sign) tuples of ``build_diagram``, with
``pretzelsurgery.oracle.alexander_fox``; the packing goes through
``laurent.kronecker_pack`` entry by entry, with no pivot search beyond
the first nonzero entry of a column.
"""

from pretzelsurgery.laurent import LaurentPoly, kronecker_pack, kronecker_unpack, slot_bytes
from pretzelsurgery.oracle import OracleError, build_diagram
from pretzelsurgery.pretzel import PretzelLink

_T = LaurentPoly.t_term(1, 1)
_ONE = LaurentPoly.one()


def alexander_matrix(relations: list[tuple[int, int, int, int]]) -> list[list[LaurentPoly]]:
    """Abelianized Fox-derivative matrix, one row per relation
    (over, under_in, under_out, sign)."""
    c = len(relations)
    rows = []
    for over, under_in, under_out, sign in relations:
        row = [LaurentPoly.zero()] * c
        if sign > 0:
            contrib = ((over, _ONE - _T), (under_in, _T), (under_out, -_ONE))
        else:
            contrib = ((over, _T - _ONE), (under_in, _ONE), (under_out, -_T))
        # the same arc may play several roles at one crossing, so accumulate
        for arc, val in contrib:
            row[arc] = row[arc] + val
        rows.append(row)
    return rows


def kronecker_determinant(matrix: list[list[LaurentPoly]], degree_bound: int) -> LaurentPoly:
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
        [kronecker_pack(c, max(c) + 1, nbytes) if c else 0 for c in t_row]
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
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
        prev = pivot
    value = sign * m[n - 1][n - 1]
    digits = kronecker_unpack(value, nbytes, degree_bound + 1)
    return LaurentPoly({2 * t_exp: d for t_exp, d in enumerate(digits) if d})


def alexander_fox_dense(link: PretzelLink) -> LaurentPoly:
    """Normalized Alexander polynomial from the dense minor."""
    relations = build_diagram(link)
    c = len(relations)
    minor = [row[: c - 1] for row in alexander_matrix(relations)[: c - 1]]
    return kronecker_determinant(minor, degree_bound=c).normalize()
