"""Dense reference for the Fox-calculus oracle: the arbiter of its sparse
elimination.

Builds the full c x c Alexander matrix of ``LaurentPoly`` entries from a
Wirtinger presentation and takes the minor that drops the last row and
column by dense fraction-free (Bareiss) elimination on the entries'
integer values at t = X = 2**width.  It shares only the presentation, the
(over, under_in, under_out, sign) tuples of ``build_diagram``, with
``pretzelsurgery.oracle.alexander_fox``: each entry is evaluated at X as a
plain sum of shifts, the determinant is read back as balanced base-X
digits by ``divmod``, and there is no pivot search beyond the first
nonzero entry of a column.
"""

from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery.oracle import OracleError, build_diagram
from pretzelsurgery.pretzel import PretzelLink

from reference_laurent import add

_T = LaurentPoly({2: 1})
_ONE = LaurentPoly({0: 1})
_MINUS_T = LaurentPoly({2: -1})
_MINUS_ONE = LaurentPoly({0: -1})


def alexander_matrix(relations: list[tuple[int, int, int, int]]) -> list[list[LaurentPoly]]:
    """Abelianized Fox-derivative matrix, one row per relation
    (over, under_in, under_out, sign)."""
    c = len(relations)
    rows = []
    for over, under_in, under_out, sign in relations:
        row = [LaurentPoly()] * c
        if sign > 0:
            contrib = ((over, add(_ONE, _MINUS_T)), (under_in, _T), (under_out, _MINUS_ONE))
        else:
            contrib = ((over, add(_T, _MINUS_ONE)), (under_in, _ONE), (under_out, _MINUS_T))
        # the same arc may play several roles at one crossing, so accumulate
        for arc, val in contrib:
            row[arc] = add(row[arc], val)
        rows.append(row)
    return rows


def _balanced_digits(value: int, width: int, count: int) -> list[int]:
    """The ``count`` digits d_e of ``value`` = sum(d_e * 2**(width*e)) with
    every |d_e| < 2**(width-1)."""
    base, half = 1 << width, 1 << (width - 1)
    digits = []
    for _ in range(count):
        value, d = divmod(value, base)
        if d >= half:
            d -= base
            value += 1
        digits.append(d)
    if value:
        raise OracleError("determinant wider than its digit bound")
    return digits


def kronecker_determinant(matrix: list[list[LaurentPoly]], degree_bound: int) -> LaurentPoly:
    """Determinant of a matrix of polynomials in t (nonnegative powers only),
    computed exactly by Kronecker substitution: evaluate every entry at
    t = 2**width, take an integer fraction-free determinant, and read the
    coefficients back as balanced digits.  Sound as long as every
    determinant coefficient is below 2**(width-1) in absolute value; the
    width is the l1-norm bound prod(rows' coefficient sums) in bits, with
    room to spare."""
    n = len(matrix)
    if n == 0:
        return LaurentPoly({0: 1})
    # entries as {t-exponent: coefficient}, and the digit width in bits
    t_rows = []
    width = 4
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
        width += max(row_l1, 2).bit_length()
    m = [[sum(v << (width * e) for e, v in c.items()) for c in t_row] for t_row in t_rows]
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
                return LaurentPoly()
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
        prev = pivot
    value = sign * m[n - 1][n - 1]
    digits = _balanced_digits(value, width, degree_bound + 1)
    return LaurentPoly({2 * t_exp: d for t_exp, d in enumerate(digits) if d})


def alexander_fox_dense(link: PretzelLink) -> LaurentPoly:
    """Normalized Alexander polynomial from the dense minor."""
    relations = build_diagram(link)
    c = len(relations)
    minor = [row[: c - 1] for row in alexander_matrix(relations)[: c - 1]]
    return kronecker_determinant(minor, degree_bound=c).normalize()
