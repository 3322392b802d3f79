import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from pretzelsurgery import oracle
from pretzelsurgery.alexander import alexander_skein
from pretzelsurgery.grids import knot_box
from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery.oracle import (
    OracleError,
    _bareiss,
    _unit_pivot_core,
    alexander_fox,
    build_diagram,
    kronecker_unpack,
    slot_bytes,
)
from pretzelsurgery.pretzel import PretzelLink
from invariants import at_minus_one, at_one, conj
from reference_fox import alexander_fox_dense
from reference_laurent import parse
from reference_walk import DIRECTION, build_diagram as reference_diagram, walk


class TestWirtinger:
    def test_presentation_shape(self):
        relations = build_diagram(PretzelLink((-2, 3, 7)))
        assert len(relations) == 12  # one relation per crossing
        # and one arc per crossing for knots
        assert {arc for r in relations for arc in r[:3]} == set(range(12))

    def test_rejects_links(self):
        with pytest.raises(OracleError):
            build_diagram(PretzelLink((2, 2)))

    @pytest.mark.parametrize("params", [(0,), (0, 0), (0, 0, 0), (-5, 0, 0), (3, 0, 0, 3)])
    def test_rejects_crossingless_components(self, params):
        # no crossing at all, or two adjacent zero regions that bound a
        # circle the crossing-to-crossing walk never meets
        with pytest.raises(OracleError, match="not a knot"):
            build_diagram(PretzelLink(params))

    def test_crossing_signs_match_writhe_parity(self):
        # every crossing in a single region carries the same sign
        for params in ((3,), (-3,), (5,)):
            relations = build_diagram(PretzelLink(params))
            signs = {r[3] for r in relations}
            assert len(signs) == 1

    def test_sign_rule_against_cross_product(self):
        # x(over) * y(under) against the sign of the cross product
        # ox*uy - oy*ux of the over and under directions of travel
        knots = 0
        for link in knot_box(4, 5):
            passages = walk(link)
            positive = [a > 0 for a in link.params for _ in range(abs(a))]
            over, under = {}, {}
            for cid, corner in passages:
                is_over = (corner in (0, 3)) == positive[cid]  # TL=0, BR=3
                (over if is_over else under)[cid] = DIRECTION[corner]
            signs = [r[3] for r in build_diagram(link)]
            for cid, sign in enumerate(signs):
                (ox, oy), (ux, uy) = over[cid], under[cid]
                assert sign == (1 if ox * uy - oy * ux > 0 else -1), (link, cid)
            knots += 1
        assert knots == 5142


def _relations_or_error(build, link):
    try:
        return build(link)
    except OracleError as exc:
        return str(exc)


class TestWalkReference:
    """The oracle's walk, by corner arithmetic and labelling as it goes,
    against ``reference_walk``, which walks crossing by crossing by table
    lookups and labels the passage list in a second pass: the same relation
    tuples, or the same OracleError text."""

    def test_walk_box(self):
        # the 32,911 tuples of test_pretzel.py's walk box: 1-4 regions in
        # -5..5 and 5 in -3..3, every rejection of the walk among them
        rejections = ("no crossings", "closes after", "misses a circle")
        outcomes = Counter()
        for n, bound in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 3)):
            for params in product(range(-bound, bound + 1), repeat=n):
                link = PretzelLink(params)
                got = _relations_or_error(build_diagram, link)
                assert got == _relations_or_error(reference_diagram, link), link
                outcomes[next(r for r in rejections if r in got) if isinstance(got, str) else "knot"] += 1
        assert outcomes == {"knot": 10006, "closes after": 22294, "misses a circle": 606, "no crossings": 5}

    @pytest.mark.parametrize("q", [101, 2001])
    def test_large_q(self, q):
        for params in ((-2, 3, q), (-1, 4, 3, q), (2, 3, q), (-1, 4, 3, -q)):
            link = PretzelLink(params)
            assert build_diagram(link) == reference_diagram(link), link


class TestLoneRegion:
    def test_torus_values(self):
        # P(a) is the (2, a) torus link: a link for even a, and for odd a
        # the knot with Delta = (t^|a| + 1) / (t + 1) = sum_{j<|a|} (-t)^j
        for a in range(-101, 102):
            link = PretzelLink((a,))
            if a % 2 == 0:
                with pytest.raises(OracleError, match="not a knot"):
                    alexander_fox(link)
                continue
            expected = LaurentPoly({2 * j: (-1) ** j for j in range(abs(a))})
            assert alexander_fox(link) == expected.normalize(), a


class TestFoxValues:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((3,), "1 - t + t^2"),
            ((1, -2), "1"),
            ((-2, 3, 7), "1 - t + t^3 - t^4 + t^5 - t^6 + t^7 - t^9 + t^10"),
            ((-1, -1, 4, 3, 3), "3 - 10t + 13t^2 - 10t^3 + 3t^4"),
        ],
    )
    def test_normalized_value(self, params, expected):
        assert alexander_fox(PretzelLink(params)).normalize() == parse(expected)


class TestInvariants:
    def test_unit_evaluation(self):
        for link in knot_box(3, 4):
            assert abs(at_one(alexander_fox(link))) == 1, link

    def test_palindromic_symmetry(self):
        for link in knot_box(3, 4):
            delta = alexander_fox(link)
            assert delta.equal_up_to_units(conj(delta)), link

    def test_mirror_invariance_up_to_units(self):
        for link in knot_box(3, 3):
            mirror = PretzelLink(tuple(-a for a in link.params))
            assert alexander_fox(link).equal_up_to_units(
                alexander_fox(mirror)
            ), link

    def test_determinant_identity(self):
        for link in knot_box(2, 5):
            params = link.params
            if len(params) != 2:
                continue
            det = params[0] + params[1]
            assert abs(at_minus_one(alexander_fox(link))) == abs(det), link


class TestAgainstDenseReference:
    """The unit-pivot elimination against the dense c x c matrix and its
    fraction-free determinant (tests/reference_fox.py), bit for bit."""

    def test_small_box(self):
        checked = 0
        for link in knot_box(4, 4):
            assert alexander_fox(link) == alexander_fox_dense(link), link
            checked += 1
        assert checked == 1628

    @pytest.mark.parametrize("q", range(3, 42, 2))
    def test_minus2_3_q(self, q):
        link = PretzelLink((-2, 3, q))
        assert alexander_fox(link) == alexander_fox_dense(link)

    @pytest.mark.parametrize("params", [(11, 11, 11), (5,) * 7])
    def test_coefficients_wider_than_one_and_two_bytes(self, params):
        # largest |coefficient| of the normalized value: 181 and 32845
        link = PretzelLink(params)
        delta = alexander_fox(link)
        assert delta == alexander_fox_dense(link)
        assert delta.equal_up_to_units(alexander_skein(link))


def _fraction_determinant(matrix: list[list[int]]) -> Fraction:
    """Determinant of a square integer matrix by Gaussian elimination over
    the rationals."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            for j in range(k, len(m)):
                row[j] -= f * m[k][j]
    return det


class TestUnitPivotCore:
    def test_determinant_up_to_sign(self):
        # the Schur complements on +-1 pivots keep |det|: constant entries
        # +-2 among them must not be taken as pivots (1/p == p holds for
        # +-1 only), as on the first two matrices
        rng = random.Random(20261019)
        matrices = [[[2, 1], [1, 2]], [[2, 3], [5, 2]]]
        for _ in range(400):
            n = rng.randint(1, 7)
            matrices.append([[rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(n)]
                             for _ in range(n)])
        for matrix in matrices:
            rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
            assert abs(_bareiss(_unit_pivot_core(rows))) == abs(_fraction_determinant(matrix)), matrix


def _state_count(params):
    """Sum_i prod_{j != i} |a_j|, the spanning trees of the Tait graph of
    P(params), an n-cycle of |a_i| parallel edges; |a| for P(a), drawn as
    P(a, 0), whose Tait graph is two vertices joined by |a| edges."""
    if len(params) == 1:
        return abs(params[0])
    return sum(prod(abs(b) for j, b in enumerate(params) if j != i) for i in range(len(params)))


class TestStateCountBound:
    """The oracle's slot is sized by the Kauffman state count S, so every
    knot must have l1(Delta) <= S, with Delta from the skein engine, whose
    value does not pass through that slot."""

    def test_l1_norm_within_state_count(self):
        knots = tight = 0
        for link in knot_box(4, 6):
            l1 = sum(abs(c) for _, c in alexander_skein(link).items())
            bound = _state_count(link.params)
            assert l1 <= bound, (link, l1, bound)
            if all(a > 0 for a in link.params) or all(a < 0 for a in link.params):
                # an alternating diagram: l1(Delta) = det = the tree count
                assert l1 == bound, (link, l1, bound)
                tight += 1
            knots += 1
        assert (knots, tight) == (7110, 906)

    def test_slot_sized_by_state_count(self, monkeypatch):
        # the slot the oracle asks for is S.bit_length() + 1 bits (the 1 is
        # the sign); P(a) is drawn as P(a, 0), whose S is |a|, not the empty
        # product 1 (its unit coefficients would decode in either slot)
        asked = []
        monkeypatch.setattr(oracle, "slot_bytes", lambda bits: asked.append(bits) or slot_bytes(bits))
        links = [PretzelLink((a,)) for a in range(-101, 102, 2)] + list(knot_box(4, 3))
        for link in links:
            alexander_fox(link)
        assert asked == [_state_count(link.params).bit_length() + 1 for link in links]

    def test_unpack_rejects_values_wider_than_the_slots(self):
        # sum(v X**e) at X = 2**8 reads back as its signed one-byte slots
        slots = [-3, 5]
        assert list(kronecker_unpack(sum(v << (8 * e) for e, v in enumerate(slots)), 1, 2)) == slots
        for x in (2**16, -(2**16)):
            with pytest.raises(OverflowError):
                kronecker_unpack(x, 1, 2)

    @pytest.mark.parametrize("nbytes", [3, 5, 9])
    def test_unpack_round_trips_any_width(self, nbytes):
        # a slot is as many whole bytes as its bits need, so widths such as
        # 3, 5 and 9 bytes are the usual case: signed slots at both ends of
        # the range read back exactly, and a value that needs one slot more
        # than count is refused
        top = 1 << (8 * nbytes - 1)
        rng = random.Random(nbytes)
        slots = [top - 1, -top, 0, -1, 1, -top, top - 1] + [rng.randrange(-top, top) for _ in range(20)]
        x = sum(v << (8 * nbytes * e) for e, v in enumerate(slots))
        assert kronecker_unpack(x, nbytes, len(slots)) == slots
        for extra in (1, -1, top - 1, -top):
            with pytest.raises(OverflowError):
                kronecker_unpack(x + (extra << (8 * nbytes * len(slots))), nbytes, len(slots))

    @pytest.mark.parametrize(
        "params", [(5,) * 7, (11, 11, 11), (-7, -7, -7, -7, -4)], ids=["5^7", "11^3", "-7^4,-4"]
    )
    def test_narrow_slot_refused(self, monkeypatch, params):
        # coefficients past a 1-byte slot carry into their neighbours; the
        # wrong digits of P(5,5,5,5,5,5,5) and P(-7,-7,-7,-7,-4) still sum to
        # +-1, so only the symmetry check refuses them
        monkeypatch.setattr(oracle, "slot_bytes", lambda bits: 1)
        with pytest.raises(OracleError, match="not a knot polynomial"):
            alexander_fox(PretzelLink(params))


class TestLargeQ:
    def test_minus2_3_201_within_budget(self):
        link = PretzelLink((-2, 3, 201))
        start = time.perf_counter()
        delta = alexander_fox(link)
        elapsed = time.perf_counter() - start
        assert delta.equal_up_to_units(alexander_skein(link))
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_minus2_3_1001_within_budget(self):
        link = PretzelLink((-2, 3, 1001))
        start = time.perf_counter()
        delta = alexander_fox(link)
        elapsed = time.perf_counter() - start
        assert delta.equal_up_to_units(alexander_skein(link))
        assert elapsed < 0.5, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("params", [(-1, -4, 5, 1001), (-1, 4, 3, 1001), (-1, -1, 4, 3, 1001)])
    def test_families_at_1001(self, params):
        link = PretzelLink(params)
        assert alexander_fox(link).equal_up_to_units(alexander_skein(link))
