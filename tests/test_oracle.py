import time

import pytest

from pretzelsurgery.alexander import alexander_skein
from pretzelsurgery.grids import knot_box
from pretzelsurgery.laurent import parse
from pretzelsurgery.oracle import OracleError, alexander_fox, build_diagram
from pretzelsurgery.pretzel import PretzelLink
from reference_fox import alexander_fox_dense


class TestWirtinger:
    def test_presentation_shape(self):
        pres = build_diagram(PretzelLink((-2, 3, 7)))
        assert len(pres.relations) == 12  # one relation per crossing
        assert pres.generator_count == 12  # and one arc per crossing for knots

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
            pres = build_diagram(PretzelLink(params))
            signs = {r.sign for r in pres.relations}
            assert len(signs) == 1


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
            assert abs(alexander_fox(link).eval_at_one()) == 1, link

    def test_palindromic_symmetry(self):
        for link in knot_box(3, 4):
            delta = alexander_fox(link)
            assert delta.equal_up_to_units(delta.conj()), link

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
            assert abs(alexander_fox(link).eval_at_minus_one()) == abs(det), link


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


class TestLargeQ:
    def test_minus2_3_201_within_budget(self):
        link = PretzelLink((-2, 3, 201))
        start = time.perf_counter()
        delta = alexander_fox(link)
        elapsed = time.perf_counter() - start
        assert delta.equal_up_to_units(alexander_skein(link))
        assert elapsed < 1.0, f"{elapsed:.2f}s"
