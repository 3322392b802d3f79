import random
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pretzelsurgery.alexander import alexander_skein
from pretzelsurgery.grids import claim2, knot_box
from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery.obstruction import (
    ObstructionError,
    OSFormDecomposition,
    monic_check,
    os_form_check,
    pm1_coefficients,
)
from pretzelsurgery.oracle import alexander_fox
from pretzelsurgery.pretzel import PretzelLink, is_knot

from invariants import conj, highest_exponent, lowest_exponent, under_unit
from reference_laurent import add, multiply, parse, scale
from reference_os_form import NotSymmetric, os_form_polynomial, parent_os_form, symmetrize


class TestOSForm:
    def test_unknot(self):
        decomp = os_form_check(LaurentPoly({0: 1}))
        assert decomp is not None and decomp.k == 0

    def test_minus2_3_7_in_form(self):
        delta = alexander_skein(PretzelLink((-2, 3, 7)))
        decomp = os_form_check(delta)
        assert decomp is not None
        assert decomp.k == len(decomp.exponents)
        assert decomp.exponents == (1, 2, 4, 5)

    def test_claim3_family_not_in_form(self):
        delta = alexander_skein(PretzelLink((-1, -2, 3, 3)))
        assert os_form_check(delta) is None

    def test_asymmetric_rejected(self):
        with pytest.raises(ObstructionError):
            os_form_check(parse("1 + t + t^3"))

    def test_unit_invariance(self):
        delta = alexander_skein(PretzelLink((-2, 3, 7)))
        shifted = under_unit(multiply(delta, LaurentPoly({5: -1})), 5, -1)
        # stored over delta's own slots, with the shift 5 and the sign -1
        assert shifted._lo == lowest_exponent(delta) + 5 and shifted._sign == -1
        assert os_form_check(shifted) == os_form_check(delta)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=12), unique=True, max_size=6
        )
    )
    def test_round_trip(self, exponents):
        decomp = OSFormDecomposition(len(exponents), tuple(sorted(exponents)))
        assert os_form_check(os_form_polynomial(decomp.exponents)) == decomp

    def test_round_trip_large_q(self):
        # a thousand-term form is built in one pass, not by repeated addition
        delta = alexander_skein(PretzelLink((-2, 3, 2001)))
        start = time.perf_counter()
        decomp = os_form_check(delta)
        assert time.perf_counter() - start < 0.5
        assert decomp is not None and decomp.k == 1001
        assert os_form_polynomial(decomp.exponents) == symmetrize(delta)
        assert os_form_check(os_form_polynomial(decomp.exponents)) == decomp

    def test_form_implies_pm1(self):
        for params in ((3,), (5,), (7,), (-2, 3, 7), (-2, 3, 9), (-2, 3, 5)):
            delta = alexander_skein(PretzelLink(params))
            if os_form_check(delta) is not None:
                assert pm1_coefficients(delta), params

    def test_asymmetric_top_breaking_form_raises(self):
        # the top coefficient 2 already breaks the form; asymmetry still wins
        with pytest.raises(ObstructionError, match="not symmetric"):
            os_form_check(parse("1 + t + 2t^3"))

    def test_even_term_count_not_in_form(self):
        assert os_form_check(parse("t^-1 + t")) is None

    def test_half_integer_powers_not_in_form(self):
        assert os_form_check(parse("t^(-1/2) - 1 + t^(1/2)")) is None
        # the integer powers alone would alternate: only the half powers
        # break the form
        assert os_form_check(parse("t^(-1/2) + 1 + t^(1/2)")) is None
        assert os_form_check(parse("t^-1 + t^(-1/2) - 1 + t^(1/2) + t")) is None

    def test_monomial_units(self):
        for unit in (LaurentPoly({5: 1}), LaurentPoly({-3: -1})):
            assert os_form_check(unit) == OSFormDecomposition(0, ())

    def test_zero_raises(self):
        with pytest.raises(ObstructionError, match="zero polynomial"):
            os_form_check(LaurentPoly())

    def test_symmetrize(self):
        delta = parse("1 - t + t^2")
        sym = symmetrize(delta)
        assert sym == conj(sym)
        with pytest.raises(NotSymmetric):
            symmetrize(LaurentPoly())


def scan(delta):
    """``os_form_check`` with its decomposition as a (k, exponents) pair,
    the form ``parent_os_form`` (tests/reference_os_form.py) gives."""
    decomp = os_form_check(delta)
    return None if decomp is None else (decomp.k, decomp.exponents)


def outcome(check, delta):
    """A (k, exponents) pair, None, or the message of the error raised when
    no unit makes ``delta`` symmetric."""
    try:
        return check(delta)
    except (ObstructionError, NotSymmetric) as exc:
        return ("raises", str(exc))


def with_units(delta):
    """``delta`` times each of the units 1, -1, s^3 and -s^-4; the last two
    are stored over the slots of ``delta`` itself, with the shift in their
    lowest exponent and the sign in their sign slot."""
    return (
        delta,
        scale(delta, -1),
        under_unit(multiply(delta, LaurentPoly({3: 1})), 3, 1),
        under_unit(multiply(delta, LaurentPoly({-4: -1})), -4, -1),
    )


def arbiter_knots():
    """Every knot with 1-4 regions in -4..4 and with 5 regions in -3..3."""
    yield from knot_box(4, 4)
    for params in product(range(-3, 4), repeat=5):
        link = PretzelLink(params)
        if is_knot(link):
            yield link


def flipped(poly, s_exp):
    """``poly`` with the sign of its s^s_exp coefficient changed."""
    return add(poly, LaurentPoly({s_exp: -2 * dict(poly.items()).get(s_exp, 0)}))


def arbiter_forms():
    """Every form with exponents in 1..9, and each with one coefficient
    flipped at the top, the middle and the bottom, and with its innermost
    pair flipped, so that breaks late in the scan are covered."""
    for mask in range(512):
        exponents = tuple(n for n in range(1, 10) if mask >> (n - 1) & 1)
        form = os_form_polynomial(exponents)
        yield form
        yield flipped(form, highest_exponent(form))
        yield flipped(form, 0)
        yield flipped(form, lowest_exponent(form))
        if exponents:
            inner = 2 * exponents[0]
            yield flipped(flipped(form, inner), -inner)


def arbiter_random(seed=17, count=400):
    """Seeded random polynomials p, with p + conj(p), conj(p) * p and a random
    form under a random unit; exponents are s-exponents, so half-integer
    powers of t occur."""
    rng = random.Random(seed)
    for _ in range(count):
        p = LaurentPoly({rng.randint(-7, 7): rng.choice((-2, -1, 1, 2))
                         for _ in range(rng.randint(1, 6))})
        yield p
        yield add(p, conj(p))
        yield multiply(conj(p), p)
        exponents = tuple(sorted(rng.sample(range(1, 15), rng.randint(0, 6))))
        form = os_form_polynomial(exponents)
        yield multiply(form, LaurentPoly({rng.randint(-9, 9): rng.choice((1, -1))}))


class TestOSFormArbiter:
    def agree(self, polys):
        """Assert agreement on every input and tally the outcomes."""
        tally = {"form": 0, "none": 0, "raises": 0}
        for delta in polys:
            expected = outcome(parent_os_form, delta)
            assert outcome(scan, delta) == expected, delta
            kind = "none" if expected is None else "raises" if expected[0] == "raises" else "form"
            tally[kind] += 1
        return tally

    def test_knots_under_units(self):
        deltas = (unit_multiple for link in arbiter_knots()
                  for unit_multiple in with_units(alexander_skein(link)))
        tally = self.agree(deltas)
        assert tally["form"] and tally["none"] and not tally["raises"], tally

    def test_forms_and_flips(self):
        tally = self.agree(arbiter_forms())
        # the 512 forms and the three flips of the constant 1 are forms; a
        # flip at the top or bottom is asymmetric; a flip at the middle or of
        # the innermost pair breaks the alternation last
        assert tally == {"form": 512 + 3, "none": 511 + 511, "raises": 511 + 511}, tally

    def test_random(self):
        tally = self.agree(arbiter_random())
        assert all(tally.values()), tally

    def test_long_slices(self):
        # thousands of slots per comparison: P(-1,-4,5,2001) and
        # P(-1,4,3,2001) are out of form, P(-2,3,2001) is in form with
        # k = 1001
        families = ((-1, -4, 5), (-1, 4, 3), (-2, 3))
        deltas = [alexander_skein(PretzelLink(family + (2001,))) for family in families]
        tally = self.agree(unit_multiple for delta in deltas for unit_multiple in with_units(delta))
        assert tally == {"form": 4, "none": 8, "raises": 0}, tally
        assert scan(deltas[2])[0] == 1001


class TestScalarChecks:
    def test_pm1(self):
        assert pm1_coefficients(parse("1 - t + t^2"))
        assert not pm1_coefficients(parse("1 - 2t + t^2"))

    def test_monic(self):
        assert monic_check(parse("1 - t + t^2"))
        assert not monic_check(parse("3 - 10t + 13t^2 - 10t^3 + 3t^4"))
        with pytest.raises(ObstructionError):
            monic_check(LaurentPoly())

    def test_against_items(self):
        # both predicates read the stored slots without their sign; a
        # reference read from items(), which applies it, agrees on every
        # arbiter knot under units (the sign slot -1 included) and on every
        # arbiter form, inside a time budget
        start = time.perf_counter()
        deltas = [unit_multiple for link in arbiter_knots()
                  for unit_multiple in with_units(alexander_skein(link))]
        tally = set()
        for delta in deltas + list(arbiter_forms()):
            values = [v for _, v in delta.items()]
            pm1 = pm1_coefficients(delta)
            monic = monic_check(delta)
            assert pm1 == all(v in (-1, 0, 1) for v in values), delta
            assert monic == (abs(values[-1]) == 1), delta
            tally.add((delta._sign, pm1, monic))
        assert tally == {(sign, pm1, monic) for sign in (1, -1)
                         for pm1, monic in ((True, True), (False, True), (False, False))}
        assert time.perf_counter() - start < 3.0


class TestMinus1Minus1Family:
    def test_fox_not_monic(self):
        for m, p, q in ((2, 3, 3), (3, 3, 5), (2, 5, 7)):
            delta = alexander_fox(PretzelLink((-1, -1, 2 * m, p, q)))
            assert not monic_check(delta), (m, p, q)


class TestRankFormula:
    def test_trivial_example(self):
        # X = max(0, (2*1-1)*2 - 17) = 0, Y = 0: rank is |alpha|, so the
        # 17/2 surgery is an L-space and the cell is in the grid
        grid = claim2()
        cell = (1, 17, 2, 0)
        assert cell in grid.cells
        record = grid.check(cell)
        assert record["x_beta"] == 0
        assert record["ok"] is True
