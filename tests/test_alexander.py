import gc
import itertools
import math
import random
import time
import tracemalloc

import pytest

from pretzelsurgery import alexander, laurent
from pretzelsurgery.alexander import (
    alexander_skein,
    alexander_with_trace,
    claim_formula,
    torus_link_alexander,
)
from pretzelsurgery.grids import knot_box
from pretzelsurgery.laurent import SKEIN_FACTOR, LaurentPoly, parse
from pretzelsurgery.oracle import alexander_fox
from pretzelsurgery.pretzel import PretzelLink, family_membership, is_knot

from reference_conway import conway_pretzel


def small_knots(n_regions: int, max_crossings: int):
    """Knots with n_regions regions and at most max_crossings crossings."""
    def params(n, budget):
        if n == 0:
            yield ()
            return
        for a in range(-budget, budget + 1):
            for tail in params(n - 1, budget - abs(a)):
                yield (a,) + tail

    for p in params(n_regions, max_crossings):
        link = PretzelLink(p)
        if is_knot(link):
            yield link


def determinant(params) -> int:
    """|Delta(-1)| of a pretzel knot is |sum_i prod_{j != i} a_j|."""
    return sum(
        math.prod(a for j, a in enumerate(params) if j != i)
        for i in range(len(params))
    )


class TestTorusValues:
    def test_recursion(self):
        # the recursion Delta_{l+1} = Delta_{l-1} + w Delta_l from Delta_0 = 0
        # and Delta_1 = 1 is the arbiter of the closed form; negative indices
        # follow the sign rule Delta_{-l} = (-1)^(l+1) Delta_l
        w = SKEIN_FACTOR
        prev, cur = LaurentPoly.zero(), LaurentPoly.one()
        assert alexander._torus(0) == prev
        for l in range(1, 2001):
            assert torus_link_alexander(l) == cur, l
            if l <= 50:
                assert alexander._torus(-l) == (cur if l % 2 else -cur), l
            prev, cur = cur, prev + w * cur

    def test_known_polynomials(self):
        assert torus_link_alexander(1) == LaurentPoly.one()
        assert torus_link_alexander(3).equal_up_to_units(parse("1 - t + t^2"))
        assert torus_link_alexander(5).equal_up_to_units(
            parse("1 - t + t^2 - t^3 + t^4")
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            torus_link_alexander(0)

    def test_large_values_not_kept(self):
        # no process-wide table grows with l: 50 values of about 20,000
        # terms each leave nothing behind
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for l in range(20001, 20101, 2):
                assert torus_link_alexander(l).s_coefficient(l - 1) == 1
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - start < 2**20
        finally:
            tracemalloc.stop()


class TestKnownKnots:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((3,), "1 - t + t^2"),                       # trefoil
            ((5,), "1 - t + t^2 - t^3 + t^4"),
            ((1, -2), "1"),                              # unknot
            ((-2, 3, 7), "1 - t + t^3 - t^4 + t^5 - t^6 + t^7 - t^9 + t^10"),
            ((-1, -2, 3, 3), "1 - 4t + 5t^2 - 4t^3 + t^4"),
        ],
    )
    def test_normalized_value(self, params, expected):
        delta = alexander_skein(PretzelLink(params))
        assert delta.normalize() == parse(expected)

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            alexander_skein(PretzelLink((2, 2)))


class TestAgainstReferenceConway:
    def test_exact_agreement_small_box(self):
        # the independent descending-diagram recursion must agree exactly
        # (not just up to units): both sides use the same Conway framing
        checked = 0
        for n, bound in ((1, 5), (2, 4), (3, 3)):
            for link in knot_box(n, bound):
                if len(link.params) != n or sum(abs(a) for a in link.params) > 11:
                    continue
                assert alexander_skein(link) == conway_pretzel(link.params), link
                checked += 1
        assert checked > 100

    def test_exact_agreement_four_and_five_regions(self):
        # every four- and five-region knot with at most 7 crossings: these
        # resolve through two-component sub-links P(rest)
        checked = 0
        for n in (4, 5):
            for link in small_knots(n, 7):
                assert alexander_skein(link) == conway_pretzel(link.params), link
                checked += 1
        assert checked > 1000


def fox_box(n_regions: int, bound: int) -> int:
    """Assert skein = Fox on every n-region knot in -bound..bound; the
    number of knots checked."""
    checked = 0
    for params in itertools.product(range(-bound, bound + 1), repeat=n_regions):
        link = PretzelLink(params)
        if is_knot(link):
            assert alexander_skein(link).equal_up_to_units(
                alexander_fox(link)
            ), link
            checked += 1
    return checked


class TestAgainstFox:
    def test_five_region_box(self):
        assert fox_box(5, 3) == 4864

    @pytest.mark.parametrize("n_regions,count", [(6, 576), (7, 1472)])
    def test_six_and_seven_region_box(self, n_regions, count):
        assert fox_box(n_regions, 2) == count


class TestManyRegions:
    def test_random_invariants(self):
        # knots with 6 to 31 regions, far beyond any Fox box: the
        # determinant, Delta(1) and the symmetry pin the value
        rng = random.Random(20261018)
        checked = 0
        while checked < 300:
            params = tuple(
                rng.randint(-9, 9) for _ in range(rng.randint(6, 31))
            )
            link = PretzelLink(params)
            if not is_knot(link):
                continue
            delta = alexander_skein(link)
            assert abs(delta.eval_at_minus_one()) == abs(determinant(params)), link
            assert abs(delta.eval_at_one()) == 1, link
            assert delta.equal_up_to_units(delta.conj()), link
            checked += 1

    @pytest.mark.parametrize(
        "params",
        [(3,) * 21, (3,) * 25, (2,) + (3,) * 24],
        ids=["3^21", "3^25", "2,3^24"],
    )
    def test_budget(self, params):
        # one pass over the regions: no cost doubling per added region
        link = PretzelLink(params)
        start = time.perf_counter()
        delta = alexander_skein(link)
        assert time.perf_counter() - start < 1.0
        assert abs(delta.eval_at_minus_one()) == abs(determinant(params))
        assert abs(delta.eval_at_one()) == 1


class TestLargeQ:
    @pytest.mark.parametrize("q", [2001, 5001, 10001])
    def test_minus2_3_q(self, q):
        # P(-2,3,q) far beyond the arbiter boxes: symmetry, Delta(1) = +-1,
        # t-degree q + 3 and the closed form, all inside a time budget
        start = time.perf_counter()
        link = PretzelLink((-2, 3, q))
        delta = alexander_skein(link)
        assert delta.equal_up_to_units(delta.conj())
        assert abs(delta.eval_at_one()) == 1
        normal = delta.normalize()
        assert normal.mindeg == 0 and normal.maxdeg == 2 * (q + 3)
        assert delta.equal_up_to_units(claim_formula(family_membership(link)))
        assert time.perf_counter() - start < 2.0


class TestProductOperands:
    def test_every_product_has_a_short_operand(self, monkeypatch):
        # LaurentPoly products run the quadratic double loop, which is linear
        # only while one operand stays short: every multiplier of the state
        # sum (torus numerators, k w, small torus values, 1 + t) has at most
        # two terms, including the cut factors of knots with zero regions
        shortest = []
        product = laurent._product

        def recording(a, b):
            shortest.append(min(len(a), len(b)))
            return product(a, b)

        monkeypatch.setattr(laurent, "_product", recording)
        links = list(knot_box(4, 5))
        assert len(links) == 5142
        for family in ((-2, 3), (-1, 4, 3), (-1, -4, 5), (-1, -1, 4, 3)):
            links += [PretzelLink(family + (q,)) for q in (101, 2001, 99999)]
        for link in links:
            alexander_skein(link)
        assert shortest and max(shortest) <= 2


class TestTrace:
    def test_branch_outcomes(self):
        # each branch keeps the region at 0 or +-1, or removes it
        for params in ((-2, 3, 7), (-1, -2, 3, 3), (-1, 6, 3, 5), (-1, -1, 4, 3, 3)):
            _, trace = alexander_with_trace(PretzelLink(params))
            for step in trace.steps:
                assert step.param == params[step.region_index]
                for mult, outcome in step.branches:
                    assert not mult.is_zero
                    assert outcome in (0, 1, -1, None)

    def test_trace_steps_cover_root(self):
        # one step for each region with |a| >= 2, and no region twice
        for params in ((-2, 3, 7), (-1, -2, 3, 3), (1, -1, 2, 5, -3), (3,) * 9):
            value, trace = alexander_with_trace(PretzelLink(params))
            assert value == alexander_skein(PretzelLink(params))
            assert trace.root == PretzelLink(params)
            indices = [step.region_index for step in trace.steps]
            assert indices == sorted(indices)  # resolved in index order
            assert sorted(indices) == [
                i for i, a in enumerate(params) if abs(a) >= 2
            ]


class TestClosedForms:
    def test_claim_formula_matches_engine(self):
        for n in (-3, -2, -1, 1, 2, 3):
            for p, q in ((3, 3), (3, 5), (5, 7), (3, 9)):
                link = PretzelLink((-1, 2 * n, p, q))
                tag = family_membership(link)
                assert claim_formula(tag).equal_up_to_units(
                    alexander_skein(link)
                ), (n, p, q)

    def test_claim_formula_rejects_other(self):
        with pytest.raises(ValueError):
            claim_formula(family_membership(PretzelLink((3, 5, 7))))


class TestSupports:
    def test_supported_examples(self):
        # the last four resolve 24, 24, 12 and 10 parallel regions as
        # numerators over 1 + t; all but (-4,7^9) divide with slots wider
        # than 64 bits
        for params in (
            (-2, 3, 7),
            (-1, -2, 3, 3),
            (2,) + (3,) * 24,
            (-2,) + (3,) * 20 + (5,) * 4,
            (-2,) + (5,) * 12,
            (-4,) + (7,) * 9,
        ):
            link = PretzelLink(params)
            assert alexander_skein(link).equal_up_to_units(alexander_fox(link))

    def test_wide_antiparallel_matches_fox(self):
        # five regions with an antiparallel even region: smoothing it leaves
        # the two-component link P(-1,-1,3,3)
        link = PretzelLink((-1, -1, 4, 3, 3))
        assert alexander_skein(link).equal_up_to_units(alexander_fox(link))

    def test_determinant_identity(self):
        for link in knot_box(3, 4):
            if len(link.params) < 2:
                continue
            value = alexander_skein(link).normalize()
            assert abs(value.eval_at_minus_one()) == abs(determinant(link.params)), link
