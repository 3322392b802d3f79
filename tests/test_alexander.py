import gc
import itertools
import math
import random
import time
import tracemalloc

import pytest

from pretzelsurgery import alexander
from pretzelsurgery import grids
from pretzelsurgery.alexander import alexander_skein, alexander_with_trace, low_coefficients
from pretzelsurgery.grids import knot_box
from pretzelsurgery.laurent import LaurentError, LaurentPoly, _from_slots
from pretzelsurgery.oracle import alexander_fox
from pretzelsurgery.pretzel import PretzelError, PretzelLink, is_knot, parallel_regions

from invariants import at_minus_one, at_one, conj, highest_exponent, lowest_exponent
from reference_closed_form import claim_formula, torus
from reference_conway import conway_pretzel
from reference_laurent import SKEIN_FACTOR, add, multiply, parse, scale


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
        # and Delta_1 = 1, run both ways, is the arbiter of the numerators
        # N_l = (1 + t) Delta_l, of the table of two-term values and of
        # alexander_skein on the one-region knots P(l); the state sum keeps
        # its values as coefficient maps, compared whole, so a stored zero
        # would fail
        w = SKEIN_FACTOR
        one_plus_t = LaurentPoly({0: 1, 2: 1})

        def check(l, delta):
            if l:
                assert alexander._numerator(l) == dict(multiply(one_plus_t, delta).items()), l
            if abs(l) <= 2:
                assert alexander._SMALL_TORUS[l] == dict(delta.items()), l
            if l % 2:
                assert alexander_skein(PretzelLink((l,))) == delta, l

        prev, cur = LaurentPoly(), LaurentPoly({0: 1})
        check(0, prev)
        for l in range(1, 2001):
            check(l, cur)
            prev, cur = cur, add(prev, multiply(w, cur))
        # Delta_{l-1} = Delta_{l+1} - w Delta_l
        cur, nxt = LaurentPoly(), LaurentPoly({0: 1})
        for l in range(-1, -51, -1):
            cur, nxt = add(nxt, scale(multiply(w, cur), -1)), cur
            check(l, cur)

    def test_known_polynomials(self):
        assert alexander._SMALL_TORUS[1] == {0: 1}
        divide = alexander._divide_by_one_plus_t
        assert _from_slots(*divide(alexander._numerator(3), 1)).equal_up_to_units(parse("1 - t + t^2"))
        assert _from_slots(*divide(alexander._numerator(5), 1)).equal_up_to_units(parse("1 - t + t^2 - t^3 + t^4"))

    def test_large_values_not_kept(self):
        # no process-wide table grows with l: the values of 50 one-region
        # knots of about 20,000 terms each leave nothing behind
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for l in range(20001, 20101, 2):
                assert alexander_skein(PretzelLink((l,))).coefficient((l - 1) // 2) == 1
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - start < 2**20
        finally:
            tracemalloc.stop()

    def test_twist_bound_memory(self):
        # at the twist bound, one skein call peaks at a few slot lists of
        # Delta's span (about 200,000 s-exponents), and builds no map of it
        link = PretzelLink((-1, 4, 3, 99999))
        gc.collect()
        tracemalloc.start()
        try:
            started = time.perf_counter()
            delta = alexander_skein(link)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta.normalize().coefficient(3) == 2
        assert peak < 5 * 2**20, peak
        assert elapsed < 0.5, elapsed


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
            assert abs(at_minus_one(delta)) == abs(determinant(params)), link
            assert abs(at_one(delta)) == 1, link
            assert delta.equal_up_to_units(conj(delta)), link
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
        assert abs(at_minus_one(delta)) == abs(determinant(params))
        assert abs(at_one(delta)) == 1

    @pytest.mark.parametrize(
        "params", [(1,) * 1001, (1, -1) * 500 + (3,), (3,) * 21], ids=["1^1001", "(1,-1)^500,3", "3^21"]
    )
    def test_state_sum_copies_no_regions(self, params):
        # the state sum knows the regions left after each one by their
        # number, and copies them only in a removal's leaf, where at most
        # two are left: it copies a number of regions linear in n, not the
        # n(n - 1)/2 = 500,500 of a copy of the rest at each of 1001 regions
        class CountingSlices(tuple):
            def __getitem__(self, index):
                item = super().__getitem__(index)
                if isinstance(index, slice):
                    self.copied += len(item)
                return item

        counted = CountingSlices(params)
        counted.copied = 0
        link = PretzelLink(params)
        numerator, k = alexander._state_sum(counted, parallel_regions(link), any(a % 2 == 0 for a in params))
        assert counted.copied <= len(params)
        assert _from_slots(*alexander._divide_by_one_plus_t(numerator, k)) == alexander_skein(link)

    def test_many_unit_regions(self):
        # 40,001 regions: P(1^n) is the (2, n)-torus knot, and
        # P((1,-1)^m, 3) has Delta = 1; about 0.05 s each on 2 CPUs with
        # Python 3.11, 2-4 s when every region copied the rest
        start = time.perf_counter()
        assert alexander_skein(PretzelLink((1,) * 40001)).equal_up_to_units(torus(40001))
        assert alexander_skein(PretzelLink((1, -1) * 20000 + (3,))).normalize() == LaurentPoly({0: 1})
        assert time.perf_counter() - start < 1.0


class TestLargeQ:
    @pytest.mark.parametrize("q", [2001, 5001, 10001])
    def test_minus2_3_q(self, q):
        # P(-2,3,q) far beyond the arbiter boxes: symmetry, Delta(1) = +-1,
        # t-degree q + 3 and the closed form, all inside a time budget
        start = time.perf_counter()
        link = PretzelLink((-2, 3, q))
        delta = alexander_skein(link)
        assert delta.equal_up_to_units(conj(delta))
        assert abs(at_one(delta)) == 1
        normal = delta.normalize()
        assert lowest_exponent(normal) == 0 and highest_exponent(normal) == 2 * (q + 3)
        # P(-2,3,q) = P(-1,2,3,q)
        assert delta.equal_up_to_units(claim_formula(1, 3, q))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("q", [2001, 10001])
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n", [-2, -1, 2])
    def test_family_matches_closed_form(self, n, p, q):
        # the paper's family P(-1,2n,p,q), whose numerators have a low and
        # a high block about 2q apart, against the independent closed form
        start = time.perf_counter()
        delta = alexander_skein(PretzelLink((-1, 2 * n, p, q)))
        assert delta.equal_up_to_units(claim_formula(n, p, q)), (n, p, q)
        assert time.perf_counter() - start < 2.0

    def test_trace_multipliers_are_torus_values(self):
        # a parallel region a with |a| = 10001 takes the two-term numerators
        # of Delta_(sign - a) and Delta_(-a) over (1 + t)^1, and the trace
        # lists their quotients; Delta_(-l) = (-1)^(l+1) Delta_l mirrors
        # the arbiter's torus values to negative indices
        def mirror(l):
            return torus(l) if l >= 0 else scale(torus(-l), 1 if l % 2 else -1)

        steps_seen = 0
        for params in ((-2, 3, 10001), (-1, 4, 3, 10001), (-1, -4, 5, 10001),
                       (-2, 3, -10001), (-1, 2, 3, -10001), (-2, -10001, 5)):
            _, steps = alexander_with_trace(PretzelLink(params))
            for _, a, branches in steps:
                if abs(a) == 10001:
                    sign = 1 if a > 0 else -1
                    assert branches == ((mirror(sign - a), 0), (mirror(-a), sign)), params
                    steps_seen += 1
        assert steps_seen == 6


class TestConwayRepresentative:
    def test_symmetric_with_value_one(self):
        # lowest exponent == -highest exponent and Delta(1) = 1 fix the unit of Delta uniquely,
        # so the raw output of alexander_skein cannot drift to another one
        links = list(knot_box(4, 5))
        assert len(links) == 5142
        for family in ((-2, 3), (-1, -4, 5), (-1, -1, 4, 3)):
            links += [PretzelLink(family + (q,)) for q in (101, 2001, 99999)]
        for link in links:
            delta = alexander_skein(link)
            assert lowest_exponent(delta) == -highest_exponent(delta) and at_one(delta) == 1, link

    def test_normalized_coefficient_allocates_no_copy(self):
        # normalize() relabels the q-term map under a unit instead of
        # rebuilding it: reading one coefficient allocates almost nothing
        delta = alexander_skein(PretzelLink((-2, 3, 99999)))
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert delta.normalize().coefficient(4) == -1
            assert tracemalloc.get_traced_memory()[1] - start < 1024
        finally:
            tracemalloc.stop()


def _one_even_region(n: int) -> tuple[int, ...]:
    """A knot of n regions seeded by n: one even region, every |a| >= 3."""
    rng = random.Random(n)
    params = [rng.choice((-1, 1)) * rng.randrange(3, 12, 2) for _ in range(n - 1)]
    params.insert(rng.randrange(n), rng.choice((-1, 1)) * rng.randrange(4, 12, 2))
    return tuple(params)


class TestProductOperands:
    def test_every_product_has_a_short_operand(self, monkeypatch):
        # products run the quadratic double loop, which is linear only while
        # one operand stays short: every multiplier of the state sum (torus
        # numerators, k w, the torus values 1 and +-w, 1 + t) has at most two
        # terms, including the cut factors of knots with zero regions; and no
        # product has an empty operand, as a 0 leaf, a 0 cut factor or a
        # Horner step on an empty sum would give
        shortest = []
        product = alexander._product

        def recording(a, b):
            shortest.append(min(len(a), len(b)))
            return product(a, b)

        monkeypatch.setattr(alexander, "_product", recording)
        links = list(knot_box(4, 5))
        assert len(links) == 5142
        for family in ((-2, 3), (-1, 4, 3), (-1, -4, 5), (-1, -1, 4, 3)):
            links += [PretzelLink(family + (q,)) for q in (101, 2001, 99999)]
        for link in links:
            alexander_skein(link)
        assert shortest and min(shortest) >= 1 and max(shortest) <= 2

    @pytest.mark.parametrize(
        "params,products",
        [((-1, -4, 5, 7), 5), ((-2, 5, 7), 4), ((-1, -1, 4, 5, 7), 5), ((3, 5, 7, 9, 11), 14),
         ((-1, 4, 3, 99999), 7)]
        + [((3,) * n, (n - 1) * (n + 2) // 2) for n in (11, 21, 41, 81)]
        + [(_one_even_region(n), range(3 * n - 6, 3 * n - 1)) for n in (10, 20, 40, 80, 160)],
    )
    def test_product_count(self, params, products, monkeypatch):
        # the state sum makes no product known to be 0: no Horner step on an
        # empty sum, no leaf of value 0, and no branch of the last region
        # whose only leaf is the split (2, 0) link, as in (-1, -4, 5, 7) and
        # (-1, -1, 4, 5, 7); and the count is a deterministic complexity
        # guard: (n - 1)(n + 2)/2 products for n regions of 3, between 3n - 6
        # and 3n - 2 with one even region and every |a| >= 3 (under 0.2 s
        # for all nine on 2 CPUs with Python 3.11)
        calls = []
        product = alexander._product

        def counting(a, b):
            calls.append(None)
            return product(a, b)

        monkeypatch.setattr(alexander, "_product", counting)
        alexander_skein(PretzelLink(params))
        assert (len(calls) in products) if isinstance(products, range) else (len(calls) == products)

    @pytest.mark.parametrize(
        "params,parallel",
        [((0, 3, 3), (True, False, False)), ((2, 1, -5, 3), (True, True, False, True))],
    )
    def test_cut_factor_over_its_region_power(self, params, parallel):
        # an antiparallel odd region with |a| >= 3 after a nonempty cut would
        # multiply the cut by its numerator over (1 + t)^1 while its region
        # lies over (1 + t)^0; real flows never do this (a cut needs an even
        # region, and then every odd region runs parallel), so it raises
        with pytest.raises(RuntimeError, match="cut factor"):
            alexander._state_sum(params, parallel, True)
        numerator, k = alexander._state_sum(params, parallel_regions(PretzelLink(params)), True)
        assert all(numerator.values())
        assert _from_slots(*alexander._divide_by_one_plus_t(numerator, k)) == alexander_skein(PretzelLink(params))


class TestSharedValues:
    def test_state_sum_modifies_no_shared_map(self):
        # the state sum keeps module constants, cached numerators and weights
        # as shared dicts and must never update one in place
        cached = {l: alexander._numerator(l) for l in range(-12, 13) if l}
        shared = [alexander._ONE, alexander._ZERO, alexander._ONE_PLUS_T,
                  *alexander._SMALL_TORUS.values(), *cached.values()]
        before = [dict(m) for m in shared]
        for link in knot_box(4, 5):
            alexander_skein(link)
        assert [dict(m) for m in shared] == before
        assert all(alexander._numerator(l) is m for l, m in cached.items())
        # a one- or two-region knot over (1 + t)^0 is divided by (1 + t)^0,
        # which lays its map out in a new slot list on every call: its
        # result owns its slots, and the shared map is left as it was
        for params in ((1,), (-1,), (2, -1), (3,), (-2, 1), (4, -1)):
            delta = alexander_skein(PretzelLink(params))
            assert delta._slots is not alexander_skein(PretzelLink(params))._slots, params
        assert [dict(m) for m in shared] == before


class TestTrace:
    def test_branch_outcomes(self):
        # each branch keeps the region at 0 or +-1, or removes it
        for params in ((-2, 3, 7), (-1, -2, 3, 3), (-1, 6, 3, 5), (-1, -1, 4, 3, 3)):
            _, steps = alexander_with_trace(PretzelLink(params))
            for region_index, param, branches in steps:
                assert param == params[region_index]
                for mult, outcome in branches:
                    assert not mult.is_zero
                    assert outcome in (0, 1, -1, None)

    def test_trace_steps_cover_root(self):
        # one step for each region with |a| >= 2, and no region twice
        for params in ((-2, 3, 7), (-1, -2, 3, 3), (1, -1, 2, 5, -3), (3,) * 9):
            value, steps = alexander_with_trace(PretzelLink(params))
            assert value == alexander_skein(PretzelLink(params))
            indices = [region_index for region_index, _, _ in steps]
            assert indices == sorted(indices)  # resolved in index order
            assert sorted(indices) == [
                i for i, a in enumerate(params) if abs(a) >= 2
            ]


class TestClosedForms:
    def test_claim_formula_matches_engine(self):
        for n in (-3, -2, -1, 1, 2, 3):
            for p, q in ((3, 3), (3, 5), (5, 7), (3, 9)):
                link = PretzelLink((-1, 2 * n, p, q))
                assert claim_formula(n, p, q).equal_up_to_units(
                    alexander_skein(link)
                ), (n, p, q)


class TestLowCoefficients:
    """The window of the normalized Delta that ``low_coefficients`` reads
    from the state sum's numerator, against the full division, Fox and the
    closed form; its values are read off each arbiter's normalized
    polynomial, never from the window's running sums."""

    @staticmethod
    def window(delta, w=6):
        normal = delta.normalize()
        return [normal.coefficient(j) for j in range(w)]

    def test_matches_division_on_box(self):
        # every knot with 1-4 regions in -7..7 and 5 regions in -4..4,
        # 23,736 knots in about 4 s (the whole 5-region box in -5..5 takes
        # 8 s, too long for this suite); w runs 0..6 with the knot
        links = list(knot_box(4, 7)) + [l for l in knot_box(5, 4) if l.n_regions == 5]
        assert len(links) == 23_736
        for i, link in enumerate(links):
            w = i % 7
            assert low_coefficients(link, w) == self.window(alexander_skein(link), w), link

    @pytest.mark.parametrize("q", [1001, 2001])
    def test_matches_fox_on_families(self, q):
        # each candidate family far beyond the boxes: (-2l,p,q), the four
        # cases of (-1,2n,p,q) the Alexander gate reads and (-1,-1,2m,p,q)
        for params in ((-4, 3, q), (-2, 5, q), (-1, -2, 3, q), (-1, -4, 5, q), (-1, 4, 3, q),
                       (-1, 6, 5, q), (-1, -1, 4, 3, q), (-1, -1, 6, 5, q)):
            link = PretzelLink(params)
            assert low_coefficients(link, 6) == self.window(alexander_fox(link)), params

    def test_matches_closed_form_on_grids(self):
        # the cells of the claim 3, 4 and 5 grids at their default bounds,
        # all of the family (-1,2n,p,q)
        cells = [(-n, p, q) for n, p, q in grids.claim3().cells]
        cells += grids.claim4().cells + [(1, p, q) for p, q in grids.claim5().cells]
        assert len(cells) == 145
        for n, p, q in cells:
            link = PretzelLink((-1, 2 * n, p, q))
            assert low_coefficients(link, 6) == self.window(claim_formula(n, p, q)), (n, p, q)

    def test_any_twist(self):
        # no twist bound: the gate's three coefficients at q past it
        for q in (100_001, 10**20 + 1):
            assert low_coefficients(PretzelLink((-1, 4, 3, q)), 4)[3] == 2
            assert low_coefficients(PretzelLink((-1, -4, 5, q)), 2)[1] == -3
            assert low_coefficients(PretzelLink((-1, -1, 4, 3, q)), 1)[0] == 3
        with pytest.raises(PretzelError, match="is not a knot"):
            low_coefficients(PretzelLink((2, 4, 10**20 + 1)), 1)

    def test_division_errors(self):
        # a numerator off by one term is not divisible, and one with a term of
        # the other parity is refused: the window raises what the division
        # raises, with the same message
        def both_raise(c, k):
            messages = []
            for divide in (lambda: alexander._divide_by_one_plus_t(c, k),
                           lambda: alexander._low_coefficients(c, k, 6)):
                with pytest.raises(LaurentError) as caught:
                    divide()
                messages.append(str(caught.value))
            assert messages[0] == messages[1], messages
            return messages[0]

        def plus(c, term):
            out = dict(c)
            for e, v in term.items():
                out[e] = out.get(e, 0) + v
            return {e: v for e, v in out.items() if v}

        checked = 0
        for params in ((-2, 3, 7), (-1, 4, 3, 5), (-1, -1, 4, 3, 11), (3, 5, 7), (-1, 4, 3, 99999)):
            numerator, k = alexander._numerator_and_power(PretzelLink(params))
            assert k >= 1, params
            lo, hi = min(numerator), max(numerator)
            for e in sorted(numerator) + [lo - 2, hi + 2]:
                # one term off, and (1 + t)^m times that term for each m < k,
                # which only the m-th moment of the test sees
                for m in range(k):
                    term = dict(multiply(LaurentPoly({e: 1}), *[LaurentPoly({0: 1, 2: 1})] * m).items())
                    message = both_raise(plus(numerator, term), k)
                    assert message == f"(1 + t)^{k} does not divide the polynomial", (params, e, m)
                    checked += 1
            for e in (lo + 1, hi - 1, hi + 1):
                mixed = dict(numerator)
                mixed[e] = 1
                assert "one parity only" in both_raise(mixed, k), (params, e)
        assert checked >= 80
        with pytest.raises(LaurentError, match="zero polynomial"):
            alexander._low_coefficients({}, 1, 1)


class TestSupports:
    def test_supported_examples(self):
        # the last four resolve 24, 24, 12 and 10 parallel regions as
        # numerators over 1 + t, and each ends in one division by (1 + t)^k
        # with k >= 10
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
            assert abs(at_minus_one(value)) == abs(determinant(link.params)), link
