import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from pretzelsurgery import laurent
from pretzelsurgery.alexander import (
    _divide_by_one_plus_t,
    _product,
    _sum,
    alexander_skein,
    alexander_with_trace,
)
from pretzelsurgery.grids import knot_box
from pretzelsurgery.laurent import LaurentError, LaurentPoly, _from_slots, render
from pretzelsurgery.pretzel import PretzelLink

from invariants import at_minus_one, conj, lowest_exponent, under_unit
from reference_laurent import SKEIN_FACTOR, add, multiply, parse, scale


coeffs = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-50, max_value=50),
    max_size=8,
)
polys = coeffs.map(LaurentPoly)


def _map(p):
    """The coefficient map of a polynomial: the zero-free map that the skein
    engine's ``_product``, ``_sum`` and ``_divide_by_one_plus_t`` take."""
    return dict(p.items())


maps = polys.map(_map)


def _layout(m):
    """The dense layout (lo, slots) of a zero-free coefficient map, built
    here: its lowest exponent and one slot per exponent up to its highest,
    or (0, []) for the empty map."""
    if not m:
        return 0, []
    lo = min(m)
    return lo, [m.get(e, 0) for e in range(lo, max(m) + 1)]


def _check_layout(p):
    """p is stored in the one layout: a sign of +-1 and a list of ints whose
    first and last slots are nonzero, or the empty list at lo = 0."""
    assert p._sign in (1, -1)
    assert all(type(v) is int for v in p._slots)
    if p._slots:
        assert p._slots[0] and p._slots[-1]
    else:
        assert p._lo == 0


def _shifted(m, unit):
    """The coefficient map m times the unit sign * s**k."""
    k, sign = unit
    return {e + k: sign * v for e, v in m.items()}


def _shifted_layout(layout, unit):
    """The dense layout (lo, slots) times the unit sign * s**k."""
    (lo, slots), (k, sign) = layout, unit
    return (lo + k if slots else 0), [sign * v for v in slots]


def _conj(m):
    """The coefficient map m with s -> s**-1."""
    return {-e: v for e, v in m.items()}


class TestArithmetic:
    """Ring properties of ``alexander._product`` and ``_sum``, the arithmetic
    the skein state sum runs on plain coefficient maps."""

    @given(maps, maps)
    def test_addition_commutes(self, a, b):
        assert _sum(a, b) == _sum(b, a)

    @given(maps, maps)
    def test_multiplication_commutes(self, a, b):
        assert _product(a, b) == _product(b, a)

    @given(maps, maps, maps)
    def test_distributive(self, a, b, c):
        assert _product(a, _sum(b, c)) == _sum(_product(a, b), _product(a, c))

    @given(maps)
    def test_additive_inverse(self, a):
        assert _sum(a, {e: -v for e, v in a.items()}) == {}

    @given(maps)
    def test_units(self, a):
        assert _product(a, {0: 1}) == a
        assert _product(a, {}) == {}

    @given(maps, st.integers(min_value=-6, max_value=6))
    def test_shift_is_unit_multiplication(self, a, k):
        assert _product(a, {k: 1}) == {e + k: v for e, v in a.items()}

    @given(maps, maps)
    def test_conj_multiplicative(self, a, b):
        assert _conj(_product(a, b)) == _product(_conj(a), _conj(b))

    @given(maps, maps)
    def test_evaluation_ring_hom(self, a, b):
        # the value at s = 1 is the sum of the coefficients
        assert sum(_product(a, b).values()) == sum(a.values()) * sum(b.values())
        assert sum(_sum(a, b).values()) == sum(a.values()) + sum(b.values())


class TestNormalization:
    @given(polys)
    def test_normalize_idempotent(self, p):
        assume(not p.is_zero)
        assert p.normalize().normalize() == p.normalize()

    @given(polys, st.integers(min_value=-6, max_value=6), st.sampled_from([1, -1]))
    def test_unit_multiples_equivalent(self, p, k, sign):
        assume(not p.is_zero)
        q = multiply(p, LaurentPoly({k: sign}))
        assert p.equal_up_to_units(q)
        assert p.normalize() == q.normalize()

    def test_distinct_polys_not_equivalent(self):
        p = parse("1 - t + t^2")
        q = parse("1 - 2t + t^2")
        assert not p.equal_up_to_units(q)

    def test_normalized_shape(self):
        p = LaurentPoly({-3: -1, -1: 2, 1: -1})
        n = p.normalize()
        assert lowest_exponent(n) == 0
        assert n.s_coefficient(0) > 0

    def test_trusted_results_match_public_constructor(self):
        # every polynomial built by _from_slots without a check (normalize,
        # the skein's quotient, its trace's multipliers) is in the layout
        # and equals the public constructor's polynomial of its terms
        p = LaurentPoly({-3: 2, -1: -5, 1: 7, 5: -1, 9: 3})
        q = LaurentPoly({e: e - 4 for e in range(-10, 12)})
        one_plus_t_squared = LaurentPoly({0: 1, 2: 2, 4: 1})
        results = [
            q.normalize(), multiply(p, q).normalize(), p.normalize().normalize(),
            scale(q, -3).normalize(), under_unit(p, 3, -1).normalize(),
            _from_slots(*_divide_by_one_plus_t(_map(multiply(p, one_plus_t_squared)), 2)),
        ]
        families = ((-1, 4, 3), (-1, -4, 5), (-2, 5), (-2, 3))
        links = [*knot_box(4, 5), *(PretzelLink(f + (n,)) for f in families for n in (101, 2001, 99999))]
        for link in links:
            delta, steps = alexander_with_trace(link)
            results += [delta, alexander_skein(link), delta.normalize()]
            results += [m for _, _, branches in steps for m, _ in branches]
        for r in results:
            _check_layout(r)
            public = LaurentPoly(dict(r.items()))
            assert all(v for _, v in r.items())
            assert r == public


class TestRendering:
    @given(polys)
    def test_parse_render_round_trip(self, p):
        assert parse(render(p)) == p

    def test_render_examples(self):
        assert render(LaurentPoly()) == "0"
        assert render(parse("1 - t + t^2")) == "1 - t + t^2"
        assert render(LaurentPoly({-1: 1})) == "t^(-1/2)"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("1 + spam")


class TestDomainValues:
    def test_skein_factor(self):
        # w = t^(-1/2) - t^(1/2)
        assert SKEIN_FACTOR == LaurentPoly({-1: 1, 1: -1}) == parse("t^(-1/2) - t^(1/2)")


def _random_poly(rng, terms, lo, span, magnitude):
    return LaurentPoly(
        {rng.randint(lo, lo + span): rng.randint(-magnitude, magnitude) for _ in range(terms)}
    )


def _boundary_pairs():
    """Operands whose product has a coefficient at or next to +-2**k for
    every fixed-width integer boundary k: a row of v's against a row of ones
    sums exactly to the target in the middle term."""
    for k in (7, 15, 31, 63):
        for target in (2**k - 1, 2**k, 2**k + 1):
            for m in (5, 9):
                v = target // m
                a = LaurentPoly({i: v for i in range(1, m)} | {0: target - (m - 1) * v})
                b = LaurentPoly({i: 1 for i in range(m)})
                for sign in (1, -1):
                    yield scale(a, sign), b
                    yield multiply(b, LaurentPoly({-1: 1})), scale(a, sign)


def _seeded_pairs():
    rng = random.Random(8)
    # magnitudes whose products straddle each fixed-width integer boundary,
    # then coefficients past 64 bits
    for bits in (3, 4, 7, 8, 15, 16, 31, 32, 33, 64, 100, 200):
        for _ in range(60):
            magnitude = 2 ** (bits // 2)
            yield (
                _random_poly(rng, rng.randint(0, 12), rng.randint(-20, 20), 30, magnitude),
                _random_poly(rng, rng.randint(0, 40), rng.randint(-60, 20), 90, 2**bits),
            )


def _shape_pairs():
    torus = LaurentPoly({e: (-1) ** i for i, e in enumerate(range(-20, 21, 2))})
    half = LaurentPoly({-3: 2, -1: -5, 1: 7, 5: -1, 9: 3, 11: 1})
    yield LaurentPoly(), torus
    yield torus, LaurentPoly()
    yield LaurentPoly({-7: -3}), torus
    yield torus, LaurentPoly({4: 5})
    yield LaurentPoly({e: e for e in range(1, 12)}), LaurentPoly({e: -e for e in range(3, 30)})
    yield LaurentPoly({e: e for e in range(-12, 0)}), LaurentPoly({e: 2 for e in range(-30, -3)})
    yield half, half
    yield half, torus
    # products whose middle terms cancel: (1 + s)(1 - s), (s^-1 - s)(s^-1 + s)
    # and (1 + t)(1 - t + t^2)
    yield LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1})
    yield LaurentPoly({-1: 1, 1: -1}), LaurentPoly({-1: 1, 1: 1})
    yield LaurentPoly({0: 1, 2: 1}), LaurentPoly({0: 1, 2: -1, 4: 1})
    yield conj(half), multiply(torus, LaurentPoly({-41: 1}))
    # a sparse operand, with exponents thousands apart
    yield LaurentPoly({0: 1, 1000: -1, 2001: 2, 5000: 1, 9999: 7}), torus
    # a shorter operand of one to six terms, on either side
    for n in range(1, 7):
        short = LaurentPoly({2 * i - 3: 3 - i for i in range(n + 1) if i != 3})
        yield short, torus
        yield torus, short


class TestProductAndSumAgainstSchoolbook:
    """``alexander._product`` and ``_sum`` against the schoolbook ``multiply``
    and ``add`` of ``reference_laurent``."""

    @pytest.mark.parametrize(
        "pairs", [_boundary_pairs, _seeded_pairs, _shape_pairs], ids=lambda f: f.__name__
    )
    def test_equals_schoolbook(self, pairs):
        # the map functions the skein state sum calls: each returns a new map
        # with no zero stored and leaves both operands as they were
        for p, q in pairs():
            a, b = _map(p), _map(q)
            a0, b0 = dict(a), dict(b)
            minus_a = {e: -v for e, v in a.items()}
            for fn, arbiter, x, y in (
                (_product, multiply, a, b),
                (_product, multiply, b, a),
                (_sum, add, a, b),
                (_sum, add, b, a),
                (_sum, add, a, minus_a),
            ):
                m = fn(x, y)
                assert m is not x and m is not y
                assert all(m.values()), (fn, p, q)
                assert LaurentPoly(m) == arbiter(LaurentPoly(x), LaurentPoly(y)), (fn, p, q)
                assert a == a0 and b == b0, (fn, p, q)
            assert _sum(a, minus_a) == {}


def _times_one_plus_t(q, k):
    """q * (1 + t)**k by the dictionary double loop, one factor at a time."""
    for _ in range(k):
        q = multiply(q, LaurentPoly({0: 1, 2: 1}))
    return q


def _even(q):
    """q with every s-exponent doubled: one parity class, over the t-span
    that q has in s."""
    return LaurentPoly({2 * e: v for e, v in q.items()})


def _seeded_quotients():
    rng = random.Random(13)
    # quotients whose coefficients straddle each fixed-width integer
    # boundary, then go past 64 bits; s-exponents all even or all odd
    for bits in (3, 6, 7, 8, 14, 15, 16, 30, 31, 32, 33, 62, 63, 64, 65, 100, 200):
        for k in range(1, 27):
            q = _even(_random_poly(rng, rng.randint(1, 12), rng.randint(-40, 20), 40, 2**bits))
            yield q, k
            yield multiply(q, LaurentPoly({1: -1})), k


def _wide_quotients():
    """Quotients far larger than their numerators: ((1 + t**m) / (1 + t))**k
    for odd m has numerator (1 + t**m)**k, of 1-norm 2**k, and a middle
    coefficient near m**(k-1) / (k-1)!, which the running sums build up
    across a long run of zeros in the dividend."""
    for m, k in ((1001, 2), (301, 3), (41, 6), (9, 26)):
        q = LaurentPoly({0: 1})
        for _ in range(k):
            q = multiply(q, LaurentPoly({2 * i: (-1) ** i for i in range(m)}))
        yield q, k
        yield multiply(q, LaurentPoly({-7: -1})), k


def _run_quotient(head, v, length, tail, degree=0):
    """The quotient with the t-step coefficients of head, then length
    t-steps (-1)**j * v * i**degree for i = 1, 2, ..., then those of tail.
    Times (1 + t)**k with k > degree the middle cancels: the dividend has
    a run of about length zero t-steps between a low and a high block."""
    h = len(head)
    middle = [(-1) ** j * v * (j - h + 1) ** degree for j in range(h, h + length)]
    return _even(LaurentPoly(dict(enumerate(head + middle + tail))))


def _longest_run(c):
    """The first and last t-steps of the longest run of zero t-steps between
    two terms of the coefficient map c, and its length."""
    steps = sorted((e - min(c)) // 2 for e in c)
    a, b = max(zip(steps, steps[1:]), key=lambda ab: ab[1] - ab[0])
    return a + 1, b - 1, b - a - 1


def _constant_runs():
    """Dividends whose quotient is one constant up to sign, v, across more
    than half of its t-steps: k = 1 to 6, heads of one to four t-steps (so
    the run starts on either parity), runs of either parity of length,
    v = 0 and v != 0, and tails of none to five t-steps; with no tail the
    run reaches the quotient's last t-step.  1 + t never divides the
    quotient."""
    rng = random.Random(30)
    for k in range(1, 7):
        for h in (1, 2, 3, 4):
            for length in (40, 41):
                for v in (0, 3, -1):
                    for r in (0, 1, 2, 5):
                        if not (v or r):
                            continue
                        head = [rng.choice((-2, 1, 5))] + [rng.randint(-9, 9) for _ in range(h - 1)]
                        tail = [rng.randint(-9, 9) for _ in range(r - 1)] + [rng.choice((-1, 4))] if r else []
                        q = _run_quotient(head, v, length, tail)
                        if not at_minus_one(q):
                            # 1 + t divides q, so one factor short would divide
                            head[0] += 1
                            q = _run_quotient(head, v, length, tail)
                        yield q, k
                        yield multiply(q, LaurentPoly({-5: -1})), k


def _summed_through():
    """Dividends with a run of zero t-steps over more than half of the
    quotient, across which the quotient is (-1)**j v times a polynomial in
    j of degree 1 to k - 1: the lower running sums are not 0 at the run's
    start, so the sums are run across it."""
    for k in range(2, 7):
        for degree in range(1, k):
            for head, tail in (([1], []), ([2, -1, 3], [1, 1]), ([-1, 0, 0, 4], [5])):
                yield _run_quotient(head, 1, 60, tail, degree), k


class TestExactDivision:
    """``alexander._divide_by_one_plus_t`` on coefficient maps, against
    quotients multiplied back by the schoolbook ``multiply``."""

    @pytest.mark.parametrize(
        "cases", [_seeded_quotients, _wide_quotients, _constant_runs, _summed_through],
        ids=lambda f: f.__name__,
    )
    def test_quotient_of_product(self, cases):
        for q, k in cases():
            r = _divide_by_one_plus_t(_map(_times_one_plus_t(q, k)), k)
            assert r == _layout(_map(q)), (q, k)
            assert r[1][0] and r[1][-1]

    @pytest.mark.parametrize("cases", [_constant_runs, _summed_through], ids=lambda f: f.__name__)
    def test_run_cases_have_long_runs(self, cases):
        # every dividend of these cases has a run of zero t-steps over more
        # than half of the quotient's t-steps, and the runs start and end
        # on both parities of t-step
        parities = set()
        for q, k in cases():
            c = _map(_times_one_plus_t(q, k))
            first, last, length = _longest_run(c)
            count = (max(c) - min(c)) // 2 + 1 - k
            assert 2 * min(length, count - first) > count, (q, k)
            parities.add((first % 2, min(last, count - 1) % 2))
        assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_run_perturbed_raises(self):
        # one term changed in the head, at each edge of the run or in the
        # tail, and one factor short: none is divisible
        for q, k in _constant_runs():
            c = _map(_times_one_plus_t(q, k))
            first, last, _ = _longest_run(c)
            lo, top = min(c), max(c)
            for step in (0, first - 1, first, last, last + 1, (top - lo) // 2):
                e = lo + 2 * step
                changed = dict(c)
                changed[e] = changed.get(e, 0) + 1
                if not changed[e]:
                    del changed[e]
                with pytest.raises(LaurentError, match="does not divide"):
                    _divide_by_one_plus_t(changed, k)
            with pytest.raises(LaurentError, match="does not divide"):
                _divide_by_one_plus_t(_map(_times_one_plus_t(q, k - 1)), k)

    def test_indivisible_raises(self):
        rng = random.Random(14)
        for k in range(1, 27):
            q = _even(_random_poly(rng, rng.randint(1, 12), rng.randint(-40, 20), 40, 2 ** rng.randint(1, 100)))
            n = _times_one_plus_t(q, k)
            lo, hi = lowest_exponent(n), n.maxdeg
            for e in (lo, hi, lo + 2, hi - 6):
                with pytest.raises(LaurentError, match="does not divide"):
                    _divide_by_one_plus_t(_map(add(n, LaurentPoly({e: 1}))), k)
            # one factor short
            with pytest.raises(LaurentError, match="does not divide"):
                _divide_by_one_plus_t(_map(_times_one_plus_t(q, k - 1)), k)
        for n in (LaurentPoly({0: 1}), parse("1 + 2t + t^2"), parse("1 - t")):
            with pytest.raises(LaurentError, match="does not divide"):
                _divide_by_one_plus_t(_map(n), 3)

    def test_mixed_parity_raises(self):
        # a knot's dividend has one parity class, and only that is divided:
        # a mixed one raises without a verdict on divisibility, so the
        # divisible (1 + s)(1 + t) raises too
        one_plus_s = LaurentPoly({0: 1, 1: 1})
        cases = [(multiply(one_plus_s, LaurentPoly({0: 1, 2: 1})), 1)]
        rng = random.Random(15)
        for k in range(1, 27):
            q = _random_poly(rng, rng.randint(1, 12), rng.randint(-40, 20), 40, 2 ** rng.randint(1, 100))
            n = _times_one_plus_t(_even(q), k)
            cases += [
                (_times_one_plus_t(multiply(q, one_plus_s), k), k),
                (add(n, LaurentPoly({lowest_exponent(n) + 1: 1})), k),
                (multiply(add(n, LaurentPoly({n.maxdeg - 3: -1})), LaurentPoly({k: -1})), k),
            ]
        for n, k in cases:
            with pytest.raises(LaurentError, match="one parity") as exc:
                _divide_by_one_plus_t(_map(n), k)
            assert "does not divide" not in str(exc.value)

    def test_zero_and_no_factor(self):
        # k = 0 lays the map out as it is, both parities included
        for k in (0, 1, 5):
            assert _divide_by_one_plus_t({}, k) == (0, [])
        assert _divide_by_one_plus_t({-3: 2, 0: -1, 7: 4}, 0) == (-3, [2, 0, 0, -1, 0, 0, 0, 0, 0, 0, 4])

    def test_returns_a_new_map(self):
        # the quotient is a new slot list on every call, at k = 0 and on
        # the zero map too, and the dividend is left as it was, so a shared
        # value can be divided and then wrapped
        for c, k in (({}, 0), ({}, 2), ({-3: 2, 0: -1, 7: 4}, 0), ({0: 1, 2: 2, 4: 1}, 1),
                     ({0: 1, 2: 2, 4: 1}, 2), ({-1: 3, 1: 3}, 1)):
            before = dict(c)
            r = _divide_by_one_plus_t(c, k)
            assert r[1] is not _divide_by_one_plus_t(c, k)[1] and c == before, (c, k)
            assert _map(_times_one_plus_t(_from_slots(*r), k)) == c, (c, k)

    def test_negative_power_raises(self):
        # a negative k would ask for p * (1 + t)**-k: it raises instead of
        # returning p
        for c in ({0: 1, 2: 2, 4: 1}, {}, {3: -1}):
            for k in (-1, -2):
                with pytest.raises(LaurentError, match="at least 0"):
                    _divide_by_one_plus_t(c, k)


_UNITS = [(k, sign) for k in range(-5, 6) for sign in (1, -1)]
# (1 + t)**j for j = 1, 2
_ONE_PLUS_T = {1: LaurentPoly({0: 1, 2: 1}), 2: LaurentPoly({0: 1, 2: 2, 4: 1})}


def _outcome(f, *args):
    """The terms of f(*args) if it is a polynomial, else its value, or the
    message of the LaurentError it raises."""
    try:
        r = f(*args)
    except LaurentError as exc:
        return str(exc)
    return list(r.items()) if isinstance(r, LaurentPoly) else r


def _up_to_units(p, q):
    """Whether p = +-s**k * q, read from the terms: both zero, or the same
    terms once each has its lowest term moved to s**0 with a positive
    coefficient."""
    def normal(r):
        terms = list(r.items())
        if not terms:
            return []
        lo, sign = terms[0][0], 1 if terms[0][1] > 0 else -1
        return [(e - lo, sign * v) for e, v in terms]

    return normal(p) == normal(q)


class TestUnits:
    """A polynomial carries its lowest exponent and a sign +-1 beside its
    slots.  ``normalize`` moves the lowest exponent to 0 and picks the sign
    of the first slot (``under_unit`` stores any value as the slots of its
    quotient by any unit +-s**k, by hand).  Every read of a polynomial so
    stored must agree with the same read of the rebuild
    ``LaurentPoly(dict(p.items()))`` by the public constructor, and the
    skein's division, from maps to slots, must commute with the same
    unit."""

    def _check_unary(self, pu, pr, unit):
        assert list(pu.items()) == list(pr.items())
        assert pu == pr and pr == pu and not pu != pr
        assert bool(pu) == bool(pr) and pu.is_zero == pr.is_zero
        for op in (LaurentPoly.normalize, lambda x: x.normalize().normalize()):
            assert _outcome(op, pu) == _outcome(op, pr)
        assert _outcome(getattr, pu, "maxdeg") == _outcome(getattr, pr, "maxdeg")
        lo, hi = (lowest_exponent(pr), pr.maxdeg) if pr else (0, 0)
        for e in range(lo - 2, hi + 3):
            assert pu.s_coefficient(e) == pr.s_coefficient(e)
        for e in range(lo // 2 - 1, hi // 2 + 2):
            assert pu.coefficient(e) == pr.coefficient(e)
        dense = [pr.s_coefficient(e) for e in range(lo, hi + 1)] if pr else []
        assert pu.s_coefficients() == pr.s_coefficients() == dense
        assert pu.s_coefficients() is not pu._slots
        assert render(pu) == render(pr) and str(pu) == str(pr) and repr(pu) == repr(pr)
        assert parse(render(pu)) == pr
        # the skein's division takes maps, returns slots and commutes with
        # the unit: dividing the shifted and negated map gives the quotient
        # shifted and negated alike, or raises the same error.  It takes one
        # parity class, pr's exponents doubled; pr's own map may mix both
        dr = {2 * e: v for e, v in pr.items()}
        for m in (dr, _map(pr)):
            for j in (0, 1, 2):
                quotient = _outcome(_divide_by_one_plus_t, m, j)
                expected = quotient if isinstance(quotient, str) else _shifted_layout(quotient, unit)
                assert _outcome(_divide_by_one_plus_t, _shifted(m, unit), j) == expected
        for j in (1, 2):
            # the divisible dividend under the unit; the bare dr mostly raises
            dividend = _map(multiply(LaurentPoly(dr), _ONE_PLUS_T[j]))
            assert _divide_by_one_plus_t(_shifted(dividend, unit), j) == _layout(_shifted(dr, unit))

    def _check_binary(self, pu, pr, qv, qr):
        assert (pu == qv) == (pr == qr) and (pu != qv) == (pr != qr)
        assert pu.equal_up_to_units(qv) == pr.equal_up_to_units(qr) == _up_to_units(pr, qr)
        assert qv.equal_up_to_units(pu) == _up_to_units(qr, pr)
        assert pu.equal_up_to_units(pr)

    @pytest.mark.parametrize(
        "pairs", [_boundary_pairs, _seeded_pairs, _shape_pairs], ids=lambda f: f.__name__
    )
    def test_agrees_with_unit_free_rebuild(self, pairs):
        # the 720 seeded pairs take each unit in turn, a stride apart
        stride = 8 if pairs is _seeded_pairs else 1
        for n, (p, q) in enumerate(pairs()):
            for i, (k, sign) in enumerate(_UNITS):
                pu = under_unit(p, k, sign)
                _check_layout(pu)
                assert pu._sign == sign and pu._lo == (lowest_exponent(p) if p else 0)
                # the slots are p's times the inverse unit, stored by hand
                stored = [(pu._lo - k + i, v) for i, v in enumerate(pu._slots) if v]
                assert stored == [(e - k, sign * v) for e, v in p.items()]
                pr = LaurentPoly(dict(pu.items()))
                assert pr._sign == 1 and pr == p
                if (i + n) % stride:
                    continue
                self._check_unary(pu, pr, (k, sign))
                qv = under_unit(q, *_UNITS[(7 * i + 3 * n) % len(_UNITS)])
                qr = LaurentPoly(dict(qv.items()))
                self._check_binary(pu, pr, qv, qr)
                self._check_binary(pu, pr, q, q)
            if p:
                # the unit normalize takes from p's own lowest term
                pn = p.normalize()
                _check_layout(pn)
                self._check_unary(pn, LaurentPoly(dict(pn.items())), (-lowest_exponent(p), pn._sign))

    def test_units_compose(self):
        p = LaurentPoly({-3: 2, -1: -5, 1: 7, 5: -1, 9: 3})
        n, m = p.normalize(), scale(p, -1).normalize()
        # normalize shares the slots it reads, whatever sign they carry, at
        # lo = 0 with the sign of the first slot
        assert n._slots is p._slots and (n._lo, n._sign) == (0, 1) and (m._lo, m._sign) == (0, -1)
        pu = under_unit(p, 2, -1)
        assert pu.normalize()._slots is pu._slots and (pu.normalize()._lo, pu.normalize()._sign) == (0, -1)
        assert pu.normalize() == n == multiply(p, LaurentPoly({7: 1})).normalize()
        assert multiply(p, LaurentPoly({-1: -1})).normalize() == n
        assert under_unit(LaurentPoly({0: 3}), 4, -1) == LaurentPoly({0: 3})
        assert under_unit(LaurentPoly(), 5, -1) == LaurentPoly()


class TestProtocol:
    def test_constant_is_not_its_int(self):
        # a polynomial equals polynomials only; a constant's int is its
        # coefficient
        for n in (0, 3, -1, 2**70):
            c = LaurentPoly({0: n})
            assert c != n and n != c and not c == n
            assert under_unit(c, 3, -1) != n and under_unit(c, 3, -1) == c
            assert c.coefficient(0) == n
        assert LaurentPoly({0: 0}) == LaurentPoly()
        # equality reads through the sign, so a polynomial has no hash
        with pytest.raises(TypeError):
            hash(LaurentPoly({0: 1}))

    @pytest.mark.parametrize("other", ["x", 1.5, None, [1]], ids=repr)
    def test_foreign_operands_raise_type_error(self, other):
        p = LaurentPoly({0: 1, 2: -1})
        for op in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(p, other)
            with pytest.raises(TypeError):
                op(other, p)

    def test_no_arithmetic_operators(self):
        # the program reads polynomials and never computes with one: no sum,
        # product or difference, between polynomials or with an int, and no
        # negation (``reference_laurent`` has the tests' arithmetic)
        p, q = LaurentPoly({0: 1, 2: -1}), LaurentPoly({1: 3})
        for op in (operator.add, operator.mul, operator.sub):
            for x, y in ((p, q), (p, p), (p, 3), (3, p), (p, 0), (p, -1)):
                with pytest.raises(TypeError):
                    op(x, y)
        with pytest.raises(TypeError):
            -p
        for name in ("__add__", "__mul__", "__rmul__", "zero", "support"):
            assert not hasattr(LaurentPoly, name), name
        # nor does the module: the skein's map arithmetic and division live
        # in ``alexander``
        for name in ("parse", "SKEIN_FACTOR", "_product", "_sum", "divide_by_one_plus_t"):
            assert not hasattr(laurent, name), name

    @pytest.mark.parametrize(
        "coeffs", [{0.5: 1, 2: 2}, {0: 2.9}, {"1": 1}, {0: "2"}, {0: Fraction(1)}, {1.0: 0}], ids=repr
    )
    def test_entries_must_be_integers(self, coeffs):
        # int() would truncate 2.9 to 2 and parse "2"
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)
