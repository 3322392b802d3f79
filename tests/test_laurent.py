import operator
import random

import pytest
from hypothesis import assume, given, strategies as st

from pretzelsurgery.laurent import (
    LaurentError,
    LaurentPoly,
    SKEIN_FACTOR,
    divide_by_one_plus_t,
    kronecker_pack,
    kronecker_unpack,
    parse,
    render,
)

from invariants import conj


coeffs = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-50, max_value=50),
    max_size=8,
)
polys = coeffs.map(LaurentPoly)


class TestArithmetic:
    @given(polys, polys)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero

    @given(polys)
    def test_units(self, p):
        assert p * LaurentPoly.one() == p
        assert (p * LaurentPoly.zero()).is_zero

    @given(polys, st.integers(min_value=-6, max_value=6))
    def test_shift_is_unit_multiplication(self, p, k):
        assert p.shifted(k) == p * LaurentPoly.s_term(1, k)

    @given(polys, polys)
    def test_conj_multiplicative(self, p, q):
        assert conj(p * q) == conj(p) * conj(q)

    @given(polys)
    def test_evaluation_ring_hom(self, p):
        assert p.eval_at_one() == sum(c for _, c in p.items())


class TestNormalization:
    @given(polys)
    def test_normalize_idempotent(self, p):
        assume(not p.is_zero)
        assert p.normalize().normalize() == p.normalize()

    @given(polys, st.integers(min_value=-6, max_value=6), st.sampled_from([1, -1]))
    def test_unit_multiples_equivalent(self, p, k, sign):
        assume(not p.is_zero)
        q = p.shifted(k) * LaurentPoly.from_int(sign)
        assert p.equal_up_to_units(q)
        assert p.normalize() == q.normalize()

    def test_distinct_polys_not_equivalent(self):
        p = parse("1 - t + t^2")
        q = parse("1 - 2t + t^2")
        assert not p.equal_up_to_units(q)

    def test_normalized_shape(self):
        p = LaurentPoly({-3: -1, -1: 2, 1: -1})
        n = p.normalize()
        assert n.mindeg == 0
        assert n.s_coefficient(0) > 0


class TestRendering:
    @given(polys)
    def test_parse_render_round_trip(self, p):
        assert parse(render(p)) == p

    def test_render_examples(self):
        assert render(LaurentPoly.zero()) == "0"
        assert render(parse("1 - t + t^2")) == "1 - t + t^2"
        assert render(LaurentPoly.s_term(1, -1)) == "t^(-1/2)"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("1 + spam")


class TestDomainValues:
    def test_skein_factor(self):
        # w = t^(-1/2) - t^(1/2)
        assert SKEIN_FACTOR == LaurentPoly({-1: 1, 1: -1})


def schoolbook(p, q):
    """The dictionary double loop, written out apart from ``LaurentPoly``:
    the arbiter for its product."""
    c = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
    return LaurentPoly(c)


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
                    yield sign * a, b
                    yield b.shifted(-1), sign * a


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
    yield LaurentPoly.zero(), torus
    yield torus, LaurentPoly.zero()
    yield LaurentPoly.s_term(-3, -7), torus
    yield torus, LaurentPoly.s_term(5, 4)
    yield LaurentPoly({e: e for e in range(1, 12)}), LaurentPoly({e: -e for e in range(3, 30)})
    yield LaurentPoly({e: e for e in range(-12, 0)}), LaurentPoly({e: 2 for e in range(-30, -3)})
    yield half, half
    yield half, torus
    yield conj(half), torus.shifted(-41)
    # a sparse operand, with exponents thousands apart
    yield LaurentPoly({0: 1, 1000: -1, 2001: 2, 5000: 1, 9999: 7}), torus
    # a shorter operand of one to six terms, on either side
    for n in range(1, 7):
        short = LaurentPoly({2 * i - 3: 3 - i for i in range(n + 1) if i != 3})
        yield short, torus
        yield torus, short


class TestPackedProduct:
    """``LaurentPoly`` products against ``schoolbook``, and the packed
    encoding that the exact division and the Fox oracle use."""

    @pytest.mark.parametrize(
        "pairs", [_boundary_pairs, _seeded_pairs, _shape_pairs], ids=lambda f: f.__name__
    )
    def test_equals_schoolbook(self, pairs):
        for p, q in pairs():
            r = p * q
            assert r == schoolbook(p, q), (p, q)
            assert all(v for _, v in r.items())

    def test_trusted_results_match_public_constructor(self):
        p = LaurentPoly({-3: 2, -1: -5, 1: 7, 5: -1, 9: 3})
        q = LaurentPoly({e: e - 4 for e in range(-10, 12)})
        results = [
            p * q, q * p, p * 3, -2 * q, p * 0, p + q, q + p, p - q, -q, 1 - p,
            p - p, p.shifted(-5), q.normalize(), (p * q).normalize(),
            (-p).shifted(3), p.normalize().normalize(),
            divide_by_one_plus_t(-q.shifted(1) * LaurentPoly({0: 1, 2: 2, 4: 1}), 2),
        ]
        for r in results:
            public = LaurentPoly(dict(r.items()))
            assert all(v for _, v in r.items())
            assert r == public
            assert hash(r) == hash(public)

    def test_unpack_rejects_values_wider_than_the_slots(self):
        assert list(kronecker_unpack(kronecker_pack({0: -3, 1: 5}, 2, 1), 1, 2)) == [-3, 5]
        for x in (2**16, -(2**16)):
            with pytest.raises(OverflowError):
                kronecker_unpack(x, 1, 2)


def _times_one_plus_t(q, k):
    """q * (1 + t)**k by the dictionary double loop, one factor at a time."""
    for _ in range(k):
        q = schoolbook(q, LaurentPoly({0: 1, 2: 1}))
    return q


def _seeded_quotients():
    rng = random.Random(13)
    # quotients whose coefficients straddle each slot width, then go past
    # 64 bits; s-exponents of one parity (packed at t) or of both
    for bits in (3, 6, 7, 8, 14, 15, 16, 30, 31, 32, 33, 62, 63, 64, 65, 100, 200):
        for k in range(1, 27):
            q = _random_poly(rng, rng.randint(1, 12), rng.randint(-40, 20), 40, 2**bits)
            yield q, k
            yield -q.shifted(1), k
            if bits <= 16:
                yield LaurentPoly({2 * e: v for e, v in q.items()}), k


def _wide_quotients():
    """Quotients far larger than their numerators: ((1 + t**m) / (1 + t))**k
    for odd m has numerator (1 + t**m)**k, of 1-norm 2**k, and a middle
    coefficient near m**(k-1) / (k-1)!, which only the binomial factor of
    the slot bound covers."""
    for m, k in ((1001, 2), (301, 3), (41, 6), (9, 26)):
        q = LaurentPoly.one()
        for _ in range(k):
            q = schoolbook(q, LaurentPoly({2 * i: (-1) ** i for i in range(m)}))
        yield q, k
        yield -q.shifted(-7), k


class TestExactDivision:
    @pytest.mark.parametrize(
        "cases", [_seeded_quotients, _wide_quotients], ids=lambda f: f.__name__
    )
    def test_quotient_of_product(self, cases):
        for q, k in cases():
            r = divide_by_one_plus_t(_times_one_plus_t(q, k), k)
            assert r == q, (q, k)
            assert all(v for _, v in r.items())

    def test_indivisible_raises(self):
        rng = random.Random(14)
        for k in range(1, 27):
            q = _random_poly(rng, rng.randint(1, 12), rng.randint(-40, 20), 40, 2 ** rng.randint(1, 100))
            n = _times_one_plus_t(q, k)
            for e in (n.mindeg, n.maxdeg, n.mindeg + 1, n.maxdeg - 3):
                with pytest.raises(LaurentError):
                    divide_by_one_plus_t(n + LaurentPoly.s_term(1, e), k)
            # one factor short
            with pytest.raises(LaurentError):
                divide_by_one_plus_t(_times_one_plus_t(q, k - 1), k)
        for n in (LaurentPoly.one(), parse("1 + 2t + t^2"), parse("1 - t")):
            with pytest.raises(LaurentError):
                divide_by_one_plus_t(n, 3)

    def test_zero_and_no_factor(self):
        for k in (0, 1, 5):
            assert divide_by_one_plus_t(LaurentPoly.zero(), k).is_zero
        p = LaurentPoly({-3: 2, 0: -1, 7: 4})
        assert divide_by_one_plus_t(p, 0) == p


_UNITS = [(k, sign) for k in range(-5, 6) for sign in (1, -1)]
# (1 + t)**j for j = 1, 2
_ONE_PLUS_T = {1: LaurentPoly({0: 1, 2: 1}), 2: LaurentPoly({0: 1, 2: 2, 4: 1})}


def _under(p, k, sign):
    """sign * s**k * p, by the O(1) relabelling of negation and ``shifted``."""
    return (p if sign == 1 else -p).shifted(k)


def _raises(f, *args):
    """f(*args), or the type of the LaurentError it raises."""
    try:
        return f(*args)
    except LaurentError as exc:
        return type(exc)


def _terms(r):
    return r if isinstance(r, type) else list(r.items())


class TestUnits:
    """A polynomial carries a unit +-s**k beside its coefficient map.  Every
    public operation on it must agree with the same operation on the
    unit-free rebuild ``LaurentPoly(dict(p.items()))``."""

    def _check_unary(self, pu, pr):
        assert _terms(pu) == _terms(pr)
        assert pu == pr and pr == pu and not pu != pr
        assert hash(pu) == hash(pr)
        assert bool(pu) == bool(pr) and pu.is_zero == pr.is_zero
        for op in (operator.neg, lambda x: x.shifted(3), lambda x: x.shifted(-4),
                   lambda x: x * 3, lambda x: -2 * x, lambda x: x * 0,
                   lambda x: x + 5, lambda x: 1 - x, lambda x: x - 2, lambda x: x + x,
                   LaurentPoly.normalize, lambda x: x.normalize().normalize()):
            assert _terms(_raises(op, pu)) == _terms(_raises(op, pr))
        for attr in ("mindeg", "maxdeg"):
            assert _raises(getattr, pu, attr) == _raises(getattr, pr, attr)
        assert pu.support == pr.support
        assert pu.eval_at_one() == pr.eval_at_one()
        lo, hi = (pr.mindeg, pr.maxdeg) if pr else (0, 0)
        for e in range(lo - 2, hi + 3):
            assert pu.s_coefficient(e) == pr.s_coefficient(e)
        for e in range(lo // 2 - 1, hi // 2 + 2):
            assert pu.coefficient(e) == pr.coefficient(e)
        assert render(pu) == render(pr) and str(pu) == str(pr)
        assert parse(render(pu)) == pr
        for j in (1, 2):
            # the divisible dividend carries pu's unit, the bare one mostly raises
            assert _terms(divide_by_one_plus_t(pu * _ONE_PLUS_T[j], j)) == _terms(pr)
            assert _terms(_raises(divide_by_one_plus_t, pu, j)) == _terms(_raises(divide_by_one_plus_t, pr, j))
        assert divide_by_one_plus_t(pu, 0) == pr

    def _check_binary(self, pu, pr, qv, qr):
        assert (pu == qv) == (pr == qr) and (pu != qv) == (pr != qr)
        for op in (operator.add, operator.sub, operator.mul):
            assert _terms(op(pu, qv)) == _terms(op(pr, qr))
            assert _terms(op(qv, pu)) == _terms(op(qr, pr))
        assert _terms(pu + (-pu)) == []
        if pr and qr:
            assert pu.equal_up_to_units(qv) == pr.equal_up_to_units(qr)
        assert pu.equal_up_to_units(pr)

    @pytest.mark.parametrize(
        "pairs", [_boundary_pairs, _seeded_pairs, _shape_pairs], ids=lambda f: f.__name__
    )
    def test_agrees_with_unit_free_rebuild(self, pairs):
        # the 720 seeded pairs take each unit in turn, a stride apart
        stride = 8 if pairs is _seeded_pairs else 1
        for n, (p, q) in enumerate(pairs()):
            p, q = LaurentPoly(dict(p.items())), LaurentPoly(dict(q.items()))
            for i, (k, sign) in enumerate(_UNITS):
                pu = _under(p, k, sign)
                assert pu._unit == (None if (k, sign) == (0, 1) else (k, sign))
                pr = LaurentPoly(dict(pu.items()))
                assert pr._unit is None
                # the unit applied by hand to the unit-free map
                assert list(pr.items()) == [(e + k, sign * v) for e, v in p.items()]
                if (i + n) % stride:
                    continue
                self._check_unary(pu, pr)
                qv = _under(q, *_UNITS[(7 * i + 3 * n) % len(_UNITS)])
                qr = LaurentPoly(dict(qv.items()))
                self._check_binary(pu, pr, qv, qr)
                self._check_binary(pu, pr, q, q)

    def test_units_compose(self):
        p = LaurentPoly({-3: 2, -1: -5, 1: 7, 5: -1, 9: 3})
        assert (-(-p))._unit is None and p.shifted(2).shifted(-2)._unit is None
        assert (-p.shifted(3)) * (-p).shifted(-3) == p * p
        assert p.shifted(7).normalize() == p.normalize() == (-p).shifted(-1).normalize()
        assert -LaurentPoly.from_int(3) == -3 and hash(-LaurentPoly.from_int(3)) == hash(-3)
        assert (-LaurentPoly.zero()).shifted(5) == 0 == LaurentPoly.zero()


class TestProtocol:
    def test_constant_hashes_like_its_int(self):
        for n in (0, 3, -1, 2**70):
            assert LaurentPoly.from_int(n) == n
            assert hash(LaurentPoly.from_int(n)) == hash(n)
        assert {LaurentPoly.from_int(3), 3} == {3}
        assert len({LaurentPoly.zero(), 0}) == 1
        assert LaurentPoly.s_term(3, 2) != 3

    @pytest.mark.parametrize("other", ["x", 1.5, None, [1]], ids=repr)
    def test_foreign_operands_raise_type_error(self, other):
        p = LaurentPoly({0: 1, 2: -1})
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, other)
            with pytest.raises(TypeError):
                op(other, p)
