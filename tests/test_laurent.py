import pytest
from hypothesis import assume, given, strategies as st

from pretzelsurgery.laurent import LaurentPoly, SKEIN_FACTOR, parse, render


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

    @given(polys)
    def test_conj_involution(self, p):
        assert p.conj().conj() == p

    @given(polys, polys)
    def test_conj_multiplicative(self, p, q):
        assert (p * q).conj() == p.conj() * q.conj()

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

    def test_integer_exponent_check(self):
        assert parse("1 - t").has_integer_exponents()
        assert not SKEIN_FACTOR.has_integer_exponents()
