import dataclasses
import time
from itertools import product
from math import gcd

import pytest

from pretzelsurgery.classify import (
    ClassificationReport,
    ClassifyError,
    FINITE_SLOPES,
    CYCLIC_SLOPES,
    Hyperbolicity,
    NO_CYCLIC_OR_FINITE,
    NON_HYPERBOLIC_SEE_MOSER,
    OUT_OF_SCOPE,
    alexander_gate,
    classify,
    delman_gate,
    hyperbolicity_status,
    mattman_gate,
)
from pretzelsurgery.alexander import alexander_skein, torus_link_alexander
from pretzelsurgery.grids import minus2_3_q
from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery.pretzel import (
    PretzelLink,
    family_membership,
    is_knot,
    parse_montesinos,
)


class TestHyperbolicity:
    @pytest.mark.parametrize(
        "params,reason",
        [
            ((3,), "(2,3)-torus knot"),
            ((-2, 3, 3), "(3,4)-torus knot"),
            ((-2, 3, 5), "(3,5)-torus knot"),
            ((1, -2), "trivial knot"),
        ],
    )
    def test_non_hyperbolic(self, params, reason):
        res = hyperbolicity_status(PretzelLink(params))
        assert res.status is Hyperbolicity.NON_HYPERBOLIC
        assert res.reason == reason

    @pytest.mark.parametrize("params", [(-2, 3, 7), (3, 5, 7), (-1, -2, 3, 3)])
    def test_hyperbolic(self, params):
        res = hyperbolicity_status(PretzelLink(params))
        assert res.status is Hyperbolicity.HYPERBOLIC

    def test_two_bridge_torus_detection(self):
        # 3/7;1/2 is b(13, 9), drawn with 2 + 3 + 2 = 7 crossings, so it
        # cannot be the (2,13)-torus knot; 1/3;1/4 is b(7, 1)
        res = hyperbolicity_status(parse_montesinos("3/7;1/2"))
        assert res.status is Hyperbolicity.HYPERBOLIC
        res = hyperbolicity_status(parse_montesinos("1/3;1/4"))
        assert res.status is Hyperbolicity.NON_HYPERBOLIC
        assert res.reason == "(2,7)-torus knot"

    def test_two_bridge_non_torus_hyperbolic(self):
        # two twist regions side by side are one: P(3,4) is T(2,7)
        res = hyperbolicity_status(PretzelLink((3, 4)))
        assert res.status is Hyperbolicity.NON_HYPERBOLIC
        assert res.reason == "(2,7)-torus knot"
        res = hyperbolicity_status(PretzelLink((3, -3, 1)))
        assert res.status is Hyperbolicity.HYPERBOLIC

    def test_multi_component_rejected(self):
        with pytest.raises(ClassifyError):
            hyperbolicity_status(PretzelLink((2, 2)))
        # determinant 2*2*2 + 1*5*2 + 1*5*2 = 28 is even: a link
        with pytest.raises(ClassifyError):
            hyperbolicity_status(parse_montesinos("2/5;1/2;1/2"))


def _cf_crossings(beta: int, alpha: int) -> int:
    """Crossings of the standard diagram of the rational tangle beta/alpha:
    the sum of the continued-fraction terms of |beta|/alpha."""
    beta, total = abs(beta), 0
    while alpha:
        total += beta // alpha
        beta, alpha = alpha, beta % alpha
    return total


class TestTwoBridgeArbiters:
    def test_pretzel_box_against_alexander(self):
        # every two-bridge pretzel knot (no zero region, at most two regions
        # with |a| >= 2) with 1-3 regions in -9..9, 4 in -7..7 and 5 in
        # -5..5: a two-bridge knot with Delta = 1 is trivial, one with the
        # Delta of T(2, det) is that torus knot, and any other is hyperbolic
        start = time.perf_counter()
        knots = 0
        for n, bound in ((1, 9), (2, 9), (3, 9), (4, 7), (5, 5)):
            for params in product(range(-bound, bound + 1), repeat=n):
                if 0 in params or sum(abs(a) >= 2 for a in params) > 2:
                    continue
                link = PretzelLink(params)
                if not is_knot(link):
                    continue
                knots += 1
                delta = alexander_skein(link).normalize()
                det = abs(delta.eval_at_minus_one())
                if delta == LaurentPoly.one():
                    reason = "trivial knot"
                elif delta.equal_up_to_units(torus_link_alexander(det)):
                    reason = f"(2,{det})-torus knot"
                else:
                    reason = None
                res = hyperbolicity_status(link)
                assert res.reason == reason, params
                assert (res.status is Hyperbolicity.HYPERBOLIC) == (reason is None), params
        assert knots == 7954
        assert time.perf_counter() - start < 10

    def test_rational_torus_reports_need_crossings(self):
        # T(2,p) has crossing number p, so a rational Montesinos knot reported
        # as T(2,p) needs a diagram of at least p crossings: 1-2 tangles, and
        # 3 tangles with an integer tangle in -2..2 between two proper ones
        fractions = [f"{b}/{a}" for a in (1, 2, 3, 4, 5, 7) for b in range(-9, 10) if gcd(a, b) == 1]
        proper = [t for t in fractions if not t.endswith("/1")]
        texts = [*fractions, *map(";".join, product(fractions, repeat=2))]
        texts += [f"{x};{k}/1;{y}" for x, y in product(proper, repeat=2) for k in range(-2, 3)]
        torus = 0
        for text in texts:
            desc = parse_montesinos(text)
            if desc.as_pretzel() is not None:
                continue
            try:
                reason = hyperbolicity_status(desc).reason
            except ClassifyError:
                continue  # a link
            if reason and reason.startswith("(2,"):
                torus += 1
                p = int(reason[3:reason.index(")")])
                crossings = sum(_cf_crossings(t.numerator, t.denominator) for t in desc.tangles)
                assert p <= crossings, text
        assert torus > 0


class TestGates:
    def test_delman_other_excluded(self):
        stage = delman_gate(family_membership(PretzelLink((3, 5, 7))))
        assert stage.verdict == "excluded"
        assert stage.evidence == {"family": "OTHER"}

    def test_delman_pass(self):
        stage = delman_gate(family_membership(PretzelLink((-4, 5, 7))))
        assert stage.verdict == "pass"
        assert stage.evidence == {"family": "MINUS_2L(l=2,p=5,q=7)"}
        stage = delman_gate(family_membership(PretzelLink((-1, -1, 4, 3, 3))))
        assert stage.verdict == "pass"
        assert stage.evidence == {"family": "MINUS1_MINUS1_2M(m=2,p=3,q=3)"}

    def test_mattman_l_greater_one(self):
        stage = mattman_gate(family_membership(PretzelLink((-6, 5, 7))))
        assert stage.verdict == "excluded"

    def test_mattman_table(self):
        stage = mattman_gate(family_membership(PretzelLink((-2, 3, 7))))
        assert stage.verdict == "slopes"
        assert stage.evidence["cyclic_slopes"] == [18, 19]
        assert stage.evidence["finite_slopes"] == [17]
        stage = mattman_gate(family_membership(PretzelLink((-2, 3, 9))))
        assert stage.evidence["finite_slopes"] == [22, 23]
        stage = mattman_gate(family_membership(PretzelLink((-2, 3, 11))))
        assert stage.verdict == "excluded"

    def test_mattman_pass_through(self):
        stage = mattman_gate(family_membership(PretzelLink((-2, 5, 7))))
        assert stage.verdict == "pass"

    def test_alexander_gate_coefficients(self):
        stage = alexander_gate(family_membership(PretzelLink((-2, 5, 7))))
        assert stage.evidence["coefficient_exponent"] == 4
        assert stage.evidence["coefficient"] == -2
        stage = alexander_gate(family_membership(PretzelLink((-1, 6, 3, 5))))
        assert stage.evidence["coefficient_exponent"] == 3
        assert stage.evidence["coefficient"] == 2
        stage = alexander_gate(family_membership(PretzelLink((-1, -2, 3, 3))))
        assert stage.evidence["coefficient_exponent"] == 1
        assert stage.evidence["coefficient"] == -4

    def test_alexander_gate_fiberedness(self):
        stage = alexander_gate(family_membership(PretzelLink((-1, -1, 4, 3, 3))))
        assert stage.verdict == "excluded"
        assert stage.evidence["fibered"] is False
        assert stage.evidence["monic"] is False

    def test_alexander_gate_rejects_consumed_tags(self):
        with pytest.raises(ClassifyError):
            alexander_gate(family_membership(PretzelLink((-2, 3, 7))))
        with pytest.raises(ClassifyError):
            alexander_gate(family_membership(PretzelLink((-6, 5, 7))))


class TestPipeline:
    def test_theorem_sweep(self):
        for q in range(3, 26, 2):
            final = classify(PretzelLink((-2, 3, q))).final
            got = (final.verdicts, final.cyclic_slopes, final.finite_slopes)
            assert got == minus2_3_q(q), q

    def test_mirror_sweep(self):
        # mirroring negates every parameter and every surgery slope
        for q in range(3, 26, 2):
            final = classify(PretzelLink((2, -3, -q))).final
            verdicts, cyclic, finite = minus2_3_q(q)
            assert final.verdicts == verdicts, q
            assert final.cyclic_slopes == [-s for s in cyclic], q
            assert final.finite_slopes == [-s for s in finite], q

    def test_mirror_torus_knots(self):
        for params, reason in (
            ((2, -3, -3), "(3,4)-torus knot"),
            ((2, -3, -5), "(3,5)-torus knot"),
            ((1, -2, -3, -3), "(3,4)-torus knot"),
        ):
            res = hyperbolicity_status(PretzelLink(params))
            assert res.status is Hyperbolicity.NON_HYPERBOLIC, params
            assert res.reason == reason

    def test_slope_lists_nonempty_when_claimed(self):
        for q in range(3, 26, 2):
            final = classify(PretzelLink((-2, 3, q))).final
            if CYCLIC_SLOPES in final.verdicts:
                assert final.cyclic_slopes
            if FINITE_SLOPES in final.verdicts:
                assert final.finite_slopes

    def test_string_input(self):
        assert classify("-2,3,7").final.cyclic_slopes == [18, 19]

    def test_stage_order(self):
        report = classify("-2,5,7")
        assert [s.stage for s in report.stages] == [
            "hyperbolicity",
            "delman",
            "mattman",
            "alexander",
        ]
        for s in report.stages:
            assert s.citation

    def test_determinism(self):
        assert classify("-1,6,3,5") == classify("-1,6,3,5")

    def test_multi_component_rejected(self):
        with pytest.raises(ClassifyError):
            classify("2,2")

    def test_json_round_trip(self):
        for text in ("-2,3,7", "-1,-1,4,3,3", "3", "2/5;1/3;1/2"):
            report = classify(text)
            assert ClassificationReport.from_json(report.to_json()) == report

    @pytest.mark.parametrize(
        "text",
        ["-2,3,7", "-2,3,11", "-4,3,5", "-1,4,3,5", "-1,-1,4,3,3", "3,5,7", "3", "2/5;1/3;1/2"],
    )
    def test_to_dict_is_asdict(self, text):
        report = classify(text)
        data = report.to_dict()
        assert data == dataclasses.asdict(report)
        for stage in data["stages"]:
            for value in stage["evidence"].values():
                if isinstance(value, list):
                    value.append(None)
        data["final"]["verdicts"].append(None)
        assert report.to_dict() == dataclasses.asdict(report)

    def test_montesinos_literal_pretzel(self):
        report = classify("1/3;1/3;-1/2")
        assert report.final.verdicts == [NON_HYPERBOLIC_SEE_MOSER]

    def test_montesinos_rational_excluded(self):
        report = classify("2/5;1/3;1/2")
        assert report.final.verdicts == [NO_CYCLIC_OR_FINITE]
        assert report.stages[-1].stage == "delman"

    def test_montesinos_rational_hyperbolic(self):
        report = classify("2/5;1/3;1/2")
        assert report.hyperbolic == "hyperbolic"
        assert report.stages[0].evidence == {"status": "hyperbolic"}

    def test_montesinos_pretzel_like_out_of_scope(self):
        # 2/3 = 1 - 1/3, so the input is P(-3,1,3,-2) = P(-3,3,2): no family
        report = classify("2/3;1/3;-1/2")
        assert report.input_kind == "pretzel"
        assert report.input_text == "P(-3,1,3,-2)"
        assert report.final.verdicts == [NO_CYCLIC_OR_FINITE]
        assert report.stages[-1].evidence == {"family": "OTHER"}

    @pytest.mark.parametrize("text", ["-2,3,7,1,-1", "2,3,7,1,-1,-1", "1/2;4/3;-13/7"])
    def test_unit_regions_cancel(self, text):
        # +1 and -1 integer tangles cancel: each input is P(-2,3,7)
        final = classify(text).final
        assert final.verdicts == [CYCLIC_SLOPES, FINITE_SLOPES]
        assert final.cyclic_slopes == [18, 19]
        assert final.finite_slopes == [17]

    def test_unit_regions_torus_knot(self):
        report = classify("-2,3,3,1,-1")
        assert report.final.verdicts == [NON_HYPERBOLIC_SEE_MOSER]
        assert report.hyperbolic_reason == "(3,4)-torus knot"

    def test_one_tangle_montesinos(self):
        # M(b/a) is the two-bridge knot b(b, a), so 1/3 is the unknot; the
        # one-region pretzel P(3), closed with side arcs, is the trefoil
        for text, reason in (
            ("1/3", "trivial knot"),
            ("0;1/3", "trivial knot"),
            ("3/7", "(2,3)-torus knot"),
        ):
            assert classify(text).hyperbolic_reason == reason, text
        with pytest.raises(ClassifyError, match="not a knot"):
            classify("4/3")

    def test_composite_out_of_scope(self):
        report = classify("3,0,5")
        assert report.final.verdicts == [OUT_OF_SCOPE]
        assert "composite" in report.hyperbolic_reason
