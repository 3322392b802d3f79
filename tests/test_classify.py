import dataclasses
import gc
import json
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from pretzelsurgery.classify import (
    CITE_REMARK,
    ClassificationReport,
    ClassifyError,
    FINITE_SLOPES,
    CYCLIC_SLOPES,
    NO_CYCLIC_OR_FINITE,
    NON_HYPERBOLIC_SEE_MOSER,
    OUT_OF_SCOPE,
    alexander_gate,
    classify,
    delman_gate,
    mattman_gate,
)
from pretzelsurgery.alexander import alexander_skein
from pretzelsurgery.cli import run
from pretzelsurgery.grids import minus2_3_q
from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery import pretzel
from pretzelsurgery.pretzel import (
    MontesinosDescription,
    PretzelError,
    PretzelLink,
    is_knot,
    parallel_regions,
    parse,
    parse_montesinos,
    read,
)
from invariants import at_minus_one
from reference_closed_form import torus
from reference_pretzel import box_knots


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
        report = classify(PretzelLink(params))
        assert report.hyperbolic == "non-hyperbolic"
        assert report.hyperbolic_reason == reason

    @pytest.mark.parametrize("params", [(-2, 3, 7), (3, 5, 7), (-1, -2, 3, 3)])
    def test_hyperbolic(self, params):
        report = classify(PretzelLink(params))
        assert report.hyperbolic == "hyperbolic"

    def test_two_bridge_torus_detection(self):
        # 3/7;1/2 is b(13, 9), drawn with 2 + 3 + 2 = 7 crossings, so it
        # cannot be the (2,13)-torus knot; 1/3;1/4 is b(7, 1)
        report = classify(parse_montesinos("3/7;1/2"))
        assert report.hyperbolic == "hyperbolic"
        report = classify(parse_montesinos("1/3;1/4"))
        assert report.hyperbolic == "non-hyperbolic"
        assert report.hyperbolic_reason == "(2,7)-torus knot"

    def test_two_bridge_non_torus_hyperbolic(self):
        # two twist regions side by side are one: P(3,4) is T(2,7)
        report = classify(PretzelLink((3, 4)))
        assert report.hyperbolic == "non-hyperbolic"
        assert report.hyperbolic_reason == "(2,7)-torus knot"
        report = classify(PretzelLink((3, -3, 1)))
        assert report.hyperbolic == "hyperbolic"

    def test_multi_component_rejected(self):
        with pytest.raises(PretzelError):
            classify(PretzelLink((2, 2)))
        # determinant 2*2*2 + 1*5*2 + 1*5*2 = 28 is even: a link
        with pytest.raises(PretzelError):
            classify(parse_montesinos("2/5;1/2;1/2"))


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
                det = abs(at_minus_one(delta))
                if delta == LaurentPoly({0: 1}):
                    reason = "trivial knot"
                elif delta.equal_up_to_units(torus(det)):
                    reason = f"(2,{det})-torus knot"
                else:
                    reason = None
                report = classify(link)
                assert report.hyperbolic_reason == reason, params
                assert (report.hyperbolic == "hyperbolic") == (reason is None), params
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
            try:
                if read(desc).tag is not None:
                    continue
            except PretzelError:
                continue  # a link
            reason = classify(desc).hyperbolic_reason
            if reason and reason.startswith("(2,"):
                torus += 1
                p = int(reason[3:reason.index(")")])
                crossings = sum(_cf_crossings(t.numerator, t.denominator) for t in desc.tangles)
                assert p <= crossings, text
        assert torus > 0


class TestGates:
    def test_delman_other_excluded(self):
        stage = delman_gate(read(PretzelLink((3, 5, 7))).tag)
        assert stage.verdict == "excluded"
        assert stage.evidence == {"family": "OTHER"}

    def test_delman_pass(self):
        stage = delman_gate(read(PretzelLink((-4, 5, 7))).tag)
        assert stage.verdict == "pass"
        assert stage.evidence == {"family": "MINUS_2L(l=2,p=5,q=7)"}
        stage = delman_gate(read(PretzelLink((-1, -1, 4, 3, 3))).tag)
        assert stage.verdict == "pass"
        assert stage.evidence == {"family": "MINUS1_MINUS1_2M(m=2,p=3,q=3)"}

    def test_mattman_l_greater_one(self):
        stage = mattman_gate(read(PretzelLink((-6, 5, 7))).tag)
        assert stage.verdict == "excluded"

    def test_mattman_table(self):
        stage = mattman_gate(read(PretzelLink((-2, 3, 7))).tag)
        assert stage.verdict == "slopes"
        assert stage.evidence["cyclic_slopes"] == [18, 19]
        assert stage.evidence["finite_slopes"] == [17]
        stage = mattman_gate(read(PretzelLink((-2, 3, 9))).tag)
        assert stage.evidence["finite_slopes"] == [22, 23]
        stage = mattman_gate(read(PretzelLink((-2, 3, 11))).tag)
        assert stage.verdict == "excluded"

    def test_mattman_pass_through(self):
        stage = mattman_gate(read(PretzelLink((-2, 5, 7))).tag)
        assert stage.verdict == "pass"

    def test_alexander_gate_coefficients(self):
        stage = alexander_gate(read(PretzelLink((-2, 5, 7))).tag)
        assert stage.evidence["coefficient_exponent"] == 4
        assert stage.evidence["coefficient"] == -2
        stage = alexander_gate(read(PretzelLink((-1, 6, 3, 5))).tag)
        assert stage.evidence["coefficient_exponent"] == 3
        assert stage.evidence["coefficient"] == 2
        stage = alexander_gate(read(PretzelLink((-1, -2, 3, 3))).tag)
        assert stage.evidence["coefficient_exponent"] == 1
        assert stage.evidence["coefficient"] == -4

    def test_alexander_gate_constant_coefficient(self):
        # [t^0] = 2m - 1 for P(-1,-1,2m,p,q) and for its mirror image
        for params in ((-1, -1, 4, 3, 3), (1, 1, -4, -3, -3)):
            stage = alexander_gate(read(PretzelLink(params)).tag)
            assert stage.verdict == "excluded"
            assert stage.evidence["coefficient_exponent"] == 0
            assert stage.evidence["coefficient"] == 3

    def test_alexander_gate_failure(self, monkeypatch, capsys):
        # a window of Delta with every coefficient +-1, or +-1 only at the
        # exponent the family reads: the gate raises, and the CLI reports that
        # on one line with exit code 1
        def window_returning(coefficients):
            # the package's classify function shadows its module's name
            monkeypatch.setattr(sys.modules["pretzelsurgery.classify"], "low_coefficients", lambda link, w: coefficients[:w])

        pm1 = [(-1) ** e for e in range(9)]
        for params, exp in (((-1, -1, 4, 3, 3), 0), ((-1, -2, 3, 3), 1), ((-1, 6, 3, 5), 3), ((-2, 5, 7), 4)):
            tag = read(PretzelLink(params)).tag
            for coefficients in (pm1, [1 if e == exp else 2 for e in range(9)]):
                window_returning(coefficients)
                with pytest.raises(ClassifyError, match="expected a coefficient violating"):
                    alexander_gate(tag)
        window_returning(pm1)
        assert run(["classify", "-1,-1,4,3,3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("q", [100_001, 10**20 + 1])
    def test_alexander_gate_at_any_q(self, q):
        # past the twist bound the gate still reads its coefficient, from a
        # window of Delta: a few kilobytes and well under a millisecond
        # where the whole Delta would have about 2q terms
        for params, exp, value in (((-1, 4, 3, q), 3, 2), ((-1, -4, 5, q), 1, -3), ((-1, -1, 4, 3, q), 0, 3)):
            gc.collect()
            tracemalloc.start()
            try:
                started = time.perf_counter()
                report = classify(PretzelLink(params))
                elapsed = time.perf_counter() - started
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.final.verdicts == [NO_CYCLIC_OR_FINITE], params
            stage = report.stages[-1]
            assert (stage.stage, stage.verdict) == ("alexander", "excluded"), params
            assert stage.evidence["coefficient_exponent"] == exp and stage.evidence["coefficient"] == value, params
            assert peak < 2**20, (params, peak)
            assert elapsed < 0.05, (params, elapsed)

    def test_alexander_gate_rejects_consumed_tags(self):
        with pytest.raises(ClassifyError):
            alexander_gate(read(PretzelLink((-2, 3, 7))).tag)
        with pytest.raises(ClassifyError):
            alexander_gate(read(PretzelLink((-6, 5, 7))).tag)


class TestPipeline:
    def test_inputs_are_integers_or_fractions(self):
        # int() read 7.9 as 7 and reported the slopes of P(-2,3,7), and
        # Fraction(0.1) is 3602879701896397/36028797018963968
        for params in ((-2, 3, 7.9), (-2, 3, "7"), (-2.0, 3, 7)):
            with pytest.raises(TypeError):
                classify(PretzelLink(params))
        for tangles in ((Fraction(1, 3), 0.1, Fraction(-1, 2)), ("1/3", Fraction(1, 3), Fraction(1, 5))):
            with pytest.raises(PretzelError, match="int or a Fraction"):
                classify(MontesinosDescription(tangles))
        assert PretzelLink((True, 3)) == PretzelLink((1, 3))
        assert MontesinosDescription((2, Fraction(1, 3))).tangles == (Fraction(2), Fraction(1, 3))

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
            report = classify(PretzelLink(params))
            assert report.hyperbolic == "non-hyperbolic", params
            assert report.hyperbolic_reason == reason

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
        with pytest.raises(PretzelError):
            classify("2,2")

    def test_link_refused_everywhere(self):
        # one refusal, from pretzel.read and the knot test: every entry
        # point raises the same PretzelError for a link
        links = [
            PretzelLink(params)
            for n in range(1, 4)
            for params in product(range(-3, 4), repeat=n)
            if not is_knot(PretzelLink(params))
        ]
        entry_points = [classify, read, parallel_regions, alexander_skein]
        cases = [(f, link) for link in links for f in entry_points]
        for text in ("2/5;1/2;1/2", "4/3", "0/1"):
            cases += [(classify, text), (classify, parse_montesinos(text)), (read, parse_montesinos(text))]
        for f, knot in cases:
            with pytest.raises(PretzelError, match="is not a knot"):
                f(knot)
        assert len(links) == 163

    def test_json_round_trip(self):
        for text in ("-2,3,7", "-1,-1,4,3,3", "3", "2/5;1/3;1/2"):
            report = classify(text)
            assert ClassificationReport.from_json(report.to_json()) == report

    def test_reads_schema_version_1(self):
        # version 2 changed report contents, not their structure
        data = dataclasses.asdict(classify("-1,-1,4,3,3"))
        assert data["schema_version"] == 2
        for version in (1, 2):
            data["schema_version"] = version
            assert dataclasses.asdict(ClassificationReport.from_dict(data)) == data
        for version in (0, 3, None):
            data["schema_version"] = version
            with pytest.raises(ClassifyError, match="schema version"):
                ClassificationReport.from_dict(data)

    def test_malformed_report_refused(self):
        # a saved report that is not a report raises ClassifyError with a
        # one-line message, and an unknown key is refused at every level
        good = dataclasses.asdict(classify("-2,3,7"))
        cases = [
            [], None, "report", {"schema_version": 2},
            {**good, "extra": 1},
            {**good, "stages": 5},
            {**good, "stages": ["x"]},
            {**good, "stages": [{**good["stages"][0], "extra": 1}]},
            {**good, "final": "x"},
            {**good, "final": {**good["final"], "extra": []}},
        ]
        for data in cases:
            with pytest.raises(ClassifyError) as info:
                ClassificationReport.from_json(json.dumps(data))
            assert "\n" not in str(info.value), data

    def test_stray_evidence_not_encoded(self):
        # the encoder writes only the report's own dataclasses: a FamilyTag
        # left in evidence raises json's own TypeError
        report = classify("-1,4,3,5")
        report.stages[-1].evidence["family"] = read(parse("-1,4,3,5")).tag
        with pytest.raises(TypeError, match="Object of type FamilyTag is not JSON serializable"):
            report.to_json()

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
        assert report.input_kind == "montesinos"
        assert report.input_text == "2/3;1/3;-1/2"
        assert report.final.verdicts == [NO_CYCLIC_OR_FINITE]
        assert report.stages[-1].evidence == {"family": "OTHER"}

    def test_reports_match_reference_pretzel(self):
        # every three-tangle knot of the reference box whose tangles are all
        # +-1 mod alpha reports what the pretzel it draws reports, except
        # that input_text echoes the tangle list and input_kind names it
        checked = 0
        for text, link in box_knots():
            report = dataclasses.asdict(classify(text))
            expected = dataclasses.asdict(classify(link))
            assert report.pop("input_text") == text
            assert (report.pop("input_kind"), expected.pop("input_kind")) == ("montesinos", "pretzel")
            expected.pop("input_text")
            assert report == expected, text
            checked += 1
        assert checked == 8432

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
        with pytest.raises(PretzelError, match="not a knot"):
            classify("4/3")

    @pytest.mark.parametrize(
        "text,kind",
        [("3,5,7", "pretzel"), ("-2,3,7", "pretzel"), ("4,3,5,-1", "pretzel"),
         ("6,-1,3,-1,5", "pretzel"), ("1/3;2/5;2/7", "montesinos"),
         ("1/2;4/3;-13/7", "montesinos"), ("3/1", "montesinos"), ("3", "pretzel")],
    )
    def test_input_read_once(self, monkeypatch, text, kind):
        # one tangle read and one D, shared by the knot test, the family tag
        # and the two-bridge reason; the Alexander gate reads its own family
        # link, which these reorder.  The kind is that of the input: a
        # tangle list is "montesinos" and a parameter list "pretzel"
        reads, dets = [], []
        tangles, determinant = pretzel.tangles, pretzel.determinant
        monkeypatch.setattr(pretzel, "tangles", lambda knot: reads.append(str(knot)) or tangles(knot))
        monkeypatch.setattr(pretzel, "determinant", lambda pairs: dets.append(pairs) or determinant(pairs))
        report = classify(text)
        assert reads.count(report.input_text) == 1, reads
        assert dets.count(tangles(parse(text))) == 1, dets
        assert report.input_kind == kind

    def test_composite_out_of_scope(self):
        report = classify("3,0,5")
        assert report.final.verdicts == [OUT_OF_SCOPE]
        assert "composite" in report.hyperbolic_reason

    def test_zero_region_box(self):
        # a zero region cuts the necklace into (2, a)-torus factors: two or
        # more proper factors make a connected sum, out of scope, and one or
        # none a torus knot or the unknot, every knot with 1-4 regions in -5..5
        composite = 0
        knots = [
            params
            for n in range(1, 5)
            for params in product(range(-5, 6), repeat=n)
            if 0 in params and is_knot(PretzelLink(params))
        ]
        for params in knots:
            report = classify(PretzelLink(params))
            stage = report.stages[0]
            factors = [abs(a) for a in params if abs(a) >= 2]
            if len(factors) >= 2:
                composite += 1
                assert report.final.verdicts == [OUT_OF_SCOPE], params
                assert (stage.verdict, stage.citation) == ("out-of-scope", CITE_REMARK), params
                assert report.hyperbolic_reason == "composite knot (connected sum)", params
            else:
                reason = f"(2,{factors[0]})-torus knot" if factors else "trivial knot"
                assert report.final.verdicts == [NON_HYPERBOLIC_SEE_MOSER], params
                assert stage.verdict == "non-hyperbolic", params
                assert report.hyperbolic_reason == reason, params
        assert (len(knots), composite) == (984, 688)
