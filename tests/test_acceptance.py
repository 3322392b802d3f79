"""Acceptance gate: eight end-to-end criteria with runtime budgets.

Each test prints a single PASS/FAIL line (with its runtime) to the real
stdout so the gate is visible even under pytest's output capture.
"""

import random
import time
from itertools import product
from math import gcd

import pytest

from pretzelsurgery.alexander import alexander_skein
from pretzelsurgery.classify import (
    CYCLIC_SLOPES,
    FINITE_SLOPES,
    NO_CYCLIC_OR_FINITE,
    NON_HYPERBOLIC_SEE_MOSER,
    classify,
)
from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery.obstruction import (
    HFRankParams,
    SurgerySlope,
    claim2_implication,
    gabai_not_fibered,
    monic_check,
)
from pretzelsurgery.oracle import alexander_fox
from pretzelsurgery.pretzel import PretzelLink, is_knot


def _report(capfd, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    line = f"[acceptance] {name}: {status} in {elapsed:.2f}s (budget {budget:.0f}s){extra}"
    # bypass pytest's output capture so the gate line is always visible
    with capfd.disabled():
        print(line, flush=True)


def _timed(capfd, name, budget, body):
    start = time.perf_counter()
    try:
        detail = body() or ""
        ok = True
    except AssertionError as exc:
        detail = str(exc)
        ok = False
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget
    _report(capfd, name, ok and in_budget, elapsed, budget, detail)
    assert ok, detail
    assert in_budget, f"{name} exceeded {budget}s budget ({elapsed:.2f}s)"


def odd_pairs(lo, hi):
    for p in range(lo, hi + 1, 2):
        for q in range(p, hi + 1, 2):
            yield p, q


def test_criterion_1_coefficient_t1(capfd):
    def body():
        cells = 0
        for n in range(1, 6):
            expected = -4 if n == 1 else -3
            for p, q in odd_pairs(3, 11):
                delta = alexander_skein(PretzelLink((-1, -2 * n, p, q)))
                c = delta.normalize().coefficient(1)
                assert c == expected, f"(n={n},p={p},q={q}): [t^1]={c}"
                cells += 1
        return f"{cells} cells"

    _timed(capfd, "criterion 1: [t^1] of P(-1,-2n,p,q)", 10, body)


def test_criterion_2_coefficient_t3(capfd):
    def body():
        cells = 0
        for n in range(2, 6):
            for p, q in odd_pairs(3, 11):
                delta = alexander_skein(PretzelLink((-1, 2 * n, p, q)))
                c = delta.normalize().coefficient(3)
                assert c == 2, f"(n={n},p={p},q={q}): [t^3]={c}"
                cells += 1
        return f"{cells} cells"

    _timed(capfd, "criterion 2: [t^3] of P(-1,2n,p,q)", 10, body)


def test_criterion_3_coefficient_t4(capfd):
    def body():
        cells = 0
        for p, q in odd_pairs(5, 13):
            delta = alexander_skein(PretzelLink((-2, p, q)))
            c = delta.normalize().coefficient(4)
            assert c == -2, f"(p={p},q={q}): [t^4]={c}"
            cells += 1
        return f"{cells} cells"

    _timed(capfd, "criterion 3: [t^4] of P(-2,p,q)", 5, body)


def test_criterion_4_oracle_equivalence(capfd):
    def body():
        checked = 0
        for n in range(1, 5):
            for params in product(range(-7, 8), repeat=n):
                link = PretzelLink(params)
                if not is_knot(link):
                    continue
                skein = alexander_skein(link)
                fox = alexander_fox(link)
                assert skein.equal_up_to_units(fox), f"{link}"
                checked += 1
        assert checked >= 100, f"only {checked} instances"
        return f"{checked} knots"

    _timed(capfd, "criterion 4: skein == fox up to units", 120, body)


def test_criterion_5_theorem_sweep(capfd):
    def body():
        for q in range(3, 26, 2):
            final = classify(PretzelLink((-2, 3, q))).final
            if q in (3, 5):
                assert final.verdicts == [NON_HYPERBOLIC_SEE_MOSER], f"q={q}"
            elif q == 7:
                assert final.verdicts == [CYCLIC_SLOPES, FINITE_SLOPES], f"q={q}"
                assert final.cyclic_slopes == [18, 19], f"q={q}"
                assert final.finite_slopes == [17], f"q={q}"
            elif q == 9:
                assert final.verdicts == [FINITE_SLOPES], f"q={q}"
                assert final.finite_slopes == [22, 23], f"q={q}"
            else:
                assert final.verdicts == [NO_CYCLIC_OR_FINITE], f"q={q}"
        return "q in 3..25"

    _timed(capfd, "criterion 5: classify(P(-2,3,q)) sweep", 5, body)


def test_criterion_6_rank_formula_grid(capfd):
    def body():
        cells = 0
        for nu in range(-3, 6):
            for beta in range(2, 6):
                for alpha in range(-30, 31):
                    if gcd(alpha, beta) != 1:
                        continue
                    for y in range(-10, 1):
                        res = claim2_implication(
                            HFRankParams(nu=nu, Y=y, slope=SurgerySlope(alpha, beta))
                        )
                        if not res.hypothesis:
                            continue
                        assert res.a_holds and res.b_holds, (nu, alpha, beta, y)
                        cells += 1
        return f"{cells} hypothesis-satisfying tuples"

    _timed(capfd, "criterion 6: rank-formula implication grid", 5, body)


def test_criterion_7_fiberedness_coherence(capfd):
    def body():
        cells = 0
        for m in range(2, 6):
            for p, q in odd_pairs(3, 9):
                cert = gabai_not_fibered(m, p, q)
                assert cert.verdict == "not-fibered", (m, p, q)
                delta = alexander_fox(PretzelLink((-1, -1, 2 * m, p, q)))
                assert not monic_check(delta), (m, p, q)
                cells += 1
        return f"{cells} cells"

    _timed(capfd, "criterion 7: not-fibered and non-monic agree", 60, body)


def test_criterion_8_polynomial_properties(capfd):
    def body():
        knots_checked = 0
        for n in range(1, 4):
            for params in product(range(-5, 6), repeat=n):
                link = PretzelLink(params)
                if not is_knot(link):
                    continue
                delta = alexander_skein(link)
                assert delta.equal_up_to_units(delta.conj()), link
                assert abs(delta.eval_at_one()) == 1, link
                assert delta == alexander_skein(link, memoize=False), link
                knots_checked += 1

        rng = random.Random(20260826)
        for _ in range(1000):
            coeffs = {
                rng.randint(-10, 10): rng.randint(-30, 30)
                for _ in range(rng.randint(1, 7))
            }
            p = LaurentPoly(coeffs)
            if p.is_zero:
                continue
            n1 = p.normalize()
            assert n1.normalize() == n1
            unit = LaurentPoly.s_term(rng.choice((1, -1)), rng.randint(-8, 8))
            assert p.equal_up_to_units(p * unit)
            q = p + LaurentPoly.from_int(1)
            if not q.is_zero and q.normalize() != n1:
                assert not p.equal_up_to_units(q)
        return f"{knots_checked} knots + 1000 random polynomials"

    _timed(capfd, "criterion 8: polynomial property suite", 30, body)
