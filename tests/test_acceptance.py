"""Acceptance gate: eight end-to-end criteria with runtime budgets.

Each test prints a single PASS/FAIL line (with its runtime) to the real
stdout so the gate is visible even under pytest's output capture.
"""

import random
import time

from pretzelsurgery import grids
from pretzelsurgery.alexander import alexander_skein
from pretzelsurgery.laurent import LaurentPoly
from pretzelsurgery.oracle import alexander_fox
from pretzelsurgery.pretzel import PretzelLink

from invariants import at_one, conj
from reference_laurent import add, multiply


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


def _all_ok(grid) -> int:
    """Assert every record of a shared grid; return its cell count."""
    for record in grid.records():
        assert record["ok"], record
    return len(grid.cells)


def test_criterion_1_coefficient_t1(capfd):
    def body():
        return f"{_all_ok(grids.claim3(nmax=5, pmax=11))} cells"

    _timed(capfd, "criterion 1: [t^1] of P(-1,-2n,p,q)", 10, body)


def test_criterion_2_coefficient_t3(capfd):
    def body():
        return f"{_all_ok(grids.claim4(nmax=5, pmax=11))} cells"

    _timed(capfd, "criterion 2: [t^3] of P(-1,2n,p,q)", 10, body)


def test_criterion_3_coefficient_t4(capfd):
    def body():
        return f"{_all_ok(grids.claim5(pmax=13))} cells"

    _timed(capfd, "criterion 3: [t^4] of P(-2,p,q)", 5, body)


def test_criterion_4_oracle_equivalence(capfd):
    def body():
        checked = _all_ok(grids.oracle(nmax=4, qmax=7))
        assert checked >= 100, f"only {checked} instances"
        return f"{checked} knots"

    _timed(capfd, "criterion 4: skein == fox up to units", 120, body)


def test_criterion_5_theorem_sweep(capfd):
    def body():
        _all_ok(grids.classify_sweep(qmax=25))
        return "q in 3..25"

    _timed(capfd, "criterion 5: classify(P(-2,3,q)) sweep", 5, body)


def test_criterion_6_rank_formula_grid(capfd):
    def body():
        return f"{_all_ok(grids.claim2())} hypothesis-satisfying tuples"

    _timed(capfd, "criterion 6: rank-formula implication grid", 5, body)


def test_criterion_7_constant_coefficient(capfd):
    # the normalized [t^0] of P(+-(-1,-1,2m,p,q)) is 2m - 1, outside the
    # {0, +-1} that an L-space surgery allows: Fox on the small members and
    # the skein on both chiralities of a larger box
    def body():
        fox = skein = 0
        for m in range(2, 6):
            for p, q in grids.pq_pairs(3, 9, 9):
                delta = alexander_fox(PretzelLink((-1, -1, 2 * m, p, q)))
                assert delta.normalize().coefficient(0) == 2 * m - 1, (m, p, q)
                fox += 1
        for m in range(2, 9):
            for p, q in grids.pq_pairs(3, 25, 25):
                for sign in (1, -1):
                    link = PretzelLink(tuple(sign * a for a in (-1, -1, 2 * m, p, q)))
                    assert alexander_skein(link).normalize().coefficient(0) == 2 * m - 1, link
                    skein += 1
        assert skein == 1092
        return f"{fox} Fox cells, {skein} skein knots"

    _timed(capfd, "criterion 7: constant coefficient 2m - 1", 60, body)


def test_criterion_8_polynomial_properties(capfd):
    def body():
        knots_checked = 0
        for link in grids.knot_box(3, 5):
            delta = alexander_skein(link)
            assert delta.equal_up_to_units(conj(delta)), link
            assert abs(at_one(delta)) == 1, link
            # the same knot read from another region or the other way
            # round: exact equality exercises the resolution order and the
            # strand flows
            params = link.params
            for k in range(1, len(params)):
                rotated = PretzelLink(params[k:] + params[:k])
                assert alexander_skein(rotated) == delta, (link, k)
            assert alexander_skein(PretzelLink(params[::-1])) == delta, link
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
            sign = rng.choice((1, -1))
            unit = LaurentPoly({rng.randint(-8, 8): sign})
            assert p.equal_up_to_units(multiply(p, unit))
            q = add(p, LaurentPoly({0: 1}))
            if not q.is_zero and q.normalize() != n1:
                assert not p.equal_up_to_units(q)
        return f"{knots_checked} knots + 1000 random polynomials"

    _timed(capfd, "criterion 8: polynomial property suite", 30, body)
