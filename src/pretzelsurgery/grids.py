"""The verification grids, each defined once.

A grid is a list of cells and a check that turns one cell into a JSON
record whose ``ok`` field says whether the paper's claim holds there.  The
``verify-claims`` subcommand runs these grids at the default bounds below
(or at the bounds given on the command line), and the acceptance gate runs
the same grids at its own bounds.

The expected values are the paper's constants, written here and not read
from the pipeline, so that the grids stay a check on it.  A cell is a plain
value: a tuple of integers, a ``PretzelLink`` or an odd q.  The coefficient
grids (claims 3-5) read their coefficient as the Alexander gate of
``classify`` does, from ``alexander.low_coefficients``; the oracle grid
compares all of Delta.

A grid whose bounds would enumerate more than ``MAX_CELLS`` cells, or no
cell at all, raises ValueError, decided from the bounds before any cell is
built: a suite that checked nothing does not pass.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Any, Callable, Iterator, NamedTuple

from .alexander import alexander_skein, low_coefficients
from .classify import (
    CYCLIC_SLOPES,
    FINITE_SLOPES,
    NO_CYCLIC_OR_FINITE,
    NON_HYPERBOLIC_SEE_MOSER,
    classify,
)
from .oracle import alexander_fox
from .pretzel import PretzelLink, is_knot


# the most cells a grid enumerates; the default and acceptance grids stay
# below 60,000 (the oracle box counts every tuple, knot or not)
MAX_CELLS = 1_000_000


def _capped(cells: int) -> None:
    if cells > MAX_CELLS:
        raise ValueError(f"grid bounds give more than {MAX_CELLS} cells")
    if cells <= 0:
        raise ValueError("grid bounds give no cells")


class Grid(NamedTuple):
    """A suite's cells and the check that turns one cell into its record."""

    cells: list
    check: Callable[[Any], dict]

    def records(self) -> list[dict]:
        """One checked record per cell, in cell order."""
        return [self.check(cell) for cell in self.cells]


def pq_pairs(pmin: int, pmax: int, qmax: int) -> Iterator[tuple[int, int]]:
    """Odd pairs p <= q with pmin <= p <= pmax and q <= qmax."""
    for p in range(pmin, pmax + 1, 2):
        for q in range(p, qmax + 1, 2):
            yield p, q


def _pq_count(pmin: int, pmax: int, qmax: int) -> int:
    """How many pairs pq_pairs(pmin, pmax, qmax) yields, for odd pmin: the
    j-th p = pmin + 2j has m - j values of q."""
    top = min(pmax, qmax)
    if top < pmin:
        return 0
    k, m = (top - pmin) // 2 + 1, (qmax - pmin) // 2 + 1
    return k * m - k * (k - 1) // 2


def _box_count(nmax: int, bound: int) -> int:
    """How many tuples knot_box(nmax, bound) enumerates, or any number
    above MAX_CELLS once the count passes it."""
    total = 0
    for n in range(1, nmax + 1):
        total += (2 * bound + 1) ** n
        if total > MAX_CELLS:
            break
    return total


def knot_box(nmax: int, bound: int) -> Iterator[PretzelLink]:
    """Every pretzel knot with 1..nmax regions and parameters in -bound..bound."""
    for n in range(1, nmax + 1):
        for params in product(range(-bound, bound + 1), repeat=n):
            link = PretzelLink(params)
            if is_knot(link):
                yield link


# the classification of P(-2,3,q): q -> (verdicts, cyclic slopes, finite
# slopes); P(-2,3,3) and P(-2,3,5) are torus knots, and every other odd
# q has no cyclic or finite surgery
_MINUS2_3_Q = {
    3: ([NON_HYPERBOLIC_SEE_MOSER], [], []),
    5: ([NON_HYPERBOLIC_SEE_MOSER], [], []),
    7: ([CYCLIC_SLOPES, FINITE_SLOPES], [18, 19], [17]),
    9: ([FINITE_SLOPES], [], [22, 23]),
}


def minus2_3_q(q: int) -> tuple[list[str], list[int], list[int]]:
    """The expected (verdicts, cyclic slopes, finite slopes) of P(-2,3,q)."""
    return _MINUS2_3_Q.get(q, ([NO_CYCLIC_OR_FINITE], [], []))


def _coefficient(params: tuple[int, ...], exponent: int) -> int:
    """The coefficient of t^exponent in the normalized Delta of P(params)."""
    return low_coefficients(PretzelLink(params), exponent + 1)[exponent]


def _check_claim3(cell) -> dict:
    n, p, q = cell
    c = _coefficient((-1, -2 * n, p, q), 1)
    expected = -4 if n == 1 else -3
    return {"suite": "claim3", "n": n, "p": p, "q": q,
            "coefficient": c, "expected": expected, "ok": c == expected}


def claim3(nmax: int = 5, pmax: int = 11, qmax: int | None = None) -> Grid:
    """[t^1] of P(-1,-2n,p,q) is -4 for n = 1 and -3 for 2 <= n <= nmax;
    qmax defaults to pmax."""
    qmax = pmax if qmax is None else qmax
    _capped(max(nmax, 0) * _pq_count(3, pmax, qmax))
    cells = [(n, p, q) for n in range(1, nmax + 1) for p, q in pq_pairs(3, pmax, qmax)]
    return Grid(cells, _check_claim3)


def _check_claim4(cell) -> dict:
    n, p, q = cell
    c = _coefficient((-1, 2 * n, p, q), 3)
    return {"suite": "claim4", "n": n, "p": p, "q": q,
            "coefficient": c, "expected": 2, "ok": c == 2}


def claim4(nmax: int = 5, pmax: int = 11, qmax: int | None = None) -> Grid:
    """[t^3] of P(-1,2n,p,q) is 2 for 2 <= n <= nmax; qmax defaults to pmax."""
    qmax = pmax if qmax is None else qmax
    _capped(max(nmax - 1, 0) * _pq_count(3, pmax, qmax))
    cells = [(n, p, q) for n in range(2, nmax + 1) for p, q in pq_pairs(3, pmax, qmax)]
    return Grid(cells, _check_claim4)


def _check_claim5(cell) -> dict:
    p, q = cell
    c = _coefficient((-2, p, q), 4)
    return {"suite": "claim5", "p": p, "q": q,
            "coefficient": c, "expected": -2, "ok": c == -2}


def claim5(pmax: int = 11, qmax: int | None = None) -> Grid:
    """[t^4] of P(-2,p,q) is -2 for odd 5 <= p <= q; qmax defaults to pmax."""
    qmax = pmax if qmax is None else qmax
    _capped(_pq_count(5, pmax, qmax))
    return Grid(list(pq_pairs(5, pmax, qmax)), _check_claim5)


def _check_oracle(link: PretzelLink) -> dict:
    ok = alexander_skein(link).equal_up_to_units(alexander_fox(link))
    return {"suite": "oracle", "params": list(link.params), "comparable": True, "ok": ok}


def oracle(nmax: int = 5, qmax: int = 5) -> Grid:
    """Skein equals Fox up to units on knot_box(nmax, qmax), every knot
    with 1..nmax regions in -qmax..qmax.  Below qmax = 1 the box holds no
    knot, so the grid has no cells."""
    _capped(_box_count(nmax, qmax) if qmax >= 1 else 0)
    return Grid(list(knot_box(nmax, qmax)), _check_oracle)


def _x(nu: int, alpha: int, beta: int) -> int:
    """X(nu, alpha, beta) = max(0, (2 nu - 1) beta - |alpha|) for beta >= 1."""
    return max(0, (2 * nu - 1) * beta - abs(alpha))


def _check_claim2(cell) -> dict:
    nu, alpha, beta, y = cell
    x_one = _x(nu, alpha, 1)
    a_holds, b_holds = y <= 0, 2 * x_one + y <= 0
    return {"suite": "claim2", "nu": nu, "alpha": alpha, "beta": beta, "Y": y,
            "x_beta": _x(nu, alpha, beta), "x_one": x_one,
            "a_holds": a_holds, "b_holds": b_holds, "ok": a_holds and b_holds}


def claim2() -> Grid:
    """Claim 2's rank-formula step: an L-space alpha/beta surgery, beta >= 2,
    makes the alpha surgery an L-space.  By Ozsvath-Szabo's rational surgery
    formula the alpha/beta surgery has hat rank |alpha| + 2X + beta Y, with
    X = _x(nu, alpha, beta) and Y = sum_s (rk H(A_s) - 1), nu and Y symbolic
    integers; so it is an L-space iff 2X + beta Y = 0.  The cells are the
    (nu, alpha, beta, Y) that meet this, nu in -3..5, beta in 2..5, alpha in
    -30..30 prime to beta and Y in -10..0; each must have Y <= 0 (a) and
    2 X(nu, alpha, 1) + Y <= 0 (b).  Both hold: Y = -2X/beta <= 0, and as
    |alpha| >= |alpha|/beta, X(nu, alpha, 1) <= X/beta, so (b) follows."""
    ranges = (range(-3, 6), range(2, 6), range(-30, 31), range(-10, 1))
    cells = [(nu, alpha, beta, y) for nu, beta, alpha, y in product(*ranges)
             if gcd(alpha, beta) == 1 and 2 * _x(nu, alpha, beta) + beta * y == 0]
    return Grid(cells, _check_claim2)


def _check_classify_sweep(q: int) -> dict:
    final = classify(PretzelLink((-2, 3, q))).final
    got = (final.verdicts, final.cyclic_slopes, final.finite_slopes)
    return {"suite": "classify-sweep", "q": q, "verdicts": final.verdicts,
            "cyclic": final.cyclic_slopes, "finite": final.finite_slopes,
            "ok": got == minus2_3_q(q)}


def classify_sweep(qmax: int = 25) -> Grid:
    """classify(P(-2,3,q)) against minus2_3_q for odd 3 <= q <= qmax."""
    _capped(max((qmax - 1) // 2, 0))
    return Grid(list(range(3, qmax + 1, 2)), _check_classify_sweep)


SUITES: dict[str, Callable[..., Grid]] = {
    "claim3": claim3,
    "claim4": claim4,
    "claim5": claim5,
    "oracle": oracle,
    "claim2": claim2,
    "classify-sweep": classify_sweep,
}


__all__ = [
    "Grid",
    "MAX_CELLS",
    "SUITES",
    "claim2",
    "claim3",
    "claim4",
    "claim5",
    "classify_sweep",
    "knot_box",
    "minus2_3_q",
    "oracle",
    "pq_pairs",
]
