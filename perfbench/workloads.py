"""Seeded workloads: input generators, the timed operation, and a check for
each operation that shares no code with the package it measures.

A workload is a fixed *universe* of operations built from the seed.  The
harness runs the universe in passes, each pass in a new seeded order, so
every pass does the same work and only the order differs between passes
and between seeds.

The generators never import the package: they emit plain parameter tuples
and strings.  The checks read package results only through the public
``LaurentPoly.items()`` and ``ClassificationReport.to_json()`` and compare
them with values that come from the paper or from knot theory, never with
another package computation (except in ``cross-check``, whose whole point
is that two independent engines agree).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One operation: what to run, and what the check expects of it."""

    kind: str
    arg: Any  # a parameter tuple or an input string
    expect: Any


@dataclass
class Workload:
    name: str
    ops: list[Op]
    run: Callable[[Any, Op], Any]  # (package namespace, op) -> output
    # (op, output) -> "ok", "wrong", or the name of a refusal such as
    # "OUT_OF_SCOPE"; only "wrong" means the package gave a false answer
    check: Callable[[Op, Any], str]
    trace_passes: int  # passes in a traced run (a fixed count: counts repeat)
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]


# ----------------------------------------------------------------------
# independent arithmetic on {s-exponent: coefficient} maps (s**2 = t)


def _verdict(passed: bool) -> str:
    return "ok" if passed else "wrong"


def _coeffs(poly) -> dict[int, int]:
    return {e: c for e, c in poly.items() if c}


def _unit_normal(c: dict[int, int]) -> dict[int, int]:
    """Multiply by +-s**k so the lowest exponent is 0 and its coefficient
    positive."""
    lo = min(c)
    sign = 1 if c[lo] > 0 else -1
    return {e - lo: sign * v for e, v in c.items()}


def _is_knot_polynomial(c: dict[int, int]) -> bool:
    """Delta(1) = +-1, integer powers of t, and Delta(t) = Delta(1/t) up
    to a unit: the properties every knot's Alexander polynomial has."""
    if not c or abs(sum(c.values())) != 1:
        return False
    n = _unit_normal(c)
    top = max(n)
    return all(e % 2 == 0 for e in n) and all(n.get(top - e) == v for e, v in n.items())


def _t_coefficient(c: dict[int, int], k: int) -> int:
    return _unit_normal(c).get(2 * k, 0)


def _pretzel_is_knot(params: tuple[int, ...]) -> bool:
    """P(a_1..a_n) is a knot iff exactly one a_i is even, or n is odd and
    every a_i is odd; a lone region closes into the (2, a) torus link."""
    if len(params) == 1:
        return params[0] % 2 == 1
    evens = sum(1 for a in params if a % 2 == 0)
    return evens == 1 or (evens == 0 and len(params) % 2 == 1)


def _odd_pairs(lo: int, hi: int):
    return [(p, q) for p in range(lo, hi + 1, 2) for q in range(p, hi + 1, 2)]


# ----------------------------------------------------------------------
# the paper's coefficient claims (Ichihara-Jong): the normalized Alexander
# polynomial has [t^1] = -4 (n = 1) or -3 (n >= 2) for P(-1,-2n,p,q),
# [t^3] = 2 for P(-1,2n,p,q) with n >= 2, and [t^4] = -2 for P(-2,p,q)
# with 5 <= p <= q; none of them has the lens-space (OS) form.


def _claim_op(params: tuple[int, ...]) -> Op:
    if len(params) == 3:
        return Op("t4", params, (4, -2))
    n = params[1] // 2
    if n < 0:
        return Op("t1", params, (1, -4 if n == -1 else -3))
    return Op("t3", params, (3, 2))


def _run_coefficient(api, op: Op):
    delta = api.alexander.alexander_skein(api.pretzel.PretzelLink(op.arg))
    return delta, delta.normalize().coefficient(op.expect[0])


def _check_coefficient(op: Op, out) -> str:
    delta, coefficient = out
    exp, value = op.expect
    c = _coeffs(delta)
    return _verdict(coefficient == value and _is_knot_polynomial(c) and _t_coefficient(c, exp) == value)


def _run_claim(api, op: Op):
    delta, coefficient = _run_coefficient(api, op)
    return delta, coefficient, api.obstruction.os_form_check(delta)


def _check_claim(op: Op, out) -> str:
    delta, coefficient, os_form = out
    return _check_coefficient(op, (delta, coefficient)) if os_form is None else "wrong"


def claims_grid(seed: int, tiny: bool) -> Workload:
    qmax = 9 if tiny else 21
    ops = []
    for p, q in _odd_pairs(3, qmax):
        ops += [_claim_op((-1, -2 * n, p, q)) for n in range(1, 6)]
        ops += [_claim_op((-1, 2 * n, p, q)) for n in range(2, 6)]
        if p >= 5:
            ops.append(_claim_op((-2, p, q)))
    return Workload(
        "claims-grid", ops, _run_claim, _check_claim, trace_passes=3,
        stresses=("alexander", "laurent", "pretzel", "obstruction"),
        bypasses=("oracle", "classify", "cli"),
    )


_LARGE_Q_FAMILIES = (
    (-1, -2, 3), (-1, -4, 5), (-1, 4, 3), (-1, 6, 5), (-2, 5), (-2, 7),
)


def large_q(seed: int, tiny: bool) -> Workload:
    """One op per stratum of [qlo, qhi], the families taken in turn, so
    every seed does nearly the same work; the seed picks q inside each
    stratum.

    The OS-form check is left out here: its quadratic rebuild of the
    symmetric form would take over 90% of the time at q ~ 2000 and hide
    the multiplication layer this workload exists to measure."""
    rng = random.Random(seed)
    strata, qlo, qhi = (6, 101, 301) if tiny else (60, 101, 2001)
    width = (qhi - qlo) / strata
    ops = []
    for k in range(strata):
        q = int(qlo + k * width + rng.random() * width) | 1
        ops.append(_claim_op(_LARGE_Q_FAMILIES[k % len(_LARGE_Q_FAMILIES)] + (q,)))
    return Workload(
        "large-q", ops, _run_coefficient, _check_coefficient, trace_passes=10,
        stresses=("laurent", "alexander", "pretzel"),
        bypasses=("oracle", "obstruction", "classify", "cli"),
    )


# ----------------------------------------------------------------------
# cross-check: the skein engine against the Fox oracle, every knot of a box


def _run_cross(api, op: Op):
    link = api.pretzel.PretzelLink(op.arg)
    fox = api.oracle.alexander_fox(link)
    return fox, api.alexander.alexander_skein(link)


def _check_cross(op: Op, out) -> str:
    fox, skein = (_coeffs(p) for p in out)
    return _verdict(_is_knot_polynomial(fox) and _unit_normal(fox) == _unit_normal(skein))


def cross_check(seed: int, tiny: bool) -> Workload:
    bound, regions = (2, 3) if tiny else (2, 5)
    ops = [
        Op("box", params, None)
        for n in range(1, regions + 1)
        for params in product(range(-bound, bound + 1), repeat=n)
        if _pretzel_is_knot(params)
    ]
    return Workload(
        "cross-check", ops, _run_cross, _check_cross, trace_passes=20,
        stresses=("oracle", "pretzel", "alexander", "laurent"),
        bypasses=("obstruction", "classify", "cli"),
    )


# ----------------------------------------------------------------------
# classify-mix: expected verdicts known by construction

NO = ["NO_CYCLIC_OR_FINITE"]
MOSER = ["NON_HYPERBOLIC_SEE_MOSER"]
# Mattman's table for P(-2,3,q): (verdicts, cyclic slopes, finite slopes)
_MINUS2_3_Q = {
    3: (MOSER, [], []),
    5: (MOSER, [], []),
    7: (["CYCLIC_SLOPES", "FINITE_SLOPES"], [18, 19], [17]),
    9: (["FINITE_SLOPES"], [], [22, 23]),
}


def _pretzel_text(params) -> str:
    return ",".join(str(a) for a in params)


def _mix_op(kind: str, params, rng: random.Random, coefficient=None) -> Op:
    """Pretzel input in a seeded rotation or reversal of ``params`` (the
    same knot), with the verdict the paper gives for it."""
    params = list(params)
    r = rng.randrange(len(params))
    params = params[r:] + params[:r]
    if rng.random() < 0.5:
        params.reverse()
    return Op(kind, _pretzel_text(params), (NO, [], [], coefficient))


_DENOMINATORS = (5, 7, 9, 11)
# numerators b with gcd(b, a) = 1, split by whether b = +-1 mod a
_PM1 = {a: [b for b in range(-a + 1, a) if b % a in (1, a - 1)] for a in _DENOMINATORS}
_OTHER = {a: [b for b in range(-a + 1, a) if gcd(a, b) == 1 and b % a not in (1, a - 1)] for a in _DENOMINATORS}


def _montesinos_text(rng: random.Random, kind: str) -> str:
    """Three tangles b/a with odd a >= 5 and an odd total of numerators, so
    the determinant is odd (a knot).  No multiset of denominators matches
    the non-hyperbolic or exceptional Montesinos knots, which all contain a
    2 and a 3, so the verdict is NO_CYCLIC_OR_FINITE.

    ``kind`` fixes how the string reaches the pipeline: "pretzel" has every
    b = +-1 (read as a pretzel), "pm1" has every b = +-1 mod a but not
    every b = +-1 (a pretzel only after normalization), and "rational" has
    some b != +-1 mod a."""
    while True:
        dens = [rng.choice(_DENOMINATORS) for _ in range(3)]
        if kind == "pretzel":
            nums = [rng.choice((1, -1)) for _ in dens]
        elif kind == "pm1":
            nums = [rng.choice(_PM1[a]) for a in dens]
            if all(abs(b) == 1 for b in nums):
                continue
        else:
            nums = [rng.choice(_PM1[a] + _OTHER[a]) for a in dens]
            k = rng.randrange(3)
            nums[k] = rng.choice(_OTHER[dens[k]])
        if sum(nums) % 2:
            return ";".join(f"{b}/{a}" for b, a in zip(nums, dens))


def classify_mix(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    odd = list(range(3, 16, 2))
    scale = 1 if tiny else 4
    ops: list[Op] = []
    # family OTHER: positive odd pretzels with 3 or 5 regions (exit: delman)
    for size in [3] * (12 * scale) + [5] * (4 * scale):
        ops.append(_mix_op("other", [rng.choice(odd) for _ in range(size)], rng))
    # (-2l,p,q) with l > 1 (exit: mattman)
    for _ in range(6 * scale):
        ops.append(_mix_op("minus_2l", [-2 * rng.randint(2, 4), rng.choice(odd), rng.choice(odd)], rng))
    # P(-2,3,q) (exit: hyperbolicity or mattman)
    for q in range(3, 42, 2):
        verdicts, cyclic, finite = _MINUS2_3_Q.get(q, (NO, [], []))
        ops.append(Op("minus2_3_q", _pretzel_text((-2, 3, q)), (verdicts, cyclic, finite, None)))
    # torus knots P(a) and hyperbolic twist knots P(2k,1,1)
    for a in range(3, 24, 2):
        ops.append(Op("torus", str(rng.choice((a, -a))), (MOSER, [], [], None)))
    for k in range(1, 11):
        ops.append(_mix_op("twist", [2 * k, 1, 1], rng))
    # Montesinos fraction strings, a fixed share of each input path
    for kind, count in (("rational", 4), ("pm1", 2), ("pretzel", 2)):
        for _ in range(count * scale):
            ops.append(Op("montesinos_" + kind, _montesinos_text(rng, kind), (NO, [], [], None)))
    # (-1,2n,p,q) and (-2,p,q): decided by the skein coefficient
    pairs = [(3, 5)] if tiny else _odd_pairs(3, 11)
    for n in (-3, -2, -1, 2, 3):
        for p, q in pairs:
            value = (-4 if n == -1 else -3) if n < 0 else 2
            ops.append(_mix_op("minus1_2n", [-1, 2 * n, p, q], rng, value))
    for p, q in [(5, 7)] if tiny else _odd_pairs(5, 11):
        ops.append(_mix_op("minus1_2n", [-2, p, q], rng, -2))
    # (-1,-1,2m,p,q): decided by Fox's monic check (the heavy group)
    for m, (p, q) in product((2, 3), pairs):
        ops.append(_mix_op("minus1_minus1_2m", [-1, -1, 2 * m, p, q], rng))
    return Workload(
        "classify-mix", ops, _run_classify, _check_classify, trace_passes=20,
        stresses=("classify", "pretzel", "oracle", "alexander", "obstruction"),
        bypasses=("cli",),
    )


def _run_classify(api, op: Op) -> str:
    return api.classify.classify(op.arg).to_json()


def _check_classify(op: Op, out: str) -> str:
    verdicts, cyclic, finite, coefficient = op.expect
    report = json.loads(out)
    final = report["final"]
    if final["verdicts"] == ["OUT_OF_SCOPE"]:
        return "OUT_OF_SCOPE"
    if (final["verdicts"], final["cyclic_slopes"], final["finite_slopes"]) != (verdicts, cyclic, finite):
        return "wrong"
    return _verdict(coefficient is None or report["stages"][-1]["evidence"].get("coefficient") == coefficient)


WORKLOADS = {
    "claims-grid": claims_grid,
    "large-q": large_q,
    "cross-check": cross_check,
    "classify-mix": classify_mix,
}


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)

