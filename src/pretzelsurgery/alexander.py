"""Alexander polynomials of pretzel knots by a region-by-region skein state sum.

The engine works with the Conway-consistent representatives that satisfy
the skein relation Delta(L+) - Delta(L-) = (t^(-1/2) - t^(1/2)) Delta(L0)
exactly; results are therefore "Delta up to units", with unit choices kept
coherent inside a single computation so that the state sum is an exact
identity.  Normalization is left to the caller.

The sum runs over oriented pretzel links: every sub-link keeps, on each of
its regions, the strand flows that region had in the root knot, since
crossing changes and oriented smoothings never change them, and
``pretzel.parallel_regions`` reads them from the parities.  Each region
is resolved once, in index order, into a few (multiplier, outcome)
branches chosen by its flows:

* parallel strands: the torus-link recursion leaves the region at 0 or
  +-1, with torus-link polynomial multipliers;
* antiparallel strands: crossing changes walk the region to 0 or +-1, and
  the smoothing of each change caps the region off at top and bottom,
  which removes it from the necklace;
* a region with |a| <= 1 is kept as it is.

One branch per region is an expansion, and three kinds of leaf close the
expansions in closed form:

* a 0 region cuts the necklace into a connected sum of (2, a)-torus
  factors, one per region still unresolved; all such expansions share one
  accumulator, multiplied by the factor of each region resolved after it
  (a second 0 is the factor 0: a split link);
* a removal that leaves two regions gives P(a, b), the (2, a + b)-torus
  link, so no expansion shrinks to a single region;
* an expansion that keeps every region at +-1 is a necklace of single
  crossings, the (2, m)-torus link with m the sum of the regions.

Every kept +-1 region (odd, or a parallel even one) and every P(a, b) leaf
is parallel iff the knot has an even region, so until then an expansion is
known by the sum of its kept +-1 regions and their number (counted up to
3); expansions that agree on these are added, so the work is polynomial in
the number of regions.

Every torus value of three or more terms is carried as its numerator:
Delta_l = N_l / (1 + t) with the two-term N_l = s^(1-l) - (-1)^l s^(1+l);
the values of at most two terms (0, 1 and +-w) are a table.  A parallel
region with |a| >= 3 takes numerators for both of its branch multipliers
and for its twist value in the cut, so after k such regions every state
and the cut lie over (1 + t)^k.  A torus-valued leaf with |total| >= 3
takes its numerator too, one power above its expansion.  The leaves are
summed per power and each sum is brought to the top power: the state sum
returns one numerator and its power, as the closed form of a knot with one
or two regions does, and ``alexander_skein`` ends both in one division
(``_divide_by_one_plus_t``).  The program of ``alexander_with_trace`` lists
the values Delta: each multiplier divided by its region's power of 1 + t.

The state sum runs on plain coefficient maps {s-exponent: coefficient}
with no zero value: ``_product``, the dictionary double loop, whose cost is
the product of the term counts, and ``_sum``.  Each returns a new map and
leaves its operands as they were.  Every product the state sum makes has
an operand of at most two terms (a test in ``tests/test_alexander.py``
guards this), and it skips every product known to be 0 (a leaf of value
0, a Horner step on an empty sum, a branch of the last region whose only
leaf has total 0).  The maps do not grow with the twists:
the only work linear in the largest twist is the division's layout of its
quotient, and of its dividend where the division sums every t-step.
``_divide_by_one_plus_t``, a synthetic division by k running sums, takes
the numerator's map and returns the quotient already in ``LaurentPoly``'s
dense layout, its lowest exponent and one slot per s-exponent, which
``laurent._from_slots`` wraps as it is: no map of the quotient is built.
Across the long run of zero t-steps between the numerator's low and high
blocks the quotient is one constant up to sign, whenever the sums below
the top one are 0 at its start; the division then lays out and sums only
the t-steps on either side and lays the run out as a repeated pattern.

A caller that needs only the lowest few coefficients of the normalized
Delta, as the Alexander gate of ``classify`` and the claim grids do, reads
them with ``low_coefficients``: the same numerator and power, the first
running sums over the numerator's lowest terms, and an exact divisibility
test on its terms (``_low_coefficients``).  Nothing there is linear in the
twists, so it has no twist bound; ``alexander_skein``, which lays out all
of Delta, refuses a region of more than ``_MAX_TWIST`` crossings.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import mul, neg

from .laurent import LaurentError, LaurentPoly, _from_slots
from .pretzel import _MAX_TWIST, PretzelError, PretzelLink, parallel_regions


# ----------------------------------------------------------------------
# torus link polynomials
#
# Delta_0 = 0, Delta_1 = 1 and Delta_{l+1} = Delta_{l-1} + w Delta_l with
# w = s^-1 - s (s^2 = t); negative indices extend the same recursion (the
# mirror image), giving Delta_{-l} = (-1)^(l+1) Delta_l.  Values are
# coefficient maps {s-exponent: coefficient}, shared and never modified.

_ONE = {0: 1}
_ZERO: dict[int, int] = {}
_ONE_PLUS_T = {0: 1, 2: 1}

# Delta_l for |l| <= 2, the values of at most two terms: 0, 1 and +-w
_SMALL_TORUS = {0: _ZERO, 1: _ONE, -1: _ONE, 2: {-1: 1, 1: -1}, -2: {-1: -1, 1: 1}}


# ----------------------------------------------------------------------
# arithmetic on coefficient maps

def _product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The coefficient map of a * b by the double loop: a new dict, no zeros."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    terms = iter(a.items())
    e1, v1 = next(terms)
    c = {e1 + e2: v1 * v2 for e2, v2 in b.items()}
    for e1, v1 in terms:
        for e2, v2 in b.items():
            e = e1 + e2
            v = c.get(e, 0) + v1 * v2
            if v:
                c[e] = v
            else:
                del c[e]
    return c


def _sum(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The coefficient map of a + b: a new dict, no zeros."""
    if len(a) < len(b):
        a, b = b, a
    c = a.copy()
    for e, v in b.items():
        v += c.get(e, 0)
        if v:
            c[e] = v
        else:
            del c[e]
    return c


# the division's errors, which ``_low_coefficients`` raises too
_MIXED_PARITY = "the division by (1 + t)^k takes s-exponents of one parity only"
_NOT_DIVISIBLE = "(1 + t)^{} does not divide the polynomial"


def _divide_by_one_plus_t(c: dict[int, int], k: int) -> tuple[int, list[int]]:
    """The exact quotient c / (1 + t)**k, for k >= 0, in ``LaurentPoly``'s
    layout: its lowest s-exponent and a new list with one slot per
    s-exponent from there, the first and last nonzero ((0, []) for 0).

    Raises LaurentError for a negative k, when (1 + t)**k does not divide
    c, and, for k >= 1, when c's s-exponents mix both parities: a knot's
    dividend Delta * (1 + t)**k has one parity class, and only that case is
    divided.  At k = 0 nothing is divided, and c is laid out as it is, of
    either parity: {0: 1, 1: 1} gives (0, [1, 1]).

    Write c = sum_j a_j t**j over its n t-steps from its lowest exponent.
    The power series c / (1 + t) has the coefficients
    q_j = sum_{i <= j} (-1)**(j - i) a_i, so (-1)**j q_j is the running sum
    of the (-1)**i a_i: k running sums of the signed list give the first n
    coefficients of c / (1 + t)**k, times (-1)**j.  The quotient, if any,
    has n - k terms, so (1 + t)**k divides c exactly when the top k sums
    vanish: then the first n - k sums, times (-1)**j, are a polynomial Q
    with Q (1 + t)**k = c modulo t**n, and both sides have degree below n.
    Q's first and last coefficients are those of c, so neither is 0, and
    they land in every other slot, one t-step apart.

    A knot's numerator has a few terms in a low and a high block far
    apart, and the sums need not be run across the zero t-steps between
    them.  A run of zero t-steps between two terms is cut off so that it
    ends by t-step n - k: the top k t-steps, whose sums decide
    divisibility, are always summed.  The longest such run is taken when
    it covers more than half of the quotient's n - k t-steps; a run that
    long holds the middle one, (n - k) // 2, so one pass over c's
    exponents finds it from the terms next to that t-step, before anything
    is laid out.  The run is
    taken only if the k passes over the head (the t-steps before it) end
    with the k - 1 lower sums at 0, which holds exactly when
    (1 + t)**(k - 1) divides the head.  Across the run each sum then adds
    the one below it, so the lower sums stay 0 and the top one stays at
    its last value v: the quotient there is (-1)**j v, which the output
    takes from the start as the repeated slots [v, 0, -v, 0].  The passes
    run over the tail from the sums at the run's end (the tail starts at
    an even t-step inside the run, so its slots take the head's signs),
    and the head's and the tail's sums overwrite their slots: only the
    head and the tail are laid out from c's terms, so the run's t-steps
    take no slot but the quotient's own.  The sums are those of the full
    passes, so the test of the top k and the quotient are the same.  Any
    other dividend is laid out and summed over every t-step.
    """
    if k < 0:
        raise LaurentError(f"cannot divide by (1 + t)^{k}: the power must be at least 0")
    if not c:
        return 0, []
    lo, hi = min(c), max(c)
    if not k:
        slots = [0] * (hi - lo + 1)
        for e, v in c.items():
            slots[e - lo] = v
        return lo, slots
    n = (hi - lo) // 2 + 1
    count = n - k  # the quotient's terms
    # the terms next to the quotient's middle t-step, which bound the only
    # run of zero t-steps that can cover more than half of it
    mid = count // 2
    m = lo + 2 * mid  # its s-exponent
    below, above = lo - 2, hi + 2  # one t-step outside c when there is none
    for e in c:
        if (e - lo) & 1:
            raise LaurentError(_MIXED_PARITY)
        if e < m:
            if e > below:
                below = e
        elif m < e < above:
            above = e
    if count <= 0:
        raise LaurentError(_NOT_DIVISIBLE.format(k))
    start, end = (below - lo) // 2 + 1, min((above - lo) // 2, count)
    at_mid = m in c
    skip_run = not at_mid and 2 * (end - start) > count
    if skip_run:
        # the tail starts at an even t-step inside the run, so its slots take
        # the head's signs; no term lies between the head and the tail
        end -= end % 2
        head, tail = [0] * start, [0] * (n - end)
        for e, v in c.items():
            j = (e - lo) >> 1
            if j < start:
                head[j] = -v if j & 1 else v
            else:
                tail[j - end] = -v if j & 1 else v
        last = []  # each pass's sum at t-step start - 1
        for _ in range(k):
            head = list(accumulate(head))
            last.append(head[-1])
        v = last.pop()
        skip_run = not any(last)
    if skip_run:
        # across the run the lower sums stay 0 and the top one stays v
        sums = tail
        for _ in range(k - 1):
            sums = accumulate(sums)
        sums = list(accumulate(sums, initial=v))[1:]
        out = [v, 0, -v, 0] * ((count + 1) // 2)
        del out[2 * count - 1:]
        out[:2 * start:4] = head[::2]
        out[2:2 * start:4] = map(neg, head[1::2])
        out[2 * end::4] = sums[:count - end:2]
        out[2 * end + 2::4] = map(neg, sums[1:count - end:2])
    else:
        sums = [0] * n
        for e, v in c.items():
            j = (e - lo) >> 1
            sums[j] = -v if j & 1 else v
        for _ in range(k):  # lazy passes, run at C speed by the list() below
            sums = accumulate(sums)
        sums = list(sums)
        out = [0] * (2 * count - 1)  # the sums, times (-1)**j, every other slot
        out[::4] = sums[:count:2]
        out[2::4] = map(neg, sums[1:count:2])
    if any(sums[-k:]):  # the top k t-steps
        raise LaurentError(_NOT_DIVISIBLE.format(k))
    return lo, out


def _low_coefficients(c: dict[int, int], k: int, w: int) -> list[int]:
    """The coefficients of t^0, ..., t^(w-1) in the normalized quotient
    c / (1 + t)**k, for k >= 0, with no quotient laid out: those of
    ``_from_slots(*_divide_by_one_plus_t(c, k)).normalize()``, 0 past its
    top.  Raises LaurentError for a c whose s-exponents mix both parities,
    at every k: at k = 0 too, where the division lays such a c out as it
    is.  Raises it as the division does for a c that (1 + t)**k does not
    divide, and as ``normalize`` does for 0.

    Write c = sum_i n_i t**i over its t-steps i from its lowest exponent
    lo.  The division's running sums are (-1)**j q_j, with
    q_j = sum_{i <= j} n_i (-1)**(j - i) C(j - i + k - 1, k - 1) the
    quotient's coefficients, and their first w take only c's terms below
    t-step w: k running sums over those give the window.  The quotient's
    lowest coefficient is n_0, whose sign ``normalize`` takes out.

    (1 + t)**k divides c exactly when t = -1 is a root of order k, that is
    when sum_i (-1)**i n_i C(i, m) = 0 for every m < k; for each m the
    C(i, m) and the powers e_i**m of the s-exponents e_i = lo + 2i are
    combinations of one another with nonzero leading coefficients, so the
    test reads the power sums sum_i (-1)**i n_i e_i**m: O(|c| k) products
    on c's terms, at any span.
    """
    if not c:
        raise LaurentError("cannot normalize the zero polynomial")
    lo = min(c)
    head = [0] * w
    end = 2 * w  # t-step w, in s-steps from lo
    signed = []  # the (-1)**i n_i, in c's order
    for e, v in c.items():
        d = e - lo
        if d & 1:
            raise LaurentError(_MIXED_PARITY)
        if d & 2:
            v = -v
        signed.append(v)
        if d < end:
            head[d >> 1] = v
    exponents = list(c)
    for m in range(k):
        if m:
            signed = list(map(mul, signed, exponents))
        if sum(signed):
            raise LaurentError(_NOT_DIVISIBLE.format(k))
    for _ in range(k):
        head = accumulate(head)
    head = list(head)
    # (-1)**j q_j times the sign of n_0: negate the odd or the even t-steps
    flip = 1 if c[lo] > 0 else 0
    head[flip::2] = map(neg, head[flip::2])
    return head


@functools.lru_cache(maxsize=256)
def _numerator(l: int) -> dict[int, int]:
    """N_l = (1 + t) Delta_l = s^(1-l) - (-1)^l s^(1+l), two terms for any
    l != 0: the recursion's characteristic roots are s^-1 and -s, so
    Delta_l = sum_{j<l} (-1)^j s^(2j-l+1) is geometric with ratio -s^2 = -t.
    A bounded cache keeps the recent ones."""
    return {1 - l: 1, 1 + l: -1 if l % 2 == 0 else 1}


def _twist_value(m: int, parallel: bool) -> tuple[dict[int, int], int]:
    """Exact Conway value of the closed vertical (2, m) twist with the two
    strands running parallel or antiparallel, over its power of 1 + t: a
    torus value of three or more terms comes as its numerator over
    (1 + t)^1, every other value over (1 + t)^0.

    A parallel twist is a torus value, and Delta_m(-s) = (-1)^(m+1) Delta_m
    = Delta_{-m} puts the vertical one at -m; an odd twist is a knot, and
    Delta_{-m} = Delta_m whatever the strands do.  An even antiparallel
    twist is (m/2) w.  A quarter turn exchanges the two smoothings, so a
    horizontal twist m is the vertical twist -m.
    """
    if parallel or m % 2 != 0:
        return (_numerator(-m), 1) if abs(m) >= 3 else (_SMALL_TORUS[-m], 0)
    return ({-1: m // 2, 1: -(m // 2)} if m else _ZERO), 0


def _leaf_value(total: int, units: bool, has_even: bool) -> tuple[dict[int, int], int]:
    """Conway value of a necklace that closes into one (2, total) twist:
    a necklace of +-1 regions (units), or one or two regions (a knot's
    own, or the P(a, b) a removal leaves), in a knot with an even region
    or not; over its power of 1 + t as in ``_twist_value``.

    By the module docstring's rule a P(a, b) leaf runs parallel exactly
    when the knot has an even region, and so do the +-1 regions down a
    necklace.  A necklace of single crossings is a closed (2, m) braid
    whose strands run horizontally; each crossing joins TL to BR, so they
    run parallel iff they run antiparallel down the regions: exactly when
    the knot has no even region.  The total of a removal leaf can be even
    (P(-3,-3,-3) removes its first region and leaves P(-3,-3), of total
    -6), so the flows decide its value.
    """
    if units:
        return _twist_value(-total, not has_even)
    return _twist_value(total, has_even)


def _choices(a: int, parallel: bool) -> tuple[tuple[tuple[dict[int, int], int | None], ...], int]:
    """The (multiplier, outcome) branches that resolve a region a whose
    strands run parallel or antiparallel, and the region's power of 1 + t:
    1 for a parallel region with |a| >= 3, whose multipliers are both
    numerators, else 0."""
    if abs(a) <= 1:
        return ((_ONE, a),), 0
    sign = 1 if a > 0 else -1
    if parallel:
        # parallel strands drawn as positive twists carry negative crossings
        # (and vice versa): the recursion runs on the mirror index -a
        if abs(a) >= 3:
            return ((_numerator(sign - a), 0), (_numerator(-a), sign)), 1
        return ((_SMALL_TORUS[sign - a], 0), (_SMALL_TORUS[-a], sign)), 0
    # antiparallel: crossing changes walk a to 0 (even) or sign(a) (odd),
    # and each change's smoothing caps the region off, leaving P(rest)
    r = 0 if a % 2 == 0 else sign
    k = (a - r) // 2
    return ((_ONE, r), ({-1: k, 1: -k}, None)), 0


def _state_sum(params, parallel, has_even: bool) -> tuple[dict[int, int], int]:
    """Sum over one branch per region, resolving the regions in index
    order (see the module docstring): the numerator N and the power k
    with Delta = N / (1 + t)^k."""
    product, add = _product, _sum
    # (sum of the kept +-1 regions, min(kept, 3)) -> the weight of the
    # expansions without a 0 region
    states: dict = {(0, 0): _ONE}
    cut = _ZERO  # expansions with one 0 region, in Horner form
    power = 0  # of 1 + t under every state and the cut
    over: dict[int, dict[int, int]] = {}  # power -> the leaves over (1 + t)^power

    def collect(k, value):
        over[k] = add(over[k], value) if k in over else value

    for t, (a, par) in enumerate(zip(params, parallel)):
        choices, up = _choices(a, par)
        power += up
        if cut:
            # a cut needs an even region, so every odd region runs parallel
            # and its factor lies over its region's power
            factor, factor_up = _twist_value(a, par)
            if factor_up != up:
                raise RuntimeError(f"{params}: region {t} lies over (1 + t)^{up} "
                                   f"and its cut factor over (1 + t)^{factor_up}")
            cut = product(cut, factor) if factor else _ZERO
        if not states:
            continue
        left = len(params) - 1 - t  # the regions still unresolved after this one
        merged: dict = {}
        for mult, outcome in choices:
            for (total, kept), weight in states.items():
                if not left and outcome != 0 and total + (outcome or 0) == 0:
                    continue  # its only leaf is the split (2, 0) link, of value 0
                w = weight if mult is _ONE else (mult if weight is _ONE else product(mult, weight))
                if outcome == 0:
                    cut = add(cut, w)
                    continue
                if outcome is None:
                    if kept + left == 2:
                        # at most two regions are left: the removal's leaf reads them
                        value, leaf_up = _leaf_value(
                            total + sum(params[t + 1:]), all(abs(b) == 1 for b in params[t + 1:]), has_even
                        )
                        if value:
                            collect(power + leaf_up, product(w, value))
                        continue
                    key = (total, kept)
                else:
                    key = (total + outcome, min(kept + 1, 3))
                merged[key] = add(merged[key], w) if key in merged else w
        states = merged
    for (total, _), weight in states.items():
        value, leaf_up = _leaf_value(total, True, has_even)
        if value:
            collect(power + leaf_up, product(weight, value))
    if cut:
        collect(power, cut)
    # every sum brought to the top power, in Horner form from the lowest one
    top = max(over, default=0)
    numerator = _ZERO
    for k in range(top + 1):
        if numerator:
            numerator = product(numerator, _ONE_PLUS_T)
        if k in over:
            numerator = add(numerator, over[k]) if numerator else over[k]
    return numerator, top


def _numerator_and_power(link: PretzelLink) -> tuple[dict[int, int], int]:
    """The numerator N and the power k with Delta = N / (1 + t)^k of a
    pretzel knot: the state sum, or the closed form of one or two regions.
    Raises PretzelError for a link."""
    params = link.params
    parallel = parallel_regions(link)
    has_even = any(a % 2 == 0 for a in params)
    if len(params) <= 2:
        return _leaf_value(sum(params), all(abs(a) == 1 for a in params), has_even)
    return _state_sum(params, parallel, has_even)


def alexander_skein(link: PretzelLink) -> LaurentPoly:
    """Delta of a pretzel knot, up to units (Conway-consistent
    representative; apply LaurentPoly.normalize for the paper's form).
    Raises PretzelError when the link has more than one component or a
    region of more than ``_MAX_TWIST`` crossings."""
    if max(map(abs, link.params)) > _MAX_TWIST:
        raise PretzelError(f"{link}: twist regions of more than {_MAX_TWIST} crossings are not supported")
    return _from_slots(*_divide_by_one_plus_t(*_numerator_and_power(link)))


def low_coefficients(link: PretzelLink, w: int) -> list[int]:
    """The coefficients of t^0, ..., t^(w-1) in the normalized Delta of a
    pretzel knot, those of ``alexander_skein(link).normalize()``, read from
    the state sum's numerator by ``_low_coefficients`` with no quotient laid
    out.  Its work does not grow with the twists, so no twist bound
    applies.  Raises PretzelError for a link."""
    return _low_coefficients(*_numerator_and_power(link), w)


def alexander_with_trace(link: PretzelLink) -> tuple[LaurentPoly, list[tuple]]:
    """Delta as ``alexander_skein`` gives it, with the program of the
    computation: a step (region_index, param, branches) for each region with
    |a| >= 2, in index order, as the state sum resolves them.  Each branch
    is a (multiplier, outcome) pair, the multiplier a value Delta (a
    numerator divided by its region's power of 1 + t) and the outcome the
    region's new parameter (0 or +-1), or None when the branch removes the
    region.  Links with at most two regions are closed forms and have no
    steps."""
    value = alexander_skein(link)  # refuses an oversized twist before any step is built
    params = link.params
    regions = enumerate(zip(params, parallel_regions(link))) if len(params) > 2 else ()
    steps = []
    for i, (a, par) in regions:
        if abs(a) >= 2:
            branches, k = _choices(a, par)
            steps.append((i, a, tuple((_from_slots(*_divide_by_one_plus_t(m, k)), o) for m, o in branches)))
    return value, steps


__all__ = [
    "alexander_skein",
    "alexander_with_trace",
    "low_coefficients",
]
