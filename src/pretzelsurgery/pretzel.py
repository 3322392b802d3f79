"""Pretzel links P(a_1, ..., a_n) and Montesinos tangle descriptions.

The diagram: vertical twist regions stand side by side, region i joined to
region i+1 (cyclically) by parallel arcs at top and bottom.  Region i
carries |a_i| crossings; an odd a_i swaps its two strands, an even a_i
preserves them.  Nothing traces the strands: whether the link is a knot,
and which regions carry parallel strands, follow from the parities of the
parameters alone (``is_knot``, ``parallel_regions``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction


class PretzelError(ValueError):
    pass


@dataclass(frozen=True)
class PretzelLink:
    """An ordered tuple of signed twist-region parameters."""

    params: tuple[int, ...]

    def __init__(self, params):
        params = tuple(int(a) for a in params)
        if len(params) < 1:
            raise PretzelError("need at least one twist region")
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        return "P(" + ",".join(str(a) for a in self.params) + ")"

    @property
    def n_regions(self) -> int:
        return len(self.params)

    @property
    def crossing_count(self) -> int:
        return sum(abs(a) for a in self.params)


def parse_pretzel(text: str) -> PretzelLink:
    """Parse a comma-separated parameter list such as "-1,-2,3,3"."""
    text = text.strip()
    if text.startswith("P(") and text.endswith(")"):
        text = text[2:-1]
    try:
        params = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise PretzelError(f"bad pretzel parameter list: {text!r}") from exc
    return PretzelLink(params)


# ----------------------------------------------------------------------
# knot test and strand flows, from the parities of the regions

def is_knot(link: PretzelLink) -> bool:
    """Whether the link has one component: the parity of its determinant.

    P(a) is the (2, a)-torus link, a knot iff a is odd.  With n >= 2
    regions, D = sum_i prod_{j != i} a_j is +-det, which is odd exactly
    for knots (Lickorish, ch. 6): odd iff exactly one region is even (zero
    counts as even), or none is and n is odd.
    """
    params = link.params
    evens = sum(1 for a in params if a % 2 == 0)
    if len(params) == 1:
        return evens == 0
    return evens == 1 or (evens == 0 and len(params) % 2 == 1)


def parallel_regions(link: PretzelLink) -> tuple[bool, ...]:
    """For each region of a pretzel knot, whether its two strands run the
    same vertical direction; raises PretzelError for a link.

    With an even region, every odd region is parallel and the even one is
    parallel iff n is even; with none, every region is antiparallel.  Let
    x_i, y_i be the flows into region i at its top-left and top-right
    ports, so region i is parallel iff x_i = y_i.  An odd region joins TL
    to BR and TR to BL, an even one TL to BL and TR to BR, and a strand
    leaves a region against its entry flow.

    * A top arc reverses the port flow: y_i = not x_{i+1}; so does a
      bottom arc.
    * Parallelism carries through consecutive odd regions: following
      region i's strands through the bottom arc gives y_{i+1} = not x_i.
    * An odd region that follows an even region is parallel: there
      y_{i+1} = not y_i = x_{i+1}.
    * Region i is parallel iff x_i != x_{i+1}, so the top chain closes
      only if the number of parallel regions is even.

    Hence with one even region the n - 1 odd regions are parallel and the
    even one is parallel iff n is even; with none (n odd) all n regions
    agree, and only antiparallel closes.  A lone odd region closes with
    side arcs TL-BL and TR-BR, which give y = x: it is parallel.
    """
    if not is_knot(link):
        raise PretzelError(f"{link} is not a knot")
    params = link.params
    if len(params) == 1:
        return (True,)
    has_even = any(a % 2 == 0 for a in params)
    return tuple(has_even and (a % 2 == 1 or len(params) % 2 == 0) for a in params)


# ----------------------------------------------------------------------
# family classification

class FamilyKind(Enum):
    MINUS_2L = "MINUS_2L"
    MINUS1_2N = "MINUS1_2N"
    MINUS1_MINUS1_2M = "MINUS1_MINUS1_2M"
    OTHER = "OTHER"


@dataclass(frozen=True)
class FamilyTag:
    """Membership in one of the candidate pretzel families.

    ``index`` holds l for MINUS_2L (l > 1), the nonzero n for MINUS1_2N, or
    m for MINUS1_MINUS1_2M (m > 1); it is None for OTHER.  ``mirror``
    marks the mirror image of the family member: every parameter negated.
    """

    kind: FamilyKind
    index: int | None = None
    p: int | None = None
    q: int | None = None
    mirror: bool = False

    def __str__(self) -> str:
        if self.kind is FamilyKind.OTHER:
            return "OTHER"
        letter = {
            FamilyKind.MINUS_2L: "l",
            FamilyKind.MINUS1_2N: "n",
            FamilyKind.MINUS1_MINUS1_2M: "m",
        }[self.kind]
        text = f"{self.kind.value}({letter}={self.index},p={self.p},q={self.q})"
        return f"MIRROR({text})" if self.mirror else text


def _odd_pq(values) -> tuple[int, int] | None:
    vals = sorted(values)
    if len(vals) == 2 and all(v % 2 == 1 and v >= 3 for v in vals):
        return vals[0], vals[1]
    return None


def family_membership(link: PretzelLink) -> FamilyTag:
    """Classify a pretzel knot into the candidate surgery families; raises
    PretzelError for a link.

    The lookup runs on a normal form that depends only on the knot's
    tangles mod 1 and the sum e of their integer parts (Boileau-Zieschang):
    a +-1 region is the integer tangle +-1 and only adds to e, and a -2
    region is the region 2 with e - 1, since -1/2 = 1/2 - 1.  What remains
    is the multiset of essential regions, so parameter order and the
    placement of unit regions never matter.  A member has the regions
    (2k, p, q) with odd 3 <= p <= q and

    * e = 0 and 2k <= -4: MINUS_2L with l = -k;
    * e = -1: MINUS1_2N with n = k (so P(-2,p,q) = P(-1,2,p,q) has n = 1);
    * e = -2 and 2k = 2: MINUS1_2N with n = -1, as P(-1,-1,2,p,q) =
      P(-1,-2,p,q);
    * e = -2 and 2k >= 4: MINUS1_MINUS1_2M with m = k.

    A knot whose mirror image (all parameters negated) is a member gets the
    member's tag with ``mirror`` set; no knot is both.
    """
    if not is_knot(link):
        raise PretzelError(f"{link} is not a knot")
    tag = _family_tag(link.params)
    if tag.kind is FamilyKind.OTHER:
        mirror = _family_tag([-a for a in link.params])
        if mirror.kind is not FamilyKind.OTHER:
            return replace(mirror, mirror=True)
    return tag


def _family_tag(params) -> FamilyTag:
    """Family of one parameter list, mirror images not included."""
    e = sum(a for a in params if abs(a) == 1)
    regions = []
    for a in params:
        if a == -2:
            regions.append(2)
            e -= 1
        elif abs(a) != 1:
            regions.append(a)
    evens = [a for a in regions if a % 2 == 0]
    pq = _odd_pq(a for a in regions if a % 2 == 1)
    if len(evens) != 1 or evens[0] == 0 or pq is None:
        return FamilyTag(FamilyKind.OTHER)
    k = evens[0] // 2
    if e == 0 and k <= -2:
        return FamilyTag(FamilyKind.MINUS_2L, -k, *pq)
    if e == -1:
        return FamilyTag(FamilyKind.MINUS1_2N, k, *pq)
    if e == -2 and k == 1:
        return FamilyTag(FamilyKind.MINUS1_2N, -1, *pq)
    if e == -2 and k >= 2:
        return FamilyTag(FamilyKind.MINUS1_MINUS1_2M, k, *pq)
    return FamilyTag(FamilyKind.OTHER)


def family_link(tag: FamilyTag) -> PretzelLink:
    """The standard parameter list for a family tag."""
    if tag.kind is FamilyKind.MINUS_2L:
        params = (-2 * tag.index, tag.p, tag.q)
    elif tag.kind is FamilyKind.MINUS1_2N:
        params = (-1, 2 * tag.index, tag.p, tag.q)
    elif tag.kind is FamilyKind.MINUS1_MINUS1_2M:
        params = (-1, -1, 2 * tag.index, tag.p, tag.q)
    else:
        raise PretzelError("OTHER has no canonical parameter list")
    return PretzelLink(tuple(-a for a in params) if tag.mirror else params)


# ----------------------------------------------------------------------
# Montesinos descriptions

# the most unit regions ``as_pretzel`` writes out for one tangle; the
# classify pipeline stays within about 21 MB and 0.1 s up to here
_MAX_UNIT_REGIONS = 10_000
# the largest |a| the skein engine and the Wirtinger diagram take: both
# build a value of size |a|.  With Python 3.11, classifying P(-1,4,3,99999)
# takes about 0.3 s and a peak RSS of 71 MB, and P(-1,4,3,1000001) 3 s and 500 MB
_MAX_TWIST = 100_000

@dataclass(frozen=True)
class MontesinosDescription:
    """An ordered list of reduced rational tangles beta_i/alpha_i."""

    tangles: tuple[Fraction, ...]

    def __init__(self, tangles):
        fr = tuple(Fraction(t) for t in tangles)
        if not fr:
            raise PretzelError("need at least one tangle")
        object.__setattr__(self, "tangles", fr)

    def __str__(self) -> str:
        return ";".join(f"{t.numerator}/{t.denominator}" for t in self.tangles)

    def as_pretzel(self) -> PretzelLink | None:
        """The pretzel form when every tangle is +-1 mod its denominator.

        A tangle b/a with b = k*a + s and s = +-1 is the region s*a plus |k|
        unit regions of the sign of k, which flypes move freely.  Of the
        splits, the one with the least |k| is taken, so a tangle that is
        literally +-1/a stays the single region +-a, and the integer tangle
        0 becomes the cancelling pair (1, -1).  None when some tangle is
        genuinely rational, and for a single tangle: M(b/a) is the
        two-bridge knot b(b, a) (1/3 is the unknot), while a one-region
        pretzel closes with side arcs (P(3) is the trefoil).  Raises
        PretzelError when some |k| exceeds ``_MAX_UNIT_REGIONS``.
        """
        if len(self.tangles) == 1:
            return None
        params = []
        for t in self.tangles:
            a, b = t.denominator, t.numerator
            splits = [((b - s) // a, s) for s in (1, -1) if (b - s) % a == 0]
            if not splits:
                return None
            k, s = min(splits, key=lambda split: abs(split[0]))
            if abs(k) > _MAX_UNIT_REGIONS:
                raise PretzelError(
                    f"tangle {t} needs {abs(k)} unit twist regions; at most {_MAX_UNIT_REGIONS} are supported"
                )
            params.append(s * a)
            params.extend([1 if k > 0 else -1] * abs(k))
        return PretzelLink(params)


def parse_montesinos(text: str) -> MontesinosDescription:
    """Parse a semicolon-separated fraction list such as "1/3;-1/2;2/5"."""
    tangles = []
    for tok in text.strip().split(";"):
        tok = tok.strip()
        try:
            if "/" in tok:
                num, den = tok.split("/")
                tangles.append(Fraction(int(num), int(den)))
            else:
                tangles.append(Fraction(int(tok)))
        except (ValueError, ZeroDivisionError) as exc:
            raise PretzelError(f"bad tangle fraction: {tok!r}") from exc
    return MontesinosDescription(tangles)
