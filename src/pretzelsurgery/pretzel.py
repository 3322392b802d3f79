"""Pretzel links P(a_1, ..., a_n) and Montesinos tangle descriptions.

The pretzel diagram: vertical twist regions stand side by side, region i
joined to region i+1 (cyclically) by parallel arcs at top and bottom.
Region i carries |a_i| crossings; an odd a_i swaps its two strands, an even
a_i preserves them.

Every input takes one reading: ``parse`` makes text a tangle list if it
holds "/" or ";", else a pretzel list, and ``read`` forms the tangles
beta/alpha, D and the family tag once.  A link raises PretzelError("<knot>
is not a knot") from ``read`` and every other entry point but the Fox
oracle.  Nothing traces the strands: the knot test, the parallel regions
and the family tag read parities and a normal form of the tangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import index


class PretzelError(ValueError):
    pass


@dataclass(frozen=True)
class PretzelLink:
    """An ordered tuple of signed twist-region parameters, each read with
    ``operator.index``: anything but an integer raises TypeError."""

    params: tuple[int, ...]

    def __init__(self, params):
        params = tuple(map(index, params))
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
# tangles, the knot test and strand flows

def tangles(knot: PretzelLink | MontesinosDescription) -> tuple[tuple[int, int], ...]:
    """The knot as its tangles (beta, alpha).  A pretzel region a is 1/a (a
    zero region 1/0), and the lone region of P(a), which closes with side
    arcs, is the integer tangle a/1."""
    if isinstance(knot, MontesinosDescription):
        return tuple((t.numerator, t.denominator) for t in knot.tangles)
    if knot.n_regions == 1:
        return ((knot.params[0], 1),)
    return tuple([(-1, -a) if a < 0 else (1, a) for a in knot.params])


def determinant(pairs) -> int:
    """D = sum_i beta_i prod_{j != i} alpha_j for tangles (beta_i, alpha_i):
    the numerator of their unreduced sum, which is +-det of the closure."""
    num, den = 0, 1
    for beta, alpha in pairs:
        num, den = num * alpha + beta * den, den * alpha
    return num


def is_knot(knot: PretzelLink | MontesinosDescription) -> bool:
    """Whether the closure has one component: D is odd exactly for knots
    (Lickorish, ch. 6).  So P(a) is a knot iff a is odd, and P(a_1..a_n),
    n >= 2, iff one a_i is even (zero is even), or none is and n is odd."""
    return determinant(tangles(knot)) % 2 == 1


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

    The knot test counts the same parities, by the rule ``is_knot``
    states: a lone region must be odd; of two or more, exactly one must be
    even, or none and n odd.
    """
    params = link.params
    n = len(params)
    odd = [a & 1 for a in params]
    evens = n - sum(odd)
    if evens > 1 or (evens == 1 and n == 1) or (evens == 0 and n % 2 == 0):
        raise PretzelError(f"{link} is not a knot")
    if n == 1:
        return (True,)
    if not evens:
        return (False,) * n
    return (True,) * n if n % 2 == 0 else tuple(map(bool, odd))


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
        text = f"{self.kind.value}({_INDEX_LETTERS[self.kind]}={self.index},p={self.p},q={self.q})"
        return f"MIRROR({text})" if self.mirror else text


# the letter of each family's index in its text form
_INDEX_LETTERS = {FamilyKind.MINUS_2L: "l", FamilyKind.MINUS1_2N: "n", FamilyKind.MINUS1_MINUS1_2M: "m"}


@dataclass(frozen=True)
class Reading:
    """A knot read once: its tangles (beta, alpha), their ``determinant`` D,
    the proper tangles (alpha >= 2) in order and the family tag."""

    knot: PretzelLink | MontesinosDescription
    tangles: tuple[tuple[int, int], ...]
    det: int
    proper: tuple[tuple[int, int], ...]
    tag: FamilyTag | None  # None for a genuinely rational tangle or a lone tangle

    @property
    def two_bridge(self) -> bool:
        return len(self.proper) <= 2


def read(knot: PretzelLink | MontesinosDescription) -> Reading:
    """Read a parsed input once as its tangles, D and family tag; raises
    PretzelError for a link, whose D is even (``is_knot``).

    The tag places the knot in the candidate surgery families.  It is None
    when some tangle is not +-1 mod its denominator, or for a one-tangle
    description (a two-bridge knot).  The lookup runs on a normal form that
    depends only on the knot's tangles mod 1 and the sum e of their integer
    parts (Boileau-Zieschang).  A proper tangle beta/alpha = k + s/alpha,
    with s = +-1 and s = +1 at alpha = 2, is the region s*alpha and adds k
    to e; an integer tangle, such as a +-1 region, adds to e.  What remains
    is the multiset of essential regions, so order and integer tangles never
    matter.  A member has the regions (2k, p, q) with odd 3 <= p <= q and

    * e = 0 and 2k <= -4: MINUS_2L with l = -k;
    * e = -1: MINUS1_2N with n = k (so P(-2,p,q) = P(-1,2,p,q) has n = 1);
    * e = -2 and 2k = 2: MINUS1_2N with n = -1, as P(-1,-1,2,p,q) =
      P(-1,-2,p,q);
    * e = -2 and 2k >= 4: MINUS1_MINUS1_2M with m = k.

    A knot whose mirror image (every tangle negated) is a member gets the
    member's tag with ``mirror`` set; no knot is both.  The mirror image's
    normal form comes from the knot's: k + s/alpha mirrors to -k - s/alpha,
    so a region r with |r| >= 3 becomes -r, the regions 0 and 2 stay (the
    tangle 1/2 = 0 + 1/2 mirrors to -1 + 1/2) and e becomes -e minus the
    number of 2 regions.
    """
    pairs = tangles(knot)
    det = determinant(pairs)
    if det % 2 == 0:
        raise PretzelError(f"{knot} is not a knot")
    lone = isinstance(knot, MontesinosDescription) and len(pairs) == 1  # two-bridge: no family
    form = None if lone else _normal_form(pairs)
    tag = None
    if form is not None:
        e, regions = form
        tag = _family_tag(e, regions, False)
        if tag.kind is FamilyKind.OTHER:
            mirror = _family_tag(-e - regions.count(2), [r if -3 < r < 3 else -r for r in regions], True)
            if mirror.kind is not FamilyKind.OTHER:
                tag = mirror
    return Reading(knot, pairs, det, tuple(t for t in pairs if t[1] >= 2), tag)


def _normal_form(pairs) -> tuple[int, list[int]] | None:
    """The sum e of the integer parts and the essential regions of a tangle
    list (see ``read``), or None when some tangle is not +-1 mod its
    denominator."""
    e, regions = 0, []
    for beta, alpha in pairs:
        # the zero region 1/0 reads as the region 0, which no family has
        k, r = divmod(beta, alpha) if alpha else (0, 1)
        if alpha == 1:
            e += beta
        elif r in (1, alpha - 1):
            # beta/alpha is k + 1/alpha, or (k + 1) - 1/alpha
            regions.append(alpha if r == 1 else -alpha)
            e += k if r == 1 else k + 1
        else:
            return None
    return e, regions


def _family_tag(e: int, regions: list[int], mirror: bool) -> FamilyTag:
    """The family of a normal form (e, regions), its tag marked ``mirror``."""
    evens = [a for a in regions if a % 2 == 0]
    pq = sorted(a for a in regions if a % 2 == 1)  # odd 3 <= p <= q
    if len(evens) != 1 or evens[0] == 0 or len(pq) != 2 or pq[0] < 3:
        return FamilyTag(FamilyKind.OTHER)
    k = evens[0] // 2
    if e == 0 and k <= -2:
        return FamilyTag(FamilyKind.MINUS_2L, -k, *pq, mirror)
    if e == -1:
        return FamilyTag(FamilyKind.MINUS1_2N, k, *pq, mirror)
    if e == -2 and k == 1:
        return FamilyTag(FamilyKind.MINUS1_2N, -1, *pq, mirror)
    if e == -2 and k >= 2:
        return FamilyTag(FamilyKind.MINUS1_MINUS1_2M, k, *pq, mirror)
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

# the largest |a| the paths that lay out all of Delta take: the skein engine
# (`alexander`, `obstruct`) and the Wirtinger diagram (Fox).  The state sum
# is size-free; only its final quotient has about 2|a| slots.  `classify`
# reads a window of Delta and takes any |a|.
_MAX_TWIST = 100_000

@dataclass(frozen=True)
class MontesinosDescription:
    """An ordered list of reduced rational tangles beta_i/alpha_i, each an
    int or a Fraction."""

    tangles: tuple[Fraction, ...]

    def __init__(self, tangles):
        fr = tuple(tangles)
        for t in fr:
            if not isinstance(t, (int, Fraction)):
                raise PretzelError(f"a tangle must be an int or a Fraction, not {t!r}")
        fr = tuple(map(Fraction, fr))
        if not fr:
            raise PretzelError("need at least one tangle")
        object.__setattr__(self, "tangles", fr)

    def __str__(self) -> str:
        return ";".join(f"{t.numerator}/{t.denominator}" for t in self.tangles)


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


def parse(text: str) -> PretzelLink | MontesinosDescription:
    """Parse an input: a tangle list (``parse_montesinos``) when the text
    holds a "/" or ";", otherwise a pretzel list (``parse_pretzel``)."""
    text = text.strip()
    if "/" in text or ";" in text:
        return parse_montesinos(text)
    return parse_pretzel(text)
