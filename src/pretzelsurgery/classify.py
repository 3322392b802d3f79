"""Cyclic/finite surgery classification pipeline for Montesinos knots.

Every input takes one path: ``pretzel.parse`` reads text, and
``pretzel.read`` reads a pretzel or Montesinos description once as its
tangles beta/alpha, D = sum_i beta_i prod_{j != i} alpha_j and family tag,
which the hyperbolicity stage and every gate share.  A link, with D even,
raises PretzelError there; the tag reads the essential regions and the sum
e of the integer parts, so an integer part costs the same at any size.

The pipeline runs four stages in order, short-circuiting at the first
decisive one, and emits an auditable report:

1. hyperbolicity: the non-hyperbolic Montesinos knots are exactly the
   (2, p)-torus two-bridge knots and the (-2,3,3)/(-2,3,5) pretzels
   (which are the (3,4)- and (3,5)-torus knots); torus knot surgeries
   are classified by Moser, so these leave the pipeline immediately.
   With at most two proper tangles (alpha >= 2) the knot is the two-bridge
   knot b(p, q) with p = D, a torus knot iff q = +-1 mod p; the
   exceptions' tangles are all +-1 mod alpha, so a knot with a genuinely
   rational tangle and three or more proper tangles is hyperbolic;
2. lamination gate: outside three explicit pretzel families and their
   mirror images (which have the negated slopes), every Montesinos knot
   carries a persistent essential lamination (Delman), ruling out cyclic
   and finite surgeries; a knot with a genuinely rational tangle is in no
   family;
3. seminorm gate: Culler-Shalen seminorm bounds (Mattman) kill the
   (-2l, p, q) family for l > 1 and reduce (-2, 3, q) to a static slope
   table at q = 7, 9;
4. Alexander gate: every coefficient of the Alexander polynomial of a
   knot with an L-space surgery, and so with a cyclic or finite one, is
   0 or +-1 (Ozsvath-Szabo); the remaining families each have one
   coefficient of the normalized Delta outside {0, +-1}: [t^0] = 2m - 1
   for (-1,-1,2m,p,q), and [t^1], [t^4] or [t^3] for (-1, 2n, p, q).  The
   gate reads it from ``alexander.low_coefficients``, a window of Delta
   that does not grow with q, so it answers at any q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .alexander import low_coefficients
from .pretzel import (
    FamilyKind,
    FamilyTag,
    MontesinosDescription,
    PretzelLink,
    Reading,
    family_link,
    parse,
    read,
)


class ClassifyError(ValueError):
    """An Alexander gate consistency check that failed: a tag that an
    earlier stage should have decided, or a coefficient in {0, +-1}; a link
    or an input that does not parse raises PretzelError."""


SCHEMA_VERSION = 2

# verdict names
NO_CYCLIC_OR_FINITE = "NO_CYCLIC_OR_FINITE"
CYCLIC_SLOPES = "CYCLIC_SLOPES"
FINITE_SLOPES = "FINITE_SLOPES"
NON_HYPERBOLIC_SEE_MOSER = "NON_HYPERBOLIC_SEE_MOSER"
OUT_OF_SCOPE = "OUT_OF_SCOPE"

CITE_MOSER = "Moser: surgeries on torus knots are classified"
CITE_MENASCO = "Menasco: non-torus alternating (two-bridge) knots are hyperbolic"
CITE_REMARK = (
    "non-hyperbolic Montesinos knots: (2,p)-torus two-bridge knots and the "
    "(-2,3,3)/(-2,3,5) pretzels only"
)
CITE_DELMAN = (
    "Delman: persistent essential laminations exclude cyclic and finite "
    "surgeries outside the candidate pretzel families"
)
CITE_MATTMAN = (
    "Mattman: Culler-Shalen seminorms on pretzel knots; only (-2,3,7) and "
    "(-2,3,9) admit cyclic or finite surgeries among (-2,3,q)"
)
CITE_ALEXANDER = (
    "Ozsvath-Szabo L-space coefficient condition via the Alexander polynomial"
)

# static slope table for the (-2,3,q) knots with cyclic or finite surgeries
MATTMAN_TABLE: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    7: ((18, 19), (17,)),  # (cyclic slopes, additional finite slopes)
    9: ((), (22, 23)),
}


def _report_fields(obj) -> dict:
    """The fields of a report's own dataclasses, as they are; anything else
    gets json's own TypeError."""
    if type(obj) in (ClassificationReport, StageResult, FinalVerdict):
        return obj.__dict__
    return json.JSONEncoder.default(_ENCODER, obj)


# the encoder of every report: ``json.dumps``'s output with sorted keys,
# built once, which writes the dataclasses' fields without a copy; a report
# is a tree, so no cycle check is needed
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False, default=_report_fields)


@dataclass
class StageResult:
    """One pipeline stage: a verdict ('pass', 'excluded', 'slopes',
    'non-hyperbolic', 'out-of-scope'), its citation, and machine-checkable
    evidence."""

    stage: str
    verdict: str
    citation: str
    evidence: dict = field(default_factory=dict)


@dataclass
class FinalVerdict:
    verdicts: list[str]
    cyclic_slopes: list[int] = field(default_factory=list)
    finite_slopes: list[int] = field(default_factory=list)


@dataclass
class ClassificationReport:
    schema_version: int
    input_text: str
    input_kind: str  # "pretzel" or "montesinos"
    hyperbolic: str  # "hyperbolic" or "non-hyperbolic"
    hyperbolic_reason: str | None
    stages: list[StageResult]
    final: FinalVerdict

    def to_json(self) -> str:
        """The report on one line, as ``json.dumps`` writes
        ``dataclasses.asdict(self)`` with sorted keys."""
        return _ENCODER.encode(self)


# ----------------------------------------------------------------------
# stage 1: hyperbolicity

# the (-2,3,3)/(-2,3,5) pretzels and their mirror images are torus knots:
# the q of (-2,3,q) -> the reason
_TORUS_REASONS = {3: "(3,4)-torus knot", 5: "(3,5)-torus knot"}


def _minus2_3_q(tag: FamilyTag) -> bool:
    """Whether the tag is P(-2,3,q) = P(-1,2,3,q) or its mirror image, read
    from its fields: a hash of the tag would run the dataclass's and the
    Enum's Python-level hashes."""
    return tag.kind is FamilyKind.MINUS1_2N and tag.index == 1 and tag.p == 3


def _two_bridge_knot(reading: Reading) -> str | None:
    """The reason a closure of at most two proper tangles plus integer
    tangles is not hyperbolic, or None when it is hyperbolic (Menasco).

    The integer tangles fold into the first proper tangle, and a missing
    tangle is 0/1.  The closure of b1/a1 + b2/a2 is the two-bridge knot
    b(p, q) with p = |b1 a2 + a1 b2| = |D|, the reading's D, and
    q = b1' a2 + a1' b2, where b1 a1' - b1' a1 = 1.  It is trivial iff
    p = 1 and the (2, p)-torus knot iff q = +-1 mod p.
    """
    (b1, a1), (b2, a2) = (reading.proper + ((0, 1), (0, 1)))[:2]
    b1 += a1 * sum(beta for beta, alpha in reading.tangles if alpha == 1)
    a1_dual = pow(b1, -1, a1)
    p, q = abs(reading.det), (b1 * a1_dual - 1) // a1 * a2 + a1_dual * b2
    if p == 1:
        return "trivial knot"
    return f"(2,{p})-torus knot" if q % p in (1, p - 1) else None


def _hyperbolicity_stage(reading: Reading) -> StageResult:
    """The non-hyperbolic Montesinos knots are the (2, p)-torus two-bridge
    knots and the (-2,3,3)/(-2,3,5) pretzels up to mirror image, whose
    tangles are all +-1 mod alpha; a pretzel with a zero region is a
    connected sum, out of scope with two or more factors.  A two-bridge
    non-torus knot is hyperbolic (Menasco)."""
    factors = [alpha for _, alpha in reading.proper]
    verdict, citation = "non-hyperbolic", f"{CITE_REMARK}; {CITE_MOSER}"
    if any(alpha == 0 for _, alpha in reading.tangles):
        # a zero region cuts the necklace into a connected sum of
        # (2, a_j)-torus factors
        if len(factors) >= 2:
            verdict, citation = "out-of-scope", CITE_REMARK
            reason = "composite knot (connected sum)"
        else:
            reason = f"(2,{factors[0]})-torus knot" if factors else "trivial knot"
    elif reading.two_bridge:
        reason = _two_bridge_knot(reading)
    else:
        tag = reading.tag
        reason = _TORUS_REASONS.get(tag.q) if tag is not None and _minus2_3_q(tag) else None
    if reason is None:
        citation = CITE_MENASCO if reading.two_bridge else CITE_REMARK
        return StageResult("hyperbolicity", "pass", citation, {"status": "hyperbolic"})
    evidence = {"status": "non-hyperbolic", "reason": reason}
    return StageResult("hyperbolicity", verdict, citation, evidence)


# ----------------------------------------------------------------------
# stage 2: lamination gate

def delman_gate(tag: FamilyTag) -> StageResult:
    """Family membership filter: outside the three candidate families a
    persistent essential lamination excludes cyclic and finite surgeries."""
    return StageResult(
        stage="delman",
        verdict="excluded" if tag.kind is FamilyKind.OTHER else "pass",
        citation=CITE_DELMAN,
        evidence={"family": str(tag)},
    )


# ----------------------------------------------------------------------
# stage 3: seminorm gate

def mattman_gate(tag: FamilyTag) -> StageResult:
    """Static seminorm results: (-2l,p,q) with l > 1 has no cyclic or
    finite surgery; among (-2,3,q) only q = 7, 9 do, with known slopes.
    The mirror image of a knot has the negated slopes."""
    if tag.kind is FamilyKind.MINUS_2L:
        verdict, evidence = "excluded", {"family": str(tag), "reason": "(-2l,p,q) with l > 1"}
    elif _minus2_3_q(tag):
        sign = -1 if tag.mirror else 1
        evidence = {"knot": f"({-2 * sign},{3 * sign},{tag.q * sign})"}
        entry = MATTMAN_TABLE.get(tag.q)
        if entry is None:
            verdict = "excluded"
            evidence["reason"] = "only q = 7, 9 admit cyclic or finite surgeries"
        else:
            cyclic, finite = entry
            verdict = "slopes"
            evidence["cyclic_slopes"] = [sign * r for r in cyclic]
            evidence["finite_slopes"] = [sign * r for r in finite]
    else:
        verdict, evidence = "pass", {"family": str(tag)}
    return StageResult("mattman", verdict, CITE_MATTMAN, evidence)


# ----------------------------------------------------------------------
# stage 4: Alexander gate

# the exponent of the coefficient of the normalized Delta that excludes each
# family left after the seminorm gate, keyed by the family and its index
# clamped to -1..2 (OTHER's index is None, read as 0); the m of
# (-1,-1,2m,p,q) is at least 2
_GATE_EXPONENTS = {
    (FamilyKind.MINUS1_2N, -1): 1,
    (FamilyKind.MINUS1_2N, 1): 4,
    (FamilyKind.MINUS1_2N, 2): 3,
    (FamilyKind.MINUS1_MINUS1_2M, 2): 0,
}


def alexander_gate(tag: FamilyTag) -> StageResult:
    """Polynomial exclusion for the families left after the seminorm gate:
    a knot with a cyclic or finite surgery has an L-space surgery, so every
    coefficient of its Delta is 0 or +-1 (Ozsvath-Szabo).  The gate reads
    one coefficient of the normalized Delta, [t^0] (which is 2m - 1) for
    (-1,-1,2m,p,q), and for (-1,2n,p,q) [t^1] at n < 0, [t^4] at n = 1
    and [t^3] at n >= 2; a mirror image has the same normalized Delta.
    The coefficient comes from ``low_coefficients``, with no twist bound."""
    exp = _GATE_EXPONENTS.get((tag.kind, max(-1, min(tag.index or 0, 2))))
    if exp is None or _minus2_3_q(tag):
        raise ClassifyError(f"tag {tag} should have been consumed by earlier stages")
    link = family_link(tag)
    value = low_coefficients(link, exp + 1)[exp]
    if value in (-1, 0, 1):
        raise ClassifyError(f"{link}: expected a coefficient violating +-1")
    evidence = {"family": str(tag), "coefficient_exponent": exp, "coefficient": value}
    return StageResult("alexander", "excluded", CITE_ALEXANDER, evidence)


# ----------------------------------------------------------------------
# the pipeline

def _final_from_stage(stage: StageResult) -> FinalVerdict:
    if stage.verdict == "non-hyperbolic":
        return FinalVerdict([NON_HYPERBOLIC_SEE_MOSER])
    if stage.verdict == "out-of-scope":
        return FinalVerdict([OUT_OF_SCOPE])
    if stage.verdict == "slopes":
        cyclic = list(stage.evidence.get("cyclic_slopes", []))
        finite = list(stage.evidence.get("finite_slopes", []))
        verdicts = []
        if cyclic:
            verdicts.append(CYCLIC_SLOPES)
        if finite:
            verdicts.append(FINITE_SLOPES)
        return FinalVerdict(verdicts, cyclic, finite)
    return FinalVerdict([NO_CYCLIC_OR_FINITE])


def _rational_delman_stage(two_bridge: bool) -> StageResult:
    """Delman gate for a knot with a genuinely rational tangle: no candidate
    family member has one, and a hyperbolic two-bridge knot carries
    Delman's laminations too."""
    return StageResult(
        stage="delman",
        verdict="excluded",
        citation=CITE_DELMAN,
        evidence={
            "family": "OTHER",
            "form": "two-bridge" if two_bridge else "rational tangles",
        },
    )


def classify(
    input: str | PretzelLink | MontesinosDescription,
) -> ClassificationReport:
    """Full cyclic/finite surgery classification with an auditable report.

    Text goes through ``pretzel.parse``; the hyperbolicity stage and every
    gate share one ``pretzel.read`` of the input, which raises PretzelError
    for a link.  ``input_text`` echoes the parsed input; ``input_kind`` is
    "montesinos" for a tangle list and "pretzel" for a parameter list.
    """
    reading = read(parse(input) if isinstance(input, str) else input)
    stages = [_hyperbolicity_stage(reading)]
    if stages[0].verdict == "pass":
        if reading.tag is None:
            stages.append(_rational_delman_stage(reading.two_bridge))
        else:
            for gate in (delman_gate, mattman_gate, alexander_gate):
                stages.append(gate(reading.tag))
                if stages[-1].verdict != "pass":
                    break
    return ClassificationReport(
        SCHEMA_VERSION, str(reading.knot),
        "montesinos" if isinstance(reading.knot, MontesinosDescription) else "pretzel",
        stages[0].evidence["status"], stages[0].evidence.get("reason"),
        stages, _final_from_stage(stages[-1]),
    )


__all__ = [
    "ClassifyError",
    "SCHEMA_VERSION",
    "NO_CYCLIC_OR_FINITE",
    "CYCLIC_SLOPES",
    "FINITE_SLOPES",
    "NON_HYPERBOLIC_SEE_MOSER",
    "OUT_OF_SCOPE",
    "StageResult",
    "FinalVerdict",
    "ClassificationReport",
    "delman_gate",
    "mattman_gate",
    "alexander_gate",
    "classify",
]
