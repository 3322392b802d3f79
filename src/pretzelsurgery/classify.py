"""Cyclic/finite surgery classification pipeline for Montesinos knots.

Every input takes one path.  A Montesinos description whose tangles are
all +-1 mod their denominators is converted to a pretzel (each tangle
becomes one region plus unit regions), so only descriptions with a
genuinely rational tangle stay Montesinos.  Each input is read once as
tangles beta/alpha, which the hyperbolicity stage and every gate share:
the parity of D = sum_i beta_i prod_{j != i} alpha_j is the knot test, and
a pretzel's family tag reads its normal form (essential regions and the
sum of its integer tangles) with no strand trace.

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
4. Alexander gate: the remaining families fail the L-space polynomial
   conditions - a violating coefficient for the (-1, 2n, p, q) family,
   or a non-fibered certificate for the (-1,-1,2m,p,q) family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .alexander import alexander_skein
from .obstruction import gabai_not_fibered, monic_check
from .pretzel import (
    FamilyKind,
    FamilyTag,
    MontesinosDescription,
    PretzelLink,
    family_link,
    knot_family,
    parse_montesinos,
    parse_pretzel,
)


class ClassifyError(ValueError):
    """Invalid input to the classification pipeline."""


SCHEMA_VERSION = 1

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
CITE_FIBERED = (
    "Gabai: fibered pretzel links; Ni: knots with L-space surgeries are fibered"
)

# static slope table for the (-2,3,q) knots with cyclic or finite surgeries
MATTMAN_TABLE: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    7: ((18, 19), (17,)),  # (cyclic slopes, additional finite slopes)
    9: ((), (22, 23)),
}


class Hyperbolicity(Enum):
    HYPERBOLIC = "hyperbolic"
    NON_HYPERBOLIC = "non-hyperbolic"


@dataclass(frozen=True)
class HyperbolicityResult:
    status: Hyperbolicity
    reason: str | None = None


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
    hyperbolic: str  # Hyperbolicity value
    hyperbolic_reason: str | None
    stages: list[StageResult]
    final: FinalVerdict

    def to_dict(self) -> dict:
        """The report as plain JSON types, sharing no mutable value with it."""
        return {
            "schema_version": self.schema_version,
            "input_text": self.input_text,
            "input_kind": self.input_kind,
            "hyperbolic": self.hyperbolic,
            "hyperbolic_reason": self.hyperbolic_reason,
            "stages": [
                {
                    "stage": s.stage,
                    "verdict": s.verdict,
                    "citation": s.citation,
                    # evidence values are scalars or flat lists
                    "evidence": {
                        k: list(v) if isinstance(v, list) else v
                        for k, v in s.evidence.items()
                    },
                }
                for s in self.stages
            ],
            "final": {
                "verdicts": list(self.final.verdicts),
                "cyclic_slopes": list(self.final.cyclic_slopes),
                "finite_slopes": list(self.final.finite_slopes),
            },
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ClassificationReport":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ClassifyError("unsupported report schema version")
        return cls(
            schema_version=data["schema_version"],
            input_text=data["input_text"],
            input_kind=data["input_kind"],
            hyperbolic=data["hyperbolic"],
            hyperbolic_reason=data["hyperbolic_reason"],
            stages=[StageResult(**s) for s in data["stages"]],
            final=FinalVerdict(**data["final"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "ClassificationReport":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# stage 1: hyperbolicity

# the (-2,3,3)/(-2,3,5) pretzels and their mirror images are torus knots
_TORUS_TAGS = {
    FamilyTag(FamilyKind.MINUS1_2N, 1, 3, q, mirror): reason
    for q, reason in ((3, "(3,4)-torus knot"), (5, "(3,5)-torus knot"))
    for mirror in (False, True)
}


@dataclass(frozen=True)
class _Reading:
    """A knot read once as its tangles (beta, alpha)."""

    knot: PretzelLink | MontesinosDescription
    tangles: tuple[tuple[int, int], ...]
    determinant: int  # sum_i beta_i prod_{j != i} alpha_j
    tag: FamilyTag | None  # None for a genuinely rational tangle

    @property
    def two_bridge(self) -> bool:
        return sum(1 for _, alpha in self.tangles if alpha >= 2) <= 2


def _read(obj: PretzelLink | MontesinosDescription) -> _Reading:
    """Read a parsed input, in its pretzel form when it has one, as tangles:
    a region a is 1/a (a zero region 1/0), and the lone region of P(a),
    which closes with side arcs, is the integer tangle a/1.  The one knot
    test: D, the numerator of the unreduced tangle sum, is +-det, which is
    odd exactly for knots.  Raises ClassifyError for a link."""
    if isinstance(obj, MontesinosDescription):
        obj = obj.as_pretzel() or obj
    if isinstance(obj, MontesinosDescription):
        tangles = tuple((t.numerator, t.denominator) for t in obj.tangles)
    elif obj.n_regions == 1:
        tangles = ((obj.params[0], 1),)
    else:
        tangles = tuple((-1 if a < 0 else 1, abs(a)) for a in obj.params)
    num, den = 0, 1
    for beta, alpha in tangles:
        num, den = num * alpha + beta * den, den * alpha
    if num % 2 == 0:
        raise ClassifyError(f"{obj} is not a knot")
    tag = knot_family(obj) if isinstance(obj, PretzelLink) else None
    return _Reading(obj, tangles, num, tag)


def _two_bridge_knot(reading: _Reading) -> str | None:
    """The reason a closure of at most two proper tangles plus integer
    tangles is not hyperbolic, or None when it is hyperbolic (Menasco).

    The integer tangles fold into the first proper tangle, and a missing
    tangle is 0/1.  The closure of b1/a1 + b2/a2 is the two-bridge knot
    b(p, q) with p = b1 a2 + a1 b2 = D and q = b1' a2 + a1' b2, where
    b1 a1' - b1' a1 = 1.  It is trivial iff |p| = 1 and the (2, |p|)-torus
    knot iff q = +-1 mod p.
    """
    tangles = reading.tangles
    (b1, a1), (b2, a2) = ([t for t in tangles if t[1] >= 2] + [(0, 1), (0, 1)])[:2]
    b1 += a1 * sum(beta for beta, alpha in tangles if alpha == 1)
    a1_dual = pow(b1, -1, a1)
    p, q = abs(reading.determinant), (b1 * a1_dual - 1) // a1 * a2 + a1_dual * b2
    if p == 1:
        return "trivial knot"
    return f"(2,{p})-torus knot" if q % p in (1, p - 1) else None


def _hyperbolicity(reading: _Reading) -> HyperbolicityResult:
    """The non-hyperbolic Montesinos knots are the (2, p)-torus two-bridge
    knots and the (-2,3,3)/(-2,3,5) pretzels up to mirror image, whose
    tangles are all +-1 mod alpha; a pretzel with a zero region is a
    connected sum."""
    factors = [alpha for _, alpha in reading.tangles if alpha >= 2]
    if any(alpha == 0 for _, alpha in reading.tangles):
        # a zero region cuts the necklace into a connected sum of
        # (2, a_j)-torus factors
        if len(factors) >= 2:
            reason = "composite knot (connected sum)"
        else:
            reason = f"(2,{factors[0]})-torus knot" if factors else "trivial knot"
    elif reading.two_bridge:
        reason = _two_bridge_knot(reading)
    else:
        reason = _TORUS_TAGS.get(reading.tag)
    if reason is None:
        return HyperbolicityResult(Hyperbolicity.HYPERBOLIC, None)
    return HyperbolicityResult(Hyperbolicity.NON_HYPERBOLIC, reason)


def hyperbolicity_status(
    input: PretzelLink | MontesinosDescription,
) -> HyperbolicityResult:
    """Hyperbolicity decision for a pretzel or Montesinos knot.

    Montesinos knots admit a complete list of non-hyperbolic cases: the
    (2,p)-torus two-bridge knots and the (-2,3,3)/(-2,3,5) pretzels.
    Two-bridge non-torus knots are hyperbolic (Menasco).  Rejects
    multi-component input.
    """
    return _hyperbolicity(_read(input))


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
        return StageResult(
            stage="mattman",
            verdict="excluded",
            citation=CITE_MATTMAN,
            evidence={"family": str(tag), "reason": "(-2l,p,q) with l > 1"},
        )
    if tag.kind is FamilyKind.MINUS1_2N and tag.index == 1 and tag.p == 3:
        sign = -1 if tag.mirror else 1
        knot = f"({-2 * sign},{3 * sign},{tag.q * sign})"
        entry = MATTMAN_TABLE.get(tag.q)
        if entry is not None:
            cyclic, finite = entry
            return StageResult(
                stage="mattman",
                verdict="slopes",
                citation=CITE_MATTMAN,
                evidence={
                    "knot": knot,
                    "cyclic_slopes": [sign * r for r in cyclic],
                    "finite_slopes": [sign * r for r in finite],
                },
            )
        return StageResult(
            stage="mattman",
            verdict="excluded",
            citation=CITE_MATTMAN,
            evidence={
                "knot": knot,
                "reason": "only q = 7, 9 admit cyclic or finite surgeries",
            },
        )
    return StageResult(
        stage="mattman",
        verdict="pass",
        citation=CITE_MATTMAN,
        evidence={"family": str(tag)},
    )


# ----------------------------------------------------------------------
# stage 4: Alexander gate

def _violating_coefficient(tag: FamilyTag) -> tuple[int, int]:
    """(exponent, value) of the always-violating normalized Alexander
    coefficient for the (-1, 2n, p, q) family, computed fresh."""
    delta = alexander_skein(family_link(tag)).normalize()
    if tag.index < 0:
        exp = 1
    elif tag.index == 1:
        exp = 4
    else:
        exp = 3
    return exp, delta.coefficient(exp)


def alexander_gate(tag: FamilyTag) -> StageResult:
    """Polynomial exclusions for the families surviving the seminorm gate:
    a non-(+-1) coefficient for (-1,2n,p,q), or a non-fibered certificate
    (with non-monic corroboration) for (-1,-1,2m,p,q)."""
    if tag.kind is FamilyKind.MINUS1_MINUS1_2M:
        cert = gabai_not_fibered(tag.index, tag.p, tag.q)
        monic = monic_check(alexander_skein(family_link(tag)))
        if monic:
            raise ClassifyError(
                f"{family_link(tag)}: expected non-monic Alexander polynomial"
            )
        return StageResult(
            stage="alexander",
            verdict="excluded",
            citation=CITE_FIBERED,
            evidence={
                "family": str(tag),
                "fibered": False,
                "surface_type": cert.surface_type,
                "band_data": list(cert.band_data),
                "case_path": list(cert.case_path),
                "associated_link": str(cert.associated_link),
                "monic": False,
            },
        )
    if tag.kind is FamilyKind.MINUS1_2N and not (tag.index == 1 and tag.p == 3):
        exp, value = _violating_coefficient(tag)
        if value in (-1, 0, 1):
            raise ClassifyError(
                f"{family_link(tag)}: expected a coefficient violating +-1"
            )
        return StageResult(
            stage="alexander",
            verdict="excluded",
            citation=CITE_ALEXANDER,
            evidence={
                "family": str(tag),
                "coefficient_exponent": exp,
                "coefficient": value,
            },
        )
    raise ClassifyError(f"tag {tag} should have been consumed by earlier stages")


# ----------------------------------------------------------------------
# the pipeline

def _parse_input(
    text_or_obj: str | PretzelLink | MontesinosDescription,
) -> PretzelLink | MontesinosDescription:
    if isinstance(text_or_obj, (PretzelLink, MontesinosDescription)):
        return text_or_obj
    text = text_or_obj.strip()
    if "/" in text or ";" in text:
        return parse_montesinos(text)
    return parse_pretzel(text)


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


def _hyperbolicity_stage(hyp: HyperbolicityResult, two_bridge: bool) -> StageResult:
    evidence = {"status": hyp.status.value}
    if hyp.reason:
        evidence["reason"] = hyp.reason
    if hyp.status is Hyperbolicity.HYPERBOLIC:
        verdict = "pass"
        citation = CITE_MENASCO if two_bridge else CITE_REMARK
    elif "composite" in hyp.reason:
        verdict, citation = "out-of-scope", CITE_REMARK
    else:
        verdict, citation = "non-hyperbolic", f"{CITE_REMARK}; {CITE_MOSER}"
    return StageResult("hyperbolicity", verdict, citation, evidence)


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

    A Montesinos input whose tangles are all +-1 mod their denominators is
    converted to its pretzel form and classified, and reported, as that
    pretzel; the hyperbolicity stage and every gate share one reading of
    the input as tangles.
    """
    reading = _read(_parse_input(input))
    hyp = _hyperbolicity(reading)
    stages = [_hyperbolicity_stage(hyp, reading.two_bridge)]
    if hyp.status is Hyperbolicity.HYPERBOLIC:
        if reading.tag is None:
            stages.append(_rational_delman_stage(reading.two_bridge))
        else:
            for gate in (delman_gate, mattman_gate, alexander_gate):
                stages.append(gate(reading.tag))
                if stages[-1].verdict != "pass":
                    break
    return ClassificationReport(
        SCHEMA_VERSION, str(reading.knot),
        "montesinos" if reading.tag is None else "pretzel",
        hyp.status.value, hyp.reason, stages, _final_from_stage(stages[-1]),
    )


__all__ = [
    "ClassifyError",
    "SCHEMA_VERSION",
    "NO_CYCLIC_OR_FINITE",
    "CYCLIC_SLOPES",
    "FINITE_SLOPES",
    "NON_HYPERBOLIC_SEE_MOSER",
    "OUT_OF_SCOPE",
    "Hyperbolicity",
    "HyperbolicityResult",
    "StageResult",
    "FinalVerdict",
    "ClassificationReport",
    "hyperbolicity_status",
    "delman_gate",
    "mattman_gate",
    "alexander_gate",
    "classify",
]
