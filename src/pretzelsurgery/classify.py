"""Cyclic/finite surgery classification pipeline for pretzel knots.

The pipeline runs four stages in order, short-circuiting at the first
decisive one, and emits an auditable report:

1. hyperbolicity: the non-hyperbolic Montesinos knots are exactly the
   (2, p)-torus two-bridge knots and the (-2,3,3)/(-2,3,5) pretzels
   (which are the (3,4)- and (3,5)-torus knots); torus knot surgeries
   are classified by Moser, so these leave the pipeline immediately;
2. lamination gate: outside three explicit pretzel families and their
   mirror images (which have the negated slopes), every Montesinos knot
   carries a persistent essential lamination (Delman), ruling out cyclic
   and finite surgeries;
3. seminorm gate: Culler-Shalen seminorm bounds (Mattman) kill the
   (-2l, p, q) family for l > 1 and reduce (-2, 3, q) to a static slope
   table at q = 7, 9;
4. Alexander gate: the remaining families fail the L-space polynomial
   conditions - a violating coefficient for the (-1, 2n, p, q) family,
   or a non-fibered certificate for the (-1,-1,2m,p,q) family.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from enum import Enum
from fractions import Fraction

from .alexander import alexander_skein
from .obstruction import gabai_not_fibered, monic_check
from .pretzel import (
    FamilyKind,
    FamilyTag,
    MontesinosDescription,
    PretzelLink,
    family_link,
    family_membership,
    is_knot,
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
    NOT_DETERMINED = "not-determined"


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
        return asdict(self)

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

def _two_bridge_status(fraction: Fraction) -> HyperbolicityResult:
    """Status of the two-bridge knot b(p, q) with p/q the tangle-sum value."""
    p = abs(fraction.numerator)
    if p <= 1:
        return HyperbolicityResult(Hyperbolicity.NON_HYPERBOLIC, "trivial knot")
    if p % 2 == 0:
        raise ClassifyError("two-bridge closure has two components")
    q = abs(fraction.denominator) % p
    if q in (1 % p, (-1) % p):
        return HyperbolicityResult(
            Hyperbolicity.NON_HYPERBOLIC, f"(2,{p})-torus knot"
        )
    return HyperbolicityResult(Hyperbolicity.HYPERBOLIC, None)


def _pretzel_hyperbolicity(link: PretzelLink) -> HyperbolicityResult:
    if not is_knot(link):
        raise ClassifyError(f"{link} is not a knot")
    params = link.params
    if len(params) == 1:
        a = abs(params[0])
        if a <= 1:
            return HyperbolicityResult(Hyperbolicity.NON_HYPERBOLIC, "trivial knot")
        return HyperbolicityResult(
            Hyperbolicity.NON_HYPERBOLIC, f"(2,{a})-torus knot"
        )
    if any(a == 0 for a in params):
        # a zero region cuts the necklace into a connected sum of
        # (2, a_j)-torus factors
        factors = [a for a in params if abs(a) >= 2]
        if not factors:
            return HyperbolicityResult(Hyperbolicity.NON_HYPERBOLIC, "trivial knot")
        if len(factors) == 1:
            return HyperbolicityResult(
                Hyperbolicity.NON_HYPERBOLIC, f"(2,{abs(factors[0])})-torus knot"
            )
        return HyperbolicityResult(
            Hyperbolicity.NON_HYPERBOLIC, "composite knot (connected sum)"
        )
    essential = [a for a in params if abs(a) >= 2]
    if not essential:
        # an all-(+-1) necklace is a closed two-string braid
        m = abs(sum(params))
        if m <= 1:
            return HyperbolicityResult(Hyperbolicity.NON_HYPERBOLIC, "trivial knot")
        return HyperbolicityResult(
            Hyperbolicity.NON_HYPERBOLIC, f"(2,{m})-torus knot"
        )
    if len(essential) <= 2:
        # (+-1)-regions are integer tangles, so the closure is two-bridge
        return _two_bridge_status(sum(Fraction(1, a) for a in params))
    tag = family_membership(link)
    if tag.kind is FamilyKind.MINUS1_2N and tag.index == 1 and tag.p == 3:
        if tag.q == 3:
            return HyperbolicityResult(
                Hyperbolicity.NON_HYPERBOLIC, "(3,4)-torus knot"
            )
        if tag.q == 5:
            return HyperbolicityResult(
                Hyperbolicity.NON_HYPERBOLIC, "(3,5)-torus knot"
            )
    return HyperbolicityResult(Hyperbolicity.HYPERBOLIC, None)


def hyperbolicity_status(
    input: PretzelLink | MontesinosDescription,
) -> HyperbolicityResult:
    """Tri-state hyperbolicity decision for a pretzel or Montesinos knot.

    Montesinos knots admit a complete list of non-hyperbolic cases: the
    (2,p)-torus two-bridge knots and the (-2,3,3)/(-2,3,5) pretzels.
    Two-bridge non-torus knots are hyperbolic (Menasco).  Rejects
    multi-component input.
    """
    if isinstance(input, PretzelLink):
        return _pretzel_hyperbolicity(input)
    pretzel = input.as_pretzel()
    if pretzel is not None:
        return _pretzel_hyperbolicity(pretzel)
    integer_part = sum(t for t in input.tangles if t.denominator == 1)
    proper = [t for t in input.tangles if t.denominator > 1]
    if len(proper) <= 2:
        total = integer_part + sum(proper, Fraction(0))
        return _two_bridge_status(total)
    # a length >= 3 Montesinos knot with genuinely rational tangles cannot
    # literally match the pretzel-form exceptional list; whether a hidden
    # normalization does is not decided here
    return HyperbolicityResult(Hyperbolicity.NOT_DETERMINED, None)


# ----------------------------------------------------------------------
# stage 2: lamination gate

def delman_gate(link: PretzelLink) -> tuple[StageResult, FamilyTag | None]:
    """Family membership filter: outside the three candidate families a
    persistent essential lamination excludes cyclic and finite surgeries."""
    tag = family_membership(link)
    if tag.kind is FamilyKind.OTHER:
        return (
            StageResult(
                stage="delman",
                verdict="excluded",
                citation=CITE_DELMAN,
                evidence={"family": "OTHER"},
            ),
            None,
        )
    return (
        StageResult(
            stage="delman",
            verdict="pass",
            citation=CITE_DELMAN,
            evidence={"family": str(tag)},
        ),
        tag,
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


def _montesinos_rational_report(
    desc: MontesinosDescription, hyp: HyperbolicityResult
) -> tuple[list[StageResult], FinalVerdict]:
    """Family logic for genuinely rational (non-pretzel) tangle lists."""
    proper = [t for t in desc.tangles if t.denominator > 1]
    if len(proper) <= 2:
        # a hyperbolic two-bridge non-torus knot carries Delman's laminations
        stage = StageResult(
            stage="delman",
            verdict="excluded",
            citation=CITE_DELMAN,
            evidence={"family": "OTHER", "form": "two-bridge"},
        )
        return [stage], FinalVerdict([NO_CYCLIC_OR_FINITE])
    if all(t.numerator % t.denominator in (1, t.denominator - 1) for t in proper):
        # each tangle is +-1/alpha up to integer twists: possibly equivalent
        # to a candidate pretzel family, and no normalizer is implemented
        stage = StageResult(
            stage="delman",
            verdict="out-of-scope",
            citation=CITE_DELMAN,
            evidence={
                "reason": "tangles reduce to +-1/alpha mod 1; pretzel "
                "normalization not implemented"
            },
        )
        return [stage], FinalVerdict([OUT_OF_SCOPE])
    stage = StageResult(
        stage="delman",
        verdict="excluded",
        citation=CITE_DELMAN,
        evidence={"family": "OTHER", "form": "rational tangles"},
    )
    return [stage], FinalVerdict([NO_CYCLIC_OR_FINITE])


def _montesinos_is_knot(desc: MontesinosDescription) -> bool:
    """Determinant-parity knot test: the double branched cover order
    D = |sum_i beta_i prod_{j != i} alpha_j| is odd exactly for knots."""
    tangles = desc.tangles
    total = 0
    for i, t in enumerate(tangles):
        prod = 1
        for j, u in enumerate(tangles):
            if j != i:
                prod *= u.denominator
        total += t.numerator * prod
    return total % 2 != 0


def classify(
    input: str | PretzelLink | MontesinosDescription,
) -> ClassificationReport:
    """Full cyclic/finite surgery classification with an auditable report."""
    obj = _parse_input(input)
    if isinstance(obj, MontesinosDescription):
        pretzel = obj.as_pretzel()
        if pretzel is not None:
            obj = pretzel

    stages: list[StageResult] = []
    if isinstance(obj, PretzelLink):
        input_kind, input_text = "pretzel", str(obj)
        hyp = _pretzel_hyperbolicity(obj)
    else:
        input_kind, input_text = "montesinos", str(obj)
        if not _montesinos_is_knot(obj):
            raise ClassifyError(f"{obj} is not a knot")
        hyp = hyperbolicity_status(obj)

    hyp_evidence = {"status": hyp.status.value}
    if hyp.reason:
        hyp_evidence["reason"] = hyp.reason
    if hyp.status is Hyperbolicity.NON_HYPERBOLIC:
        composite = "composite" in (hyp.reason or "")
        stages.append(
            StageResult(
                stage="hyperbolicity",
                verdict="out-of-scope" if composite else "non-hyperbolic",
                citation=CITE_REMARK if not composite else CITE_REMARK,
                evidence=hyp_evidence,
            )
        )
        final = FinalVerdict([OUT_OF_SCOPE if composite else NON_HYPERBOLIC_SEE_MOSER])
        if not composite:
            stages[-1].citation = f"{CITE_REMARK}; {CITE_MOSER}"
        return ClassificationReport(
            SCHEMA_VERSION, input_text, input_kind,
            hyp.status.value, hyp.reason, stages, final,
        )
    two_bridge = (
        isinstance(obj, PretzelLink)
        and sum(1 for a in obj.params if abs(a) >= 2) <= 2
    ) or (
        isinstance(obj, MontesinosDescription)
        and sum(1 for t in obj.tangles if t.denominator > 1) <= 2
    )
    stages.append(
        StageResult(
            stage="hyperbolicity",
            verdict="pass",
            citation=CITE_MENASCO if two_bridge else CITE_REMARK,
            evidence=hyp_evidence,
        )
    )

    if isinstance(obj, MontesinosDescription):
        more, final = _montesinos_rational_report(obj, hyp)
        stages.extend(more)
        return ClassificationReport(
            SCHEMA_VERSION, input_text, input_kind,
            hyp.status.value, hyp.reason, stages, final,
        )

    stage, tag = delman_gate(obj)
    stages.append(stage)
    if tag is None:
        return ClassificationReport(
            SCHEMA_VERSION, input_text, input_kind,
            hyp.status.value, hyp.reason, stages, _final_from_stage(stage),
        )

    stage = mattman_gate(tag)
    stages.append(stage)
    if stage.verdict != "pass":
        return ClassificationReport(
            SCHEMA_VERSION, input_text, input_kind,
            hyp.status.value, hyp.reason, stages, _final_from_stage(stage),
        )

    stage = alexander_gate(tag)
    stages.append(stage)
    return ClassificationReport(
        SCHEMA_VERSION, input_text, input_kind,
        hyp.status.value, hyp.reason, stages, _final_from_stage(stage),
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
