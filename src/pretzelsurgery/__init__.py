"""Exact Alexander polynomials of pretzel knots and the classification of
cyclic/finite Dehn surgeries on Montesinos knots."""

from .laurent import LaurentPoly, render
from .pretzel import (
    FamilyKind,
    FamilyTag,
    MontesinosDescription,
    PretzelLink,
    is_knot,
    parse_montesinos,
    parse_pretzel,
)
from .alexander import alexander_skein, alexander_with_trace, low_coefficients
from .oracle import alexander_fox, build_diagram

from .obstruction import (
    ObstructionError,
    OSFormDecomposition,
    monic_check,
    os_form_check,
    pm1_coefficients,
)
from .classify import (
    ClassificationReport,
    ClassifyError,
    FinalVerdict,
    StageResult,
    alexander_gate,
    classify,
    delman_gate,
    mattman_gate,
)

__version__ = "0.1.0"
