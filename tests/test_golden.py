"""Byte-for-byte golden reports for a fixed list of classify inputs.

Each file in ``tests/golden/`` holds ``classify(text).to_json(indent=2)``
for one input.  After a change that is meant to alter reports, rewrite the
files with ``PYTHONPATH=src python tests/test_golden.py`` and review the
diff.
"""

from pathlib import Path

import pytest

from pretzelsurgery.classify import classify

GOLDEN = Path(__file__).resolve().parent / "golden"

INPUTS = (
    # P(-2,3,q) and their mirrors
    *(f"-2,3,{q}" for q in range(3, 42, 2)),
    *(f"2,-3,-{q}" for q in range(3, 42, 2)),
    # one member of each family, and a knot in none
    "-4,5,7", "-1,4,3,5", "-1,-2,3,5", "-1,-1,4,3,3", "3,5,7",
    # torus knots, the unknot and a connected sum
    "3", "-5", "1,-2", "1,1,1", "-2,3,3,1,-1", "3,0,5",
    # Montesinos input: +-1 mod alpha (read as pretzels) and rational
    "1/3;1/3;-1/2", "1/2;4/3;-13/7", "-1/2;1/3;1/5", "2/3;1/3;-1/2",
    "2/5;1/3;1/2", "2/5;1/3;2/7",
    # one-tangle input
    "1/3", "3/7", "5/7", "0;1/3",
    # two-bridge knots with two proper tangles
    "3,4", "-9,-8", "3,-3,1", "3/7;1/2", "1/3;1/4",
)


def golden_name(text: str) -> str:
    """P_m2_3_7.json for "-2,3,7", M_3o7_1o2.json for "3/7;1/2"."""
    kind, sep = ("M", ";") if "/" in text or ";" in text else ("P", ",")
    tokens = (t.replace("-", "m").replace("/", "o") for t in text.split(sep))
    return f"{kind}_{'_'.join(tokens)}.json"


def render(text: str) -> bytes:
    return (classify(text).to_json(indent=2) + "\n").encode()


@pytest.mark.parametrize("text", INPUTS)
def test_report_matches_golden(text):
    assert render(text) == (GOLDEN / golden_name(text)).read_bytes()


def test_golden_files_are_the_inputs():
    names = sorted(map(golden_name, INPUTS))
    assert len(set(names)) == len(INPUTS)
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == names


if __name__ == "__main__":
    for path in GOLDEN.glob("*.json"):
        path.unlink()
    for text in INPUTS:
        (GOLDEN / golden_name(text)).write_bytes(render(text))
