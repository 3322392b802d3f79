"""Byte-for-byte golden reports for fixed lists of inputs.

Each ``*.json`` file in ``tests/golden/`` holds the report
``classify(text)`` for one input, as ``json.dumps`` writes its
``dataclasses.asdict`` with ``indent=2`` and sorted keys (and pins the
one-line ``to_json()`` through ``json.dumps``), and
``tests/golden/obstruct.jsonl`` holds the standard output of
``obstruct <params> --json`` for each of ``OBSTRUCT_INPUTS`` in turn, and
``tests/golden/alexander_trace.jsonl`` that of ``alexander <params> --trace``
then ``alexander <params> --trace --json`` for each of ``TRACE_INPUTS``.
After a change that is meant to alter reports, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pretzelsurgery.classify import classify
from pretzelsurgery.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

INPUTS = (
    # P(-2,3,q) and their mirrors
    *(f"-2,3,{q}" for q in range(3, 42, 2)),
    *(f"2,-3,-{q}" for q in range(3, 42, 2)),
    # one member of each family, and a knot in none
    "-4,5,7", "-1,4,3,5", "-1,-2,3,5", "-1,-1,4,3,3", "3,5,7",
    # torus knots, the unknot and a connected sum
    "3", "-5", "1,-2", "1,1,1", "-2,3,3,1,-1", "3,0,5",
    # Montesinos input: +-1 mod alpha (with a family tag) and rational
    "1/3;1/3;-1/2", "1/2;4/3;-13/7", "-1/2;1/3;1/5", "2/3;1/3;-1/2",
    "2/5;1/3;1/2", "2/5;1/3;2/7",
    # one-tangle input
    "1/3", "3/7", "5/7", "0;1/3",
    # two-bridge knots with two proper tangles
    "3,4", "-9,-8", "3,-3,1", "3/7;1/2", "1/3;1/4",
)


# one input of each classify-mix kind: a knot in no family, (-2l,p,q),
# (-2,3,q), a torus knot, a twist knot, tangle lists that are rational, +-1
# mod alpha and pretzels, (-1,2n,p,q), (-2,p,q) and (-1,-1,2m,p,q)
MIX_INPUTS = (
    "3,5,7,9,11", "-6,5,7", "-2,3,9", "-5", "6,1,1", "2/5;3/7;-2/9",
    "4/5;1/7;6/7", "1/5;1/7;-1/9", "-1,-4,5,7", "-2,5,7", "-1,-1,4,3,5",
)

# the two knots with exceptional surgeries, a torus knot, a reduced diagram of
# a torus knot, a Montesinos knot outside the form, a (-1,-1,2m,p,q) knot with
# a non-monic Delta, and a two-bridge knot outside the form
OBSTRUCT_INPUTS = ("-2,3,7", "-2,3,9", "5", "3,0", "-1,-4,5,21", "-1,-1,4,3,3", "2,1,1")
OBSTRUCT_GOLDEN = GOLDEN / "obstruct.jsonl"

# the per-region program of a knot with exceptional surgeries, a smoothed
# link with unit regions, one with a kept unit region, a (-1,2n,p,q) knot
# and a knot in no family
TRACE_INPUTS = ("-2,3,7", "-1,-1,4,3,3", "1,-1,2,5,-3", "-1,6,3,5", "3,5,7")
TRACE_GOLDEN = GOLDEN / "alexander_trace.jsonl"


def golden_name(text: str) -> str:
    """P_m2_3_7.json for "-2,3,7", M_3o7_1o2.json for "3/7;1/2"."""
    kind, sep = ("M", ";") if "/" in text or ";" in text else ("P", ",")
    tokens = (t.replace("-", "m").replace("/", "o") for t in text.split(sep))
    return f"{kind}_{'_'.join(tokens)}.json"


def render(text: str) -> bytes:
    report = dataclasses.asdict(classify(text))
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def render_cli(commands: list[list[str]]) -> bytes:
    """The standard output of the commands run in turn, each exiting 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        codes = [run(argv) for argv in commands]
    if codes != [0] * len(commands):
        raise RuntimeError(f"exit codes {codes} for {commands}")
    return out.getvalue().encode()


def render_obstruct() -> bytes:
    return render_cli([["obstruct", params, "--json"] for params in OBSTRUCT_INPUTS])


def render_trace() -> bytes:
    return render_cli([
        ["alexander", params, "--trace", *json_flag]
        for params in TRACE_INPUTS
        for json_flag in ([], ["--json"])
    ])


@pytest.mark.parametrize("text", INPUTS)
def test_report_matches_golden(text):
    assert render(text) == (GOLDEN / golden_name(text)).read_bytes()


def test_one_line_reports_match_golden():
    # the one-line report is the golden report as json.dumps writes it with
    # sorted keys and its default separators, byte for byte
    for text in INPUTS:
        golden = json.loads((GOLDEN / golden_name(text)).read_bytes())
        assert classify(text).to_json() == json.dumps(golden, sort_keys=True), text


@pytest.mark.parametrize("text", INPUTS + MIX_INPUTS)
def test_one_line_report_is_asdict(text):
    # the encoder writes the dataclasses as they are: the same bytes as
    # json.dumps of their copy as plain dicts and lists
    report = classify(text)
    assert report.to_json() == json.dumps(dataclasses.asdict(report), sort_keys=True)


def test_golden_files_are_the_inputs():
    names = sorted(map(golden_name, INPUTS))
    assert len(set(names)) == len(INPUTS)
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == names


def test_obstruct_matches_golden():
    assert render_obstruct() == OBSTRUCT_GOLDEN.read_bytes()


def test_trace_matches_golden():
    assert render_trace() == TRACE_GOLDEN.read_bytes()


if __name__ == "__main__":
    for path in GOLDEN.glob("*.json"):
        path.unlink()
    for text in INPUTS:
        (GOLDEN / golden_name(text)).write_bytes(render(text))
    OBSTRUCT_GOLDEN.write_bytes(render_obstruct())
    TRACE_GOLDEN.write_bytes(render_trace())
