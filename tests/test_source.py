"""No floating point anywhere in the package: no float or complex
constant, no use of the name ``float`` and no true division ``/``, which
yields a float on integers.  Exact results come from ``//``, ``divmod``
and ``fractions.Fraction``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pretzelsurgery"


def _float_sites(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"constant {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"


def test_no_floating_point():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    sites = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in _float_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert sites == []


def test_guard_sees_floats():
    source = "x = 1.5\ny = float(2)\nz = 3 / 4\nz /= 2\nw = 3 // 4\n"
    assert sorted(line for line, _ in _float_sites(ast.parse(source))) == [1, 2, 3, 4]
