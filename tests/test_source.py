"""Source guards.  No floating point anywhere in the package: no float or
complex constant, no use of the name ``float`` and no true division ``/``,
which yields a float on integers.  Exact results come from ``//``,
``divmod`` and ``fractions.Fraction``.  And the Fox oracle and the
reference engines and arbiters share no code with the engines they check:
they take nothing from ``laurent`` but the ``LaurentPoly`` type, so no
arithmetic, and the oracle's arbiter takes no decoder from the oracle,
and the arbiter of its walk takes nothing from it but ``OracleError``.
And every name a module lists in ``__all__`` exists, and the package root
imports from such a module only names it lists.  And every module-level
function, class and assigned name (``__all__`` aside) of the package is
used by the package itself, and every method and property of its classes
by the package or the benchmark, so code and tables that only tests read
live in ``tests/``.  And only ``pretzel.py`` reads an input: no other
module of the package parses text, reads tangles, forms the determinant or
tests a string for the "/" or ";" of a tangle list."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pretzelsurgery"
# the Fox oracle, the reference engines and arbiters of the engines, and
# the arbiters' arithmetic
INDEPENDENT = (
    PACKAGE / "oracle.py",
    ROOT / "tests" / "reference_fox.py",
    ROOT / "tests" / "reference_walk.py",
    ROOT / "tests" / "reference_conway.py",
    ROOT / "tests" / "reference_closed_form.py",
    ROOT / "tests" / "reference_os_form.py",
    ROOT / "tests" / "reference_laurent.py",
)
# what an independent file may take from the modules it shares, where the
# guard above is not enough: the oracle's arbiter reads the presentation,
# and decodes its determinant on its own; the arbiter of the oracle's walk
# walks and labels on its own
ALLOWED_NAMES = {
    "reference_fox.py": {"pretzelsurgery.oracle": {"build_diagram", "OracleError"}},
    "reference_walk.py": {"pretzelsurgery.oracle": {"OracleError"}},
}
# the parts of the one reading of an input, which only pretzel.py calls
READING = {"parse_pretzel", "parse_montesinos", "tangles", "determinant"}
# class members nothing reads: argparse calls _Parser.error
UNUSED_MEMBERS_ALLOWED = {"cli._Parser.error"}


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


def _shared_code(tree: ast.AST, allowed: dict | None = None):
    """Imports of the skein engine, the classifier, the obstructions, the
    package root (which re-exports them), of anything from ``pretzel``
    beyond the diagram template: ``PretzelLink`` and ``_MAX_TWIST``, or of
    anything from ``laurent`` beyond the ``LaurentPoly`` type, such as the
    ``_from_slots`` wrapper the skein engine builds its results with; and of
    any module in ``allowed`` (module -> names) beyond the names it lists.
    The skein's map arithmetic (``alexander._product``, ``_sum`` and the
    division) is shut out with the rest of ``alexander``."""
    allowed = allowed or {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports = [(alias.name, ["*"]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("pretzelsurgery." if node.level else "") + (node.module or "")
            imports = [(module.rstrip("."), [alias.name for alias in node.names])]
        else:
            continue
        for module, names in imports:
            if module == "pretzelsurgery" or module.rpartition(".")[2] in ("alexander", "classify", "obstruction"):
                yield node.lineno, module
            elif module == "pretzelsurgery.pretzel" and not set(names) <= {"PretzelLink", "_MAX_TWIST"}:
                yield node.lineno, f"{module}: {', '.join(names)}"
            elif module == "pretzelsurgery.laurent" and not set(names) <= {"LaurentPoly"}:
                yield node.lineno, f"{module}: {', '.join(names)}"
            elif module in allowed and not set(names) <= allowed[module]:
                yield node.lineno, f"{module}: {', '.join(names)}"


def test_oracle_and_references_share_no_engine_code():
    sites = [
        f"{path.name}:{line}: {what}"
        for path in INDEPENDENT
        for line, what in _shared_code(ast.parse(path.read_text(), str(path)), ALLOWED_NAMES.get(path.name))
    ]
    assert sites == []


def test_guard_sees_shared_code():
    source = (
        "from .alexander import alexander_skein\n"
        "from pretzelsurgery.classify import classify\n"
        "import pretzelsurgery.obstruction\n"
        "from pretzelsurgery import is_knot\n"
        "from .pretzel import PretzelLink, is_knot\n"
        "from pretzelsurgery.pretzel import tangles\n"
        "import pretzelsurgery.pretzel\n"
        "from .pretzel import _MAX_TWIST, PretzelLink\n"
        "from pretzelsurgery.laurent import LaurentPoly\n"
        "from pretzelsurgery.laurent import LaurentPoly, _from_slots\n"
        "from .laurent import render\n"
        "import pretzelsurgery.laurent\n"
        "from .laurent import LaurentPoly\n"
    )
    assert sorted(line for line, _ in _shared_code(ast.parse(source))) == [1, 2, 3, 4, 5, 6, 7, 10, 11, 12]


def test_guard_sees_the_arbiter_import_the_decoder():
    source = (
        "from pretzelsurgery.oracle import OracleError, build_diagram\n"
        "from pretzelsurgery.oracle import build_diagram, slot_bytes\n"
        "from pretzelsurgery.laurent import LaurentPoly\n"
        "from pretzelsurgery.oracle import kronecker_unpack\n"
        "import pretzelsurgery.oracle\n"
        "from pretzelsurgery.pretzel import PretzelLink\n"
    )
    allowed = ALLOWED_NAMES["reference_fox.py"]
    assert sorted(line for line, _ in _shared_code(ast.parse(source), allowed)) == [2, 4, 5]
    assert list(_shared_code(ast.parse(source))) == []


def _second_reading(tree: ast.AST):
    """Calls of a part of the reading in ``READING``, by name or as an
    attribute, and ``in`` or ``not in`` tests of "/" or ";"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in READING:
                yield node.lineno, f"call {name}"
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and node.left.value in ("/", ";")
            and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        ):
            yield node.lineno, f"test for {node.left.value!r}"


def test_only_pretzel_reads_input():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "pretzel.py"]
    assert paths
    sites = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in _second_reading(ast.parse(path.read_text(), str(path)))
    ]
    assert sites == []


def test_guard_sees_second_reading():
    source = (
        "knot = parse_pretzel(text)\n"
        "desc = pretzel.parse_montesinos(text)\n"
        "pairs = tangles(knot)\n"
        "d = determinant(pairs)\n"
        'if "/" in text or ";" in text: pass\n'
        'if ";" not in text: pass\n'
        "knot = parse(text)\n"
        "reading = read(knot)\n"
        "fractions = desc.tangles\n"
        'ok = "," in text\n'
        'ok = text == "/"\n'
    )
    assert sorted(line for line, _ in _second_reading(ast.parse(source))) == [1, 2, 3, 4, 5, 5, 6]


def test_all_lists_existing_names():
    # a stale __all__ entry breaks no import, so nothing else catches it
    stale, unlisted = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "pretzelsurgery" if path.stem == "__init__" else f"pretzelsurgery.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = getattr(importlib.import_module(f"pretzelsurgery.{node.module}"), "__all__", None)
            if listed is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert (stale, unlisted) == ([], [])


def _unused_definitions(trees: dict):
    """``module.name`` of each module-level function, class or assigned name
    (``__all__`` aside) in ``trees`` (module name -> ast) whose name no
    other top-level statement of any of the modules reads, as a name or an
    attribute."""
    defs, used = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            own = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = [
                    sub.id
                    for target in targets
                    for sub in ast.walk(target)
                    if isinstance(sub, ast.Name) and sub.id != "__all__"
                ]
            defs += [(module, name) for name in own]
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
                if name is not None and name not in own:
                    used.add(name)
    return [f"{module}.{name}" for module, name in defs if name not in used]


def test_package_uses_every_definition():
    # the package root only re-exports, so its imports use nothing
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    assert _unused_definitions(trees) == []


def test_guard_sees_unused_definitions():
    trees = {
        "a": ast.parse("def f(): return g()\ndef g(): return 1\ndef h(n): return h(n - 1)\nclass C: pass\n"),
        "b": ast.parse("import a\nx = a.f\n"),
        "c": ast.parse("_L, _R = 0, 1\n_TABLE = {_L: 1}\nN: int = 2\n__all__ = ['M']\nM = a.g() + b.x\n"),
    }
    assert _unused_definitions(trees) == ["a.h", "a.C", "c._R", "c._TABLE", "c.N", "c.M"]


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as an attribute inside ``node``."""
    return Counter(
        sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def _unused_members(package: dict, readers: dict):
    """``module.Class.name`` of each method or property, dunders aside, of a
    module-level class in ``package`` (module name -> ast) that no attribute
    read in ``package`` or ``readers`` names outside the member's own body."""
    reads = sum((_attribute_reads(tree) for tree in (*package.values(), *readers.values())), Counter())
    return [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in package.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] <= _attribute_reads(node)[node.name]
    ]


def test_package_or_benchmark_reads_every_member():
    package = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    readers = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert readers
    assert [name for name in _unused_members(package, readers) if name not in UNUSED_MEMBERS_ALLOWED] == []


def test_guard_sees_unused_members():
    package = {
        "a": ast.parse(
            "class C:\n"
            "    def f(self): return self.g()\n"
            "    def g(self): return 1\n"
            "    def h(self, n): return self.h(n - 1)\n"
            "    @property\n"
            "    def p(self): return 2\n"
            "    @property\n"
            "    def q(self): return 3\n"
            "    def __len__(self): return 0\n"
            "    def _private(self): return 4\n"
            "def k(c): c.q = 1; return c.f()\n"
        ),
    }
    readers = {"bench": ast.parse("import a\nx = a.C().p\n")}
    assert _unused_members(package, readers) == ["a.C.h", "a.C.q", "a.C._private"]
    assert _unused_members(package, {}) == ["a.C.h", "a.C.p", "a.C.q", "a.C._private"]
