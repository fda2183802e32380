"""Every function and class that ``src/fremond`` defines, public or not, at any
depth (dunders aside), is referenced by the program: the package itself (outside
``__init__.py``, which only re-exports), the acceptance gate or the benchmark. A
definition that only unit tests reach is dead code with a test around it. So is
a test function of ``thermo.TEST_FUNCTIONS`` whose name the program never spells
out. The scan goes by name, so a name that the program uses for something else
passes too."""

import ast
from pathlib import Path

from fremond.thermo import TEST_FUNCTIONS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fremond"

# states an inequality the paper uses; it stays public until a verb takes it up
KEPT_WITHOUT_CALLER = {"log_l1_bound"}


def _program_files() -> list[Path]:
    """The package's modules but ``__init__.py``, the acceptance gate and the benchmark's files."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return files + [ROOT / "tests" / "test_acceptance.py", *(ROOT / "bench").glob("*.py")]


def _called_names() -> set[str]:
    """The names that the program's files load, read as an attribute or import by name."""
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _string_constants() -> set[str]:
    """The string constants of the program's files, those inside the ``TEST_FUNCTIONS`` table left out."""
    strings = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(), str(path))
        table = {id(node) for top in tree.body if isinstance(top, ast.AnnAssign)
                 and getattr(top.target, "id", None) == "TEST_FUNCTIONS" for node in ast.walk(top)}
        strings.update(node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                       and isinstance(node.value, str) and id(node) not in table)
    return strings


def _public_names() -> dict[str, list[str]]:
    """Each module's ``__all__`` entries, by module file name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                found[path.name] = list(ast.literal_eval(node.value))
    return found


def _definitions() -> list[tuple[str, str]]:
    """(module file name, name) of each function and class the package defines, nested ones and methods
    included, dunders left out."""
    return [(path.name, node.name) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_the_scan_reads_the_modules():
    public = _public_names()
    assert {"grid.py", "stepper.py", "thermo.py", "harness.py"} <= set(public)
    assert "floors_check" in public["thermo.py"] and "floors_check" in _called_names()
    defined = _definitions()
    assert len(defined) > 150 and ("stepper.py", "__post_init__") not in defined
    assert {("grid.py", "_lap_values"), ("grid.py", "min"), ("cli.py", "record")} <= set(defined)  # nested, a method


def test_every_public_name_has_a_caller():
    called = _called_names()
    uncalled = [f"{module}: {name}" for module, names in _public_names().items() for name in names
                if name not in called and name not in KEPT_WITHOUT_CALLER]
    assert uncalled == []


def test_every_definition_is_referenced():
    called = _called_names()
    unreferenced = [f"{module}: {name}" for module, name in _definitions()
                    if name not in called and name not in KEPT_WITHOUT_CALLER]
    assert unreferenced == []


def test_every_test_function_is_named_by_the_program():
    assert sorted(set(TEST_FUNCTIONS) - _string_constants()) == []
