"""Every name a module of ``src/fremond`` lists in ``__all__`` has a caller in the
program: the package itself (outside ``__init__.py``, which only re-exports), the
acceptance gate or the benchmark. A public name that only unit tests reach is
dead code with a test around it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fremond"

# states an inequality the paper uses; it stays public until a verb takes it up
KEPT_WITHOUT_CALLER = {"log_l1_bound"}


def _called_names() -> set[str]:
    """The names that the program's files load, read as an attribute or import by name."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "bench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public_names() -> dict[str, list[str]]:
    """Each module's ``__all__`` entries, by module file name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                found[path.name] = list(ast.literal_eval(node.value))
    return found


def test_the_scan_reads_the_modules():
    public = _public_names()
    assert {"grid.py", "stepper.py", "thermo.py", "harness.py"} <= set(public)
    assert "floors_check" in public["thermo.py"] and "floors_check" in _called_names()


def test_every_public_name_has_a_caller():
    called = _called_names()
    uncalled = [f"{module}: {name}" for module, names in _public_names().items() for name in names
                if name not in called and name not in KEPT_WITHOUT_CALLER]
    assert uncalled == []
