"""Every error class is raised by the package: one whose last raise is deleted
goes with it."""

import ast
from pathlib import Path

import falsiflow

SRC = Path(falsiflow.__file__).parent


def _error_classes() -> set[str]:
    """The names of the classes in ``errors.py`` that derive from ``FalsiflowError``."""
    tree = ast.parse((SRC / "errors.py").read_text())
    errors = {"FalsiflowError"}
    for node in tree.body:  # a base is defined before the classes that derive from it
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in errors for base in node.bases
        ):
            errors.add(node.name)
    return errors - {"FalsiflowError"}


def _raised_names(path: Path) -> set[str]:
    """The class names in the ``raise`` statements of a module: ``raise X``,
    ``raise X(...)`` and the same with a module prefix."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised_outside_errors():
    raised = set().union(*(_raised_names(p) for p in SRC.glob("*.py") if p.name != "errors.py"))
    errors = _error_classes()
    assert len(errors) > 10
    assert sorted(errors - raised) == []
