"""Every ```python block of README.md runs as written, and every package
attribute or snake_case name it names exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import falsiflow
import oracles
from falsiflow.cli import build_model
from falsiflow.errors import FalsiflowError

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
MODULES = {m.name for m in pkgutil.iter_modules(falsiflow.__path__)}
#: The backticked ``module.attribute`` names of README.md, such as ``lp.solve``.
ATTRIBUTES = sorted({
    (module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text()) if module in MODULES
})
#: The backticked snake_case names of README.md's prose, outside code blocks, such as ``maximize_dual``.
PROSE_NAMES = sorted(set(re.findall(
    r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`", re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
)))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_module_attributes_resolve():
    assert ATTRIBUTES
    missing = [f"{module}.{name}" for module, name in ATTRIBUTES
               if not hasattr(importlib.import_module(f"falsiflow.{module}"), name)]
    assert missing == []


def known_names() -> set[str]:
    """The attributes of ``falsiflow``, of its modules and of their classes, and the names of ``tests/oracles.py``."""
    names = set(dir(falsiflow)) | set(dir(oracles))
    for module in (importlib.import_module(f"falsiflow.{m}") for m in MODULES):
        names |= set(dir(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("falsiflow"):
                names |= set(dir(value))
    return names


def is_spec_family(name: str) -> bool:
    """``build_model`` does not refuse ``name`` as an unknown model kind."""
    try:
        build_model({"model": name, "params": {}})
    except FalsiflowError as exc:
        return str(exc) != f"<spec>: unknown model kind {name!r}"
    return True


def test_readme_prose_names_resolve():
    assert PROSE_NAMES
    known = known_names()
    assert [name for name in PROSE_NAMES if name not in known and not is_spec_family(name)] == []
