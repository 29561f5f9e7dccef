"""Every ```python block of README.md runs as written, and every package
attribute it names exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import falsiflow

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
MODULES = {m.name for m in pkgutil.iter_modules(falsiflow.__path__)}
#: The backticked ``module.attribute`` names of README.md, such as ``lp.solve``.
ATTRIBUTES = sorted({
    (module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text()) if module in MODULES
})


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
