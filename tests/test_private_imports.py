"""No package module reaches into another module's private names."""

import ast
from pathlib import Path

import gswf

SRC = Path(gswf.__file__).parent
MODULES = {p.stem for p in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    # local names bound to package modules, e.g. ``from . import bfn``
    module_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gswf")):
            for alias in node.names:
                if node.module in (None, "gswf") and alias.name in MODULES:
                    module_names.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gswf.") and alias.asname:
                    module_names.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return [f"{path.name}: {v}" for v in found]


def test_no_private_names_cross_module_boundaries():
    found = [v for path in sorted(SRC.glob("*.py")) for v in violations(path)]
    assert found == []


def test_guard_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import bfn\nfrom .search import _hidden\nx = bfn._frozen\n")
    assert violations(probe) == [
        "probe.py: from .search import _hidden",
        "probe.py: bfn._frozen (line 3)",
    ]
