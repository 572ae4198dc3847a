"""The package's public name list stays sorted, unique, importable and used,
so do the members of its classes, and importing the package loads no more
than it needs."""

import ast
import dataclasses
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

import jointrdf

ROOT = Path(__file__).resolve().parent.parent


def test_all_is_sorted_unique_and_resolves():
    names = jointrdf.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(jointrdf, name)]
    assert missing == []


def _names_read(path: Path) -> set[str]:
    """Every name and attribute a module reads or imports; definitions do not count."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _names_read_outside_the_tests() -> set[str]:
    package = ROOT / "src" / "jointrdf"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*map(_names_read, files))


def _public_members(cls: type) -> set[str]:
    """The public methods, properties and dataclass fields cls defines itself."""
    members = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    members |= {name for name, value in vars(cls).items()
                if isinstance(value, (FunctionType, property, cached_property))}
    return {name for name in members if not name.startswith("_")}


def test_every_export_has_a_caller_outside_the_tests():
    # a name that only the tests call belongs in the tests
    used = _names_read_outside_the_tests()
    assert [name for name in jointrdf.__all__ if name not in used] == []


def test_every_public_member_has_a_caller_outside_the_tests():
    # the same rule, by name, for what the exported classes carry
    used = _names_read_outside_the_tests()
    classes = [c for c in map(jointrdf.__dict__.get, jointrdf.__all__) if isinstance(c, type)]
    unread = [f"{c.__name__}.{member}" for c in classes
              for member in sorted(_public_members(c)) if member not in used]
    assert unread == []


def test_import_loads_neither_the_thread_pool_nor_the_cli():
    # a fresh interpreter: this one may have loaded both already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, jointrdf; "
            "print(sorted({'concurrent.futures', 'jointrdf.cli'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
