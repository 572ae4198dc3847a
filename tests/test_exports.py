"""The package's public name list stays sorted, unique, importable and used,
and importing the package loads no more than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_every_export_has_a_caller_outside_the_tests():
    # a name that only the tests call belongs in the tests
    package = ROOT / "src" / "jointrdf"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_names_read, files))
    assert [name for name in jointrdf.__all__ if name not in used] == []


def test_import_loads_neither_the_thread_pool_nor_the_cli():
    # a fresh interpreter: this one may have loaded both already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, jointrdf; "
            "print(sorted({'concurrent.futures', 'jointrdf.cli'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"
