"""A caller sets no tolerance, and the CLI has no hidden flag.

Every tolerance is a fixed module constant, and README lists each one.
These tests fail as soon as a public function, a public method or a CLI
option grows a tolerance, an option is hidden from --help, or a module
gains or loses a *_TOL or *_RTOL constant that README does not name.
"""

import argparse
import ast
import inspect
import re
from pathlib import Path

import jointrdf
from jointrdf.cli import _build_parser

_TOL_NAME = re.compile(r"_?[A-Z][A-Z_]*_R?TOL")


def _public_callables():
    for name in jointrdf.__all__:
        obj = getattr(jointrdf, name)
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_no_library_callable_takes_a_tolerance():
    found = []
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins such as exception classes
            continue
        found += [(name, p) for p in params if "tol" in p]
    assert found == []


def _commands():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, sub.choices


def test_no_cli_option_takes_a_tolerance():
    _, commands = _commands()
    assert set(commands) == {"solve", "sweep", "realize", "verify", "canonical"}
    tol_options = [(command, o) for command, sp in commands.items()
                   for a in sp._actions for o in a.option_strings if "tol" in o]
    assert tol_options == []


def test_no_cli_option_is_hidden():
    parser, commands = _commands()
    actions = [("", a) for a in parser._actions]
    actions += [(command, a) for command, sp in commands.items() for a in sp._actions]
    hidden = [(c, a.option_strings) for c, a in actions if a.help is argparse.SUPPRESS]
    assert hidden == []


def _module_tolerances() -> set[str]:
    """module.NAME for every *_TOL and *_RTOL assigned at a module's top level."""
    found = set()
    for path in Path(jointrdf.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            found |= {f"{path.stem}.{t.id}" for t in targets
                      if isinstance(t, ast.Name) and _TOL_NAME.fullmatch(t.id)}
    return found


def test_readme_lists_every_tolerance():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(rf"`(\w+\.{_TOL_NAME.pattern})`", readme))
    assert _module_tolerances() == listed
