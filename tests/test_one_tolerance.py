"""A caller sets no tolerance, and the CLI has no hidden flag.

Every tolerance is a fixed module constant.  These tests fail as soon as a
public function, a public method or a CLI option grows a tolerance, or an
option is hidden from --help.
"""

import argparse
import inspect

import jointrdf
from jointrdf.cli import _build_parser


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
