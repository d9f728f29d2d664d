"""The settings lint: every settings-dataclass field has a caller that
sets it, and a same-named forward is not a set."""

from __future__ import annotations

import ast
import importlib.util
import pathlib

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_settings.py"
)

SNIPPET = """
Settings(chosen=3, forwarded=settings.forwarded)
settings.assigned = 1
self.own = self.settings.own or default
{"keyed": 2, "passed_on": other.passed_on}
"""


def test_every_settings_field_is_set_and_forwards_do_not_count(capsys):
    spec = importlib.util.spec_from_file_location("settings_lint", SCRIPT)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    assert lint.set_names(ast.parse(SNIPPET)) == {"chosen", "assigned", "keyed"}
    assert lint.main() == 0, capsys.readouterr().out
    assert capsys.readouterr().out.rstrip().endswith("0 set by no caller")
