"""The settings lint: every settings-dataclass field has a caller that
sets it; a same-named forward and a write of the field's own default
literal are not sets."""

from __future__ import annotations

import ast
import importlib.util
import pathlib

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_settings.py"
)

DEFINITION = """
@dataclasses.dataclass
class DemoSettings:
    chosen: int = 1
    defaulted: float = 0.1
    respelled: int = 10
    computed: float = 2 * HOURS
"""

SNIPPET = """
Settings(chosen=3, forwarded=settings.forwarded)
settings.assigned = 1
self.own = self.settings.own or default
{"keyed": 2, "passed_on": other.passed_on}
DemoSettings(defaulted=0.10, respelled=10.0, computed=2 * HOURS)
"""


def test_every_settings_field_is_set_and_forwards_do_not_count(capsys):
    spec = importlib.util.spec_from_file_location("settings_lint", SCRIPT)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    written = lint.written_values(ast.parse(SNIPPET))
    assert set(written) == {
        "chosen", "assigned", "keyed", "defaulted", "respelled", "computed",
    }
    # The default literal sets nothing; a different spelling of the value
    # and a non-literal default do.
    fields = lint.class_fields(ast.parse(DEFINITION))
    assert [
        field for _cls, field, default in fields
        if not lint.is_set(field, default, written)
    ] == ["defaulted"]
    assert lint.main() == 0, capsys.readouterr().out
    assert capsys.readouterr().out.rstrip().endswith("0 set by no caller")
