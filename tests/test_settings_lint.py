"""The settings lint: every settings-dataclass field has a caller outside
the tests that sets it; a same-named forward, a write of the field's own
default literal and a write under ``tests/`` are not sets, and a nested
settings field is structure, not a value."""

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

#: A tree to lint: ``tested`` is written only under ``tests/``,
#: ``inner`` is a nested settings field, ``waived`` is exempt by key,
#: ``passed`` is only passed on under its own bare name.
TREE = {
    "src/repro/demo.py": """
@dataclasses.dataclass
class InnerSettings:
    depth: int = 1

@dataclasses.dataclass
class OuterConfig:
    chosen: int = 1
    tested: int = 2
    waived: int = 3
    passed: int = 4
    inner: InnerSettings = dataclasses.field(default_factory=InnerSettings)
    maybe: Optional["InnerSettings"] = None
""",
    "src/repro/caller.py": (
        "OuterConfig(chosen=4, passed=passed)\nInnerSettings(depth=2)\n"
        "self.passed = passed\n"
    ),
    "tests/test_demo.py": "OuterConfig(tested=5, waived=6)\n",
}


def test_every_settings_field_is_set_and_forwards_do_not_count(
    capsys, tmp_path, monkeypatch
):
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
    assert capsys.readouterr().out.rstrip().endswith("0 unset outside tests")

    for relative, text in TREE.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(lint, "ROOT", tmp_path)
    monkeypatch.setattr(lint, "DEFINITIONS", tmp_path / "src" / "repro")
    monkeypatch.setattr(lint, "EXEMPT", {"OuterConfig.waived": "a reason"})
    assert lint.main() == 1
    lines = capsys.readouterr().out.splitlines()
    demo = str(pathlib.Path("src", "repro", "demo.py"))
    # A write under tests/ is no set; a Class.field exemption is reported
    # and does not fail; a bare-name forward is no set; the nested fields
    # are neither counted nor failed.
    assert lines == [
        f"{demo}: OuterConfig.tested is set only by tests",
        f"{demo}: OuterConfig.waived is set only by tests (exempt: a reason)",
        f"{demo}: OuterConfig.passed is set by no caller",
        "5 settable values in 2 settings dataclasses; 2 unset outside tests",
    ]
