#!/usr/bin/env python
"""Lint: every field of a settings dataclass must be set by some caller.

A field that no caller sets is a constant with extra steps: it widens the
configuration surface, invites a non-default nobody runs, and hides its one
value behind an attribute lookup.  This check finds them statically.

The settings dataclasses are the ``@dataclass`` classes under
``src/repro`` whose names end in ``Settings``, ``Config`` or
``Constraints``.  Every annotated class-body assignment is a field.

A field counts as *set* when any ``.py`` file under ``src``, ``tests``,
``benchmarks``, ``scripts`` or ``examples`` has, with the field's name:

- a keyword argument (``DtaSettings(max_indexes=3)``,
  ``dataclasses.replace(settings, max_indexes=3)``);
- an attribute assignment (``settings.max_indexes = 3``, augmented ones
  included);
- a string key of a dict literal (``{"max_indexes": 3}``).

A same-named forward chooses no value and does not count: a write whose
value is an attribute of the same name, alone or first in an ``or``
(``max_indexes=settings.max_indexes``,
``self.window = settings.window or default``), passes the field's value
on.

The match is by name only, so a field shares its set with any other
keyword or attribute of the same name; the check errs towards passing.
It parses files and imports nothing.

Classes in :data:`EXEMPT` are reported but do not fail the check.

Usage: ``python scripts/check_settings.py``
Exit status 0 = every field is set somewhere, 1 = unset fields listed.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINITIONS = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "scripts", "examples")
SUFFIXES = ("Settings", "Config", "Constraints")
#: Settings classes whose unset fields stay knobs, with the reason.
EXEMPT = {
    "ValidationSettings": (
        "its thresholds are to be chosen from measured A/A and regression "
        "runs (ROADMAP 5(ii)), not frozen at today's defaults"
    ),
}


def _python_files(top: pathlib.Path) -> Iterator[pathlib.Path]:
    return iter(sorted(top.rglob("*.py"))) if top.is_dir() else iter(())


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


def settings_fields() -> List[Tuple[str, str, str]]:
    """(file relative to the root, class, field) for every settings field."""
    found = []
    for path in _python_files(DEFINITIONS):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(SUFFIXES)
                and _is_dataclass(node)
            ):
                continue
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    found.append(
                        (
                            str(path.relative_to(ROOT)),
                            node.name,
                            statement.target.id,
                        )
                    )
    return found


def _forwards(value: ast.AST, name: str) -> bool:
    """True when ``value`` is ``<expr>.name``, or ``<expr>.name or ...``."""
    if isinstance(value, ast.BoolOp):
        value = value.values[0]
    return isinstance(value, ast.Attribute) and value.attr == name


def set_names(tree: ast.AST) -> Set[str]:
    """Names a module sets as keywords, attributes or dict keys."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            if not _forwards(node.value, node.arg):
                names.add(node.arg)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = list(
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif isinstance(target, ast.Attribute) and not (
                    node.value is not None and _forwards(node.value, target.attr)
                ):
                    names.add(target.attr)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and not _forwards(value, key.value)
                ):
                    names.add(key.value)
    return names


def main() -> int:
    fields = settings_fields()
    assigned: Set[str] = set()
    for top in SCANNED:
        for path in _python_files(ROOT / top):
            assigned |= set_names(ast.parse(path.read_text(), filename=str(path)))
    failing = 0
    for path, cls, field in fields:
        if field in assigned:
            continue
        if cls in EXEMPT:
            print(f"{path}: {cls}.{field} is set by no caller (exempt: "
                  f"{EXEMPT[cls]})")
            continue
        print(f"{path}: {cls}.{field} is set by no caller")
        failing += 1
    classes = {cls for _path, cls, _field in fields}
    print(
        f"{len(fields)} settable values in {len(classes)} settings "
        f"dataclasses; {failing} set by no caller"
    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
