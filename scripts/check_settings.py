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
on.  Nor does a write of the field's own default literal: when the
default is a literal, ``DtaSettings(max_indexes=<that literal>)`` chooses
nothing the field does not already hold.  Literals compare as spelled
(``ast.dump``), so ``10.0`` is not the default ``10``.

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
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


def _literal_dump(value: Optional[ast.AST]) -> Optional[str]:
    """``ast.dump`` of ``value`` when it is a literal, else None."""
    if value is None:
        return None
    try:
        ast.literal_eval(value)
    except ValueError:
        return None
    return ast.dump(value)


def class_fields(tree: ast.AST) -> List[Tuple[str, str, Optional[str]]]:
    """(class, field, default literal's dump or None) for every field of
    the settings dataclasses a module defines."""
    found = []
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
                        node.name,
                        statement.target.id,
                        _literal_dump(statement.value),
                    )
                )
    return found


def settings_fields() -> List[Tuple[str, str, str, Optional[str]]]:
    """(file relative to the root, class, field, default) for every
    settings field under ``src/repro``."""
    found = []
    for path in _python_files(DEFINITIONS):
        tree = ast.parse(path.read_text(), filename=str(path))
        relative = str(path.relative_to(ROOT))
        found.extend((relative, *field) for field in class_fields(tree))
    return found


def _forwards(value: ast.AST, name: str) -> bool:
    """True when ``value`` is ``<expr>.name``, or ``<expr>.name or ...``."""
    if isinstance(value, ast.BoolOp):
        value = value.values[0]
    return isinstance(value, ast.Attribute) and value.attr == name


def written_values(tree: ast.AST) -> Dict[str, Set[str]]:
    """Per name a module sets as a keyword, attribute or dict key, the
    ``ast.dump`` of every value written to it.  An augmented or unpacked
    write records its whole statement, which equals no default."""
    written: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            if not _forwards(node.value, node.arg):
                written.setdefault(node.arg, set()).add(ast.dump(node.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            plain = isinstance(node, ast.Assign) or (
                isinstance(node, ast.AnnAssign) and node.value is not None
            )
            targets = list(
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    plain = False
                    targets.extend(target.elts)
                elif isinstance(target, ast.Attribute) and not (
                    node.value is not None and _forwards(node.value, target.attr)
                ):
                    written.setdefault(target.attr, set()).add(
                        ast.dump(node.value if plain else node)
                    )
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and not _forwards(value, key.value)
                ):
                    written.setdefault(key.value, set()).add(ast.dump(value))
    return written


def is_set(
    field: str, default: Optional[str], written: Dict[str, Set[str]]
) -> bool:
    """True when some write of ``field`` is not its default literal."""
    return bool(written.get(field, set()) - {default})


def main() -> int:
    fields = settings_fields()
    written: Dict[str, Set[str]] = {}
    for top in SCANNED:
        for path in _python_files(ROOT / top):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, values in written_values(tree).items():
                written.setdefault(name, set()).update(values)
    failing = 0
    for path, cls, field, default in fields:
        if is_set(field, default, written):
            continue
        if cls in EXEMPT:
            print(f"{path}: {cls}.{field} is set by no caller (exempt: "
                  f"{EXEMPT[cls]})")
            continue
        print(f"{path}: {cls}.{field} is set by no caller")
        failing += 1
    classes = {cls for _path, cls, _field, _default in fields}
    print(
        f"{len(fields)} settable values in {len(classes)} settings "
        f"dataclasses; {failing} set by no caller"
    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
