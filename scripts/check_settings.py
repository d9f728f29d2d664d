#!/usr/bin/env python
"""Lint: every field of a settings dataclass must be set by a caller
outside the tests.

A field that no production caller sets is a constant with extra steps: it
widens the configuration surface, invites a non-default nobody runs, and
hides its one value behind an attribute lookup.  Such a value is a module
constant beside its reader, which a test that needs another value patches
(``monkeypatch.setattr``).  This check finds them statically.

The settings dataclasses are the ``@dataclass`` classes under
``src/repro`` whose names end in ``Settings``, ``Config`` or
``Constraints``.  Every annotated class-body assignment is a field.  A
field whose annotation names another settings dataclass
(``EngineSettings.cost_model``) is structure, not a value: it is neither
counted nor checked, and the nested class's own fields are.

A field counts as *set* when any ``.py`` file under ``src``,
``benchmarks``, ``scripts`` or ``examples`` has, with the field's name:

- a keyword argument (``DtaSettings(max_indexes=3)``,
  ``dataclasses.replace(settings, max_indexes=3)``);
- an attribute assignment (``settings.max_indexes = 3``, augmented ones
  included);
- a string key of a dict literal (``{"max_indexes": 3}``).

A same-named forward chooses no value and does not count: a write whose
value is a name or an attribute of the same name, alone or first in an
``or`` (``max_indexes=settings.max_indexes``, ``policy=policy``,
``self.window = settings.window or default``), passes the field's value
on.  Nor does a write of the field's own default literal: when the
default is a literal, ``DtaSettings(max_indexes=<that literal>)`` chooses
nothing the field does not already hold.  Literals compare as spelled
(``ast.dump``), so ``10.0`` is not the default ``10``.

Writes under ``tests`` do not count: a field only tests set fails, and
the report says so ("set only by tests").

The match is by name only, so a field shares its set with any other
keyword or attribute of the same name; the check errs towards passing.
It parses files and imports nothing.

Classes and ``Class.field`` keys in :data:`EXEMPT` are reported but do
not fail the check.

Usage: ``python scripts/check_settings.py``
Exit status 0 = every field is set outside the tests, 1 = the others are
listed.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINITIONS = ROOT / "src" / "repro"
#: Where a write sets a field; :data:`TESTS` is scanned only to name the
#: fields that tests alone set.
SCANNED = ("src", "benchmarks", "scripts", "examples")
TESTS = "tests"
SUFFIXES = ("Settings", "Config", "Constraints")
#: Settings classes, or ``Class.field``s, that stay settable although
#: unset, with the reason.
EXEMPT = {
    "ValidationSettings": (
        "its thresholds are to be chosen from measured A/A and regression "
        "runs (ROADMAP 5(ii)), not frozen at today's defaults"
    ),
    "ExecutionCostSettings.vector_min_rows": (
        "a benchmark cell with tables on either side of it is to justify "
        "or delete it (ROADMAP 8)"
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


def _settings_classes(tree: ast.AST) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ClassDef)
            and node.name.endswith(SUFFIXES)
            and _is_dataclass(node)
        ):
            yield node


def _names(annotation: ast.AST) -> Set[str]:
    """Every name an annotation spells, string annotations included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def class_fields(
    tree: ast.AST, classes: Set[str] = frozenset()
) -> List[Tuple[str, str, Optional[str]]]:
    """(class, field, default literal's dump or None) for every field of
    the settings dataclasses a module defines, except those whose
    annotation names one of ``classes`` (nested settings)."""
    found = []
    for node in _settings_classes(tree):
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and not _names(statement.annotation) & classes
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
    settings field under ``src/repro`` that holds a value."""
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
        for path in _python_files(DEFINITIONS)
    }
    classes = {
        node.name for tree in trees.values() for node in _settings_classes(tree)
    }
    return [
        (relative, *field)
        for relative, tree in trees.items()
        for field in class_fields(tree, classes)
    ]


def _forwards(value: ast.AST, name: str) -> bool:
    """True when ``value`` is ``name`` or ``<expr>.name``, alone or
    first in an ``or``."""
    if isinstance(value, ast.BoolOp):
        value = value.values[0]
    if isinstance(value, ast.Name):
        return value.id == name
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


def scan(tops: Iterable[str]) -> Dict[str, Set[str]]:
    """:func:`written_values` over every file under the ``tops``."""
    written: Dict[str, Set[str]] = {}
    for top in tops:
        for path in _python_files(ROOT / top):
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, values in written_values(tree).items():
                written.setdefault(name, set()).update(values)
    return written


def main() -> int:
    fields = settings_fields()
    written, by_tests = scan(SCANNED), scan([TESTS])
    failing = 0
    for path, cls, field, default in fields:
        if is_set(field, default, written):
            continue
        who = (
            "set only by tests" if is_set(field, default, by_tests)
            else "set by no caller"
        )
        reason = EXEMPT.get(f"{cls}.{field}", EXEMPT.get(cls))
        if reason is not None:
            print(f"{path}: {cls}.{field} is {who} (exempt: {reason})")
            continue
        print(f"{path}: {cls}.{field} is {who}")
        failing += 1
    classes = {cls for _path, cls, _field, _default in fields}
    print(
        f"{len(fields)} settable values in {len(classes)} settings "
        f"dataclasses; {failing} unset outside tests"
    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
