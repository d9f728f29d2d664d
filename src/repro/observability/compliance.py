"""Telemetry compliance: no customer data leaves the database boundary.

The paper's service is debuggable at fleet scale precisely because its
telemetry is *anonymized*: events carry identifiers and aggregates, never
query text, literals, or parameter values (Section 1.2).  This module is
the single enforcement point — the event bus and metric labels both
pass their payloads through :func:`ensure_compliant`,
which recurses into nested containers so a forbidden key cannot hide one
level down.
"""

from __future__ import annotations

from typing import Iterable, List

#: Payload keys that would carry customer data.  Kept deliberately small
#: and exact — these are the fields SQL Server surfaces that the paper's
#: pipeline scrubs before egress.
FORBIDDEN_KEYS = frozenset({"query_text", "text", "literal", "parameters"})


def find_forbidden_keys(value: object, path: str = "") -> List[str]:
    """Return the paths of every forbidden key reachable inside ``value``.

    Recurses into dicts (checking keys), and into lists/tuples/sets so a
    payload like ``{"stats": [{"query_text": ...}]}`` is caught.  Paths
    are dotted/bracketed for readable error messages.
    """
    found: List[str] = []
    if isinstance(value, dict):
        for key, child in value.items():
            key_path = f"{path}.{key}" if path else str(key)
            if isinstance(key, str) and key in FORBIDDEN_KEYS:
                found.append(key_path)
            found.extend(find_forbidden_keys(child, key_path))
    elif isinstance(value, (list, tuple, set, frozenset)):
        for i, child in enumerate(value):
            found.extend(find_forbidden_keys(child, f"{path}[{i}]"))
    return found


def ensure_compliant(payload: object, context: str = "telemetry payload") -> None:
    """Raise ``ValueError`` if ``payload`` contains customer-data keys."""
    leaked = find_forbidden_keys(payload)
    if leaked:
        raise ValueError(
            f"{context} contains customer data keys: {sorted(leaked)}"
        )


def ensure_clean_labels(labels: Iterable[str], context: str = "metric labels") -> None:
    """Raise ``ValueError`` if any label name is a forbidden key."""
    leaked = sorted(name for name in labels if name in FORBIDDEN_KEYS)
    if leaked:
        raise ValueError(f"{context} contain customer data keys: {leaked}")
