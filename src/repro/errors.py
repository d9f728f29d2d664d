"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
The control plane additionally distinguishes *transient* errors (retried by
the state machine) from *permanent* ones (terminal ``Error`` state), which
mirrors the paper's Retry vs Error recommendation states (Section 4).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class TransientError(ReproError):
    """An error that is expected to succeed if the operation is retried.

    The control plane moves a recommendation into the ``RETRY`` state when
    one of these is raised while acting on it.
    """


class PermanentError(ReproError):
    """An irrecoverable error; the control plane records ``ERROR``."""


class SchemaError(PermanentError):
    """Schema objects are missing, duplicated, or inconsistent."""


class UnknownTableError(SchemaError):
    """Referenced table does not exist in the catalog."""


class UnknownColumnError(SchemaError):
    """Referenced column does not exist on the table."""


class UnknownIndexError(SchemaError):
    """Referenced index does not exist on the table."""


class DuplicateObjectError(SchemaError):
    """An object with the same name already exists."""


class QueryError(ReproError):
    """Query is malformed or references unknown objects."""


class OptimizeError(QueryError):
    """The optimizer could not produce a plan for the statement.

    Mirrors statements that SQL Server's what-if API cannot optimize in
    isolation (Section 5.3.2), e.g. incomplete batch fragments.
    """


class ExecutionError(ReproError):
    """A statement failed during execution."""


class LockTimeoutError(TransientError):
    """A lock request timed out; the caller should back off and retry."""


class ResourceBudgetExceededError(TransientError):
    """A resource-governed session exhausted its budget."""


class SessionAbortedError(TransientError):
    """A tuning session was aborted (e.g. it was slowing down user queries)."""


class InvalidStateTransitionError(PermanentError):
    """An illegal transition was attempted on a state machine."""


class TelemetryError(ReproError):
    """Misuse of the observability layer (bad metric name, uncataloged
    event type, kind conflict) — distinct from compliance violations, which
    raise ``ValueError`` at the emission boundary."""


class ShardCrashError(ReproError):
    """A fleet shard worker process died mid-protocol.

    Raised by the process-backed worker pool when a shard's pipe hits
    EOF (the worker was killed or crashed hard enough to skip its own
    error report).  Carries which shard died and the last command the
    parent sent it, so operators can tell a startup death from a
    mid-batch one; the pool closes its remaining workers before raising.
    """

    def __init__(self, shard_index: int, last_command: str) -> None:
        super().__init__(
            f"shard {shard_index} worker process died "
            f"(last command sent: {last_command!r})"
        )
        self.shard_index = shard_index
        self.last_command = last_command
