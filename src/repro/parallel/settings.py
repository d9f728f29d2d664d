"""Settings of the region service: loop cadence and execution backend."""

from __future__ import annotations

import dataclasses
from typing import Optional


#: Recognized execution backends.
BACKENDS = ("auto", "serial", "process")


@dataclasses.dataclass
class ServiceSettings:
    """Closed-loop workload settings."""

    #: Statement cap per database per step (None = rate-driven).
    max_statements_per_step: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class ParallelSettings:
    """How the fleet's per-tick work is executed.

    ``workers`` is the number of shards the fleet is split into (and,
    for the process backend, the number of concurrent workers).
    ``backend`` selects the execution substrate:

    - ``"serial"`` — shards run inline, one after another (the reference
      every equivalence test compares against);
    - ``"process"`` — one long-lived OS process per shard.  Shard state
      is *built inside* the worker from the picklable specs, so only
      commands and per-tick deltas ever cross the pipe;
    - ``"auto"`` — ``process`` when ``workers > 1``, else ``serial``.

    Determinism does not depend on the backend: merged output is
    byte-identical across both for the same seed.
    """

    workers: int = 0
    backend: str = "auto"
    #: Collect per-tick phase timings and trace events (the ``repro
    #: profile`` data source).  Off is the ``--no-profile`` escape hatch.
    instrument: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend {self.backend!r} not one of {BACKENDS}"
            )
        if self.workers < 0:
            raise ValueError("workers must be >= 0")

    @property
    def effective_backend(self) -> str:
        """The backend actually used after ``auto`` resolution."""
        if self.backend == "auto":
            return "process" if self.workers > 1 else "serial"
        return self.backend

    @property
    def effective_workers(self) -> int:
        """At least one shard."""
        return max(1, self.workers)
