"""Resource governance for tuning work.

The paper runs DTA co-located with the customer's primary replica and
therefore under a strict resource budget (Section 5.3.1): SQL Server's
resource governor limits the CPU/memory/IO of DTA's server-side calls, and
Windows Job Objects cap the DTA process itself.  Here a
:class:`ResourcePool` meters the virtual CPU milliseconds a consumer
charges and raises :class:`ResourceBudgetExceededError` once the budget
for the current accounting window is exhausted; the DTA session catches it
and either yields (extending its runtime) or aborts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.errors import ResourceBudgetExceededError


@dataclasses.dataclass
class PoolUsage:
    """Consumption counters for one pool."""

    cpu_ms: float = 0.0
    whatif_calls: int = 0
    stats_builds: int = 0


class ResourcePool:
    """A named pool with a per-window CPU budget.

    ``budget_cpu_ms`` of ``None`` means ungoverned (the default user pool).
    """

    def __init__(
        self,
        name: str,
        budget_cpu_ms: Optional[float] = None,
        window_minutes: float = 60.0,
    ) -> None:
        self.name = name
        self.budget_cpu_ms = budget_cpu_ms
        self.window_minutes = window_minutes
        self.usage = PoolUsage()
        self._window_index = 0
        self._window_cpu_ms = 0.0

    def _roll_window(self, now: float) -> None:
        index = int(now // self.window_minutes)
        if index != self._window_index:
            self._window_index = index
            self._window_cpu_ms = 0.0

    def charge_cpu(self, cpu_ms: float, now: float) -> None:
        """Charge CPU; raises if the pool's window budget is exceeded."""
        if not self.charge_cpu_many(cpu_ms, 1, now):
            raise self.exceeded()

    def charge_cpu_many(self, cpu_ms: float, n: int, now: float) -> int:
        """``n`` charges of ``cpu_ms``, one float addition each, stopping
        at the first that exceeds the budget (which is added too).
        Returns how many fit."""
        self._roll_window(now)
        budget = self.budget_cpu_ms
        total = self.usage.cpu_ms
        window = self._window_cpu_ms
        charged = 0
        while charged < n:
            total += cpu_ms
            window += cpu_ms
            if budget is not None and window > budget:
                break
            charged += 1
        self.usage.cpu_ms = total
        self._window_cpu_ms = window
        return charged

    def exceeded(self) -> ResourceBudgetExceededError:
        """The error a charge past the window's budget raises."""
        return ResourceBudgetExceededError(
            f"pool {self.name!r} exceeded {self.budget_cpu_ms} ms "
            f"CPU in its {self.window_minutes} min window"
        )

    def window_headroom(self, now: float) -> Optional[float]:
        """Remaining CPU ms in the current window (None if ungoverned)."""
        if self.budget_cpu_ms is None:
            return None
        self._roll_window(now)
        return max(0.0, self.budget_cpu_ms - self._window_cpu_ms)


class ResourceGovernor:
    """Holds the engine's pools: the user workload pool and tuning pools."""

    USER_POOL = "user"
    TUNING_POOL = "tuning"
    INDEX_BUILD_POOL = "index_build"

    def __init__(
        self,
        tuning_budget_cpu_ms: Optional[float] = None,
        index_build_budget_cpu_ms: Optional[float] = None,
        window_minutes: float = 60.0,
    ) -> None:
        self._pools: Dict[str, ResourcePool] = {
            self.USER_POOL: ResourcePool(self.USER_POOL, None, window_minutes),
            self.TUNING_POOL: ResourcePool(
                self.TUNING_POOL, tuning_budget_cpu_ms, window_minutes
            ),
            self.INDEX_BUILD_POOL: ResourcePool(
                self.INDEX_BUILD_POOL, index_build_budget_cpu_ms, window_minutes
            ),
        }

    def pool(self, name: str) -> ResourcePool:
        return self._pools[name]

    @property
    def user(self) -> ResourcePool:
        return self._pools[self.USER_POOL]

    @property
    def tuning(self) -> ResourcePool:
        return self._pools[self.TUNING_POOL]

    @property
    def index_build(self) -> ResourcePool:
        return self._pools[self.INDEX_BUILD_POOL]
