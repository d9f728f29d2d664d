"""Statistical tests used by the validator (Welch 1947).

Query Store tracks per-plan execution count, mean, and standard deviation
for every metric; assuming normally distributed measurement variance, the
Welch t-test (unequal variances) decides whether the before/after change
in a metric is statistically significant (Section 6).
"""

from __future__ import annotations

import dataclasses
import math

from scipy.special import stdtr


@dataclasses.dataclass
class WelchResult:
    """Outcome of a two-sample Welch t-test from summary statistics."""

    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    mean_before: float
    mean_after: float

    @property
    def relative_change(self) -> float:
        """(after - before) / before; positive = got more expensive."""
        if self.mean_before == 0:
            return 0.0 if self.mean_after == 0 else math.inf
        return (self.mean_after - self.mean_before) / self.mean_before

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha

    def to_payload(self) -> dict:
        """JSON-serializable evidence dict (audit events, ``repro explain``)."""
        relative = self.relative_change
        return {
            "t_statistic": self.t_statistic,
            "degrees_of_freedom": self.degrees_of_freedom,
            "p_value": self.p_value,
            "mean_before": self.mean_before,
            "mean_after": self.mean_after,
            "relative_change": relative if math.isfinite(relative) else None,
        }


def welch_t_test(
    mean_a: float,
    std_a: float,
    n_a: int,
    mean_b: float,
    std_b: float,
    n_b: int,
) -> WelchResult:
    """Welch's t-test from summary statistics (a = before, b = after)."""
    if n_a < 2 or n_b < 2:
        return WelchResult(
            t_statistic=0.0,
            degrees_of_freedom=0.0,
            p_value=1.0,
            mean_before=mean_a,
            mean_after=mean_b,
        )
    var_a = max(std_a * std_a, 1e-12)
    var_b = max(std_b * std_b, 1e-12)
    se_a = var_a / n_a
    se_b = var_b / n_b
    se = math.sqrt(se_a + se_b)
    t_stat = (mean_b - mean_a) / se
    dof_num = (se_a + se_b) ** 2
    dof_den = se_a ** 2 / (n_a - 1) + se_b ** 2 / (n_b - 1)
    dof = dof_num / max(dof_den, 1e-300)
    # Two-sided p-value: stdtr is Student's t CDF, so stdtr(dof, -|t|) is
    # the survival function scipy.stats.t.sf(|t|, dof) evaluates.
    p_value = float(2.0 * stdtr(dof, -abs(t_stat)))
    return WelchResult(
        t_statistic=float(t_stat),
        degrees_of_freedom=float(dof),
        p_value=p_value,
        mean_before=mean_a,
        mean_after=mean_b,
    )
