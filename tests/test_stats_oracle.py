"""The two statistics kernels equal ``scipy.stats`` bit for bit.

``impact.py``'s slope test and ``stats_tests.py``'s Welch p-value avoid
importing ``scipy.stats`` (it is most of ``import repro``'s cost), yet
their t-statistics and p-values go raw into audit payloads.  So
``scipy.stats`` stays the oracle here, and the bar is bit-identity with
NaN in the same places, not closeness.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as scipy_stats

from repro.recommender.impact import _slope_and_stderr
from repro.validation.stats_tests import welch_t_test


def _same(ours: float, theirs: float) -> bool:
    return ours == theirs or (math.isnan(ours) and math.isnan(theirs))


def test_kernels_match_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(20_000)
    series_kinds = {"constant": 0, "linear": 0, "noisy": 0}
    nan_stderrs = 0
    for draw in range(900):
        n = int(rng.integers(3, 201))
        # Snapshot times: increasing, distinct, hours apart.
        xs = np.cumsum(rng.uniform(0.1, 6.0, n)).tolist()
        kind = ("constant", "linear", "noisy")[draw % 3]
        series_kinds[kind] += 1
        if kind == "constant":
            # An integer level has an exact mean (zero variance, NaN
            # stderr); a fractional one may not (a rounding-sized one).
            level = rng.integers(0, 10_000) + (draw % 2) * rng.uniform()
            ys = [float(level)] * n
        else:
            slope = float(rng.uniform(-50.0, 500.0))
            ys = [slope * x + 7.0 for x in xs]
            if kind == "noisy":
                ys = (np.array(ys) + rng.normal(0.0, 40.0, n)).tolist()
        ours = _slope_and_stderr(xs, ys)
        oracle = scipy_stats.linregress(xs, ys)
        assert _same(ours[0], float(oracle.slope)), (kind, n)
        assert _same(ours[1], float(oracle.stderr)), (kind, n)
        nan_stderrs += math.isnan(ours[1])
    assert series_kinds["constant"] == 300
    assert 150 <= nan_stderrs <= 300

    dofs = []
    for _draw in range(3000):
        # Sample sizes 2..5001 put the Welch dof anywhere in [1, 10^4].
        n_a, n_b = (int(v) for v in np.exp(rng.uniform(np.log(2), np.log(5002), 2)))
        result = welch_t_test(
            float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 60.0)), n_a,
            float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 60.0)), n_b,
        )
        oracle = float(
            2.0
            * scipy_stats.t.sf(
                abs(result.t_statistic), result.degrees_of_freedom
            )
        )
        assert _same(result.p_value, oracle), (n_a, n_b)
        dofs.append(result.degrees_of_freedom)
    assert min(dofs) < 2.0 and max(dofs) > 5_000.0
