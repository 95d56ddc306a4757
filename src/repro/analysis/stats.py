"""Summary statistics for repeated stochastic runs.

The paper's guarantees are "with high probability" statements; the
experiments therefore repeat every measurement and report medians,
spreads and empirical success rates (with Wilson confidence intervals
rather than the unstable normal approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import ExperimentError

__all__ = ["Summary", "summarise", "wilson_interval", "geometric_mean"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    def describe(self) -> str:
        """Compact ``median [min..max]`` rendering used in tables."""
        return f"{self.median:.3g} [{self.minimum:.3g}..{self.maximum:.3g}]"


def summarise(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample."""
    if not values:
        raise ExperimentError("cannot summarise an empty sample")
    arr = np.asarray(values, dtype=float)
    return Summary(
        count=len(values),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if len(values) > 1 else 0.0,
        minimum=float(arr.min()),
        p25=float(np.quantile(arr, 0.25)),
        median=float(np.quantile(arr, 0.5)),
        p75=float(np.quantile(arr, 0.75)),
        maximum=float(arr.max()),
    )


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the boundaries (0 or all successes), unlike the
    normal approximation — exactly the regime whp experiments live in.
    """
    if trials <= 0:
        raise ExperimentError("wilson_interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ExperimentError(
            f"successes {successes} outside [0, {trials}]"
        )
    p_hat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    centre = (p_hat + z2 / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials * trials))
        / denom
    )
    return max(0.0, centre - margin), min(1.0, centre + margin)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (natural for ratios like speedups)."""
    if not values:
        raise ExperimentError("cannot average an empty sample")
    if any(v <= 0 for v in values):
        raise ExperimentError("geometric mean needs positive values")
    return float(math.exp(np.mean(np.log(np.asarray(values, dtype=float)))))
