"""Scaling-law fits for complexity experiments.

The paper's claims are asymptotic (``Θ(n²)``, ``O(n^{7/4} log² n)``,
``O(n log n)``, ...).  Experiments measure stabilisation time over a
range of ``n`` and summarise the growth by a least-squares fit of
``log t`` against ``log n`` — the fitted slope is the empirical
exponent.  Polylogarithmic factors can be divided out first
(``log_correction``) so e.g. ``n log n`` data fits exponent ≈ 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from ..core.engine import make_rng
from ..exceptions import ExperimentError

__all__ = ["PowerLawFit", "fit_power_law", "bootstrap_exponent_interval"]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``t ≈ coefficient · x^exponent`` (log–log)."""

    exponent: float
    coefficient: float
    r_squared: float
    log_correction: float
    num_points: int

    def predict(self, x: float) -> float:
        """Model value at ``x`` (including the log correction factor)."""
        base = self.coefficient * x**self.exponent
        if self.log_correction:
            base *= math.log(x) ** self.log_correction
        return base

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``n^2.03 (R²=0.999)``."""
        logs = (
            f"·log^{self.log_correction:g}(n)" if self.log_correction else ""
        )
        return f"n^{self.exponent:.2f}{logs} (R²={self.r_squared:.3f})"


def fit_power_law(
    xs: Sequence[float],
    ys: Sequence[float],
    log_correction: float = 0.0,
) -> PowerLawFit:
    """Fit ``y ≈ c · x^e · log(x)^log_correction``.

    ``log_correction`` divides the data by ``log(x)^q`` before the
    log–log regression, so the returned exponent isolates the
    polynomial part of a poly·polylog law.
    """
    if len(xs) != len(ys):
        raise ExperimentError("fit needs equal-length x and y vectors")
    if len(xs) < 2:
        raise ExperimentError(f"fit needs at least 2 points, got {len(xs)}")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ExperimentError("power-law fit needs x > 0 and y > 0")
    if log_correction and any(x <= 1 for x in xs):
        raise ExperimentError("log-corrected fits need x > 1")
    x_arr = np.asarray(xs, dtype=float)
    y_arr = np.asarray(ys, dtype=float)
    if log_correction:
        y_arr = y_arr / np.log(x_arr) ** log_correction
    log_x = np.log(x_arr)
    log_y = np.log(y_arr)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predicted = slope * log_x + intercept
    residual = log_y - predicted
    total = log_y - log_y.mean()
    denom = float(total @ total)
    r_squared = 1.0 - float(residual @ residual) / denom if denom else 1.0
    return PowerLawFit(
        exponent=float(slope),
        coefficient=float(math.exp(intercept)),
        r_squared=r_squared,
        log_correction=log_correction,
        num_points=len(xs),
    )


def bootstrap_exponent_interval(
    xs: Sequence[float],
    ys: Sequence[float],
    log_correction: float = 0.0,
    num_resamples: int = 1000,
    confidence: float = 0.95,
    seed: Union[int, np.random.Generator, None] = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the fitted exponent.

    Resamples (x, y) points with replacement; degenerate resamples
    (fewer than two distinct x) are rejected and redrawn.
    """
    rng = make_rng(seed)
    n = len(xs)
    if n < 3:
        raise ExperimentError("bootstrap needs at least 3 points")
    exponents = []
    while len(exponents) < num_resamples:
        idx = rng.integers(0, n, size=n)
        sample_x = [xs[i] for i in idx]
        if len(set(sample_x)) < 2:
            continue
        sample_y = [ys[i] for i in idx]
        exponents.append(
            fit_power_law(sample_x, sample_y, log_correction).exponent
        )
    lo = float(np.quantile(exponents, (1 - confidence) / 2))
    hi = float(np.quantile(exponents, 1 - (1 - confidence) / 2))
    return lo, hi
