"""Recurrence-time estimates, revival detection, and decay-segment fitting.

Every reader here skips NaN samples, the invalid ones.  A threshold outside
(0, 1), a negative or non-finite separation, a plateau that is not finite or
the median of a column of NaN only, and a window that is not a pair
t_lo < t_hi holding two samples above the plateau raise RecurrenceError, a
``QbmlabError`` and a ValueError; an unknown column raises KeyError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .continuum import width_from_discrete
from .dynamics import TimeSeries
from .eigensolve import NormalModes
from .model import QbmlabError

__all__ = [
    "RecurrenceError",
    "PoincareTime",
    "Peak",
    "ExponentialFit",
    "RecurrenceReport",
    "poincare_time",
    "detect_revivals",
    "fit_exponential",
    "analyze",
]


class RecurrenceError(QbmlabError, ValueError):
    """Bad window or column for a recurrence analysis."""


class PoincareTime(NamedTuple):
    t_poincare: float
    min_gap: float
    index: int


@dataclass(frozen=True)
class Peak:
    """One detected revival: refined position, height, and flank shape."""

    time: float
    height: float
    width: float
    rise_slope: float
    fall_slope: float

    @property
    def asymmetry(self) -> float:
        """|rise| / |fall|; > 1 when the growing side is steeper."""
        if self.fall_slope == 0:
            return math.inf
        return abs(self.rise_slope / self.fall_slope)


@dataclass(frozen=True)
class ExponentialFit:
    gamma: float
    residual: float          # rms residual of the log-space fit
    n_points: int
    window: tuple[float, float]


@dataclass(frozen=True)
class RecurrenceReport:
    t_poincare: float
    min_gap: float
    gap_index: int
    plateau: float
    peaks: tuple[Peak, ...]
    peak_spacing: float | None
    gamma_fit: float | None
    fit_residual: float | None
    fit_window: tuple[float, float] | None


def poincare_time(modes: NormalModes) -> PoincareTime:
    """2*pi over the smallest gap between consecutive normal frequencies."""
    gaps = np.diff(modes.alphas)
    idx = int(np.argmin(gaps))
    min_gap = float(gaps[idx])
    return PoincareTime(t_poincare=2.0 * math.pi / min_gap, min_gap=min_gap, index=idx)


def _median_plateau(y: np.ndarray) -> float:
    """Median of the column's samples that are not NaN."""
    kept = y[~np.isnan(y)]
    if kept.size == 0:
        raise RecurrenceError("no median plateau: every sample of the column is NaN")
    return float(np.median(kept))


def _half_crossing(t, y, i, level, direction):
    """Interpolated time where y crosses `level` walking from the peak at i by
    ``direction`` (+1 or -1); else the last time before the series end or a NaN."""
    j = i + direction
    while 0 <= j < len(y) and not np.isnan(y[j]):
        if y[j] < level:
            frac = (y[i] - level) / (y[i] - y[j])
            return float(t[i] + frac * (t[j] - t[i]))
        i, j = j, j + direction
    return float(t[i])


def detect_revivals(
    series: TimeSeries,
    column: str,
    threshold: float = 0.5,
    min_separation: float = 0.0,
    plateau: float | None = None,
) -> list[Peak]:
    """Local maxima above a plateau-relative threshold, sub-sample refined.

    The detection level is plateau + threshold*(first sample - plateau), the
    first sample that is not NaN.  NaN samples are left out: each other sample
    is compared with its nearest samples that are not NaN, and the first and
    last of them are never peaks (the initial condition is not a revival).
    When two candidates fall within ``min_separation`` the higher one wins.
    """
    if not 0.0 < threshold < 1.0:
        raise RecurrenceError(f"threshold must lie in (0, 1), got {threshold}")
    if not 0.0 <= min_separation < math.inf:
        raise RecurrenceError(f"min_separation must be finite and >= 0, got {min_separation}")
    y = series.column(column)
    t = series.times
    if plateau is None:
        plateau = _median_plateau(y)
    elif not math.isfinite(plateau):
        raise RecurrenceError(f"plateau must be finite, got {plateau}")
    # argmax: the first sample that is not NaN, or y[0], a NaN that admits no peak
    level = plateau + threshold * (float(y[np.argmax(~np.isnan(y))]) - plateau)

    # each sample that is not NaN is judged against the nearest such samples
    idx = np.flatnonzero(~np.isnan(y))
    v, left, right = y[idx[1:-1]], y[idx[:-2]], y[idx[2:]]
    is_max = (v >= left) & (v >= right) & ((v > left) | (v > right))
    cand = idx[1:-1][is_max & (v > level)]

    kept: list[int] = []
    for i in sorted(cand, key=lambda i: -y[i]):
        if all(abs(t[i] - t[j]) >= min_separation for j in kept):
            kept.append(i)
    kept.sort()

    dt = series.grid.dt
    peaks = []
    for i in kept:
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom < 0:
            shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
            t_star = float(t[i] + shift * dt)
            h_star = float(y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift)
        else:
            t_star, h_star = float(t[i]), float(y[i])
        half = plateau + 0.5 * (h_star - plateau)
        t_left = _half_crossing(t, y, i, half, -1)
        t_right = _half_crossing(t, y, i, half, +1)
        rise = (h_star - half) / (t_star - t_left) if t_star > t_left else math.inf
        fall = (h_star - half) / (t_right - t_star) if t_right > t_star else math.inf
        peaks.append(Peak(time=t_star, height=h_star, width=t_right - t_left,
                          rise_slope=rise, fall_slope=fall))
    return peaks


def fit_exponential(
    series: TimeSeries,
    column: str,
    window: tuple[float, float],
    plateau: float,
) -> ExponentialFit:
    """Least-squares decay rate of log(column - plateau) over the window.

    NaN samples are skipped, and the window is rejected if any other sample in it
    is not above the plateau: a log through nonpositive values is meaningless.
    """
    if np.shape(window) != (2,):
        raise RecurrenceError(f"window must be a pair (t_lo, t_hi), got {window}")
    if not math.isfinite(plateau):
        raise RecurrenceError(f"plateau must be finite, got {plateau}")
    t_lo, t_hi = window
    t = series.times
    if t_lo >= t_hi:
        raise RecurrenceError(f"empty window {window}")
    y = series.column(column)
    mask = (t >= t_lo) & (t <= t_hi) & ~np.isnan(y)
    if np.count_nonzero(mask) < 2:
        raise RecurrenceError(f"window {window} contains fewer than 2 samples")
    y = y[mask] - plateau
    if np.any(y <= 0):
        raise RecurrenceError(
            f"window {window} rejected: column minus plateau is not positive everywhere"
        )
    tw = t[mask]
    logy = np.log(y)
    slope, intercept = np.polyfit(tw, logy, 1)
    resid = logy - (slope * tw + intercept)
    return ExponentialFit(
        gamma=float(-slope),
        residual=float(np.sqrt(np.mean(resid**2))),
        n_points=int(tw.size),
        window=(float(t_lo), float(t_hi)),
    )


def _fit_window(modes: NormalModes, t_p: float) -> tuple[float, float]:
    """Decay-fit window avoiding the quadratic onset and revival contamination.

    On an equidistant grid the upper end is capped at 1.5 decay times of the
    continuum width 2*pi*g^2(Omega)/spacing: the discrete-bath decay rate
    drifts upward as the mode sum dephases, and windows several decay times
    long systematically overestimate the width.
    """
    model = modes.model
    hi = 0.2 * t_p
    gamma = width_from_discrete(model) if model.uniform_spacing() is not None else 0.0
    if gamma > 0:
        hi = min(hi, 1.5 / gamma)
    return (3.0 / model.omega_sub, hi)


def analyze(
    modes: NormalModes,
    series: TimeSeries,
    column: str = "N_omega",
    threshold: float = 0.5,
) -> RecurrenceReport:
    """Full recurrence report: t_P, revivals, and quasi-exponential fit.

    The plateau of "N_omega" is the series' own ``plateau``, the long-time
    mean of <N_sub(t)> that ``evolve_series`` stores with the column; any
    other column, and an N_omega column without a stored plateau, takes the
    median of the column's samples that are not NaN.
    """
    tp = poincare_time(modes)
    if column == "N_omega" and series.plateau is not None:
        plateau = series.plateau
    else:
        plateau = _median_plateau(series.column(column))
    peaks = detect_revivals(series, column, threshold=threshold,
                            min_separation=tp.t_poincare / 4.0, plateau=plateau)
    spacing = None
    if len(peaks) >= 2:
        spacing = float(np.mean(np.diff([p.time for p in peaks])))

    gamma_fit = residual = window = None
    w = _fit_window(modes, tp.t_poincare)
    t = series.times
    w = (max(w[0], float(t[0])), min(w[1], float(t[-1])))
    if w[0] < w[1]:
        # shorten the window to the segment that stays above the plateau:
        # once the excess falls into the fluctuation floor the log-fit is
        # meaningless and the strict fit would reject the whole window
        y = series.column(column)
        inside = (t >= w[0]) & (t <= w[1])
        bad = inside & (y <= plateau)
        if bad.any():
            first_bad = int(np.flatnonzero(bad)[0])
            w = (w[0], float(t[first_bad] - series.grid.dt))
        if np.count_nonzero((t >= w[0]) & (t <= w[1])) >= 16:
            try:
                fit = fit_exponential(series, column, w, plateau)
            except RecurrenceError:
                pass
            else:
                gamma_fit, residual, window = fit.gamma, fit.residual, fit.window

    return RecurrenceReport(
        t_poincare=tp.t_poincare,
        min_gap=tp.min_gap,
        gap_index=tp.index,
        plateau=plateau,
        peaks=tuple(peaks),
        peak_spacing=spacing,
        gamma_fit=gamma_fit,
        fit_residual=residual,
        fit_window=window,
    )
