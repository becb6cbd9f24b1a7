"""Recurrence-time estimates, revival detection, and decay-segment fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import TimeSeries
from .eigensolve import NormalModes

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


class RecurrenceError(ValueError):
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


def _half_crossing(t, y, i_peak, level, direction):
    """Interpolated time where y crosses `level` walking away from the peak."""
    i = i_peak
    n = len(y)
    while 0 < i < n - 1:
        j = i - 1 if direction < 0 else i + 1
        if y[j] < level:
            frac = (y[i] - level) / (y[i] - y[j])
            return float(t[i] + frac * (t[j] - t[i]))
        i = j
    return float(t[0] if direction < 0 else t[-1])


def detect_revivals(
    series: TimeSeries,
    column: str,
    threshold: float = 0.5,
    min_separation: float = 0.0,
    plateau: float | None = None,
) -> list[Peak]:
    """Local maxima above a plateau-relative threshold, sub-sample refined.

    The detection level is plateau + threshold*(first sample - plateau); the
    boundary samples are never peaks (the initial condition is not a revival).
    When two candidates fall within ``min_separation`` the higher one wins.
    """
    if not 0.0 < threshold < 1.0:
        raise RecurrenceError(f"threshold must lie in (0, 1), got {threshold}")
    y = series.column(column)
    t = series.times
    if plateau is None:
        plateau = float(np.median(y))
    level = plateau + threshold * (float(y[0]) - plateau)

    inner = np.arange(1, len(y) - 1)
    is_max = (y[inner] >= y[inner - 1]) & (y[inner] >= y[inner + 1]) & (
        (y[inner] > y[inner - 1]) | (y[inner] > y[inner + 1])
    )
    cand = inner[is_max & (y[inner] > level)]

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

    The window is rejected if any sample inside it is not above the plateau:
    fitting a log through nonpositive values would be meaningless.
    """
    t_lo, t_hi = window
    t = series.times
    if t_lo >= t_hi:
        raise RecurrenceError(f"empty window {window}")
    mask = (t >= t_lo) & (t <= t_hi) & series.valid
    if np.count_nonzero(mask) < 2:
        raise RecurrenceError(f"window {window} contains fewer than 2 samples")
    y = series.column(column)[mask] - plateau
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


def _fit_window(
    modes: NormalModes, t_p: float, gamma_est: float | None
) -> tuple[float, float]:
    """Decay-fit window avoiding the quadratic onset and revival contamination.

    The upper end is capped at 1.5 decay times: the discrete-bath decay rate
    drifts upward as the mode sum dephases, and windows several decay times
    long systematically overestimate the width.
    """
    omega = modes.model.omega_sub
    hi = 0.2 * t_p
    if gamma_est is not None and gamma_est > 0:
        hi = min(hi, 1.5 / gamma_est)
    return (3.0 / omega, hi)


def _gamma_estimate(modes: NormalModes) -> float | None:
    """Continuum-width estimate 2*pi*g^2(Omega)/spacing for equidistant grids."""
    from .continuum import ContinuumError, width_from_discrete

    try:
        return width_from_discrete(modes.model)
    except ContinuumError:
        return None


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
    column's median.
    """
    tp = poincare_time(modes)
    if column == "N_omega" and series.plateau is not None:
        plateau = series.plateau
    else:
        plateau = float(np.median(series.column(column)))
    peaks = detect_revivals(series, column, threshold=threshold,
                            min_separation=tp.t_poincare / 4.0, plateau=plateau)
    spacing = None
    if len(peaks) >= 2:
        spacing = float(np.mean(np.diff([p.time for p in peaks])))

    gamma_fit = residual = window = None
    w = _fit_window(modes, tp.t_poincare, _gamma_estimate(modes))
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
