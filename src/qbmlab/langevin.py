"""Time-dependent damping and frequency coefficients of the mean-value motion.

The mean position and scaled momentum evolve by a weighted sum of rotations
with kernels a(t), b(t).  Eliminating the momentum turns this into a second
order equation

    <X''> + omega_sq(t) <X> + gamma(t) <X'> = 0,

whose coefficients are ratios of kernel derivatives.  All derivatives are
analytic mode sums, never finite differences: the coefficient ratios amplify
numerical noise, and the mode sums are exact.

Times are read and refused as ``dynamics.mode_sum`` reads them, and
``langevin_table`` needs a TimeGrid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, TimeSeries, _check_grid, mode_sum
from .eigensolve import NormalModes

__all__ = [
    "KernelSample",
    "LangevinSample",
    "kernels",
    "langevin_coefficients",
    "langevin_table",
    "WRONSKIAN_TOL",
]

# Below this fraction of omega_sub the wronskian denominator is treated as
# singular and the sample flagged invalid (isolated times only).
WRONSKIAN_TOL = 1e-12


@dataclass(frozen=True)
class KernelSample:
    """Rotation kernels a(t), b(t) and their first two time derivatives.

    Every field, ``delta`` and ``wronskian`` are shaped as ``mode_sum`` shapes t.
    """

    a: np.ndarray
    b: np.ndarray
    da: np.ndarray
    db: np.ndarray
    dda: np.ndarray
    ddb: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        """Squared rotation amplitude a^2 + b^2 (1 at t=0, <=1 after)."""
        # np.square: a numpy scalar's ** can round unlike the array loop
        return np.square(self.a) + np.square(self.b)

    @property
    def wronskian(self) -> np.ndarray:
        """a b' - b a'; equals omega_sub at t = 0."""
        return self.a * self.db - self.b * self.da


@dataclass(frozen=True)
class LangevinSample:
    """omega_sq(t), gamma(t) and the valid flags, shaped as ``KernelSample``'s fields."""

    omega_sq: np.ndarray
    gamma: np.ndarray
    valid: np.ndarray


def kernels(modes: NormalModes, t) -> KernelSample:
    """Kernels and their derivatives at t: a time, an array of times or a TimeGrid.

    With S_j = sum w alpha^j exp(-i alpha t), the kernels are a - i b = S_0,
    their first derivatives db + i da = S_1 and second -dda + i ddb = S_2.
    """
    w = modes.weights
    wa = w * modes.alphas
    s0, s1, s2 = mode_sum(modes.alphas, np.column_stack([w, wa, wa * modes.alphas]), t).T
    return KernelSample(a=s0.real, b=-s0.imag, da=s1.imag, db=s1.real, dda=-s2.real, ddb=s2.imag)


def _langevin_pass(modes: NormalModes, t) -> tuple[KernelSample, LangevinSample]:
    """Kernels and coefficients at t, both shaped as ``kernels`` shapes t."""
    k = kernels(modes, t)
    wr = k.wronskian
    valid = np.abs(wr) >= WRONSKIAN_TOL * modes.model.omega_sub
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_sq = (k.da * k.ddb - k.db * k.dda) / wr
        gamma = (k.b * k.dda - k.a * k.ddb) / wr
    # [()] turns the 0-d arrays of a single time into numpy scalars
    return k, LangevinSample(omega_sq=np.where(valid, omega_sq, np.nan)[()],
                             gamma=np.where(valid, gamma, np.nan)[()], valid=valid)


def langevin_coefficients(modes: NormalModes, t) -> LangevinSample:
    """omega_sq(t) and gamma(t) at a time, an array of times or a TimeGrid.

    A sample is valid where |a b' - b a'| >= WRONSKIAN_TOL * omega_sub; the
    coefficients of an invalid sample, near a wronskian zero, are NaN.
    """
    return _langevin_pass(modes, t)[1]


def langevin_table(modes: NormalModes, grid: TimeGrid) -> TimeSeries:
    """Kernel and coefficient columns over a grid: a, b, delta, omega_sq, gamma.

    A sample is invalid, its omega_sq and gamma NaN, where the wronskian
    |a b' - b a'| falls below the fixed WRONSKIAN_TOL = 1e-12 of omega_sub.
    """
    _check_grid(grid)
    k, c = _langevin_pass(modes, grid)
    columns = {"a": k.a, "b": k.b, "delta": k.delta, "omega_sq": c.omega_sq, "gamma": c.gamma}
    return TimeSeries(grid=grid, columns=columns, valid=c.valid)
