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
    "kernels",
    "langevin_table",
    "WRONSKIAN_TOL",
]

# Below this fraction of omega_sub the wronskian denominator is treated as
# singular and the sample invalid, its coefficients NaN (isolated times only).
WRONSKIAN_TOL = 1e-12


@dataclass(frozen=True)
class KernelSample:
    """Rotation kernels a(t), b(t), their first two time derivatives, and the
    coefficients omega_sq(t) and gamma(t), both NaN at an invalid sample: one
    where the wronskian |a b' - b a'| is below WRONSKIAN_TOL * omega_sub.

    Every field, ``delta`` and ``wronskian`` are shaped as ``mode_sum`` shapes t.
    """

    a: np.ndarray
    b: np.ndarray
    da: np.ndarray
    db: np.ndarray
    dda: np.ndarray
    ddb: np.ndarray
    omega_sq: np.ndarray
    gamma: np.ndarray

    @property
    def delta(self) -> np.ndarray:
        """Squared rotation amplitude a^2 + b^2 (1 at t=0, <=1 after)."""
        # np.square: a numpy scalar's ** can round unlike the array loop
        return np.square(self.a) + np.square(self.b)

    @property
    def wronskian(self) -> np.ndarray:
        """a b' - b a'; equals omega_sub at t = 0."""
        return self.a * self.db - self.b * self.da


def kernels(modes: NormalModes, t) -> KernelSample:
    """The KernelSample at t: a time, an array of times or a TimeGrid.

    With S_j = sum w alpha^j exp(-i alpha t), the kernels are a - i b = S_0,
    their first derivatives db + i da = S_1 and second -dda + i ddb = S_2.
    """
    w = modes.weights
    wa = w * modes.alphas
    s0, s1, s2 = mode_sum(modes.alphas, np.column_stack([w, wa, wa * modes.alphas]), t).T
    a, b, da, db, dda, ddb = s0.real, -s0.imag, s1.imag, s1.real, -s2.real, s2.imag
    wr = a * db - b * da
    valid = np.abs(wr) >= WRONSKIAN_TOL * modes.model.omega_sub
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_sq = (da * ddb - db * dda) / wr
        gamma = (b * dda - a * ddb) / wr
    # [()] turns the 0-d arrays of a single time into numpy scalars
    return KernelSample(a=a, b=b, da=da, db=db, dda=dda, ddb=ddb,
                        omega_sq=np.where(valid, omega_sq, np.nan)[()],
                        gamma=np.where(valid, gamma, np.nan)[()])


def langevin_table(modes: NormalModes, grid: TimeGrid) -> TimeSeries:
    """The columns a, b, delta, omega_sq and gamma of ``kernels`` over a grid."""
    _check_grid(grid)
    k = kernels(modes, grid)
    columns = {"a": k.a, "b": k.b, "delta": k.delta, "omega_sq": k.omega_sq, "gamma": k.gamma}
    return TimeSeries(grid=grid, columns=columns)
