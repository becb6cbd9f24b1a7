"""Time-dependent damping and frequency coefficients of the mean-value motion.

The mean position and scaled momentum evolve by a weighted sum of rotations
with kernels a(t), b(t).  Eliminating the momentum turns this into a second
order equation

    <X''> + omega_sq(t) <X> + gamma(t) <X'> = 0,

whose coefficients are ratios of kernel derivatives.  All derivatives are
analytic mode sums, never finite differences: the coefficient ratios amplify
numerical noise, and the mode sums are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, TimeSeries, mode_sum
from .eigensolve import NormalModes

__all__ = [
    "KernelSample",
    "LangevinSample",
    "OdeResidualReport",
    "kernels",
    "kernel_arrays",
    "langevin_coefficients",
    "langevin_table",
    "verify_langevin_ode",
    "DEFAULT_WRONSKIAN_TOL",
]

# Below this fraction of omega_sub the wronskian denominator is treated as
# singular and the sample flagged invalid (isolated times only).
DEFAULT_WRONSKIAN_TOL = 1e-12


@dataclass(frozen=True)
class KernelSample:
    """Rotation kernels and their first two time derivatives at one time."""

    t: float
    a: float
    b: float
    da: float
    db: float
    dda: float
    ddb: float

    @property
    def delta(self) -> float:
        """Squared rotation amplitude a^2 + b^2 (1 at t=0, <=1 after)."""
        return self.a**2 + self.b**2

    @property
    def wronskian(self) -> float:
        """a b' - b a'; equals omega_sub at t = 0."""
        return self.a * self.db - self.b * self.da


@dataclass(frozen=True)
class LangevinSample:
    t: float
    omega_sq: float
    gamma: float
    valid: bool


@dataclass(frozen=True)
class OdeResidualReport:
    """Worst-case residual of the eliminated-momentum equation."""

    max_residual: float
    x_scale: float          # max |<X>| over the grid and trials
    n_samples: int
    n_invalid: int


def kernel_arrays(modes: NormalModes, ts: np.ndarray | TimeGrid):
    """Arrays (a, b, da, db, dda, ddb) over the given times (an array or a TimeGrid).

    With S_j = sum w alpha^j exp(-i alpha t), the kernels are a - i b = S_0,
    their first derivatives db + i da = S_1 and second -dda + i ddb = S_2.
    """
    w = modes.weights
    wa = w * modes.alphas
    s = mode_sum(modes.alphas, np.column_stack([w, wa, wa * modes.alphas]), ts)
    return s[:, 0].real, -s[:, 0].imag, s[:, 1].imag, s[:, 1].real, -s[:, 2].real, s[:, 2].imag


def _langevin_pass(modes: NormalModes, ts, wronskian_tol: float = DEFAULT_WRONSKIAN_TOL):
    """Kernels (a, b, da, db, dda, ddb), omega_sq, gamma and valid flags over the times.

    A sample is valid where |a b' - b a'| >= wronskian_tol * omega_sub; the
    coefficients of an invalid sample are NaN.
    """
    arrays = a, b, da, db, dda, ddb = kernel_arrays(modes, ts)
    wr = a * db - b * da
    valid = np.abs(wr) >= wronskian_tol * modes.model.omega_sub
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_sq = (da * ddb - db * dda) / wr
        gamma = (b * dda - a * ddb) / wr
    omega_sq = np.where(valid, omega_sq, np.nan)
    gamma = np.where(valid, gamma, np.nan)
    return arrays, omega_sq, gamma, valid


def kernels(modes: NormalModes, t: float) -> KernelSample:
    """Kernels and derivatives at a single time."""
    a, b, da, db, dda, ddb = (float(v[0]) for v in _langevin_pass(modes, [t])[0])
    return KernelSample(t=float(t), a=a, b=b, da=da, db=db, dda=dda, ddb=ddb)


def langevin_coefficients(
    modes: NormalModes, t: float, wronskian_tol: float = DEFAULT_WRONSKIAN_TOL
) -> LangevinSample:
    """Instantaneous omega_sq(t) and gamma(t); invalid near wronskian zeros."""
    _, omega_sq, gamma, valid = _langevin_pass(modes, [t], wronskian_tol)
    return LangevinSample(t=float(t), omega_sq=float(omega_sq[0]), gamma=float(gamma[0]),
                          valid=bool(valid[0]))


def langevin_table(
    modes: NormalModes, grid: TimeGrid, wronskian_tol: float = DEFAULT_WRONSKIAN_TOL
) -> TimeSeries:
    """Kernel and coefficient columns over a grid: a, b, delta, omega_sq, gamma."""
    (a, b, *_), omega_sq, gamma, valid = _langevin_pass(modes, grid, wronskian_tol)
    columns = {"a": a, "b": b, "delta": a**2 + b**2, "omega_sq": omega_sq, "gamma": gamma}
    return TimeSeries(grid=grid, columns=columns, valid=valid)


def verify_langevin_ode(
    modes: NormalModes,
    grid: TimeGrid,
    n_trials: int = 4,
    seed: int = 20,
    wronskian_tol: float = DEFAULT_WRONSKIAN_TOL,
) -> OdeResidualReport:
    """Plug the analytic trajectories back into the eliminated equation.

    The coefficients are constructed by elimination, so the residual should be
    pure rounding for every initial condition; a large residual indicates an
    inconsistency between kernels and coefficients.  Invalid (singular)
    samples are excluded and counted.
    """
    (a, b, da, db, dda, ddb), omega_sq, gamma, valid = _langevin_pass(
        modes, grid, wronskian_tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    x_scale = 0.0
    for _ in range(n_trials):
        x0, p0 = rng.uniform(-1.0, 1.0, size=2)
        x = a * x0 + b * p0
        dx = da * x0 + db * p0
        ddx = dda * x0 + ddb * p0
        resid = ddx + omega_sq * x + gamma * dx
        finite = valid & np.isfinite(resid)
        if finite.any():
            worst = max(worst, float(np.abs(resid[finite]).max()))
        x_scale = max(x_scale, float(np.abs(x).max()))
    return OdeResidualReport(
        max_residual=worst,
        x_scale=x_scale,
        n_samples=grid.count * n_trials,
        n_invalid=int(np.count_nonzero(~valid)) * n_trials,
    )
