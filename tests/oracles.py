"""Reference checks of the package that only the tests call.

Each is a slow or dense restatement of something the package computes in
closed form: the secular function summed over every pole at once, the
O(N^3) ``eigh`` solve, the O(N^2) closure identities, the
eliminated Langevin equation on its own trajectories, and the long-time
averages behind ``asymptotic_mean_occupation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbmlab.dynamics import TimeGrid
from qbmlab.eigensolve import EigensolveError, NormalModes
from qbmlab.langevin import kernels
from qbmlab.model import SpectralModel

_DENSE_CAP = 4096


@dataclass(frozen=True)
class ClosureReport:
    """Max residuals of the completeness/orthogonality identities."""

    weight_norm: float      # |sum_nu |Phi_nu|^2 - 1|
    cross_max: float        # max_n |sum_nu Phi_nu phi_{nu,n}|
    bath_orth_max: float    # max_{n,m} |sum_nu phi_{nu,n} phi_{nu,m} - delta_nm|


def secular_batch(alphas: np.ndarray, omega_sub: float, w: np.ndarray,
                  g2: np.ndarray) -> np.ndarray:
    """f at each alpha, in one alphas.size x N block, the sum pairwise in ascending n.
    An alpha on a pole gives an infinite f."""
    d = alphas[:, None] - w[None, :]
    with np.errstate(divide="ignore"):
        np.divide(g2[None, :], d, out=d)
    return alphas - omega_sub - d.sum(axis=1)


def secular_value(alpha: float, model: SpectralModel) -> float:
    """Evaluate f(alpha); O(N) with pairwise summation in ascending n."""
    if np.any(alpha == model.bath_freqs):
        raise EigensolveError(f"alpha = {float(alpha)!r} is a pole of the secular function")
    return float(secular_batch(np.array([alpha], dtype=float), model.omega_sub,
                               model.bath_freqs, model.couplings**2)[0])


def dense_oracle(model: SpectralModel) -> NormalModes:
    """Cross-check path: assemble the full arrowhead matrix and diagonalize it.

    Weights come from the squared first component of each normalized
    eigenvector.  Size-capped: this is the O(N^3) reference, not the
    production path.
    """
    n = model.n_osc
    if n > _DENSE_CAP:
        raise EigensolveError(f"dense oracle capped at N = {_DENSE_CAP}, got {n}")
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = model.omega_sub
    h[0, 1:] = model.couplings
    h[1:, 0] = model.couplings
    diag = np.arange(1, n + 1)
    h[diag, diag] = model.bath_freqs
    vals, vecs = np.linalg.eigh(h)
    with np.errstate(divide="ignore", invalid="ignore"):
        residuals = secular_batch(vals, model.omega_sub, model.bath_freqs,
                                  model.couplings**2)
    modes = NormalModes(
        model=model,
        alphas=vals,
        weights=vecs[0, :] ** 2,
        residuals=residuals,
    )
    modes.validate()
    return modes


def bath_matrix(modes: NormalModes) -> np.ndarray:
    """Bath coefficients phi[nu, n] = g_n Phi_nu / (alpha_nu - omega_n)."""
    return np.sqrt(modes.weights)[:, None] * modes.pole_ratios()


def verify_closure(modes: NormalModes) -> ClosureReport:
    """Residuals of the three completeness/orthogonality identities."""
    phi = bath_matrix(modes)
    amp = np.sqrt(modes.weights)
    n = modes.model.n_osc
    weight_norm = abs(float(modes.weights.sum()) - 1.0)
    cross = amp @ phi
    gram = phi.T @ phi - np.eye(n)
    return ClosureReport(
        weight_norm=weight_norm,
        cross_max=float(np.abs(cross).max()),
        bath_orth_max=float(np.abs(gram).max()),
    )


@dataclass(frozen=True)
class OdeResidualReport:
    """Worst-case residual of the eliminated-momentum equation."""

    max_residual: float
    x_scale: float          # max |<X>| over the grid and trials
    n_samples: int
    n_invalid: int


def verify_langevin_ode(modes: NormalModes, grid: TimeGrid,
                        n_trials: int = 4) -> OdeResidualReport:
    """Plug the analytic trajectories back into the eliminated equation.

    The coefficients are constructed by elimination, so the residual should be
    pure rounding for every initial condition; a large residual indicates an
    inconsistency between kernels and coefficients.  The initial conditions
    are drawn from a fixed seed.  Invalid (singular) samples are excluded and
    counted.
    """
    k = kernels(modes, grid)
    valid = ~np.isnan(k.omega_sq)
    rng = np.random.default_rng(20)
    worst = 0.0
    x_scale = 0.0
    for _ in range(n_trials):
        x0, p0 = rng.uniform(-1.0, 1.0, size=2)
        x = k.a * x0 + k.b * p0
        dx = k.da * x0 + k.db * p0
        ddx = k.dda * x0 + k.ddb * p0
        resid = ddx + k.omega_sq * x + k.gamma * dx
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


def theta_profile(modes: NormalModes) -> np.ndarray:
    """Long-time transfer profile theta_N(omega_n) = sum_nu (|Phi_nu|^2 K_nun)^2.

    Equals the time average of P_0n(t); peaks at the resonant bath frequency
    and sharpens toward a delta profile as the bath becomes dense.
    """
    k = modes.pole_ratios()
    return ((modes.weights[:, None] * k) ** 2).sum(axis=0)


def long_time_average_survival(modes: NormalModes) -> float:
    """Cesaro mean of the survival probability: sum_nu |Phi_nu|^4."""
    return float(np.sum(modes.weights**2))
