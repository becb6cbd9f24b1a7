"""Exact one-quantum normal modes of the arrowhead eigenproblem.

The normal frequencies are the roots of the secular function

    f(alpha) = alpha - omega_sub - sum_n g_n^2 / (alpha - omega_n),

which is strictly increasing between consecutive poles, so exactly one root
lies in each open interval (omega_n, omega_{n+1}) and one more on each side of
the bath band.  Roots are found by safeguarded bisection on those brackets
(guaranteed convergence), polished by one secant step, and the mode weights
follow from the analytic normalization formula rather than from eigenvector
components.  Total cost O(N^2); evaluation is vectorized over disjoint
brackets in fixed-size chunks, which leaves the result independent of the
chunking (each bracket's iteration history depends only on itself).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import SpectralModel

__all__ = [
    "EigensolveError",
    "ConditioningWarning",
    "NormalModes",
    "ClosureReport",
    "secular_value",
    "solve_normal_modes",
    "dense_oracle",
    "verify_closure",
]

_CHUNK = 512
_MAX_BISECT = 300
_DENSE_CAP = 4096


class EigensolveError(RuntimeError):
    """Root bracketing or solver failure."""


class ConditioningWarning(UserWarning):
    """A normal frequency sits nearly on a bath pole."""


@dataclass
class NormalModes:
    """Solved normal frequencies and weights for one model.

    ``weights`` holds |Phi_nu|^2; the bath-mode coefficients phi_{nu,n} are not
    stored but generated on demand (O(N) memory for survival-only work).
    ``residuals`` holds the secular value at each accepted root so downstream
    code can judge conditioning.  Immutable by convention after solve.
    """

    model: SpectralModel
    alphas: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray

    @property
    def n_modes(self) -> int:
        return int(self.alphas.size)

    @property
    def amplitudes(self) -> np.ndarray:
        """Phi_nu with the real positive sign convention."""
        return np.sqrt(self.weights)

    def pole_ratios(self) -> np.ndarray:
        """Matrix K[nu, n] = g_n / (alpha_nu - omega_n), shape (N+1, N)."""
        return self.model.couplings[None, :] / (
            self.alphas[:, None] - self.model.bath_freqs[None, :]
        )

    def bath_matrix(self) -> np.ndarray:
        """Bath coefficients phi[nu, n] = g_n Phi_nu / (alpha_nu - omega_n)."""
        return self.amplitudes[:, None] * self.pole_ratios()

    def validate(self, rel_tol: float = 1e-10) -> None:
        """Assert the exact-solution invariants; raises EigensolveError."""
        w = self.model.bath_freqs
        a = self.alphas
        if a.size != w.size + 1:
            raise EigensolveError(f"expected {w.size + 1} modes, have {a.size}")
        if not (np.all(a[1:-1] > w[:-1]) and np.all(a[1:-1] < w[1:])
                and a[0] < w[0] and a[-1] > w[-1] and np.all(np.diff(a) > 0)):
            raise EigensolveError("interlacing violated")
        if np.any(self.weights <= 0) or np.any(self.weights > 1.0 + 1e-12):
            raise EigensolveError("weights must lie in (0, 1]")
        if abs(self.weights.sum() - 1.0) > 1e-8:
            raise EigensolveError(f"weights sum to {self.weights.sum()!r}, not 1")
        trace = self.model.omega_sub + w.sum()
        if abs(a.sum() - trace) > rel_tol * abs(trace):
            raise EigensolveError("eigenvalue sum does not match matrix trace")


@dataclass(frozen=True)
class ClosureReport:
    """Max residuals of the completeness/orthogonality identities."""

    weight_norm: float      # |sum_nu |Phi_nu|^2 - 1|
    cross_max: float        # max_n |sum_nu Phi_nu phi_{nu,n}|
    bath_orth_max: float    # max_{n,m} |sum_nu phi_{nu,n} phi_{nu,m} - delta_nm|


def secular_value(alpha: float, model: SpectralModel) -> float:
    """Evaluate f(alpha); O(N) with pairwise summation in ascending n."""
    w = model.bath_freqs
    if np.any(alpha == w):
        raise EigensolveError(f"alpha = {alpha!r} is a pole of the secular function")
    g2 = model.couplings**2
    return float(alpha - model.omega_sub - np.sum(g2 / (alpha - w)))


def _secular_batch(alphas: np.ndarray, omega_sub: float, w: np.ndarray,
                   g2: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """f at each alpha; ``buf`` (rows >= alphas.size, N columns) is scratch.

    Evaluating in place in a reused C-contiguous buffer avoids two temporaries
    of size alphas.size x N per call and sums the same values in the same
    order, so the result is bitwise the same as without it.
    """
    if buf is None:
        buf = np.empty((alphas.size, w.size))
    d = buf[: alphas.size]
    np.subtract(alphas[:, None], w[None, :], out=d)
    with np.errstate(divide="ignore"):
        np.divide(g2[None, :], d, out=d)
    return alphas - omega_sub - d.sum(axis=1)


def _expand_exterior(omega_sub: float, w: np.ndarray, g2: np.ndarray,
                     side: str) -> float:
    """Geometrically expand an exterior bracket endpoint until f changes sign."""
    span = g2.sum() + abs(omega_sub - (w[0] if side == "left" else w[-1])) + 1.0
    for _ in range(200):
        if side == "left":
            x = w[0] - span
            f = x - omega_sub - float(np.sum(g2 / (x - w)))
            if f < 0:
                return x
        else:
            x = w[-1] + span
            f = x - omega_sub - float(np.sum(g2 / (x - w)))
            if f > 0:
                return x
        span *= 2.0
    raise EigensolveError(
        f"could not bracket the {side} exterior root after expansion to span {span:g} "
        f"(omega_sub={omega_sub:g}, band=[{w[0]:g}, {w[-1]:g}], sum g^2={g2.sum():g})"
    )


def solve_normal_modes(model: SpectralModel, rel_tol: float = 1e-13) -> NormalModes:
    """Find all N+1 roots and weights of the secular equation.

    Each root is refined to relative tolerance ``rel_tol`` (bracket width), then
    polished with one bracketed secant step.  Emits ConditioningWarning when a
    root lies within 1e-13 * omega_sub of a bath pole, where the weight formula
    loses digits.
    """
    if not (1e-16 < rel_tol < 1e-6):
        raise ValueError(f"rel_tol must lie in (1e-16, 1e-6), got {rel_tol}")
    omega_sub = model.omega_sub
    w = model.bath_freqs
    g2 = model.couplings**2
    n = w.size

    lo = np.empty(n + 1)
    hi = np.empty(n + 1)
    eps = np.finfo(float).eps
    # interior endpoints sit just off the poles; f -> -inf / +inf there
    lo[1:] = np.maximum(np.nextafter(w, np.inf), w * (1.0 + 4.0 * eps))
    hi[:n] = np.minimum(np.nextafter(w, -np.inf), w * (1.0 - 4.0 * eps))
    lo[0] = _expand_exterior(omega_sub, w, g2, "left")
    hi[n] = _expand_exterior(omega_sub, w, g2, "right")
    if np.any(lo >= hi):
        bad = int(np.flatnonzero(lo >= hi)[0])
        raise EigensolveError(
            f"degenerate bracket for root {bad}: bath frequencies too close "
            f"({lo[bad]!r} >= {hi[bad]!r})"
        )

    alphas = np.empty(n + 1)
    residuals = np.empty(n + 1)
    buf = np.empty((min(_CHUNK, n + 1), n))
    for start in range(0, n + 1, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n + 1))
        alphas[sl] = _bisect_chunk(lo[sl].copy(), hi[sl].copy(), omega_sub, w, g2,
                                   rel_tol, buf)
        residuals[sl] = _secular_batch(alphas[sl], omega_sub, w, g2, buf)

    weights = np.empty(n + 1)
    min_gap = np.empty(n + 1)
    g = model.couplings
    for start in range(0, n + 1, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n + 1))
        d = alphas[sl, None] - w[None, :]
        weights[sl] = 1.0 / (1.0 + ((g[None, :] / d) ** 2).sum(axis=1))
        min_gap[sl] = np.abs(d).min(axis=1)

    worst = float(min_gap.min())
    if worst < 1e-13 * omega_sub:
        warnings.warn(
            f"normal frequency within {worst:.3e} of a bath pole "
            f"(< 1e-13 * omega_sub); weights may be inaccurate",
            ConditioningWarning,
            stacklevel=2,
        )

    modes = NormalModes(model=model, alphas=alphas, weights=weights, residuals=residuals)
    modes.validate()
    return modes


def _bisect_chunk(lo: np.ndarray, hi: np.ndarray, omega_sub: float,
                  w: np.ndarray, g2: np.ndarray, rel_tol: float,
                  buf: np.ndarray) -> np.ndarray:
    """Bisection with freeze-on-convergence, then one bracketed secant step."""
    idx = np.arange(lo.size)
    cur_lo, cur_hi = lo, hi
    for _ in range(_MAX_BISECT):
        scale = np.maximum(np.abs(cur_lo[idx]), np.abs(cur_hi[idx]))
        live = (cur_hi[idx] - cur_lo[idx]) > rel_tol * scale
        idx = idx[live]
        if idx.size == 0:
            break
        mid = 0.5 * (cur_lo[idx] + cur_hi[idx])
        f = _secular_batch(mid, omega_sub, w, g2, buf)
        neg = f < 0
        cur_lo[idx[neg]] = mid[neg]
        cur_hi[idx[~neg]] = mid[~neg]

    f_lo = _secular_batch(cur_lo, omega_sub, w, g2, buf)
    f_hi = _secular_batch(cur_hi, omega_sub, w, g2, buf)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        denom = f_hi - f_lo
        sec = cur_hi - f_hi * (cur_hi - cur_lo) / denom
        ok = np.isfinite(sec) & (sec > cur_lo) & (sec < cur_hi)
    return np.where(ok, sec, 0.5 * (cur_lo + cur_hi))


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
        residuals = _secular_batch(vals, model.omega_sub, model.bath_freqs,
                                   model.couplings**2)
    modes = NormalModes(
        model=model,
        alphas=vals,
        weights=vecs[0, :] ** 2,
        residuals=residuals,
    )
    modes.validate()
    return modes


def verify_closure(modes: NormalModes) -> ClosureReport:
    """Residuals of the three completeness/orthogonality identities."""
    phi = modes.bath_matrix()
    amp = modes.amplitudes
    n = modes.model.n_osc
    weight_norm = abs(float(modes.weights.sum()) - 1.0)
    cross = amp @ phi
    gram = phi.T @ phi - np.eye(n)
    return ClosureReport(
        weight_norm=weight_norm,
        cross_max=float(np.abs(cross).max()),
        bath_orth_max=float(np.abs(gram).max()),
    )
