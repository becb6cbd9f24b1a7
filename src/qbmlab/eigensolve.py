"""Exact one-quantum normal modes of the arrowhead eigenproblem.

The normal frequencies are the roots of the secular function

    f(alpha) = alpha - omega_sub - sum_n g_n^2 / (alpha - omega_n),

which is strictly increasing between consecutive poles, so exactly one root
lies in each open interval (omega_n, omega_{n+1}) and one more on each side of
the bath band.  Each root is found by a safeguarded rational iteration on its
bracket, after Li's "middle way" (LAPACK Working Note 89, the method of
LAPACK's dlaed4): at the iterate x one pass over the bath gives f(x), the
derivative sums over the poles below and above x, and sum |g_n^2/(x-omega_n)|,
which bounds the rounding error of f.  The next iterate is the root of a
rational model that matches f and f' at x (two poles for interior roots, one
pole plus the linear term for the two exterior roots).  The sign of f shrinks
the bracket at every iterate, and an iterate that leaves the bracket is
replaced by its midpoint, so bisection survives only as the safeguard.  A
root takes about 3-5 evaluations of f.  The mode weights follow from the
analytic normalization formula rather than from eigenvector components.
Total cost O(N^2); evaluation is vectorized over disjoint brackets in chunks
sized to fit in cache, which leaves the result independent of the chunking
(each bracket's iteration history depends only on itself).
"""

from __future__ import annotations

import math
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

# each of the two chunk x N scratch buffers of the root iteration stays within
# this budget, so the passes over them run from cache: at N = 4096 on a 2-core
# Xeon with 2 MiB L2 per core, 16-64 rows measured equally fast, and 256 rows
# or 4 rows 1.5-2x slower
_SCRATCH_BYTES = 1 << 20
_MAX_ITER = 300
_REL_TOL_MIN, _REL_TOL_MAX = 1e-16, 1e-6
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
    code can judge conditioning.  The solver's effort is recorded with it:
    ``secular_evaluations`` counts evaluations of f in the root iteration (not
    the residual pass), ``safeguard_fallbacks`` the iterates replaced by a
    bracket midpoint, and ``min_pole_offset`` is the smallest |alpha - omega_n|.
    Immutable by convention after solve.
    """

    model: SpectralModel
    alphas: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    secular_evaluations: int = 0
    safeguard_fallbacks: int = 0
    min_pole_offset: float = math.nan

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
            raise EigensolveError(f"weights sum to {float(self.weights.sum())!r}, not 1")
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
        raise EigensolveError(f"alpha = {float(alpha)!r} is a pole of the secular function")
    g2 = model.couplings**2
    return float(alpha - model.omega_sub - np.sum(g2 / (alpha - w)))


def _secular_batch(alphas: np.ndarray, omega_sub: float, w: np.ndarray,
                   g2: np.ndarray) -> np.ndarray:
    """f at each alpha, in one alphas.size x N block."""
    d = alphas[:, None] - w[None, :]
    with np.errstate(divide="ignore"):
        np.divide(g2[None, :], d, out=d)
    return alphas - omega_sub - d.sum(axis=1)


def solve_normal_modes(model: SpectralModel, rel_tol: float = 1e-13) -> NormalModes:
    """Find all N+1 roots and weights of the secular equation.

    Each root is found by a safeguarded rational iteration inside its pole
    bracket (see the module docstring).  It stops when f is exactly zero, when
    |f| is within its rounding-error bound, or when a model step is at most
    ``rel_tol * |x|``; the last model iterate is then returned.  Iterates that
    leave the bracket are replaced by its midpoint.  Raises EigensolveError
    when a root has not converged after ``_MAX_ITER`` evaluations.  Emits
    ConditioningWarning when a root lies within 1e-13 * omega_sub of a bath
    pole, where the weight formula loses digits.
    """
    if not (_REL_TOL_MIN < rel_tol < _REL_TOL_MAX):
        raise ValueError(
            f"rel_tol must lie in ({_REL_TOL_MIN:g}, {_REL_TOL_MAX:g}), got {rel_tol}")
    omega_sub = model.omega_sub
    w = model.bath_freqs
    g = model.couplings
    g2 = g**2
    n = w.size

    lo = np.empty(n + 1)
    hi = np.empty(n + 1)
    eps = np.finfo(float).eps
    # interior endpoints sit just off the poles; f -> -inf / +inf there
    lo[1:] = np.maximum(np.nextafter(w, np.inf), w * (1.0 + 4.0 * eps))
    hi[:n] = np.minimum(np.nextafter(w, -np.inf), w * (1.0 - 4.0 * eps))
    # Weyl: every root lies within ||g||_2 of diag(omega_sub, w); pad for rounding
    g_norm = math.sqrt(g2.sum())
    low, high = min(omega_sub, w[0]), max(omega_sub, w[-1])
    lo[0] = low - g_norm - 4.0 * eps * (abs(low) + g_norm)
    hi[n] = high + g_norm + 4.0 * eps * (abs(high) + g_norm)
    f_ends = _secular_batch(np.array([lo[0], hi[n]]), omega_sub, w, g2)
    if not (f_ends[0] < 0 < f_ends[1]):
        raise EigensolveError(
            f"exterior brackets [{float(lo[0])!r}, {float(hi[n])!r}] do not enclose "
            f"the roots (f = {float(f_ends[0])!r}, {float(f_ends[1])!r})")
    if np.any(lo >= hi):
        bad = int(np.flatnonzero(lo >= hi)[0])
        raise EigensolveError(
            f"degenerate bracket for root {bad}: bath frequencies too close "
            f"({float(lo[bad])!r} >= {float(hi[bad])!r})"
        )

    rows = max(1, _SCRATCH_BYTES // (8 * n))
    buf = np.empty((min(rows, n + 1), n))
    aux = np.empty_like(buf)
    alphas = np.empty(n + 1)
    residuals = np.empty(n + 1)
    weights = np.empty(n + 1)
    evaluations = fallbacks = 0
    for start in range(0, n + 1, rows):
        sl = slice(start, min(start + rows, n + 1))
        alphas[sl], steps, falls = _iterate_chunk(
            np.arange(sl.start, sl.stop), lo[sl].copy(), hi[sl].copy(),
            omega_sub, w, g2, rel_tol, buf, aux)
        evaluations += steps
        fallbacks += falls
        # one alpha - omega block d: sums of g^2/d give f, of (g/d)^2 the weights
        d = buf[: sl.stop - sl.start]
        np.subtract(alphas[sl, None], w, out=d)
        terms = aux[: d.shape[0]]
        np.divide(g2, d, out=terms)
        residuals[sl] = alphas[sl] - omega_sub - terms.sum(axis=1)
        np.divide(g, d, out=terms)
        np.square(terms, out=terms)
        weights[sl] = 1.0 / (1.0 + terms.sum(axis=1))

    # with interlacing roots the closest pole of each root is a bracketing one
    worst = float(min(np.abs(alphas[1:] - w).min(), np.abs(w - alphas[:-1]).min()))
    if worst < 1e-13 * omega_sub:
        warnings.warn(
            f"normal frequency within {worst:.3e} of a bath pole "
            f"(< 1e-13 * omega_sub); weights may be inaccurate",
            ConditioningWarning,
            stacklevel=2,
        )

    modes = NormalModes(model=model, alphas=alphas, weights=weights, residuals=residuals,
                        secular_evaluations=evaluations, safeguard_fallbacks=fallbacks,
                        min_pole_offset=worst)
    modes.validate()
    return modes


def _secular_parts(x: np.ndarray, split: np.ndarray, omega_sub: float, w: np.ndarray,
                   g2: np.ndarray, buf: np.ndarray, aux: np.ndarray):
    """f(x), the derivative sums over poles below and above x, and sum |g^2/(x-w)|.

    ``split[i]`` is the number of poles below ``x[i]``; ``buf`` and ``aux`` are
    scratch (rows >= x.size, N columns).  One subtraction and two divisions
    per element; each row's sums are split at its own pole index.
    """
    k, n = x.size, w.size
    d = buf[:k]
    t = aux[:k]
    np.subtract(x[:, None], w, out=d)
    np.divide(g2, d, out=t)
    cut = np.minimum(split, n - 1)
    offsets = np.empty(2 * k, dtype=np.intp)
    offsets[0::2] = np.arange(k) * n
    offsets[1::2] = offsets[0::2] + cut
    flat = t.reshape(-1)
    terms = np.add.reduceat(flat, offsets)
    np.divide(t, d, out=t)
    slopes = np.add.reduceat(flat, offsets)
    # reduceat gives an empty left part the value of its first element; a row
    # with no pole above x has its last column in the right part
    for sums in (terms, slopes):
        left, right = sums[0::2], sums[1::2]
        left[cut == 0] = 0.0
        top = split == n
        left[top] += right[top]
        right[top] = 0.0
    f = x - omega_sub - (terms[0::2] + terms[1::2])
    return f, slopes[0::2], slopes[1::2], terms[0::2] - terms[1::2]


def _model_step(x: np.ndarray, split: np.ndarray, f: np.ndarray, left: np.ndarray,
                right: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Step from x to the root of a rational model that matches f and f' at x.

    Interior roots: f ~ c - s_a/(y-a) - s_b/(y-b) with a, b the bracketing
    poles, s_a = (x-a)^2 (left + 1/2) and s_b = (x-b)^2 (right + 1/2).
    Exterior roots: f ~ c + y - s/(y-p) with p the nearest pole and
    s = (x-p)^2 (left + right), which is exact for a single bath oscillator
    and stays fast when the linear term dominates far from the band.  Each
    model root is a quadratic root, taken in the form without cancellation.
    """
    n = w.size
    slope = 1.0 + left + right
    inner = (split > 0) & (split < n)
    da = w[np.maximum(split - 1, 0)] - x     # < 0 where a pole lies below
    db = w[np.minimum(split, n - 1)] - x     # > 0 where a pole lies above
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # interior: c eta^2 - b eta + c0 = 0 for the step eta = y - x
        prod = -da * db
        c = f - da * (left + 0.5) - db * (right + 0.5)
        b = f * (da + db) + prod * slope
        c0 = -f * prod
        root = np.sqrt(b * b - 4.0 * c * c0)
        two_pole = np.where(b > 0, 2.0 * c0 / (b + root), (b - root) / (2.0 * c))
        # exterior: eta^2 - e eta - f p = 0 with p the nearest pole minus x
        p = np.where(split == 0, db, da)
        sign = np.sign(p)
        e = p * slope - f
        root = sign * np.sqrt(e * e + 4.0 * f * p)
        one_pole = np.where(sign * e < 0, 0.5 * (e - root), -2.0 * f * p / (e + root))
    return np.where(inner, two_pole, one_pole)


def _iterate_chunk(nus: np.ndarray, lo: np.ndarray, hi: np.ndarray, omega_sub: float,
                   w: np.ndarray, g2: np.ndarray, rel_tol: float, buf: np.ndarray,
                   aux: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Roots ``nus`` from their brackets; returns roots, evaluations, fallbacks.

    Every row's history depends only on its own bracket, so the result does
    not depend on how roots are grouped into chunks.
    """
    eps = np.finfo(float).eps
    roots = np.empty(nus.size)
    live = np.arange(nus.size)
    x = 0.5 * (lo + hi)
    evaluations = fallbacks = 0
    for _ in range(_MAX_ITER):
        nu = nus[live]
        f, left, right, abs_sum = _secular_parts(x, nu, omega_sub, w, g2, buf, aux)
        evaluations += live.size
        neg = f < 0
        lo[live[neg]] = x[neg]
        hi[live[~neg]] = x[~neg]
        step = _model_step(x, nu, f, left, right, w)
        y = x + step
        in_noise = np.abs(f) <= 8.0 * eps * (np.abs(x) + abs(omega_sub) + abs_sum)
        a, b = lo[live], hi[live]
        converged = ((y >= a) & (y <= b)
                     & ((np.abs(step) <= rel_tol * np.abs(x)) | (y == x)))
        inside = (y > a) & (y < b)
        mid = 0.5 * (a + b)
        # no float lies strictly inside the bracket: x is as close as it gets
        stuck = ~inside & ~((mid > a) & (mid < b))
        done = in_noise | converged | stuck
        roots[live[done]] = np.where(converged, y, x)[done]
        fallbacks += int(np.count_nonzero(~inside & ~done))
        keep = ~done
        live = live[keep]
        if live.size == 0:
            return roots, evaluations, fallbacks
        x = np.where(inside, y, mid)[keep]
    bad = int(live[0])
    raise EigensolveError(
        f"root {int(nus[bad])} did not converge in {_MAX_ITER} secular evaluations; "
        f"last bracket [{float(lo[bad])!r}, {float(hi[bad])!r}]"
    )


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
