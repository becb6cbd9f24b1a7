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

The poles and couplings do not change during a solve, so the sum over the
poles far from a root is one smooth function of x for the whole solve (the
far-field split of Greengard & Rokhlin, J. Comput. Phys. 73, 1987, which
Livne & Brandt, SIAM J. Matrix Anal. Appl. 24, 2002, apply to the secular
equation).  The poles form clusters of m ~ 2 sqrt(N).  Each sweep sums the
poles of the near window of a root's cluster term by term, split at the root's
pole index, and the rest through the Chebyshev tables of the Cauchy-sum kernel
(``_cauchy.FarField``), built once per solve; the kernel widens a window
beyond the cluster and its neighbours until an a-priori bound keeps the
tables' error far below the rounding of f.  One more such sweep at the roots
gives their residuals and weights.  The sweeps then cost O(N m) and the tables
O(N^2 p / m); ``NormalModes.validate`` audits one root per cluster
against exact sums, O(N^2 / m), so with m ~ 2 sqrt(N) the solve is O(N^1.5 p).
In process on 2 vCPUs (numpy 2.4.6, OpenBLAS 0.3.31) N+1 = 4096 takes about
0.10 s and 16384 about 0.6 s.  Roots of a cluster whose window grows to cover
every pole, and every root of a small solve, keep the exact sum over all
poles.  Evaluation is vectorized over disjoint brackets in chunks sized to fit
in cache, which leaves the result independent of the chunking (each bracket's
iteration history depends only on itself).

A solve that fails raises EigensolveError, a ``QbmlabError`` and a RuntimeError.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _cauchy
from .model import QbmlabError, SpectralModel

__all__ = [
    "EigensolveError",
    "ConditioningWarning",
    "NormalModes",
    "solve_normal_modes",
    "REL_TOL",
]

# the root iteration stops at a model step of at most REL_TOL * |x|
REL_TOL = 1e-13

# each of the two chunk x N scratch buffers of the root iteration stays within
# this budget, so the passes over them run from cache: at N = 4096 on a 2-core
# Xeon with 2 MiB L2 per core, 16-64 rows measured equally fast, and 256 rows
# or 4 rows 1.5-2x slower
_SCRATCH_BYTES = 1 << 20
_MAX_ITER = 300
# a solve with fewer than _MIN_CLUSTERS clusters (N < 1024) keeps every sweep
# exact: its per-cluster chunks cost more interpreter time than the far field
# saves (on 2 cores N+1 = 200 and 500 solved 2.5x and 1.4x slower with 3 and 7
# clusters, 800 1.1x faster with 12)
_MIN_CLUSTERS = 16


class EigensolveError(QbmlabError, RuntimeError):
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
    the residual sweep), ``safeguard_fallbacks`` the iterates replaced by a
    bracket midpoint, and ``min_pole_offset`` is the smallest |alpha - omega_n|.
    The far field is recorded too (``_cauchy.FarField``): the clusters of
    poles tabulated at ``chebyshev_points`` points each (0 when none was), the
    clusters summed exactly (whose window would cover every pole, or all below
    ``_MIN_CLUSTERS``), and ``far_field_bound``, the largest a-priori bound of
    a tabulated cluster relative to sum |g^2/(x - omega_n)| (0 if none).  Roots of tabulated
    clusters take their residuals and weights from the same near-plus-far
    sums as the iteration; the others from the exact sum over all poles.
    ``residual_ratio`` is the largest |residual| / sum_n |g_n^2/(alpha - omega_n)|
    of the roots.  ``validate`` records its exact audit in
    ``audit_residual_error`` and ``audit_weight_error``.
    Immutable by convention after solve.
    """

    model: SpectralModel
    alphas: np.ndarray
    weights: np.ndarray
    residuals: np.ndarray
    secular_evaluations: int = 0
    safeguard_fallbacks: int = 0
    min_pole_offset: float = math.nan
    tabulated_clusters: int = 0
    exact_clusters: int = 0
    chebyshev_points: int = 0
    far_field_bound: float = 0.0
    residual_ratio: float = math.nan
    audit_residual_error: float = math.nan
    audit_weight_error: float = math.nan

    @property
    def n_modes(self) -> int:
        return int(self.alphas.size)

    def pole_ratios(self) -> np.ndarray:
        """Matrix K[nu, n] = g_n / (alpha_nu - omega_n), shape (N+1, N)."""
        return self.model.couplings[None, :] / (
            self.alphas[:, None] - self.model.bath_freqs[None, :]
        )

    def validate(self) -> None:
        """Assert the exact-solution invariants; raises EigensolveError.

        Besides interlacing, the weight sum and the trace, an exact audit
        recomputes from exact sums (``_exact_sums``) the residual of both
        exterior roots, of the root closest to a pole and of the first root of
        every cluster, and the weight of each where the weights come
        from the normalization formula (``secular_evaluations > 0``; modes
        built without the solver, say from eigenvectors, keep their weights
        unaudited).  It raises when a residual is
        off by more than ``_audit_limit(N)`` of |alpha - omega_sub| +
        sum |g^2/(alpha - omega_n)|, the scale of its rounding, or a weight by
        more than ``_audit_limit(N)`` relative, and records the worst
        deviations in ``audit_residual_error`` and ``audit_weight_error`` (the
        latter nan when weights are not audited).
        """
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
        if abs(a.sum() - trace) > 1e-10 * abs(trace):
            raise EigensolveError("eigenvalue sum does not match matrix trace")
        self.audit_residual_error, self.audit_weight_error = _audit(self)
        limit = _audit_limit(w.size)
        if self.audit_residual_error > limit:
            raise EigensolveError(
                f"residual off its exact sum by {self.audit_residual_error:.3g} "
                f"of its scale (limit {limit:.3g})")
        if self.audit_weight_error > limit:
            raise EigensolveError(
                f"weight off its exact sum by {self.audit_weight_error:.3g} relative "
                f"(limit {limit:.3g})")


def _audit_limit(n: int) -> float:
    """The largest deviation ``NormalModes.validate`` allows an audited residual
    (relative to |alpha - omega_sub| + sum |g^2/(alpha - omega_n)|) or weight
    (relative) of a solve with n poles.

    numpy sums a row of n terms pairwise (``pairwise_sum``: blocks of at most
    128 terms in 8 running sums, then halving), so each term passes through
    at most k = 25 + bit_length((n - 1) // 128) roundings and the sum errs by
    at most k u sum |terms|, u = eps/2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §4.2).  Eight more roundings cover the
    subtractions and the division that follow, and on tabulated clusters the
    near terms rounded in another order and the far field, whose a-priori
    bound is within u/8 (its rounding in the barycentric formula is not
    bounded a priori; at tabulated roots it stayed within 2.1 eps on every
    bath tried).  The limit is 19 eps at N+1 = 4096 and 20 eps at 16384.
    """
    return (33 + ((n - 1) // 128).bit_length()) * 0.5 * np.finfo(float).eps


def _audit(modes: NormalModes) -> tuple[float, float]:
    """Worst |residual - exact| / (|alpha - omega_sub| + sum |g^2/(alpha - omega)|)
    and |weight - exact weight| / weight of the roots ``NormalModes.validate``
    audits (nan for weights it skips), the references from ``_exact_sums``."""
    model = modes.model
    w, g, a = model.bath_freqs, model.couplings, modes.alphas
    n = w.size
    pole_offset = np.minimum(np.r_[math.inf, a[1:] - w], np.r_[w - a[:-1], math.inf])
    # the first root of every cluster, tabulated or not
    picks = np.unique(np.r_[0, n, np.argmin(pole_offset), _cluster_edges(n)[:-1] + 1])
    residual_error, weight_error = 0.0, (0.0 if modes.secular_evaluations else math.nan)
    # 2 rows per root in a quarter of the scratch, so that the temporaries of
    # _exact_sums stay within about the scratch
    rows = max(1, _SCRATCH_BYTES // (64 * (n + 2)))
    for start in range(0, picks.size, rows):
        nus = picks[start:start + rows]
        k = nus.size
        # rows 0..k-1: alpha - omega_sub - sum g^2/d; rows k..2k-1: sum (g/d)^2
        terms = np.zeros((2 * k, n + 2))
        terms[:k, 0], terms[:k, 1] = a[nus], -model.omega_sub
        d = a[nus, None] - w
        # a root not found by the solver may fall on a pole; its deviation is then
        # nan, not raised
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(-g**2, d, out=terms[:k, 2:n + 2])
            np.square(np.divide(g, d, out=terms[k:, :n]), out=terms[k:, :n])
        # the residual is (alpha - omega_sub) - sum: its rounding scales with both
        scale = np.abs(terms[:k, 2:n + 2]).sum(axis=1) + np.abs(a[nus] - model.omega_sub)
        exact = _exact_sums(terms)
        deviation = np.abs(modes.residuals[nus] - exact[:k])
        # np.max and np.maximum keep a nan, which Python's max may drop
        residual_error = float(np.maximum(residual_error, np.max(
            np.divide(deviation, scale, out=np.zeros(k), where=scale > 0))))
        if modes.secular_evaluations:
            weight = 1.0 / (1.0 + exact[k:])
            weight_error = float(np.maximum(
                weight_error, np.max(np.abs(modes.weights[nus] - weight) / weight)))
    return residual_error, weight_error


def _exact_sums(t: np.ndarray) -> np.ndarray:
    """Row sums of t within u |sum| + 4 k n (n + 2) u^2 max|t| (n terms, u = eps/2,
    k as in ``_audit_limit``), by one error-free extraction per row (Rump, Ogita &
    Oishi, SIAM J. Sci. Comput. 31, 2008).

    sigma = 2^(e + bit_length(n + 2)) with max|t| < 2^e lies in ((n + 2) max|t|,
    4 (n + 2) max|t|].  Then hi = fl(fl(sigma + t) - sigma) is a multiple of
    u sigma, and lo = t - hi is exact and at most u sigma.  Every partial sum of
    the hi is a multiple of u sigma below sigma, so a float: the hi sum exactly.
    numpy sums the lo pairwise, at most k roundings each, within k u * n u sigma,
    and adding the two sums rounds once: 2.6e-23 max|t| beyond u |sum| at
    N+1 = 4096.  A row with an inf or nan term, or with sigma past overflow, is nan.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        _, e = np.frexp(np.abs(t).max(axis=1))
        sigma = np.ldexp(1.0, e + (t.shape[1] + 2).bit_length())[:, None]
        hi = (sigma + t) - sigma
        return hi.sum(axis=1) + (t - hi).sum(axis=1)


def solve_normal_modes(model: SpectralModel) -> NormalModes:
    """Find all N+1 roots and weights of the secular equation.

    Each root is found by a safeguarded rational iteration inside its pole
    bracket (see the module docstring).  It stops when f is exactly zero, when
    |f| is within its rounding-error bound, or when a model step is at most
    ``REL_TOL`` * |x| = 1e-13 |x|, a fixed tolerance; the last model iterate
    is then returned.  Iterates that leave the bracket are replaced by its
    midpoint.  Raises EigensolveError when a root has not converged after
    ``_MAX_ITER`` evaluations.  Emits ConditioningWarning when a root lies
    within 1e-13 * omega_sub of a bath pole, where the weight formula loses
    digits.
    """
    omega_sub = model.omega_sub
    w = model.bath_freqs
    g = model.couplings
    n = w.size
    eps = np.finfo(float).eps
    # an iterate may sit one ulp off a pole, where sum g^2/(x - omega)^2 must stay finite
    g_max, closest = float(np.abs(g).max()), 0.5 * eps * float(np.abs(w).min())
    if not g_max < closest * math.sqrt(np.finfo(float).max / (4 * n)):
        raise EigensolveError(
            f"couplings up to {g_max!r} are too strong for the secular sums next to "
            f"bath frequencies down to {float(np.abs(w).min())!r}")
    g2 = g**2

    lo = np.empty(n + 1)
    hi = np.empty(n + 1)
    # interior endpoints sit just off the poles; f -> -inf / +inf there
    lo[1:] = np.maximum(np.nextafter(w, np.inf), w * (1.0 + 4.0 * eps))
    hi[:n] = np.minimum(np.nextafter(w, -np.inf), w * (1.0 - 4.0 * eps))
    # Weyl: every root lies within ||g||_2 of diag(omega_sub, w); pad for rounding
    g_norm = math.sqrt(g2.sum())
    low, high = min(omega_sub, w[0]), max(omega_sub, w[-1])
    lo[0] = low - g_norm - 4.0 * eps * (abs(low) + g_norm)
    hi[n] = high + g_norm + 4.0 * eps * (abs(high) + g_norm)
    ends = np.array([lo[0], hi[n]])
    below, above, _, _ = _pole_sums(ends, np.array([0, n]), w, g2, np.empty(2 * n),
                                    np.empty(2 * n))
    f_ends = ends - omega_sub - (below + above)
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

    field = _far_field(w)
    rows = min(max(1, _SCRATCH_BYTES // (8 * n)), n + 1)
    width = 0 if field is None else int(np.diff(field.starts).max())
    buf = np.empty(max(rows * n, 3 * width * width))
    aux = np.empty_like(buf)
    alphas = np.empty(n + 1)
    residuals = np.empty(n + 1)
    abs_sums = np.empty(n + 1)
    weights = np.empty(n + 1)
    evaluations = fallbacks = 0
    for nus, window, far in _chunks(w, g2, field, rows, buf, aux):
        x, steps, falls = _iterate_chunk(
            nus, lo[nus], hi[nus], omega_sub, w, g2, window, far, buf, aux)
        evaluations += steps
        fallbacks += falls
        alphas[nus] = x
        if far is None:
            # the exact kernel: one alpha - omega block d, sums of g^2/d give f,
            # of (g/d)^2 the weights
            d = buf[: nus.size * n].reshape(-1, n)
            np.subtract(x[:, None], w, out=d)
            terms = aux[: d.size].reshape(d.shape)
            np.divide(g2, d, out=terms)
            residuals[nus] = x - omega_sub - terms.sum(axis=1)
            below, above = _split_sums(terms, nus)
            np.divide(g, d, out=terms)
            np.square(terms, out=terms)
            weights[nus] = 1.0 / (1.0 + terms.sum(axis=1))
        else:
            # the iteration's near and far sums, once more at the roots
            below, above, left, right = _pole_sums(x, nus - window.start, w[window],
                                                   g2[window], buf, aux, far)
            residuals[nus] = x - omega_sub - (below + above)
            weights[nus] = 1.0 / (1.0 + left + right)
        abs_sums[nus] = below - above

    # with interlacing roots the closest pole of each root is a bracketing one
    worst = float(min(np.abs(alphas[1:] - w).min(), np.abs(w - alphas[:-1]).min()))
    if worst < 1e-13 * omega_sub:
        warnings.warn(
            f"normal frequency within {worst:.3e} of a bath pole "
            f"(< 1e-13 * omega_sub); weights may be inaccurate",
            ConditioningWarning,
            stacklevel=2,
        )

    ratios = np.divide(np.abs(residuals), abs_sums, out=np.zeros(n + 1), where=abs_sums > 0)
    tabulated = 0 if field is None else sum(win is not None for win in field.windows)
    modes = NormalModes(model=model, alphas=alphas, weights=weights, residuals=residuals,
                        secular_evaluations=evaluations, safeguard_fallbacks=fallbacks,
                        min_pole_offset=worst,
                        tabulated_clusters=tabulated,
                        exact_clusters=_cluster_edges(n).size - 1 - tabulated,
                        chebyshev_points=_cauchy.POINTS if tabulated else 0,
                        far_field_bound=0.0 if field is None else field.bound,
                        residual_ratio=float(ratios.max()))
    modes.validate()
    return modes


def _cluster_edges(n: int) -> np.ndarray:
    """First pole of each cluster, and n.

    Clusters of m = 2 sqrt(n) consecutive poles balance the O(n^2 p / m)
    far-field tables against the O(n m) near field of each sweep: on 2 cores,
    m from sqrt(2n) to sqrt(8n) solved N+1 = 4096 and 16384 within 5% of the
    fastest.
    """
    count = max(1, n // (2 * math.isqrt(n)))
    return np.arange(count + 1) * n // count


def _far_field(w: np.ndarray) -> _cauchy.FarField | None:
    """The far field of the sweeps over the poles ``w`` (None below ``_MIN_CLUSTERS``
    clusters): cluster c of ``_cluster_edges`` holds roots edges[c] + 1 ..
    edges[c+1] in the box from pole edges[c] to pole edges[c+1] or the last."""
    edges = _cluster_edges(w.size)
    if edges.size - 1 < _MIN_CLUSTERS:
        return None
    return _cauchy.FarField(w, edges, w[np.minimum(edges, w.size - 1)])


def _chunks(w: np.ndarray, g2: np.ndarray, field: _cauchy.FarField | None, rows: int,
            buf: np.ndarray, aux: np.ndarray):
    """(roots, near window, far) for each chunk of roots of one solve, far
    mapping roots to the tabulated sums over the poles outside the window, or
    None (exterior roots, clusters without a window or far field) for chunks
    of ``rows`` roots that sum every pole.  Near blocks fit in ``buf``."""
    n = w.size

    def exact(nus):
        return [(nus[i:i + rows], slice(0, n), None) for i in range(0, nus.size, rows)]

    if field is None:
        yield from exact(np.arange(n + 1))
        return
    yield from exact(np.array([0, n]))
    for c, window in enumerate(field.windows):
        nus = np.arange(field.starts[c] + 1, min(field.starts[c + 1] + 1, n))
        if window is None:
            yield from exact(nus)
            continue
        table = field.table(c, g2, buf, aux)
        far = functools.partial(field.evaluate, c, table=table)
        size = max(1, buf.size // (window.stop - window.start))
        for i in range(0, nus.size, size):
            yield nus[i:i + size], window, far


def _split_sums(t: np.ndarray, split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of each row of t over its first ``split[i]`` columns and over the rest."""
    k, n = t.shape
    cut = np.minimum(split, n - 1)
    offsets = np.empty(2 * k, dtype=np.intp)
    offsets[0::2] = np.arange(k) * n
    offsets[1::2] = offsets[0::2] + cut
    sums = np.add.reduceat(t.reshape(-1), offsets)
    # reduceat gives an empty left part the value of its first element; a row
    # with no pole above x has its last column in the right part
    left, right = sums[0::2], sums[1::2]
    left[cut == 0] = 0.0
    top = split == n
    left[top] += right[top]
    right[top] = 0.0
    return left, right


def _pole_sums(x: np.ndarray, split: np.ndarray, w: np.ndarray, g2: np.ndarray,
               buf: np.ndarray, aux: np.ndarray, far=None):
    """sum g^2/(x-w) over the poles below and above each x, and the same of g^2/(x-w)^2.

    ``w`` and ``g2`` are the poles summed term by term and ``split[i]`` is
    the number of them below ``x[i]``; ``far`` adds the interpolated sums over
    the other poles (``_chunks``).  ``buf`` and ``aux`` are flat scratch of
    at least x.size * w.size.  One subtraction and two divisions per term;
    each row's sums are split at its own pole index.
    """
    k, n = x.size, w.size
    d = buf[:k * n].reshape(k, n)
    t = aux[:k * n].reshape(k, n)
    np.subtract(x[:, None], w, out=d)
    np.divide(g2, d, out=t)
    below, above = _split_sums(t, split)
    np.divide(t, d, out=t)
    left, right = _split_sums(t, split)
    if far is not None:
        sums = far(x)
        below, above = below + sums[:, 0], above + sums[:, 1]
        left, right = left + sums[:, 2], right + sums[:, 3]
    return below, above, left, right


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
                   w: np.ndarray, g2: np.ndarray, window: slice, far, buf: np.ndarray,
                   aux: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Roots ``nus`` from their brackets; returns roots, evaluations, fallbacks.

    The poles in ``window`` are summed term by term and ``far`` adds the rest
    (``_chunks``).  Every row's history depends only on its own bracket, so
    the result does not depend on how roots are grouped into chunks.
    """
    w, g2 = w[window], g2[window]
    eps = np.finfo(float).eps
    roots = np.empty(nus.size)
    live = np.arange(nus.size)
    x = 0.5 * (lo + hi)
    evaluations = fallbacks = 0
    for _ in range(_MAX_ITER):
        split = nus[live] - window.start
        below, above, left, right = _pole_sums(x, split, w, g2, buf, aux, far)
        f = x - omega_sub - (below + above)
        evaluations += live.size
        neg = f < 0
        lo[live[neg]] = x[neg]
        hi[live[~neg]] = x[~neg]
        step = _model_step(x, split, f, left, right, w)
        y = x + step
        in_noise = np.abs(f) <= 8.0 * eps * (np.abs(x) + abs(omega_sub) + (below - above))
        a, b = lo[live], hi[live]
        converged = ((y >= a) & (y <= b)
                     & ((np.abs(step) <= REL_TOL * np.abs(x)) | (y == x)))
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
