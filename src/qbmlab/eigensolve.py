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
poles far from a root is one smooth function of x for the whole solve
(the far-field split of Greengard & Rokhlin, J. Comput. Phys. 73, 1987, which
Livne & Brandt, SIAM J. Matrix Anal. Appl. 24, 2002, apply to the secular
equation).  The poles are grouped into clusters of m ~ 2 sqrt(N); each
sweep sums a root's own cluster and its two neighbours term by term, and
the rest through Chebyshev interpolants tabulated once per solve
(``_FarField``), where an a-priori bound keeps their error far below the
rounding of f.  The residuals and weights of those roots come from one more
such sweep at the roots.  The sweeps then cost O(N m) and the tables
O(N^2 p / m); ``NormalModes.validate`` audits one root per cluster against
math.fsum, O(N^2 / m), so with m ~ 2 sqrt(N) the solve is O(N^1.5 p).  In
process on 2 vCPUs (numpy 2.4.6, OpenBLAS 0.3.31) N+1 = 4096 takes about
0.10 s and 16384 about 0.6 s.  Roots of clusters that are not tabulated, and
every root of a small solve, keep the exact sum over all poles.  Evaluation is
vectorized over disjoint brackets in chunks sized to fit in cache, which
leaves the result independent of the chunking (each bracket's iteration
history depends only on itself).
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
# far field of the iteration sweeps (``_FarField``): a solve with fewer than
# _MIN_CLUSTERS clusters (N < 1024; the near/far split needs at least 3) keeps
# every sweep exact, since its per-cluster chunks cost more interpreter time
# than the far field saves (on 2 cores N+1 = 200 and 500 solved 2.5x and 1.4x
# slower with 3 and 7 clusters, 800 1.1x faster with 12).  A cluster is
# tabulated at _CHEB_POINTS Chebyshev points where its a-priori error bound is
# within _FAR_TOL (eps/16) of sum |terms|; on an equidistant bath it is 2.9e-18
_MIN_CLUSTERS = 16
_CHEB_POINTS = 24
_FAR_TOL = 2.0**-56
# ``NormalModes.validate`` sums the audited residuals and weights exactly, in
# blocks whose rows are first halved by this many TwoSum steps
_TWO_SUM_LEVELS = 6


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
    the residual sweep), ``safeguard_fallbacks`` the iterates replaced by a
    bracket midpoint, and ``min_pole_offset`` is the smallest |alpha - omega_n|.
    The far field is recorded too (``_FarField``): the clusters of poles whose
    far field was tabulated at ``chebyshev_points`` points each (0 when none
    was) and the clusters summed exactly, and ``far_field_bound`` is the
    largest a-priori bound of a tabulated cluster, relative to
    sum |g^2/(x - omega_n)| (0 when none was tabulated).  Roots of tabulated
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
        """Assert the exact-solution invariants; raises EigensolveError.

        Besides interlacing, the weight sum and the trace, an exact audit
        recomputes with math.fsum the residual of both exterior roots, of the
        root closest to a pole and, when the far field was tabulated, of the
        first root of every cluster, and the weight of each where the weights
        come from the normalization formula (``secular_evaluations > 0``; the
        dense oracle's come from eigenvectors).  It raises when a residual is
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
        if abs(a.sum() - trace) > rel_tol * abs(trace):
            raise EigensolveError("eigenvalue sum does not match matrix trace")
        self.audit_residual_error, self.audit_weight_error = _audit(self)
        limit = _audit_limit(w.size)
        if self.audit_residual_error > limit:
            raise EigensolveError(
                f"residual off its math.fsum value by {self.audit_residual_error:.3g} "
                f"of its scale (limit {limit:.3g})")
        if self.audit_weight_error > limit:
            raise EigensolveError(
                f"weight off its math.fsum value by {self.audit_weight_error:.3g} relative "
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
    """Worst |residual - fsum| / (|alpha - omega_sub| + sum |g^2/(alpha - omega)|)
    and |weight - fsum weight| / weight of the roots ``NormalModes.validate``
    audits (nan for weights it skips)."""
    model = modes.model
    w, g, a = model.bath_freqs, model.couplings, modes.alphas
    n = w.size
    pole_offset = np.minimum(np.r_[math.inf, a[1:] - w], np.r_[w - a[:-1], math.inf])
    picks = {0, n, int(np.argmin(pole_offset))}
    if modes.tabulated_clusters:
        picks.update((_cluster_edges(n)[:-1] + 1).tolist())
    picks = np.array(sorted(picks))
    residual_error, weight_error = 0.0, (0.0 if modes.secular_evaluations else math.nan)
    width = -(-(n + 2) // 2**_TWO_SUM_LEVELS) * 2**_TWO_SUM_LEVELS
    # 2 rows per root in a quarter of the scratch, so that the temporaries of
    # _fsum_rows stay within about the scratch
    rows = max(1, _SCRATCH_BYTES // (64 * width))
    for start in range(0, picks.size, rows):
        nus = picks[start:start + rows]
        k = nus.size
        # rows 0..k-1: alpha - omega_sub - sum g^2/d; rows k..2k-1: sum (g/d)^2
        terms = np.zeros((2 * k, width))
        terms[:k, 0], terms[:k, 1] = a[nus], -model.omega_sub
        d = a[nus, None] - w
        # a dense-oracle root may fall on a pole; its deviation is then nan, not raised
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(-g**2, d, out=terms[:k, 2:n + 2])
            np.square(np.divide(g, d, out=terms[k:, :n]), out=terms[k:, :n])
        # the residual is (alpha - omega_sub) - sum: its rounding scales with both
        scale = np.abs(terms[:k, 2:n + 2]).sum(axis=1) + np.abs(a[nus] - model.omega_sub)
        exact = _fsum_rows(terms)
        deviation = np.abs(modes.residuals[nus] - exact[:k])
        residual_error = max(residual_error, float(np.max(
            np.divide(deviation, scale, out=np.zeros(k), where=scale > 0))))
        if modes.secular_evaluations:
            weight = 1.0 / (1.0 + exact[k:])
            weight_error = max(weight_error,
                               float(np.max(np.abs(modes.weights[nus] - weight) / weight)))
    return residual_error, weight_error


def _fsum_rows(t: np.ndarray) -> np.ndarray:
    """math.fsum of each row of t, whose length is a multiple of 2^L, after
    L = ``_TWO_SUM_LEVELS`` steps of Knuth's TwoSum halve the rows.

    Each step adds the second half of a row to the first and keeps the
    rounding errors exactly; the errors (each within eps of a partial sum)
    are added in float64, which costs at most ~L log2(N) eps^2 sum |t|, and
    math.fsum adds them to the shortened row: the audit of a 4096-mode solve
    took about half the time of math.fsum over whole rows.
    """
    s = t
    errors = np.zeros(t.shape[0])
    for _ in range(_TWO_SUM_LEVELS):
        a, b = np.hsplit(s, 2)
        s = a + b
        z = s - a
        errors += ((a - (s - z)) + (b - z)).sum(axis=1)
    return np.array([math.fsum([*row, e]) for row, e in zip(s.tolist(), errors.tolist())])


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

    sweeps = _FarField(w, g2)
    buf, aux = sweeps.buf, sweeps.aux
    alphas = np.empty(n + 1)
    residuals = np.empty(n + 1)
    abs_sums = np.empty(n + 1)
    weights = np.empty(n + 1)
    evaluations = fallbacks = 0
    for nus, window, far in sweeps.chunks:
        x, steps, falls = _iterate_chunk(
            nus, lo[nus], hi[nus], omega_sub, w, g2, window, far, rel_tol, buf, aux)
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
    modes = NormalModes(model=model, alphas=alphas, weights=weights, residuals=residuals,
                        secular_evaluations=evaluations, safeguard_fallbacks=fallbacks,
                        min_pole_offset=worst,
                        tabulated_clusters=sweeps.tabulated,
                        exact_clusters=sweeps.exact,
                        chebyshev_points=_CHEB_POINTS if sweeps.tabulated else 0,
                        far_field_bound=sweeps.bound,
                        residual_ratio=float(ratios.max()))
    modes.validate()
    return modes


def _chebyshev_points(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p Chebyshev points of the first kind on [-1, 1] and their barycentric weights."""
    theta = (2 * np.arange(p) + 1) * (0.5 * math.pi / p)
    return np.cos(theta), np.sin(theta) * (-1.0) ** np.arange(p)


def _barycentric(diff: np.ndarray, lam: np.ndarray, values: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Interpolated values at points x from diff[i, j] = x_i - t_j, t the Chebyshev points.

    ``values`` holds one column per function, one row per point t_j; ``lam``
    are the points' barycentric weights (``_chebyshev_points``) and ``out``
    is scratch of the shape of ``diff``.  The second (true) barycentric
    formula, exact at a Chebyshev point (Berrut & Trefethen, SIAM Rev. 46,
    2004).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.divide(lam, diff, out=out)
        result = (q @ values) / q.sum(axis=1)[:, None]
    hit_row, hit_col = np.nonzero(diff == 0)
    result[hit_row] = values[hit_col]
    return result


def _chebyshev_bound(r: float, p: int) -> float:
    """Bound on the error of the p-point Chebyshev interpolant of 1/(u - z) on
    [-1, 1], relative to min |1/(u - z)| there, for real |z| >= r > 1.

    1/(z - u) = (2/sqrt(z^2-1)) sum' rho^-k T_k(u) with rho = z + sqrt(z^2-1)
    (the Bernstein ellipse through z), and the interpolant errs by at most
    twice the coefficients it drops (Trefethen, Approximation Theory and
    Approximation Practice, Thm 4.2).  The bound falls as r grows.
    """
    rho = r + math.sqrt(r * r - 1.0)
    return 4.0 * math.sqrt((r + 1.0) / (r - 1.0)) * rho**-p / (1.0 - 1.0 / rho)


def _cluster_edges(n: int) -> np.ndarray:
    """First pole of each cluster, and n.

    Clusters of m = 2 sqrt(n) consecutive poles balance the O(n^2 p / m)
    far-field tables against the O(n m) near field of each sweep: on 2 cores,
    m from sqrt(2n) to sqrt(8n) solved N+1 = 4096 and 16384 within 5% of the
    fastest.
    """
    count = max(1, n // (2 * math.isqrt(n)))
    return np.arange(count + 1) * n // count


class _FarField:
    """The chunks of roots of one solve, with the far field of each cluster.

    Roots nu in (omega_{nu-1}, omega_nu) belong to the cluster of pole nu-1
    (``_cluster_edges``).  With ``_MIN_CLUSTERS`` clusters or more (the
    split needs three), each cluster whose
    a-priori bound ``_chebyshev_bound`` (from the distance of its nearest far
    pole to its centre over its half-width) is within ``_FAR_TOL`` is
    tabulated: its roots see the poles of the cluster and its two neighbours
    term by term, and the rest through four sums at ``_CHEB_POINTS``
    Chebyshev points on the cluster's bracket span, sum g^2/(t - omega) and
    sum g^2/(t - omega)^2 over the poles below and above the near window.
    The error of each sum of g^2/(x - omega) is then within
    bound * sum |terms|, and each sum of g^2/(x - omega)^2, which shapes the
    model step and the weights, within about p times that.  The other
    clusters, both exterior roots and every root of a solve with fewer
    clusters keep the exact sum over all poles, in chunks of ``rows`` roots.

    ``chunks`` lists (roots, near window, far) with far = None or (centre,
    half-width, Chebyshev points on [-1, 1], their weights, table);
    ``tabulated`` and ``exact`` count the clusters and ``bound`` is the
    largest bound of a tabulated one.
    ``buf`` and ``aux`` are the flat scratch buffers of every sweep.
    """

    def __init__(self, w: np.ndarray, g2: np.ndarray):
        n = w.size
        edges = _cluster_edges(n)
        count = edges.size - 1
        self.rows = rows = min(max(1, _SCRATCH_BYTES // (8 * n)), n + 1)
        width = int(np.diff(edges).max())
        self.buf = np.empty(max(rows * n, 3 * width * width))
        self.aux = np.empty_like(self.buf)

        def unsplit(nus):
            """Chunks of ``rows`` roots that sum over every pole."""
            return [(nus[i:i + rows], slice(0, n), None) for i in range(0, nus.size, rows)]

        self.tabulated, self.exact, self.bound = 0, count, 0.0
        if count < _MIN_CLUSTERS:
            self.chunks = unsplit(np.arange(n + 1))
            return
        self.chunks = unsplit(np.array([0, n]))
        cheb, lam = _chebyshev_points(_CHEB_POINTS)
        for c in range(count):
            below, above = edges[max(c - 1, 0)], edges[min(c + 2, count)]
            a, b = w[edges[c]], w[min(edges[c + 1], n - 1)]
            centre, half = 0.5 * (a + b), 0.5 * (b - a)
            gap = min(centre - w[below - 1] if below > 0 else math.inf,
                      w[above] - centre if above < n else math.inf)
            bound = _chebyshev_bound(float(gap / half), _CHEB_POINTS)
            nus = np.arange(edges[c] + 1, min(edges[c + 1] + 1, n))
            if bound <= _FAR_TOL:
                table = _far_table(centre, half * cheb, w, g2, below, above,
                                   self.buf, self.aux)
                self.chunks.append((nus, slice(below, above), (centre, half, cheb, lam, table)))
                self.tabulated += 1
                self.bound = max(self.bound, bound)
            else:
                self.chunks += unsplit(nus)
        self.exact = count - self.tabulated


def _far_table(centre: float, offsets: np.ndarray, w: np.ndarray, g2: np.ndarray, below: int,
               above: int, buf: np.ndarray, aux: np.ndarray) -> np.ndarray:
    """Columns sum g^2/(t - omega) over poles [0, below), the same over
    [above, N), and sum g^2/(t - omega)^2 over each, at t = centre + offsets.

    t - omega is formed as (centre - omega) + offset, not from a rounded t:
    on a cluster of half-width h, rounding t moves the point by up to
    ulp(centre)/h of the interval, which on a narrow cluster far from 0 costs
    the interpolant more than its truncation.  Pairwise row sums, not BLAS, so
    the table does not depend on the BLAS thread count; ``buf`` and ``aux``
    are scratch.
    """
    table = np.zeros((offsets.size, 4))
    for col, part in ((0, slice(0, below)), (1, slice(above, w.size))):
        size = part.stop - part.start
        if size == 0:
            continue
        gaps = centre - w[part]
        rows = max(1, buf.size // size)
        for j in range(0, offsets.size, rows):
            k = min(rows, offsets.size - j)
            d = buf[:k * size].reshape(k, size)
            terms = aux[:k * size].reshape(k, size)
            np.add(gaps, offsets[j:j + k, None], out=d)
            np.divide(g2[part], d, out=terms)
            table[j:j + k, col] = terms.sum(axis=1)
            np.divide(terms, d, out=terms)
            table[j:j + k, col + 2] = terms.sum(axis=1)
    return table


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
    the other poles (``_FarField``).  ``buf`` and ``aux`` are flat scratch of
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
        centre, half, cheb, lam, table = far
        diff = buf[:k * cheb.size].reshape(k, -1)
        np.subtract(((x - centre) / half)[:, None], cheb, out=diff)
        sums = _barycentric(diff, lam, table, aux[:diff.size].reshape(diff.shape))
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
                   w: np.ndarray, g2: np.ndarray, window: slice, far, rel_tol: float,
                   buf: np.ndarray, aux: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Roots ``nus`` from their brackets; returns roots, evaluations, fallbacks.

    The poles in ``window`` are summed term by term and ``far`` adds the rest
    (``_FarField``).  Every row's history depends only on its own bracket, so
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
