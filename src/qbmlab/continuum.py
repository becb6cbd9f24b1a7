"""Dense-bath analytics: resolvent boundary values, decay width and shift,
quadrature survival amplitude, and long-time thermal occupancy.

The spectral density g^2(omega) lives on a finite band (omega_min, omega_max)
containing the subsystem frequency.  Principal-value integrals are evaluated
by singularity subtraction: the integrand is split into a smooth part (the
difference quotient, which has a removable singularity) plus an analytic
logarithm carrying the entire principal value.

Every integral of g^2 runs on one composite 12-point Gauss-Legendre mesh per
density and tolerance (``_mesh``); a density it cannot resolve (one with a
jump, say) is refused with a ContinuumError.  The shift, the resolvent, the
pole and the dissipation integrals use the fixed tolerance QUAD_TOL = 1e-10.
It is relative to max g^2, not to the integral: each panel's rule meets the
sum over its halves within QUAD_TOL * max g^2 * its width, so the estimated
error of an integral is at most QUAD_TOL * max g^2 * the width of the band.
An integral far smaller than that is not bounded relative to itself: the
edge integrals of lorentzian_density(1e-3, 1e-6, 1.0, 0.5, 1.7), 6.3e-9 and
4.5e-9, are 1.3e-12 relative off their closed form only because Gauss rules
converge far faster than the criterion demands.  One self-energy
Sigma(z) = Int g^2(w)/(z - w) dw (_self_energy) gives the shift, the resolvent
boundary value and the second-sheet pole (``refine_pole``: secant from the
estimate and its fixed-point step); the dissipation integrals subtract g^2 at
the edge.

Oscillatory time integrals use a fixed-panel Gauss rule tied to 1/t by one
phase bound on panel width x t_max, _PANEL_PHASE_LIMIT: an automatic table
sits strictly below it, and a supplied one above it is refused.  Panel node
values of the resolvent are precomputed once per scheme (a WeightTable).
Every panel carries the same Gauss offsets h*x_q around its centre m_p, so
the phase factors as exp(-i (m_p + h x_q) t) = exp(-i m_p t) exp(-i h x_q t):
the amplitude at many times is one mode sum over the panel centres with one
coefficient column per Gauss offset, followed by a weighted sum over them.

The weight table needs the principal value at every panel node, a sum over
the nodes of the mesh to _NORM_TOL, the completeness the table must reach.  The
work of a scheme (weight-table node pairs plus time-sum terms) is predicted
before anything is allocated, and a scheme beyond ``_MAX_WORK`` is refused.

Refusals are ContinuumErrors, each a ``QbmlabError`` and a RuntimeError: a
density, band, time, panel count or scheme out of range, or work beyond the
bound.  Times are read as ``dynamics.mode_sum`` reads them, so a time array of
two or more dimensions raises ModelError before any table is built.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import _read_times, mode_sum
from .model import QbmlabError, SpectralModel, _bose_occupancies

__all__ = [
    "ContinuumError",
    "ContinuumModel",
    "PoleEstimate",
    "ContinuumValidityReport",
    "WeightTable",
    "lorentzian_density",
    "ullersma_density",
    "density_from_discrete",
    "width_from_discrete",
    "pv_shift",
    "width",
    "resolvent_boundary",
    "pole_estimate",
    "refine_pole",
    "build_weight_table",
    "survival_amplitude_continuum",
    "khalfin_tail",
    "asymptotic_occupation",
    "validate_continuum",
    "QUAD_TOL",
]

# the mesh tolerance of the shift, the resolvent, the pole and the dissipation
# integrals, relative to max g^2 (``_mesh``)
QUAD_TOL = 1e-10

_GAUSS_ORDER = 12
# the mesh is refused below this panel width (of the band) or above this panel count
_MESH_MIN_WIDTH, _MESH_MAX_PANELS = 2.0**-40, 2**16
_PANEL_PHASE_LIMIT = 0.5  # panel_width * t_max: automatic tables below, supplied ones refused above
_POLE_MAX_STEPS, _POLE_STEP_TOL = 40, 1e-12  # refine_pole's step cap and relative step floor
# refusal bound on |completeness - 1| of a weight table, in the survival sum and
# the asymptotic occupation alike, and the tolerance of the mesh the table sums over
_NORM_TOL = 1e-6
# each scratch buffer of the table's principal-value sums stays within this
# budget, so their passes run from cache: on a 2-core Xeon (2 MiB L2 per core)
# the 2,001-panel README table took 18, 12, 12 and 17 ms at 64, 256, 512 KiB
# and 4 MiB
_TABLE_BLOCK_BYTES = 256 * 2**10
# refusal bound on table node pairs plus time-sum terms (one multiply-add each,
# a few seconds per 1e9 on 2 cores: the README density at t_max = 1e5, 1.2e9,
# took 3.7 s); the largest scheme in the tests builds 4.0e7 (12,733 panels),
# the README and benchmark continuum runs 1.2e7
_MAX_WORK = 5e9


class ContinuumError(QbmlabError, RuntimeError):
    """Quadrature failure, resolution refusal, or invalid continuum model."""


@dataclass(frozen=True)
class ContinuumModel:
    """Spectral density g^2(omega) >= 0 on a finite band around omega_sub.

    ``g_sq`` must accept numpy arrays and be continuous on the band (the shift
    and dissipation integrals of a density with a jump are refused).
    ``g_sq_complex``, when given, is the analytic continuation of the density
    used for second-sheet pole polishing; it is optional because a purely
    numerical density has no canonical continuation.
    """

    g_sq: Callable[[np.ndarray], np.ndarray]
    omega_min: float
    omega_max: float
    omega_sub: float
    beta: float
    g_sq_complex: Callable | None = None

    def __post_init__(self):
        scalars = (self.omega_min, self.omega_max, self.omega_sub, self.beta)
        if not all(math.isfinite(v) for v in scalars):
            raise ContinuumError(f"band edges, omega_sub and beta must be finite, got {scalars}")
        if not self.omega_min < self.omega_sub < self.omega_max:
            raise ContinuumError(
                f"omega_sub = {self.omega_sub} must lie inside the band "
                f"({self.omega_min}, {self.omega_max})"
            )
        if self.beta <= 0:
            raise ContinuumError(f"beta must be positive, got {self.beta}")
        with np.errstate(all="ignore"):  # an overflowed density is refused just below
            g_sub = float(self.g_sq(np.asarray(self.omega_sub)))
        if not 0 < g_sub < math.inf:
            raise ContinuumError(f"spectral density must be positive and finite at "
                                 f"omega_sub, got {g_sub}")

    @property
    def band(self) -> float:
        return self.omega_max - self.omega_min


@dataclass(frozen=True)
class PoleEstimate:
    """Second-order pole of the continued resolvent: z0 = W + dW - i G/2."""

    delta_omega: float
    gamma: float
    z0: complex


@dataclass(frozen=True)
class ContinuumValidityReport:
    """Continuum dissipation conditions, regularized at the band edges.

    Each integral is evaluated with a relative edge margin (the continuum
    analogue of the discrete grid-spacing regulator); ``edge_growth`` measures
    how much the value moved when the margin shrank by four decades, and a
    growth beyond 5% of the bound flags the integral as divergent.
    """

    left_value: float
    right_value: float
    left_bound: float
    right_bound: float
    passes: tuple[bool, bool]
    diverged: tuple[bool, bool]
    edge_growth: tuple[float, float]

    @property
    def all_pass(self) -> bool:
        return all(self.passes)


def _square(x: float) -> float:
    """x**2, or inf where Python's float power would raise OverflowError."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def lorentzian_density(
    peak: float,
    half_width: float,
    omega_sub: float,
    omega_min: float,
    omega_max: float,
    beta: float = 1.0,
) -> ContinuumModel:
    """Density g^2(w) = peak * a^2 / (a^2 + (w - omega_sub)^2)."""
    if peak <= 0 or half_width <= 0:
        raise ContinuumError("peak and half_width must be positive")

    a_sq = _square(half_width)

    def g_sq(w):
        return peak * a_sq / (a_sq + (w - omega_sub) ** 2)

    return ContinuumModel(
        g_sq=g_sq, omega_min=omega_min, omega_max=omega_max,
        omega_sub=omega_sub, beta=beta, g_sq_complex=g_sq,
    )


def ullersma_density(
    c1: float,
    c2: float,
    omega_min: float,
    omega_max: float,
    omega_sub: float = 1.0,
    beta: float = 1.0,
) -> ContinuumModel:
    """Density with spectral strength g(w) = c1 w / sqrt(c2^2 + w^2).

    Behaves like (c1/c2)^2 w^2 at small frequencies, which controls the
    long-time power-law tail of the survival probability.
    """
    if c1 <= 0 or c2 <= 0:
        raise ContinuumError("c1 and c2 must be positive")

    c1_sq, c2_sq = _square(c1), _square(c2)

    def g_sq(w):
        return c1_sq * w**2 / (c2_sq + w**2)

    return ContinuumModel(
        g_sq=g_sq, omega_min=omega_min, omega_max=omega_max,
        omega_sub=omega_sub, beta=beta, g_sq_complex=g_sq,
    )


def density_from_discrete(model: SpectralModel) -> ContinuumModel:
    """Continuum density matching a discrete model: g^2(w_n) = g_n^2 / spacing.

    Interpolates g_n^2/A linearly between grid points; requires an equidistant
    bath so the density normalization is well defined.
    """
    spacing = model.uniform_spacing()
    if spacing is None:
        raise ContinuumError("discrete-to-continuum density requires an equidistant bath")
    w = model.bath_freqs
    vals = model.couplings**2 / spacing

    def g_sq(x):
        return np.interp(x, w, vals)

    return ContinuumModel(
        g_sq=g_sq, omega_min=float(w[0]), omega_max=float(w[-1]),
        omega_sub=model.omega_sub, beta=model.beta,
    )


def width_from_discrete(model: SpectralModel) -> float:
    """Decay width 2*pi*g^2(omega_sub) under the g_n^2/spacing correspondence."""
    spacing = model.uniform_spacing()
    if spacing is None:
        raise ContinuumError("width correspondence requires an equidistant bath")
    g_at = float(np.interp(model.omega_sub, model.bath_freqs, model.couplings))
    gamma = 2.0 * math.pi * _square(g_at) / spacing
    if not math.isfinite(gamma):
        raise ContinuumError(f"the width 2 pi g^2/spacing overflows at g = {g_at:g}")
    return gamma


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _interpolation_rows(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows taking a panel's node values to its interpolant at -1 and +1 (2 x order)
    and to the interpolant's slopes at the nodes on [-1, 1] (order x order)."""
    x, _ = _gauss_rule(order)
    diff = x[:, None] - x
    np.fill_diagonal(diff, 1.0)
    lam = 1.0 / diff.prod(axis=1)  # barycentric weights
    ends = lam / (np.array([[-1.0], [1.0]]) - x)
    slopes = lam / lam[:, None] / diff
    np.fill_diagonal(slopes, 0.0)
    np.fill_diagonal(slopes, -slopes.sum(axis=1))
    return ends / ends.sum(axis=1, keepdims=True), slopes


def _rule(lo: np.ndarray, hi: np.ndarray, order: int = _GAUSS_ORDER):
    """Gauss-Legendre nodes and weights of the panels [lo_p, hi_p], one row per panel."""
    x, w = _gauss_rule(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def _between(edges: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Panel ends (lo, hi) from a to b, broken at the edges strictly between them."""
    edges = np.r_[a, edges[(edges > a) & (edges < b)], b]
    return edges[:-1], edges[1:]


def _panel_nodes(lo: float, hi: float, n_panels: int, order: int):
    """Composite Gauss-Legendre rule on [lo, hi]: nodes, weights, centres, offsets.

    Node p*order + q is centres[p] + offsets[q] up to rounding of the panel
    half-widths, which all equal (hi - lo) / (2 n_panels).
    """
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = _rule(edges[:-1], edges[1:], order)
    return (nodes.ravel(), weights.ravel(), 0.5 * (edges[:-1] + edges[1:]),
            (0.5 * (hi - lo) / n_panels) * _gauss_rule(order)[0])


# panel edges, and at the ascending nodes the weights, g^2 and the slopes of each
# panel's node interpolant
_Mesh = namedtuple("_Mesh", "edges nodes weights g2 slopes")


@functools.lru_cache(maxsize=16)
def _mesh(cm: ContinuumModel, tol: float) -> _Mesh:
    """The composite mesh of g^2 to ``tol``: breadth-first bisection of
    [omega_min, omega_sub] and [omega_sub, omega_max].

    A panel stays when its rule agrees with the sum over its halves within
    tol * gmax * width and its node interpolant meets g^2 at both ends within
    tol * gmax, gmax the largest |g^2| sampled but at least the smallest normal
    float (a subnormal density is flat).  The end check catches a spike at
    omega_sub that no node sees.  A panel below _MESH_MIN_WIDTH of the band, or
    more than _MESH_MAX_PANELS panels, is refused.
    """
    (ends, slopes), w = _interpolation_rows(_GAUSS_ORDER), _gauss_rule(_GAUSS_ORDER)[1]
    lo, hi = np.array([cm.omega_min, cm.omega_sub]), np.array([cm.omega_sub, cm.omega_max])
    g2, kept, gmax = cm.g_sq(_rule(lo, hi)[0]), [], sys.float_info.min
    while lo.size:
        mid = 0.5 * (lo + hi)
        half_nodes, half_weights = _rule(np.r_[lo, mid], np.r_[mid, hi])
        halves, at_ends = cm.g_sq(half_nodes), cm.g_sq(np.stack([lo, hi], axis=1))
        gmax = np.abs(np.r_[g2.ravel(), halves.ravel(), at_ends.ravel(), gmax]).max()
        if not np.isfinite(gmax):
            raise ContinuumError("the spectral density is not finite on the band")
        parts = (halves * half_weights).sum(axis=1).reshape(2, -1).sum(axis=0)
        whole = (g2 * w).sum(axis=1) * (0.5 * (hi - lo))
        split = ((np.abs(whole - parts) > tol * gmax * (hi - lo))
                 | (np.abs(np.einsum("pq,eq->pe", g2, ends) - at_ends).max(axis=1)
                    > tol * gmax))
        kept.append((lo[~split], hi[~split], g2[~split]))
        if split.any() and (sum(k[0].size for k in kept) + 2 * split.sum() > _MESH_MAX_PANELS
                            or (mid - lo)[split].min() < _MESH_MIN_WIDTH * cm.band):
            raise ContinuumError(f"the mesh of g^2 did not converge to {tol:g} in {_MESH_MAX_PANELS} "
                                 f"panels wider than {_MESH_MIN_WIDTH:g} of the band")
        lo, hi = np.r_[lo[split], mid[split]], np.r_[mid[split], hi[split]]
        g2 = halves.reshape(2, -1, _GAUSS_ORDER)[:, split].reshape(-1, _GAUSS_ORDER)
    order = np.argsort(np.concatenate([k[0] for k in kept]))
    lo, hi, g2 = (np.concatenate(parts)[order] for parts in zip(*kept))
    nodes, weights = _rule(lo, hi)
    mesh = _Mesh(np.r_[lo, hi[-1]], nodes.ravel(), weights.ravel(), g2.ravel(),
                 (np.einsum("pq,nq->pn", g2, slopes) / (0.5 * (hi - lo))[:, None]).ravel())
    for array in mesh:
        array.flags.writeable = False
    return mesh


def _self_energy(cm: ContinuumModel, z: complex | float) -> complex:
    """Sigma(z) = Int g^2(w)/(z - w) dw over the band, on the mesh to QUAD_TOL: at real
    z inside it the boundary value from above, PV - i*pi*g^2(z), and off the axis
    through ``g_sq_complex``, as g^2(z) [log(z - omega_min) - log(z - omega_max)]
    plus the mesh sum of the difference quotient (g^2(w) - g^2(z))/(z - w).

    On the axis, [z - D, z + D] (D the distance to the nearer edge) folds into
    Int_0^D (g^2(z - u) - g^2(z + u))/u du on nodes z + u and their exact mirrors
    2z - (z + u), broken at the distances of the mesh edges of both sides; the
    rest of the band sums the difference quotient, and
    g^2(z) log((z - omega_min)/(omega_max - z)) carries the principal value.
    """
    mesh = _mesh(cm, QUAD_TOL)
    lo, hi = cm.omega_min, cm.omega_max
    if isinstance(z, complex):
        try:
            g2z = complex(cm.g_sq_complex(z))
        except (ZeroDivisionError, OverflowError):
            g2z = complex(math.nan)
        with np.errstate(all="ignore"):
            value = (((mesh.g2 - g2z) / (z - mesh.nodes) * mesh.weights).sum()
                     + g2z * (cmath.log(z - lo) - cmath.log(z - hi)))
        if not cmath.isfinite(value):
            raise ContinuumError(f"the self-energy is not finite at z = {z!r}")
        return complex(value)
    g2z = float(cm.g_sq(np.asarray(z)))
    top = z + min(z - lo, hi - z)
    u_lo, u_hi = _between(np.unique(np.abs(mesh.edges - z)), 0.0, top - z)
    u, w = _rule(u_lo, u_hi)
    x = z + u
    with np.errstate(invalid="ignore"):
        fold = (cm.g_sq(2 * z - x) - cm.g_sq(x)) / (x - z)
    fold[x == z] = 0.0  # a node within half an ulp of z: a weight below an ulp
    # the nodes sit at x - z, not u: a first-order step along each panel's
    # interpolant moves them back (ulp(z)/u would limit a peak of width a to ulp(z)/a)
    slopes = np.einsum("pq,nq->pn", fold, _interpolation_rows(_GAUSS_ORDER)[1])
    fold += slopes / (0.5 * (u_hi - u_lo))[:, None] * (u - (x - z))
    x, w2 = _rule(*_between(mesh.edges, top, hi) if z - lo <= hi - z
                  else _between(mesh.edges, lo, 2 * z - top))
    value = (fold * w).sum() + ((cm.g_sq(x) - g2z) / (z - x) * w2).sum()
    return complex(value + g2z * math.log((z - lo) / (hi - z)), -math.pi * g2z)


def pv_shift(cm: ContinuumModel) -> float:
    """Frequency shift: PV integral of g^2(w)/(omega_sub - w) over the band, the real
    part of the self-energy at omega_sub, on the mesh whose panels meet QUAD_TOL
    relative to max g^2 (``_mesh``)."""
    return _self_energy(cm, cm.omega_sub).real


def width(cm: ContinuumModel) -> float:
    """Decay width 2*pi*g^2(omega_sub)."""
    return 2.0 * math.pi * float(cm.g_sq(np.asarray(cm.omega_sub)))


def resolvent_boundary(cm: ContinuumModel, alpha: float) -> complex:
    """Boundary value of the inverse reduced resolvent on the band cut.

    From the upper half plane: alpha - omega_sub - PV(alpha) + i*pi*g^2(alpha).
    From below it is the complex conjugate, so the jump across the cut (upper
    minus lower) is 2*i*pi*g^2(alpha).
    """
    if not cm.omega_min < alpha < cm.omega_max:
        raise ContinuumError(f"alpha = {alpha} lies outside the open band")
    return alpha - cm.omega_sub - _self_energy(cm, alpha)


def pole_estimate(cm: ContinuumModel) -> PoleEstimate:
    """Second-order pole parameters: shift from the PV integral, width 2*pi*g^2."""
    d_omega, gamma = pv_shift(cm), width(cm)
    return PoleEstimate(d_omega, gamma, complex(cm.omega_sub + d_omega, -0.5 * gamma))


def refine_pole(cm: ContinuumModel, start: complex | None = None) -> complex:
    """Polish the second-sheet zero by secant from the estimate and its fixed-point step.

    The continued function in the lower half plane is
    F(z) = z - omega_sub - Sigma(z) + 2*pi*i*g^2(z), which requires an
    analytic continuation of the density.  The second point is
    z0 - F(z0) = omega_sub + Sigma_II(z0).  The secant stops when F vanishes
    or repeats, at a step below _POLE_STEP_TOL * max(|z0|, 1) or after
    _POLE_MAX_STEPS steps, and returns its last iterate.  Sigma(z) comes from
    the mesh to QUAD_TOL at every evaluation (``_self_energy``), and so does
    the default start, ``pole_estimate``.
    """
    if cm.g_sq_complex is None:
        raise ContinuumError("pole refinement needs an analytic density continuation")
    z = complex(start) if start is not None else pole_estimate(cm).z0
    if not cmath.isfinite(z):
        raise ContinuumError(f"start must be finite, got {z!r}")
    min_step = _POLE_STEP_TOL * max(abs(z), 1.0)

    def f(zz: complex) -> complex:
        return (zz - cm.omega_sub - _self_energy(cm, zz)
                + 2.0j * math.pi * cm.g_sq_complex(zz))

    z_prev, f_prev = z, f(z)
    z = z_prev - f_prev
    for _ in range(_POLE_MAX_STEPS):
        fz = f(z)
        if fz == 0 or fz == f_prev:
            break
        step = fz * (z - z_prev) / (fz - f_prev)
        z_prev, f_prev = z, fz
        z -= step
        if abs(step) < min_step:
            break
    if z.imag >= 0:
        raise ContinuumError(f"pole refinement left the lower half plane: {complex(z)!r}")
    return z


@dataclass
class WeightTable:
    """Precomputed mode-weight density on a composite Gauss scheme.

    ``density[i]`` is g^2(a_i)/|Rinv(a_i + i0)|^2 at node a_i; integrating it
    against ``quad_weights`` gives the completeness norm, which must be 1 for
    a density with no bound states outside the band.  Node p*Q + q lies at
    ``centres[p] + offsets[q]`` (Q = offsets.size), the factorization the
    time sum uses.
    """

    nodes: np.ndarray
    quad_weights: np.ndarray
    density: np.ndarray
    panel_width: float
    completeness: float
    centres: np.ndarray
    offsets: np.ndarray


def _auto_panels(cm: ContinuumModel, t_max: float) -> float:
    """Panels resolving the resonance peak and the phase at t_max (below _PANEL_PHASE_LIMIT).

    A float, so that a count too large for any scheme reaches _check_work
    instead of overflowing an int conversion.
    """
    gamma_half = math.pi * float(cm.g_sq(np.asarray(cm.omega_sub)))
    n_peak = np.ceil(2.0 * cm.band / gamma_half)
    n_phase = np.ceil(cm.band * max(t_max, 0.0) / _PANEL_PHASE_LIMIT) + 1.0
    return max(64.0, n_peak, n_phase)


def _check_work(n_nodes: float, mesh_nodes: int, n_times: int = 0) -> None:
    """Refuse a scheme whose table node pairs (nodes x mesh nodes) plus time-sum
    terms exceed _MAX_WORK."""
    work = n_nodes * (mesh_nodes + n_times)
    if not work <= _MAX_WORK:
        raise ContinuumError(
            f"the quadrature needs {work:.3g} multiply-adds ({n_nodes:.4g} nodes, "
            f"{mesh_nodes} mesh nodes, {n_times} times), more than the bound of "
            f"{_MAX_WORK:.3g}; ask for a shorter time span or fewer times"
        )


def _pv_sums(cm: ContinuumModel, nodes: np.ndarray, g2_nodes: np.ndarray) -> np.ndarray:
    """Mesh sums sum_i w_i (g^2(x_i) - g^2(a)) / (a - x_i) over the nodes x_i of the
    table mesh ``_mesh(cm, _NORM_TOL)`` at nodes a inside the band.

    A mesh node within 1e-14 of the band of a contributes w_i times the limit
    -g^2'(x_i), the slope of its panel's interpolant.  Rows go in blocks of
    ``_TABLE_BLOCK_BYTES`` per scratch buffer, summed pairwise (not by BLAS).
    """
    mesh = _mesh(cm, _NORM_TOL)
    size, tiny = mesh.nodes.size, 1e-14 * cm.band
    rows = max(1, _TABLE_BLOCK_BYTES // 8 // size)
    d, q = np.empty((rows, size)), np.empty((rows, size))
    # a mesh node closer than tiny to a node is one of its two sorted neighbours
    pos = np.searchsorted(mesh.nodes, nodes).clip(1, size - 1)
    gap = np.minimum(np.abs(nodes - mesh.nodes[pos - 1]), np.abs(nodes - mesh.nodes[pos]))
    sums = np.empty(nodes.size)
    for i in range(0, nodes.size, rows):
        n = min(rows, nodes.size - i)
        np.subtract(nodes[i:i + n, None], mesh.nodes, out=d[:n])
        np.subtract(mesh.g2, g2_nodes[i:i + n, None], out=q[:n])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(q[:n], d[:n], out=q[:n])
        if gap[i:i + n].min() < tiny:
            hit = np.abs(d[:n]) < tiny
            q[:n][hit] = -np.broadcast_to(mesh.slopes, (n, size))[hit]
        np.multiply(q[:n], mesh.weights, out=q[:n])
        sums[i:i + n] = q[:n].sum(axis=1)
    return sums


def build_weight_table(cm: ContinuumModel, n_panels: int) -> WeightTable:
    """Evaluate the weight density on all panel nodes.

    The principal value at node a is the sum of the difference quotient
    (g^2(w) - g^2(a))/(a - w) over the mesh of g^2 to _NORM_TOL, the completeness
    a survival sum must reach (``_pv_sums``), plus the analytic edge logarithm.
    A scheme whose node pairs exceed ``_MAX_WORK`` is refused before anything is
    allocated (``_check_work``), and a panel count that is not a positive whole
    number (an infinite one counts as too much work) is refused.
    """
    if not (n_panels >= 1 and (n_panels == math.inf or float(n_panels).is_integer())):
        raise ContinuumError(f"panel count must be a positive whole number, got {n_panels}")
    _check_work(n_panels * _GAUSS_ORDER, _mesh(cm, _NORM_TOL).nodes.size)
    n_panels = int(n_panels)
    nodes, wq, centres, offsets = _panel_nodes(cm.omega_min, cm.omega_max, n_panels, _GAUSS_ORDER)
    g2_nodes = cm.g_sq(nodes)
    pv_vals = _pv_sums(cm, nodes, g2_nodes)
    pv_vals += g2_nodes * np.log((nodes - cm.omega_min) / (cm.omega_max - nodes))

    re = nodes - cm.omega_sub - pv_vals
    im = math.pi * g2_nodes
    # a denominator that overflows (g^2 near 1e154) leaves a density below
    # 1/(pi^2 g^2) ~ 1e-155 as its limit 0
    with np.errstate(over="ignore"):
        density = g2_nodes / (re * re + im * im)
    # a numpy sum, not density @ wq: BLAS ddot over this many nodes wakes
    # OpenBLAS's threads and leaves one spinning
    return WeightTable(nodes=nodes, quad_weights=wq, density=density,
                       panel_width=cm.band / n_panels, completeness=float((density * wq).sum()),
                       centres=centres, offsets=offsets)


def survival_amplitude_continuum(cm: ContinuumModel, t, table: WeightTable | None = None):
    """Oscillatory quadrature of the weight density times exp(-i*alpha*t).

    ``t`` is a time, an array of times or a TimeGrid, read and shaped as
    ``mode_sum`` reads and shapes it.  Panels are auto-sized from the largest
    requested time unless a scheme is supplied; a supplied scheme whose panels
    cannot resolve the phase (panel_width * t > 0.5) is refused rather than
    silently inaccurate.  The completeness norm of the scheme is checked before
    use, and a scheme whose predicted work exceeds ``_MAX_WORK`` is refused
    before it is built.

    The sum over the P*Q nodes is evaluated in factored form:
    s(t) = sum_q exp(-i offsets_q t) sum_p c_pq exp(-i centres_p t), one
    ``mode_sum`` over the P panel centres with Q coefficient columns.
    """
    ts = _read_times(t)[0]
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ContinuumError("survival amplitude is defined for finite t >= 0")
    t_max = float(ts.max()) if ts.size else 0.0

    if table is None:
        panels = _auto_panels(cm, t_max)
        _check_work(panels * _GAUSS_ORDER, _mesh(cm, _NORM_TOL).nodes.size, ts.size)
        table = build_weight_table(cm, panels)
    else:
        _check_work(table.nodes.size, 0, ts.size)
        if table.panel_width * t_max > _PANEL_PHASE_LIMIT:
            raise ContinuumError(
                f"panel width {table.panel_width:.3e} cannot resolve the phase at "
                f"t = {t_max:g} (limit {_PANEL_PHASE_LIMIT} per panel); "
                "increase the panel count"
            )
    if abs(table.completeness - 1.0) > _NORM_TOL:
        raise ContinuumError(
            f"weight density integrates to {float(table.completeness)!r}, not 1: "
            "the scheme is under-resolved or the model has bound states"
        )
    coeffs = (table.density * table.quad_weights).reshape(table.centres.size, -1)

    def over_offsets(block, t_block):
        return (block * np.exp(-1j * np.outer(t_block, table.offsets))).sum(axis=1)

    return mode_sum(table.centres, coeffs, t, reduce=over_offsets)


def khalfin_tail(cm: ContinuumModel, t_range: tuple[float, float]) -> float:
    """Log-log slope of the survival probability at 48 times over a late-time window.

    Valid only between the memory time of the upper cutoff and the reciprocal
    lower cutoff (1/omega_max << t < 1/omega_min), where the band-edge
    contributions produce the power-law tail.
    """
    if np.shape(t_range) != (2,) or not 0 < t_range[0] < t_range[1]:
        raise ContinuumError(f"bad t_range {t_range}")
    t_lo, t_hi = t_range
    if cm.omega_min <= 0:
        raise ContinuumError("the power-law window needs a positive lower cutoff")
    if t_lo < 5.0 / cm.omega_max or t_hi > 1.0 / cm.omega_min:
        raise ContinuumError(
            f"fit window {t_range} outside the validity range "
            f"[{5.0 / cm.omega_max:g}, {1.0 / cm.omega_min:g}]"
        )
    ts = np.geomspace(t_lo, t_hi, 48)
    s = survival_amplitude_continuum(cm, ts)
    p = np.abs(s) ** 2
    if np.any(p <= 0):
        raise ContinuumError("survival probability underflowed in the fit window")
    slope, _ = np.polyfit(np.log(ts), np.log(p), 1)
    return float(slope)


def asymptotic_occupation(cm: ContinuumModel) -> float:
    """Long-time subsystem occupation: the thermal occupancy averaged over the
    weight density.

    In the vanishing-coupling limit the weight density contracts to a delta at
    omega_sub and the value tends to the bare thermal occupancy
    1/(exp(beta W) - 1), ``thermal_occupancy(cm.beta, cm.omega_sub)``.
    """
    table = build_weight_table(cm, _auto_panels(cm, 0.0))
    if abs(table.completeness - 1.0) > _NORM_TOL:
        raise ContinuumError(
            f"weight density integrates to {float(table.completeness)!r}; "
            "cannot form the thermal average"
        )
    occ = _bose_occupancies(cm.beta, table.nodes)
    return float((table.density * occ * table.quad_weights).sum())


def _edge_integral(cm: ContinuumModel, mesh: _Mesh, side: str, margin: float) -> float:
    """Integral of g^2/(distance to the edge) beyond a relative edge margin:
    g^2(edge) ln(1/margin), plus the mesh sum of (g^2(w) - g^2(edge))/|w - edge|
    with the first panel edge moved to the margin."""
    lo, hi, gap = cm.omega_min, cm.omega_max, margin * cm.band
    edge, a, b = (lo, lo + gap, hi) if side == "left" else (hi, lo, hi - gap)
    x, w = _rule(*_between(mesh.edges, a, b))
    g2_edge = float(cm.g_sq(np.asarray(edge)))
    return float(g2_edge * math.log(1.0 / margin)
                 + ((cm.g_sq(x) - g2_edge) / np.abs(x - edge) * w).sum())


def validate_continuum(cm: ContinuumModel) -> ContinuumValidityReport:
    """Evaluate both continuum dissipation integrals against their bounds.

    The band-edge singularity is regularized with a relative margin of 1e-8
    (the continuum analogue of the discrete spacing regulator); an integral
    whose value keeps growing as the margin shrinks from 1e-4 is reported as
    divergent, which counts as a condition failure.
    The integrals run on the mesh to QUAD_TOL, as in ``pv_shift``, so their
    error is bounded relative to max g^2 times the band, not to their value.
    """
    mesh = _mesh(cm, QUAD_TOL)
    bounds = (cm.omega_sub - cm.omega_min, cm.omega_max - cm.omega_sub)
    values, growth = [], []
    for side in ("left", "right"):
        values.append(_edge_integral(cm, mesh, side, 1e-8))
        growth.append(values[-1] - _edge_integral(cm, mesh, side, 1e-4))
    diverged = tuple(g > 0.05 * b for g, b in zip(growth, bounds))
    passes = tuple(not d and v < b for d, v, b in zip(diverged, values, bounds))
    return ContinuumValidityReport(*values, *bounds, passes, diverged, tuple(growth))
