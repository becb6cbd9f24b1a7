"""Dense-bath analytics: resolvent boundary values, decay width and shift,
quadrature survival amplitude, and long-time thermal occupancy.

The spectral density g^2(omega) lives on a finite band (omega_min, omega_max)
containing the subsystem frequency.  Principal-value integrals are evaluated
by singularity subtraction: the integrand is split into a smooth part (the
difference quotient, which has a removable singularity) plus an analytic
logarithm carrying the entire principal value.

One self-energy Sigma(z) = Int g^2(w)/(z - w) dw (_self_energy) gives the
shift, the resolvent boundary value and the second-sheet pole (``refine_pole``:
secant from the estimate and its fixed-point step).  It and the dissipation
integrals double the panel count of a composite Gauss-Legendre rule
(_panel_nodes) until three successive values agree within quad_tol * max(1, |I|)
(absolute below |I| = 1, relative above), or raise a ContinuumError at
_MAX_PANELS panels.  The weight table and its PV rule are the other node sets.

Oscillatory time integrals use a fixed-panel Gauss rule tied to 1/t by one
phase bound on panel width x t_max, _PANEL_PHASE_LIMIT: an automatic table
sits strictly below it, and a supplied one above it is refused.  Panel node
values of the resolvent are precomputed once per scheme (a WeightTable).
Every panel carries the same Gauss offsets h*x_q around its centre m_p, so
the phase factors as exp(-i (m_p + h x_q) t) = exp(-i m_p t) exp(-i h x_q t):
the amplitude at many times is one mode sum over the panel centres with one
coefficient column per Gauss offset, followed by a weighted sum over them.

The weight table needs the principal value at every panel node, a sum over
the fixed PV rule in clusters of eight panels.  The PV nodes of the near
window of a node's cluster (the cluster and its two neighbours on this
uniform rule) enter as exact difference quotients, and the rest through the
Chebyshev interpolants of the Cauchy-sum kernel (``_cauchy.FarField``).

The work of a scheme (weight-table node pairs plus time-sum terms) is
predicted before anything is allocated, and a scheme beyond ``_MAX_WORK`` is
refused with a ContinuumError instead of running without bound.  The
predicted table work is nodes x PV nodes, an upper bound on the near/far
split's work (at the README size its near windows hold 6% of the pairs, and
its tables cost 4% more).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._cauchy import POINTS, FarField
from .dynamics import mode_sum
from .model import SpectralModel, _bose_occupancies, thermal_occupancy

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
]

_GAUSS_ORDER = 12
_MAX_PANELS = 2**16  # cap of the doubling rule of _gauss_integral, which starts at 8
_PANEL_PHASE_LIMIT = 0.5  # panel_width * t_max: automatic tables below, supplied ones refused above
_POLE_MAX_STEPS, _POLE_STEP_TOL = 40, 1e-12  # refine_pole's step cap and relative step floor
_PV_PANELS, _PV_ORDER = 401, 8
_CLUSTER_PANELS = 8  # PV panels per cluster of the far field of the PV sums
_NORM_TOL = 1e-6  # refusal bound on |completeness - 1| of a survival-sum scheme
# each scratch buffer of the principal-value sums stays within this budget, so
# their passes run from cache: on a 2-core Xeon (2 MiB L2 per core) the
# 2,501-panel table took 57, 45 and 42 ms at 64, 256 and 512 KiB
_TABLE_BLOCK_BYTES = 256 * 2**10
# refusal bound on table node pairs plus time-sum terms (one multiply-add each,
# a few seconds per 1e9 on 2 cores); the largest scheme in the tests builds
# 4.3e8 (11,249 panels), the README and benchmark continuum runs 1.0e8
_MAX_WORK = 5e9


class ContinuumError(RuntimeError):
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
    return 2.0 * math.pi * g_at**2 / spacing


def _check_quad_tol(quad_tol: float) -> None:
    if not (1e-14 < quad_tol < 1e-6):
        raise ContinuumError(f"quad_tol must lie in (1e-14, 1e-6), got {quad_tol}")


def _gauss_integral(f, lo: float, hi: float, quad_tol: float, what: str):
    """Integral of the vectorized, real or complex f over [lo, hi], doubling the panel
    count from 8 until three successive values lie within quad_tol * max(1, |I|) of
    each other; two agreed by chance 10x quad_tol off on the kinked
    density_from_discrete.  A real f gives a float."""
    n_panels, values = 8, []
    while n_panels <= _MAX_PANELS:
        nodes, weights, _, _ = _panel_nodes(lo, hi, n_panels, _GAUSS_ORDER)
        value = f(nodes) @ weights
        values.append(complex(value) if np.iscomplexobj(value) else float(value))
        if not cmath.isfinite(values[-1]):
            raise ContinuumError(f"{what} is not finite")
        last = values[-3:]
        spread = max(abs(x - y) for x in last for y in last) if len(last) == 3 else math.inf
        if spread <= quad_tol * max(1.0, abs(values[-1])):
            return values[-1]
        n_panels *= 2
    raise ContinuumError(f"{what} did not converge in {_MAX_PANELS} panels "
                         f"(last three values spread over {spread:.3e})")


def _self_energy(cm: ContinuumModel, z: complex | float, quad_tol: float) -> complex:
    """Sigma(z) = Int g^2(w)/(z - w) dw over the band: at real z inside it the boundary
    value from above, PV - i*pi*g^2(z), and off the axis through ``g_sq_complex``.
    The difference quotient (g^2(w) - g^2(z))/(z - w) is summed on each side of
    Re z, and g^2(z) [log(z - omega_min) - log(z - omega_max)] carries the rest."""
    _check_quad_tol(quad_tol)
    lo, hi = cm.omega_min, cm.omega_max
    if isinstance(z, complex):
        g2z, logs = complex(cm.g_sq_complex(z)), cmath.log(z - lo) - cmath.log(z - hi)
    else:  # log(z - hi + i0) = log(hi - z) + i*pi
        g2z = float(cm.g_sq(np.asarray(z)))
        logs = complex(math.log((z - lo) / (hi - z)), -math.pi)
    split = min(max(z.real, lo), hi)
    value = sum(_gauss_integral(lambda w: (cm.g_sq(w) - g2z) / (z - w), a, b, quad_tol,
                                "self-energy quadrature") for a, b in ((lo, split), (split, hi)))
    return value + g2z * logs


def pv_shift(cm: ContinuumModel, quad_tol: float = 1e-10) -> float:
    """Frequency shift: PV integral of g^2(w)/(omega_sub - w) over the band,
    converged to quad_tol * max(1, |I|) on each side, quad_tol in (1e-14, 1e-6):
    the real part of the self-energy at omega_sub."""
    return _self_energy(cm, cm.omega_sub, quad_tol).real


def width(cm: ContinuumModel) -> float:
    """Decay width 2*pi*g^2(omega_sub)."""
    return 2.0 * math.pi * float(cm.g_sq(np.asarray(cm.omega_sub)))


def resolvent_boundary(
    cm: ContinuumModel, alpha: float, quad_tol: float = 1e-10, side: int = +1
) -> complex:
    """Boundary value of the inverse reduced resolvent on the band cut.

    side=+1 approaches from the upper half plane: alpha - omega_sub - Sigma(alpha)
    = alpha - omega_sub - PV(alpha) + i*pi*g^2(alpha); side=-1 gives the complex
    conjugate.  The jump across the cut (upper minus lower) is 2*i*pi*g^2(alpha).
    """
    if not cm.omega_min < alpha < cm.omega_max:
        raise ContinuumError(f"alpha = {alpha} lies outside the open band")
    if side not in (+1, -1):
        raise ContinuumError(f"side must be +1 or -1, got {side}")
    r = alpha - cm.omega_sub - _self_energy(cm, alpha, quad_tol)
    return r if side == 1 else r.conjugate()


def pole_estimate(cm: ContinuumModel, quad_tol: float = 1e-10) -> PoleEstimate:
    """Second-order pole parameters: shift from the PV integral, width 2*pi*g^2."""
    d_omega = pv_shift(cm, quad_tol)
    gamma = width(cm)
    return PoleEstimate(
        delta_omega=d_omega,
        gamma=gamma,
        z0=complex(cm.omega_sub + d_omega, -0.5 * gamma),
    )


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_nodes(lo: float, hi: float, n_panels: int, order: int):
    """Composite Gauss-Legendre rule on [lo, hi]: nodes, weights, centres, offsets.

    Node p*order + q is centres[p] + offsets[q] up to rounding of the panel
    half-widths, which all equal (hi - lo) / (2 n_panels).
    """
    x, w = _gauss_rule(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights, mid, (0.5 * (hi - lo) / n_panels) * x


def refine_pole(cm: ContinuumModel, start: complex | None = None,
                quad_tol: float = 1e-10) -> complex:
    """Polish the second-sheet zero by secant from the estimate and its fixed-point step.

    The continued function in the lower half plane is
    F(z) = z - omega_sub - Sigma(z) + 2*pi*i*g^2(z), which requires an
    analytic continuation of the density.  The second point is
    z0 - F(z0) = omega_sub + Sigma_II(z0).  The secant stops when F vanishes
    or repeats, at a step below _POLE_STEP_TOL * max(|z0|, 1) or after
    _POLE_MAX_STEPS steps, and returns its last iterate.  quad_tol governs
    Sigma(z) at every evaluation (``_self_energy``) and the default start.
    """
    if cm.g_sq_complex is None:
        raise ContinuumError("pole refinement needs an analytic density continuation")
    z = complex(start) if start is not None else pole_estimate(cm, quad_tol).z0
    if not cmath.isfinite(z):
        raise ContinuumError(f"start must be finite, got {z!r}")
    min_step = _POLE_STEP_TOL * max(abs(z), 1.0)

    def f(zz: complex) -> complex:
        return (zz - cm.omega_sub - _self_energy(cm, zz, quad_tol)
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


def _check_work(n_nodes: float, pv_nodes: int, n_times: int = 0) -> None:
    """Refuse a scheme whose table node pairs (nodes x PV nodes, an upper bound on
    its near and far work) plus time-sum terms exceed _MAX_WORK."""
    work = n_nodes * (pv_nodes + n_times)
    if not work <= _MAX_WORK:
        raise ContinuumError(
            f"the quadrature needs {work:.3g} multiply-adds ({n_nodes:.4g} nodes, "
            f"{pv_nodes} PV nodes, {n_times} times), more than the bound of "
            f"{_MAX_WORK:.3g}; ask for a shorter time span or fewer times"
        )


def _pv_rule(cm: ContinuumModel) -> tuple[np.ndarray, np.ndarray, FarField]:
    """The PV rule's nodes, weights and far field (clusters of ``_CLUSTER_PANELS`` panels)."""
    pv_nodes, pv_w, _, _ = _panel_nodes(cm.omega_min, cm.omega_max, _PV_PANELS, _PV_ORDER)
    first_panel = np.r_[0:_PV_PANELS:_CLUSTER_PANELS, _PV_PANELS]
    edges = np.linspace(cm.omega_min, cm.omega_max, _PV_PANELS + 1)[first_panel]
    return pv_nodes, pv_w, FarField(pv_nodes, first_panel * _PV_ORDER, edges)


def _pv_sums(cm: ContinuumModel, nodes: np.ndarray, g2_nodes: np.ndarray) -> np.ndarray:
    """PV-rule sums sum_q w_q (g^2(x_q) - g^2(a)) / (a - x_q) at ascending nodes a
    inside the band, terms with |a - x_q| below 1e-14 of the band dropped.

    A node sums the PV nodes of its cluster's near window (``_pv_rule``) as
    exact difference quotients.  The far field is tabulated as
    G = sum w (g_q - g_c)/(t - x_q) and F = sum w/(t - x_q), g_c = g^2 at the
    cluster centre, and combined as G - (g^2(a) - g_c) F: subtracting g_c
    avoids the cancellation of sum w g_q/(a - x_q) - g^2(a) sum w/(a - x_q).
    Every scratch buffer holds at most ``_TABLE_BLOCK_BYTES``.
    """
    pv_nodes, pv_w, field = _pv_rule(cm)
    g2_pv = cm.g_sq(pv_nodes)
    node_start = np.searchsorted(nodes, field.bounds)
    node_start[[0, -1]] = 0, nodes.size
    g2_centres = cm.g_sq(field.centres)

    budget = _TABLE_BLOCK_BYTES // 8
    buf, ratio = np.empty(budget), np.empty(budget)
    tiny = 1e-14 * cm.band
    sums = np.empty(nodes.size)
    for k, window in enumerate(field.windows):
        i0, i1 = node_start[k], node_start[k + 1]
        if i0 == i1:
            continue
        lo, hi = (0, pv_nodes.size) if window is None else (window.start, window.stop)

        # near field: the exact difference quotient
        rows = max(1, budget // (hi - lo))
        for i in range(i0, i1, rows):
            n = min(rows, i1 - i)
            a = nodes[i:i + n]
            db = buf[:n * (hi - lo)].reshape(n, hi - lo)
            rb = ratio[:n * (hi - lo)].reshape(n, hi - lo)
            np.subtract(a[:, None], pv_nodes[lo:hi], out=db)
            np.subtract(g2_pv[lo:hi], g2_nodes[i:i + n, None], out=rb)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(rb, db, out=rb)
            # a PV node closer than tiny is one of the two sorted neighbours
            pos = np.searchsorted(pv_nodes, a).clip(1, pv_nodes.size - 1)
            gap = np.minimum(np.abs(a - pv_nodes[pos - 1]), np.abs(a - pv_nodes[pos]))
            if gap.min() < tiny:
                rb[np.abs(db) < tiny] = 0.0
            sums[i:i + n] = rb @ pv_w[lo:hi]
        if window is None:
            continue

        # far field: columns (G, F) below and above the window, added
        g_c = g2_centres[k]
        table = field.table(k, (pv_w * (g2_pv - g_c), pv_w), buf, ratio)
        gf = table[:, :2] + table[:, 2:]
        rows = budget // POINTS
        for i in range(i0, i1, rows):
            j = min(i + rows, i1)
            far = field.evaluate(k, nodes[i:j], gf)
            sums[i:j] += far[:, 0] - (g2_nodes[i:j] - g_c) * far[:, 1]
    return sums


def build_weight_table(
    cm: ContinuumModel,
    n_panels: int,
    order: int = _GAUSS_ORDER,
) -> WeightTable:
    """Evaluate the weight density on all panel nodes.

    The principal value at node a is the PV-rule sum of the difference
    quotient (g^2(w) - g^2(a))/(a - w), with the terms at |a - w| below
    1e-14 of the band dropped, plus the analytic edge logarithm.  The sum is
    split into near and far fields (``_pv_sums``): the PV nodes of the near
    window of a node's cluster enter term by term, in row blocks of
    ``_TABLE_BLOCK_BYTES``, and the rest through the Cauchy-sum kernel's
    Chebyshev interpolant per cluster.  A scheme whose node pairs exceed
    ``_MAX_WORK`` is refused before anything is allocated (``_check_work``).
    """
    _check_work(n_panels * order, _PV_PANELS * _PV_ORDER)
    n_panels = int(n_panels)
    nodes, wq, centres, offsets = _panel_nodes(cm.omega_min, cm.omega_max, n_panels, order)
    g2_nodes = cm.g_sq(nodes)
    pv_vals = _pv_sums(cm, nodes, g2_nodes)
    pv_vals += g2_nodes * np.log((nodes - cm.omega_min) / (cm.omega_max - nodes))

    re = nodes - cm.omega_sub - pv_vals
    im = math.pi * g2_nodes
    # a denominator that overflows (g^2 near 1e154) leaves a density below
    # 1/(pi^2 g^2) ~ 1e-155 as its limit 0
    with np.errstate(over="ignore"):
        density = g2_nodes / (re * re + im * im)
    completeness = float(density @ wq)
    return WeightTable(
        nodes=nodes,
        quad_weights=wq,
        density=density,
        panel_width=cm.band / n_panels,
        completeness=completeness,
        centres=centres,
        offsets=offsets,
    )


def survival_amplitude_continuum(
    cm: ContinuumModel,
    t,
    table: WeightTable | None = None,
):
    """Oscillatory quadrature of the weight density times exp(-i*alpha*t).

    Panels are auto-sized from the largest requested time unless a scheme is
    supplied; a supplied scheme whose panels cannot resolve the phase
    (panel_width * t > 0.5) is refused rather than silently inaccurate.  The
    completeness norm of the scheme is checked before use, and a scheme whose
    predicted work exceeds ``_MAX_WORK`` is refused before it is built.

    The sum over the P*Q nodes is evaluated in factored form:
    s(t) = sum_q exp(-i offsets_q t) sum_p c_pq exp(-i centres_p t), one
    ``mode_sum`` over the P panel centres with Q coefficient columns.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    scalar = np.asarray(t).ndim == 0
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ContinuumError("survival amplitude is defined for finite t >= 0")
    t_max = float(ts.max()) if ts.size else 0.0

    if table is None:
        panels = _auto_panels(cm, t_max)
        _check_work(panels * _GAUSS_ORDER, _PV_PANELS * _PV_ORDER, ts.size)
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

    s = mode_sum(table.centres, coeffs, ts, reduce=over_offsets)
    return complex(s[0]) if scalar else s


def khalfin_tail(
    cm: ContinuumModel,
    t_range: tuple[float, float],
    n_times: int = 48,
) -> float:
    """Log-log slope of the survival probability over a late-time window.

    Valid only between the memory time of the upper cutoff and the reciprocal
    lower cutoff (1/omega_max << t < 1/omega_min), where the band-edge
    contributions produce the power-law tail.
    """
    t_lo, t_hi = t_range
    if not 0 < t_lo < t_hi:
        raise ContinuumError(f"bad t_range {t_range}")
    if cm.omega_min <= 0:
        raise ContinuumError("the power-law window needs a positive lower cutoff")
    if t_lo < 5.0 / cm.omega_max or t_hi > 1.0 / cm.omega_min:
        raise ContinuumError(
            f"fit window {t_range} outside the validity range "
            f"[{5.0 / cm.omega_max:g}, {1.0 / cm.omega_min:g}]"
        )
    ts = np.geomspace(t_lo, t_hi, n_times)
    s = survival_amplitude_continuum(cm, ts)
    p = np.abs(s) ** 2
    if np.any(p <= 0):
        raise ContinuumError("survival probability underflowed in the fit window")
    slope, _ = np.polyfit(np.log(ts), np.log(p), 1)
    return float(slope)


def asymptotic_occupation(cm: ContinuumModel, weak_coupling: bool = False) -> float:
    """Long-time subsystem occupation.

    In the vanishing-coupling limit the weight density contracts to a delta at
    omega_sub and the value is the bare thermal occupancy 1/(exp(beta W) - 1);
    at finite coupling it is the thermal occupancy averaged over the weight
    density.
    """
    if weak_coupling:
        return thermal_occupancy(cm.beta, cm.omega_sub)
    table = build_weight_table(cm, _auto_panels(cm, 0.0))
    if abs(table.completeness - 1.0) > 1e-4:
        raise ContinuumError(
            f"weight density integrates to {float(table.completeness)!r}; "
            "cannot form the thermal average"
        )
    occ = _bose_occupancies(cm.beta, table.nodes)
    return float((table.density * occ) @ table.quad_weights)


def _edge_regular_integral(cm: ContinuumModel, side: str, margin: float,
                           quad_tol: float) -> float:
    """Integral of g^2/(distance to edge) with a relative edge margin.

    Uses the substitution u = log(distance), which removes the edge steepness.
    """
    sign, edge = (1.0, cm.omega_min) if side == "left" else (-1.0, cm.omega_max)

    def f(u):
        return cm.g_sq(edge + sign * np.exp(u))

    return _gauss_integral(f, math.log(margin * cm.band), math.log(cm.band), quad_tol,
                           f"{side} dissipation integral")


def validate_continuum(cm: ContinuumModel, quad_tol: float = 1e-10,
                       edge_margin: float = 1e-8) -> ContinuumValidityReport:
    """Evaluate both continuum dissipation integrals against their bounds.

    The band-edge singularity is regularized with a relative margin (the
    continuum analogue of the discrete spacing regulator); an integral whose
    value keeps growing as the margin shrinks is reported as divergent, which
    counts as a condition failure.  quad_tol is used as in ``pv_shift``.
    """
    _check_quad_tol(quad_tol)
    left_bound = cm.omega_sub - cm.omega_min
    right_bound = cm.omega_max - cm.omega_sub
    values = {}
    growth = {}
    for side in ("left", "right"):
        coarse = _edge_regular_integral(cm, side, margin=1e4 * edge_margin,
                                        quad_tol=quad_tol)
        fine = _edge_regular_integral(cm, side, margin=edge_margin, quad_tol=quad_tol)
        values[side] = fine
        growth[side] = fine - coarse
    bounds = {"left": left_bound, "right": right_bound}
    diverged = {s: growth[s] > 0.05 * bounds[s] for s in ("left", "right")}
    passes = {s: (not diverged[s]) and values[s] < bounds[s] for s in ("left", "right")}
    return ContinuumValidityReport(
        left_value=values["left"],
        right_value=values["right"],
        left_bound=left_bound,
        right_bound=right_bound,
        passes=(passes["left"], passes["right"]),
        diverged=(diverged["left"], diverged["right"]),
        edge_growth=(growth["left"], growth["right"]),
    )
