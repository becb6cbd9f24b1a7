"""Closed-form time evolution of mean observables and transition probabilities.

Everything here is a finite mode sum over the solved normal frequencies; no
time stepping is involved, so samples are independent, and a sample's value
does not depend on which other samples share its evaluation.  On a uniform
``TimeGrid`` the phase factors come from anchored rotations instead of one
cos/sin call per mode and sample (see ``mode_sum``); they reproduce the direct
kernel's phases fl(t * omega) to a few ulp.

All probability evaluations use the amplitude form: a single sum over modes
followed by a modulus squared.  It is algebraically identical to the
double-cosine sums but costs O(N) per channel instead of O(N^2) and is better
conditioned.  Bath indices n, m are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolve import NormalModes
from .model import InitialState, ModelError

__all__ = [
    "TimeGrid",
    "TimeSeries",
    "mode_sum",
    "survival_amplitude",
    "p_omega_omega",
    "p_omega_n",
    "p_nm",
    "mean_subsystem_occupation",
    "mean_bath_occupation",
    "mean_bath_occupations",
    "mean_position",
    "mean_momentum_tilde",
    "theta_profile",
    "long_time_average_survival",
    "asymptotic_mean_occupation",
    "evolve_series",
    "OBSERVABLES",
]

_SLAB_BYTES = 32 * 2**20  # memory budget of one time slab in mode_sum
# refusal bound on eps * max|freq| * max|t|, the rounding of the largest phase
# in radians: 1e-8 is a phase of ~4.5e7 rad, beyond which the cos/sin values
# carry little of the sum's information
_PHASE_ROUNDING_LIMIT = 1e-8
# grid phases: the B samples k = jB + r of block j share the anchor phase of
# sample jB; B is the larger of these rows and these phases over the modes
_PHASE_BLOCK_ROWS = 64
_PHASE_BLOCK_PHASES = 2**15
# row cap of a grid slab, whose cos and sin slabs are alive at once
_GRID_SLAB_ROWS = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: t0 + dt * [0, count)."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)):
            raise ValueError(f"t0 and dt must be finite, got {self.t0}, {self.dt}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.count)


@dataclass
class TimeSeries:
    """Named observable columns over a common grid.

    Invalid samples carry NaN and valid=False; every column has grid length.
    """

    grid: TimeGrid
    columns: dict[str, np.ndarray]
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.valid is None:
            self.valid = np.ones(self.grid.count, dtype=bool)
        for name, col in self.columns.items():
            if col.shape != (self.grid.count,):
                raise ValueError(f"column {name!r} length {col.shape} != grid count")
        if self.valid.shape != (self.grid.count,):
            raise ValueError("valid flags length != grid count")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {sorted(self.columns)}")
        return self.columns[name]


def _times_array(t) -> tuple[np.ndarray, bool]:
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    return np.atleast_1d(ts), scalar


def _direct_trig(ts, freqs):
    """Slab source of cos and sin of the phases fl(ts[k] * freqs), all from libm."""

    def trig(start, stop):
        phase = np.outer(ts[start:stop], freqs)
        return np.cos(phase), np.sin(phase, out=phase)

    return trig


def _grid_trig(ts, dt, freqs, rows):
    """Slab source of the same cos and sin on a uniform grid, with few libm calls.

    Sample k = jB + r has the direct kernel's phase p = fl(ts[k] * freqs).
    Its cos and sin are rotated from two phases that go through libm: the
    anchor g = fl(ts[jB] * freqs) of its block, the direct phase of sample
    jB, and b = fl(fl(r dt) * freqs), shared by all blocks.  With
    cos(g + b) = cos g cos b - sin g sin b (and likewise sin), the remainder
    d = (p - g) - b is applied to first order.  When the block's times lie
    within a factor 2 of its anchor time, or that time is 0, p - g is exact
    (Sterbenz) and d carries only a relative rounding; |d| is a few eps |p|,
    at most ~3e-8 rad under the phase refusal bound, so each value is within
    a few ulp of cos(p), sin(p).  The few blocks that miss the factor 2, all
    next to t = 0, take cos(p) and sin(p) from libm.  Blocks are fixed by k,
    so a sample's value does not depend on the slab it falls in.  The
    returned arrays are views of two buffers of ``rows`` rows, reused for
    every slab.
    """
    block = max(_PHASE_BLOCK_ROWS, _PHASE_BLOCK_PHASES // max(freqs.size, 1))
    base = np.multiply.outer(dt * np.arange(min(block, ts.size)), freqs)
    base_cos, base_sin = np.cos(base), np.sin(base)
    d, tmp = np.empty_like(base), np.empty_like(base)
    cos_buf = np.empty((rows, freqs.size))
    sin_buf = np.empty((rows, freqs.size))

    def trig(start, stop):
        stop = min(stop, ts.size)
        cos, sin = cos_buf[:stop - start], sin_buf[:stop - start]
        for a in range(start - start % block, stop, block):
            lo, hi = max(a, start), min(a + block, stop)
            c, s = cos[lo - start:hi - start], sin[lo - start:hi - start]
            phase, t = d[:hi - lo], tmp[:hi - lo]
            np.multiply.outer(ts[lo:hi], freqs, out=phase)
            ta, tl = ts[a], ts[min(a + block, ts.size) - 1]
            if not (ta == 0 or 0 < ta and tl <= 2 * ta or tl < 0 and 2 * tl <= ta):
                np.cos(phase, out=c)
                np.sin(phase, out=s)
                continue
            anchor = ta * freqs
            gc, gs = np.cos(anchor), np.sin(anchor)
            bc, bs = base_cos[lo - a:hi - a], base_sin[lo - a:hi - a]
            phase -= anchor
            phase -= base[lo - a:hi - a]      # d, exact to a relative rounding
            np.multiply(bc, gc, out=c)
            c -= np.multiply(bs, gs, out=t)   # cos(g + b)
            np.multiply(bc, gs, out=s)
            s += np.multiply(bs, gc, out=t)   # sin(g + b)
            np.multiply(s, phase, out=t)
            phase *= c
            c -= t                            # cos(g + b) - d sin(g + b)
            s += phase                        # sin(g + b) + d cos(g + b)
        return cos, sin

    return trig


def mode_sum(freqs, coeffs, ts, reduce=None) -> np.ndarray:
    """S[k, ...] = sum_i coeffs[i, ...] exp(-i freqs[i] ts[k]); shape (T,) + coeffs.shape[1:].

    ``ts`` is an array of times or a ``TimeGrid``.  The phase matrix is formed
    one time slab at a time, within a fixed memory budget, and multiplied as
    cos(phase) @ C and sin(phase) @ C: two real GEMMs instead of one
    complex-by-real product.  ``reduce``, when given, maps each complex slab
    and its times to the per-time result, so a caller that needs only, say,
    |S|^2 @ q never holds the full (T, J) sum.

    For an array every cos and sin comes from libm.  For a grid they are
    rotated from (T/B + B) N libm values, B >= 64 (``_grid_trig``), and stay
    within a few ulp of the array path's values: both round the phases to
    fl(t * freqs) with t = grid.times.

    A sum whose largest phase rounds by more than ``_PHASE_ROUNDING_LIMIT``
    rad (eps * max|freq| * max|t|), or is not finite, is refused with a
    ModelError.
    """
    freqs = np.asarray(freqs, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    grid = ts if isinstance(ts, TimeGrid) else None
    ts = grid.times if grid is not None else np.atleast_1d(np.asarray(ts, dtype=float))
    if freqs.size and ts.size:
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, and refused below
            max_phase = np.abs(freqs).max() * np.abs(ts).max()
        if not (np.finfo(float).eps * max_phase <= _PHASE_ROUNDING_LIMIT):
            if not np.isfinite(max_phase):
                raise ModelError("phases are not finite: frequencies and times must be")
            raise ModelError(
                f"phases up to {max_phase:.3g} rad round by more than "
                f"{_PHASE_ROUNDING_LIMIT:g} rad; ask for a shorter time span"
            )
    cols = coeffs.reshape(freqs.size, -1)
    step = max(1, _SLAB_BYTES // (8 * (2 * freqs.size + 4 * cols.shape[1])))
    if grid is not None:
        step = min(step, _GRID_SLAB_ROWS)
        trig = _grid_trig(ts, grid.dt, freqs, min(step, ts.size))
    else:
        trig = _direct_trig(ts, freqs)
    out = None
    # an empty time array still makes one (empty) slab, so out gets its shape
    for start in range(0, max(ts.size, 1), step):
        cos, sin = trig(start, start + step)
        slab = np.empty((cos.shape[0], cols.shape[1]), dtype=complex)
        slab.real = cos @ cols
        slab.imag = -(sin @ cols)
        del cos, sin  # a direct slab's arrays are freed before the next are made
        slab = slab.reshape((-1,) + coeffs.shape[1:])
        res = slab if reduce is None else reduce(slab, ts[start:start + step])
        if out is None:
            out = np.empty((ts.size,) + res.shape[1:], dtype=res.dtype)
        out[start:start + step] = res
    return out


def survival_amplitude(modes: NormalModes, t):
    """s(t) = sum_nu |Phi_nu|^2 exp(-i alpha_nu t); s(0) = 1."""
    ts, scalar = _times_array(t)
    s = mode_sum(modes.alphas, modes.weights, ts)
    return complex(s[0]) if scalar else s


def p_omega_omega(modes: NormalModes, t):
    """Survival probability |s(t)|^2."""
    return abs(survival_amplitude(modes, t)) ** 2


def _check_index(modes: NormalModes, n: int) -> int:
    if not 1 <= n <= modes.model.n_osc:
        raise IndexError(f"bath index {n} outside 1..{modes.model.n_osc}")
    return n - 1


def _probability(modes: NormalModes, amp: np.ndarray, t):
    """|sum_nu amp_nu exp(-i alpha_nu t)|^2."""
    ts, scalar = _times_array(t)
    p = np.abs(mode_sum(modes.alphas, amp, ts)) ** 2
    return float(p[0]) if scalar else p


def p_omega_n(modes: NormalModes, n: int, t):
    """Transition probability between the subsystem state and bath state n."""
    j = _check_index(modes, n)
    return _probability(modes, modes.weights * modes.pole_ratios()[:, j], t)


def p_nm(modes: NormalModes, n: int, m: int, t):
    """Transition probability between bath states n and m."""
    jn = _check_index(modes, n)
    jm = _check_index(modes, m)
    k = modes.pole_ratios()
    return _probability(modes, modes.weights * (k[:, jn] * k[:, jm]), t)


def _occupation_terms(modes: NormalModes, init: InitialState, amp: np.ndarray):
    """Coefficients [amp, amp K] and quanta [kappa, nbar] of an occupation sum.

    The occupation of the state whose mode amplitudes are ``amp`` is
    kappa |sum amp e|^2 + sum_n nbar_n |sum amp K_n e|^2 with e = exp(-i alpha t).
    """
    coeffs = np.concatenate([amp[:, None], amp[:, None] * modes.pole_ratios()], axis=1)
    quanta = np.concatenate([[init.kappa], init.bath_occupancies])
    return coeffs, quanta


def _occupation(modes: NormalModes, init: InitialState, amp: np.ndarray, t):
    ts, scalar = _times_array(t)
    coeffs, quanta = _occupation_terms(modes, init, amp)
    out = mode_sum(modes.alphas, coeffs, ts, reduce=lambda s, _: np.abs(s) ** 2 @ quanta)
    return float(out[0]) if scalar else out


def mean_subsystem_occupation(modes: NormalModes, init: InitialState, t):
    """<N_sub(t)> = kappa P_00(t) + sum_n P_0n(t) nbar_n, amplitude-factorized."""
    return _occupation(modes, init, modes.weights, t)


def mean_bath_occupation(modes: NormalModes, init: InitialState, n: int, t):
    """<N_n(t)> = kappa P_n0(t) + sum_m P_nm(t) nbar_m."""
    j = _check_index(modes, n)
    return _occupation(modes, init, modes.weights * modes.pole_ratios()[:, j], t)


def mean_bath_occupations(modes: NormalModes, init: InitialState, t) -> np.ndarray:
    """All bath occupations at once; shape (T, N).

    Costs O(N^2) per sample and bath oscillator, O(T N^3) in all: this is the
    oracle for quanta conservation, which evolve_series writes in closed form.
    """
    ts, scalar = _times_array(t)
    out = np.stack([mean_bath_occupation(modes, init, n, ts)
                    for n in range(1, modes.model.n_osc + 1)], axis=1)
    return out[0] if scalar else out


def mean_position(modes: NormalModes, x0: float, p0: float, t):
    """<X(t)> for a thermal bath (bath first moments vanish)."""
    return (survival_amplitude(modes, t) * complex(x0, p0)).real


def mean_momentum_tilde(modes: NormalModes, x0: float, p0: float, t):
    """<P(t)>/(M Omega), the momentum conjugate in rotation form."""
    return (survival_amplitude(modes, t) * complex(x0, p0)).imag


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


def asymptotic_mean_occupation(modes: NormalModes, init: InitialState) -> float:
    """Exact long-time (Cesaro) mean of <N_sub(t)>.

    This is the non-oscillating diagonal part of the occupation double sum:
    kappa sum_nu |Phi_nu|^4 + sum_n theta_N(omega_n) nbar_n.  For a dense bath
    the first term vanishes and only the bath-transfer term survives.
    """
    return float(
        init.kappa * long_time_average_survival(modes)
        + theta_profile(modes) @ init.bath_occupancies
    )


OBSERVABLES = ("P_surv", "N_omega", "N_total", "X_mean", "P_tilde_mean")


def evolve_series(
    modes: NormalModes,
    init: InitialState,
    grid: TimeGrid,
    observables,
    x0: float = 1.0,
    p0: float = 0.0,
) -> TimeSeries:
    """Evaluate the requested observable columns over the grid.

    Supported names: P_surv, N_omega, N_total, X_mean, P_tilde_mean.  All
    requested mode sums share one mode_sum pass over the grid: O(N) per sample
    for the survival amplitude and the position columns, O(N^2) for N_omega.
    N_total is the conserved total kappa + sum nbar, written in closed form.
    An empty selection returns an empty column set.
    """
    names = list(observables)
    unknown = [n for n in names if n not in OBSERVABLES]
    if unknown:
        raise ValueError(f"unknown observables {unknown}; supported: {OBSERVABLES}")
    columns: dict[str, np.ndarray] = {}
    if "N_omega" in names:
        coeffs, quanta = _occupation_terms(modes, init, modes.weights)
        both = mode_sum(modes.alphas, coeffs, grid,
                        reduce=lambda e, _: np.column_stack([e[:, 0], np.abs(e) ** 2 @ quanta]))
        s = both[:, 0]
        columns["N_omega"] = both[:, 1].real
    elif {"P_surv", "X_mean", "P_tilde_mean"} & set(names):
        s = mode_sum(modes.alphas, modes.weights, grid)
    if "P_surv" in names:
        columns["P_surv"] = np.abs(s) ** 2
    if "N_total" in names:
        columns["N_total"] = np.full(grid.count, init.kappa + init.bath_occupancies.sum())
    if "X_mean" in names or "P_tilde_mean" in names:
        # thermal bath: the mean amplitude X + iP rotates as s(t) (x0 + i p0)
        rotated = s * complex(x0, p0)
        columns["X_mean"], columns["P_tilde_mean"] = rotated.real, rotated.imag
    columns = {name: columns[name] for name in names}
    return TimeSeries(grid=grid, columns=columns)
