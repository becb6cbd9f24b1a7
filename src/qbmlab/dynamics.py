"""Closed-form time evolution of mean observables and transition probabilities.

Everything here is a finite mode sum over the solved normal frequencies; no
time stepping is involved, so samples are independent.  Every function of
time passes its times to ``mode_sum``, which alone shapes the result.  Every
sum runs one loop over blocks of B samples, each summed over fixed panels of
modes, and a sample's value depends on its index and, in the last block, on
that block's row count.  On a uniform ``TimeGrid`` the phase factors come
from anchored rotations instead of one cos/sin call per mode and sample;
they reproduce the direct kernel's phases fl(t * omega) to a few ulp.

All probability evaluations use the amplitude form: a single sum over modes
followed by a modulus squared.  It is algebraically identical to the
double-cosine sums but costs O(N) per channel instead of O(N^2) and is better
conditioned.  Bath indices n, m are 1-based.

Occupation sums, kappa |sum a e|^2 + sum_n nbar_n |sum a K_n e|^2, would need
one channel per bath oscillator.  Where the occupancies are a low-degree
polynomial of the frequency to within 1e-14 of their scale, the secular
equation folds them into a constant plus a small Hermitian form in K+1
Chebyshev-weighted mode sums (``_chebyshev_form``), O(N K) per sample; other
occupancies keep the N+1 dense channels (``_occupation_form``).

Input contract: a time argument is one time, a 1-d array or a TimeGrid, read
by ``_read_times``; more dimensions, and phases that are not finite or round
too coarsely, raise ModelError.  A bath index that is not a whole number in
1..N raises IndexError naming it.  An initial state needs one occupancy per
bath oscillator, and a series a TimeGrid, else ModelError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "asymptotic_mean_occupation",
    "evolve_series",
    "OBSERVABLES",
]

# refusal bound on eps * max|freq| * max|t|, the rounding of the largest phase
# in radians: 1e-8 is a phase of ~4.5e7 rad, beyond which the cos/sin values
# carry little of the sum's information
_PHASE_ROUNDING_LIMIT = 1e-8
# mode sums run in blocks of B samples, B the larger of these rows and these
# phases over the modes; on a grid, the samples k = jB + r of block j share
# the anchor phase of sample jB
_PHASE_BLOCK_ROWS = 64
_PHASE_BLOCK_PHASES = 2**15
# each block's product runs over panels of P modes, P the larger of
# min(N, _PANEL_MIN_MODES) and _PANEL_MACS / (B J): 4x below the ~1e6
# multiply-adds at which OpenBLAS splits a GEMM over its threads
_PANEL_MACS = 250_000
_PANEL_MIN_MODES = 256
# occupation sums as a Chebyshev form (``_occupation_form``): the degree cap,
# and the error bound it must meet, relative to max(kappa, max nbar)
_FORM_MAX_DEGREE = 24
_FORM_TOL = 1e-14
# the form's QR goes by row blocks of at most this many rows
# (``_triangular_factor``): a 340 x 27 QR wakes OpenBLAS's threads
_QR_ROWS = 256


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: t0 + dt * [0, count); a refused grid raises ModelError."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)):
            raise ModelError(f"t0 and dt must be finite, got {self.t0}, {self.dt}")
        if self.dt <= 0:
            raise ModelError(f"dt must be positive, got {self.dt}")
        if not (self.count >= 1 and float(self.count).is_integer()):
            raise ModelError(f"count must be a whole number >= 1, got {self.count}")
        object.__setattr__(self, "count", int(self.count))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.count)


@dataclass
class TimeSeries:
    """Named observable columns over a common grid.

    An invalid sample is NaN in its column; every column has grid length.
    ``occupation_form`` is how N_omega was summed, as the form's ``kind``,
    ``degree``, ``fit_residual`` and ``error_bound``, and ``plateau`` is the
    Cesaro mean of N_omega, the mean of that same form
    (``asymptotic_mean_occupation``); both are None without N_omega.
    """

    grid: TimeGrid
    columns: dict[str, np.ndarray]
    occupation_form: dict | None = None
    plateau: float | None = None

    def __post_init__(self):
        for name, col in self.columns.items():
            if col.shape != (self.grid.count,):
                raise ModelError(f"column {name!r} length {col.shape} != grid count")

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {sorted(self.columns)}")
        return self.columns[name]


def _check_grid(grid) -> None:
    """Refuse anything but a TimeGrid where a series needs one, with a ModelError."""
    if not isinstance(grid, TimeGrid):
        raise ModelError(f"a series needs a TimeGrid, got {type(grid).__name__}")


def _block_trig(ts, dt, freqs, cols):
    """Tile source of cos and sin of the phases fl(ts[k] * freqs).

    For an array of times (``dt`` None) every value comes from libm.  On a
    uniform grid of step ``dt``, sample k = jB + r keeps the phase
    p = fl(ts[k] * freqs), but its cos and sin are rotated from two phases
    that go through libm: the anchor g = fl(ts[jB] * freqs) of its block,
    the phase of sample jB, and b = fl(fl(r dt) * freqs), shared by all
    blocks.  With cos(g + b) = cos g cos b - sin g sin b (and likewise sin),
    the remainder d = (p - g) - b is applied to first order.  When the
    block's times lie within a factor 2 of its anchor time, or that time is
    0, p - g is exact (Sterbenz) and d carries only a relative rounding; |d|
    is a few eps |p|, at most ~3e-8 rad under the phase refusal bound, so
    each value is within a few ulp of cos(p), sin(p).  The few blocks that
    miss the factor 2, all next to t = 0, take cos(p) and sin(p) from libm.

    Returns (B, P, trig): ``trig(a, b, lo, hi)`` gives cos and sin of the
    tile of samples a..b-1 (a = jB, b = min(a + B, T)) and modes lo..hi-1
    (lo = iP, hi = min(lo + P, N)) as contiguous views of one scratch buffer
    of 4 B P floats, overwritten by the next call.  A grid also holds b,
    cos b and sin b, three B x N tables stored panel by panel, so that every
    operand of a tile is contiguous.  P is chosen for ``cols`` coefficient
    columns, as ``mode_sum`` says.
    """
    block = max(_PHASE_BLOCK_ROWS, _PHASE_BLOCK_PHASES // max(freqs.size, 1))
    panel = max(min(freqs.size, _PANEL_MIN_MODES), _PANEL_MACS // (block * max(cols, 1)))
    rows = min(block, ts.size)
    scratch = np.empty(4 * rows * min(panel, freqs.size))
    if dt is not None:
        steps = dt * np.arange(rows)
        tables = []
        for lo in range(0, freqs.size, panel):
            base = np.multiply.outer(steps, freqs[lo:lo + panel])
            tables.append((base, np.cos(base), np.sin(base)))

    def trig(a, stop, lo, hi):
        n, w = stop - a, hi - lo
        c, s, phase, t = scratch[:4 * n * w].reshape(4, n, w)
        np.multiply.outer(ts[a:stop], freqs[lo:hi], out=phase)
        if dt is None:
            return np.cos(phase, out=c), np.sin(phase, out=s)
        ta, tl = ts[a], ts[stop - 1]
        if not (ta == 0 or 0 < ta and tl <= 2 * ta or tl < 0 and 2 * tl <= ta):
            return np.cos(phase, out=c), np.sin(phase, out=s)
        anchor = ta * freqs[lo:hi]
        gc, gs = np.cos(anchor), np.sin(anchor)
        base, bc, bs = (table[:n] for table in tables[lo // panel])
        phase -= anchor
        phase -= base                     # d, exact to a relative rounding
        np.multiply(bc, gc, out=c)
        c -= np.multiply(bs, gs, out=t)   # cos(g + b)
        np.multiply(bc, gs, out=s)
        s += np.multiply(bs, gc, out=t)   # sin(g + b)
        np.multiply(s, phase, out=t)
        phase *= c
        c -= t                            # cos(g + b) - d sin(g + b)
        s += phase                        # sin(g + b) + d cos(g + b)
        return c, s

    return block, panel, trig


def _read_times(t):
    """(1-d times, a TimeGrid's step or None, whether t is one time); ndim > 1 is refused."""
    if isinstance(t, TimeGrid):
        return t.times, t.dt, False
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ModelError(f"times must be 0-d, 1-d or a TimeGrid, got shape {ts.shape}")
    return np.atleast_1d(ts), None, ts.ndim == 0


def mode_sum(freqs, coeffs, ts, reduce=None) -> np.ndarray:
    """S[k, ...] = sum_i coeffs[i, ...] exp(-i freqs[i] ts[k]); shape (T,) + coeffs.shape[1:].

    ``ts`` is a 1-d array or a ``TimeGrid`` of T times, or a single time
    (0-d), which gives its one row: a numpy scalar where a row is one value,
    else that row.  No other function of the package shapes a result by its
    times.  Times of more dimensions (``_read_times``), frequencies that are
    not 1-d, and coefficients that are not finite or whose first axis is not
    ``freqs.size``, are refused with a ModelError.  The sum is formed one
    block of B samples at a time, and each block over panels of P modes
    (``_block_trig``), as cos(phase) @ C and sin(phase) @ C: two real GEMMs
    per B x P tile instead of one complex-by-real product, taken while the
    tile's cos and sin are still in cache, and added panel by panel in mode
    order.  ``reduce``, when given,
    maps each complex block and its times to the per-time result, so a
    caller that needs only, say, |S|^2 @ q never holds the full (T, J) sum.
    A sum holds O(B P + B J) scratch for J columns, plus its output (and, on
    a grid, three B x N rotation tables).

    For an array every cos and sin comes from libm.  For a grid they are
    rotated from (T/B + B) N libm values, B >= 64, and stay within a few ulp
    of the array path's values: both round the phases to fl(t * freqs) with
    t = grid.times.  A sample's value depends on its index and, in the last
    block, on that block's row count.

    P is the larger of min(N, ``_PANEL_MIN_MODES``) and
    ``_PANEL_MACS`` / (B J), so a tile's product takes at most 2.5e5
    multiply-adds while J <= 2.5e5 / (B min(N, 256)), 15 columns where
    N >= 512: OpenBLAS runs such products on the calling thread, so the
    sum's bits do not depend on the BLAS thread count and no idle BLAS
    worker is left spinning.  Wider coefficient sets, such as the dense
    occupation form's N+1 columns, keep panels of min(N, 256) modes, and
    their products may still be split over BLAS threads.

    A sum whose largest phase rounds by more than ``_PHASE_ROUNDING_LIMIT``
    rad (eps * max|freq| * max|t|), or is not finite, is refused with a
    ModelError.
    """
    ts, dt, scalar = _read_times(ts)
    freqs = np.asarray(freqs, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if freqs.ndim != 1:
        raise ModelError(f"frequencies must be 1-d, got shape {freqs.shape}")
    if coeffs.shape[:1] != (freqs.size,):
        raise ModelError(f"coefficients of shape {coeffs.shape} need a first axis of "
                         f"{freqs.size}, one row per frequency")
    if not np.isfinite(coeffs).all():
        raise ModelError("coefficients must be finite")
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
    block, panel, trig = _block_trig(ts, dt, freqs, cols.shape[1])
    re, im, part = np.empty((3, min(block, ts.size), cols.shape[1]))
    out = None
    # an empty time array still makes one (empty) block, so out gets its shape
    for a in range(0, max(ts.size, 1), block):
        b = min(a + block, ts.size)
        for lo in range(0, freqs.size, panel):
            hi = min(lo + panel, freqs.size)
            cos, sin = trig(a, b, lo, hi)
            if lo == 0:
                np.matmul(cos, cols[lo:hi], out=re[:b - a])
                np.matmul(sin, cols[lo:hi], out=im[:b - a])
            else:
                re[:b - a] += np.matmul(cos, cols[lo:hi], out=part[:b - a])
                im[:b - a] += np.matmul(sin, cols[lo:hi], out=part[:b - a])
        s = np.empty((b - a, cols.shape[1]), dtype=complex)
        s.real = re[:b - a]
        s.imag = -im[:b - a]
        s = s.reshape((-1,) + coeffs.shape[1:])
        res = s if reduce is None else reduce(s, ts[a:b])
        if out is None:
            out = np.empty((ts.size,) + res.shape[1:], dtype=res.dtype)
        out[a:b] = res
    return out[0] if scalar else out


def survival_amplitude(modes: NormalModes, t):
    """s(t) = sum_nu |Phi_nu|^2 exp(-i alpha_nu t); s(0) = 1."""
    return mode_sum(modes.alphas, modes.weights, t)


def p_omega_omega(modes: NormalModes, t):
    """Survival probability |s(t)|^2."""
    return _probability(modes, modes.weights, t)


def _check_index(modes: NormalModes, n: int) -> int:
    if not (1 <= n <= modes.model.n_osc and float(n).is_integer()):
        raise IndexError(f"bath index {n} is not a whole number in 1..{modes.model.n_osc}")
    return int(n) - 1


def _pole_column(modes: NormalModes, j: int) -> np.ndarray:
    """Column j of the pole-ratio matrix, g_j / (alpha_nu - omega_j), built alone."""
    return modes.model.couplings[j] / (modes.alphas - modes.model.bath_freqs[j])


def _probability(modes: NormalModes, amp: np.ndarray, t):
    """|sum_nu amp_nu exp(-i alpha_nu t)|^2."""
    # ufuncs: a numpy scalar's abs() and ** can round unlike the array loops
    return np.square(np.abs(mode_sum(modes.alphas, amp, t)))


def p_omega_n(modes: NormalModes, n: int, t):
    """Transition probability between the subsystem state and bath state n."""
    j = _check_index(modes, n)
    return _probability(modes, modes.weights * _pole_column(modes, j), t)


def p_nm(modes: NormalModes, n: int, m: int, t):
    """Transition probability between bath states n and m."""
    jn = _check_index(modes, n)
    jm = _check_index(modes, m)
    kn, km = _pole_column(modes, jn), _pole_column(modes, jm)
    return _probability(modes, modes.weights * (kn * km), t)


@dataclass(frozen=True)
class _OccupationForm:
    """Occupation sum N(t) = offset + Re sum_ij H_ij conj(S_i(t)) S_j(t).

    S = mode_sum(alphas, coeffs, t).  ``hermitian`` holds H, or its diagonal
    when it is 1-D.  ``kind`` is "dense" (coefficients [a, a K], H =
    diag(kappa, nbar), offset 0) or "chebyshev" (see ``_chebyshev_form``).
    For the Chebyshev form, ``fit_residual`` is max_n |p(omega_n) - nbar_n|
    of its polynomial occupancies, and ``error_bound`` adds the rounding
    bound of the reduce; the dense sum has neither.
    """

    coeffs: np.ndarray
    hermitian: np.ndarray
    offset: float
    kind: str
    degree: int | None
    fit_residual: float | None
    error_bound: float | None

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """N at each row of a block of S.

        H is real, so Re(conj(s) H s) = x H x + y H y for s = x + iy: two
        real products instead of a complex one.
        """
        h = self.hermitian
        if h.ndim == 1:
            return np.abs(s) ** 2 @ h + self.offset
        x, y = s.real, s.imag
        return ((x @ h) * x + (y @ h) * y).sum(axis=1) + self.offset

    def mean(self) -> float:
        """Cesaro mean of N(t): offset + sum_nu A_nu H A_nu^T over the rows A_nu of A = coeffs."""
        a, h = self.coeffs, self.hermitian
        if h.ndim == 1:
            return float(np.square(a).sum(0) @ h + self.offset)
        return float(np.sum((a @ h) * a) + self.offset)


def _rounding_bound(coeffs, hermitian, abs_offset: float) -> float:
    """eps (sum |offset terms| + sum_ij |H_ij| |A_i|_1 |A_j|_1): rounding of the reduce."""
    norms = np.abs(coeffs).sum(axis=0)
    return float(np.finfo(float).eps * (abs_offset + norms @ np.abs(hermitian) @ norms))


def _dense_form(modes: NormalModes, init: InitialState, amp: np.ndarray) -> _OccupationForm:
    """The occupation sum as written: kappa |sum a e|^2 + sum_n nbar_n |sum a K_n e|^2."""
    coeffs = np.concatenate([amp[:, None], amp[:, None] * modes.pole_ratios()], axis=1)
    quanta = np.concatenate([[init.kappa], init.bath_occupancies])
    return _OccupationForm(coeffs, quanta, 0.0, "dense", None, None, None)


def _chebyshev_vander(x: np.ndarray, degree: int) -> np.ndarray:
    """V[i, k] = T_k(x_i) for k = 0..degree, in C order: numpy's chebvander is
    Fortran-ordered, and BLAS rounds the products with V by their memory order."""
    return np.ascontiguousarray(np.polynomial.chebyshev.chebvander(x, degree))


def _divided_differences(degree: int) -> np.ndarray:
    """D[k, i, j]: (T_k(x) - T_k(y)) / (x - y) = sum_ij D[k, i, j] T_i(x) T_j(y).

    k = 0..degree+1.  From D_0 = 0, D_1 = 1 and
    D_{k+1} = 2x D_k + 2 T_k(y) - D_{k-1}; 2x T_0 = 2 T_1 and
    2x T_i = T_{i+1} + T_{i-1} act on the row index.
    """
    size = degree + 1
    times_2x = np.eye(size, k=1) + np.eye(size, k=-1)
    if size > 1:
        times_2x[1, 0] = 2.0
    d = np.zeros((degree + 2, size, size))
    d[1, 0, 0] = 1.0
    for k in range(1, degree + 1):
        d[k + 1] = times_2x @ d[k] - d[k - 1]
        d[k + 1, 0, k] += 2.0
    return d


def _chebyshev_map(modes: NormalModes) -> tuple[float, float]:
    """Centre and half-width of the hull of the roots and the bath frequencies."""
    bath = modes.model.bath_freqs
    lo, hi = min(modes.alphas[0], bath[0]), max(modes.alphas[-1], bath[-1])
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _chebyshev_form(modes: NormalModes, kappa: float, amp: np.ndarray, b: np.ndarray,
                    fit_residual: float) -> _OccupationForm:
    """Occupation sum with occupancies p(omega_n), p = sum_k b_k T_k(xi).

    xi = (omega - centre)/half maps the hull of the roots and the bath onto
    [-1, 1] (``_chebyshev_map``), K = b.size - 1 is the degree of p.  Partial
    fractions in omega_n, the secular equation
    sum_n g_n^2/(alpha - omega_n) = alpha - omega_sub and
    w = 1/(1 + sum_n K_n^2) give, for every |x_nu| = 1,

        sum_n p(omega_n) |sum_nu a_nu K_nun x_nu|^2
            = sum_nu p(alpha_nu) a_nu^2 / w_nu - sum_ij G_ij conj(S_i) S_j,

    S_i = sum_nu T_i(xi_nu) a_nu x_nu, where G is the Chebyshev coefficient
    matrix of the divided difference of P(z) = p(z)(z - omega_sub) - r(z),
    r(z) = sum_n g_n^2 (p(z) - p(omega_n))/(z - omega_n), a polynomial of
    degree K+1.  So N(t) needs K+1 mode-sum columns instead of N+1.  At
    computed roots the secular equation holds only to its residual f_nu,
    and the form then differs from the dense sum by
    sum a_nu a_mu conj(x_nu) x_mu (p_nu f_nu - p_mu f_mu)/(alpha_nu - alpha_mu).
    """
    model = modes.model
    centre, half = _chebyshev_map(modes)
    degree = b.size - 1
    at_bath = _chebyshev_vander((model.bath_freqs - centre) / half, degree)
    d = _divided_differences(degree)
    # chebyshev coefficients of P = half xi p + (centre - omega_sub) p - r
    poly = np.zeros(degree + 2)
    poly[1] += half * b[0]
    poly[:degree] += 0.5 * half * b[1:]
    poly[2:] += 0.5 * half * b[1:]
    poly[:degree + 1] += (centre - model.omega_sub) * b
    moments = model.couplings**2 @ at_bath
    poly[:degree + 1] -= np.einsum("k,kij,j->i", b, d[:degree + 1], moments) / half
    hermitian = -np.einsum("k,kij->ij", poly, d) / half
    hermitian[0, 0] += kappa
    at_roots = _chebyshev_vander((modes.alphas - centre) / half, degree)
    coeffs = at_roots * amp[:, None]
    diag_terms = (at_roots @ b) * amp**2 / modes.weights
    rounding = _rounding_bound(coeffs, hermitian, float(np.abs(diag_terms).sum()))
    return _OccupationForm(coeffs, hermitian, float(diag_terms.sum()), "chebyshev",
                           degree, fit_residual, fit_residual + rounding)


def _triangular_factor(a: np.ndarray) -> np.ndarray:
    """R of a = QR, up to the signs of its rows, by QRs of at most ``_QR_ROWS`` rows.

    The R factors of the row blocks of a, stacked, have the R of a as their
    own R, so no LAPACK call sees more than ``_QR_ROWS`` rows: OpenBLAS runs
    those on the calling thread.  Needs a.shape[1] < ``_QR_ROWS``.
    """
    while a.shape[0] > _QR_ROWS:
        a = np.concatenate([np.linalg.qr(a[i:i + _QR_ROWS], mode="r")
                            for i in range(0, a.shape[0], _QR_ROWS)])
    return np.linalg.qr(a, mode="r")


def _occupation_form(modes: NormalModes, init: InitialState, amp: np.ndarray) -> _OccupationForm:
    """The occupation sum with mode amplitudes ``amp``: certified form, else dense.

    The degree K of the least-squares Chebyshev fit p to nbar rises from 0
    until the form's error bound, the fit residual plus the rounding bound
    of the reduce, is within ``_FORM_TOL`` of max(kappa, max nbar), while
    K+1 < N+1 and K <= ``_FORM_MAX_DEGREE``.  Every degree's fit comes from
    one QR factorization of [V, nbar], V the degree-cap Chebyshev-Vandermonde
    matrix: the fit of degree K solves the leading (K+1)-square block of R
    against the first K+1 entries of R's last column, which are Q^T nbar
    (Golub & Van Loan, Matrix Computations, 5.3); the signs of R's rows,
    which the blocked QR (``_triangular_factor``) leaves open, cancel in
    those solves.  Amplitudes of a state, a = w or a = w K_j, keep
    sum_n |sum_nu a_nu K_nun x_nu|^2 <= 1, so the fit residual bounds the
    error of replacing nbar by p.  The fit is done in units of
    max(kappa, max nbar), so huge occupancies do not overflow.
    Below [V, nbar] sits [lambda I, 0], lambda = eps max(M, K) ||V||_F for the
    M x K matrix V: a ridge at the rank cutoff of lstsq's SVD, which keeps
    the fit bounded where the bath covers only part of the Chebyshev hull and
    V is numerically rank deficient; its leading blocks still fit each degree.
    Occupancies that no low-degree polynomial resolves (a wide or cold bath,
    irregular values) keep the dense sum.
    """
    kappa, nbar = init.kappa, init.bath_occupancies
    if nbar.size != modes.model.n_osc:
        raise ModelError(f"the initial state has {nbar.size} bath occupancies, "
                         f"the bath {modes.model.n_osc} oscillators")
    scale = max(kappa, float(nbar.max()))
    tol = _FORM_TOL * scale
    top = min(_FORM_MAX_DEGREE, nbar.size - 1)
    centre, half = _chebyshev_map(modes)
    vander = _chebyshev_vander((modes.model.bath_freqs - centre) / half, top)
    unit = scale if scale > 0 else 1.0  # nbar is all zero when the scale is
    rows, cols = vander.shape
    stacked = np.zeros((rows + cols, cols + 1))
    stacked[:rows, :cols] = vander
    stacked[:rows, cols] = nbar / unit
    # ||V||_F as a numpy sum: np.linalg.norm takes BLAS ddot
    np.fill_diagonal(stacked[rows:], np.finfo(float).eps * max(rows, cols)
                     * math.sqrt(np.square(vander).sum()))
    r = _triangular_factor(stacked)
    for degree in range(top + 1):
        size = degree + 1
        b = np.linalg.solve(r[:size, :size], r[:size, -1]) * unit
        fit_residual = float(np.abs(vander[:, :size] @ b - nbar).max())
        if fit_residual <= tol:
            form = _chebyshev_form(modes, kappa, amp, b, fit_residual)
            if form.error_bound <= tol:
                return form
    return _dense_form(modes, init, amp)


def _occupation(modes: NormalModes, init: InitialState, amp: np.ndarray, t):
    """kappa |sum amp e|^2 + sum_n nbar_n |sum amp K_n e|^2 with e = exp(-i alpha t).

    The occupation of the state whose mode amplitudes are ``amp``, summed by
    its certified Chebyshev form where there is one, else densely.
    """
    form = _occupation_form(modes, init, amp)
    return mode_sum(modes.alphas, form.coeffs, t, reduce=lambda s, _: form(s))


def mean_subsystem_occupation(modes: NormalModes, init: InitialState, t):
    """<N_sub(t)> = kappa P_00(t) + sum_n P_0n(t) nbar_n, amplitude-factorized."""
    return _occupation(modes, init, modes.weights, t)


def mean_bath_occupation(modes: NormalModes, init: InitialState, n: int, t):
    """<N_n(t)> = kappa P_n0(t) + sum_m P_nm(t) nbar_m."""
    j = _check_index(modes, n)
    return _occupation(modes, init, modes.weights * _pole_column(modes, j), t)


def mean_bath_occupations(modes: NormalModes, init: InitialState, t) -> np.ndarray:
    """All bath occupations at once; shape (T, N), or (N,) at a single time.

    Costs O(N^2) per sample and bath oscillator, O(T N^3) in all: this is the
    oracle for quanta conservation, which evolve_series writes in closed form.
    """
    return np.stack([mean_bath_occupation(modes, init, n, t)
                     for n in range(1, modes.model.n_osc + 1)], axis=-1)


def _start_point(x0: float, p0: float) -> complex:
    """x0 + i p0, whose modulus bounds X and P as |s(t)| <= 1.

    Twice the modulus must be finite: numpy's complex product forms |x0| + |p0|.
    """
    if not math.isfinite(2.0 * math.hypot(x0, p0)):
        raise ModelError(f"start point x0 = {x0}, p0 = {p0}: 2|x0 + i p0| is not finite")
    return complex(x0, p0)


def mean_position(modes: NormalModes, x0: float, p0: float, t):
    """<X(t)> for a thermal bath (bath first moments vanish).

    Re s(t) (x0 + i p0), multiplied as ``evolve_series`` multiplies, by the
    array loop with s first: numpy's scalar product, and the loop with the
    operands swapped, can round the imaginary part differently.
    """
    start = _start_point(x0, p0)
    return np.multiply(survival_amplitude(modes, t), start).real


def mean_momentum_tilde(modes: NormalModes, x0: float, p0: float, t):
    """<P(t)>/(M Omega), the momentum conjugate in rotation form; as ``mean_position``."""
    start = _start_point(x0, p0)
    return np.multiply(survival_amplitude(modes, t), start).imag


def asymptotic_mean_occupation(modes: NormalModes, init: InitialState) -> float:
    """Exact long-time (Cesaro) mean of <N_sub(t)>: the mean of its occupation form.

    This is the non-oscillating diagonal part of the occupation double sum:
    kappa sum_nu |Phi_nu|^4 + sum_n theta_N(omega_n) nbar_n.  For a dense bath
    the first term vanishes and only the bath-transfer term survives.  With
    a certified Chebyshev form it costs O(N K^2), and the pole-ratio matrix
    is not built.
    """
    return _occupation_form(modes, init, modes.weights).mean()


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
    for the survival amplitude and the position columns, O(N K) for N_omega
    with its K+1 Chebyshev columns, whose first column is s(t) itself (O(N^2)
    where N_omega falls back to the dense sum; the result's
    ``occupation_form`` says which ran, and its ``plateau`` is that form's
    mean, asymptotic_mean_occupation(modes, init)).  N_total is the
    conserved total kappa + sum nbar, written in closed form.  An empty
    selection returns an empty column set.  A start point with
    2|x0 + i p0| not finite is refused with a ModelError.
    """
    _check_grid(grid)
    names = list(observables)
    unknown = [n for n in names if n not in OBSERVABLES]
    if unknown:
        raise ModelError(f"unknown observables {unknown}; supported: {OBSERVABLES}")
    start = _start_point(x0, p0)
    columns: dict[str, np.ndarray] = {}
    record = plateau = None
    if "N_omega" in names:
        form = _occupation_form(modes, init, modes.weights)  # column 0 is w: s(t)
        record = {key: getattr(form, key)
                  for key in ("kind", "degree", "fit_residual", "error_bound")}
        both = mode_sum(modes.alphas, form.coeffs, grid,
                        reduce=lambda e, _: np.column_stack([e[:, 0], form(e)]))
        s = both[:, 0]
        columns["N_omega"] = both[:, 1].real
        plateau = form.mean()
    elif {"P_surv", "X_mean", "P_tilde_mean"} & set(names):
        s = mode_sum(modes.alphas, modes.weights, grid)
    if "P_surv" in names:
        columns["P_surv"] = np.abs(s) ** 2
    if "N_total" in names:
        columns["N_total"] = np.full(grid.count, init.kappa + init.bath_occupancies.sum())
    if "X_mean" in names or "P_tilde_mean" in names:
        # thermal bath: the mean amplitude X + iP rotates as s(t) (x0 + i p0)
        rotated = s * start
        columns["X_mean"], columns["P_tilde_mean"] = rotated.real, rotated.imag
    columns = {name: columns[name] for name in names}
    return TimeSeries(grid=grid, columns=columns, occupation_form=record, plateau=plateau)
