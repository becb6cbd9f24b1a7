"""Discrete oscillator-bath models and thermal initial states.

A model is a single subsystem oscillator of frequency ``omega_sub`` coupled
linearly (quanta-conserving form) to ``N`` bath oscillators with frequencies
``bath_freqs`` and effective couplings ``couplings``.  Raw masses and bare
coupling constants are already absorbed into the effective couplings, so the
model carries only the quantities the closed-form solution uses.

Units: hbar = k_B = 1, frequencies in units of the subsystem frequency scale.

Every refusal of the package is a ``QbmlabError``.  Here it is a ModelError,
also a ValueError: a parameter that is not finite or out of range, or a bath
count that is not a whole number of the right parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QbmlabError",
    "ModelError",
    "ModelFormatError",
    "SpectralModel",
    "InitialState",
    "ValidityReport",
    "build_equidistant_bath",
    "lorentzian_coupling",
    "thermal_occupancy",
    "validate_dissipation",
    "paper_default_model",
    "load_model",
    "save_model",
]

# above this beta*omega exp would overflow; the occupancy exp(-x)/(1 - exp(-x))
# underflows smoothly to 0
_EXP_OVERFLOW_ARG = 700.0


class QbmlabError(Exception):
    """Base of every refusal of the package; each error class keeps its builtin base too."""


class ModelError(QbmlabError, ValueError):
    """Invalid model parameters."""


class ModelFormatError(ModelError):
    """Malformed model file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ModelError(f"{name} must be a one-dimensional sequence")
    return arr


@dataclass(frozen=True)
class SpectralModel:
    """Subsystem + bath spectrum with thermal-state parameters.

    Attributes
    ----------
    omega_sub:
        Subsystem frequency (sets the frequency scale).
    beta:
        Inverse temperature of the bath.
    kappa:
        Mean initial quanta in the subsystem (any nonnegative real).
    bath_freqs:
        Strictly increasing positive bath frequencies, length N >= 1.
    couplings:
        Effective couplings, all nonzero, same length as ``bath_freqs``.
    mass:
        Subsystem mass (only rescales position/momentum observables).
    """

    omega_sub: float
    beta: float
    kappa: float
    bath_freqs: np.ndarray
    couplings: np.ndarray
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "omega_sub", float(self.omega_sub))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "mass", float(self.mass))
        freqs = _as_float_array(self.bath_freqs, "bath_freqs")
        coups = _as_float_array(self.couplings, "couplings")
        freqs.setflags(write=False)
        coups.setflags(write=False)
        object.__setattr__(self, "bath_freqs", freqs)
        object.__setattr__(self, "couplings", coups)

        for name in ("omega_sub", "beta", "kappa", "mass", "bath_freqs", "couplings"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ModelError(f"{name} must be finite")
        if self.omega_sub <= 0:
            raise ModelError(f"omega_sub must be positive, got {self.omega_sub}")
        if self.beta <= 0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        if self.kappa < 0:
            raise ModelError(f"kappa must be nonnegative, got {self.kappa}")
        if self.mass <= 0:
            raise ModelError(f"mass must be positive, got {self.mass}")
        if freqs.size < 1:
            raise ModelError("at least one bath oscillator is required")
        if coups.size != freqs.size:
            raise ModelError(
                f"couplings ({coups.size}) and bath_freqs ({freqs.size}) differ in length"
            )
        if freqs[0] <= 0:
            raise ModelError(f"bath frequencies must be positive, got omega_1 = {freqs[0]}")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
            bad = int(np.flatnonzero(np.diff(freqs) <= 0)[0])
            raise ModelError(
                "bath frequencies must be strictly increasing "
                f"(violation between entries {bad + 1} and {bad + 2})"
            )
        if np.any(coups == 0.0):
            bad = int(np.flatnonzero(coups == 0.0)[0])
            raise ModelError(
                f"coupling g[{bad + 1}] is zero: that bath frequency would itself become "
                "a normal frequency and the mode-coefficient formula is valid only for "
                "nonzero couplings"
            )
        with np.errstate(over="ignore"):  # the solver refuses couplings that strong
            underflow = coups * coups == 0.0
        if np.any(underflow):
            bad = int(np.flatnonzero(underflow)[0])
            raise ModelError(f"coupling g[{bad + 1}] = {float(coups[bad]):g} squares to zero: "
                             "the secular equation would see that bath frequency as uncoupled")

    @property
    def n_osc(self) -> int:
        """Number of bath oscillators N."""
        return int(self.bath_freqs.size)

    @property
    def band_width(self) -> float:
        return float(self.bath_freqs[-1] - self.bath_freqs[0])

    def uniform_spacing(self) -> float | None:
        """Common grid spacing if the bath is equidistant (every spacing within
        1e-9 of the mean, relative), else None."""
        if self.n_osc < 2:
            return None
        d = np.diff(self.bath_freqs)
        a = float(d.mean())
        if np.all(np.abs(d - a) <= 1e-9 * abs(a)):
            return a
        return None


@dataclass(frozen=True)
class InitialState:
    """Factorized subsystem(kappa) x thermal-bath first/second moments."""

    kappa: float
    bath_occupancies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa", float(self.kappa))
        occ = _as_float_array(self.bath_occupancies, "bath_occupancies")
        occ.setflags(write=False)
        object.__setattr__(self, "bath_occupancies", occ)
        if not (math.isfinite(self.kappa) and np.all(np.isfinite(occ))):
            raise ModelError("kappa and bath occupancies must be finite")
        if self.kappa < 0:
            raise ModelError(f"kappa must be nonnegative, got {self.kappa}")
        if np.any(occ < 0):
            raise ModelError("bath occupancies must be nonnegative")

    @classmethod
    def thermal(cls, model: SpectralModel) -> "InitialState":
        """Bath in equilibrium at the model's beta, subsystem at kappa quanta."""
        occ = _bose_occupancies(model.beta, model.bath_freqs)
        return cls(kappa=model.kappa, bath_occupancies=occ)


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the two positivity/dissipation sum conditions.

    ``passes[i]`` is True exactly when ``sums[i] < bounds[i]``.  The ratio
    ``d_bound_ratio`` = max|g| / (sqrt(2) * spacing) is reported only for
    equidistant grids, where the conservative coupling-strength bound applies
    (the bound is known to be excessive; exceeding it is not itself a failure).
    """

    left_sum: float
    right_sum: float
    left_bound: float
    right_bound: float
    passes: tuple[bool, bool]
    d_bound_ratio: float | None = None
    delta: float = field(default=0.0)

    @property
    def all_pass(self) -> bool:
        return all(self.passes)


def _bose_occupancies(beta: float, omega: np.ndarray) -> np.ndarray:
    """1/(exp(x) - 1) for x = beta * omega elementwise, as exp(-x)/(1 - exp(-x))
    where exp(x) overflows; where x itself overflows, its limit 0."""
    with np.errstate(over="ignore"):
        x = beta * omega
    large = x > _EXP_OVERFLOW_ARG
    occ = np.empty_like(x)
    occ[~large] = 1.0 / np.expm1(x[~large])
    tail = np.exp(-x[large])
    occ[large] = tail / (1.0 - tail)
    return occ


def thermal_occupancy(beta: float, omega: float) -> float:
    """Bose-Einstein mean occupation 1/(exp(beta*omega) - 1)."""
    if not 0 < beta < math.inf:
        raise ModelError(f"beta must be positive and finite, got {beta}")
    if not 0 < omega < math.inf:
        raise ModelError(f"omega must be positive and finite, got {omega}")
    x = beta * omega
    if x > _EXP_OVERFLOW_ARG:
        return math.exp(-x) / (1.0 - math.exp(-x))
    value = 1.0 / math.expm1(x)
    if not math.isfinite(value):
        raise ModelError(f"thermal occupancy out of range for beta*omega = {x:g}")
    return value


def build_equidistant_bath(
    omega_sub: float,
    n_osc: int,
    band_width: float | None = None,
    convention: str = "prose",
    spacing: float | None = None,
) -> np.ndarray:
    """Equidistant bath frequencies centered on the subsystem frequency.

    omega_n = omega_sub + A*(n - (N+1)/2) for n = 1..N, with N odd so the
    central frequency equals omega_sub exactly.  The spacing A is either given
    directly or derived from ``band_width`` under one of two conventions:

    - ``"prose"``:   A = band_width / (N - 2)
    - ``"formula"``: A = band_width / (N - 1), i.e. band_width = omega_N - omega_1

    Both conventions are in circulation for this model family and differ at
    the percent level for small N; runs record which one they used.
    """
    if not (n_osc >= 1 and float(n_osc).is_integer() and n_osc % 2 == 1):
        raise ModelError(f"n_osc must be a positive odd integer, got {n_osc}")
    n_osc = int(n_osc)
    if not math.isfinite(omega_sub):
        raise ModelError(f"omega_sub must be finite, got {omega_sub}")
    if (band_width is None) == (spacing is None):
        raise ModelError("exactly one of band_width or spacing must be given")
    if spacing is not None:
        a = float(spacing)
        if not 0 < a < math.inf:
            raise ModelError(f"spacing must be positive and finite, got {a}")
    else:
        if not 0 < band_width < math.inf:
            raise ModelError(f"band_width must be positive and finite, got {band_width}")
        if convention == "prose":
            denom = n_osc - 2
        elif convention == "formula":
            denom = n_osc - 1
        else:
            raise ModelError(f"unknown band-width convention {convention!r}")
        if denom < 1:
            raise ModelError(
                f"n_osc = {n_osc} is too small for a band-width grid; give spacing directly"
            )
        a = float(band_width) / denom
    n = np.arange(1, n_osc + 1, dtype=float)
    freqs = omega_sub + a * (n - (n_osc + 1) / 2.0)
    if freqs[0] <= 0:
        raise ModelError(
            f"lowest bath frequency omega_1 = {freqs[0]:g} is not positive; "
            "narrow the band or raise omega_sub"
        )
    return freqs


def lorentzian_coupling(
    bath_freqs: np.ndarray,
    omega_sub: float,
    d_amp: float,
    a_width: float,
) -> np.ndarray:
    """Couplings g_n = D * a^2 / (a^2 + (omega_n - omega_sub)^2).

    Peaks at D on resonance and equals D/2 at detuning a.
    """
    if not (a_width > 0 and 0 < a_width * a_width < math.inf):
        raise ModelError(f"a_width must be positive with a finite, nonzero square, got {a_width}")
    freqs = _as_float_array(bath_freqs, "bath_freqs")
    if not (math.isfinite(omega_sub) and math.isfinite(d_amp) and np.isfinite(freqs).all()):
        raise ModelError("bath_freqs, omega_sub and d_amp must be finite")
    # a detuning whose square overflows leaves the coupling at its limit, 0; an
    # overflowing peak leaves nan, which SpectralModel rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return d_amp * a_width**2 / (a_width**2 + (freqs - omega_sub) ** 2)


def validate_dissipation(model: SpectralModel, delta: float | None = None) -> ValidityReport:
    """Evaluate both positivity sum conditions against their bounds.

    ``delta`` defaults to the smallest spacing between contiguous bath
    frequencies (the natural infinitesimal for the discrete grid).  Failing
    conditions are reported, never raised: deliberately over-coupled models
    are legitimate study objects.
    """
    w = model.bath_freqs
    if delta is None:
        delta = float(np.diff(w).min()) if model.n_osc > 1 else float(w[0])
    if not 0 < delta < math.inf:
        raise ModelError(f"delta must be positive and finite, got {delta}")
    # couplings whose squares overflow give infinite sums, which fail their bounds
    with np.errstate(over="ignore"):
        g2 = model.couplings**2
        left_sum = float(np.sum(g2 / (w - w[0] + delta)))
        # (w[-1] - w) + delta: the top term is delta even where w[-1] + delta rounds to w[-1]
        right_sum = float(np.sum(g2 / ((w[-1] - w) + delta)))
    left_bound = float(model.omega_sub - w[0] + delta)
    right_bound = float(w[-1] + delta - model.omega_sub)
    ratio = None
    spacing = model.uniform_spacing()
    if spacing is not None:
        ratio = float(np.abs(model.couplings).max() / (math.sqrt(2.0) * spacing))
    return ValidityReport(
        left_sum=left_sum,
        right_sum=right_sum,
        left_bound=left_bound,
        right_bound=right_bound,
        passes=(left_sum < left_bound, right_sum < right_bound),
        d_bound_ratio=ratio,
        delta=float(delta),
    )


def paper_default_model(
    n_modes: int,
    convention: str = "prose",
    band_width: float = 0.018,
    d_over_a: float = 1.0,
    omega_sub: float = 1.0,
    beta: float = 1.0,
    kappa: float = 1.0,
) -> SpectralModel:
    """Reference model family: equidistant band with Lorentzian couplings.

    ``n_modes`` counts all oscillators including the subsystem (N + 1), so the
    bath size N = n_modes - 1 must be odd.  The coupling peak is D = d_over_a * A
    and the Lorentzian half-width is a = A*(N-2)/2, which puts roughly half the
    peak coupling at the band edges.
    """
    n_osc = n_modes - 1
    if not (n_osc >= 3 and float(n_osc).is_integer() and n_osc % 2 == 1):
        raise ModelError(
            f"n_modes = {n_modes} requires an odd bath size >= 3, got N = {n_osc}"
        )
    freqs = build_equidistant_bath(omega_sub, n_osc, band_width=band_width, convention=convention)
    a = float(freqs[1] - freqs[0])
    a_width = a * (n_osc - 2) / 2.0
    d_amp = d_over_a * a
    g = lorentzian_coupling(freqs, omega_sub, d_amp, a_width)
    return SpectralModel(
        omega_sub=omega_sub,
        beta=beta,
        kappa=kappa,
        bath_freqs=freqs,
        couplings=g,
    )


# --- plain-text model files -------------------------------------------------
#
# Format: `key = value` lines for the scalars (omega_sub, beta, kappa, mass),
# then a `[bath]` section with one whitespace-separated "omega  g" pair per
# line.  `#` starts a comment; blank lines are ignored.

_SCALAR_KEYS = ("omega_sub", "beta", "kappa", "mass")


def _utf8_lines(fh):
    """The lines of a text file; bytes that are not UTF-8 are a ModelFormatError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not UTF-8 text ({exc.reason})") from None


def load_model(path) -> SpectralModel:
    """Parse a model file, reporting the line number of any defect."""
    scalars: dict[str, float] = {}
    freqs: list[float] = []
    coups: list[float] = []
    in_bath = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(_utf8_lines(fh), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.lower() == "[bath]":
                if in_bath:
                    raise ModelFormatError("duplicate [bath] section", lineno)
                in_bath = True
                continue
            if not in_bath:
                if "=" not in line:
                    raise ModelFormatError(f"expected 'key = value', got {line!r}", lineno)
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _SCALAR_KEYS:
                    raise ModelFormatError(f"unknown key {key!r}", lineno)
                if key in scalars:
                    raise ModelFormatError(f"duplicate key {key!r}", lineno)
                try:
                    scalars[key] = float(value.strip())
                except ValueError:
                    raise ModelFormatError(
                        f"cannot parse value for {key!r}: {value.strip()!r}", lineno
                    ) from None
            else:
                parts = line.split()
                if len(parts) != 2:
                    raise ModelFormatError(
                        f"expected 'omega  g' pair, got {line!r}", lineno
                    )
                try:
                    freqs.append(float(parts[0]))
                    coups.append(float(parts[1]))
                except ValueError:
                    raise ModelFormatError(f"cannot parse pair {line!r}", lineno) from None
    if "omega_sub" not in scalars:
        raise ModelFormatError("missing required key 'omega_sub'")
    if not freqs:
        raise ModelFormatError("missing or empty [bath] section")
    return SpectralModel(
        omega_sub=scalars["omega_sub"],
        beta=scalars.get("beta", 1.0),
        kappa=scalars.get("kappa", 1.0),
        bath_freqs=np.array(freqs),
        couplings=np.array(coups),
        mass=scalars.get("mass", 1.0),
    )


def save_model(model: SpectralModel, path) -> None:
    """Write a model file that load_model round-trips to full precision."""
    lines = [
        f"omega_sub = {model.omega_sub:.17g}",
        f"beta = {model.beta:.17g}",
        f"kappa = {model.kappa:.17g}",
        f"mass = {model.mass:.17g}",
        "[bath]",
    ]
    for w, g in zip(model.bath_freqs, model.couplings):
        lines.append(f"{w:.17g}  {g:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
