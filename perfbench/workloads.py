"""Seeded workload inputs, dense references and output checks.

Each workload turns a seed into the command lines the program runs and
into a reference computed by the benchmark itself: the paper-default bath
is rebuilt here from its documented formulas, and the normal modes come
from a dense ``numpy.linalg.eigh`` of the arrowhead matrix.  No check
imports qbmlab, so an optimisation of the program cannot also change
what its output is compared against.  Checks allow for rounding
differences and never ask for byte equality.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BAND_WIDTH = 0.018          # paper-default band width, prose convention
CHECK_SAMPLES = 64          # rows compared against the dense reference
ALPHA_TOL = 1e-12           # normal frequencies, absolute
WEIGHT_TOL = 1e-8           # mode weights, absolute: the solver's documented closure bound
TRACE_TOL = 1e-12           # sum of normal frequencies, relative to the trace
SERIES_TOL = 1e-8           # mode sums against the reference, absolute
RATIO_TOL = 1e-6            # omega_sq and gamma, relative, where well conditioned
JSON_TOL = 1e-8             # scalar report values, relative
SURVIVAL_TOL = 1e-5         # continuum p(0) and its upper bound
SLOPE_TOL = 0.05            # continuum decay rate against 2*pi*g^2(Omega)


class CheckError(Exception):
    """An output file is missing, malformed, or disagrees with the reference."""


@dataclass
class Command:
    """One program invocation: subcommand argv and the check of its outputs."""

    argv: list[str]
    prefix: str
    check: Callable[[Path], None]


@dataclass
class Workload:
    commands: list[Command]
    inputs: dict        # the values drawn from the seed, for the detail record


# --- reference model ------------------------------------------------------------

@dataclass
class Arrowhead:
    """Model arrays, dense eigenpairs, and the thermal bath occupancies."""

    omega_sub: float
    kappa: float
    freqs: np.ndarray
    couplings: np.ndarray
    alphas: np.ndarray
    vectors: np.ndarray      # rows 0 (subsystem) .. N (bath); row 0 only if trimmed
    occupancies: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.vectors[0] ** 2


def paper_default(n_modes: int, d_over_a: float) -> tuple[np.ndarray, np.ndarray]:
    """Equidistant bath centred on 1 with Lorentzian couplings peaking at d*A."""
    n = n_modes - 1
    spacing = BAND_WIDTH / (n - 2)
    freqs = 1.0 + spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    half_width = spacing * (n - 2) / 2.0
    couplings = d_over_a * spacing * half_width**2 / (half_width**2 + (freqs - 1.0) ** 2)
    return freqs, couplings


def arrowhead(work: Path, freqs, couplings, beta=1.0, kappa=1.0, omega_sub=1.0,
              bath_rows=True) -> Arrowhead:
    """Dense eigenpairs, computed in a child process.

    The peak resident set of this process is inherited by every command it
    launches afterwards (Linux keeps the high-water mark across fork and
    exec), so the N^2 matrices must never live here.
    """
    path = work / "arrowhead.npz"
    np.savez(path, omega_sub=omega_sub, freqs=freqs, couplings=couplings,
             bath_rows=bath_rows)
    subprocess.run([sys.executable, __file__, str(path)], check=True, timeout=600)
    with np.load(path) as eig:
        alphas, vectors = eig["alphas"], eig["vectors"]
    path.unlink()
    return Arrowhead(omega_sub=omega_sub, kappa=kappa, freqs=freqs, couplings=couplings,
                     alphas=alphas, vectors=vectors,
                     occupancies=1.0 / np.expm1(beta * freqs))


def _dense_eigh(path: str) -> None:
    with np.load(path) as spec:
        omega_sub, freqs, couplings = spec["omega_sub"], spec["freqs"], spec["couplings"]
        bath_rows = bool(spec["bath_rows"])
    n = freqs.size + 1
    h = np.zeros((n, n))
    h[0, 0] = omega_sub
    h[0, 1:] = couplings
    h[1:, 0] = couplings
    h[np.arange(1, n), np.arange(1, n)] = freqs
    alphas, vectors = np.linalg.eigh(h)
    np.savez(path, alphas=alphas, vectors=vectors if bath_rows else vectors[:1])


def survival(ref: Arrowhead, ts: np.ndarray) -> np.ndarray:
    """s(t) = sum_nu |U_0nu|^2 exp(-i alpha_nu t)."""
    return np.exp(-1j * np.outer(ts, ref.alphas)) @ ref.weights


def occupation(ref: Arrowhead, ts: np.ndarray) -> np.ndarray:
    """<N_sub(t)> = kappa |s|^2 + sum_n nbar_n |<0|exp(-iHt)|n>|^2."""
    phase = np.exp(-1j * np.outer(ts, ref.alphas)) * ref.vectors[0]
    amplitudes = phase @ ref.vectors.T      # column 0: s(t); column n: <0|exp(-iHt)|n>
    return (ref.kappa * np.abs(amplitudes[:, 0]) ** 2
            + np.abs(amplitudes[:, 1:]) ** 2 @ ref.occupancies)


def plateau(ref: Arrowhead) -> float:
    """Time average of <N_sub(t)>: the diagonal part of its double mode sum."""
    u0 = ref.vectors[0]
    theta = ((u0 * ref.vectors[1:]) ** 2).sum(axis=1)
    return float(ref.kappa * np.sum(u0**4) + theta @ ref.occupancies)


# --- output readers -------------------------------------------------------------

def read_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    """Numeric columns of a CSV with the given header; empty fields read as NaN."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",") != header:
        raise CheckError(f"{path.name}: header {lines[:1]} is not {header}")
    if len(lines) - 1 != rows:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    fields = np.array([line.split(",") for line in lines[1:]], dtype=object)
    if fields.ndim != 2 or fields.shape[1] != len(header):
        raise CheckError(f"{path.name}: ragged rows")
    fields[fields == ""] = "nan"
    try:
        return fields.astype(float)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def check_manifest(out: Path, prefix: str, command: str) -> None:
    manifest = read_json(out / f"{prefix}_manifest.json")
    if manifest.get("command") != command:
        raise CheckError(f"manifest names command {manifest.get('command')!r}")
    for name in manifest.get("outputs", []):
        if not (out / name).is_file():
            raise CheckError(f"manifest lists missing output {name}")


def near(label: str, got, want, tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    if not err <= tol:  # also catches NaN
        raise CheckError(f"{label}: deviation {err:.3e} exceeds {tol:.1e}")


def sample_rows(rng: np.random.Generator, rows: int) -> np.ndarray:
    picks = rng.choice(rows, size=min(CHECK_SAMPLES, rows), replace=False)
    return np.unique(np.concatenate([[0, rows - 1], picks]))


def check_grid(ts: np.ndarray, t_max: float) -> None:
    want = t_max * np.arange(ts.size) / (ts.size - 1)
    near("time grid", ts, want, 1e-12 * t_max)


# --- workloads ------------------------------------------------------------------

def _draw(rng) -> float:
    return float(rng.uniform(0.8, 1.2))


def solve_large(seed: int, work: Path, smoke: bool) -> Workload:
    """Jittered N+1 = 4096 paper-default grid written as a model file."""
    rng = np.random.default_rng([seed, 1])
    n_modes = 64 if smoke else 4096
    freqs, couplings = paper_default(n_modes, 1.0)
    spacing = freqs[1] - freqs[0]
    freqs = freqs + rng.uniform(-0.25, 0.25, freqs.size) * spacing
    couplings = couplings * rng.uniform(0.8, 1.2, freqs.size)
    config = work / "model.txt"
    lines = ["omega_sub = 1.0", "beta = 1.0", "kappa = 1.0", "mass = 1.0", "[bath]"]
    lines += [f"{w!r}  {g!r}" for w, g in zip(freqs.tolist(), couplings.tolist())]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ref = arrowhead(work, freqs, couplings, bath_rows=False)

    def check(out: Path) -> None:
        data = read_csv(out / "solve_modes.csv", ["nu", "alpha", "weight", "residual"],
                        n_modes)
        nu, alpha, weight, residual = data.T
        if not np.all(np.isfinite(data)) or not np.array_equal(nu, np.arange(n_modes)):
            raise CheckError("modes: non-finite value or bad mode index")
        if not (alpha[0] < freqs[0] and alpha[-1] > freqs[-1]
                and np.all(alpha[1:-1] > freqs[:-1]) and np.all(alpha[1:-1] < freqs[1:])):
            raise CheckError("modes: roots do not interlace the bath frequencies")
        near("sum of weights", weight.sum(), 1.0, WEIGHT_TOL)
        trace = 1.0 + freqs.sum()
        near("sum of roots", alpha.sum(), trace, TRACE_TOL * trace)
        near("roots vs eigh", alpha, ref.alphas, ALPHA_TOL)
        near("weights vs eigh", weight, ref.weights, WEIGHT_TOL)
        check_manifest(out, "solve", "solve")

    argv = ["solve", "--config", str(config)]
    return Workload([Command(argv, "solve", check)],
                    {"n_modes": n_modes, "model_file": config.name})


def modesum_long(seed: int, work: Path, smoke: bool) -> Workload:
    """evolve and langevin at T >> N: mode sums plus 20000-row CSVs."""
    rng = np.random.default_rng([seed, 2])
    n_modes, t_max, points = (32, 2000.0, 400) if smoke else (500, 20000.0, 20000)
    grid = ["--t-max", repr(t_max), "--points", str(points)]
    commands = []
    inputs = {}
    for sub in ("evolve", "langevin"):
        beta, d = _draw(rng), _draw(rng)
        freqs, couplings = paper_default(n_modes, d)
        ref = arrowhead(work, freqs, couplings, beta=beta)
        rows = sample_rows(rng, points)
        argv = [sub, "--paper-defaults", "--n", str(n_modes), "--beta", repr(beta),
                "--d-over-a", repr(d)] + grid
        if sub == "evolve":
            argv += ["--obs", "N_omega,P_surv,X_mean,P_tilde_mean"]
            check = _evolve_check(ref, rows, t_max, points)
        else:
            check = _langevin_check(ref, rows, t_max, points)
        commands.append(Command(argv, sub, check))
        inputs[sub] = {"beta": beta, "d_over_a": d}
    return Workload(commands, {"n_modes": n_modes, "points": points, **inputs})


def _evolve_check(ref: Arrowhead, rows: np.ndarray, t_max: float, points: int):
    def check(out: Path) -> None:
        data = read_csv(out / "evolve_series.csv",
                        ["t", "N_omega", "P_surv", "X_mean", "P_tilde_mean"], points)
        t, n_omega, p_surv, x, p = data.T
        if not np.all(np.isfinite(data)):
            raise CheckError("series: non-finite value")
        check_grid(t, t_max)
        near("s(0)", p_surv[0], 1.0, SERIES_TOL)
        near("N_omega(0)", n_omega[0], ref.kappa, SERIES_TOL)
        near("X^2 + P^2 = P_surv", x**2 + p**2, p_surv, SERIES_TOL)
        s = survival(ref, t[rows])
        near("P_surv vs eigh", p_surv[rows], np.abs(s) ** 2, SERIES_TOL)
        near("X_mean vs eigh", x[rows], s.real, SERIES_TOL)
        near("P_tilde_mean vs eigh", p[rows], s.imag, SERIES_TOL)
        near("N_omega vs eigh", n_omega[rows], occupation(ref, t[rows]), SERIES_TOL)
        check_manifest(out, "evolve", "evolve")
    return check


def _langevin_check(ref: Arrowhead, rows: np.ndarray, t_max: float, points: int):
    def check(out: Path) -> None:
        data = read_csv(out / "langevin_langevin.csv",
                        ["t", "a", "b", "delta", "omega_sq", "gamma", "valid"], points)
        t, a, b, delta, omega_sq, gamma, valid = data.T
        if not np.all(np.isin(valid, (0.0, 1.0))):
            raise CheckError("langevin: valid flags are not 0/1")
        ok = valid == 1.0
        if not (np.all(np.isfinite(data[:, :4])) and np.all(np.isfinite(omega_sq[ok]))
                and np.all(np.isfinite(gamma[ok]))):
            raise CheckError("langevin: non-finite kernel or coefficient")
        check_grid(t, t_max)
        near("a(0)", a[0], 1.0, SERIES_TOL)
        near("b(0)", b[0], 0.0, SERIES_TOL)
        near("delta = a^2 + b^2", delta, a**2 + b**2, SERIES_TOL)
        # at t = 0 the coefficients are moments of H: omega_sq = (H^2)_00, gamma = 0
        moment2 = ref.omega_sub**2 + float(np.sum(ref.couplings**2))
        near("omega_sq(0)", omega_sq[0], moment2, RATIO_TOL * moment2)
        near("gamma(0)", gamma[0], 0.0, SERIES_TOL)
        ts = t[rows]
        phase = np.exp(-1j * np.outer(ts, ref.alphas))
        w = ref.weights
        s, ds, dds = phase @ w, phase @ (w * ref.alphas), phase @ (w * ref.alphas**2)
        # a + i b = conj(s); derivatives follow from the powers of alpha
        ra, rb = s.real, -s.imag
        rda, rdb = ds.imag, ds.real
        rdda, rddb = -dds.real, dds.imag
        near("a vs eigh", a[rows], ra, SERIES_TOL)
        near("b vs eigh", b[rows], rb, SERIES_TOL)
        wr = ra * rdb - rb * rda
        good = ok[rows] & (np.abs(wr) >= 0.1 * ref.omega_sub)
        want_sq = (rda * rddb - rdb * rdda) / wr
        want_gamma = (rb * rdda - ra * rddb) / wr
        scale = max(1.0, float(np.max(np.abs(want_sq[good]), initial=0.0)))
        near("omega_sq vs eigh", omega_sq[rows][good], want_sq[good], RATIO_TOL * scale)
        near("gamma vs eigh", gamma[rows][good], want_gamma[good], RATIO_TOL * scale)
        check_manifest(out, "langevin", "langevin")
    return check


def recurrence_wide(seed: int, work: Path, smoke: bool) -> Workload:
    """recurrence at N+1 = 2048: T ~ N phase-matrix GEMM plus analyze."""
    rng = np.random.default_rng([seed, 3])
    n_modes = 64 if smoke else 2048
    beta, d = _draw(rng), _draw(rng)
    freqs, couplings = paper_default(n_modes, d)
    ref = arrowhead(work, freqs, couplings, beta=beta)
    gaps = np.diff(ref.alphas)
    t_p = 2.0 * math.pi / float(gaps.min())
    level = plateau(ref)

    def check(out: Path) -> None:
        report = read_json(out / "recurrence_recurrence.json")
        near("t_poincare", report["t_poincare"] / t_p, 1.0, JSON_TOL)
        near("min_gap", report["min_gap"] * t_p / (2.0 * math.pi), 1.0, JSON_TOL)
        near("plateau", report["plateau"] / level, 1.0, JSON_TOL)
        peaks = report["peaks"]
        if not peaks:
            raise CheckError("recurrence: no revival found within 3 t_P")
        times = np.array([pk["t"] for pk in peaks], dtype=float)
        heights = np.array([pk["h"] for pk in peaks], dtype=float)
        if not (np.all(times > 0.0) and np.all(times <= 3.0 * t_p)):
            raise CheckError("recurrence: revival outside (0, 3 t_P]")
        # sub-sample refinement is a parabola through three samples
        near("revival heights vs eigh", heights, occupation(ref, times),
             0.01 * (ref.kappa - level))
        check_manifest(out, "recurrence", "recurrence")

    argv = ["recurrence", "--paper-defaults", "--n", str(n_modes), "--beta", repr(beta),
            "--d-over-a", repr(d)]
    return Workload([Command(argv, "recurrence", check)],
                    {"n_modes": n_modes, "beta": beta, "d_over_a": d})


def continuum_survival(seed: int, work: Path, smoke: bool) -> Workload:
    """README continuum command: PV weight table and oscillatory time sum."""
    rng = np.random.default_rng([seed, 4])
    peak = float(rng.uniform(4e-4, 6e-4))
    half_width = float(rng.uniform(0.04, 0.06))
    t_max, points = (600.0, 41) if smoke else (1000.0, 401)
    gamma = 2.0 * math.pi * peak

    def check(out: Path) -> None:
        report = read_json(out / "continuum_continuum.json")
        near("gamma", report["gamma"] / gamma, 1.0, JSON_TOL)
        # a Lorentzian centred in a symmetric band has no shift
        near("delta_omega", report["delta_omega"], 0.0, JSON_TOL * gamma)
        near("weak-coupling occupancy", report["asymptotic_occupation_weak"],
             1.0 / math.expm1(1.0), JSON_TOL)
        if report["cpc"]["pass"] is not True:
            raise CheckError("continuum: dissipation conditions reported as failing")
        t, p = read_csv(out / "continuum_survival.csv", ["t", "p_survival"], points).T
        check_grid(t, t_max)
        near("p(0)", p[0], 1.0, SURVIVAL_TOL)
        if not (np.all(p > 0.0) and np.all(p <= 1.0 + SURVIVAL_TOL)):
            raise CheckError("continuum: survival probability outside (0, 1]")
        # past the memory time 1/half_width the decay is exponential at 2*pi*g^2(Omega)
        window = (t >= 5.0 / half_width) & (t <= 1.5 / gamma)
        if np.count_nonzero(window) >= 3:
            slope = np.polyfit(t[window], np.log(p[window]), 1)[0]
            near("early log-slope / -2 pi g^2", -slope / gamma, 1.0, SLOPE_TOL)
        check_manifest(out, "continuum", "continuum")

    argv = ["continuum", "--density", "lorentzian", "--band", "0.5", "1.5",
            "--peak", repr(peak), "--half-width", repr(half_width),
            "--survival-t-max", repr(t_max), "--survival-points", str(points)]
    return Workload([Command(argv, "continuum", check)],
                    {"peak": peak, "half_width": half_width})


BUILDERS = {
    "solve-large": solve_large,
    "modesum-long": modesum_long,
    "recurrence-wide": recurrence_wide,
    "continuum-survival": continuum_survival,
}


if __name__ == "__main__":
    _dense_eigh(sys.argv[1])
