"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them inline).
All tolerances are fixed here, not tuned at runtime.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from qbmlab import (
    InitialState,
    SpectralModel,
    TimeGrid,
    asymptotic_mean_occupation,
    evolve_series,
    mean_bath_occupations,
    mean_subsystem_occupation,
    p_nm,
    p_omega_n,
    p_omega_omega,
    paper_default_model,
    poincare_time,
    solve_normal_modes,
    thermal_occupancy,
    width_from_discrete,
)
from qbmlab.cli import main as cli_main
from qbmlab.continuum import (
    asymptotic_occupation,
    build_weight_table,
    khalfin_tail,
    lorentzian_density,
    pv_shift,
    survival_amplitude_continuum,
    ullersma_density,
)
from qbmlab.eigensolve import EigensolveError
from qbmlab.langevin import kernels, langevin_coefficients
from qbmlab.model import lorentzian_coupling
from qbmlab.recurrence import analyze, fit_exponential
from conftest import random_model
from oracles import dense_oracle, verify_closure, verify_langevin_ode
from test_dynamics import occupation_double_sum, single_mode

TABLE_RECURRENCE_TIMES = {10: 3370.0, 32: 11190.0, 100: 37311.0, 500: 177994.0}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_table_recurrence_times(tmp_path):
    passing = {}
    details = []
    for n_plus_1, target in TABLE_RECURRENCE_TIMES.items():
        passing[n_plus_1] = []
        for convention in ("prose", "formula"):
            prefix = f"t{n_plus_1}{convention[0]}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([
                    "solve", "--paper-defaults", "--n", str(n_plus_1),
                    "--convention", convention,
                    "--out-dir", str(tmp_path), "--prefix", prefix,
                ])
            assert code == 0
            manifest = json.loads((tmp_path / f"{prefix}_manifest.json").read_text())
            t_p = manifest["derived"]["t_poincare"]
            err = t_p / target - 1.0
            if abs(err) <= 0.10:
                passing[n_plus_1].append(convention)
            details.append(f"N+1={n_plus_1} {convention}: t_P={t_p:.0f} ({err:+.1%})")
    ok = all(passing[n] for n in TABLE_RECURRENCE_TIMES)
    conventions = {n: "/".join(v) or "none" for n, v in passing.items()}
    report(1, ok, f"passing conventions {conventions}; " + "; ".join(details))


def test_criterion_02_equilibrium_plateau(modes_500, init_500):
    t_p = poincare_time(modes_500).t_poincare
    ts = np.linspace(500.0, 0.5 * t_p, 1200)
    average = float(mean_subsystem_occupation(modes_500, init_500, ts).mean())
    ok = abs(average - 0.582) <= 0.05
    report(2, ok, f"<N_sub> average over [500, t_P/2] = {average:.4f} vs 0.582 +- 0.05")


def test_criterion_03_exact_solution_identities(model_32, modes_32):
    rng = np.random.default_rng(42)
    models = [random_model(rng, 24), random_model(rng, 64), model_32]
    solved = [solve_normal_modes(m) for m in models[:2]] + [modes_32]
    worst = {"interlace": True, "wsum": 0.0, "trace": 0.0, "closure": 0.0,
             "alpha": 0.0, "weight": 0.0}
    for m, modes in zip(models, solved):
        w = m.bath_freqs
        a = modes.alphas
        worst["interlace"] &= bool(
            a[0] < w[0] and a[-1] > w[-1]
            and np.all(a[1:-1] > w[:-1]) and np.all(a[1:-1] < w[1:])
        )
        worst["wsum"] = max(worst["wsum"], abs(modes.weights.sum() - 1.0))
        trace = m.omega_sub + w.sum()
        worst["trace"] = max(worst["trace"], abs(a.sum() - trace) / trace)
        closure = verify_closure(modes)
        worst["closure"] = max(worst["closure"], closure.weight_norm,
                               closure.cross_max, closure.bath_orth_max)
        oracle = dense_oracle(m)
        worst["alpha"] = max(worst["alpha"],
                             float(np.abs(a - oracle.alphas).max()) / m.omega_sub)
        worst["weight"] = max(worst["weight"],
                              float(np.abs(modes.weights - oracle.weights).max()))
    ok = (worst["interlace"] and worst["wsum"] < 1e-10 and worst["trace"] < 1e-10
          and worst["closure"] < 1e-10 and worst["alpha"] < 1e-10
          and worst["weight"] < 1e-9)
    report(3, ok,
           f"interlacing={worst['interlace']}, |sum w - 1|={worst['wsum']:.1e}, "
           f"trace rel={worst['trace']:.1e}, closure={worst['closure']:.1e}, "
           f"dense dalpha={worst['alpha']:.1e}, dweight={worst['weight']:.1e}")


def test_criterion_04_normalization_and_conservation(modes_32, init_32):
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 5000.0, 100)
    n_osc = modes_32.model.n_osc
    row_sub = p_omega_omega(modes_32, ts) + sum(
        p_omega_n(modes_32, n, ts) for n in range(1, n_osc + 1)
    )
    err_sub = float(np.abs(row_sub - 1.0).max())
    n = 11
    row_bath = p_omega_n(modes_32, n, ts) + sum(
        p_nm(modes_32, n, m, ts) for m in range(1, n_osc + 1)
    )
    err_bath = float(np.abs(row_bath - 1.0).max())
    total0 = init_32.kappa + init_32.bath_occupancies.sum()
    totals = (mean_subsystem_occupation(modes_32, init_32, ts)
              + mean_bath_occupations(modes_32, init_32, ts).sum(axis=1))
    err_total = float(np.abs(totals / total0 - 1.0).max())
    ok = err_sub < 1e-10 and err_bath < 1e-10 and err_total < 1e-9
    report(4, ok,
           f"normalization errors: subsystem {err_sub:.1e}, bath row {err_bath:.1e}; "
           f"quanta conservation rel {err_total:.1e}")


def test_criterion_05_rabi_oracle():
    g = 0.1
    modes = solve_normal_modes(SpectralModel(1.0, 1.0, 1.0, [1.0], [g]))
    ts = np.linspace(0.0, 10.0 * np.pi / g, 2000)
    err = float(np.abs(p_omega_omega(modes, ts) - np.cos(g * ts) ** 2).max())
    ok = err < 1e-12
    report(5, ok, f"max |P_00 - cos^2(gt)| = {err:.2e} over [0, 10 pi/g]")


def test_criterion_06_double_sum_equivalence():
    rng = np.random.default_rng(13)
    worst = 0.0
    for n_osc in (6, 16):
        m = random_model(rng, n_osc)
        modes = solve_normal_modes(m)
        init = InitialState.thermal(m)
        for t in rng.uniform(0.0, 400.0, 20):
            fast = mean_subsystem_occupation(modes, init, float(t))
            slow = occupation_double_sum(modes, init, float(t))
            worst = max(worst, abs(fast - slow) / abs(slow))
    ok = worst < 1e-11
    report(6, ok, f"amplitude vs literal double sum: worst rel dev {worst:.2e}")


def test_criterion_07_langevin_identity(modes_32):
    grid = TimeGrid(t0=0.0, dt=0.25, count=2001)
    ode = verify_langevin_ode(modes_32, grid)
    resid_ok = ode.max_residual < 1e-8 * ode.x_scale
    decoupled = single_mode(1.0)
    worst_gamma = 0.0
    worst_omega = 0.0
    for t in (0.3, 2.0, 57.0, 400.0):
        s = langevin_coefficients(decoupled, t)
        worst_gamma = max(worst_gamma, abs(s.gamma))
        worst_omega = max(worst_omega, abs(s.omega_sq - 1.0))
    dec_ok = worst_gamma < 1e-14 and worst_omega < 1e-13
    ok = resid_ok and dec_ok
    report(7, ok,
           f"ODE residual {ode.max_residual:.2e} < 1e-8*|X|max={1e-8 * ode.x_scale:.2e}; "
           f"decoupled gamma {worst_gamma:.1e}, omega_sq dev {worst_omega:.1e}")


def test_criterion_08_decay_rate_consistency(model_500, modes_500, init_500):
    gamma = width_from_discrete(model_500)
    grid = TimeGrid(t0=0.0, dt=(1.6 / gamma) / 1400, count=1401)
    series = evolve_series(modes_500, init_500, grid, ["N_omega"])
    rec = analyze(modes_500, series, "N_omega")
    occ_ratio = rec.gamma_fit / gamma if rec.gamma_fit else float("inf")
    ts = np.linspace(3.0, 2.0 / gamma, 900)
    k = kernels(modes_500, ts)
    a, b = k.a, k.b
    slope, _ = np.polyfit(ts, np.log(np.sqrt(a**2 + b**2)), 1)
    env_ratio = -slope / (gamma / 2.0)
    ok = abs(occ_ratio - 1.0) <= 0.15 and abs(env_ratio - 1.0) <= 0.15
    report(8, ok,
           f"occupation decay fit/width = {occ_ratio:.3f}, "
           f"<X> envelope rate/(width/2) = {env_ratio:.3f} (both within 15%)")


def test_criterion_09_continuum_regimes():
    narrow = lorentzian_density(peak=5e-4, half_width=0.05, omega_sub=1.0,
                                omega_min=0.5, omega_max=1.5)
    shift = pv_shift(narrow)
    shift_ok = abs(shift) < 1e-8

    table = build_weight_table(narrow, 3500)
    ts = np.geomspace(0.02, 0.2, 25)
    s = survival_amplitude_continuum(narrow, ts, table=table)
    zeno_slope, _ = np.polyfit(np.log(ts), np.log(1.0 - np.abs(s) ** 2), 1)
    zeno_ok = abs(zeno_slope - 2.0) <= 0.05

    strong = ullersma_density(c1=0.3, c2=1.0, omega_min=1e-3, omega_max=5.0)
    tail_slope = khalfin_tail(strong, (100.0, 400.0))
    tail_ok = abs(tail_slope + 2.0) <= 0.2

    weak = thermal_occupancy(narrow.beta, narrow.omega_sub)
    weak_ok = abs(weak - 1.0 / (math.e - 1.0)) < 1e-12

    ok = shift_ok and zeno_ok and tail_ok and weak_ok
    report(9, ok,
           f"symmetric shift {shift:.1e}; quadratic-onset exponent {zeno_slope:.3f}; "
           f"power-law slope {tail_slope:.3f}; weak-coupling occupancy {weak:.12f}")


def test_criterion_10_performance_large_solve():
    n = 4096
    spacing = 1.0 / (n - 1)
    freqs = 0.5 + spacing * np.arange(n)
    couplings = lorentzian_coupling(freqs, 1.0, d_amp=spacing, a_width=0.25)
    model = SpectralModel(1.0, 1.0, 1.0, freqs, couplings)
    start = time.perf_counter()
    modes = solve_normal_modes(model)
    elapsed = time.perf_counter() - start
    assert abs(modes.weights.sum() - 1.0) < 1e-9
    # the dense reference path is size-capped; the secular path is the only
    # route at this size
    with pytest.raises(EigensolveError, match="capped"):
        dense_oracle(SpectralModel(1.0, 1.0, 1.0,
                                   np.linspace(0.5, 1.5, n + 1),
                                   np.full(n + 1, 1e-4)))
    ok = elapsed < 5.0
    report(10, ok, f"N={n} secular solve (roots + weights) in {elapsed:.2f}s (< 5s)")
