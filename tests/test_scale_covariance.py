"""Covariance under a power-of-two change of frequency unit.

Scaling omega_sub, the bath frequencies and the couplings by lam, and beta
by 1/lam, describes the same physics in a unit lam times smaller.  For a
power of two every product and quotient of the pipeline scales exactly, so
the roots scale by lam, everything dimensionless stays bit for bit, and
every time, rate and derivative moves by its power of lam.  A frequency
written as an absolute constant anywhere from the solve to ``analyze``
breaks this; a test suite whose models all have omega_sub = 1 cannot see it.
"""

import dataclasses

import numpy as np
import pytest

from qbmlab import (
    InitialState,
    TimeGrid,
    analyze,
    evolve_series,
    kernels,
    paper_default_model,
    poincare_time,
    solve_normal_modes,
)

SCALES = [4.0, 0.25]


def scaled(model, lam):
    return dataclasses.replace(model, omega_sub=lam * model.omega_sub, beta=model.beta / lam,
                               bath_freqs=lam * model.bath_freqs,
                               couplings=lam * model.couplings)


def recurrence_run(model, grid):
    """The ``recurrence`` command's pipeline: solve, N_omega and P_surv, analyze."""
    modes = solve_normal_modes(model)
    series = evolve_series(modes, InitialState.thermal(model), grid, ["N_omega", "P_surv"])
    return modes, series, analyze(modes, series, "N_omega")


@pytest.mark.parametrize("n_plus_1", [32, 2048])  # 2048 tabulates its far field
@pytest.mark.parametrize("lam", SCALES)
def test_solve_series_and_report_scale_exactly(n_plus_1, lam):
    model = paper_default_model(n_plus_1)
    t_p = poincare_time(solve_normal_modes(model)).t_poincare
    grid = TimeGrid(t0=0.0, dt=3.0 * t_p / 2000, count=2001)
    modes, series, report = recurrence_run(model, grid)
    modes_s, series_s, report_s = recurrence_run(
        scaled(model, lam), TimeGrid(t0=0.0, dt=grid.dt / lam, count=grid.count))

    assert modes.tabulated_clusters == modes_s.tabulated_clusters
    assert (n_plus_1 == 2048) == (modes.tabulated_clusters > 0)
    np.testing.assert_array_equal(modes_s.alphas, lam * modes.alphas)
    np.testing.assert_array_equal(modes_s.weights, modes.weights)
    for name in ("N_omega", "P_surv"):
        np.testing.assert_array_equal(series_s.column(name), series.column(name))

    assert report_s.t_poincare == report.t_poincare / lam
    assert report_s.plateau == report.plateau
    assert report.peaks
    assert [(p.time, p.height, p.width) for p in report_s.peaks] == [
        (p.time / lam, p.height, p.width / lam) for p in report.peaks]
    assert report.gamma_fit is not None
    assert report_s.gamma_fit == lam * report.gamma_fit
    assert report_s.fit_window == tuple(t / lam for t in report.fit_window)


@pytest.mark.parametrize("n_plus_1", [32, 500])
@pytest.mark.parametrize("lam", SCALES)
def test_kernels_scale_exactly(n_plus_1, lam):
    model = paper_default_model(n_plus_1)
    grid = TimeGrid(t0=0.0, dt=0.25, count=2001)
    k = kernels(solve_normal_modes(model), grid)
    k_s = kernels(solve_normal_modes(scaled(model, lam)),
                  TimeGrid(t0=0.0, dt=grid.dt / lam, count=grid.count))
    for name, power in [("a", 0), ("b", 0), ("da", 1), ("dda", 2),
                        ("omega_sq", 2), ("gamma", 1)]:
        np.testing.assert_array_equal(getattr(k_s, name), lam**power * getattr(k, name),
                                      err_msg=name)
