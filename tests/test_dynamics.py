import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qbmlab import dynamics
from qbmlab import (
    InitialState,
    ModelError,
    NormalModes,
    SpectralModel,
    TimeGrid,
    TimeSeries,
    asymptotic_mean_occupation,
    evolve_series,
    mean_bath_occupation,
    mean_bath_occupations,
    mean_momentum_tilde,
    mean_position,
    mean_subsystem_occupation,
    mode_sum,
    p_nm,
    p_omega_n,
    p_omega_omega,
    paper_default_model,
    poincare_time,
    solve_normal_modes,
    survival_amplitude,
)
from qbmlab.continuum import (build_weight_table, lorentzian_density,
                              survival_amplitude_continuum)
from qbmlab.langevin import kernels, langevin_table
from conftest import random_model
from oracles import long_time_average_survival, theta_profile
from test_eigensolve import run_single_threaded


def occupation_double_sum(modes, init, t):
    """Literal double-cosine form of the subsystem occupation (test oracle)."""
    w = modes.weights
    al = modes.alphas
    k = modes.pole_ratios()
    nbar = init.bath_occupancies
    kappa = init.kappa
    total = 0.0
    n_modes = w.size
    for mu in range(n_modes):
        for nu in range(n_modes):
            if mu <= nu:
                continue
            bracket = kappa + float((k[mu] * k[nu]) @ nbar)
            total += 2.0 * w[mu] * w[nu] * np.cos((al[mu] - al[nu]) * t) * bracket
    for nu in range(n_modes):
        total += w[nu] ** 2 * (kappa + float((k[nu] ** 2) @ nbar))
    return total


def single_mode(omega=1.0):
    """Synthetic decoupled-limit mode set: all weight on one rotation."""
    m = SpectralModel(omega, 1.0, 1.0, [omega * 2.0], [1e-8])
    return NormalModes(
        model=m,
        alphas=np.array([omega]),
        weights=np.array([1.0]),
        residuals=np.array([0.0]),
    )


def resonant_pair():
    return solve_normal_modes(SpectralModel(1.0, 1.0, 1.0, [1.0], [0.1]))


class TestSurvivalAmplitude:
    def test_t_zero_is_one(self, modes_32):
        # s(0) = sum of weights, which is 1 to solver tolerance
        assert survival_amplitude(modes_32, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_modulus_bounded_by_one(self, modes_32):
        ts = np.linspace(0.0, 5000.0, 1500)
        assert np.all(np.abs(survival_amplitude(modes_32, ts)) <= 1.0 + 1e-12)

    def test_resonant_pair_closed_form(self):
        modes = resonant_pair()
        ts = np.linspace(0.0, 200.0, 500)
        expected = np.exp(-1j * ts) * np.cos(0.1 * ts)
        np.testing.assert_allclose(survival_amplitude(modes, ts), expected, atol=1e-13)

    def test_time_reversal_symmetry(self, modes_32):
        ts = np.linspace(0.5, 300.0, 80)
        np.testing.assert_allclose(
            p_omega_omega(modes_32, -ts), p_omega_omega(modes_32, ts), rtol=0, atol=1e-12
        )


class TestSurvivalProbability:
    def test_rabi_form(self):
        modes = resonant_pair()
        ts = np.linspace(0.0, 10 * np.pi / 0.1, 700)
        np.testing.assert_allclose(
            p_omega_omega(modes, ts), np.cos(0.1 * ts) ** 2, atol=1e-12
        )

    def test_cesaro_average_needs_many_recurrences(self, modes_32):
        # the dephased average emerges only over windows spanning several
        # recurrence periods; between revivals the quasi-periodic sum nearly
        # cancels and the windowed mean sits far below the diagonal term
        tp = poincare_time(modes_32).t_poincare
        ts = np.linspace(0.0, 60 * tp, 16000)
        avg = p_omega_omega(modes_32, ts).mean()
        assert avg == pytest.approx(long_time_average_survival(modes_32), rel=0.02)
        dead = np.linspace(2000.0, 8000.0, 2000)
        assert p_omega_omega(modes_32, dead).mean() < 1e-4


class TestTransitionProbabilities:
    def test_orthogonality_at_t_zero(self, modes_32):
        for n in (1, 7, 31):
            assert p_omega_n(modes_32, n, 0.0) < 1e-12
        assert p_nm(modes_32, 4, 4, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert p_nm(modes_32, 4, 9, 0.0) < 1e-12

    def test_symmetry_omega_n(self, modes_32):
        # P_{0n} computed both ways: subsystem->n equals n->subsystem
        ts = np.array([3.7, 88.0])
        init0 = InitialState(1.0, np.zeros(31))
        for n in (2, 16):
            from_prob = p_omega_n(modes_32, n, ts)
            via_bath = mean_bath_occupation(modes_32, init0, n, ts)
            np.testing.assert_allclose(via_bath, from_prob, rtol=1e-12)

    def test_normalization_rows(self, modes_32):
        rng = np.random.default_rng(1)
        ts = rng.uniform(0.0, 5000.0, 100)
        p00 = p_omega_omega(modes_32, ts)
        total = p00 + sum(p_omega_n(modes_32, n, ts) for n in range(1, 32))
        np.testing.assert_allclose(total, 1.0, atol=1e-10)
        n = 7
        row = p_omega_n(modes_32, n, ts) + sum(
            p_nm(modes_32, n, m, ts) for m in range(1, 32)
        )
        np.testing.assert_allclose(row, 1.0, atol=1e-10)

    def test_index_out_of_range(self, modes_32):
        with pytest.raises(IndexError):
            p_omega_n(modes_32, 0, 1.0)
        with pytest.raises(IndexError):
            p_nm(modes_32, 1, 32, 1.0)

    @pytest.mark.parametrize("call", [
        lambda modes, init: p_omega_n(modes, 1.5, 1.0),
        lambda modes, init: p_nm(modes, 1, 2.5, 1.0),
        lambda modes, init: mean_bath_occupation(modes, init, 1.5, 1.0),
    ], ids=["p_omega_n", "p_nm", "mean_bath_occupation"])
    def test_non_integral_index_is_refused_by_name(self, call, modes_32, init_32):
        with pytest.raises(IndexError, match=r"bath index [12]\.5 is not a whole number"):
            call(modes_32, init_32)


class TestMeanOccupations:
    def test_initial_values(self, modes_32, init_32):
        assert mean_subsystem_occupation(modes_32, init_32, 0.0) == pytest.approx(
            init_32.kappa, rel=1e-12
        )
        for n in (1, 16, 31):
            assert mean_bath_occupation(modes_32, init_32, n, 0.0) == pytest.approx(
                init_32.bath_occupancies[n - 1], rel=1e-10, abs=1e-12
            )

    def test_zero_temperature_reduces_to_survival(self, modes_32):
        init0 = InitialState(kappa=1.0, bath_occupancies=np.zeros(31))
        ts = np.linspace(0.0, 400.0, 97)
        np.testing.assert_allclose(
            mean_subsystem_occupation(modes_32, init0, ts),
            p_omega_omega(modes_32, ts),
            rtol=1e-13,
        )

    def test_double_sum_oracle_equivalence(self):
        rng = np.random.default_rng(9)
        for n_osc in (4, 16):
            m = random_model(rng, n_osc)
            modes = solve_normal_modes(m)
            init = InitialState.thermal(m)
            for t in rng.uniform(0.0, 300.0, 20):
                fast = mean_subsystem_occupation(modes, init, float(t))
                slow = occupation_double_sum(modes, init, float(t))
                assert fast == pytest.approx(slow, rel=1e-11)

    def test_conservation(self, modes_32, init_32):
        rng = np.random.default_rng(2)
        ts = rng.uniform(0.0, 5000.0, 25)
        total0 = init_32.kappa + init_32.bath_occupancies.sum()
        totals = (
            mean_subsystem_occupation(modes_32, init_32, ts)
            + mean_bath_occupations(modes_32, init_32, ts).sum(axis=1)
        )
        np.testing.assert_allclose(totals, total0, rtol=1e-9)

    def test_off_resonant_oscillator_stays_thermal(self, modes_32, init_32):
        ts = np.linspace(0.0, 2000.0, 600)
        nbar = init_32.bath_occupancies
        dev2 = np.abs(mean_bath_occupation(modes_32, init_32, 2, ts) - nbar[1]).max()
        dev16 = np.abs(mean_bath_occupation(modes_32, init_32, 16, ts) - nbar[15]).max()
        assert dev2 < 0.01
        assert dev16 > 5 * dev2  # resonant oscillator is visibly displaced


class TestMeanPosition:
    def test_initial_conditions(self, modes_32):
        assert mean_position(modes_32, 0.3, -0.7, 0.0) == pytest.approx(0.3, rel=1e-12)
        assert mean_momentum_tilde(modes_32, 0.3, -0.7, 0.0) == pytest.approx(
            -0.7, rel=1e-12
        )

    def test_single_mode_rigid_rotation(self):
        modes = single_mode(omega=1.3)
        ts = np.linspace(0.0, 40.0, 300)
        x = mean_position(modes, 1.0, 0.0, ts)
        p = mean_momentum_tilde(modes, 1.0, 0.0, ts)
        np.testing.assert_allclose(x, np.cos(1.3 * ts), atol=1e-14)
        np.testing.assert_allclose(p, -np.sin(1.3 * ts), atol=1e-14)

    def test_feeble_coupling_approaches_rotation(self):
        m = SpectralModel(1.0, 1.0, 1.0, [0.9, 1.1], [1e-8, 1e-8])
        with pytest.warns(UserWarning):
            modes = solve_normal_modes(m)
        ts = np.linspace(0.0, 20.0, 50)
        np.testing.assert_allclose(
            mean_position(modes, 1.0, 0.0, ts), np.cos(ts), atol=1e-5
        )


class TestThetaProfile:
    def test_peaks_at_resonance_and_sharpens(self):
        widths = []
        for np1 in (32, 100):
            m = paper_default_model(np1)
            modes = solve_normal_modes(m)
            th = theta_profile(modes)
            assert np.argmax(th) == (np1 - 1) // 2  # central oscillator
            above = m.bath_freqs[th > th.max() / 2]
            widths.append(above[-1] - above[0])
        assert widths[1] < 0.5 * widths[0]

    def test_asymptotic_mean_matches_long_window_average(self, modes_32, init_32):
        tp = poincare_time(modes_32).t_poincare
        ts = np.linspace(0.0, 40 * tp, 12000)
        measured = mean_subsystem_occupation(modes_32, init_32, ts).mean()
        predicted = asymptotic_mean_occupation(modes_32, init_32)
        assert measured == pytest.approx(predicted, rel=0.02)


class TestEvolveSeries:
    def test_survival_column_matches_pointwise(self):
        modes = resonant_pair()
        init = InitialState.thermal(modes.model)
        grid = TimeGrid(t0=0.0, dt=0.37, count=200)
        series = evolve_series(modes, init, grid, ["P_surv"])
        np.testing.assert_allclose(
            series.column("P_surv"), np.cos(0.1 * grid.times) ** 2, atol=1e-12
        )
        # the same mode sum over the same grid: the same bits
        assert np.array_equal(series.column("P_surv"), p_omega_omega(modes, grid))

    def test_total_quanta_constant(self, modes_32, init_32):
        grid = TimeGrid(t0=0.0, dt=13.0, count=150)
        series = evolve_series(modes_32, init_32, grid, ["N_omega", "N_total"])
        total = series.column("N_total")
        assert np.abs(total / total[0] - 1.0).max() < 1e-9

    def test_position_columns(self, modes_32, init_32):
        grid = TimeGrid(t0=0.0, dt=0.5, count=64)
        series = evolve_series(
            modes_32, init_32, grid, ["X_mean", "P_tilde_mean"], x0=0.2, p0=0.4
        )
        np.testing.assert_allclose(
            series.column("X_mean"), mean_position(modes_32, 0.2, 0.4, grid.times),
            rtol=1e-14,
        )
        # without N_omega the series sums s(t) as survival_amplitude does
        assert np.array_equal(series.column("X_mean"), mean_position(modes_32, 0.2, 0.4, grid))
        assert np.array_equal(series.column("P_tilde_mean"),
                              mean_momentum_tilde(modes_32, 0.2, 0.4, grid))

    def test_occupation_column_is_the_wrapper_on_the_grid(self, modes_32, init_32):
        grid = TimeGrid(t0=0.0, dt=13.0, count=150)
        series = evolve_series(modes_32, init_32, grid, ["N_omega"])
        assert series.occupation_form["kind"] == "chebyshev"
        assert np.array_equal(series.column("N_omega"),
                              mean_subsystem_occupation(modes_32, init_32, grid))

    def test_columns_and_flags_must_span_the_grid(self):
        grid = TimeGrid(t0=0.0, dt=1.0, count=5)
        with pytest.raises(ModelError, match=r"column 'y' length \(4,\) != grid count"):
            TimeSeries(grid, {"y": np.zeros(4)})

    def test_empty_selection(self, modes_32, init_32):
        grid = TimeGrid(t0=0.0, dt=1.0, count=10)
        series = evolve_series(modes_32, init_32, grid, [])
        assert series.columns == {}
        assert series.grid.count == 10

    def test_occupation_form_record(self, modes_32, init_32):
        grid = TimeGrid(t0=0.0, dt=1.0, count=10)
        record = evolve_series(modes_32, init_32, grid, ["N_omega"]).occupation_form
        form = dynamics._occupation_form(modes_32, init_32, modes_32.weights)
        assert record == {"kind": "chebyshev", "degree": form.degree,
                          "fit_residual": form.fit_residual, "error_bound": form.error_bound}
        # no occupation sum ran, and no plateau was taken
        survival = evolve_series(modes_32, init_32, grid, ["P_surv"])
        assert survival.occupation_form is None and survival.plateau is None
        assert langevin_table(modes_32, grid).occupation_form is None

    def test_start_point_without_finite_modulus_is_refused(self, modes_32, init_32):
        # |x0 + i p0| overflows although both parts are finite; at 9e307 + 9e307 i
        # numpy's complex product overflows in |x0| + |p0|, and twice the modulus does
        grid = TimeGrid(t0=0.0, dt=1.0, count=5)
        for x0, p0 in [(1.5e308, 1.5e308), (9e307, -9e307), (np.nan, 0.0), (0.0, np.inf)]:
            with pytest.raises(ModelError, match="start point"):
                evolve_series(modes_32, init_32, grid, ["X_mean", "P_tilde_mean"], x0=x0, p0=p0)
            for mean in (mean_position, mean_momentum_tilde):
                with pytest.raises(ModelError, match="start point"):
                    mean(modes_32, x0, p0, grid.times)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = evolve_series(modes_32, init_32, grid, ["X_mean", "P_tilde_mean"],
                                   x0=6e307, p0=6e307)
        assert all(np.isfinite(col).all() for col in series.columns.values())

    def test_unknown_observable(self, modes_32, init_32):
        grid = TimeGrid(t0=0.0, dt=1.0, count=4)
        with pytest.raises(ValueError, match="unknown"):
            evolve_series(modes_32, init_32, grid, ["bogus"])

    @pytest.mark.parametrize("count", [2.5, 0.5, np.nan, np.inf])
    def test_non_integral_count_is_refused(self, count):
        with pytest.raises(ModelError, match="whole number"):
            TimeGrid(t0=0.0, dt=0.1, count=count)

    def test_integral_float_count_becomes_an_int(self):
        grid = TimeGrid(t0=0.0, dt=0.1, count=3.0)
        assert type(grid.count) is int and grid.times.size == 3

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(t0=0.0, dt=-1.0, count=5)
        with pytest.raises(ValueError):
            TimeGrid(t0=0.0, dt=1.0, count=0)
        for t0, dt in [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0)]:
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(t0=t0, dt=dt, count=3)


# every function of time in dynamics, as f(modes, init, t)
WRAPPERS = {
    "survival_amplitude": lambda modes, init, t: survival_amplitude(modes, t),
    "p_omega_omega": lambda modes, init, t: p_omega_omega(modes, t),
    "p_omega_n": lambda modes, init, t: p_omega_n(modes, 5, t),
    "p_nm": lambda modes, init, t: p_nm(modes, 5, 9, t),
    "mean_subsystem_occupation": mean_subsystem_occupation,
    "mean_bath_occupation": lambda modes, init, t: mean_bath_occupation(modes, init, 5, t),
    "mean_bath_occupations": mean_bath_occupations,
    "mean_position": lambda modes, init, t: mean_position(modes, 0.2, 0.4, t),
    "mean_momentum_tilde": lambda modes, init, t: mean_momentum_tilde(modes, 0.2, 0.4, t),
}


class TestTimeArgument:
    """Each function of time passes its times to mode_sum, which alone shapes the result."""

    @pytest.mark.parametrize("name", sorted(WRAPPERS))
    def test_scalar_is_element_0_of_a_one_element_array(self, name, modes_32, init_32):
        f = WRAPPERS[name]
        one, arr = f(modes_32, init_32, 37.1), f(modes_32, init_32, np.array([37.1]))
        assert arr.shape[0] == 1 and np.shape(one) == arr.shape[1:]
        assert np.array_equal(one, arr[0])
        if np.ndim(one) == 0:
            assert isinstance(one, (np.float64, np.complex128))

    @pytest.mark.parametrize("name", sorted(WRAPPERS))
    def test_grid_gives_the_shape_of_its_times(self, name, modes_32, init_32):
        f = WRAPPERS[name]
        grid = TimeGrid(t0=0.0, dt=7.0, count=70)
        on_grid, on_times = f(modes_32, init_32, grid), f(modes_32, init_32, grid.times)
        assert on_grid.shape == on_times.shape and on_grid.shape[0] == grid.count
        np.testing.assert_allclose(on_grid, on_times, rtol=0, atol=1e-13)


UNSHAPEABLE = {
    "survival_amplitude": (lambda m: survival_amplitude(m, np.ones((2, 3))), r"shape \(2, 3\)"),
    "kernels": (lambda m: kernels(m, np.ones((2, 2))), r"shape \(2, 2\)"),
    "survival_amplitude_continuum": (
        lambda m: survival_amplitude_continuum(
            lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5),
            np.ones((2, 3))),
        r"shape \(2, 3\)"),
    # refused by its shape before the weight table is sized or built
    "survival_amplitude_continuum_long": (
        lambda m: survival_amplitude_continuum(
            lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5),
            np.full((2, 3), 1e7)),
        r"shape \(2, 3\)"),
    "mode_sum": (lambda m: mode_sum([1.0, 2.0], [1.0], [0.0]), r"shape \(1,\) need a first axis of 2"),
}


@pytest.mark.parametrize("name", sorted(UNSHAPEABLE))
def test_unshapeable_times_and_coefficients_are_refused(name, modes_32):
    call, message = UNSHAPEABLE[name]
    with pytest.raises(ModelError, match=message):
        call(modes_32)


def test_initial_state_must_match_its_bath(modes_32):
    init = InitialState(1.0, np.ones(5))
    grid = TimeGrid(t0=0.0, dt=1.0, count=4)
    calls = [lambda: mean_subsystem_occupation(modes_32, init, 1.0),
             lambda: asymptotic_mean_occupation(modes_32, init),
             lambda: evolve_series(modes_32, init, grid, ["N_omega"])]
    for call in calls:
        with pytest.raises(ModelError, match="5 bath occupancies, the bath 31 oscillators"):
            call()


class TestModeSum:
    def direct(self, freqs, coeffs, ts):
        return np.exp(-1j * np.outer(ts, freqs)) @ coeffs

    def test_matches_direct_sum_across_slabs(self, monkeypatch):
        rng = np.random.default_rng(4)
        freqs = rng.uniform(0.5, 1.5, 40)
        coeffs = rng.normal(size=(40, 3))
        ts = rng.uniform(-50.0, 50.0, 257)
        whole = mode_sum(freqs, coeffs, ts)
        np.testing.assert_allclose(whole, self.direct(freqs, coeffs, ts), rtol=0, atol=1e-13)
        # blocks of 7 rows, with a 5-row tail, must not change the numbers
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_ROWS", 7)
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_PHASES", 0)
        np.testing.assert_allclose(mode_sum(freqs, coeffs, ts), whole, rtol=0, atol=1e-13)

    def test_unresolvable_phases_are_refused(self):
        # eps * max|freq| * max|t| > 1e-8: a phase of ~4.5e7 rad at frequency 1
        assert mode_sum([1.0], [1.0], [4e7]).shape == (1,)
        with pytest.raises(ModelError, match="phases"):
            mode_sum([1.0, 2.0], [1.0, 1.0], [0.0, 2.5e7])
        # NaN or inf in either factor, including inf * 0
        for freqs, ts in [([np.nan, 1.0], [0.0, 1.0]), ([1.0], [0.0, np.nan]),
                          ([np.inf], [1.0]), ([1.0, 2.0], [-np.inf]), ([np.inf], [0.0])]:
            with pytest.raises(ModelError, match="not finite"):
                mode_sum(freqs, np.ones(len(freqs)), ts)

    # t0 = 0; t0 > 0 inside the first block; t0 < 0 with the grid crossing 0,
    # with and without a sample at t = 0; phases up to just under the refusal
    # bound (4.5e7 rad at frequency 1)
    GRIDS = [TimeGrid(0.0, 1.0, 3000), TimeGrid(7.3, 1.0, 3000), TimeGrid(7.3, 0.37, 2000),
             TimeGrid(-100.3, 0.77, 1000), TimeGrid(-64.0, 1.0, 300),
             TimeGrid(0.0, 4.4e7 / 2999, 3000), TimeGrid(3.0, 4.4e7 / 4999, 5000),
             TimeGrid(-2.2e7, 4.4e7 / 4000, 4001)]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"t0={g.t0:g},dt={g.dt:g}")
    def test_grid_phases_match_libm(self, grid):
        # identity coefficients make each column one phase factor exp(-i f t)
        rng = np.random.default_rng(5)
        freqs = rng.uniform(0.5, 1.0, 40) * rng.choice([-1.0, 1.0], 40)
        factors = mode_sum(freqs, np.eye(40), grid)
        expected = np.exp(-1j * np.outer(grid.times, freqs))
        eps = np.finfo(float).eps
        np.testing.assert_allclose(factors.real, expected.real, rtol=0, atol=4 * eps)
        np.testing.assert_allclose(factors.imag, expected.imag, rtol=0, atol=4 * eps)

    def test_grid_matches_array_path_across_slabs(self, monkeypatch):
        rng = np.random.default_rng(6)
        freqs = rng.uniform(0.5, 1.5, 40)
        coeffs = rng.normal(size=(40, 3))
        tol = 8 * np.finfo(float).eps * np.abs(coeffs).sum(axis=0)
        for grid in (TimeGrid(0.0, 0.9, 257), TimeGrid(-50.2, 0.41, 257)):
            whole = mode_sum(freqs, coeffs, grid.times)
            assert np.all(np.abs(mode_sum(freqs, coeffs, grid) - whole) <= tol)
            # 5-row blocks: an anchor every 5 samples, and a 2-row tail block
            with monkeypatch.context() as mp:
                mp.setattr(dynamics, "_PHASE_BLOCK_ROWS", 5)
                mp.setattr(dynamics, "_PHASE_BLOCK_PHASES", 0)
                assert np.all(np.abs(mode_sum(freqs, coeffs, grid) - whole) <= tol)

    def test_grid_matches_array_path_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        eps = np.finfo(float).eps

        @hyp.settings(max_examples=150, deadline=None)
        @hyp.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 40), label="modes")
            block = data.draw(st.sampled_from([None, 1, 3, 8]), label="block rows")
            array_block = data.draw(st.sampled_from([None, 1, 5, 7, 16]),
                                    label="array block rows")
            b = block or max(dynamics._PHASE_BLOCK_ROWS, dynamics._PHASE_BLOCK_PHASES // n)
            count = data.draw(st.one_of(st.sampled_from([1, b - 1, b, b + 1, 2 * b + 3]),
                                        st.integers(1, 300)).filter(lambda c: c >= 1),
                              label="count")
            # t0 in units of the grid span: 0, past 0, or before 0 with the grid crossing it
            t0_units = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.5),
                                           st.floats(-1.0, -1e-3)), label="t0/span")
            log_phase = data.draw(st.floats(-1.0, np.log10(0.99e-8 / eps)), label="log10 max phase")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            freqs = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            coeffs = rng.normal(size=(n, 2))
            span = max(count - 1, 1)
            unit_max = max(abs(t0_units * span), abs(t0_units * span + count - 1), 1.0)
            dt = 10.0**log_phase / (np.abs(freqs).max() * unit_max)
            grid = TimeGrid(t0_units * span * dt, dt, count)
            with pytest.MonkeyPatch.context() as mp:
                if block:
                    mp.setattr(dynamics, "_PHASE_BLOCK_ROWS", block)
                    mp.setattr(dynamics, "_PHASE_BLOCK_PHASES", 0)
                got = mode_sum(freqs, coeffs, grid)
            with pytest.MonkeyPatch.context() as mp:
                if array_block:
                    mp.setattr(dynamics, "_PHASE_BLOCK_ROWS", array_block)
                    mp.setattr(dynamics, "_PHASE_BLOCK_PHASES", 0)
                want = mode_sum(freqs, coeffs, grid.times)
            assert np.all(np.abs(got - want) <= 8 * eps * np.abs(coeffs).sum(axis=0))

        check()

    def test_shapes_and_reduce(self):
        freqs = np.array([1.0, 2.0])
        assert mode_sum(freqs, np.array([0.5, 0.5]), np.linspace(0, 1, 5)).shape == (5,)
        assert mode_sum(freqs, np.ones((2, 4)), [0.3]).shape == (1, 4)
        # a single time gives its one row: a numpy scalar for a 1-D coefficient vector
        assert mode_sum(freqs, np.ones((2, 4)), 0.3).shape == (4,)
        single = mode_sum(freqs, np.array([0.5, 0.5]), 0.3)
        assert isinstance(single, np.complex128)
        assert single == mode_sum(freqs, np.array([0.5, 0.5]), [0.3])[0]
        assert mode_sum(freqs, np.ones((2, 4)), []).shape == (0, 4)
        ts = np.linspace(0.0, 3.0, 11)
        norms = mode_sum(freqs, np.eye(2), ts, reduce=lambda s, _: np.abs(s) ** 2 @ [1.0, 2.0])
        np.testing.assert_allclose(norms, 3.0, rtol=1e-15)

    def test_reduce_gets_each_block_with_its_times(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_ROWS", 3)
        monkeypatch.setattr(dynamics, "_PHASE_BLOCK_PHASES", 0)
        ts = np.linspace(0.0, 3.0, 11)
        rows = []

        def undo(s, t):
            # column 0 is exp(-i t): undoing it with the block's own times leaves 1
            rows.append(len(t))
            return s[:, 0] * np.exp(1j * t)

        for times in (ts, TimeGrid(0.0, 0.3, 11)):
            rows.clear()
            np.testing.assert_allclose(mode_sum([1.0, 2.0], np.eye(2), times, reduce=undo),
                                       1.0, rtol=0, atol=1e-15)
            assert rows == [3, 3, 3, 2]

    def test_wide_coefficient_sets_keep_256_mode_panels(self):
        # the dense occupation form's shape: 2,048 modes, 2,049 columns.
        # Panels of 256 modes take ~0.11 s on 2 vCPU, whole 64-row blocks
        # ~0.10 s, panels of _PANEL_MACS / (B J) = 1 mode 8.2 s
        rng = np.random.default_rng(6)
        freqs = np.sort(rng.uniform(0.9, 1.1, 2048))
        coeffs = rng.standard_normal((2048, 2049))
        ts = np.linspace(0.0, 1000.0, 256)
        assert dynamics._block_trig(ts, None, freqs, 2049)[:2] == (64, 256)
        start = time.perf_counter()
        mode_sum(freqs, coeffs, ts)
        assert time.perf_counter() - start < 2.0

    def test_panels_of_modes_sum_like_one_panel(self, monkeypatch, modes_500):
        # panels of 7 modes (the last one 3 wide) against the single panel
        # that 500 modes and 4 columns get by default; on a grid each tile
        # takes its own slice of anchors and rotation tables
        freqs = modes_500.alphas
        coeffs = modes_500.weights[:, None] * np.array([1.0, -0.5, 0.25, 2.0])
        samples = (np.linspace(0.0, 500.0, 150), TimeGrid(3.0, 2.5, 150))
        wholes = [mode_sum(freqs, coeffs, times) for times in samples]
        monkeypatch.setattr(dynamics, "_PANEL_MACS", 1)
        monkeypatch.setattr(dynamics, "_PANEL_MIN_MODES", 7)
        assert dynamics._block_trig(samples[0], None, freqs, 4)[1] == 7
        for times, whole in zip(samples, wholes):
            np.testing.assert_allclose(mode_sum(freqs, coeffs, times), whole,
                                       rtol=0, atol=1e-14)


class TestMemoryBudget:
    """The mode sums run in blocks: no (T, N+1) array at N+1 = 500, T = 20000."""

    LIMIT = 96 * 2**20

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evolve_series(self, modes_500, init_500):
        grid = TimeGrid(t0=0.0, dt=1.0, count=20000)
        names = ["N_omega", "P_surv", "X_mean", "P_tilde_mean"]
        assert self.peak(lambda: evolve_series(modes_500, init_500, grid, names)) < self.LIMIT

    def test_langevin_table(self, modes_500):
        grid = TimeGrid(t0=0.0, dt=1.0, count=20000)
        assert self.peak(lambda: langevin_table(modes_500, grid)) < self.LIMIT

    def test_grid_mode_sum_holds_blocks_not_slabs(self):
        # the recurrence-wide shape: N+1 = 2048, T = 2001, the 7-column
        # occupation form.  The grid path holds three B x N rotation tables
        # (B = 64 here), four B x P tiles, B x J blocks and the T x J output,
        # within 8 B N floats (8 MiB); a slab of cos and sin rows would be
        # 1024 x N each
        modes = solve_normal_modes(paper_default_model(2048))
        form = dynamics._occupation_form(modes, InitialState.thermal(modes.model),
                                         modes.weights)
        assert form.coeffs.shape == (2048, 7)
        grid = TimeGrid(0.0, 3.0 * poincare_time(modes).t_poincare / 2000, 2001)
        block = max(dynamics._PHASE_BLOCK_ROWS, dynamics._PHASE_BLOCK_PHASES // 2048)
        limit = 8 * block * 2048 * 8
        assert self.peak(lambda: mode_sum(modes.alphas, form.coeffs, grid)) < limit

    def test_array_mode_sum_holds_blocks(self):
        # a continuum survival sum over 2,501 panel centres, 12 columns,
        # 401 times.  An array of times holds four B x P tiles (B = 64,
        # P = 325), within 8 B N floats (10.2 MB); whole-array cos and sin
        # phase matrices would be 401 x N each
        cm = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
        table = build_weight_table(cm, 2501)
        coeffs = (table.density * table.quad_weights).reshape(table.centres.size, -1)
        assert coeffs.shape == (2501, 12)
        ts = np.linspace(0.0, 1000.0, 401)
        block = max(dynamics._PHASE_BLOCK_ROWS, dynamics._PHASE_BLOCK_PHASES // 2501)
        limit = 8 * block * 2501 * 8
        assert self.peak(lambda: mode_sum(table.centres, coeffs, ts)) < limit

    def test_wide_survival_sum_holds_panels_not_blocks(self):
        # 50,000 panel centres, 12 columns, 129 times: B x N phase blocks
        # would be 97.7 MiB, four B x P tiles (P = 325) are 0.6 MiB
        rng = np.random.default_rng(5)
        freqs = np.sort(rng.uniform(0.5, 1.5, 50_000))
        coeffs = rng.standard_normal((50_000, 12))
        ts = np.linspace(0.0, 1000.0, 129)
        assert self.peak(lambda: mode_sum(freqs, coeffs, ts)) <= 4 * 2**20

    def test_single_channel_observables_build_one_pole_column(self):
        # at N+1 = 4096 the whole pole-ratio matrix is 128 MiB; one column
        # and the mode sum's blocks stay below 8 MiB (measured 1.4-2.5 MiB)
        model = paper_default_model(4096)
        modes = solve_normal_modes(model)
        init = InitialState.thermal(model)
        ts = np.linspace(0.0, 50.0, 11)
        for fn in (lambda: p_omega_n(modes, 2048, ts),
                   lambda: p_nm(modes, 2048, 2051, ts),
                   lambda: mean_bath_occupation(modes, init, 2048, ts)):
            assert self.peak(fn) < 8 * 2**20


def grid_columns(modes, init):
    """N_omega and P_surv of evolve_series and every langevin_table column over a
    2,000-point grid."""
    grid = TimeGrid(0.0, 1.0, 2000)
    series = evolve_series(modes, init, grid, ["N_omega", "P_surv"])
    table = langevin_table(modes, grid)
    return np.stack([*series.columns.values(), *table.columns.values()])


def form_grid_sum(n_modes):
    """The occupation form's mode sum at N+1 = ``n_modes`` over a 2,000-point grid."""
    modes = solve_normal_modes(paper_default_model(n_modes))
    form = dynamics._occupation_form(modes, InitialState.thermal(modes.model), modes.weights)
    return mode_sum(modes.alphas, form.coeffs, TimeGrid(0.0, 1.0, 2000))


# cpu minus wall time of a busy loop after the CLI's linear algebra, with two
# OpenBLAS threads: a worker left spinning by a two-thread call shows as
# ~0.13 s of extra cpu.  The loop before the calls lets the workers that
# start-up woke go idle.
SPIN_PROBE = """
import time
import numpy as np
from qbmlab import InitialState, dynamics, paper_default_model, solve_normal_modes
from qbmlab.continuum import (_auto_panels, build_weight_table, lorentzian_density,
                              survival_amplitude_continuum)

def excess(seconds):
    cpu, wall = time.process_time(), time.perf_counter()
    while time.perf_counter() - wall < seconds:
        pass
    return (time.process_time() - cpu) - (time.perf_counter() - wall)

excess(0.4)
modes = solve_normal_modes(paper_default_model(2048))
dynamics._occupation_form(modes, InitialState.thermal(modes.model), modes.weights)
cm = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
table = build_weight_table(cm, _auto_panels(cm, 1000.0))
survival_amplitude_continuum(cm, np.linspace(0.0, 1000.0, 401), table)
print(excess(0.2))
"""


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestBlasThreads:
    """A single-threaded BLAS in a fresh process gives the same grid mode sums."""

    def test_series_and_langevin_ignore_the_blas_thread_count(self, tmp_path, modes_500,
                                                               init_500):
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from test_dynamics import grid_columns\n"
                  "from qbmlab import InitialState, paper_default_model, solve_normal_modes\n"
                  "modes = solve_normal_modes(paper_default_model(500))\n"
                  "np.save(sys.argv[1], grid_columns(modes, InitialState.thermal(modes.model)))\n")
        single = run_single_threaded(script, tmp_path / "columns.npy")
        np.testing.assert_array_equal(single, grid_columns(modes_500, init_500))

    def test_form_sum_at_4096_modes_ignores_the_blas_thread_count(self, tmp_path):
        # 64 x 4096 @ 4096 x 7 is past the ~1e6 multiply-adds at which
        # OpenBLAS splits a product; the sum takes it in panels of 558 modes
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from test_dynamics import form_grid_sum\n"
                  "np.save(sys.argv[1], form_grid_sum(4096))\n")
        single = run_single_threaded(script, tmp_path / "sum.npy")
        default = form_grid_sum(4096)
        assert default.shape == (2000, 7)
        np.testing.assert_array_equal(single, default)

    @pytest.mark.skipif(usable_cpus() < 2, reason="a spinning BLAS worker needs a second CPU")
    def test_no_blas_worker_spins_after_the_sums(self):
        src = Path(dynamics.__file__).parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
                   PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", SPIN_PROBE], env=env, check=True,
                              capture_output=True, text=True)
        assert float(done.stdout) < 0.03


def dense_occupation(modes, init, amp, ts):
    """The occupation sum over the dense coefficients [a, a K] and quanta [kappa, nbar]."""
    coeffs = np.concatenate([amp[:, None], amp[:, None] * modes.pole_ratios()], axis=1)
    quanta = np.concatenate([[init.kappa], init.bath_occupancies])
    return mode_sum(modes.alphas, coeffs, ts, reduce=lambda s, _: np.abs(s) ** 2 @ quanta)


def occupation_scale(init):
    return max(init.kappa, float(init.bath_occupancies.max()))


def secular_residual_term(modes, init, amp, degree, ts):
    """dense - form at computed roots: sum a a conj(x) x E, E from the secular residuals.

    The form assumes the secular equation at the roots; it holds only to the
    residual f_nu = alpha_nu - omega_sub - sum_n g_n^2/(alpha_nu - omega_n),
    evaluated here in 40 digits at the float roots.  With u = p(alpha) f,
    E_numu = (u_nu - u_mu)/(alpha_nu - alpha_mu) off the diagonal and
    p'(alpha_nu) f_nu on it.  Also returns the bound
    2 pi/min gap |a u|_2 |a|_2 + sum |a^2 p' f| on the term (the Cauchy matrix
    1/(alpha_nu - alpha_mu) has norm at most pi/min gap: Montgomery-Vaughan).
    """
    mpmath = pytest.importorskip("mpmath")
    model = modes.model
    with mpmath.workdps(40):
        bath = [mpmath.mpf(float(v)) for v in model.bath_freqs]
        g2 = [mpmath.mpf(float(v)) ** 2 for v in model.couplings]
        f = np.array([float(mpmath.mpf(a) - model.omega_sub
                            - mpmath.fsum(g / (mpmath.mpf(a) - w) for g, w in zip(g2, bath)))
                      for a in modes.alphas.tolist()])
    centre, half = dynamics._chebyshev_map(modes)
    at_bath = dynamics._chebyshev_vander((model.bath_freqs - centre) / half, degree)
    scale = occupation_scale(init)
    b = np.linalg.lstsq(at_bath, init.bath_occupancies / scale, rcond=None)[0] * scale
    # p and p' in units of the occupation scale, so huge occupancies do not overflow
    xi = (modes.alphas - centre) / half
    p = np.polynomial.chebyshev.chebval(xi, b / scale)
    dp = np.polynomial.chebyshev.chebval(xi, np.polynomial.chebyshev.chebder(b / scale)) / half
    u = p * f
    gaps = np.subtract.outer(modes.alphas, modes.alphas)
    np.fill_diagonal(gaps, 1.0)
    e = np.subtract.outer(u, u) / gaps
    np.fill_diagonal(e, dp * f)
    e *= np.outer(amp, amp)
    x = np.exp(-1j * np.outer(ts, modes.alphas))
    term = np.einsum("ti,ij,tj->t", x.conj(), e, x).real
    bound = (2 * np.pi / np.diff(modes.alphas).min() * np.linalg.norm(amp * u)
             * np.linalg.norm(amp) + np.abs(amp**2 * dp * f).sum())
    return term * scale, bound * scale


# a bath whose occupancies no polynomial of degree <= 24 resolves
WIDE_COLD = SpectralModel(1.0, 20.0, 1.0, np.linspace(0.05, 3.0, 63), np.full(63, 0.01))


def lstsq_forms(modes, init, amp):
    """The Chebyshev form of every degree up to the cap, each fitted by its own lstsq."""
    nbar = init.bath_occupancies
    scale = occupation_scale(init)
    centre, half = dynamics._chebyshev_map(modes)
    top = min(dynamics._FORM_MAX_DEGREE, nbar.size - 1)
    vander = dynamics._chebyshev_vander((modes.model.bath_freqs - centre) / half, top)
    forms = []
    for degree in range(top + 1):
        at_bath = vander[:, :degree + 1]
        b = np.linalg.lstsq(at_bath, nbar / scale, rcond=None)[0] * scale
        fit_residual = float(np.abs(at_bath @ b - nbar).max())
        forms.append(dynamics._chebyshev_form(modes, init.kappa, amp, b, fit_residual))
    return forms


class TestOccupationForm:
    """<N(t)> as a Chebyshev low-rank Hermitian form against the dense [a, a K] sum."""

    def test_blocked_qr_gives_r_up_to_row_signs(self):
        # 3,000 rows: twelve 256-row blocks, whose stacked R's (312 rows) take
        # a second pass of blocks before the last QR
        a = np.random.default_rng(7).standard_normal((3000, 26))
        r = dynamics._triangular_factor(a)
        ref = np.linalg.qr(a, mode="r")
        np.testing.assert_allclose(np.abs(r), np.abs(ref), rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_polynomial_occupancies_match_dense(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.given(st.data())
        def check(data):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            n_osc = data.draw(st.integers(1, 40), label="bath size")
            degree = data.draw(st.integers(0, 4), label="degree of p")
            model = random_model(rng, n_osc, omega_in_band=data.draw(st.booleans()))
            modes = solve_normal_modes(model)
            # a polynomial p >= 0 on [-1, 1] in the form's own variable
            centre, half = dynamics._chebyshev_map(modes)
            b = rng.uniform(-1.0, 1.0, degree + 1)
            b[0] = np.abs(b[1:]).sum() + rng.uniform(0.1, 2.0)
            nbar = dynamics._chebyshev_vander((model.bath_freqs - centre) / half, degree) @ b
            init = InitialState(kappa=float(rng.uniform(0.0, 3.0)), bath_occupancies=nbar)
            j = data.draw(st.integers(0, n_osc - 1), label="bath state")
            amp = modes.weights if data.draw(st.booleans(), label="subsystem") \
                else modes.weights * modes.pole_ratios()[:, j]
            form = dynamics._occupation_form(modes, init, amp)
            if degree < n_osc:  # otherwise K+1 < N+1 may leave only the dense sum
                assert form.kind == "chebyshev"
            ts = np.concatenate([[0.0], rng.uniform(0.0, 1e4, 20)])
            got = dynamics._occupation(modes, init, amp, ts)
            want = dense_occupation(modes, init, amp, ts)
            assert np.abs(got - want).max() <= 1e-13 * occupation_scale(init)

        check()

    @pytest.mark.parametrize("case", ["paper32", "paper32-hot", "paper100", "random24",
                                      "random24-above", "paper32-bath16"])
    def test_thermal_models_match_dense_up_to_secular_residuals(self, case):
        rng = np.random.default_rng(31)
        model = {
            "paper32": lambda: paper_default_model(32),
            "paper32-hot": lambda: paper_default_model(32, beta=0.3),
            "paper100": lambda: paper_default_model(100),
            "random24": lambda: random_model(rng, 24, beta=2.0),
            "random24-above": lambda: random_model(rng, 24, omega_in_band=False),
            "paper32-bath16": lambda: paper_default_model(32),
        }[case]()
        modes = solve_normal_modes(model)
        init = InitialState.thermal(model)
        amp = modes.weights * modes.pole_ratios()[:, 15] if case.endswith("bath16") \
            else modes.weights
        form = dynamics._occupation_form(modes, init, amp)
        assert form.kind == "chebyshev" and form.degree < model.n_osc
        ts = TimeGrid(0.0, 3.0 * poincare_time(modes).t_poincare / 800, 801)
        got = dynamics._occupation(modes, init, amp, ts.times)
        want = dense_occupation(modes, init, amp, ts.times)
        term, bound = secular_residual_term(modes, init, amp, form.degree, ts.times)
        scale = occupation_scale(init)
        # the two forms differ by the residual term alone, and it is within its bound
        assert np.abs(got + term - want).max() <= 1e-14 * scale
        assert np.abs(got - want).max() <= bound + 1e-14 * scale
        assert form.error_bound <= dynamics._FORM_TOL * scale

    def test_wide_cold_bath_and_irregular_occupancies_keep_the_dense_sum(self):
        wide = SpectralModel(1.0, 20.0, 1.0, np.linspace(0.05, 3.0, 63), np.full(63, 0.01))
        paper = paper_default_model(32)
        irregular = InitialState(
            kappa=1.0, bath_occupancies=np.random.default_rng(5).uniform(0.0, 2.0, 31))
        ts = np.linspace(0.0, 3000.0, 301)
        grid = TimeGrid(0.0, 10.0, 301)
        for model, init in [(wide, InitialState.thermal(wide)), (paper, irregular)]:
            modes = solve_normal_modes(model)
            assert dynamics._occupation_form(modes, init, modes.weights).kind == "dense"
            # the same coefficients and reduce as before the form: the same bits
            assert np.array_equal(mean_subsystem_occupation(modes, init, ts),
                                  dense_occupation(modes, init, modes.weights, ts))
            series = evolve_series(modes, init, grid, ["N_omega"])
            assert np.array_equal(series.column("N_omega"),
                                  dense_occupation(modes, init, modes.weights, grid))
            assert np.array_equal(series.column("N_omega"),
                                  mean_subsystem_occupation(modes, init, grid))
            assert series.occupation_form == {"kind": "dense", "degree": None,
                                              "fit_residual": None, "error_bound": None}
            amp = modes.weights * modes.pole_ratios()[:, 7]
            assert np.array_equal(mean_bath_occupation(modes, init, 8, ts),
                                  dense_occupation(modes, init, amp, ts))

    def test_huge_occupancies_stay_finite(self):
        model = paper_default_model(32, beta=1e-300)
        modes = solve_normal_modes(model)
        init = InitialState.thermal(model)
        scale = occupation_scale(init)
        assert scale > 1e299
        form = dynamics._occupation_form(modes, init, modes.weights)
        assert form.kind == "chebyshev" and np.isfinite(form.error_bound)
        ts = np.linspace(0.0, poincare_time(modes).t_poincare / 2.0, 401)
        got = mean_subsystem_occupation(modes, init, ts)
        want = dense_occupation(modes, init, modes.weights, ts)
        term, bound = secular_residual_term(modes, init, modes.weights, form.degree, ts)
        assert np.all(np.isfinite(got))
        assert np.abs(got + term - want).max() <= 1e-14 * scale
        assert asymptotic_mean_occupation(modes, init) == pytest.approx(
            float(np.mean(want)), rel=0.05)

    @pytest.mark.parametrize("n_modes", [32, 500, 2048, "wide-cold"])
    def test_plateau_matches_the_dense_diagonal(self, n_modes):
        # the wide, cold bath takes the dense form
        model = WIDE_COLD if n_modes == "wide-cold" else paper_default_model(n_modes)
        modes = solve_normal_modes(model)
        init = InitialState.thermal(model)
        dense = (init.kappa * long_time_average_survival(modes)
                 + theta_profile(modes) @ init.bath_occupancies)
        assert asymptotic_mean_occupation(modes, init) == pytest.approx(dense, rel=1e-13)

    def test_recurrence_path_builds_no_pole_ratio_matrix(self, monkeypatch):
        from qbmlab.recurrence import analyze

        model = paper_default_model(100)
        modes = solve_normal_modes(model)
        init = InitialState.thermal(model)

        def refuse(self):
            raise AssertionError("pole-ratio matrix built")

        monkeypatch.setattr(NormalModes, "pole_ratios", refuse)
        grid = TimeGrid(0.0, 3.0 * poincare_time(modes).t_poincare / 1000, 1001)
        series = evolve_series(modes, init, grid, ["N_omega", "P_surv"])
        report = analyze(modes, series, "N_omega")
        assert report.plateau == asymptotic_mean_occupation(modes, init)
        assert series.column("N_omega")[0] == pytest.approx(init.kappa, abs=1e-12)

    def test_dense_series_and_plateau_share_one_form(self, monkeypatch):
        from qbmlab.recurrence import analyze

        modes = solve_normal_modes(WIDE_COLD)
        init = InitialState.thermal(WIDE_COLD)
        want = asymptotic_mean_occupation(modes, init)
        builds = []
        build = dynamics._dense_form
        monkeypatch.setattr(dynamics, "_dense_form", lambda *a: builds.append(a) or build(*a))
        grid = TimeGrid(0.0, poincare_time(modes).t_poincare / 200, 201)
        series = evolve_series(modes, init, grid, ["N_omega"])
        assert series.occupation_form["kind"] == "dense"
        report = analyze(modes, series, "N_omega")
        assert len(builds) == 1
        assert report.plateau == series.plateau == want

    def test_form_search_runs_no_lstsq(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for model, kind in [(paper_default_model(32), "chebyshev"), (WIDE_COLD, "dense")]:
            modes = solve_normal_modes(model)
            init = InitialState.thermal(model)
            assert dynamics._occupation_form(modes, init, modes.weights).kind == kind

    def test_one_qr_picks_the_degree_of_per_degree_lstsq(self):
        rng = np.random.default_rng(12)
        paper = [paper_default_model(n, beta=beta)
                 for n in (32, 500, 2048) for beta in (0.3, 1.0, 3.0)]
        random = [random_model(rng, int(rng.integers(1, 60)), beta=float(rng.uniform(0.3, 5.0)),
                               kappa=float(rng.uniform(0.0, 3.0))) for _ in range(100)]
        same = 0
        for i, model in enumerate(paper + random):
            modes = solve_normal_modes(model)
            init = InitialState.thermal(model)
            tol = dynamics._FORM_TOL * occupation_scale(init)
            forms = lstsq_forms(modes, init, modes.weights)
            want = next((f for f in forms if f.error_bound <= tol), None)
            form = dynamics._occupation_form(modes, init, modes.weights)
            taken = form.degree if form.kind == "chebyshev" else len(forms)
            if taken == (len(forms) if want is None else want.degree):
                same += 1
                if want is not None:
                    assert abs(form.mean() - want.mean()) <= tol
                    ts = np.linspace(0.0, poincare_time(modes).t_poincare, 64)
                    got = mode_sum(modes.alphas, form.coeffs, ts, reduce=lambda e, _: form(e))
                    ref = mode_sum(modes.alphas, want.coeffs, ts, reduce=lambda e, _: want(e))
                    assert np.abs(got - ref).max() <= tol
                continue
            assert i >= len(paper)
            # a tie at the tolerance: the two fits round differently, and the degrees
            # one search takes and the other skips have lstsq bounds within 25% of it
            assert all(f.error_bound > 0.8 * tol for f in forms[:taken])
            assert taken == len(forms) or forms[taken].error_bound <= 1.25 * tol
        assert same >= 0.95 * len(paper + random)

    def test_ridge_keeps_partial_hull_baths_certified(self):
        # baths far below omega_sub cover part of the Chebyshev hull only, and the
        # Vandermonde there is numerically rank deficient (condition 1e14-1e17):
        # without the ridge 78 of these 200 took another degree than per-degree
        # lstsq and 20 lost the certificate lstsq gives
        rng = np.random.default_rng(2)
        different = lost = 0
        for _ in range(200):
            model = random_model(rng, int(rng.integers(1, 60)), omega_in_band=False,
                                 beta=float(rng.uniform(0.3, 5.0)),
                                 kappa=float(rng.uniform(0.0, 3.0)))
            modes = solve_normal_modes(model)
            init = InitialState.thermal(model)
            tol = dynamics._FORM_TOL * occupation_scale(init)
            want = next((f for f in lstsq_forms(modes, init, modes.weights)
                         if f.error_bound <= tol), None)
            form = dynamics._occupation_form(modes, init, modes.weights)
            taken = form.degree if form.kind == "chebyshev" else None
            different += taken != (None if want is None else want.degree)
            lost += taken is None and want is not None
            if taken is not None:
                assert form.error_bound <= tol
        assert different <= 25 and lost <= 2
