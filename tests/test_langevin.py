import numpy as np
import pytest

from qbmlab import (
    NormalModes,
    SpectralModel,
    TimeGrid,
    kernels,
    langevin_coefficients,
    langevin_table,
    solve_normal_modes,
)
from conftest import random_model
from oracles import verify_langevin_ode


def single_mode(omega=1.0):
    m = SpectralModel(omega, 1.0, 1.0, [omega * 2.0], [1e-8])
    return NormalModes(
        model=m,
        alphas=np.array([omega]),
        weights=np.array([1.0]),
        residuals=np.array([0.0]),
    )


def two_mode(a1, a2):
    """Equal-weight pair; wronskian vanishes at t = pi/(a2-a1)."""
    m = SpectralModel((a1 + a2) / 2, 1.0, 1.0, [(a1 + a2) / 2], [(a2 - a1) / 2])
    return NormalModes(
        model=m,
        alphas=np.array([a1, a2]),
        weights=np.array([0.5, 0.5]),
        residuals=np.zeros(2),
    )


class TestKernels:
    def test_initial_values_and_trace(self, modes_32, model_32):
        k = kernels(modes_32, 0.0)
        assert k.a == pytest.approx(1.0, abs=1e-12)
        assert k.b == pytest.approx(0.0, abs=1e-15)
        assert k.da == pytest.approx(0.0, abs=1e-15)
        # db(0) = sum w alpha = omega_sub (first-row trace identity)
        assert k.db == pytest.approx(model_32.omega_sub, rel=1e-12)
        assert k.delta == pytest.approx(1.0, rel=1e-13)
        assert k.wronskian == pytest.approx(model_32.omega_sub, rel=1e-12)

    def test_single_mode_rotation(self):
        modes = single_mode(1.4)
        for t in (0.0, 0.63, 5.1):
            k = kernels(modes, t)
            assert k.a == pytest.approx(np.cos(1.4 * t), abs=1e-15)
            assert k.b == pytest.approx(np.sin(1.4 * t), abs=1e-15)
            assert k.delta == pytest.approx(1.0, rel=1e-14)

    def test_kernels_bounded(self, modes_32):
        ts = np.linspace(0.0, 3000.0, 900)
        k = kernels(modes_32, ts)
        a, b = k.a, k.b
        assert np.all(np.abs(a) <= 1.0 + 1e-12)
        assert np.all(np.abs(b) <= 1.0 + 1e-12)
        assert np.all(a**2 + b**2 <= 1.0 + 1e-12)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 12)
        modes = solve_normal_modes(m)
        h = 1e-4
        for t in (0.9, 7.3, 40.0):
            k, kp, km = (kernels(modes, s) for s in (t, t + h, t - h))
            da, db, dda, ddb = k.da, k.db, k.dda, k.ddb
            ap, bp, dap, dbp = kp.a, kp.b, kp.da, kp.db
            am, bm, dam, dbm = km.a, km.b, km.da, km.db
            assert da == pytest.approx((ap - am) / (2 * h), abs=5e-7)
            assert db == pytest.approx((bp - bm) / (2 * h), abs=5e-7)
            assert dda == pytest.approx((dap - dam) / (2 * h), abs=5e-7)
            assert ddb == pytest.approx((dbp - dbm) / (2 * h), abs=5e-7)

    def test_scalar_is_element_0_of_a_one_element_array(self, modes_32):
        two = two_mode(0.9, 1.1)
        # t = 0, a generic time, and a wronskian zero, whose sample is invalid
        for modes, t in [(modes_32, 0.0), (modes_32, 37.1), (two, np.pi / 0.2)]:
            for sample in (kernels, langevin_coefficients):
                one, arr = sample(modes, t), sample(modes, np.array([t]))
                names = list(vars(one)) + (["delta", "wronskian"] if sample is kernels else [])
                for name in names:
                    value = getattr(one, name)
                    assert np.ndim(value) == 0 and isinstance(value, np.generic), name
                    assert np.array_equal(value, getattr(arr, name)[0], equal_nan=True), name

    def test_grid_gives_the_langevin_table_columns(self, modes_32):
        grid = TimeGrid(t0=0.0, dt=0.25, count=2001)
        k = kernels(modes_32, grid)
        table = langevin_table(modes_32, grid)
        assert np.array_equal(k.a, table.column("a"))
        assert np.array_equal(k.b, table.column("b"))
        assert np.array_equal(k.delta, table.column("delta"))
        c = langevin_coefficients(modes_32, grid)
        assert np.array_equal(c.omega_sq, table.column("omega_sq"), equal_nan=True)
        assert np.array_equal(c.gamma, table.column("gamma"), equal_nan=True)
        assert np.array_equal(c.valid, table.valid)


class TestCoefficients:
    def test_decoupled_limit_exact(self):
        modes = single_mode(1.0)
        for t in (0.0, 1.7, 12.9, 300.0):
            s = langevin_coefficients(modes, t)
            assert s.valid
            assert s.omega_sq == pytest.approx(1.0, rel=1e-13)
            assert abs(s.gamma) < 1e-14

    def test_t_zero_always_valid(self, modes_32):
        s = langevin_coefficients(modes_32, 0.0)
        assert s.valid
        assert s.omega_sq > 0

    def test_singular_sample_flagged_not_fatal(self):
        modes = two_mode(0.9, 1.1)
        t_star = np.pi / 0.2  # |s(t)| = |cos((a2-a1)t/2)| vanishes here
        s = langevin_coefficients(modes, t_star)
        assert not s.valid
        assert np.isnan(s.omega_sq) and np.isnan(s.gamma)
        before = langevin_coefficients(modes, 0.5 * t_star)
        assert before.valid

    def test_table_columns_and_flags(self):
        modes = two_mode(0.9, 1.1)
        t_star = np.pi / 0.2
        grid = TimeGrid(t0=0.0, dt=t_star / 8, count=17)  # sample 8 hits t_star
        table = langevin_table(modes, grid)
        assert set(table.columns) == {"a", "b", "delta", "omega_sq", "gamma"}
        assert not table.valid[8]
        assert table.valid[[0, 1, 2, 3]].all()
        assert np.isnan(table.column("omega_sq")[8])


class TestOdeResidual:
    def test_single_mode_residual_is_rounding(self):
        report = verify_langevin_ode(single_mode(), TimeGrid(0.0, 0.1, 200))
        assert report.max_residual < 1e-12
        assert report.n_invalid == 0

    def test_reference_model_residual(self, modes_32):
        grid = TimeGrid(t0=0.0, dt=0.25, count=2001)  # t in [0, 500]
        report = verify_langevin_ode(modes_32, grid)
        assert report.max_residual < 1e-8 * report.x_scale
        assert report.n_samples == 2001 * 4

    def test_invalid_samples_excluded_and_counted(self):
        modes = two_mode(0.9, 1.1)
        t_star = np.pi / 0.2
        grid = TimeGrid(t0=0.0, dt=t_star / 8, count=17)
        report = verify_langevin_ode(modes, grid, n_trials=2)
        assert report.n_invalid == 2 * 1
        assert np.isfinite(report.max_residual)


class TestExponentialRegimeWidth:
    def test_gamma_median_matches_continuum_width(self, modes_500):
        from qbmlab import width_from_discrete
        gamma = width_from_discrete(modes_500.model)
        ts = np.linspace(50.0, 2000.0, 2500)
        coefficients = langevin_coefficients(modes_500, ts)
        gamma_t, valid = coefficients.gamma, coefficients.valid
        median = float(np.median(gamma_t[valid]))
        assert median == pytest.approx(gamma, rel=0.2)


class TestInverseRelation:
    def test_initial_conditions_recovered(self, modes_32):
        rng = np.random.default_rng(6)
        ts = np.linspace(0.0, 400.0, 230)
        k = kernels(modes_32, ts)
        a, b = k.a, k.b
        delta = a**2 + b**2
        mask = delta > 1e-6
        for _ in range(3):
            x0, p0 = rng.uniform(-2.0, 2.0, 2)
            x = a * x0 + b * p0
            p = -b * x0 + a * p0
            x0_rec = (a * x - b * p) / delta
            p0_rec = (b * x + a * p) / delta
            np.testing.assert_allclose(x0_rec[mask], x0, atol=1e-10)
            np.testing.assert_allclose(p0_rec[mask], p0, atol=1e-10)
