import dataclasses
import math

import numpy as np
import pytest

from qbmlab import (
    InitialState,
    RecurrenceError,
    SpectralModel,
    TimeGrid,
    TimeSeries,
    asymptotic_mean_occupation,
    evolve_series,
    paper_default_model,
    poincare_time,
    solve_normal_modes,
    width_from_discrete,
)
from qbmlab.recurrence import analyze, detect_revivals, fit_exponential


def make_series(t0, dt, values):
    values = np.asarray(values, float)
    grid = TimeGrid(t0=t0, dt=dt, count=values.size)
    return TimeSeries(grid=grid, columns={"y": values})


class TestPoincareTime:
    def test_two_mode_resonant(self):
        modes = solve_normal_modes(SpectralModel(1.0, 1.0, 1.0, [1.0], [0.1]))
        tp = poincare_time(modes)
        assert tp.min_gap == pytest.approx(0.2, rel=1e-12)
        assert tp.t_poincare == pytest.approx(10.0 * np.pi, rel=1e-12)
        assert tp.index == 0

    def test_reference_32(self, modes_32):
        tp = poincare_time(modes_32)
        assert tp.t_poincare == pytest.approx(11190.0, rel=0.05)
        assert tp.t_poincare == pytest.approx(2 * np.pi / tp.min_gap, rel=1e-14)


class TestDetectRevivals:
    def test_monotone_series_has_no_peaks(self):
        series = make_series(0.0, 1.0, np.exp(-np.linspace(0, 5, 200)))
        assert detect_revivals(series, "y", plateau=0.0) == []

    def test_synthetic_bumps(self):
        t = np.arange(0.0, 300.0, 0.5)
        y = (0.5 + 0.5 * np.exp(-t / 4.0)
             + 0.35 * np.exp(-((t - 100.37) / 3.0) ** 2)
             + 0.25 * np.exp(-((t - 200.0) / 3.0) ** 2))
        series = make_series(0.0, 0.5, y)
        peaks = detect_revivals(series, "y", threshold=0.3, plateau=0.5)
        assert len(peaks) == 2
        assert peaks[0].time == pytest.approx(100.37, abs=0.05)
        assert peaks[1].time == pytest.approx(200.0, abs=0.05)
        assert peaks[0].height == pytest.approx(0.85, abs=0.01)
        # gaussian full width at half of the excess: 2 sigma sqrt(ln 2)
        assert peaks[0].width == pytest.approx(2 * 3.0 * np.sqrt(np.log(2.0)), rel=0.1)

    def test_threshold_filters_low_peaks(self):
        t = np.arange(0.0, 300.0, 0.5)
        y = (0.5 + 0.5 * np.exp(-t / 4.0)
             + 0.35 * np.exp(-((t - 100.0) / 3.0) ** 2)
             + 0.10 * np.exp(-((t - 200.0) / 3.0) ** 2))
        series = make_series(0.0, 0.5, y)
        peaks = detect_revivals(series, "y", threshold=0.5, plateau=0.5)
        assert len(peaks) == 1

    def test_min_separation_keeps_highest(self):
        t = np.arange(0.0, 100.0, 0.5)
        y = (0.4 * np.exp(-((t - 40.0) / 2.0) ** 2)
             + 0.3 * np.exp(-((t - 48.0) / 2.0) ** 2))
        y[0] = 1.0  # initial reference value
        series = make_series(0.0, 0.5, y)
        both = detect_revivals(series, "y", threshold=0.2, plateau=0.0)
        assert len(both) == 2
        merged = detect_revivals(series, "y", threshold=0.2, plateau=0.0,
                                 min_separation=20.0)
        assert len(merged) == 1
        assert merged[0].time == pytest.approx(40.0, abs=0.5)

    def test_default_plateau_is_the_median(self):
        # median 0.3: level 0.3 + 0.5 (1.0 - 0.3) = 0.65 keeps the 0.8 bump only
        y = np.array([1.0, 0.3, 0.6, 0.3, 0.3, 0.8, 0.3, 0.2, 0.3, 0.1, 0.3])
        peaks = detect_revivals(make_series(0.0, 1.0, y), "y")
        assert [peak.time for peak in peaks] == [5.0]
        assert peaks == detect_revivals(make_series(0.0, 1.0, y), "y", plateau=0.3)

    def test_threshold_domain(self):
        series = make_series(0.0, 1.0, np.ones(10))
        with pytest.raises(RecurrenceError):
            detect_revivals(series, "y", threshold=1.5)

    def test_missing_column(self):
        series = make_series(0.0, 1.0, np.ones(10))
        with pytest.raises(KeyError):
            detect_revivals(series, "z")


class TestFitExponential:
    def test_recovers_exact_rate(self):
        t = np.arange(0.0, 50.0, 0.1)
        gamma = 0.2345
        series = make_series(0.0, 0.1, 0.6 + 0.4 * np.exp(-gamma * t))
        fit = fit_exponential(series, "y", (0.0, 49.0), plateau=0.6)
        assert fit.gamma == pytest.approx(gamma, rel=1e-10)
        assert fit.residual < 1e-9

    def test_rejects_nonpositive_window(self):
        t = np.arange(0.0, 50.0, 0.1)
        series = make_series(0.0, 0.1, 0.6 + 0.4 * np.exp(-t) - 0.001 * (t > 30))
        with pytest.raises(RecurrenceError, match="rejected"):
            fit_exponential(series, "y", (0.0, 49.0), plateau=0.6)

    def test_rejects_empty_window(self):
        series = make_series(0.0, 1.0, np.ones(10))
        with pytest.raises(RecurrenceError):
            fit_exponential(series, "y", (5.0, 5.0), plateau=0.0)

    def test_rejects_a_window_of_one_sample(self):
        series = make_series(0.0, 1.0, np.ones(10))
        with pytest.raises(RecurrenceError, match="fewer than 2 samples"):
            fit_exponential(series, "y", (4.5, 5.5), plateau=0.0)


@pytest.fixture(scope="module")
def report_and_series(modes_32, init_32):
    tp = poincare_time(modes_32).t_poincare
    grid = TimeGrid(t0=0.0, dt=3.0 * tp / 4000, count=4001)
    series = evolve_series(modes_32, init_32, grid, ["N_omega"])
    report = analyze(modes_32, series, "N_omega")
    return report, series


class TestReferenceModelAnalysis:
    def test_first_revival_near_recurrence_time(self, report_and_series):
        report, _ = report_and_series
        assert len(report.peaks) >= 3
        assert report.peaks[0].time == pytest.approx(report.t_poincare, rel=0.02)
        assert report.peak_spacing == pytest.approx(report.t_poincare, rel=0.02)

    def test_revivals_shrink_below_initial(self, report_and_series):
        report, series = report_and_series
        initial = series.column("N_omega")[0]
        assert all(p.height < initial for p in report.peaks)
        assert report.peaks[1].height < report.peaks[0].height

    def test_first_peak_rises_steeper_than_it_decays(self, report_and_series):
        report, _ = report_and_series
        assert report.peaks[0].asymmetry > 1.0
        assert dataclasses.replace(report.peaks[0], fall_slope=0.0).asymmetry == math.inf

    def test_fit_present_and_positive(self, report_and_series, modes_32):
        report, series = report_and_series
        assert report.gamma_fit is not None and report.gamma_fit > 0
        assert report.plateau == pytest.approx(0.609, abs=0.01)
        # with no valid sample the trimmed window's fit is refused, and no rate reported
        invalid = dataclasses.replace(series, valid=np.zeros(series.grid.count, dtype=bool))
        assert analyze(modes_32, invalid, "N_omega").gamma_fit is None

    def test_init_plateau_only_for_occupation(self, modes_32, init_32):
        # the series' plateau is <N_sub>'s mean (0.609), not P_surv's (sum w^2 = 0.064)
        tp = poincare_time(modes_32).t_poincare
        grid = TimeGrid(t0=0.0, dt=3.0 * tp / 4000, count=4001)
        series = evolve_series(modes_32, init_32, grid, ["N_omega", "P_surv"])
        report = analyze(modes_32, series, "P_surv")
        assert report.plateau == pytest.approx(np.median(series.column("P_surv")))
        assert analyze(modes_32, series, "N_omega").plateau == series.plateau

    def test_symmetric_grid_gives_mirrored_peaks(self, modes_32, init_32):
        tp = poincare_time(modes_32).t_poincare
        half = int(1.5 * tp / 4.0)
        grid = TimeGrid(t0=-half * 4.0, dt=4.0, count=2 * half + 1)
        series = evolve_series(modes_32, init_32, grid, ["N_omega"])
        plateau = asymptotic_mean_occupation(modes_32, init_32)
        peaks = detect_revivals(series, "N_omega", threshold=0.5, plateau=plateau,
                                min_separation=tp / 4.0)
        times = sorted(p.time for p in peaks)
        # the initial maximum at t=0 plus one mirrored revival on each side
        assert len(times) == 3
        assert times[1] == pytest.approx(0.0, abs=1e-9)
        assert times[0] == pytest.approx(-times[2], rel=1e-6)


class TestRecurrenceTimeTrend:
    def test_t_poincare_grows_with_bath_size_at_fixed_band(self):
        values = []
        for np1 in (10, 32, 100):
            modes = solve_normal_modes(paper_default_model(np1))
            values.append(poincare_time(modes).t_poincare)
        assert values[0] < values[1] < values[2]


class TestSmallBathLosesExponentialDecay:
    def test_small_bath_fit_is_poor(self, modes_500, init_500):
        # the 6-oscillator bath is not robust enough for exponential decay:
        # its log-residual dwarfs the dense-bath one and the rate is far from
        # the continuum width
        m6 = paper_default_model(6)
        modes6 = solve_normal_modes(m6)
        init6 = InitialState.thermal(m6)
        grid6 = TimeGrid(0.0, 0.05, 2001)
        series6 = evolve_series(modes6, init6, grid6, ["N_omega"])
        plateau6 = asymptotic_mean_occupation(modes6, init6)
        fit6 = fit_exponential(series6, "N_omega", (3.0, 100.0), plateau6)

        gamma500 = width_from_discrete(modes_500.model)
        grid500 = TimeGrid(0.0, 5.0, 1319)  # up to 1.5 decay times
        series500 = evolve_series(modes_500, init_500, grid500, ["N_omega"])
        plateau500 = asymptotic_mean_occupation(modes_500, init_500)
        fit500 = fit_exponential(series500, "N_omega", (3.0, 1.5 / gamma500), plateau500)

        assert fit6.residual > 3.0 * fit500.residual
        assert abs(fit6.gamma / width_from_discrete(m6) - 1.0) > 0.5
        assert fit500.gamma == pytest.approx(gamma500, rel=0.15)
