import bisect
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qbmlab import (
    ContinuumError,
    ContinuumModel,
    TimeGrid,
    paper_default_model,
    solve_normal_modes,
    thermal_occupancy,
)
from qbmlab import continuum
from qbmlab.continuum import (
    _NORM_TOL,
    _auto_panels,
    _mesh,
    _panel_nodes,
    _pv_sums,
    _self_energy,
    asymptotic_occupation,
    build_weight_table,
    density_from_discrete,
    khalfin_tail,
    lorentzian_density,
    pole_estimate,
    pv_shift,
    refine_pole,
    resolvent_boundary,
    survival_amplitude_continuum,
    ullersma_density,
    validate_continuum,
    width,
    width_from_discrete,
)
from qbmlab.dynamics import mode_sum


@pytest.fixture(scope="module")
def narrow():
    """Narrow symmetric Lorentzian density: clean pole, tiny shift."""
    return lorentzian_density(
        peak=5e-4, half_width=0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5
    )


@pytest.fixture(scope="module")
def narrow_table(narrow):
    return build_weight_table(narrow, 3500)


class TestModelValidation:
    def test_omega_sub_must_lie_in_band(self):
        with pytest.raises(ContinuumError):
            lorentzian_density(1e-3, 0.05, omega_sub=2.0, omega_min=0.5, omega_max=1.5)

    def test_density_must_be_positive_at_omega_sub(self):
        with pytest.raises(ContinuumError, match="positive"):
            ContinuumModel(
                g_sq=lambda w: np.zeros_like(np.asarray(w, float)),
                omega_min=0.5, omega_max=1.5, omega_sub=1.0, beta=1.0,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        good = dict(omega_min=0.5, omega_max=1.5, omega_sub=1.0, beta=1.0)
        for name in good:
            with pytest.raises(ContinuumError, match="finite"):
                ContinuumModel(g_sq=lambda w: np.ones_like(np.asarray(w, float)),
                               **(good | {name: bad}))
        with pytest.raises(ContinuumError, match="finite"):
            lorentzian_density(bad, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
        with pytest.raises(ContinuumError, match="finite"):
            ullersma_density(0.3, bad, omega_min=1e-3, omega_max=5.0)


    def test_density_not_finite_on_the_band_refused(self):
        spike = ContinuumModel(
            g_sq=lambda w: np.where(np.asarray(w, float) > 1.4, np.inf, 1e-3),
            omega_min=0.5, omega_max=1.5, omega_sub=1.0, beta=1.0,
        )
        with pytest.raises(ContinuumError, match="not finite on the band"):
            pv_shift(spike)


class TestPvShift:
    def test_symmetric_density_gives_zero(self, narrow):
        assert abs(pv_shift(narrow)) < 1e-10

    def test_constant_density_gives_zero(self):
        cm = ContinuumModel(
            g_sq=lambda w: np.full_like(np.asarray(w, float), 0.01),
            omega_min=0.6, omega_max=1.4, omega_sub=1.0, beta=1.0,
        )
        assert abs(pv_shift(cm)) < 1e-10

    def test_linear_density_closed_form(self):
        # PV int of c*w/(W - w) over (W - h, W + h) equals -2*c*h
        c, h = 0.3, 0.25
        cm = ContinuumModel(
            g_sq=lambda w: c * np.asarray(w, float),
            omega_min=1.0 - h, omega_max=1.0 + h, omega_sub=1.0, beta=1.0,
        )
        assert pv_shift(cm) == pytest.approx(-2 * c * h, rel=1e-9)


class TestWidth:
    def test_value(self, narrow):
        assert width(narrow) == pytest.approx(2 * math.pi * 5e-4, rel=1e-14)

    def test_explicit_density(self):
        cm = ContinuumModel(
            g_sq=lambda w: np.full_like(np.asarray(w, float), 1.0 / (2 * math.pi)),
            omega_min=0.5, omega_max=1.5, omega_sub=1.0, beta=1.0,
        )
        assert width(cm) == pytest.approx(1.0, rel=1e-14)

    def test_linearity(self, narrow):
        doubled = lorentzian_density(
            peak=1e-3, half_width=0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5
        )
        assert width(doubled) == pytest.approx(2 * width(narrow), rel=1e-13)

    def test_discrete_correspondence(self):
        m = paper_default_model(32)
        a = m.uniform_spacing()
        # couplings peak at D = A, so g^2(W)/A = A
        assert width_from_discrete(m) == pytest.approx(2 * math.pi * a, rel=1e-9)


class TestResolventBoundary:
    def test_imaginary_part_by_construction(self, narrow):
        rng = np.random.default_rng(0)
        for alpha in rng.uniform(0.55, 1.45, 10):
            r = resolvent_boundary(narrow, float(alpha))
            assert r.imag == math.pi * float(narrow.g_sq(np.asarray(alpha)))

    def test_conjugacy(self, narrow):
        r_up = resolvent_boundary(narrow, 1.2)
        r_dn = resolvent_boundary(narrow, 1.2, side=-1)
        assert r_dn == r_up.conjugate()

    def test_cut_discontinuity(self, narrow):
        alpha = 0.87
        jump = resolvent_boundary(narrow, alpha) - resolvent_boundary(narrow, alpha, side=-1)
        expected = 2j * math.pi * float(narrow.g_sq(np.asarray(alpha)))
        assert jump == pytest.approx(expected, rel=1e-12)

    def test_real_part_vanishes_on_resonance_for_symmetric_density(self, narrow):
        r = resolvent_boundary(narrow, narrow.omega_sub)
        assert abs(r.real) < 1e-10

    def test_no_real_zeros_on_band(self, narrow):
        # |Rinv| >= pi g^2 > 0 everywhere on the cut
        for alpha in np.linspace(0.51, 1.49, 21):
            r = resolvent_boundary(narrow, float(alpha))
            assert abs(r) >= math.pi * float(narrow.g_sq(np.asarray(alpha)))

    def test_alpha_outside_band_rejected(self, narrow):
        with pytest.raises(ContinuumError):
            resolvent_boundary(narrow, 0.4)


class TestPole:
    def test_estimate_structure(self, narrow):
        est = pole_estimate(narrow)
        assert est.gamma == width(narrow)
        assert est.z0 == complex(1.0 + est.delta_omega, -est.gamma / 2)
        assert abs(est.delta_omega) < 1e-10  # symmetric density

    def test_refinement_stays_close_and_zeroes_f(self, narrow):
        est = pole_estimate(narrow)
        z = refine_pole(narrow)
        assert abs(z - est.z0) < 0.05 * est.gamma
        f = (z - narrow.omega_sub - _self_energy(narrow, z)
             + 2j * math.pi * narrow.g_sq_complex(z))
        assert abs(f) < 1e-12

    @pytest.mark.parametrize("peak,half_width", [(5e-6, 1e-4), (5e-7, 2e-5)])
    def test_narrow_poles_zero_f_against_mpmath(self, peak, half_width):
        # F at the refined pole from a 30-digit self-energy split at the peak, +-a
        # and +-10a: the self-energy must resolve a pole 1.7e-6 below the axis
        mpmath = pytest.importorskip("mpmath")
        cm = lorentzian_density(peak, half_width, 1.0, 0.5, 1.5)
        z = refine_pole(cm)
        with mpmath.workdps(30):
            p, a, zz = mpmath.mpf(peak), mpmath.mpf(half_width), mpmath.mpc(z.real, z.imag)

            def g_sq(w):
                return p * a**2 / (a**2 + (w - 1) ** 2)

            cuts = [mpmath.mpf(0.5), 1 - 10 * a, 1 - a, mpmath.mpf(1), 1 + a, 1 + 10 * a,
                    mpmath.mpf(1.5)]
            sigma = mpmath.quad(lambda w: g_sq(w) / (zz - w), cuts)
            f = zz - 1 - sigma + 2j * mpmath.pi * g_sq(zz)
        assert abs(f) <= 1e-14

    @pytest.mark.parametrize("start", [complex(math.nan, 0.0), complex(1.0, -math.inf),
                                       complex(math.inf, -0.01), complex(math.nan, math.nan)])
    def test_non_finite_start_refused(self, narrow, start):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContinuumError, match="must be finite"):
                refine_pole(narrow, start=start)

    @pytest.mark.parametrize("peak,half_width", [(5e-4, 0.05), (5e-6, 1e-4), (5e-7, 2e-5),
                                                 (2e-3, 0.05)])
    def test_secant_takes_few_self_energies(self, monkeypatch, peak, half_width):
        # the estimate's self-energy included; measured 5-6
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _self_energy(*args, **kwargs)

        monkeypatch.setattr(continuum, "_self_energy", counted)
        refine_pole(lorentzian_density(peak, half_width, 1.0, 0.5, 1.5))
        assert 1 < len(calls) <= 8

    @pytest.mark.parametrize("start", [complex(0.8, -0.05), complex(1.3, -0.001)])
    def test_far_starts_reach_the_default_pole(self, narrow, start):
        z = refine_pole(narrow, start=start)
        assert z == pytest.approx(refine_pole(narrow), abs=1e-14)
        f = (z - narrow.omega_sub - _self_energy(narrow, z)
             + 2j * math.pi * narrow.g_sq_complex(z))
        assert abs(f) <= 1e-14

    def test_split_poles_refused(self):
        # a strong coupling splits the resonance; the secant ends above the axis
        with pytest.raises(ContinuumError, match="lower half plane"):
            refine_pole(lorentzian_density(2e-2, 0.05, 1.0, 0.5, 1.5))

    def test_refinement_requires_continuation(self):
        cm = ContinuumModel(
            g_sq=lambda w: np.full_like(np.asarray(w, float), 0.01),
            omega_min=0.5, omega_max=1.5, omega_sub=1.0, beta=1.0,
        )
        with pytest.raises(ContinuumError, match="continuation"):
            refine_pole(cm)

    @pytest.mark.parametrize("start", [complex(1.0, -0.05), complex(1.0, 0.05)])
    def test_start_on_a_pole_of_the_continuation(self, narrow, start):
        # g^2(z) = peak a^2/(a^2 + (z - 1)^2) divides by zero at z = 1 -+ 0.05i
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert refine_pole(narrow, start=start).imag < 0
            except ContinuumError as err:
                assert repr(start) in str(err)


class TestSurvivalAmplitude:
    def test_completeness_at_t_zero(self, narrow, narrow_table):
        assert narrow_table.completeness == pytest.approx(1.0, abs=1e-10)
        s0 = survival_amplitude_continuum(narrow, 0.0, table=narrow_table)
        assert s0 == pytest.approx(1.0 + 0.0j, abs=1e-10)
        # a single time is element 0 of a one-element array
        assert isinstance(s0, np.complex128)
        assert s0 == survival_amplitude_continuum(narrow, [0.0], table=narrow_table)[0]

    def test_mid_time_exponential_with_residue_correction(self, narrow, narrow_table):
        gamma = width(narrow)
        z = refine_pole(narrow)
        h = 1e-6
        def f(zz):
            return (zz - narrow.omega_sub - _self_energy(narrow, zz)
                    + 2j * math.pi * narrow.g_sq_complex(zz))
        residue = abs(1.0 / ((f(z + h) - f(z - h)) / (2 * h)))
        ts = np.array([200.0, 500.0, 900.0])
        s = survival_amplitude_continuum(narrow, ts, table=narrow_table)
        predicted = np.exp(-gamma * ts / 2.0) * residue
        np.testing.assert_allclose(np.abs(s), predicted, rtol=0.10)

    def test_short_time_quadratic_onset(self, narrow, narrow_table):
        ts = np.geomspace(0.02, 0.2, 25)
        s = survival_amplitude_continuum(narrow, ts, table=narrow_table)
        slope, _ = np.polyfit(np.log(ts), np.log(1.0 - np.abs(s) ** 2), 1)
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_phase_resolution_refusal(self, narrow, narrow_table):
        t_bad = 1.0 / narrow_table.panel_width
        with pytest.raises(ContinuumError, match="panel"):
            survival_amplitude_continuum(narrow, t_bad, table=narrow_table)
        with pytest.raises(ContinuumError, match="panel"):
            survival_amplitude_continuum(narrow, 500.0, table=build_weight_table(narrow, 100))

    def test_grid_matches_its_times(self, narrow):
        grid = TimeGrid(0.0, 2.5, 401)
        np.testing.assert_allclose(survival_amplitude_continuum(narrow, grid),
                                   survival_amplitude_continuum(narrow, grid.times),
                                   rtol=0, atol=1e-13)

    def test_negative_time_rejected(self, narrow, narrow_table):
        with pytest.raises(ContinuumError):
            survival_amplitude_continuum(narrow, -1.0, table=narrow_table)


@pytest.fixture(scope="module")
def strong_ullersma():
    # coupling strong enough that the exponential is dead well inside the
    # power-law window t < 1/omega_min
    return ullersma_density(c1=0.3, c2=1.0, omega_min=1e-3, omega_max=5.0)


class TestKhalfinTail:
    def test_inverse_square_tail(self, strong_ullersma):
        slope = khalfin_tail(strong_ullersma, (100.0, 400.0))
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_amplitude_keeps_decaying(self, strong_ullersma):
        s = survival_amplitude_continuum(strong_ullersma, np.array([100.0, 400.0, 900.0]))
        mags = np.abs(s)
        assert mags[0] > mags[1] > mags[2]
        assert mags[2] < 1e-4

    def test_window_validity_enforced(self, strong_ullersma):
        with pytest.raises(ContinuumError, match="validity"):
            khalfin_tail(strong_ullersma, (0.1, 400.0))
        with pytest.raises(ContinuumError, match="validity"):
            khalfin_tail(strong_ullersma, (100.0, 5000.0))

    def test_band_from_zero_refused(self):
        from_zero = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.0,
                                       omega_max=2.0)
        with pytest.raises(ContinuumError, match="positive lower cutoff"):
            khalfin_tail(from_zero, (10.0, 100.0))


class TestAsymptoticOccupation:
    def test_weak_coupling_value(self, narrow):
        assert thermal_occupancy(narrow.beta, narrow.omega_sub) == pytest.approx(
            1.0 / (math.e - 1.0), rel=1e-14
        )

    def test_zero_temperature_limit(self):
        cold = lorentzian_density(
            peak=5e-4, half_width=0.05, omega_sub=1.0,
            omega_min=0.5, omega_max=1.5, beta=1e4,
        )
        assert asymptotic_occupation(cold) < 1e-30
        # finite coupling where exp(beta * omega) overflows: exactly 0, no warning
        frozen = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5,
                                    omega_max=1.5, beta=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert asymptotic_occupation(frozen) == 0.0

    def test_finite_coupling_converges_monotonically_to_weak_limit(self):
        weak_value = 1.0 / (math.e - 1.0)
        deviations = []
        for scale in (1.0, 0.5, 0.25):
            cm = lorentzian_density(
                peak=2e-3 * scale**2, half_width=0.05, omega_sub=1.0,
                omega_min=0.5, omega_max=1.5,
            )
            deviations.append(asymptotic_occupation(cm) - weak_value)
        assert all(d > 0 for d in deviations)
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-4


    def test_incomplete_weight_density_refused(self):
        # strong coupling binds states outside the band, which take a third of the weight
        strong = lorentzian_density(0.2, 0.5, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
        with pytest.raises(ContinuumError, match="cannot form the thermal average"):
            asymptotic_occupation(strong)


class TestValidateContinuum:
    def test_narrow_lorentzian_passes(self, narrow):
        report = validate_continuum(narrow)
        assert report.all_pass
        assert not any(report.diverged)

    def test_ohmic_from_zero_fails_left(self):
        ohmic = ContinuumModel(
            g_sq=lambda w: np.asarray(w, float).copy(),
            omega_min=0.0, omega_max=2.0, omega_sub=1.0, beta=1.0,
        )
        report = validate_continuum(ohmic)
        assert not report.passes[0]
        assert report.left_value == pytest.approx(2.0, rel=1e-4)

    def test_tiny_density_passes_trivially(self):
        cm = ContinuumModel(
            g_sq=lambda w: np.full_like(np.asarray(w, float), 1e-30),
            omega_min=0.5, omega_max=1.5, omega_sub=1.0, beta=1.0,
        )
        report = validate_continuum(cm)
        assert report.all_pass
        assert report.left_value < 1e-25 and report.right_value < 1e-25


def lorentzian_sigma(mpmath, peak, a, lo, hi, z):
    """Sigma(z) of lorentzian_density(peak, a, 1.0, lo, hi) in closed form at 40 digits,
    the principal value at real z.  With q = 1 + ia,
    g^2 = (peak a/2i) (1/(w - q) - 1/(w - conj q)), and
    Int dw/((w - p)(z - w)) = (log((hi - p)/(lo - p)) + L)/(z - p), L = Int dw/(z - w)."""
    with mpmath.workdps(40):
        p, a, lo, hi = (mpmath.mpf(v) for v in (peak, a, lo, hi))
        if isinstance(z, complex):
            z = mpmath.mpc(z.real, z.imag)
            logs = mpmath.log(z - lo) - mpmath.log(z - hi)
        else:
            z = mpmath.mpf(z)
            logs = mpmath.log((z - lo) / (hi - z))

        def part(q):
            return (mpmath.log(hi - q) - mpmath.log(lo - q) + logs) / (z - q)

        q = mpmath.mpc(1, a)
        return complex(p * a / 2j * (part(q) - part(mpmath.conj(q))))


def lorentzian_edge(mpmath, peak, a, lo, hi, side, margin=1e-8):
    """Int g^2(w)/|w - edge| dw of the same density beyond margin * band from the edge,
    in closed form at 40 digits: Int dw/((w - q)(w - e)) over [x0, x1] is
    (log((x1 - q)/(x0 - q)) - log(|x1 - e|/|x0 - e|))/(q - e)."""
    with mpmath.workdps(40):
        p, a, lo, hi = (mpmath.mpf(v) for v in (peak, a, lo, hi))
        gap = mpmath.mpf(margin) * (hi - lo)
        e, x0, x1, sign = (lo, lo + gap, hi, 1) if side == "left" else (hi, lo, hi - gap, -1)

        def part(q):
            return (mpmath.log((x1 - q) / (x0 - q)) - mpmath.log(abs(x1 - e) / abs(x0 - e))) / (q - e)

        q = mpmath.mpc(1, a)
        return float(sign * (p * a / 2j * (part(q) - part(mpmath.conj(q)))).real)


class TestNarrowLorentzians:
    """Lorentzians of half-width down to 1e-6 of the band against closed forms."""

    # measured 1.4e-16 of max |PV| at worst
    @pytest.mark.parametrize("band", [(0.5, 1.5), (0.5, 1.7)])
    @pytest.mark.parametrize("peak,half_width", [(5e-6, 1e-4), (5e-7, 2e-5), (1e-3, 1e-6)])
    def test_real_axis_principal_value(self, band, peak, half_width):
        # both edges to 1e-9 of the band, the peak +- a and 30 interior points
        mpmath = pytest.importorskip("mpmath")
        lo, hi = band
        cm = lorentzian_density(peak, half_width, 1.0, lo, hi)
        zs = [lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 1.0 - half_width,
              1.0 + half_width, *np.linspace(lo, hi, 32)[1:-1].tolist()]
        got = np.array([_self_energy(cm, z).real for z in zs])
        ref = np.array([lorentzian_sigma(mpmath, peak, half_width, lo, hi, z).real for z in zs])
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()

    # measured 5.4e-14 and 4.3e-13
    @pytest.mark.parametrize("peak,half_width", [(5e-7, 2e-5), (1e-3, 1e-6)])
    def test_edge_integrals(self, peak, half_width):
        mpmath = pytest.importorskip("mpmath")
        report = validate_continuum(lorentzian_density(peak, half_width, 1.0, 0.5, 1.5))
        for value, side in ((report.left_value, "left"), (report.right_value, "right")):
            ref = lorentzian_edge(mpmath, peak, half_width, 0.5, 1.5, side)
            assert value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_self_energy_off_the_axis(self):
        # measured 5.3e-14
        mpmath = pytest.importorskip("mpmath")
        z = complex(0.8, -0.05)
        sigma = _self_energy(lorentzian_density(5e-7, 2e-5, 1.0, 0.5, 1.5), z)
        assert abs(sigma / lorentzian_sigma(mpmath, 5e-7, 2e-5, 0.5, 1.5, z) - 1) <= 1e-11

    def test_table_completeness(self):
        # 12,733 panels, measured 1 + 2.3e-14
        cm = lorentzian_density(5e-5, 5e-4, 1.0, 0.5, 1.5)
        assert abs(build_weight_table(cm, _auto_panels(cm, 0.0)).completeness - 1) <= 1e-12

    def test_symmetric_spike_has_no_shift(self):
        # the fold's mirrored nodes cancel exactly
        assert pv_shift(lorentzian_density(1e-3, 1e-6, 1.0, 0.5, 1.5)) == 0.0


class TestKinkedDensityOracle:
    """The shift and the edge integrals of density_from_discrete(paper_default_model(32)),
    a piecewise-linear density, against 30-digit mpmath.quad split at its kinks."""

    @pytest.fixture(scope="class")
    def kinked(self):
        mpmath = pytest.importorskip("mpmath")
        model = paper_default_model(32)
        xs = [mpmath.mpf(float(v)) for v in model.bath_freqs]
        ys = [mpmath.mpf(float(v)) for v in model.couplings**2 / model.uniform_spacing()]

        def segment(x):
            return min(max(bisect.bisect_right(xs, x) - 1, 0), len(xs) - 2)

        def slope(x):
            k = segment(x)
            return (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])

        def g(x):
            k = segment(x)
            return ys[k] + (x - xs[k]) * slope(x)

        return mpmath, density_from_discrete(model), xs, g, slope

    # (10, 0.37): two successive values agree there by chance 4.7e-10 off;
    # (25, 0.8): scipy's adaptive quad was 2.8e-9 off
    @pytest.mark.parametrize("k,frac", [(10, 0.37), (25, 0.8)])
    def test_pv_at_interior_alpha(self, kinked, k, frac):
        mpmath, cm, xs, g, slope = kinked
        alpha = float(xs[k] + frac * (xs[k + 1] - xs[k]))
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            ga = g(a)

            def quotient(x):
                return -slope(a) if x == a else (g(x) - ga) / (a - x)

            ref = (mpmath.quad(quotient, sorted(xs + [a]))
                   + ga * mpmath.log((a - xs[0]) / (xs[-1] - a)))
        assert abs(_self_energy(cm, alpha).real - float(ref)) < 1e-10

    def test_edge_integrals(self, kinked):
        mpmath, cm, xs, g, _ = kinked
        report = validate_continuum(cm)
        eta = mpmath.mpf(1e-8 * cm.band)  # the default edge margin
        with mpmath.workdps(30):
            left = mpmath.quad(lambda x: g(x) / (x - xs[0]), [xs[0] + eta] + xs[1:])
            right = mpmath.quad(lambda x: g(x) / (xs[-1] - x), xs[:-1] + [xs[-1] - eta])
        assert abs(report.left_value - float(left)) < 1e-10
        assert abs(report.right_value - float(right)) < 1e-10


class TestJumpRefusal:
    """A density with a jump inside the band breaks the continuity contract."""

    @pytest.fixture(scope="class")
    def stepped(self):
        return ContinuumModel(
            g_sq=lambda w: np.where(np.asarray(w, float) < 1.2, 0.01, 0.02),
            omega_min=0.5, omega_max=1.5, omega_sub=1.0, beta=1.0,
        )

    @pytest.mark.parametrize("fn", [pv_shift, validate_continuum])
    def test_refused_within_a_second(self, stepped, fn):
        start = time.perf_counter()
        with pytest.raises(ContinuumError, match="did not converge"):
            fn(stepped)
        assert time.perf_counter() - start < 1.0


class TestDiscreteContinuumConsistency:
    def test_weight_histogram_converges_to_density(self):
        sups = []
        for np1 in (32, 100):
            m = paper_default_model(np1)
            modes = solve_normal_modes(m)
            cm = density_from_discrete(m)
            table = build_weight_table(cm, max(400, 4 * np1))
            lo, hi = m.bath_freqs[0], m.bath_freqs[-1]
            pad = 0.05 * (hi - lo)
            edges = np.linspace(lo + pad, hi - pad, 9)
            sup = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                disc = modes.weights[(modes.alphas >= a) & (modes.alphas < b)].sum()
                mask = (table.nodes >= a) & (table.nodes < b)
                cont = float((table.density[mask] * table.quad_weights[mask]).sum())
                sup = max(sup, abs(disc - cont))
            sups.append(sup)
        assert sups[1] < sups[0] / 3.0

    def test_density_from_discrete_requires_equidistant(self):
        from qbmlab import SpectralModel
        m = SpectralModel(1.0, 1.0, 1.0, [0.8, 1.0, 1.3], [0.1, 0.1, 0.1])
        with pytest.raises(ContinuumError, match="equidistant"):
            density_from_discrete(m)


def chunked_density(cm, n_panels, order=12):
    """Reference weight density: the whole node x mesh-node ratio matrix in
    2M-element chunks, with coincident pairs given -g^2' of the mesh by np.where."""
    nodes, _, _, _ = _panel_nodes(cm.omega_min, cm.omega_max, n_panels, order)
    mesh = _mesh(cm, _NORM_TOL)
    g2_nodes = cm.g_sq(nodes)
    pv_vals = np.empty(nodes.size)
    chunk = max(1, 2_000_000 // mesh.nodes.size)
    for i in range(0, nodes.size, chunk):
        sl = slice(i, min(i + chunk, nodes.size))
        d = nodes[sl, None] - mesh.nodes[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (mesh.g2[None, :] - g2_nodes[sl, None]) / d
        ratio = np.where(np.abs(d) < 1e-14 * cm.band, -mesh.slopes, ratio)
        pv_vals[sl] = ratio @ mesh.weights
    pv_vals += g2_nodes * np.log((nodes - cm.omega_min) / (cm.omega_max - nodes))
    re = nodes - cm.omega_sub - pv_vals
    im = math.pi * g2_nodes
    return g2_nodes / (re * re + im * im)


DENSITIES = {
    "lorentzian": lambda: lorentzian_density(5e-4, 0.05, omega_sub=1.0,
                                             omega_min=0.5, omega_max=1.5),
    "ullersma": lambda: ullersma_density(c1=0.3, c2=1.0, omega_min=1e-3, omega_max=5.0),
    "discrete": lambda: density_from_discrete(paper_default_model(32)),
}


class TestBlockedTable:
    """The cache-blocked table and the factored time sum against their references."""

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_density_matches_chunked_reference(self, name):
        cm = DENSITIES[name]()
        table = build_weight_table(cm, 300)
        np.testing.assert_allclose(table.density, chunked_density(cm, 300), rtol=1e-14, atol=0)

    def test_overflowing_denominator_gives_zero_density(self):
        # a peak of 4e153: each square of the denominator is finite, their sum is not
        cm = lorentzian_density(4.27e153, 0.1, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = build_weight_table(cm, 64)
        assert np.all(np.isfinite(table.density)) and np.any(table.density == 0.0)
        assert table.completeness < 1e-150

    def test_coincident_nodes_take_the_mesh_slope_as_in_reference(self, narrow):
        # 4 of the 16 table panels are panels of the 8-panel table mesh: 48 pairs with d = 0
        table = build_weight_table(narrow, 16)
        assert np.intersect1d(table.nodes, _mesh(narrow, _NORM_TOL).nodes).size == 48
        assert np.all(np.isfinite(table.density))
        np.testing.assert_allclose(table.density, chunked_density(narrow, 16),
                                   rtol=1e-14, atol=0)

    # both sums round each phase alpha*t to ~alpha*t*eps; the panel counts keep
    # alpha*t below ~3000 at the phase limit, where 1e-13 separates them
    @pytest.mark.parametrize("name,n_panels", [("discrete", 100), ("lorentzian", 400),
                                               ("ullersma", 400)])
    def test_factored_sum_matches_direct_node_sum(self, name, n_panels):
        cm = DENSITIES[name]()
        table = build_weight_table(cm, n_panels)
        n_q = table.offsets.size
        nodes = table.nodes.reshape(table.centres.size, n_q)
        spacing = np.spacing(np.abs(nodes).max())
        assert np.abs(table.centres[:, None] + table.offsets - nodes).max() <= 4 * spacing
        ts = np.linspace(0.0, 0.5 / table.panel_width, 97)  # up to the phase limit
        direct = mode_sum(table.nodes, table.density * table.quad_weights, ts)
        s = survival_amplitude_continuum(cm, ts, table=table)
        np.testing.assert_allclose(s, direct, rtol=0, atol=1e-13)


def fsum_pv_sums(cm, nodes):
    """Reference mesh sums: math.fsum of every difference-quotient term at each node
    (a term within 1e-14 of the band takes -g^2' of the mesh), and the sum of their
    magnitudes."""
    mesh = _mesh(cm, _NORM_TOL)
    ref, scale = [], []
    for i in range(0, nodes.size, 500):
        d = nodes[i:i + 500, None] - mesh.nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (mesh.g2 - cm.g_sq(nodes[i:i + 500, None])) / d
        terms = mesh.weights * np.where(np.abs(d) < 1e-14 * cm.band, -mesh.slopes, terms)
        ref += [math.fsum(row) for row in terms.tolist()]
        scale.append(np.abs(terms).sum(axis=1))
    return np.array(ref), np.concatenate(scale)


def mesh_edges(cm):
    """Panel edges of the table mesh."""
    return _mesh(cm, _NORM_TOL).edges


class TestNearFarSums:
    """The table's mesh sums against math.fsum of all their terms, to 1e-14 of the
    sum of the terms' magnitudes."""

    def check(self, cm, nodes, stride=1):
        """Every stride-th node and the nodes on either side of each mesh edge."""
        sums = _pv_sums(cm, nodes, cm.g_sq(nodes))
        at_edges = np.searchsorted(nodes, mesh_edges(cm)[1:-1])
        sample = np.union1d(np.arange(0, nodes.size, stride),
                            np.clip(np.r_[at_edges - 1, at_edges], 0, nodes.size - 1))
        ref, scale = fsum_pv_sums(cm, nodes[sample])
        assert np.all(np.abs(sums[sample] - ref) <= 1e-14 * scale)

    # (3, 4): fewer table panels than mesh panels
    @pytest.mark.parametrize("n_panels,order", [(300, 12), (64, 12), (401, 8), (3, 4)])
    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_panel_schemes(self, name, n_panels, order):
        cm = DENSITIES[name]()
        self.check(cm, _panel_nodes(cm.omega_min, cm.omega_max, n_panels, order)[0], stride=7)

    def test_benchmark_scheme(self):
        cm = DENSITIES["lorentzian"]()  # 2,501 panels, 30,012 nodes
        self.check(cm, _panel_nodes(cm.omega_min, cm.omega_max, 2501, 12)[0], stride=41)

    @pytest.mark.parametrize("name", sorted(DENSITIES))
    def test_nodes_on_mesh_edges_and_mesh_nodes(self, name):
        cm = DENSITIES[name]()
        mesh = _mesh(cm, _NORM_TOL)
        inner = mesh.edges[1:-1]
        nodes = np.unique(np.concatenate([inner, np.nextafter(inner, -np.inf),
                                          np.nextafter(inner, np.inf), mesh.nodes[::5]]))
        self.check(cm, nodes)


class TestWorkBound:
    def test_unbounded_scheme_is_refused_before_building(self, narrow):
        with pytest.raises(ContinuumError, match="bound"):
            survival_amplitude_continuum(narrow, np.linspace(0.0, 1e6, 401))
        with pytest.raises(ContinuumError, match="bound"):
            build_weight_table(narrow, 10**7)

    @pytest.mark.parametrize("panels", [0, -3, 2.5, math.nan, -math.inf])
    def test_panel_count_must_be_a_positive_whole_number(self, narrow, panels):
        with pytest.raises(ContinuumError, match="positive whole number"):
            build_weight_table(narrow, panels)

    def test_integral_float_panel_count_is_a_count(self, narrow):
        assert np.array_equal(build_weight_table(narrow, 64.0).density,
                              build_weight_table(narrow, 64).density)

    def test_overflowing_panel_count_is_refused(self, narrow):
        # both panel counts overflow to inf: the phase at t = 1e308, the peak at g^2 = 1e-320
        with pytest.raises(ContinuumError, match="bound"):
            survival_amplitude_continuum(narrow, [0.0, 1e308])
        faint = lorentzian_density(1e-320, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
        with pytest.raises(ContinuumError, match="bound"):
            survival_amplitude_continuum(faint, [0.0, 10.0])
        with pytest.raises(ContinuumError, match="bound"):
            asymptotic_occupation(faint)

    def test_many_times_on_a_given_table_are_refused(self, narrow, narrow_table):
        with pytest.raises(ContinuumError, match="bound"):
            survival_amplitude_continuum(narrow, np.zeros(2 * 10**5), table=narrow_table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, narrow, bad):
        with pytest.raises(ContinuumError, match="finite"):
            survival_amplitude_continuum(narrow, [0.0, bad])


class TestGaussRule:
    def test_built_once_per_order(self, tmp_path, monkeypatch):
        from qbmlab import continuum
        from qbmlab.cli import main

        leggauss = np.polynomial.legendre.leggauss
        calls = []

        def counted(order):
            calls.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        continuum._gauss_rule.cache_clear()
        # the README continuum command
        assert main(["continuum", "--density", "lorentzian", "--band", "0.5", "1.5",
                     "--peak", "5e-4", "--half-width", "0.05", "--survival-t-max", "1000",
                     "--out-dir", str(tmp_path)]) == 0
        assert 1 <= len(calls) <= 2 and len(set(calls)) == len(calls)
        x, w = continuum._gauss_rule(12)
        assert not x.flags.writeable and not w.flags.writeable
        np.testing.assert_array_equal(x, leggauss(12)[0])


def peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestContinuumMemory:
    """2,501 panels (30,012 nodes x 96 nodes of the table mesh), 401 times."""

    @pytest.fixture(scope="class")
    def cm(self):
        return lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)

    def test_weight_table_peak(self, cm):
        # measured 2.1 MiB (49 MiB with the chunked ratio matrix)
        assert peak_mib(lambda: build_weight_table(cm, 2501)) < 4.0

    def test_survival_amplitude_peak(self, cm):
        # measured 4.8 MiB, table included (50 MiB with the direct node sum)
        ts = np.linspace(0.0, 1000.0, 401)
        assert peak_mib(lambda: survival_amplitude_continuum(cm, ts)) < 25.0
