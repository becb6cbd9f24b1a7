import math
import warnings

import numpy as np
import pytest

from qbmlab import (
    InitialState,
    ModelError,
    ModelFormatError,
    SpectralModel,
    build_equidistant_bath,
    load_model,
    lorentzian_coupling,
    paper_default_model,
    save_model,
    thermal_occupancy,
    validate_dissipation,
)


class TestEquidistantBath:
    def test_direct_spacing_n3(self):
        freqs = build_equidistant_bath(1.0, 3, spacing=0.1)
        assert freqs == pytest.approx([0.9, 1.0, 1.1], abs=0)

    def test_center_frequency_exact(self):
        freqs = build_equidistant_bath(1.0, 31, band_width=0.018)
        assert freqs[15] == 1.0  # index (N+1)/2, exactly

    def test_conventions_differ(self):
        prose = build_equidistant_bath(1.0, 31, band_width=0.018, convention="prose")
        formula = build_equidistant_bath(1.0, 31, band_width=0.018, convention="formula")
        a_prose = prose[1] - prose[0]
        a_formula = formula[1] - formula[0]
        assert a_prose == pytest.approx(0.018 / 29, rel=1e-15)
        assert a_formula == pytest.approx(0.018 / 30, rel=1e-15)
        # formula convention means band_width is exactly the frequency span
        assert formula[-1] - formula[0] == pytest.approx(0.018, rel=1e-12)

    @pytest.mark.parametrize("n", [5, 31, 99])
    def test_grid_symmetry_about_omega(self, n):
        freqs = build_equidistant_bath(1.0, n, band_width=0.018)
        np.testing.assert_allclose(freqs + freqs[::-1], 2.0, rtol=1e-14)

    def test_even_n_rejected(self):
        with pytest.raises(ModelError, match="odd"):
            build_equidistant_bath(1.0, 30, band_width=0.018)

    @pytest.mark.parametrize("n_osc", [31.5, 30.999, math.nan, math.inf])
    def test_non_integral_count_rejected(self, n_osc):
        with pytest.raises(ModelError, match=f"got {n_osc}"):
            build_equidistant_bath(1.0, n_osc, band_width=0.018)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ModelError, match="unknown band-width convention 'width'"):
            build_equidistant_bath(1.0, 31, band_width=0.018, convention="width")

    def test_nonpositive_lowest_frequency_rejected(self):
        with pytest.raises(ModelError, match="omega_1"):
            build_equidistant_bath(0.005, 31, band_width=1.0)

    def test_band_and_spacing_exclusive(self):
        with pytest.raises(ModelError):
            build_equidistant_bath(1.0, 5, band_width=0.1, spacing=0.01)
        with pytest.raises(ModelError):
            build_equidistant_bath(1.0, 5)


class TestLorentzianCoupling:
    def test_peak_on_resonance(self):
        freqs = np.array([0.9, 1.0, 1.1])
        g = lorentzian_coupling(freqs, 1.0, d_amp=0.05, a_width=0.1)
        assert g[1] == 0.05

    def test_half_maximum_at_width(self):
        freqs = np.array([1.0 - 0.1, 1.0, 1.0 + 0.1])
        g = lorentzian_coupling(freqs, 1.0, d_amp=0.05, a_width=0.1)
        assert g[0] == pytest.approx(0.025, rel=1e-15)
        assert g[2] == pytest.approx(0.025, rel=1e-15)

    def test_symmetry_on_equidistant_grid(self):
        freqs = build_equidistant_bath(1.0, 31, band_width=0.018)
        g = lorentzian_coupling(freqs, 1.0, d_amp=1e-3, a_width=0.009)
        np.testing.assert_allclose(g, g[::-1], rtol=1e-13)

    def test_width_must_be_positive(self):
        # also negative and nan widths, and widths whose square underflows or overflows
        for width in (0.0, -0.1, -1e-200, math.nan, 1e-200, 1e200):
            with pytest.raises(ModelError):
                lorentzian_coupling(np.array([1.0]), 1.0, 0.1, width)


class TestThermalOccupancy:
    def test_unit_beta_omega(self):
        assert thermal_occupancy(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)
        assert thermal_occupancy(1.0, 1.0) == pytest.approx(0.581976706869, rel=1e-11)

    def test_log_two_gives_one(self):
        assert thermal_occupancy(1.0, math.log(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_zero_temperature_limit(self):
        assert thermal_occupancy(1e4, 1.0) == pytest.approx(0.0, abs=1e-300)

    def test_strictly_decreasing(self):
        omegas = np.linspace(0.2, 3.0, 30)
        vals = [thermal_occupancy(1.0, w) for w in omegas]
        assert np.all(np.diff(vals) < 0)
        betas = np.linspace(0.2, 3.0, 30)
        vals_b = [thermal_occupancy(b, 1.0) for b in betas]
        assert np.all(np.diff(vals_b) < 0)

    def test_domain_errors(self):
        with pytest.raises(ModelError):
            thermal_occupancy(-1.0, 1.0)
        with pytest.raises(ModelError):
            thermal_occupancy(1.0, 0.0)

    def test_overflow_reported(self):
        with pytest.raises(ModelError, match="out of range"):
            thermal_occupancy(1e-160, 1e-160)


class TestSpectralModelInvariants:
    def test_descending_frequencies_rejected(self):
        with pytest.raises(ModelError, match="increasing"):
            SpectralModel(1.0, 1.0, 1.0, [1.1, 1.0, 0.9], [0.1, 0.1, 0.1])

    def test_zero_coupling_rejected(self):
        with pytest.raises(ModelError, match="nonzero"):
            SpectralModel(1.0, 1.0, 1.0, [0.9, 1.0, 1.1], [0.1, 0.0, 0.1])
        # a coupling whose square underflows is as good as zero to the secular equation
        with pytest.raises(ModelError, match=r"g\[3\] = -1e-170 squares to zero"):
            SpectralModel(1.0, 1.0, 1.0, [0.9, 1.0, 1.1], [0.1, 0.1, -1e-170])
        SpectralModel(1.0, 1.0, 1.0, [0.9, 1.0, 1.1], [0.1, 0.1, 1e-160])  # g^2 subnormal

    def test_empty_bath_rejected(self):
        with pytest.raises(ModelError):
            SpectralModel(1.0, 1.0, 1.0, [], [])

    def test_negative_kappa_rejected(self):
        with pytest.raises(ModelError):
            SpectralModel(1.0, 1.0, -0.5, [1.0], [0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        good = dict(omega_sub=1.0, beta=1.0, kappa=1.0, bath_freqs=[0.9, 1.1],
                    couplings=[0.1, 0.1], mass=1.0)
        for name in good:
            fields = dict(good)
            fields[name] = [0.9, bad] if name in ("bath_freqs", "couplings") else bad
            with pytest.raises(ModelError, match=f"{name} must be finite"):
                SpectralModel(**fields)

    @pytest.mark.parametrize("fields, message", [
        ({"omega_sub": 0.0}, "omega_sub must be positive, got 0.0"),
        ({"mass": -1.0}, "mass must be positive, got -1.0"),
        ({"couplings": [0.1]}, r"couplings \(1\) and bath_freqs \(2\) differ in length"),
        ({"bath_freqs": [-0.1, 1.1]}, "omega_1 = -0.1"),
        ({"bath_freqs": [[0.9, 1.1]]}, "bath_freqs must be a one-dimensional sequence"),
    ], ids=["omega_sub", "mass", "lengths", "omega_1", "two-dimensional"])
    def test_out_of_range_values_rejected(self, fields, message):
        good = dict(omega_sub=1.0, beta=1.0, kappa=1.0, bath_freqs=[0.9, 1.1],
                    couplings=[0.1, 0.1], mass=1.0)
        with pytest.raises(ModelError, match=message):
            SpectralModel(**(good | fields))

    def test_fractional_kappa_allowed(self):
        m = SpectralModel(1.0, 1.0, 0.75, [1.0], [0.1])
        assert m.kappa == 0.75

    def test_uniform_spacing_detection(self):
        m = paper_default_model(10)
        assert m.uniform_spacing() == pytest.approx(0.018 / 7, rel=1e-12)
        jitter = SpectralModel(1.0, 1.0, 1.0, [0.9, 1.0, 1.15], [0.1, 0.1, 0.1])
        assert jitter.uniform_spacing() is None


class TestInitialState:
    def test_thermal_occupancies(self, model_32):
        init = InitialState.thermal(model_32)
        expected = 1.0 / np.expm1(model_32.beta * model_32.bath_freqs)
        np.testing.assert_allclose(init.bath_occupancies, expected, rtol=1e-15)
        assert np.all(np.diff(init.bath_occupancies) < 0)

    def test_huge_beta_gives_zero_occupancies_without_overflow(self):
        # beta * omega far above the exp range: exp(-x)/(1 - exp(-x)), not 1/expm1(x);
        # at 1.79e308 the product itself overflows above omega = 1.005, to its limit 0
        for beta in (1e300, 1.79e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                init = InitialState.thermal(paper_default_model(10, beta=beta))
            assert np.all(init.bath_occupancies == 0.0)

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ModelError):
            InitialState(1.0, np.array([0.5, -0.1]))
        with pytest.raises(ModelError, match="kappa must be nonnegative, got -0.5"):
            InitialState(-0.5, np.array([0.5]))

    def test_non_finite_values_rejected(self):
        with pytest.raises(ModelError, match="finite"):
            InitialState(math.nan, np.array([0.5]))
        with pytest.raises(ModelError, match="finite"):
            InitialState(1.0, np.array([0.5, math.inf]))


class TestValidateDissipation:
    def test_reference_choice_passes(self, model_32):
        report = validate_dissipation(model_32)
        assert report.all_pass
        assert report.d_bound_ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)

    def test_overcoupled_flagged(self):
        m = paper_default_model(32, d_over_a=20.0)
        report = validate_dissipation(m)
        assert not report.all_pass
        assert report.d_bound_ratio > 1.0

    def test_conservative_bound_is_not_a_failure(self):
        # twice the reference coupling exceeds the sqrt(2) ratio guide while
        # the actual sum conditions still hold
        m = paper_default_model(32, d_over_a=2.0)
        report = validate_dissipation(m)
        assert report.all_pass
        assert report.d_bound_ratio > 1.0

    def test_vanishing_couplings_pass_trivially(self):
        freqs = build_equidistant_bath(1.0, 11, band_width=0.02)
        m = SpectralModel(1.0, 1.0, 1.0, freqs, np.full(11, 1e-12))
        report = validate_dissipation(m)
        assert report.all_pass
        assert report.left_sum < 1e-20 and report.right_sum < 1e-20

    def test_delta_below_an_ulp_of_the_band(self):
        # w[-1] + delta rounds to w[-1]; both end terms must still be g^2/delta
        m = paper_default_model(6, band_width=1.0)
        delta = 1e-298
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_dissipation(m, delta=delta)
        g2 = m.couplings**2
        assert report.left_sum == pytest.approx(g2[0] / delta, rel=1e-12)
        assert report.right_sum == pytest.approx(g2[-1] / delta, rel=1e-12)
        assert not report.all_pass

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_non_finite_delta_rejected(self, model_32, delta):
        # at delta = inf every sum is 0 against infinite bounds, a vacuous pass
        with pytest.raises(ModelError, match=f"delta must be positive and finite, got {delta}"):
            validate_dissipation(model_32, delta=delta)

    def test_passes_consistent_with_sums(self, model_32):
        report = validate_dissipation(model_32)
        assert report.passes[0] == (report.left_sum < report.left_bound)
        assert report.passes[1] == (report.right_sum < report.right_bound)


class TestModelFiles:
    def test_round_trip_full_precision(self, tmp_path, model_32):
        path = tmp_path / "m.txt"
        save_model(model_32, path)
        loaded = load_model(path)
        assert loaded.omega_sub == model_32.omega_sub
        assert loaded.beta == model_32.beta
        assert loaded.kappa == model_32.kappa
        assert loaded.mass == model_32.mass
        np.testing.assert_array_equal(loaded.bath_freqs, model_32.bath_freqs)
        np.testing.assert_array_equal(loaded.couplings, model_32.couplings)

    def test_small_valid_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(
            "# three oscillators\n"
            "omega_sub = 1.0\n"
            "beta = 2.0\n"
            "kappa = 0.5\n"
            "[bath]\n"
            "0.9  0.01\n"
            "1.0  0.02  # resonant\n"
            "1.1  0.01\n"
        )
        m = load_model(path)
        assert m.n_osc == 3
        assert m.beta == 2.0
        assert m.mass == 1.0

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        defects = {
            "omega_sub = 1.0\nnot a key value\n[bath]\n1.0 0.1\n":
                "line 2: expected 'key = value'",
            "omega_sub = 1.0\n[bath]\n1.0 0.1\n[bath]\n": r"line 4: duplicate \[bath\]",
            "omega_sub = 1.0\nomega = 2.0\n[bath]\n1.0 0.1\n": "line 2: unknown key 'omega'",
            "omega_sub = 1.0\nbeta = 1\nbeta = 2\n[bath]\n1.0 0.1\n":
                "line 3: duplicate key 'beta'",
            "omega_sub = one\n[bath]\n1.0 0.1\n": "line 1: cannot parse value for 'omega_sub'",
            "omega_sub = 1.0\n[bath]\n1.0 0.1\n1.1 g\n": "line 4: cannot parse pair",
        }
        for text, message in defects.items():
            path.write_text(text)
            with pytest.raises(ModelFormatError, match=message):
                load_model(path)

    def test_bad_pair_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("omega_sub = 1.0\n[bath]\n1.0 0.1 9\n")
        with pytest.raises(ModelFormatError, match="line 3"):
            load_model(path)

    def test_descending_frequencies_named(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("omega_sub = 1.0\n[bath]\n1.1 0.1\n0.9 0.1\n")
        with pytest.raises(ModelError, match="increasing"):
            load_model(path)

    def test_zero_coupling_named(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("omega_sub = 1.0\n[bath]\n0.9 0.1\n1.0 0.0\n")
        with pytest.raises(ModelError, match="valid only"):
            load_model(path)

    def test_missing_bath(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("omega_sub = 1.0\n")
        with pytest.raises(ModelFormatError, match="bath"):
            load_model(path)

    def test_missing_omega_sub(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("beta = 1.0\n[bath]\n1.0 0.1\n")
        with pytest.raises(ModelFormatError, match="missing required key 'omega_sub'"):
            load_model(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"omega_sub = 1.0\n[bath]\n0.9 0.1\xff\n")
        with pytest.raises(ModelFormatError, match="not UTF-8"):
            load_model(path)


class TestPaperDefaultFamily:
    def test_bath_size_parity(self):
        m = paper_default_model(10)
        assert m.n_osc == 9
        with pytest.raises(ModelError):
            paper_default_model(11)  # N = 10 is even

    @pytest.mark.parametrize("n_modes", [32.5, 10.25, math.nan])
    def test_non_integral_count_rejected(self, n_modes):
        # 32.5 would build an even bath of 32 with no frequency at omega_sub
        with pytest.raises(ModelError, match=f"n_modes = {n_modes}"):
            paper_default_model(n_modes)

    def test_integral_float_count_allowed(self):
        m = paper_default_model(32.0)
        assert m.n_osc == 31
        assert np.array_equal(m.bath_freqs, paper_default_model(32).bath_freqs)

    def test_coupling_peak_equals_spacing(self):
        m = paper_default_model(32)
        a = m.uniform_spacing()
        assert np.abs(m.couplings).max() == pytest.approx(a, rel=1e-12)

    def test_defaults(self):
        m = paper_default_model(32)
        assert m.omega_sub == 1.0 and m.beta == 1.0 and m.kappa == 1.0
