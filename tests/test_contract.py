"""Property tests of the library's input contract.

Over the public functions of every module's ``__all__``: valid numeric inputs
give finite outputs of the documented shape, and invalid numeric inputs (a
wrong shape, nan or inf, a value out of range, a count or index that is not a
whole number) raise a subclass of ``qbmlab.QbmlabError``.  A bad bath index
raises IndexError and an unknown series column KeyError, each naming the bad
value.  Arguments of a wrong Python type, such as a string where a time is
expected, are outside the contract and are not drawn.
"""

import importlib
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qbmlab import (  # noqa: E402
    ContinuumError,
    EigensolveError,
    InitialState,
    ModelError,
    QbmlabError,
    RecurrenceError,
    SpectralModel,
    TimeGrid,
    TimeSeries,
    analyze,
    build_equidistant_bath,
    build_weight_table,
    detect_revivals,
    evolve_series,
    fit_exponential,
    kernels,
    khalfin_tail,
    langevin_table,
    lorentzian_coupling,
    lorentzian_density,
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
    pole_estimate,
    pv_shift,
    refine_pole,
    resolvent_boundary,
    solve_normal_modes,
    survival_amplitude,
    survival_amplitude_continuum,
    thermal_occupancy,
    ullersma_density,
    validate_continuum,
    validate_dissipation,
    width,
    width_from_discrete,
)
from qbmlab.dynamics import OBSERVABLES  # noqa: E402
from conftest import random_model  # noqa: E402

CHECK = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# draws that build a continuum weight table
FEW = settings(max_examples=8, deadline=None, derandomize=True, database=None)

MODULES = ("model", "eigensolve", "dynamics", "langevin", "recurrence", "continuum")
MODEL = paper_default_model(10)
MODES = solve_normal_modes(MODEL)
INIT = InitialState.thermal(MODEL)
DENSITY = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
SERIES = evolve_series(MODES, INIT, TimeGrid(0.0, 2.0, 300), ["N_omega", "P_surv"])

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SPAN = 200.0
TIMES = st.one_of(
    st.floats(-SPAN, SPAN),
    st.lists(st.floats(-SPAN, SPAN), max_size=12).map(np.array),
    st.builds(TimeGrid, st.floats(-SPAN, SPAN), st.floats(1e-3, 10.0), st.integers(1, 12)),
)
BAD_TIMES = st.one_of(
    NON_FINITE,
    st.tuples(st.lists(st.floats(-SPAN, SPAN), max_size=4), NON_FINITE)
    .map(lambda p: np.array(p[0] + [p[1]])),
    st.sampled_from([(2, 3), (1, 1), (2, 2, 2)]).map(np.ones),
    st.floats(1e9, 1e300),  # phases that round by more than the refusal bound
)
NOT_WHOLE = st.floats(1.0, 40.0).filter(lambda x: not x.is_integer())


def _time_shape(t) -> tuple:
    return (t.count,) if isinstance(t, TimeGrid) else np.shape(t)


def _refused(call):
    with pytest.raises(QbmlabError):
        call()


@pytest.mark.parametrize("name", MODULES)
def test_every_exception_class_is_a_refusal(name):
    module = importlib.import_module(f"qbmlab.{name}")
    for value in (getattr(module, n) for n in module.__all__):
        if isinstance(value, type) and issubclass(value, Exception) \
                and not issubclass(value, Warning):
            assert issubclass(value, QbmlabError), value


def test_error_classes_keep_their_builtin_bases():
    assert issubclass(ModelError, ValueError) and issubclass(RecurrenceError, ValueError)
    assert issubclass(EigensolveError, RuntimeError)
    assert issubclass(ContinuumError, RuntimeError)


def _valid_coefficients(t):
    """omega_sq and gamma, stacked on the last axis, with 0 for invalid samples (NaN
    by design)."""
    k = kernels(MODES, t)
    return np.stack([np.where(np.isnan(c), 0.0, c) for c in (k.omega_sq, k.gamma)], axis=-1)


# every function of time over the N+1 = 10 model, and the shape it adds to the times'
OF_TIME = {
    "survival_amplitude": (lambda t: survival_amplitude(MODES, t), ()),
    "p_omega_omega": (lambda t: p_omega_omega(MODES, t), ()),
    "p_omega_n": (lambda t: p_omega_n(MODES, 3, t), ()),
    "p_nm": (lambda t: p_nm(MODES, 2, 7, t), ()),
    "mean_subsystem_occupation": (lambda t: mean_subsystem_occupation(MODES, INIT, t), ()),
    "mean_bath_occupation": (lambda t: mean_bath_occupation(MODES, INIT, 4, t), ()),
    "mean_bath_occupations": (lambda t: mean_bath_occupations(MODES, INIT, t), (9,)),
    "mean_position": (lambda t: mean_position(MODES, 0.3, -0.2, t), ()),
    "mean_momentum_tilde": (lambda t: mean_momentum_tilde(MODES, 0.3, -0.2, t), ()),
    # the six kernels; their coefficients, NaN at invalid samples, are the next case
    "kernels": (lambda t: np.stack(list(vars(kernels(MODES, t)).values())[:6], axis=-1), (6,)),
    "langevin_coefficients": (lambda t: _valid_coefficients(t), (2,)),
}


@pytest.mark.parametrize("name", sorted(OF_TIME))
@CHECK
@given(t=TIMES)
def test_functions_of_time_give_finite_values_of_the_times_shape(name, t):
    f, extra = OF_TIME[name]
    out = np.asarray(f(t))
    assert out.shape == _time_shape(t) + extra
    assert np.isfinite(out).all()


@pytest.mark.parametrize("name", sorted(OF_TIME))
@CHECK
@given(t=BAD_TIMES)
def test_functions_of_time_refuse_bad_times(name, t):
    _refused(lambda: OF_TIME[name][0](t))


@FEW
@given(t=st.one_of(st.floats(0.0, SPAN),
                   st.lists(st.floats(0.0, SPAN), max_size=8).map(np.array),
                   st.builds(TimeGrid, st.floats(0.0, SPAN), st.floats(1e-3, 10.0),
                             st.integers(1, 8))))
def test_continuum_survival_of_any_times(t):
    out = survival_amplitude_continuum(DENSITY, t)
    assert np.shape(out) == _time_shape(t) and np.isfinite(out).all()


@CHECK
@given(t=st.one_of(BAD_TIMES, st.floats(-SPAN, -1e-300), st.floats(1e7, 1e300)))
def test_continuum_survival_refuses_bad_times(t):
    _refused(lambda: survival_amplitude_continuum(DENSITY, t))


@CHECK
@given(n=st.one_of(st.integers(-5, 0), st.integers(10, 50), st.floats(1.0, 9.0)
                   .filter(lambda x: not x.is_integer()), NON_FINITE))
def test_bad_bath_indices_raise_an_index_error_naming_them(n):
    calls = [lambda: p_omega_n(MODES, n, 1.0), lambda: p_nm(MODES, n, 1, 1.0),
             lambda: p_nm(MODES, 1, n, 1.0), lambda: mean_bath_occupation(MODES, INIT, n, 1.0)]
    for call in calls:
        with pytest.raises(IndexError, match=f"bath index {re.escape(str(n))} "):
            call()


FREQS = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6).map(np.array)


@CHECK
@given(freqs=FREQS, cols=st.sampled_from([(), (1,), (3,), (2, 2)]), t=TIMES,
       data=st.data())
def test_mode_sum_shapes(freqs, cols, t, data):
    coeffs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=freqs.size * math.prod(cols),
                                max_size=freqs.size * math.prod(cols)))
    out = mode_sum(freqs, np.reshape(coeffs, (freqs.size,) + cols), t)
    assert out.shape == _time_shape(t) + cols and np.isfinite(out).all()


@CHECK
@given(freqs=FREQS, bad=NON_FINITE, t=TIMES)
def test_mode_sum_refuses_bad_arguments(freqs, bad, t):
    n = freqs.size
    _refused(lambda: mode_sum(freqs, np.ones(n + 1), t))
    _refused(lambda: mode_sum(np.reshape(np.append(freqs, freqs), (2, n)), np.ones(2 * n), t))
    _refused(lambda: mode_sum(freqs, np.append(np.ones(n - 1), bad), t))
    _refused(lambda: mode_sum(np.append(freqs, bad), np.ones(n + 1), 1.0))


@CHECK
@given(t0=NON_FINITE, dt=st.one_of(NON_FINITE, st.floats(-1.0, 0.0)),
       count=st.one_of(st.integers(-3, 0), NOT_WHOLE, NON_FINITE), size=st.integers(0, 8))
def test_time_grid_refusals(t0, dt, count, size):
    _refused(lambda: TimeGrid(t0, 1.0, 5))
    _refused(lambda: TimeGrid(0.0, dt, 5))
    _refused(lambda: TimeGrid(0.0, 1.0, count))
    if size != 4:
        _refused(lambda: TimeSeries(TimeGrid(0.0, 1.0, 4), {"a": np.ones(size)}))


@CHECK
@given(names=st.lists(st.sampled_from(OBSERVABLES), unique=True),
       t0=st.floats(-SPAN, SPAN), dt=st.floats(1e-3, 10.0), count=st.integers(1, 12),
       x0=st.floats(-10.0, 10.0), p0=st.floats(-10.0, 10.0))
def test_series_columns_are_finite(names, t0, dt, count, x0, p0):
    grid = TimeGrid(t0, dt, count)
    series = evolve_series(MODES, INIT, grid, names, x0=x0, p0=p0)
    assert list(series.columns) == names
    table = langevin_table(MODES, grid)
    valid = ~np.isnan(table.column("omega_sq"))
    for col in [*series.columns.values(), *(c[valid] for c in table.columns.values())]:
        assert np.isfinite(col).all()
    assert all(c.shape == (count,) for c in [*series.columns.values(), *table.columns.values()])


@CHECK
@given(bad=NON_FINITE, size=st.integers(1, 20).filter(lambda n: n != 9))
def test_series_refusals(bad, size):
    grid = TimeGrid(0.0, 1.0, 5)
    _refused(lambda: evolve_series(MODES, INIT, grid.times, ["P_surv"]))
    _refused(lambda: langevin_table(MODES, grid.times))
    _refused(lambda: evolve_series(MODES, INIT, grid, ["N_omega", "bogus"]))
    _refused(lambda: evolve_series(MODES, INIT, grid, ["X_mean"], x0=bad))
    _refused(lambda: evolve_series(MODES, InitialState(1.0, np.ones(size)), grid, ["N_omega"]))


@CHECK
@given(seed=st.integers(0, 2**32 - 1), n_osc=st.integers(1, 12))
def test_solved_random_models_are_finite(seed, n_osc):
    modes = solve_normal_modes(random_model(np.random.default_rng(seed), n_osc))
    assert modes.alphas.shape == modes.weights.shape == (n_osc + 1,)
    assert np.isfinite(modes.alphas).all() and np.isfinite(modes.weights).all()


FIELDS = ("omega_sub", "beta", "kappa", "bath_freqs", "couplings", "mass")


@CHECK
@given(field=st.sampled_from(FIELDS), bad=NON_FINITE)
def test_model_refusals(field, bad):
    args = dict(omega_sub=1.0, beta=1.0, kappa=1.0, bath_freqs=[0.9, 1.1],
                couplings=[0.01, 0.01], mass=1.0)
    args[field] = [0.9, bad] if field in ("bath_freqs", "couplings") else bad
    _refused(lambda: SpectralModel(**args))
    _refused(lambda: InitialState(bad, [1.0]))
    _refused(lambda: InitialState(1.0, [1.0, bad]))
    _refused(lambda: thermal_occupancy(bad, 1.0))
    _refused(lambda: thermal_occupancy(1.0, bad))
    _refused(lambda: validate_dissipation(MODEL, delta=bad))
    _refused(lambda: lorentzian_coupling(MODEL.bath_freqs, 1.0, bad, 0.01))
    _refused(lambda: lorentzian_coupling(MODEL.bath_freqs, bad, 0.01, 0.01))
    _refused(lambda: build_equidistant_bath(bad, 5, band_width=0.1))
    _refused(lambda: build_equidistant_bath(1.0, 5, band_width=bad))
    _refused(lambda: paper_default_model(10, band_width=bad))
    _refused(lambda: paper_default_model(10, d_over_a=bad))


@CHECK
@given(count=st.one_of(NOT_WHOLE, NON_FINITE, st.integers(-3, 2),
                       st.integers(2, 20).map(lambda k: 2 * k)))
def test_bath_counts_are_odd_whole_numbers(count):
    _refused(lambda: build_equidistant_bath(1.0, count, band_width=0.1))
    _refused(lambda: paper_default_model(count + 1))


@CHECK
@given(n_modes=st.integers(2, 20).map(lambda k: 2 * k), band=st.floats(1e-3, 0.5),
       d_over_a=st.floats(0.1, 3.0), beta=st.floats(0.1, 10.0), delta=st.floats(1e-6, 1.0))
def test_paper_models_are_finite(n_modes, band, d_over_a, beta, delta):
    model = paper_default_model(n_modes, band_width=band, d_over_a=d_over_a, beta=beta)
    assert model.n_osc == n_modes - 1
    assert np.isfinite(model.couplings).all()
    report = validate_dissipation(model, delta=delta)
    assert all(math.isfinite(v) for v in (report.left_sum, report.right_sum))
    assert math.isfinite(thermal_occupancy(beta, model.omega_sub))


@CHECK
@given(threshold=st.floats(0.01, 0.99), separation=st.floats(0.0, 100.0),
       plateau=st.floats(0.0, 1.0))
def test_revivals_are_finite(threshold, separation, plateau):
    for peak in detect_revivals(SERIES, "N_omega", threshold, separation, plateau):
        assert math.isfinite(peak.time) and math.isfinite(peak.height)
    report = analyze(MODES, SERIES, "N_omega", threshold)
    assert math.isfinite(report.t_poincare) and math.isfinite(report.plateau)


@CHECK
@given(bad=NON_FINITE, threshold=st.one_of(NON_FINITE, st.floats(-1.0, 0.0),
                                           st.floats(1.0, 2.0)),
       window=st.lists(st.floats(0.0, 600.0), max_size=3).filter(lambda w: len(w) != 2))
def test_recurrence_refusals(bad, threshold, window):
    _refused(lambda: detect_revivals(SERIES, "N_omega", threshold))
    _refused(lambda: detect_revivals(SERIES, "N_omega", 0.5, min_separation=bad))
    _refused(lambda: detect_revivals(SERIES, "N_omega", 0.5, min_separation=-1.0))
    _refused(lambda: detect_revivals(SERIES, "N_omega", 0.5, plateau=bad))
    _refused(lambda: fit_exponential(SERIES, "N_omega", (10.0, 100.0), bad))
    _refused(lambda: fit_exponential(SERIES, "N_omega", tuple(window), 0.5))
    _refused(lambda: analyze(MODES, SERIES, "N_omega", threshold))
    with pytest.raises(KeyError, match="'bogus'"):
        analyze(MODES, SERIES, "bogus")


@FEW
@given(peak=st.floats(1e-4, 1e-3), half_width=st.floats(0.02, 0.5),
       alpha=st.floats(0.51, 1.49))
def test_continuum_values_are_finite(peak, half_width, alpha):
    cm = lorentzian_density(peak, half_width, 1.0, 0.5, 1.5)
    values = [pv_shift(cm), width(cm), pole_estimate(cm).z0, refine_pole(cm),
              resolvent_boundary(cm, alpha), *vars(validate_continuum(cm)).values()]
    assert np.isfinite(np.hstack(values).astype(complex)).all()


@CHECK
@given(bad=NON_FINITE, panels=st.one_of(NON_FINITE, st.integers(-3, 0), NOT_WHOLE),
       t_range=st.one_of(st.lists(st.floats(1.0, 10.0), max_size=3)
                         .filter(lambda r: len(r) != 2),
                         st.tuples(st.floats(5.0, 10.0), NON_FINITE)))
def test_continuum_refusals(bad, panels, t_range):
    _refused(lambda: lorentzian_density(bad, 0.05, 1.0, 0.5, 1.5))
    _refused(lambda: lorentzian_density(5e-4, bad, 1.0, 0.5, 1.5))
    _refused(lambda: lorentzian_density(5e-4, 0.05, bad, 0.5, 1.5))
    _refused(lambda: ullersma_density(bad, 1.0, 0.5, 1.5))
    _refused(lambda: ullersma_density(0.3, 1.0, 0.5, bad))
    _refused(lambda: resolvent_boundary(DENSITY, bad))
    _refused(lambda: refine_pole(DENSITY, complex(bad, -0.01)))
    _refused(lambda: build_weight_table(DENSITY, panels))
    _refused(lambda: khalfin_tail(DENSITY, tuple(t_range)))


@CHECK
@given(g=st.floats(1e160, 1e300))
def test_discrete_width_refuses_overflow(g):
    model = SpectralModel(1.0, 1.0, 1.0, [0.9, 1.0, 1.1], [g, g, g])
    _refused(lambda: width_from_discrete(model))
